"""Polynomials in the delay operator and the pole-placement system matrix.

Everything here works with polynomials in q = z^{-1}, stored lowest power
first: ``coeffs[k]`` multiplies z^{-k}.  Stability questions are asked about
the lifted monomial form z^d * p(z^{-1}), a plain polynomial in z, so root
finding returns points in the z plane and a characteristic polynomial is
stable when all of them sit strictly inside the unit disk.

The simultaneous (Durand-Kerner) root iteration is implemented directly: the
degrees involved stay small (at most a few dozen), the iteration needs no
factorization machinery, and zero roots coming from low-order zero
coefficients are deflated exactly before iterating so lifted polynomials with
trailing zero coefficients report exact zero roots.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "Polynomial",
    "RootConvergenceError",
    "poly_roots",
    "spectral_radius",
    "sylvester_layout",
    "sylvester_coeffs",
    "sylvester_matrix",
    "singularity_threshold",
    "sylvester_margin",
    "sylvester_rcond",
]

# |det| at or below this multiple of max(1, ||M||_inf) counts as singular
SINGULAR_REL_THRESHOLD = 1e-12


class RootConvergenceError(RuntimeError):
    """Root iteration failed to settle within the iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (max residual {residual:.3e})")
        self.residual = residual


class Polynomial:
    """Immutable real polynomial in z^{-1}.

    Parameters
    ----------
    coeffs : array_like
        Coefficients, lowest power first.  The stored length fixes the
        nominal degree: trailing zeros are kept, so a polynomial can carry
        an explicit lift degree (useful for characteristic polynomials that
        are declared degree 2n+1 but have fewer nonzero terms).

    The zero polynomial is represented as ``[0.0]`` with degree 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    @property
    def is_monic(self) -> bool:
        # monic in the delay-operator sense: constant coefficient equal to 1
        return self.coeffs[0] == 1.0

    def __repr__(self):
        return f"Polynomial({np.array2string(self.coeffs, separator=', ')})"


def _durand_kerner(monic_low_first: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """All roots of a monic polynomial with coefficients c0..c_{d-1} (low first).

    Simultaneous iteration from points on a circle of radius 1 + max|coeff|,
    stopping when the largest update drops below ``tol``.
    """
    d = monic_low_first.size
    coeffs = np.concatenate((monic_low_first, [1.0])).astype(complex)

    radius = 1.0 + np.abs(monic_low_first).max(initial=0.0)
    angles = 2.0 * np.pi * np.arange(d) / d + 0.4  # phase offset breaks axis symmetry
    x = radius * np.exp(1j * angles)

    def evaluate(pts):
        acc = np.zeros_like(pts)
        for c in coeffs[::-1]:
            acc = acc * pts + c
        return acc

    for _ in range(max_iter):
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        denom = diff.prod(axis=1)
        step = evaluate(x) / denom
        x = x - step
        if np.abs(step).max() <= tol:
            return x
    residual = float(np.abs(evaluate(x)).max())
    raise RootConvergenceError(
        f"root iteration did not converge in {max_iter} iterations", residual
    )


def poly_roots(p: Polynomial, tol: float = 1e-12, max_iter: int = 1000) -> np.ndarray:
    """Roots in z of the lifted polynomial z^{deg(p)} * p(z^{-1}).

    Zero roots contributed by vanishing low-order lifted coefficients are
    deflated exactly, so multiplicities at the origin are reported without
    iteration error.  Returned sorted by (real, imag) for determinism.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    # ascending powers of z: coefficient of z^j is coeffs[deg - j]
    asc = p.coeffs[::-1].copy()
    # leading zeros of p drop the lifted degree
    lead = np.nonzero(asc)[0][-1]
    asc = asc[: lead + 1]
    # low-order zeros are exact roots at the origin
    first = np.nonzero(asc)[0][0]
    zeros_at_origin = np.zeros(first, dtype=complex)
    core = asc[first:]
    if core.size == 1:
        roots = zeros_at_origin
    else:
        monic = (core[:-1] / core[-1]).astype(float)
        found = _durand_kerner(monic, tol, max_iter)
        roots = np.concatenate((zeros_at_origin, found))
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def spectral_radius(p: Polynomial, lift_degree: int) -> float:
    """Largest root modulus of z^{lift_degree} * p(z^{-1}).

    Extra zero roots introduced by lifting beyond deg(p) never raise the
    maximum, so the lift degree only needs validating, not expanding.
    """
    if lift_degree < p.degree:
        raise ValueError(
            f"lift degree {lift_degree} is below the polynomial degree {p.degree}"
        )
    roots = poly_roots(p)
    if roots.size == 0:
        return 0.0
    return float(np.abs(roots).max())


@lru_cache(maxsize=None)
def sylvester_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index map (rows, cols, src) of the pole-placement system matrix.

    ``m[rows, cols] = c[src]`` fills the (2n+1) x (2n+1) matrix from the
    stacked coefficients c = [abar_0..abar_{n+1}, bhat_0..bhat_n]: column
    l_j holds abar shifted down j-1 rows, column p_j holds bhat shifted down
    j-1 rows.  Every float, batched, and exact assembly goes through it.
    """
    entries = [(j + s, j, s) for j in range(n) for s in range(n + 2)]
    entries += [(j + s, n + j, n + 2 + s) for j in range(n + 1) for s in range(n + 1)]
    layout = tuple(np.array(v, dtype=np.intp) for v in zip(*entries))
    for arr in layout:
        arr.flags.writeable = False
    return layout


def sylvester_coeffs(theta: np.ndarray, n: int) -> np.ndarray:
    """Coefficients c = [1, -abar_1..-abar_{n+1}, 0, b_1..b_n] of an estimate.

    c[:n+2] lists Abar(z^{-1}) = 1 - sum_k abar_k z^{-k} and c[n+2:] lists
    B(z^{-1}) with its zero constant term.  A (..., 2n+1) stack of estimates
    gives a (..., 2n+2) stack.
    """
    lead = np.ones(theta.shape[:-1] + (1,))
    parts = (lead, -theta[..., : n + 1], np.zeros_like(lead), theta[..., n + 1 :])
    return np.concatenate(parts, axis=-1)


def sylvester_matrix(theta, n: int) -> np.ndarray:
    """Coefficient matrix of the pole-placement linear system at an estimate.

    For theta = [abar_1..abar_{n+1}, b_1..b_n] returns the (2n+1) x (2n+1)
    matrix M with column order [l_1..l_n, p_1..p_{n+1}] such that M @ x
    lists the coefficients of Abar*(L-1) + B*P on the powers
    z^{-1}..z^{-(2n+1)}.  A (..., 2n+1) stack of estimates gives a
    (..., 2n+1, 2n+1) stack.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    theta = np.asarray(theta, dtype=float)
    dim = 2 * n + 1
    if theta.shape[-1:] != (dim,):
        raise ValueError(f"expected an estimate vector of length {dim}")
    rows, cols, src = sylvester_layout(n)
    m = np.zeros(theta.shape[:-1] + (dim, dim))
    m[..., rows, cols] = sylvester_coeffs(theta, n)[..., src]
    return m


def singularity_threshold(m: np.ndarray) -> float | np.ndarray:
    """Determinant magnitude below which a system matrix counts as singular.

    Scaled by the infinity norm (floored at one) so the test is invariant to
    the size of the coefficients rather than an absolute epsilon.  A stack
    of matrices gets one threshold each.
    """
    return SINGULAR_REL_THRESHOLD * np.maximum(1.0, np.abs(m).sum(axis=-1).max(axis=-1))


def sylvester_margin(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|det|, singularity threshold, and regularity of a system matrix or stack.

    A matrix is regular when |det| exceeds its threshold.  |det| vanishes
    exactly when the lifted pair z^{n+1} Abar(z^{-1}), z^n B(z^{-1}) shares
    a root, and a NaN counts as singular.
    """
    margins = np.abs(np.linalg.det(m))
    thresholds = singularity_threshold(m)
    return margins, thresholds, margins > thresholds


def sylvester_rcond(m: np.ndarray) -> float:
    """Reciprocal 2-norm condition estimate of a system matrix, 0 if singular."""
    try:
        c = np.linalg.cond(m)
    except np.linalg.LinAlgError:
        return 0.0
    if not np.isfinite(c) or c == 0.0:
        return 0.0
    return float(1.0 / c)
