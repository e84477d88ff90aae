"""Certainty-equivalence pole placement for the incremental model.

Given an estimate thetahat = [abarhat_1..abarhat_{n+1}, bhat_1..bhat_n] and a
stable monic target polynomial Astar of declared degree 2n+1, the design
solves the polynomial identity

    Abarhat(z^{-1}) L(z^{-1}) + Bhat(z^{-1}) P(z^{-1}) = Astar(z^{-1}),

with L monic of degree n and P of degree n+1 with zero constant term, as one
dense (2n+1) x (2n+1) linear system.  The control law applies the input
increment ubar(t) = K psi(t-1) with gain row K = [-p_1..-p_{n+1}, -l_1..-l_n],
one step behind the estimator.

Stacking the regressor shift structure, the estimate row, and the gain row
gives the closed-loop matrix whose characteristic polynomial is exactly
z^{2n+1} Astar(z^{-1}); `audits.state_recursion_audit` checks the one-step
identity psi(t+1) = A psi(t) + e1 e(t+1) on recorded trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .polynomial import (
    _row_sum_threshold,
    sylvester_coeffs,
    sylvester_gather,
    sylvester_margin,
    sylvester_matrix,
    sylvester_rcond,
)

__all__ = [
    "SingularSylvesterError",
    "spectral_radius",
    "TargetPolynomial",
    "DesignBatch",
    "design_rhs",
    "solve_diophantine_batch",
    "solve_gains",
    "design_residual",
    "closed_loop_layout",
    "closed_loop_matrix",
]

class SingularSylvesterError(RuntimeError):
    """The pole-placement system is numerically singular at this estimate."""

    def __init__(self, margin: float, threshold: float, rcond: float, theta_hat: np.ndarray, step: int | None = None):
        where = f" at step {step}" if step is not None else ""
        super().__init__(
            f"pole-placement system singular{where}: |det| = {margin:.3e} "
            f"<= threshold {threshold:.3e} (rcond ~ {rcond:.3e})"
        )
        self.margin = margin
        self.threshold = threshold
        self.rcond = rcond
        self.theta_hat = np.array(theta_hat, dtype=float)
        self.step = step


def spectral_radius(coeffs) -> float:
    """Largest root modulus of the lifted form z^d p(z^{-1}), 0 when it has none.

    The low-first q-coefficients of p are the highest-first z-coefficients of
    the lifted form, so they go to `np.roots` as they are; it returns the
    trailing zeros as exact roots at the origin, which never raise the
    maximum.
    """
    return float(np.abs(np.roots(coeffs)).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class TargetPolynomial:
    """Validated closed-loop target: monic, degree <= 2n+1, strictly stable.

    `coeffs` lists Astar(z^{-1}) lowest power first as a read-only float
    array; its length fixes the nominal degree, trailing zeros included.
    """

    coeffs: np.ndarray
    n: int

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float, ndmin=1)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("the target coefficients must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("the target coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if coeffs[0] != 1.0:
            raise ValueError("the target polynomial must be monic")
        if coeffs.size > self.dim + 1:
            raise ValueError(
                f"target degree {coeffs.size - 1} exceeds the placeable degree {self.dim}"
            )
        radius = spectral_radius(coeffs)
        if radius >= 1.0:
            raise ValueError(f"target polynomial is not stable (spectral radius {radius:.6f})")
        lifted = np.pad(coeffs, (0, self.dim + 1 - coeffs.size))
        lifted.flags.writeable = False
        object.__setattr__(self, "_lifted", lifted)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def lifted_coeffs(self) -> np.ndarray:
        """Coefficients padded to the full placeable degree 2n+1 (read-only, built once)."""
        return self._lifted

    def decay_floor(self) -> float:
        """Largest closed-loop pole modulus; any decay rate must exceed it."""
        return spectral_radius(self.coeffs)


class DesignBatch(NamedTuple):
    """Outcome of the batched design solve over a stack of estimates."""

    ok: np.ndarray          # (count,) True where the system is regular
    gains: np.ndarray       # (ok.sum(), 2n+1) gain rows of the regular systems, entry-major


@lru_cache(maxsize=None)
def _gain_order(n: int) -> np.ndarray:
    """Index taking a solution [l_1..l_n, p_1..p_{n+1}] to the order [p, l] of the gain row."""
    order = np.r_[n : 2 * n + 1, :n]
    order.flags.writeable = False
    return order


def design_rhs(thetas: np.ndarray, lifted: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Right side Astar - Abar of the design system on the powers z^{-1}..z^{-(2n+1)}.

    One row per estimate of a (..., 2n+1) stack, in the stack's memory order,
    or written into `out`, an array of the stack's shape in any memory order;
    Abar's coefficients are the negated abar_k, so the first n+1 entries add
    them.  Object arrays of exact Python ints or Fractions give exact sums in
    an object array; neither may hold floats, since a Fraction plus a float
    is a float.
    """
    rhs = np.empty_like(thetas, dtype=np.result_type(thetas, lifted)) if out is None else out
    np.add(thetas[..., : n + 1], lifted[1 : n + 2], out=rhs[..., : n + 1])
    rhs[..., n + 1 :] = lifted[n + 2 :]
    return rhs


@lru_cache(maxsize=None)
def _augmented_gather(n: int) -> np.ndarray:
    """Gather index of the augmented system [M | b] from the entry-major stack [c; b].

    c is `sylvester_coeffs` (2n+3 entries) and b is `design_rhs`, so M's
    columns read c through `sylvester_gather` and the last column reads b.
    """
    index = np.column_stack((sylvester_gather(n), np.arange(2 * n + 3, 4 * n + 4)))
    index.flags.writeable = False
    return index


def _design_workspace(n: int, rows: int) -> np.ndarray:
    """Flat float64 workspace for `solve_diophantine_batch` on up to `rows` estimates.

    Per row it holds [M | b], (2n+1)(2n+2) floats, then scratch for the
    largest temporary the elimination needs: the stacked coefficients
    [c; b] (4n+4 floats, more than the threshold's row sums with one column
    of |M|, or a pivot swap, take) or a Schur-complement update (2n(n+2)).
    """
    d = 2 * n + 1
    return np.empty(rows * (d * (d + 1) + max(4 * n + 4, 2 * n * (n + 2))))


def solve_diophantine_batch(
    thetas: np.ndarray, lifted: np.ndarray, n: int, work: np.ndarray | None = None
) -> DesignBatch:
    """Solve the pole-placement identity at every row of a (count, 2n+1) stack.

    A row is regular when the modulus of its pivot product exceeds the
    threshold of `singularity_threshold`, the rule `sylvester_margin`
    applies to |det|; a NaN or Inf in a row fails the comparison, so the
    row counts as singular.  Singular rows are masked out of `ok` and get
    no gain row.  The elimination runs in `work`, a `_design_workspace` for
    at least `count` rows, which a caller may reuse across stacks; none of
    the results lives in it.  The stack may be in any memory order, but an
    entry-major one, the transpose of a C-contiguous (2n+1, count) block,
    is read fastest.  `gains` is laid out the same way: the transpose of a
    new C-contiguous (2n+1, ok.sum()) block, one contiguous array per gain
    entry.

    All rows are eliminated at once, entry by entry across the stack, so a
    row's gains do not depend on the rows around it.  Abar is monic, so by
    `sylvester_gather` the top-left n x n block of M is unit lower
    triangular: n pivot-free steps leave an (n+1) x (n+1) Schur complement,
    eliminated with partial pivoting, the right side b attached, and back
    substitution gives x = [l; p].
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("expected a (count, 2n+1) stack of estimates")
    d = 2 * n + 1
    count = thetas.shape[0]
    if work is None:
        work = _design_workspace(n, count)
    # [M | b] in the workspace's contiguous head, one (count,) array per entry;
    # every temporary below is a view of the head of the rest
    a = work[: d * (d + 1) * count].reshape(d, d + 1, count)
    spare = work[a.size :]
    coef = spare[: (4 * n + 4) * count].reshape(4 * n + 4, count)  # [c; b]
    sylvester_coeffs(thetas, n, out=coef[: 2 * n + 3].T)
    design_rhs(thetas, lifted, n, out=coef[2 * n + 3 :].T)
    # "clip" writes straight into `a` ("raise" would buffer it); every index is in range
    np.take(coef, _augmented_gather(n), axis=0, out=a, mode="clip")
    # the row sums of |M|, a column at a time from the left, in the spare that [c; b]
    # no longer needs: the order in which `singularity_threshold` reduces this
    # entry-major stack, so the thresholds have its bits, and no |M| stack is built
    sums, col = spare[: 2 * d * count].reshape(2, d, count)
    np.abs(a[:, 0], out=sums)
    for j in range(1, d):
        sums += np.abs(a[:, j], out=col)
    thr = _row_sum_threshold(sums.T)
    hit = np.empty(count, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(d):
            if k >= n:  # partial pivoting on the Schur complement, row k swapped with each larger row below
                pivot, width = a[k, k:], (d + 1 - k) * count
                held = spare[:width].reshape(d + 1 - k, count)
                mags = spare[width : width + (d - k) * count].reshape(d - k, count)
                np.abs(a[k:, k], out=mags)  # row r is unchanged until its turn; mags[0] follows the pivot
                for r in range(k + 1, d):
                    np.greater(mags[r - k], mags[0], out=hit)
                    held[...] = pivot
                    np.copyto(pivot, a[r, k:], where=hit)
                    np.copyto(a[r, k:], held, where=hit)
                    np.copyto(mags[0], mags[r - k], where=hit)
                a[k + 1 :, k] /= a[k, k]
            j = max(k + 1, n)  # row k < n of U' is e_k up to column n
            lower = a[k + 1 :, j:]
            update = np.multiply(a[k + 1 :, k, None], a[k, None, j:], out=spare[: lower.size].reshape(lower.shape))
            np.subtract(lower, update, out=lower)
        x = a[:, d]  # back substitution in place
        dot = np.empty(count)
        for k in range(d - 1, -1, -1):
            np.subtract(x[k], np.einsum("jc,jc->c", a[k, k + 1 : d], x[k + 1 :], out=dot), out=x[k])
            np.divide(x[k], a[k, k], out=x[k])
        prod = a[n, n].copy()  # the first n pivots are 1
        for k in range(n + 1, d):
            prod *= a[k, k]
        ok = np.abs(prod, out=prod) > thr
    gains = x[_gain_order(n)]
    if not ok.all():
        gains = gains.compress(ok, axis=1)
    return DesignBatch(ok, np.negative(gains, out=gains).T)


def solve_gains(theta_hat, target: TargetPolynomial) -> np.ndarray:
    """Solve the pole-placement identity at one estimate; the gain row K.

    K = [-p_1..-p_{n+1}, -l_1..-l_n], from LAPACK's solve of the 2-D system.
    Raises SingularSylvesterError when |det| of the system matrix falls at
    or below the shared relative singularity threshold, the verdict rule of
    `solve_diophantine_batch`; away from the threshold the two agree on the
    verdict, and their gain rows agree to rounding.
    """
    n = target.n
    theta = np.asarray(theta_hat, dtype=float)
    if theta.shape != (target.dim,):
        raise ValueError(f"expected a single estimate vector of length {target.dim}")
    m = sylvester_coeffs(theta, n)[sylvester_gather(n)]
    margin, threshold, regular = sylvester_margin(m)
    if not regular:
        raise SingularSylvesterError(float(margin), float(threshold), sylvester_rcond(m), theta)
    x = np.linalg.solve(m, design_rhs(theta, target.lifted_coeffs(), n))  # [l_1..l_n, p_1..p_{n+1}]
    return -x[_gain_order(n)]


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff.

    It bounds the relative rounding error of a k-term sum of products.
    """
    u = np.finfo(float).eps / 2
    return k * u / (1.0 - k * u)


def _design_identity(theta_hat, gains, target: TargetPolynomial):
    """The design identity at every (thetahat, K) row of a (..., 2n+1) stack: (M, x, rhs, r).

    M is the system matrix stack, C-contiguous; x = [l; p] = [-K[n+1:],
    -K[:n+1]] is the solution a gain row was read from; rhs = Astar - Abar
    is the right side of `design_rhs`; and r = M x - rhs is the coefficient
    error of Abar L + B P against Astar on z^{-1}..z^{-(2n+1)}.  The
    contiguity sends each row's product through the same BLAS matrix-vector
    call as a one-row stack, so a row's r has the same bits whatever stack
    it sits in.
    """
    n = target.n
    thetas = np.asarray(theta_hat, dtype=float)
    m = np.ascontiguousarray(sylvester_matrix(thetas, n))
    x = np.empty(np.shape(gains))
    x[..., _gain_order(n)] = np.negative(gains)
    rhs = design_rhs(thetas, target.lifted_coeffs(), n)
    return m, x, rhs, (m @ x[..., None])[..., 0] - rhs


def design_residual(theta_hat, gains, target: TargetPolynomial) -> np.ndarray:
    """Largest coefficient error of Abar L + B P against Astar, per (thetahat, K) row.

    The row-wise max |r| of `_design_identity`, r = M x - (Astar - Abar).  A
    (..., 2n+1) stack of estimates and gain rows gives a (...) array, and
    each row's value has the bits of a one-row call.
    """
    return np.abs(_design_identity(theta_hat, gains, target)[3]).max(axis=-1)


@lru_cache(maxsize=None)
def closed_loop_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index map (rows, cols, src) of the closed-loop matrix.

    ``a[rows, cols] = v[src]`` fills the (2n+1) x (2n+1) matrix from
    v = [thetahat, K, 1]: the estimate row, the output-block shift, the
    gain row, and the input-block shift.  Every float, batched, and exact
    assembly goes through it.
    """
    dim = 2 * n + 1
    entries = [(0, j, j) for j in range(dim)] + [(n + 1, j, dim + j) for j in range(dim)]
    entries += [(i, i - 1, 2 * dim) for i in (*range(1, n + 1), *range(n + 2, dim))]
    layout = tuple(np.array(v, dtype=np.intp) for v in zip(*entries))
    for arr in layout:
        arr.flags.writeable = False
    return layout


def closed_loop_matrix(theta_hat, K: np.ndarray) -> np.ndarray:
    """Frozen-estimate transition matrix of the regressor recursion.

    Rows, top to bottom: the estimate row (produces ybar(t+1) up to the
    prediction error), the output-block shift, the gain row (produces
    ubar(t+1)), and the input-block shift.  Its characteristic polynomial is
    z^{2n+1} Astar(z^{-1}) whenever K solves the design at theta_hat.
    Stacked (..., 2n+1) estimates and gain rows give a (..., 2n+1, 2n+1) stack,
    and a gain row of Fractions in an object array gives an exact object matrix.
    """
    vec = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    dim = vec.shape[-1]
    K = np.asarray(K)
    if K.shape != vec.shape or dim % 2 == 0:
        raise ValueError(f"expected an odd-length estimate and a gain row of its length {dim}")

    rows, cols, src = closed_loop_layout((dim - 1) // 2)
    v = np.concatenate((vec, K, np.ones(vec.shape[:-1] + (1,))), axis=-1)
    a = np.zeros(vec.shape[:-1] + (dim, dim), dtype=v.dtype)
    a[..., rows, cols] = v[..., src]
    return a
