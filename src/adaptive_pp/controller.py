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
z^{2n+1} Astar(z^{-1}); `state_recursion_audit` checks the one-step identity
psi(t+1) = A psi(t) + e1 e(t+1) on recorded trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .estimator import AUDIT_TOL
from .polynomial import (
    SINGULAR_REL_THRESHOLD,
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
    "solve_diophantine",
    "closed_loop_layout",
    "closed_loop_matrix",
    "state_recursion_audit",
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
    gains: np.ndarray       # (ok.sum(), 2n+1) gain rows of the regular systems


@lru_cache(maxsize=None)
def _gain_order(n: int) -> np.ndarray:
    """Index taking a solution [l_1..l_n, p_1..p_{n+1}] to the order [p, l] of the gain row."""
    order = np.r_[n : 2 * n + 1, :n]
    order.flags.writeable = False
    return order


def design_rhs(thetas: np.ndarray, lifted: np.ndarray, n: int) -> np.ndarray:
    """Right side Astar - Abar of the design system on the powers z^{-1}..z^{-(2n+1)}.

    One row per estimate of a (..., 2n+1) stack, in the stack's memory order;
    Abar's coefficients are the negated abar_k, so the first n+1 entries add
    them.  Object arrays of Fractions give exact sums in an object array; both
    must hold Fractions, since a Fraction plus a float is a float.
    """
    rhs = np.empty_like(thetas, dtype=np.result_type(thetas, lifted))
    np.add(thetas[..., : n + 1], lifted[1 : n + 2], out=rhs[..., : n + 1])
    rhs[..., n + 1 :] = lifted[n + 2 :]
    return rhs


def solve_diophantine_batch(thetas: np.ndarray, lifted: np.ndarray, n: int) -> DesignBatch:
    """Solve the pole-placement identity at every row of a (count, 2n+1) stack.

    Rows whose |det| falls at or below the shared relative singularity
    threshold are masked out of `ok` and get no gain row.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("expected a (count, 2n+1) stack of estimates")
    m = sylvester_matrix(thetas, n)
    _, _, ok = sylvester_margin(m)
    rhs = design_rhs(thetas, lifted, n)
    if not ok.all():
        m, rhs = m[ok], rhs[ok]
    x = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
    return DesignBatch(ok, -x[:, _gain_order(n)])


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff.

    It bounds the relative rounding error of a k-term sum of products.
    """
    u = np.finfo(float).eps / 2
    return k * u / (1.0 - k * u)


def _certified_design(thetas: np.ndarray, lifted: np.ndarray, n: int):
    """Prove LAPACK's design verdict and bound its gain row at every row of a stack, without it.

    Returns (decided, regular, gains, slack) over a (count, 2n+1) stack.
    Where `decided`, `regular` is the verdict `solve_diophantine_batch`
    gives; where it is also regular, the gain row K_L that LAPACK's solve
    returns is within `slack` of `gains` in the 2-norm.

    All rows are eliminated at once, entry by entry across the stack.  Abar
    is monic, so by `sylvester_gather` the top-left n x n block of M is unit
    lower triangular: n pivot-free steps leave an (n+1) x (n+1) Schur
    complement, eliminated with partial pivoting, the right side b attached.
    That is an LU factorization L'U' of a row permutation of M, so with
    d = 2n+1 and any pivot and summation order (Higham, Accuracy and
    Stability of Numerical Algorithms, Thms 9.3-9.4) the computed x' solves
    (M + F')x' = b and det(M + E') is exactly the product of the pivots, with
    ||E'||, ||F'|| <= phi' = gamma_3d ||L'||_F ||U'||_F, and by AM-GM
    ||L'||_F ||U'||_F <= (||L'||_F^2 + ||U'||_F^2) / 2.  LAPACK's getrf (inside
    det) and gesv pivot partially, so |l| <= 1 and |u| <= 2^(d-1) max|m_ij|,
    and the same holds for its x_L and pivot product with
    phi_L = gamma_3d d(d+1)/2 2^(d-1) max|m_ij|.  Both are doubled for their
    own rounding and for LAPACK's rounded growth.

    * sigma_min(M) >= s: the singular values of M + E' multiply to the
      pivot product, within gamma_d of its computed modulus D', and by AM-GM
      the largest d-1 multiply to at most (||M + E'||_F^2/(d-1))^n; Weyl then
      gives s = D' (1 - 1e-12) ((d-1)/(||M||_F + phi')^2)^n - phi', the
      guard covering D' and the norm's rounding.
    * With r = phi/s, ||M^-1 E|| <= r, and det(M + E) = det M det(I + M^-1 E)
      puts |det(M + E)| / |det M| in [(1-r)^d, (1+r)^d].  So LAPACK's pivot
      product lies in D' [(1-r_L)^d/(1+r')^d, (1+r_L)^d/(1-r')^d], and for
      r', r_L < 1/(2d) and w = d(r' + r_L) < 1 in D' [1-w, 1+3w]: Bernoulli's
      inequality below, exp(1.2 w) above.  numpy's det is the exp of a sum of
      logs of the pivots; the guard 1 +- 1e-10 covers that, the rounding of
      D' and of the bracket, and the summation order of the threshold.  A
      bracket wholly above the threshold, or wholly at or below it, is
      LAPACK's verdict.
    * x_L - x' = (M + F_L)^-1 (F' - F_L) x', so ||K_L - K'|| = ||x_L - x'||
      <= ||x'|| (r' + r_L) / (1 - r_L), the slack.

    A row is undecided unless s > 0, r', r_L < 1/(2d), the partial pivot
    products and the AM-GM factor are normal numbers, and the bracket and
    slack are finite; a NaN or Inf in the row fails these.
    """
    d = 2 * n + 1
    cols = np.ascontiguousarray(thetas.T).T  # each entry's stack contiguous
    # [M | b] in one gather, one (count,) array per entry
    gather = np.column_stack((sylvester_gather(n), np.arange(2 * n + 3, 4 * n + 4)))
    a = np.concatenate((sylvester_coeffs(cols, n).T, design_rhs(cols, lifted, n).T))
    peak = np.abs(a[: 2 * n + 3]).max(axis=0)  # M's entries are the coefficients, 1 and 0 included
    a = a[gather]
    thr = np.abs(a[:, 0])  # singularity_threshold's row sums, a column at a time
    for j in range(1, d):
        thr += np.abs(a[:, j])
    thr = SINGULAR_REL_THRESHOLD * np.maximum(1.0, thr.max(axis=0))
    frob = np.sqrt(np.einsum("ijc,ijc->c", a[:, :d], a[:, :d]))
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        for k in range(d):
            if k >= n:  # partial pivoting on the Schur complement
                for r in range(k + 1, d):
                    hit = np.abs(a[r, k]) > np.abs(a[k, k])
                    a[k, k:], a[r, k:] = np.where(hit, a[r, k:], a[k, k:]), np.where(hit, a[k, k:], a[r, k:])
                a[k + 1 :, k] /= a[k, k]
            j = max(k + 1, n)  # row k < n of U' is e_k up to column n
            a[k + 1 :, j:] -= a[k + 1 :, k, None] * a[k, None, j:]
        x = a[:, d]  # back substitution in place
        for k in range(d - 1, -1, -1):
            x[k] = (x[k] - np.einsum("jc,jc->c", a[k, k + 1 : d], x[k + 1 :])) / a[k, k]
        partial = np.cumprod(a[range(n, d), range(n, d)], axis=0)
        g = 2.0 * _gamma(3 * d)
        phi = g * (d + np.einsum("ijc,ijc->c", a[:, :d], a[:, :d])) / 2
        phi_l = g * d * (d + 1) / 2 * 2.0 ** (d - 1) * peak
        piv = np.abs(partial[-1])
        amgm = ((d - 1) / np.square(frob + phi)) ** n
        s = piv * (1.0 - 1e-12) * amgm - phi
        r, r_l = phi / s, phi_l / s
        w = d * (r + r_l)
        slack = np.sqrt(np.einsum("ic,ic->c", x, x)) * (r + r_l) / (1.0 - r_l)
        sound = (s > 0.0) & (np.maximum(r, r_l) < 0.5 / d) & np.isfinite(piv) & np.isfinite(slack)
        sound &= (np.abs(partial).min(axis=0) >= tiny) & (amgm >= tiny)
    regular = sound & (piv * (1.0 - w) * (1.0 - 1e-10) > thr)
    singular = sound & (piv * (1.0 + 3.0 * w) * (1.0 + 1e-10) <= thr)
    np.negative(x, out=x)
    return regular | singular, regular, x[_gain_order(n)].T, slack


def solve_diophantine(theta_hat, target: TargetPolynomial) -> tuple[np.ndarray, float]:
    """Solve the pole-placement identity at one estimate; (K, residual).

    K = [-p_1..-p_{n+1}, -l_1..-l_n] is the gain row and residual the largest
    coefficient error of Abar L + B P against Astar.  The same arithmetic as
    one row of `solve_diophantine_batch`, on the 2-D system directly, so K
    equals the batched gain row bit for bit.  Raises SingularSylvesterError
    when |det| of the system matrix falls at or below the shared relative
    singularity threshold.
    """
    n = target.n
    theta = np.asarray(theta_hat, dtype=float)
    if theta.shape != (target.dim,):
        raise ValueError(f"expected a single estimate vector of length {target.dim}")
    coeffs = sylvester_coeffs(theta, n)
    m = coeffs[sylvester_gather(n)]
    margin, threshold, regular = sylvester_margin(m)
    if not regular:
        raise SingularSylvesterError(float(margin), float(threshold), sylvester_rcond(m), theta)
    lifted = target.lifted_coeffs()
    x = np.linalg.solve(m, design_rhs(theta, lifted, n))  # [l_1..l_n, p_1..p_{n+1}]
    # residual of Abar L + B P = Astar with L = [1, l], P = [0, p]
    lp = np.empty(2 * n + 3)
    lp[0], lp[n + 1] = 1.0, 0.0
    lp[1 : n + 1], lp[n + 2 :] = x[:n], x[n:]
    recon = np.convolve(coeffs[: n + 2], lp[: n + 1])
    recon += np.convolve(coeffs[n + 2 :], lp[n + 1 :])
    return -x[_gain_order(n)], float(np.abs(recon - lifted).max())


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


def state_recursion_audit(
    psi: np.ndarray,
    theta_hat: np.ndarray,
    gains: np.ndarray,
    e: np.ndarray,
) -> dict:
    """Replay psi(t+1) = A psi(t) + e1 e(t+1); the manifest record of the check.

    All arguments are per-record arrays; rows t and t+1 of psi bracket the
    transition driven by theta_hat[t], gains[t], and e[t].  A's estimate and
    gain rows are replayed as stacked row products, which have the bits of
    the loop's own dot products, and its other rows as a shift; no matrix is
    built.  The identity is exact by construction, so a max infinity-norm
    residual beyond AUDIT_TOL * (1 + max ||psi||) means the simulation and
    the recursion disagree; a NaN residual is a violation too.
    """
    psi = np.asarray(psi, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    gains = np.asarray(gains, dtype=float)
    e = np.asarray(e, dtype=float)
    residual = 0.0
    if psi.shape[0] >= 2:
        n = (psi.shape[1] - 1) // 2
        rows = psi[:-1, None, :]
        predicted = np.empty_like(psi[1:])
        predicted[:, 1:] = psi[:-1, :-1]
        # the innovation enters through e1
        predicted[:, 0] = (rows @ theta_hat[:-1, :, None])[:, 0, 0] + e[:-1]
        predicted[:, n + 1] = (rows @ gains[:-1, :, None])[:, 0, 0]
        residual = float(np.abs(predicted - psi[1:]).max())
    scale = 1.0 + float(np.linalg.norm(psi, axis=1).max(initial=0.0))
    violations = int(not residual <= AUDIT_TOL * scale)
    return {"violations": violations, "pass": violations == 0, "max_residual": residual}
