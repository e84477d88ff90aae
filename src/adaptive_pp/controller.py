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
    sylvester_coeffs,
    sylvester_layout,
    sylvester_margin,
    sylvester_matrix,
    sylvester_rcond,
)

__all__ = [
    "SingularSylvesterError",
    "spectral_radius",
    "TargetPolynomial",
    "DesignBatch",
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
    margins: np.ndarray     # (count,) |det| of each system matrix
    thresholds: np.ndarray  # (count,) singularity threshold of each


def _estimate_vector(theta_hat, n: int | None) -> np.ndarray:
    """Estimate (or stack of estimates) as floats; n defaults to the one its length implies."""
    vec = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    dim = 2 * ((vec.shape[-1] - 1) // 2 if n is None else n) + 1
    if vec.shape[-1:] != (dim,):
        raise ValueError(f"expected an estimate vector of length {dim}")
    return vec


def solve_diophantine_batch(thetas: np.ndarray, lifted: np.ndarray, n: int) -> DesignBatch:
    """Solve the pole-placement identity at every row of a (count, 2n+1) stack.

    Rows whose |det| falls at or below the shared relative singularity
    threshold are masked out of `ok` and get no gain row.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("expected a (count, 2n+1) stack of estimates")
    m = sylvester_matrix(thetas, n)
    margins, thresholds, ok = sylvester_margin(m)

    # right side Astar - Abar on the powers z^{-1}..z^{-(2n+1)}
    rhs = np.tile(lifted[1:], (thetas.shape[0], 1))
    rhs[:, : n + 1] -= sylvester_coeffs(thetas, n)[:, 1 : n + 2]
    x = np.linalg.solve(m[ok], rhs[ok][:, :, None])[:, :, 0]
    gains = np.concatenate((-x[:, n:], -x[:, :n]), axis=1)
    return DesignBatch(ok, gains, margins, thresholds)


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
    theta = _estimate_vector(theta_hat, n)
    if theta.ndim != 1:
        raise ValueError("expected a single estimate vector")
    coeffs = sylvester_coeffs(theta, n)
    rows, cols, src = sylvester_layout(n)
    m = np.zeros((target.dim, target.dim))
    m[rows, cols] = coeffs[src]
    margin, threshold, regular = sylvester_margin(m)
    if not regular:
        raise SingularSylvesterError(float(margin), float(threshold), sylvester_rcond(m), theta)
    lifted = target.lifted_coeffs()
    rhs = lifted[1:].copy()
    rhs[: n + 1] -= coeffs[1 : n + 2]
    x = np.linalg.solve(m, rhs)  # [l_1..l_n, p_1..p_{n+1}]
    # residual of Abar L + B P = Astar with L = [1, l], P = [0, p]
    recon = np.convolve(coeffs[: n + 2], np.concatenate(([1.0], x[:n])))
    recon += np.convolve(coeffs[n + 2 :], np.concatenate(([0.0], x[n:])))
    return np.concatenate((-x[n:], -x[:n])), float(np.abs(recon - lifted).max())


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


def closed_loop_matrix(theta_hat, K: np.ndarray, n: int | None = None) -> np.ndarray:
    """Frozen-estimate transition matrix of the regressor recursion.

    Rows, top to bottom: the estimate row (produces ybar(t+1) up to the
    prediction error), the output-block shift, the gain row (produces
    ubar(t+1)), and the input-block shift.  Its characteristic polynomial is
    z^{2n+1} Astar(z^{-1}) whenever K solves the design at theta_hat.
    Stacked (..., 2n+1) estimates and gain rows give a (..., 2n+1, 2n+1) stack.
    """
    vec = _estimate_vector(theta_hat, n)
    dim = vec.shape[-1]
    K = np.asarray(K, dtype=float)
    if K.shape != vec.shape:
        raise ValueError(f"expected a gain row of length {dim}")

    rows, cols, src = closed_loop_layout((dim - 1) // 2)
    v = np.concatenate((vec, K, np.ones(vec.shape[:-1] + (1,))), axis=-1)
    a = np.zeros(vec.shape[:-1] + (dim, dim))
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
    transition driven by theta_hat[t], gains[t], and e[t].  The identity is
    exact by construction, so a max infinity-norm residual beyond
    AUDIT_TOL * (1 + max ||psi||) means the simulation and the recursion
    disagree; a NaN residual is a violation too.
    """
    psi = np.asarray(psi, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    gains = np.asarray(gains, dtype=float)
    e = np.asarray(e, dtype=float)
    residual = 0.0
    if psi.shape[0] >= 2:
        mats = closed_loop_matrix(theta_hat[:-1], gains[:-1])
        predicted = np.einsum("tij,tj->ti", mats, psi[:-1])
        predicted[:, 0] += e[:-1]  # the innovation enters through e1
        residual = float(np.abs(predicted - psi[1:]).max())
    scale = 1.0 + float(np.linalg.norm(psi, axis=1).max(initial=0.0))
    violations = int(not residual <= AUDIT_TOL * scale)
    return {"violations": violations, "pass": violations == 0, "max_residual": residual}
