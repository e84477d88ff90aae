"""Exact rational cross-checks for the pole-placement identity.

Floating eigensolvers cannot certify a repeated closed-loop pole tightly: the
placed zero pole of the regressor recursion has a single Jordan chain, so an
eps-sized backward error smears the computed cluster to roughly eps^(1/4).
Every float64 value is an exact rational, though, so the whole chain (system
matrix, its solve, the closed-loop matrix, its characteristic polynomial) can
be repeated in fractions.Fraction arithmetic.  When the exact characteristic
polynomial matches z^{2n+1} Astar(z^{-1}) coefficient for coefficient, the
eigenvalue multiset equals the designed pole multiset identically.

Dimensions stay tiny (2n+1 with n a plant order), so big-rational cost is
negligible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .controller import closed_loop_layout
from .polynomial import sylvester_layout

__all__ = [
    "solve_fraction_system",
    "charpoly_fractions",
    "exact_pole_check",
]


def _eliminate(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """In-place Gaussian elimination with exact pivoting on fraction data."""
    dim = len(b)
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("system is exactly singular")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, dim):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, dim):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * dim
    for r in range(dim - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, dim):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def solve_fraction_system(m: np.ndarray, rhs: np.ndarray) -> list[Fraction]:
    """Exact solve of a square float system (entries taken as exact rationals)."""
    a = [[Fraction(float(v)) for v in row] for row in np.asarray(m, dtype=float)]
    b = [Fraction(float(v)) for v in np.asarray(rhs, dtype=float)]
    return _eliminate(a, b)


def charpoly_fractions(a) -> list[Fraction]:
    """Characteristic polynomial det(zI - A), highest power first, exactly.

    Faddeev-LeVerrier recursion; divisions are by integers so everything
    stays rational.
    """
    if isinstance(a, np.ndarray):
        a = [[Fraction(float(v)) for v in row] for row in a]
    dim = len(a)

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]

    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    for k in range(1, dim + 1):
        if k > 1:
            m = matmul(a, m)
            for i in range(dim):
                m[i][i] += coeffs[-1]
        am = matmul(a, m)
        trace = sum(am[i][i] for i in range(dim))
        coeffs.append(-trace / k)
    return coeffs


def _scatter(layout, values: list[Fraction], dim: int) -> np.ndarray:
    """Object matrix of exact zeros filled by a shared (rows, cols, src) layout."""
    rows, cols, src = layout
    out = np.full((dim, dim), Fraction(0), dtype=object)
    out[rows, cols] = np.array(values, dtype=object)[src]
    return out


def _sylvester_fractions(theta: list[Fraction], n: int) -> np.ndarray:
    """Exact pole-placement system matrix at an estimate given as fractions."""
    coeffs = [Fraction(1)] + [-v for v in theta[: n + 1]] + [Fraction(0)] + theta[n + 1 :]
    return _scatter(sylvester_layout(n), coeffs, 2 * n + 1)


def _closed_loop_fractions(theta: list[Fraction], gains: list[Fraction], n: int) -> np.ndarray:
    """Exact closed-loop matrix for an estimate and gain row given as fractions."""
    return _scatter(closed_loop_layout(n), theta + gains + [Fraction(1)], 2 * n + 1)


def exact_pole_check(theta_hat: np.ndarray, target_lifted: np.ndarray, n: int) -> Fraction:
    """Re-derive the design in rational arithmetic and compare pole sets.

    Solves the pole-placement system exactly at theta_hat, assembles the
    closed-loop matrix exactly, and returns the largest absolute difference
    between its exact characteristic polynomial and z^{2n+1} Astar(z^{-1}).
    A zero return certifies that the eigenvalue multiset of the closed loop
    equals the target root multiset identically.
    """
    theta = np.asarray(theta_hat, dtype=float)
    lifted = np.asarray(target_lifted, dtype=float)
    dim = 2 * n + 1
    if theta.shape != (dim,) or lifted.shape != (dim + 1,):
        raise ValueError("estimate or target has the wrong length")

    vals = [Fraction(float(v)) for v in theta]
    astar = [Fraction(float(v)) for v in lifted]
    # right side Astar - Abar on the powers z^{-1}..z^{-(2n+1)}; Abar = 1 - sum abar_k z^{-k}
    rhs = [astar[k] + (vals[k - 1] if k <= n + 1 else 0) for k in range(1, dim + 1)]
    x = _eliminate(_sylvester_fractions(vals, n).tolist(), rhs)
    gains = [-v for v in x[n:]] + [-v for v in x[:n]]

    char = charpoly_fractions(_closed_loop_fractions(vals, gains, n).tolist())
    # char is det(zI - A) highest power first; so is the lifted target
    return max(abs(c - t) for c, t in zip(char, astar))
