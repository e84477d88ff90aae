"""Exact rational cross-checks for the pole-placement identity.

Floating eigensolvers cannot certify a repeated closed-loop pole tightly: the
placed zero pole of the regressor recursion has a single Jordan chain, so an
eps-sized backward error smears the computed cluster to roughly eps^(1/4).
Every float64 value is an exact rational, though, so the whole chain (system
matrix, its solve, the closed-loop matrix, its characteristic polynomial) can
be repeated in exact rational arithmetic.  When the exact characteristic
polynomial matches z^{2n+1} Astar(z^{-1}) coefficient for coefficient, the
eigenvalue multiset equals the designed pole multiset identically.

Results are fractions.Fraction values, but the inner loops never touch them:
each matrix is scaled to Python ints by a common denominator.  The solve runs
Bareiss fraction-free elimination and the characteristic polynomial runs
Faddeev-LeVerrier on the scaled integer matrix; every division in either is
exact by the algebra and is checked to be so.  Fractions appear only where
inputs are gathered and results assembled.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .controller import _gain_order, closed_loop_layout
from .polynomial import sylvester_layout

__all__ = [
    "solve_fraction_system",
    "charpoly_fractions",
    "exact_pole_check",
]


def _exact_div(num: int, den: int) -> int:
    """num / den where the algebra guarantees an integer; a remainder is a bug."""
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact integer division {num} / {den}")
    return quot


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers n_i and s, the lcm of the denominators, with values[i] == n_i / s."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios], scale


def _exact_array(a: np.ndarray) -> np.ndarray:
    """An object array as it is, any other array as float64 (which converts exactly)."""
    return a if a.dtype == object else np.asarray(a, dtype=float)


def _square_rows(a) -> list[list]:
    """Rows of a square matrix of exact rationals; entries keep their values exactly."""
    if isinstance(a, np.ndarray):
        a = _exact_array(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix of shape {a.shape} is not square")
        return a.tolist()
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix rows are not square")
    return a


def _eliminate(a: list[list], b: list) -> list[Fraction]:
    """Exact solve of a x = b by Bareiss fraction-free elimination.

    Each augmented row [a_i | b_i] is scaled to integers by the lcm of its
    denominators, which leaves x unchanged.  Bareiss (Math. Comp. 22, 1968)
    keeps every entry an integer minor, so dividing by the previous pivot is
    exact.  An entry is a nonzero multiple of the one plain Gaussian
    elimination would hold, so the pivot search (first nonzero in the column)
    swaps the same rows and rejects the same singular systems.  The last
    pivot is det of the scaled system, and det * x is integral (Cramer), so
    the back-substitution stays in integers too.
    """
    dim = len(b)
    rows = [_over_common_denominator((*row, rhs))[0] for row, rhs in zip(a, b)]
    prev = 1
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if rows[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("system is exactly singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        head = top[col]
        for r in range(col + 1, dim):
            row = rows[r]
            lead = row[col]
            rows[r] = [0] * (col + 1) + [
                _exact_div(head * v - lead * t, prev)
                for v, t in zip(row[col + 1 :], top[col + 1 :])
            ]
        prev = head
    det = rows[-1][-2] if dim else 1
    x = [0] * dim
    for r in range(dim - 1, -1, -1):
        row = rows[r]
        acc = det * row[dim] - sum(map(mul, row[r + 1 : dim], x[r + 1 :]))
        x[r] = _exact_div(acc, row[r])
    return [Fraction(v, det) for v in x]


def solve_fraction_system(m: np.ndarray, rhs: np.ndarray) -> list[Fraction]:
    """Exact solve of a square system of floats or rationals, taken as exact values."""
    a = _square_rows(np.asarray(m))
    b = _exact_array(np.asarray(rhs))
    if b.shape != (len(a),):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({len(a)},)")
    return _eliminate(a, b.tolist())


def charpoly_fractions(a) -> list[Fraction]:
    """Characteristic polynomial det(zI - A), highest power first, exactly.

    Faddeev-LeVerrier on the integer matrix B = s*A, s the lcm of the entry
    denominators: M_1 = I, c_k = -tr(B M_k) / k, M_{k+1} = B M_k + c_k I.
    B has integer characteristic coefficients, so every division by k is
    exact, and the coefficients of A are c_k / s^k.
    """
    rows = _square_rows(a)
    dim = len(rows)
    flat, scale = _over_common_denominator([v for row in rows for v in row])
    b = [flat[i * dim : (i + 1) * dim] for i in range(dim)]

    coeffs = [1]
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for k in range(1, dim + 1):
        cols = list(zip(*m))
        m = [[sum(map(mul, row, col)) for col in cols] for row in b]
        trace = sum(m[i][i] for i in range(dim))
        coeffs.append(-_exact_div(trace, k))
        for i in range(dim):
            m[i][i] += coeffs[-1]
    return [Fraction(c, scale**k) for k, c in enumerate(coeffs)]


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
    for name, arr in (("theta_hat", theta), ("target_lifted", lifted)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has a non-finite entry; there is nothing exact to certify")

    vals = [Fraction(float(v)) for v in theta]
    astar = [Fraction(float(v)) for v in lifted]
    # right side Astar - Abar on the powers z^{-1}..z^{-(2n+1)}; Abar = 1 - sum abar_k z^{-k}
    rhs = [astar[k] + (vals[k - 1] if k <= n + 1 else 0) for k in range(1, dim + 1)]
    x = _eliminate(_sylvester_fractions(vals, n).tolist(), rhs)
    gains = [-x[k] for k in _gain_order(n)]

    char = charpoly_fractions(_closed_loop_fractions(vals, gains, n).tolist())
    # char is det(zI - A) highest power first; so is the lifted target
    return max(abs(c - t) for c, t in zip(char, astar))
