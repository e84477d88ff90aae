"""Exact rational cross-checks for the pole-placement identity.

Floating eigensolvers cannot certify a repeated closed-loop pole tightly: the
placed zero pole of the regressor recursion has a single Jordan chain, so an
eps-sized backward error smears the computed cluster to roughly eps^(1/4).
Every float64 value is an exact rational, though, so the whole chain (system
matrix, its solve, the closed-loop matrix, its characteristic polynomial) can
be repeated in exact rational arithmetic.  When the exact characteristic
polynomial matches z^{2n+1} Astar(z^{-1}) coefficient for coefficient, the
eigenvalue multiset equals the designed pole multiset identically.

The arithmetic is all Python ints.  Inputs are scaled to ints by a common
denominator, a power of two for floats, which are dyadic.  Two integer
kernels do the work: Bareiss fraction-free elimination returns (det, X) with
solution X / det, and Faddeev-LeVerrier returns the integer characteristic
coefficients; every division in either is exact by the algebra and is
checked to be so.  `solve_fraction_system` and `charpoly_fractions` wrap the
kernels as scale, kernel, Fraction.  `exact_pole_check` stays in ints from
its inputs to its verdict: the system comes from `sylvester_gather` and
`design_rhs` on the scaled estimate and target, the closed loop from
`closed_loop_layout` scaled by s * det, and the coefficients are compared
as integers, so a Fraction is built only for a nonzero gap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

import numpy as np

from .controller import _gain_order, closed_loop_layout, design_rhs
from .polynomial import sylvester_gather

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


def _over_common_denominator(*named: tuple[str, list]) -> tuple[list[list[int]], int]:
    """Integers and s, the lcm of every denominator, with value == integer / s.

    Each argument pairs the name of an input with its exact values (floats,
    ints or Fractions) and gives one list of integers.  A NaN or an infinity
    has no rational value, so it raises ValueError naming its input.
    """
    groups = []
    for name, values in named:
        try:
            groups.append([v.as_integer_ratio() for v in values])
        except (OverflowError, ValueError):
            raise ValueError(f"{name} has a non-finite entry; there is nothing exact to compute") from None
    scale = lcm(*(den for ratios in groups for _, den in ratios))
    return [[num * (scale // den) for num, den in ratios] for ratios in groups], scale


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


def _bareiss(rows: list[list[int]]) -> tuple[int, list[int]]:
    """(det, X) of an augmented integer system [A | b], whose solution is x = X / det.

    Bareiss (Math. Comp. 22, 1968) keeps every entry an integer minor, so
    dividing by the previous pivot is exact.  An entry is a nonzero multiple
    of the one plain Gaussian elimination would hold, so the pivot search
    (first nonzero in the column) swaps the same rows and rejects the same
    singular systems.  The last pivot det is det(A) up to sign, and det * x
    is integral (Cramer), so the back-substitution stays in integers too.
    The rows are overwritten.
    """
    dim = len(rows)
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
    return det, x


def _charpoly_ints(b: list[list[int]]) -> list[int]:
    """Coefficients c_k of det(zI - B), highest power first, for an integer matrix B.

    Faddeev-LeVerrier: M_1 = I, c_k = -tr(B M_k) / k, M_{k+1} = B M_k + c_k I.
    B's coefficients are integers, so every division by k is exact.  A row
    of B whose one nonzero entry is v at column j gives the row v * M_k[j]
    of B M_k, a scaled copy; the other rows take dot products with M_k's
    columns.  The last coefficient needs only the diagonal of B M_dim.
    """
    dim = len(b)
    # per row of B, (j, v) when v at column j is its one nonzero entry, else (-1, 0)
    lone = []
    for row in b:
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        lone.append(nonzero[0] if len(nonzero) == 1 else (-1, 0))
    coeffs = [1]
    m = [list(row) for row in b]  # B M_1, as M_1 = I
    trace = sum(m[i][i] for i in range(dim))
    for k in range(1, dim + 1):
        coeffs.append(-_exact_div(trace, k))
        if k == dim:
            break
        for i in range(dim):
            m[i][i] += coeffs[-1]  # M_{k+1}
        cols = list(zip(*m))
        if k + 1 < dim:
            m = [
                [v * t for t in m[j]] if j >= 0 else [sum(map(mul, row, col)) for col in cols]
                for row, (j, v) in zip(b, lone)
            ]
            trace = sum(m[i][i] for i in range(dim))
        else:
            trace = sum(
                v * m[j][i] if j >= 0 else sum(map(mul, row, cols[i]))
                for i, (row, (j, v)) in enumerate(zip(b, lone))
            )
    return coeffs


def solve_fraction_system(m: np.ndarray, rhs: np.ndarray) -> list[Fraction]:
    """Exact solve of m x = rhs by Bareiss fraction-free elimination.

    Floats and rationals in m and rhs are taken as exact values.  Each
    augmented row [a_i | b_i] is scaled to integers by the lcm of its
    denominators, which leaves x unchanged, and `_bareiss` gives x = X / det.
    A NaN or an infinity raises ValueError naming m or rhs; an exactly
    singular m raises ZeroDivisionError.
    """
    a = _square_rows(np.asarray(m))
    b = _exact_array(np.asarray(rhs))
    dim = len(a)
    if b.shape != (dim,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({dim},)")
    rows = []
    for row, v in zip(a, b.tolist()):
        (ints, last), _ = _over_common_denominator(("m", row), ("rhs", [v]))
        rows.append(ints + last)
    det, x = _bareiss(rows)
    return [Fraction(v, det) for v in x]


def charpoly_fractions(a) -> list[Fraction]:
    """Characteristic polynomial det(zI - A), highest power first, exactly.

    Faddeev-LeVerrier on the integer matrix B = s*A, s the lcm of the entry
    denominators; the coefficients of A are those of B over s^k.  A NaN or
    an infinity raises ValueError naming a.
    """
    rows = _square_rows(a)
    dim = len(rows)
    (flat,), scale = _over_common_denominator(("a", [v for row in rows for v in row]))
    coeffs = _charpoly_ints([flat[i * dim : (i + 1) * dim] for i in range(dim)])
    return [Fraction(c, scale**k) for k, c in enumerate(coeffs)]


@lru_cache(maxsize=None)
def _layouts(n: int) -> tuple[list[list[int]], list[int], list[tuple[int, int, int]]]:
    """`sylvester_gather`, `_gain_order` and the (row, col, src) of `closed_loop_layout` as lists."""
    return (
        sylvester_gather(n).tolist(),
        _gain_order(n).tolist(),
        list(zip(*(arr.tolist() for arr in closed_loop_layout(n)))),
    )


def exact_pole_check(theta_hat: np.ndarray, target_lifted: np.ndarray, n: int) -> Fraction:
    """Re-derive the design in rational arithmetic and compare pole sets.

    Solves the pole-placement system exactly at theta_hat, assembles the
    closed-loop matrix exactly, and returns the largest absolute difference
    between its exact characteristic polynomial and z^{2n+1} Astar(z^{-1}).
    A zero return certifies that the eigenvalue multiset of the closed loop
    equals the target root multiset identically.  A wrong length or a NaN
    or an infinity raises ValueError naming the argument; an exactly
    singular design raises ZeroDivisionError.
    """
    theta = np.asarray(theta_hat, dtype=float)
    lifted = np.asarray(target_lifted, dtype=float)
    dim = 2 * n + 1
    if theta.shape != (dim,) or lifted.shape != (dim + 1,):
        raise ValueError("estimate or target has the wrong length")
    (t, a), s = _over_common_denominator(
        ("theta_hat", theta.tolist()), ("target_lifted", lifted.tolist())
    )
    gather, gain_order, loop = _layouts(n)

    # s M and s (Astar - Abar): s*c for the c = [1, -abar, 0, b] of `sylvester_coeffs`
    c = [s, *(-v for v in t[: n + 1]), 0, *t[n + 1 :]]
    rhs = design_rhs(np.array(t, dtype=object), np.array(a, dtype=object), n).tolist()
    det, numer = _bareiss([[c[k] for k in index] + [r] for index, r in zip(gather, rhs)])

    # the closed loop A from v = [theta, K, 1] times s_det = s * det, where
    # K = -x[gain order] and x = numer / det
    s_det = s * det
    v = [u * det for u in t] + [-numer[i] * s for i in gain_order] + [s_det]
    b = [[0] * dim for _ in range(dim)]
    for row, col, src in loop:
        b[row][col] = v[src]
    char = _charpoly_ints(b)

    # char lists det(zI - s_det A) highest power first, so A's coefficients are
    # char_k / s_det^k and the lifted target's are a_k / s: compare char_k s with a_k s_det^k
    gaps = []
    power = 1
    for k in range(dim + 1):
        gap = char[k] * s - a[k] * power
        if gap:
            gaps.append(Fraction(abs(gap), abs(power) * s))
        power *= s_det
    return max(gaps) if gaps else Fraction(0)
