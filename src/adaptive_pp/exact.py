"""Exact rational cross-check of the pole-placement identity.

Floating eigensolvers cannot certify a repeated closed-loop pole tightly: the
placed zero pole of the regressor recursion has a single Jordan chain, so an
eps-sized backward error smears the computed cluster to roughly eps^(1/4).
Every float64 value is an exact rational, though, so the design (system
matrix, its solve, the gain row) can be repeated in exact rational
arithmetic.  The closed loop's characteristic polynomial then needs no
matrix: for every estimate and every gain row K, det(zI - A(thetahat, K)) is
the z-lift of the design polynomial Abar L + B P, with L = [1, -K[n+1:]] and
P = [0, -K[:n+1]].  `test_closed_loop_charpoly_is_the_design_polynomial`
checks that identity on the assembled `closed_loop_matrix` against a
Faddeev-LeVerrier oracle, and `test_certificates_equal_the_fraction_reference`
checks every certificate against a Fraction reference that assembles the
closed loop through `closed_loop_layout`.  When Abar L + B P matches Astar
coefficient for coefficient, the eigenvalue multiset of the closed loop
equals the designed pole multiset identically.

`exact_pole_check` is the one entry point, and its arithmetic is all Python
ints.  The estimate and the target are scaled to ints by one common
denominator, a power of two, since floats are dyadic.  One integer kernel
does the work: Bareiss fraction-free elimination returns (det, X) with
solution X / det, and every division in it is exact by the algebra and is
checked to be so.  The system comes from `sylvester_gather` and `design_rhs`
on the scaled estimate and target, the design polynomial from two
convolutions scaled by s * det, and the coefficients are compared as
integers, so a Fraction is built only for a nonzero gap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Integral
from operator import mul

import numpy as np

from .controller import _gain_order, design_rhs
from .polynomial import sylvester_gather

__all__ = ["exact_pole_check"]


def _exact_div(num: int, den: int) -> int:
    """num / den where the algebra guarantees an integer; a remainder is a bug."""
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact integer division {num} / {den}")
    return quot


def _over_common_denominator(*named: tuple[str, list]) -> tuple[list[list[int]], int]:
    """Integers and s, the lcm of every denominator, with value == integer / s.

    Each argument pairs the name of an input with its float values and gives
    one list of integers.  A NaN or an infinity has no rational value, so it
    raises ValueError naming its input.
    """
    groups = []
    for name, values in named:
        try:
            groups.append([v.as_integer_ratio() for v in values])
        except (OverflowError, ValueError):
            raise ValueError(f"{name} has a non-finite entry; there is nothing exact to compute") from None
    scale = lcm(*(den for ratios in groups for _, den in ratios))
    return [[num * (scale // den) for num, den in ratios] for ratios in groups], scale


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


@lru_cache(maxsize=None)
def _layouts(n: int) -> tuple[list[list[int]], list[int]]:
    """`sylvester_gather` and `_gain_order` as lists."""
    return sylvester_gather(n).tolist(), _gain_order(n).tolist()


def exact_pole_check(theta_hat: np.ndarray, target_lifted: np.ndarray, n: int) -> Fraction:
    """Re-derive the design in rational arithmetic and compare pole sets.

    Solves the pole-placement system exactly at theta_hat, reads the gain
    row K off the solution, and returns the largest absolute coefficient
    difference between the exact design polynomial Abar L + B P and Astar.
    By the identity in the module docstring these are the coefficients of
    det(zI - A(theta_hat, K)) and of z^{2n+1} Astar(z^{-1}), so no
    closed-loop matrix is built.  A zero return certifies that the
    eigenvalue multiset of the closed loop equals the target root multiset
    identically.  An n that is not an integer of at least 1, a wrong length,
    or a NaN or an infinity raises ValueError naming the argument; an
    exactly singular design raises ZeroDivisionError.
    """
    if not isinstance(n, Integral) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, not {n!r}")
    theta = np.asarray(theta_hat, dtype=float)
    lifted = np.asarray(target_lifted, dtype=float)
    dim = 2 * n + 1
    if theta.shape != (dim,) or lifted.shape != (dim + 1,):
        raise ValueError("estimate or target has the wrong length")
    (t, a), s = _over_common_denominator(
        ("theta_hat", theta.tolist()), ("target_lifted", lifted.tolist())
    )
    gather, gain_order = _layouts(n)

    # s M and s (Astar - Abar): s*c for the c = [1, -abar, 0, b] of `sylvester_coeffs`
    c = [s, *(-v for v in t[: n + 1]), 0, *t[n + 1 :]]
    rhs = design_rhs(np.array(t, dtype=object), np.array(a, dtype=object), n).tolist()
    det, numer = _bareiss([[c[k] for k in index] + [r] for index, r in zip(gather, rhs)])

    # e = s det (Abar L + B P), lowest power first, with L = [1, -K[n+1:]] and
    # P = [0, -K[:n+1]] for the gain row K = -x[gain order], x = numer / det.
    # Abar and B are read off t afresh and the product is taken afresh, not
    # as M numer - det rhs, so neither a wrong c nor a wrong gather certifies
    # the system it built
    neg_k = [numer[i] for i in gain_order]  # -det K
    e = [0] * (dim + 1)
    for f, g in (
        ([s, *(-v for v in t[: n + 1])], [det, *neg_k[n + 1 :]]),
        ([0, *t[n + 1 :]], [0, *neg_k[: n + 1]]),
    ):
        for i, u in enumerate(f):
            for j, v in enumerate(g):
                e[i + j] += u * v

    # the design polynomial's coefficients are e_k / (s det), the lifted target's a_k / s
    gaps = [Fraction(abs(gap), abs(det) * s) for gap in (ek - ak * det for ek, ak in zip(e, a)) if gap]
    return max(gaps) if gaps else Fraction(0)
