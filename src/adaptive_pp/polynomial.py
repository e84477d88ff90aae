"""The pole-placement system matrix and its singularity test.

Polynomials here are coefficient arrays in q = z^{-1}, lowest power first:
``c[k]`` multiplies z^{-k}.  An estimate theta = [abar_1..abar_{n+1},
b_1..b_n] stacks into the coefficients of Abar(z^{-1}) and B(z^{-1}), and
one index map places them in the (2n+1) x (2n+1) Sylvester matrix of the
design equation.  The matrix is singular exactly when the lifted pair
z^{n+1} Abar(z^{-1}), z^n B(z^{-1}) shares a root; the test is a relative
threshold on |det|.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "sylvester_gather",
    "sylvester_coeffs",
    "sylvester_matrix",
    "singularity_threshold",
    "sylvester_margin",
    "sylvester_rcond",
]

# |det| at or below this multiple of max(1, ||M||_inf) counts as singular
SINGULAR_REL_THRESHOLD = 1e-12


@lru_cache(maxsize=None)
def sylvester_gather(n: int) -> np.ndarray:
    """Gather index of the system matrix: ``m = c[..., sylvester_gather(n)]``.

    Entry (i, j) names the coefficient of c = [abar_0..abar_{n+1},
    bhat_0..bhat_n] at m[i, j]: column l_j holds abar shifted down j-1 rows,
    column p_j holds bhat shifted down j-1 rows.  The other entries read
    c[n+2], the zero constant term of B, so one gather assembles a matrix or
    a whole stack.  Every float, batched, and exact assembly goes through it.
    """
    index = np.full((2 * n + 1, 2 * n + 1), n + 2, dtype=np.intp)
    for j in range(n):
        index[j : j + n + 2, j] = np.arange(n + 2)
    for j in range(n + 1):
        index[j : j + n + 1, n + j] = np.arange(n + 2, 2 * n + 3)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _column_runs(n: int) -> tuple[tuple[int, int, int], ...]:
    """Where each column of the system matrix reads c, as (first row, rows, first coefficient).

    Read off `sylvester_gather(n)`: column j holds the contiguous run
    c[start : start + rows] on rows first .. first + rows - 1, and c[n+2],
    B's zero constant term, on every other row, the top row of a p column
    included.
    """
    runs = []
    for col in sylvester_gather(n).T:
        (rows,) = np.nonzero(col != n + 2)
        runs.append((int(rows[0]), rows.size, int(col[rows[0]])))
    return tuple(runs)


def sylvester_coeffs(theta: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients c = [1, -abar_1..-abar_{n+1}, 0, b_1..b_n] of an estimate.

    c[:n+2] lists Abar(z^{-1}) = 1 - sum_k abar_k z^{-k} and c[n+2:] lists
    B(z^{-1}) with its zero constant term.  A (..., 2n+1) stack of estimates
    gives a (..., 2n+3) stack in the stack's memory order, or fills `out`,
    an array of that shape in any memory order.
    """
    c = np.empty_like(theta, dtype=float, shape=theta.shape[:-1] + (2 * n + 3,)) if out is None else out
    c[..., 0] = 1.0
    np.negative(theta[..., : n + 1], out=c[..., 1 : n + 2])
    c[..., n + 2] = 0.0
    c[..., n + 3 :] = theta[..., n + 1 :]
    return c


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
    if theta.shape[-1:] != (2 * n + 1,):
        raise ValueError(f"expected an estimate vector of length {2 * n + 1}")
    return sylvester_coeffs(theta, n)[..., sylvester_gather(n)]


def singularity_threshold(m: np.ndarray) -> float | np.ndarray:
    """Determinant magnitude below which a system matrix counts as singular.

    Scaled by the infinity norm (floored at one) so the test is invariant to
    the size of the coefficients rather than an absolute epsilon.  A stack
    of matrices gets one threshold each.  Each row of |m| is summed left to
    right in every memory layout, so a matrix has the same threshold bits
    alone and inside a stack of either order.
    """
    # np.add.reduce would sum a contiguous row of 8 or more with pairwise accumulators
    return _row_sum_threshold(np.add.accumulate(np.abs(m), axis=-1)[..., -1])


def _row_sum_threshold(rows: np.ndarray) -> float | np.ndarray:
    """`singularity_threshold` from the absolute row sums of each matrix, a (..., 2n+1) stack."""
    # the floor at one as the reduction's initial value; a NaN row sum still wins
    return SINGULAR_REL_THRESHOLD * np.maximum.reduce(rows, axis=-1, initial=1.0)


def sylvester_margin(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|det|, singularity threshold, and regularity of a system matrix or stack.

    A matrix is regular when |det| exceeds its threshold.  |det| vanishes
    exactly when the lifted pair z^{n+1} Abar(z^{-1}), z^n B(z^{-1}) shares
    a root, and a NaN counts as singular.
    """
    margins = abs(np.linalg.det(m))  # a numpy scalar's own abs for a single matrix
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
