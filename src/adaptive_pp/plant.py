"""Plant model, parameter boxes, and the incremental reparameterization.

The controlled object is the strictly proper SISO difference model

    y(t+1) = sum_j a_j y(t-j+1) + sum_j b_j u(t-j+1) + w(t),  j = 1..n.

Set-point tracking is rewritten around the tracking error ybar = y - r and
the input increment ubar(t) = u(t) - u(t-1): multiplying the denominator by
(1 - z^{-1}) absorbs the constant set-point and constant disturbance offsets
and yields the incremental model

    ybar(t+1) = psi(t)' theta_star + wbar(t),

with regressor psi(t) = [ybar(t)..ybar(t-n), ubar(t)..ubar(t-n+1)] and
theta_star = [abar_1..abar_{n+1}, b_1..b_n].  The abar coefficients are an
affine image of the a coefficients and always sum to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .polynomial import sylvester_margin, sylvester_matrix

__all__ = [
    "BoxSet",
    "PlantParameters",
    "aux_transform",
    "image_box",
]


def _frozen(values) -> np.ndarray:
    """A read-only float copy of `values`, at least 1-D; the caller's array stays as it was."""
    out = np.array(values, dtype=float, ndmin=1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned compact box {x : lo <= x <= hi}, the uncertainty set shape."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = _frozen(self.lo), _frozen(self.hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        with np.errstate(over="ignore"):
            wide = not np.all(np.isfinite(hi - lo))
        if wide:  # sample scales its draws by the widths
            raise ValueError("box widths must be finite")
        if np.any(lo > hi):
            raise ValueError("every lower bound must be <= the matching upper bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def diameter(self) -> float:
        """Euclidean diameter, attained corner to corner."""
        return float(np.linalg.norm(self.width))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def sample(self, rng: np.random.Generator, size: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Uniform draws; shape (dim,) for size None, else (size, dim).

        The draws of `rng.uniform(lo, hi, size)` bit for bit, lo + width U
        from the same doubles U, scaled in place: in a new array, or in
        `out`, an array of that shape in any memory order, which gets the
        doubles first.  An entry-major `out`, the transpose of a C-contiguous
        (dim, size) block, is scaled one contiguous entry at a time.
        """
        draws = rng.random(self.dim if size is None else (size, self.dim))
        if out is not None:
            np.copyto(out, draws)
            draws = out
        draws *= self.width
        draws += self.lo
        return draws

    def vertices(self) -> itertools.product:
        """All 2^dim corners, lazily, one tuple each; the last coordinate varies fastest."""
        return itertools.product(*zip(self.lo.tolist(), self.hi.tolist()))


@dataclass(frozen=True)
class PlantParameters:
    """Denominator and numerator coefficients a_1..a_n, b_1..b_n."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = _frozen(self.a), _frozen(self.b)
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 1:
            raise ValueError("a and b must be 1-D arrays of equal positive length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate((self.a, self.b))

    def b_at_one(self) -> float:
        """B(1), the dc gain numerator; must be nonzero for set-point tracking."""
        return float(self.b.sum())

    def validate(self, box: "BoxSet | None" = None) -> None:
        """Check the standing assumptions; raise ValueError when violated.

        The incremental pair (1-z^{-1})A, B is coprime exactly when A and B
        are coprime and B(1) != 0, so a single margin check covers both.
        """
        if box is not None and not box.contains(self.vector):
            raise ValueError("plant parameters fall outside the declared uncertainty box")
        if self.b_at_one() == 0.0:
            raise ValueError("B(1) = 0: a constant set-point is unreachable")
        margin, _, regular = sylvester_margin(sylvester_matrix(aux_transform(self), self.n))
        if not regular:
            raise ValueError(
                f"incremental plant pair is not coprime (margin {margin:.3e})"
            )


def aux_transform(theta: PlantParameters) -> np.ndarray:
    """theta_star = [abar_1..abar_{n+1}, b_1..b_n] of a plant, length 2n+1.

    Abar(z^{-1}) = 1 - sum_k abar_k z^{-k} is (1 - z^{-1}) A(z^{-1}).
    """
    a = theta.a
    out = np.empty(2 * theta.n + 1)
    out[0] = 1.0 + a[0]
    out[1 : theta.n] = a[1:] - a[:-1]
    out[theta.n] = -a[-1]
    out[theta.n + 1 :] = theta.b
    return out


def image_box(box: BoxSet, n: int) -> BoxSet:
    """Tight coordinatewise bounds of the incremental parameters over a plant box.

    Each output coordinate depends on at most two independent inputs, so
    interval arithmetic is exact per coordinate and the returned box is the
    bounding box of the image.
    """
    if box.dim != 2 * n:
        raise ValueError(f"expected a box of dimension {2 * n}")
    a_lo, a_hi = box.lo[:n], box.hi[:n]
    b_lo, b_hi = box.lo[n:], box.hi[n:]
    lo = np.empty(2 * n + 1)
    hi = np.empty(2 * n + 1)
    lo[0], hi[0] = 1.0 + a_lo[0], 1.0 + a_hi[0]
    for j in range(2, n + 1):
        lo[j - 1] = a_lo[j - 1] - a_hi[j - 2]
        hi[j - 1] = a_hi[j - 1] - a_lo[j - 2]
    lo[n], hi[n] = -a_hi[n - 1], -a_lo[n - 1]
    lo[n + 1 :], hi[n + 1 :] = b_lo, b_hi
    return BoxSet(lo, hi)
