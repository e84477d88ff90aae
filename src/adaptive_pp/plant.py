"""Plant model, incremental reparameterization, and regressor bookkeeping.

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
    "SystemState",
    "aux_transform",
    "image_box",
    "plant_step",
    "make_regressor",
]


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned compact box {x : lo <= x <= hi}, the uncertainty set shape."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("every lower bound must be <= the matching upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def diameter(self) -> float:
        """Euclidean diameter, attained corner to corner."""
        return float(np.linalg.norm(self.width))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Uniform draws; shape (dim,) for size None, else (size, dim)."""
        if size is None:
            return rng.uniform(self.lo, self.hi)
        return rng.uniform(self.lo, self.hi, size=(size, self.dim))

    def vertices(self) -> np.ndarray:
        """All 2^dim corners, one per row."""
        cols = [(float(l), float(h)) for l, h in zip(self.lo, self.hi)]
        return np.array(list(itertools.product(*cols)))


@dataclass(frozen=True)
class PlantParameters:
    """Denominator and numerator coefficients a_1..a_n, b_1..b_n."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 1:
            raise ValueError("a and b must be 1-D arrays of equal positive length")
        a.flags.writeable = False
        b.flags.writeable = False
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


@dataclass
class SystemState:
    """Rolling plant history: outputs y(t)..y(t-n) and inputs u(t)..u(t-n).

    Histories are stored newest first with fixed length n+1, enough to form
    phi(t), the regressor, and every input increment down to ubar(t-n+1).
    """

    t: int
    y: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float)).copy()
        u = np.atleast_1d(np.asarray(self.u, dtype=float)).copy()
        if y.ndim != 1 or u.ndim != 1 or y.size != u.size or y.size < 2:
            raise ValueError("y and u histories must be 1-D, equal length, length >= 2")
        self.y = y
        self.u = u

    @property
    def n(self) -> int:
        return self.y.size - 1

    def phi(self) -> np.ndarray:
        """Raw state [y(t)..y(t-n), u(t)..u(t-n)], length 2(n+1)."""
        return np.concatenate((self.y, self.u))

    @classmethod
    def from_phi(cls, phi, n: int, t: int) -> "SystemState":
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (2 * (n + 1),):
            raise ValueError(f"expected an initial state of length {2 * (n + 1)}")
        return cls(t=t, y=phi[: n + 1], u=phi[n + 1 :])

    def advance(self, y_next: float, u_next: float) -> None:
        """Shift histories one step forward in place."""
        self.y[1:] = self.y[:-1]
        self.y[0] = y_next
        self.u[1:] = self.u[:-1]
        self.u[0] = u_next
        self.t += 1


def plant_step(theta: PlantParameters, state: SystemState, u_t: float, w_t: float) -> float:
    """One plant update: y(t+1) from the current history, u(t) = u_t and w(t) = w_t.

    The input taken from the state is only u(t-1)..u(t-n+1); the fresh input
    is always the explicit argument, so callers may probe inputs without
    mutating the state.
    """
    n = theta.n
    if state.n != n:
        raise ValueError(f"state order {state.n} does not match plant order {n}")
    y_term = float(theta.a @ state.y[:n])
    u_term = float(theta.b[0] * u_t)
    if n > 1:
        u_term += float(theta.b[1:] @ state.u[1:n])
    return y_term + u_term + float(w_t)


def make_regressor(state: SystemState, r: float) -> np.ndarray:
    """Regressor psi(t) = [ybar(t)..ybar(t-n), ubar(t)..ubar(t-n+1)].

    One set-point value is applied to the whole output history, which is the
    meaningful construction at a start time or under a constant reference.
    """
    ybar = state.y - float(r)
    ubar = state.u[:-1] - state.u[1:]
    return np.concatenate((ybar, ubar))
