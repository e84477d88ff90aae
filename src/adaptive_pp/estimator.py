"""Projection estimators for the incremental model.

Two update laws share the prediction error e(t+1) = ybar(t+1) - psi(t)' thetahat(t):

* classical: thetahat gets psi(t) e(t+1) / (mu + ||psi(t)||^2), mu > 0, then
  is clipped back into the parameter box;
* ideal: the same with mu = 0 and an explicit freeze when psi(t) = 0, which
  makes the post-update prediction interpolate ybar(t+1) exactly.

Both keep the estimate inside the box, and because clipping onto a box is
non-expansive toward any box member the parameter error obeys, step by step,

    ||err(t+1)||^2 <= ||err(t)||^2 - e^2/(2(mu+||psi||^2)) + 2 wbar^2/(mu+||psi||^2),

where wbar is the disturbance increment the incremental model actually saw.
On stretches where ||psi(t)||^2 >= mu (and psi(t) != 0) the paper states the
psi-normalized form -e^2/(4||psi||^2) + 2 wbar^2/||psi||^2 and the step-size
cap ||thetahat(t+1) - thetahat(t)|| <= |e(t+1)|/||psi(t)||.  There
mu + ||psi||^2 <= 2||psi||^2, so the psi-normalized form is implied by the
regularized one; it is checked in its own right all the same.
`audits.estimator_audit` checks all three facts on recorded trajectories; a
violation beyond rounding tolerance always indicates an implementation bug,
never bad data.
"""

from __future__ import annotations

import numpy as np

from .plant import BoxSet

__all__ = [
    "projection_step",
]


def projection_step(
    theta: np.ndarray, psi: np.ndarray, ybar_next: float, mu: float, box: BoxSet
) -> tuple[np.ndarray, float]:
    """One projected update on raw arrays; returns the new estimate and e(t+1).

    The step is psi e / (mu + ||psi||^2) followed by clipping into the box,
    the Euclidean projection onto it; mu > 0 is the classical law and mu = 0
    the ideal law, which leaves the estimate unchanged when the regressor
    vanishes.  The new estimate is a fresh array, the bits of
    `np.clip(theta + psi * (e / denom), box.lo, box.hi)`, formed and clipped
    in place.
    """
    # ndarray.dot calls the same BLAS dot as `@`, with less dispatch
    e = float(ybar_next) - float(psi.dot(theta))
    denom = mu + float(psi.dot(psi))
    if denom == 0.0:
        return theta, e
    new = psi * (e / denom)
    np.add(theta, new, out=new)  # theta first, as `theta + step` adds
    return new.clip(box.lo, box.hi, out=new), e
