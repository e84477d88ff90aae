"""Projection estimators for the incremental model, plus their runtime audit.

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
`estimator_audit` checks all three facts on recorded trajectories; a
violation beyond rounding tolerance always indicates an implementation bug,
never bad data.

`AUDIT_TOL` is that rounding tolerance, shared by every audit in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import BoxSet

AUDIT_TOL = 1e-9

__all__ = [
    "AUDIT_TOL",
    "EstimatorAudit",
    "project_box",
    "projection_step",
    "estimator_audit",
]


def project_box(x, box: BoxSet) -> np.ndarray:
    """Euclidean projection onto a box: coordinatewise clipping."""
    return box.clip(x)


def projection_step(
    theta: np.ndarray, psi: np.ndarray, ybar_next: float, mu: float, box: BoxSet
) -> tuple[np.ndarray, float]:
    """One projected update on raw arrays; returns the new estimate and e(t+1).

    The step is psi e / (mu + ||psi||^2) followed by clipping into the box;
    mu > 0 is the classical law and mu = 0 the ideal law, which leaves the
    estimate unchanged when the regressor vanishes.
    """
    # ndarray.dot calls the same BLAS dot as `@`, with less dispatch
    e = float(ybar_next) - float(psi.dot(theta))
    denom = mu + float(psi.dot(psi))
    if denom == 0.0:
        return theta, e
    return project_box(theta + psi * (e / denom), box), e


@dataclass(frozen=True)
class EstimatorAudit:
    """Outcome of checking the update-law energy inequalities on a trajectory.

    Slack is the inequality's right side minus its left side; the audits pass
    when every slack stays above -AUDIT_TOL and every record is finite.  Pair
    checks cover every consecutive step plus all dyadically spaced (tau, t)
    pairs, which telescoping makes representative of the full pair set.
    """

    min_slack_energy: float        # worst window slack, regularized form
    violations_energy: int
    min_slack_interval: float      # worst window slack on >=mu stretches
    violations_interval: int
    max_step_excess: float         # worst (step size - |e|/||psi||) on >=mu stretches
    violations_step: int
    violations_nonfinite: int      # records with a NaN or Inf in any input
    pairs_checked: int

    @property
    def violations(self) -> int:
        return (
            self.violations_energy + self.violations_interval
            + self.violations_step + self.violations_nonfinite
        )

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def record(self) -> dict:
        """The manifest record: verdict plus the worst slacks and the pair count."""
        return {
            "violations": self.violations,
            "pass": self.passed,
            "min_slack_energy": self.min_slack_energy,
            "min_slack_interval": self.min_slack_interval,
            "max_step_excess": self.max_step_excess,
            "pairs_checked": self.pairs_checked,
        }


def _window_slacks(v: np.ndarray, d: np.ndarray) -> tuple[float, int, int]:
    """Worst slack, violation count and pair count of v[tau] - v[tau+L] + sum(d[tau:tau+L]).

    L runs over the dyadic lags 1, 2, 4, ... shorter than v.  Each lag's
    window sums are two of the previous lag's added, W_2L[tau] = W_L[tau] +
    W_L[tau+L] from W_1 = d, so a window only ever adds terms inside it and one
    huge term cannot cost a distant window its precision.
    """
    worst, violations, pairs = np.inf, 0, 0
    window, lag = d, 1
    while lag < v.size:
        slack = v[:-lag] - v[lag:] + window
        worst = float(np.fmin.reduce(slack, initial=worst))
        violations += int((slack < -AUDIT_TOL).sum())
        pairs += slack.size
        window = window[:-lag] + window[lag:]
        lag *= 2
    return worst, violations, pairs


def estimator_audit(
    psi: np.ndarray,
    e: np.ndarray,
    wbar: np.ndarray,
    theta_hat: np.ndarray,
    theta_star: np.ndarray,
    mu: float,
) -> EstimatorAudit:
    """Check the energy inequalities on logged arrays.

    Row t of the arrays belongs to absolute step t0+t: psi[t] is the
    regressor, e[t] the prediction error produced while stepping to t+1,
    wbar[t] the matching disturbance increment, theta_hat[t] the estimate the
    step started from.  mu is the update law's regularizer and must lie in
    [0, inf); mu = 0 selects the ideal-law form (steps with a zero regressor
    contribute nothing and must leave the estimate unchanged).
    """
    if not 0.0 <= mu < np.inf:
        raise ValueError(f"mu must lie in [0, inf), got {mu}")
    psi, e, wbar, theta_hat = (np.asarray(x, dtype=float) for x in (psi, e, wbar, theta_hat))
    steps = psi.shape[0]
    if not (e.shape[0] == wbar.shape[0] == theta_hat.shape[0] == steps):
        raise ValueError("trajectory arrays must share their leading length")

    finite = np.isfinite(psi).all(axis=1) & np.isfinite(theta_hat).all(axis=1)
    finite &= np.isfinite(e) & np.isfinite(wbar)
    err = theta_hat - np.asarray(theta_star, dtype=float)
    v = np.einsum("ij,ij->i", err, err)
    psi_sq = np.einsum("ij,ij->i", psi, psi)

    # regularized form over the whole log; a zero denominator (mu = 0 and a
    # zero regressor) is a frozen step that contributes nothing
    denom = mu + psi_sq
    denom[denom == 0.0] = np.inf
    d = (-0.5 * e**2 / denom + 2.0 * wbar**2 / denom)[: steps - 1]
    min_slack_energy, violations_energy, pairs = _window_slacks(v, d)

    # psi-normalized form on each maximal stretch [start, stop) where
    # ||psi||^2 >= mu and psi != 0
    active = (psi_sq >= mu) & (psi_sq > 0.0)
    edges = np.flatnonzero(np.diff(active, prepend=False, append=False))
    min_slack_interval, violations_interval = np.inf, 0
    for start, stop in zip(edges[::2], edges[1::2]):
        span = slice(start, stop - 1)
        d = -0.25 * e[span] ** 2 / psi_sq[span] + 2.0 * wbar[span] ** 2 / psi_sq[span]
        slack, bad, count = _window_slacks(v[start:stop], d)
        min_slack_interval = min(min_slack_interval, slack)
        violations_interval += bad
        pairs += count

    # step-size cap on every active record that has a next estimate
    j = np.flatnonzero(active[:-1])
    step = theta_hat[j + 1] - theta_hat[j]
    size = np.sqrt(np.einsum("ij,ij->i", step, step))
    excess = size - np.abs(e[j]) / np.sqrt(psi_sq[j])

    return EstimatorAudit(
        min_slack_energy=min_slack_energy,
        violations_energy=violations_energy,
        min_slack_interval=min_slack_interval,
        violations_interval=violations_interval,
        max_step_excess=float(np.fmax.reduce(excess, initial=-np.inf)),
        violations_step=int((excess > AUDIT_TOL).sum()),
        violations_nonfinite=int((~finite).sum()),
        pairs_checked=pairs,
    )
