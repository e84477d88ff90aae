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
On stretches where ||psi(t)||^2 >= mu the same algebra gives the sharper
-e^2/(4||psi||^2) + 2 wbar^2/||psi||^2 form and the step-size cap
||thetahat(t+1) - thetahat(t)|| <= |e(t+1)|/||psi(t)||.  `estimator_audit`
checks all three facts on recorded trajectories; a violation beyond rounding
tolerance always indicates an implementation bug, never bad data.

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
    e = float(ybar_next) - float(psi @ theta)
    denom = mu + float(psi @ psi)
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

    min_slack_energy: float        # worst cumulative slack, regularized form
    violations_energy: int
    min_slack_interval: float      # worst cumulative slack on >=mu stretches
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


def _dyadic_pairs(length: int):
    """Lags 1, 2, 4, ... shorter than the index range."""
    lag = 1
    while lag < length:
        yield lag
        lag *= 2


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
    step started from.  mu = 0 selects the ideal-law form (steps with a zero
    regressor contribute nothing and must leave the estimate unchanged).
    """
    psi = np.asarray(psi, dtype=float)
    e = np.asarray(e, dtype=float)
    wbar = np.asarray(wbar, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    steps = psi.shape[0]
    if not (e.shape[0] == wbar.shape[0] == theta_hat.shape[0] == steps):
        raise ValueError("trajectory arrays must share their leading length")

    finite = np.isfinite(psi).all(axis=1) & np.isfinite(theta_hat).all(axis=1)
    finite &= np.isfinite(e) & np.isfinite(wbar)
    err = theta_hat - theta_star
    v = np.einsum("ij,ij->i", err, err)
    psi_sq = np.einsum("ij,ij->i", psi, psi)

    denom = mu + psi_sq
    safe = denom > 0.0
    e_terms = np.where(safe, e**2 / np.where(safe, denom, 1.0), 0.0)
    w_terms = np.where(safe, wbar**2 / np.where(safe, denom, 1.0), 0.0)

    pairs = 0
    min_slack_energy = np.inf
    violations_energy = 0
    if steps >= 2:
        # decrease terms for the step t -> t+1, defined for t = 0..steps-2
        d = (-0.5 * e_terms + 2.0 * w_terms)[: steps - 1]
        prefix = np.concatenate(([0.0], np.cumsum(d)))
        # slack(tau, t) = v[tau] - v[t] + sum_{j=tau}^{t-1} d[j]
        for lag in _dyadic_pairs(steps):
            slack = v[:-lag] - v[lag:] + (prefix[lag:] - prefix[:-lag])
            min_slack_energy = min(min_slack_energy, float(slack.min()))
            violations_energy += int((slack < -AUDIT_TOL).sum())
            pairs += slack.size

    # sharper form on maximal stretches where ||psi||^2 >= mu
    min_slack_interval = np.inf
    violations_interval = 0
    max_step_excess = -np.inf
    violations_step = 0
    active = psi_sq >= mu
    if mu == 0.0:
        active = psi_sq > 0.0
    t = 0
    while t < steps:
        if not active[t]:
            t += 1
            continue
        start = t
        while t < steps and active[t]:
            t += 1
        stop = t  # stretch [start, stop)
        # step-size cap needs the next estimate, so the last record is exempt
        for j in range(start, min(stop, steps - 1)):
            norm = float(np.sqrt(psi_sq[j]))
            if norm == 0.0:
                continue
            step = float(np.linalg.norm(theta_hat[j + 1] - theta_hat[j]))
            excess = step - abs(e[j]) / norm
            max_step_excess = max(max_step_excess, excess)
            if excess > AUDIT_TOL:
                violations_step += 1
        hi = min(stop, steps)  # estimates exist for every record in the stretch
        length = hi - start
        if length >= 2:
            with np.errstate(divide="ignore", invalid="ignore"):
                d2 = np.where(
                    psi_sq[start : hi - 1] > 0.0,
                    -0.25 * e[start : hi - 1] ** 2 / psi_sq[start : hi - 1]
                    + 2.0 * wbar[start : hi - 1] ** 2 / psi_sq[start : hi - 1],
                    0.0,
                )
            prefix2 = np.concatenate(([0.0], np.cumsum(d2)))
            vv = v[start:hi]
            for lag in _dyadic_pairs(length):
                slack = vv[:-lag] - vv[lag:] + (prefix2[lag:] - prefix2[:-lag])
                min_slack_interval = min(min_slack_interval, float(slack.min()))
                violations_interval += int((slack < -AUDIT_TOL).sum())
                pairs += slack.size

    return EstimatorAudit(
        min_slack_energy=float(min_slack_energy),
        violations_energy=violations_energy,
        min_slack_interval=float(min_slack_interval),
        violations_interval=violations_interval,
        max_step_excess=float(max_step_excess),
        violations_step=violations_step,
        violations_nonfinite=int((~finite).sum()),
        pairs_checked=pairs,
    )
