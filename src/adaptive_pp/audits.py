"""The run-time audits: each re-checks one of the paper's guarantees on a logged run.

Every audit has one signature, ``name(traj, cfg, constants) -> record``:
`traj` is the run's `Trajectory`, `cfg` the `SimConfig` it ran under, and
`constants` the sampled `ConstantsEstimate`, which only the crude bound
reads.  The record is the audit's manifest entry, a plain dict with
`violations`, `pass` (violations == 0) and its diagnostics.  Each audit
decides its verdict against the shared rounding tolerance `AUDIT_TOL`, and a
NaN or Inf in a column it reads is a violation, never a pass.

* estimator: the update law's energy inequalities and step-size cap,
* recursion: the exact one-step state recursion,
* poles: frozen-time pole placement, a proven bound on the characteristic
  coefficient error of every logged (thetahat, K) row and a Rouche
  certificate that every frozen pole lies inside the decay radius,
* crude_bound: ||psi(t+1)|| <= (alpha + diam) ||psi(t)|| + |wbar(t)|,
* tracking: the tail tracking error under constant excitation.

`AUDITS` is the one ordered registry of them; `AUDIT_NAMES`, which
`SimConfig` checks its `audits` field against, and `run_audits`, which runs
a config's `audits` in registry order, derive from it.  `gain_bound_fit` is
not an audit, a verdict-free fit of the linear-like bound, but it reads a
run the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controller import _design_identity, _gamma

if TYPE_CHECKING:
    from .controller import TargetPolynomial
    from .simulation import ConstantsEstimate, SimConfig, Trajectory

AUDIT_TOL = 1e-9

__all__ = [
    "AUDIT_TOL",
    "AUDIT_NAMES",
    "estimator_audit",
    "state_recursion_audit",
    "pole_placement_audit",
    "crude_bound_audit",
    "tracking_audit",
    "gain_bound_fit",
    "needs_constants",
    "run_audits",
]


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


def estimator_audit(traj: Trajectory, cfg: SimConfig, constants: ConstantsEstimate | None = None) -> dict:
    """Check the update law's energy inequalities (see `estimator`) on a logged run.

    Row t belongs to absolute step t0+t: psi[t] is the regressor, e[t] the
    prediction error produced while stepping to t+1, wbar[t] the matching
    disturbance increment, theta_hat[t] the estimate the step started from.
    mu is `cfg.law_mu()` and must lie in [0, inf); mu = 0, the ideal law,
    makes a step with a zero regressor contribute nothing.

    Slack is an inequality's right side minus its left side, and a slack
    below -AUDIT_TOL is a violation; so is a step beyond the cap by more
    than AUDIT_TOL, and a record with a NaN or Inf.  Pair checks cover every
    consecutive step plus all dyadically spaced (tau, t) pairs, which
    telescoping makes representative of the full pair set.
    """
    mu = cfg.law_mu()
    if not 0.0 <= mu < np.inf:
        raise ValueError(f"mu must lie in [0, inf), got {mu}")
    psi, e, wbar, theta_hat = traj.psi, traj.e, traj.wbar, traj.theta_hat
    steps = psi.shape[0]
    if not (e.shape[0] == wbar.shape[0] == theta_hat.shape[0] == steps):
        raise ValueError("trajectory arrays must share their leading length")

    finite = np.isfinite(psi).all(axis=1) & np.isfinite(theta_hat).all(axis=1)
    finite &= np.isfinite(e) & np.isfinite(wbar)
    err = theta_hat - cfg.theta_star()
    v = np.einsum("ij,ij->i", err, err)
    psi_sq = np.einsum("ij,ij->i", psi, psi)

    # regularized form over the whole log; a zero denominator (mu = 0 and a
    # zero regressor) is a frozen step that contributes nothing
    denom = mu + psi_sq
    denom[denom == 0.0] = np.inf
    d = (-0.5 * e**2 / denom + 2.0 * wbar**2 / denom)[: steps - 1]
    min_slack_energy, violations, pairs = _window_slacks(v, d)

    # psi-normalized form on each maximal stretch [start, stop) where
    # ||psi||^2 >= mu and psi != 0
    active = (psi_sq >= mu) & (psi_sq > 0.0)
    edges = np.flatnonzero(np.diff(active, prepend=False, append=False))
    min_slack_interval = np.inf
    for start, stop in zip(edges[::2], edges[1::2]):
        span = slice(start, stop - 1)
        d = -0.25 * e[span] ** 2 / psi_sq[span] + 2.0 * wbar[span] ** 2 / psi_sq[span]
        slack, bad, count = _window_slacks(v[start:stop], d)
        min_slack_interval = min(min_slack_interval, slack)
        violations += bad
        pairs += count

    # step-size cap on every active record that has a next estimate
    j = np.flatnonzero(active[:-1])
    step = theta_hat[j + 1] - theta_hat[j]
    size = np.sqrt(np.einsum("ij,ij->i", step, step))
    excess = size - np.abs(e[j]) / np.sqrt(psi_sq[j])
    violations += int((excess > AUDIT_TOL).sum()) + int((~finite).sum())
    return {
        "violations": violations,
        "pass": violations == 0,
        "min_slack_energy": min_slack_energy,
        "min_slack_interval": min_slack_interval,
        "max_step_excess": float(np.fmax.reduce(excess, initial=-np.inf)),
        "pairs_checked": pairs,
    }


def state_recursion_audit(traj: Trajectory, cfg: SimConfig, constants: ConstantsEstimate | None = None) -> dict:
    """Replay psi(t+1) = A psi(t) + e1 e(t+1) from the log.

    Rows t and t+1 of psi bracket the transition driven by theta_hat[t],
    gains[t] and e[t].  A's estimate and gain rows are replayed as stacked
    row products, which have the bits of the loop's own dot products, and
    its other rows as a shift; no matrix is built.  The identity is exact
    by construction, so a max infinity-norm residual beyond AUDIT_TOL * (1 +
    max ||psi||) means the simulation and the recursion disagree; a NaN
    residual is a violation too.
    """
    psi = traj.psi
    residual = 0.0
    if psi.shape[0] >= 2:
        n = (psi.shape[1] - 1) // 2
        rows = psi[:-1, None, :]
        predicted = np.empty_like(psi[1:])
        predicted[:, 1:] = psi[:-1, :-1]
        # the innovation enters through e1
        predicted[:, 0] = (rows @ traj.theta_hat[:-1, :, None])[:, 0, 0] + traj.e[:-1]
        predicted[:, n + 1] = (rows @ traj.gains[:-1, :, None])[:, 0, 0]
        residual = float(np.abs(predicted - psi[1:]).max())
    scale = 1.0 + float(np.linalg.norm(psi, axis=1).max(initial=0.0))
    violations = int(not residual <= AUDIT_TOL * scale)
    return {"violations": violations, "pass": violations == 0, "max_residual": residual}


def _rouche_margin(target: TargetPolynomial, lam: float) -> float:
    """Proven lower bound on min |z^{2n+1} Astar(1/z)| over the circle |z| = lam.

    That is lam^(2n+1-d) min |q|, q the target without trailing zeros and d
    its degree.  |q| is symmetric about the real axis, so arcs + 1 samples
    of the upper half circle leave every point within an arc lam pi/(2 arcs)
    of one; |q'| <= sum_k k|q_k| lam^(k-1) turns that into a Lipschitz
    slack, and gamma_{16(2n+1)} sum_k |q_k| lam^k covers the rounding.  The
    arcs double from 2^11 until the slack is at most half the sampled
    minimum, which keeps at least half of it for a target root near the
    circle; at 2^20 arcs the bound is returned as it is, and a nonpositive
    one certifies nothing.
    """
    q = np.trim_zeros(target.coeffs, "b")
    lipschitz = np.polyval(np.polyder(np.abs(q)), lam) * np.pi * lam / 2
    rounding = _gamma(16 * target.dim) * np.polyval(np.abs(q), lam)
    arcs = 2048
    while True:
        circle = lam * np.exp(1j * np.pi / arcs * np.arange(arcs + 1))
        lowest = np.abs(np.polyval(q, circle)).min()
        if lipschitz / arcs <= 0.5 * lowest or arcs >= 2**20:
            return float(lam ** (target.dim + 1 - q.size) * (lowest - lipschitz / arcs - rounding))
        arcs *= 2


def pole_placement_audit(traj: Trajectory, cfg: SimConfig, constants: ConstantsEstimate | None = None) -> dict:
    """Prove that every logged (thetahat, K) row places cfg's target poles, inside |z| < lam.

    det(zI - A(theta, K)) is the z-lift of Abar L + B P, so the coefficient
    error of every row is r = M(theta) x - (Astar - Abar) of
    `controller._design_identity`, the same evaluation as the design
    residual column, with no closed-loop matrix built.  Its 2n+1 products
    and two rounded terms make |r| + gamma_{2n+3} (|M||x| + |Astar - Abar| +
    |Astar|) a bound on the exact error (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1) in any summation order; a factor
    1 + 2 gamma_{2n+3} covers the bound's own rounding, and its largest
    entry is the proven `max_coeff_err` eps.

    Violations: eps beyond AUDIT_TOL * (1 + max|Astar|); the design
    residual column beyond the same; and a failed radius certificate.  lam
    is `cfg.decay_rate()`, which a SimConfig keeps above every target pole
    modulus, so by Rouche's theorem all frozen poles lie in |z| < lam when
    eps * sum_{j<=2n} lam^j is below `rouche_margin` (see `_rouche_margin`).
    """
    target, lam = cfg.target, cfg.decay_rate()
    n, k = target.n, 2 * target.n + 3
    lifted = target.lifted_coeffs()
    scale = 1.0 + float(np.abs(lifted).max())
    margin = _rouche_margin(target, lam)
    with np.errstate(invalid="ignore", over="ignore"):
        m, x, rhs, r = _design_identity(traj.theta_hat, traj.gains, target)
        bound = (np.abs(m) @ np.abs(x)[:, :, None])[:, :, 0] + np.abs(rhs) + np.abs(lifted[1:])
        err = np.abs(r) + _gamma(k) * bound
        eps = float(np.max(err)) * (1.0 + 2.0 * _gamma(k))
        radius = eps * np.polyval(np.ones(2 * n + 1), lam)
    res_max = float(traj.dioph_residual.max())
    # a NaN fails every comparison, so it counts as a violation
    checks = (eps <= AUDIT_TOL * scale, res_max <= AUDIT_TOL * scale, radius < margin)
    violations = sum(not ok for ok in checks)
    return {
        "violations": violations,
        "pass": violations == 0,
        "max_coeff_err": eps,
        "max_residual": res_max,
        "lambda": lam,
        "rouche_margin": margin,
    }


def crude_bound_audit(traj: Trajectory, cfg: SimConfig, constants: ConstantsEstimate) -> dict:
    """Check ||psi(t+1)|| <= (alpha_bar + s_bar) ||psi(t)|| + |wbar(t)| stepwise.

    alpha_bar and s_bar come from `constants`.  alpha_bar is a sampled lower
    estimate of the true supremum, so isolated violations indicate
    undersampling rather than a broken loop; `alpha_required` reports how
    large alpha would have to be.
    """
    alpha_bar, s_bar = constants.alpha_bar, constants.s_bar
    norms = np.linalg.norm(traj.psi, axis=1)
    violations = 0
    alpha_required = 0.0
    if norms.size >= 2:
        prev, lhs, wbar = norms[:-1], norms[1:], np.abs(traj.wbar[:-1])
        rhs = (alpha_bar + s_bar) * prev + wbar
        # a NaN or Inf on either side counts, never passes
        violations = int((~(lhs - rhs <= AUDIT_TOL * (1.0 + prev)) | ~np.isfinite(rhs)).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            needed = np.where(prev > 0.0, (lhs - wbar) / prev - s_bar, -np.inf)
        alpha_required = float(needed.max())
    return {
        "violations": violations,
        "pass": violations == 0,
        "alpha_bar": alpha_bar,
        "s_bar": s_bar,
        "alpha_required": alpha_required,
    }


def tracking_audit(traj: Trajectory, cfg: SimConfig, constants: ConstantsEstimate | None = None) -> dict:
    """Largest |ybar| over the final `cfg.tracking_tail` steps under constant excitation.

    Demands constant reference and disturbance over the last 2 * tail steps
    (the audited tail plus an equally long lead-in), since the
    asymptotic-tracking guarantee only speaks about constant excitation; a
    finite window that is not constant raises ValueError.  Each step of
    that window with a NaN or Inf reference or disturbance is a violation,
    and so is a NaN or Inf tail error.
    """
    tail = cfg.tracking_tail
    window = 2 * tail
    if traj.steps < window:
        raise ValueError(f"trajectory too short: need {window} steps, have {traj.steps}")
    r_win, w_win = traj.r[-window:], traj.w[-window:]
    violations = int((~(np.isfinite(r_win) & np.isfinite(w_win))).sum())
    if not violations and not (np.all(r_win == r_win[0]) and np.all(w_win == w_win[0])):
        raise ValueError("reference and disturbance must be constant over the audited window")
    err = float(np.abs(traj.ybar[-tail:]).max())
    violations += int(not np.isfinite(err))
    return {"violations": violations, "pass": violations == 0, "tail_max_error": err}


# name -> (audit, whether it reads the sampled constants), in manifest order
AUDITS = {
    "estimator": (estimator_audit, False),
    "recursion": (state_recursion_audit, False),
    "poles": (pole_placement_audit, False),
    "crude_bound": (crude_bound_audit, True),
    "tracking": (tracking_audit, False),
}
AUDIT_NAMES = tuple(AUDITS)


def needs_constants(which) -> bool:
    """Whether an audit named in `which` reads the sampled constants (see `estimate_constants`)."""
    return any(AUDITS[name][1] for name in which)


def run_audits(traj: Trajectory, cfg: SimConfig, constants: ConstantsEstimate | None = None) -> dict:
    """Run `cfg.audits` on one trajectory; name -> manifest record, in AUDIT_NAMES order.

    `constants` is the run's `cfg.constants()`; an audit that reads them
    raises ValueError without them.
    """
    if constants is None and needs_constants(cfg.audits):
        raise ValueError(f"an audit of {cfg.audits} needs the sampled constants")
    return {name: audit(traj, cfg, constants) for name, (audit, _) in AUDITS.items() if name in cfg.audits}


def _phi_history(y: np.ndarray, u: np.ndarray, phi0: np.ndarray, n: int) -> np.ndarray:
    """Raw states [y(t)..y(t-n), u(t)..u(t-n)] for every logged row.

    Row 0 is phi0 itself; later rows shift in the logged y and u columns,
    newest first, with phi0 supplying the history before the first row.
    """
    windows = [
        sliding_window_view(np.concatenate((hist[::-1], col[1:])), n + 1)[:, ::-1]
        for hist, col in ((phi0[: n + 1], y), (phi0[n + 1 :], u))
    ]
    return np.concatenate(windows, axis=1)


def gain_bound_fit(traj: Trajectory, cfg: SimConfig) -> dict:
    """Fit the smallest gamma making the linear-like bound hold on one run of cfg.

    The bound compares the raw state ||phi(t)|| against gamma times
    lam^(t-t0) ||phi0|| + (|r| + sqrt(mu)) + sum_j lam^(t-1-j) |w(j)|, with
    lam = cfg.decay_rate() and mu = cfg.law_mu(), the update law's (0 under
    the ideal law).  Returns the manifest's gain_bound block: gamma, lambda,
    the residual floor (max ||psi|| over the final quarter) and the tail
    tracking error, max |ybar| over the final cfg.tracking_tail steps but
    at most a quarter of the run.
    """
    steps, lam = traj.steps, cfg.decay_rate()
    phi_norm = np.linalg.norm(_phi_history(traj.y, traj.u, cfg.phi0, cfg.n), axis=1)
    offset = float(np.abs(traj.r).max()) + np.sqrt(cfg.law_mu())

    # the recursion on Python floats: the same roundings as on numpy scalars
    conv = [0.0]
    for w in np.abs(traj.w[:-1]).tolist():
        conv.append(lam * conv[-1] + w)
    denom = phi_norm[0] * lam ** np.arange(steps) + offset + np.array(conv)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0.0, phi_norm / np.where(denom > 0.0, denom, 1.0), 0.0)

    psi_norm = np.linalg.norm(traj.psi, axis=1)
    tail = min(cfg.tracking_tail, max(1, steps // 4))
    return {
        "gamma": float(ratios.max()),
        "lambda": lam,
        "residual_floor": float(psi_norm[(3 * steps) // 4 :].max()),
        "tail_tracking": float(np.abs(traj.ybar[-tail:]).max()),
    }
