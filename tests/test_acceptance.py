"""Acceptance gate: the eight quantitative claims the library stands on.

Each test evaluates one criterion end to end, prints a single PASS/FAIL line
with the measured numbers, and registers that line for the terminal summary.
Shared expensive artifacts (the benchmark run, the sampled norm constant, the
100-draw randomized sweep) are module-scoped fixtures.
"""

import dataclasses
import time

import numpy as np
import pytest

from adaptive_pp import (
    SignalSpec,
    closed_loop_matrix,
    estimate_constants,
    exact_pole_check,
    crude_bound_audit,
    monte_carlo_sweep,
    run_audits,
    run_closed_loop,
    solve_diophantine,
    tracking_audit,
)
from adaptive_pp.cli import load_config, main

from conftest import EXAMPLE_CONFIG

pytestmark = pytest.mark.acceptance


def _verdict(record, number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    record(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def example_run():
    """The benchmark scenario exactly as shipped, run once and timed."""
    cfg, extras, _ = load_config(EXAMPLE_CONFIG)
    start = time.perf_counter()
    traj = run_closed_loop(cfg)
    wall = time.perf_counter() - start
    return cfg, extras, traj, wall


@pytest.fixture(scope="module")
def norm_constants(example_run):
    cfg, _, _, _ = example_run
    return estimate_constants(cfg.aux_box(), cfg.target, samples=100_000, seed=0)


@pytest.fixture(scope="module")
def sweep_reports(example_run):
    """100 randomized draws: plant over the box, start estimate, mu, phi0."""
    cfg, extras, _, _ = example_run
    sweep = extras["sweep"]
    return monte_carlo_sweep(
        cfg,
        draws=int(sweep["draws"]),
        seed=cfg.seed,
        overrides=sweep["overrides"],
        horizon=int(sweep["horizon"]),
        alpha_samples=100_000,
        audits=("estimator", "recursion", "poles", "crude_bound"),
    )


def _tracking_cfg(cfg, horizon: int):
    """Benchmark plant under constant excitation, estimator regularized hard."""
    return dataclasses.replace(
        cfg,
        mu=1e4,
        reference=SignalSpec("constant", magnitude=2.0),
        disturbance=SignalSpec("constant", magnitude=0.5),
        horizon=horizon,
    )


@pytest.fixture(scope="module")
def tracking_runs(example_run):
    cfg, _, _, _ = example_run
    return {h: run_closed_loop(_tracking_cfg(cfg, h)) for h in (500, 1000, 2000)}


@pytest.fixture(scope="module")
def quiescent_runs(example_run):
    """w = 0, r = 0, benchmark start state, three regularizer decades."""
    cfg, _, _, _ = example_run
    runs = {}
    for mu in (1e-6, 1e-4, 1e-2):
        quiet = dataclasses.replace(
            cfg,
            mu=mu,
            reference=SignalSpec("constant", magnitude=0.0),
            disturbance=SignalSpec("constant", magnitude=0.0),
            horizon=2000,
        )
        runs[mu] = run_closed_loop(quiet)
    return runs


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_benchmark_scenario_completes(example_run, criterion_report):
    cfg, _, traj, wall = example_run
    aux_box = cfg.aux_box()
    steps_ok = traj.steps == 1000
    inside = all(aux_box.contains(row, tol=1e-12) for row in traj.theta_hat)
    y_peak = float(np.abs(traj.y).max())
    u_peak = float(np.abs(traj.u).max())
    bounded = np.isfinite(traj.y).all() and np.isfinite(traj.u).all() and max(y_peak, u_peak) < 1e6
    fast = wall < 5.0
    _verdict(
        criterion_report, 1,
        steps_ok and inside and bounded and fast,
        f"1000 steps, 0 aborts, estimates in the box, max|y| = {y_peak:.3g}, "
        f"max|u| = {u_peak:.3g}, wall = {wall:.3f} s (< 5 s)",
    )


def test_criterion_2_estimator_inequality_never_violated(example_run, sweep_reports, criterion_report):
    cfg, _, traj, _ = example_run
    base = run_audits(traj, cfg, which=("estimator",))["estimator"]
    sweep_violations = sum(rep.details.get("estimator", 0) for rep in sweep_reports)
    aborted = sum(1 for rep in sweep_reports if rep.aborted)
    ok = base["violations"] == 0 and sweep_violations == 0 and aborted == 0
    _verdict(
        criterion_report, 2,
        ok,
        f"slack >= -1e-9 at {base['pairs_checked']} benchmark pairs "
        f"(worst {base['min_slack_energy']:.2e}) and across 100 randomized draws "
        f"({sweep_violations} violations, {aborted} aborts)",
    )


def test_criterion_3_state_recursion_identity(example_run, sweep_reports, criterion_report):
    cfg, _, traj, _ = example_run
    base = run_audits(traj, cfg, which=("recursion",))["recursion"]
    scale = 1.0 + float(np.linalg.norm(traj.psi, axis=1).max())
    sweep_violations = sum(rep.details.get("recursion", 0) for rep in sweep_reports)
    ok = base["violations"] == 0 and base["max_residual"] <= 1e-9 * scale and sweep_violations == 0
    _verdict(
        criterion_report, 3,
        ok,
        f"benchmark residual {base['max_residual']:.2e} <= 1e-9*(1+max||psi||) = "
        f"{1e-9 * scale:.2e}; {sweep_violations} violations across 100 draws",
    )


def test_criterion_4_frozen_time_pole_placement(example_run, criterion_report):
    cfg, _, _, _ = example_run
    aux_box = cfg.aux_box()
    lifted = cfg.target.lifted_coeffs()
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_coeff = 0.0
    exact_failures = 0
    for vec in aux_box.sample(rng, 100):
        K, residual = solve_diophantine(vec, cfg.target)
        worst_residual = max(worst_residual, residual)
        coeffs = np.poly(np.linalg.eigvals(closed_loop_matrix(vec, K)))
        worst_coeff = max(worst_coeff, float(np.abs(coeffs - lifted).max()))
        if exact_pole_check(vec, lifted, cfg.n) != 0:
            exact_failures += 1
    ok = exact_failures == 0 and worst_residual <= 1e-9 and worst_coeff <= 1e-7
    _verdict(
        criterion_report, 4,
        ok,
        f"100 random estimates: eigenvalue multiset certified equal to "
        f"{{0,0,0,0,0.6}} exactly ({exact_failures} failures), design residual "
        f"<= {worst_residual:.2e}, characteristic coefficients within {worst_coeff:.2e}",
    )


def test_criterion_5_asymptotic_tracking(tracking_runs, criterion_report):
    tails = {h: tracking_audit(tr, tail=100)["tail_max_error"] for h, tr in tracking_runs.items()}
    small = tails[2000] < 1e-4
    monotone = tails[500] >= tails[1000] >= tails[2000]
    _verdict(
        criterion_report, 5,
        small and monotone,
        "tail max |y - r|: "
        + ", ".join(f"T={h}: {tails[h]:.3e}" for h in (500, 1000, 2000))
        + " (monotone non-increasing, final < 1e-4)",
    )


def test_criterion_6_regularizer_bias_floor(quiescent_runs, criterion_report):
    ratios = {}
    residuals = {}
    for mu, traj in quiescent_runs.items():
        psi_norm = np.linalg.norm(traj.psi, axis=1)
        r_mu = float(psi_norm[traj.t >= 1500].max())
        residuals[mu] = r_mu
        ratios[mu] = r_mu / np.sqrt(mu)
    ok = max(ratios.values()) <= 10.0 * min(ratios.values())
    _verdict(
        criterion_report, 6,
        ok,
        "steady residual R(mu) = "
        + ", ".join(f"{r:.3g} at mu={mu:g}" for mu, r in residuals.items())
        + f"; R/sqrt(mu) spread {max(ratios.values()):.3g} <= 10 x {min(ratios.values()):.3g} "
        "(undisturbed loop converges to exact zero at every mu)",
    )


def test_criterion_7_crude_growth_bound(
    example_run, norm_constants, sweep_reports, tracking_runs, quiescent_runs, criterion_report
):
    alpha, s_bar = norm_constants.alpha_bar, norm_constants.s_bar
    named = [example_run[2], *tracking_runs.values(), *quiescent_runs.values()]
    direct_violations = sum(
        crude_bound_audit(tr, alpha, s_bar)["violations"] for tr in named
    )
    sweep_violations = sum(rep.details.get("crude_bound", 0) for rep in sweep_reports)
    ok = (
        direct_violations == 0
        and sweep_violations == 0
        and abs(s_bar - np.sqrt(29.0)) < 1e-12
    )
    _verdict(
        criterion_report, 7,
        ok,
        f"||psi(t+1)|| <= (alpha+s)||psi(t)|| + |wbar(t)| with alpha = {alpha:.4g} "
        f"(1e5 samples), s = sqrt(29): {direct_violations} violations on "
        f"{len(named)} named runs, {sweep_violations} across 100 draws",
    )


def test_criterion_8_byte_identical_reruns(config_file, tmp_path, criterion_report):
    path = config_file(horizon=200, audits=["recursion", "poles"], alpha_samples=500)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", path, "--out", str(r1), "--quiet"]) == 0
    assert main(["run", path, "--out", str(r2), "--quiet"]) == 0
    run_same = (r1 / "trajectory.csv").read_bytes() == (r2 / "trajectory.csv").read_bytes()

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    sweep_args = ["--draws", "5", "--seed", "3", "--horizon", "80", "--quiet"]
    assert main(["sweep", path, "--out", str(s1)] + sweep_args) == 0
    assert main(["sweep", path, "--out", str(s2)] + sweep_args) == 0
    sweep_same = (s1 / "sweep.csv").read_bytes() == (s2 / "sweep.csv").read_bytes()

    _verdict(
        criterion_report, 8,
        run_same and sweep_same,
        f"repeated run CSVs identical: {run_same}; repeated sweep CSVs identical: {sweep_same}",
    )
