"""Closed-loop simulation, trajectory serialization, audits, and the sweep."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from adaptive_pp import (
    AUDIT_TOL,
    BoxSet,
    PlantParameters,
    SignalSpec,
    SimConfig,
    SingularSylvesterError,
    TargetPolynomial,
    Trajectory,
    TrajectoryFormatError,
    closed_loop_matrix,
    crude_bound_audit,
    estimate_constants,
    gain_bound_fit,
    image_box,
    monte_carlo_sweep,
    pole_placement_audit,
    run_audits,
    run_closed_loop,
    solve_diophantine_batch,
    tracking_audit,
)
from adaptive_pp.simulation import _CHUNK, _max_sigma

# ---------------------------------------------------------------------------
# signals


def test_sign_flip_schedule():
    r = SignalSpec("sign_flip", magnitude=2.0, period=200)
    assert r.value(0) == 2.0
    assert r.value(199) == 2.0
    assert r.value(200) == -2.0
    assert r.value(399) == -2.0
    assert r.value(400) == 2.0
    w = SignalSpec("sign_flip", magnitude=0.5, period=250)
    assert w.value(499) == -0.5


def test_constant_and_custom_signals():
    assert SignalSpec("constant", magnitude=-1.5).value(1000) == -1.5
    custom = SignalSpec("custom", values=[0.0, 1.0, 4.0])
    assert custom.value(2) == 4.0
    with pytest.raises(IndexError):
        custom.value(3)


def test_signal_validation():
    with pytest.raises(ValueError):
        SignalSpec("noise")
    with pytest.raises(ValueError):
        SignalSpec("sign_flip", magnitude=1.0, period=0)
    with pytest.raises(ValueError):
        SignalSpec("sign_flip", magnitude=1.0, period=2.5)
    with pytest.raises(ValueError):
        SignalSpec("custom")
    with pytest.raises(ValueError):
        SignalSpec("custom", values=[1.0, np.nan])


# ---------------------------------------------------------------------------
# config validation


def test_config_validates_the_benchmark(example_config):
    example_config().validate()


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"theta0": np.zeros(4)}, "length 5"),
        ({"theta0": np.array([5.0, -1.0, 2.0, -0.5, -4.0])}, "inside"),
        ({"phi0": np.zeros(5)}, "length 6"),
        ({"mu": 0.0}, "mu"),
        ({"mu": -1.0}, "mu"),
        ({"horizon": 0}, "horizon"),
        ({"estimator_mode": "other"}, "estimator_mode"),
        ({"lam": 0.5}, "lam"),
        ({"lam": 1.0}, "lam"),
        ({"disturbance": SignalSpec("custom", values=np.zeros(10))}, "custom disturbance"),
        ({"mu": np.inf}, "mu"),
    ],
)
def test_config_rejections(example_config, overrides, match):
    with pytest.raises(ValueError, match=match):
        example_config(**overrides).validate()


def test_config_rejects_mismatched_orders(example_config):
    with pytest.raises(ValueError, match="agree"):
        example_config(theta_true=PlantParameters([0.5], [1.0])).validate()
    with pytest.raises(ValueError, match="dimension 4"):
        example_config(box=BoxSet(np.zeros(2), np.ones(2))).validate()


def test_decay_rate_default_and_override(example_config):
    # exact: the golden lambda = 0.8 of the benchmark run rests on it
    assert example_config().decay_rate() == 0.8
    assert example_config(lam=0.9).decay_rate() == 0.9


def test_config_derived_quantities(example_config):
    cfg = example_config()
    np.testing.assert_allclose(cfg.theta_star(), [0.5, -1.0, 1.5, -0.75, -3.0], atol=1e-15)
    aux = cfg.aux_box()
    np.testing.assert_array_equal(aux.lo, [-1.0, -3.0, 1.0, -1.0, -5.0])
    np.testing.assert_array_equal(aux.hi, [1.0, 1.0, 3.0, 0.0, -3.0])


# ---------------------------------------------------------------------------
# the closed loop itself


@pytest.fixture(scope="module")
def bench_run(example_plant, example_box, example_target, example_theta0, example_phi0):
    cfg = SimConfig(
        n=2,
        theta_true=example_plant,
        box=example_box,
        target=example_target,
        mu=0.1,
        theta0=example_theta0,
        phi0=example_phi0,
        reference=SignalSpec("sign_flip", magnitude=2.0, period=200),
        disturbance=SignalSpec("sign_flip", magnitude=0.5, period=250),
        horizon=600,
    )
    return cfg, run_closed_loop(cfg)


def test_trajectory_shapes_and_time_axis(bench_run):
    cfg, traj = bench_run
    assert traj.steps == 600
    assert traj.psi.shape == (600, 5)
    assert traj.theta_hat.shape == (600, 5)
    assert traj.gains.shape == (600, 5)
    assert traj.phi.shape == (600, 6)
    np.testing.assert_array_equal(traj.t, np.arange(600))


def test_logged_columns_are_internally_consistent(bench_run):
    cfg, traj = bench_run
    np.testing.assert_allclose(traj.ybar, traj.y - traj.r, atol=0.0)
    np.testing.assert_allclose(traj.ubar[1:], np.diff(traj.u), atol=1e-12)
    # psi(t) = [ybar(t)..ybar(t-2), ubar(t)..ubar(t-1)] visible once history fills
    for i in range(2, traj.steps):
        np.testing.assert_allclose(traj.psi[i, :3], traj.ybar[i::-1][:3], atol=0.0)
        np.testing.assert_allclose(traj.psi[i, 3:], traj.ubar[i:i - 2:-1], atol=0.0)
    # phi stacks the raw state; replaying the plant history is the reference
    y_hist, u_hist = cfg.phi0[:3], cfg.phi0[3:]
    for i in range(traj.steps):
        if i > 0:
            y_hist = np.concatenate(([traj.y[i]], y_hist[:-1]))
            u_hist = np.concatenate(([traj.u[i]], u_hist[:-1]))
        np.testing.assert_array_equal(traj.phi[i], np.concatenate((y_hist, u_hist)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_loop_outputs_follow_the_plant_difference_equation(n):
    # a seeded order-n plant in a box of half-width 0.1, the loop starting at its center
    rng = np.random.default_rng(60 + n)
    plant = PlantParameters(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n))
    box = BoxSet(plant.vector - 0.1, plant.vector + 0.1)
    cfg = SimConfig(
        n=n,
        theta_true=plant,
        box=box,
        target=TargetPolynomial([1.0, -0.5], n),
        mu=0.1,
        theta0=image_box(box, n).center,
        phi0=rng.uniform(-1, 1, 2 * (n + 1)),
        reference=SignalSpec("sign_flip", magnitude=1.0, period=30),
        disturbance=SignalSpec("custom", values=rng.uniform(-0.2, 0.2, 81)),
        horizon=80,
        nudge_singular=True,
    )
    traj = run_closed_loop(cfg)
    a, b = plant.a, plant.b
    # oldest first: y(t0-n)..y(t0-1) from phi0, then the logged column; u alike
    y = np.concatenate((cfg.phi0[1 : n + 1][::-1], traj.y))
    u = np.concatenate((cfg.phi0[n + 2 :][::-1], traj.u))
    replay = [
        a @ y[i + 1 : i + n + 1][::-1] + b @ u[i + 1 : i + n + 1][::-1] + traj.w[i]
        for i in range(traj.steps - 1)
    ]
    np.testing.assert_allclose(traj.y[1:], replay, rtol=0.0, atol=1e-12)
    # psi(t0) = [y(t0..t0-n) - r(t0), u(t0..t0-n+1) - u(t0-1..t0-n)] from phi0
    y0, u0 = cfg.phi0[: n + 1], cfg.phi0[n + 1 :]
    np.testing.assert_array_equal(traj.psi[0], np.concatenate((y0 - traj.r[0], u0[:-1] - u0[1:])))


def test_error_and_disturbance_columns_are_the_defining_identities(bench_run):
    cfg, traj = bench_run
    theta_star = cfg.theta_star()
    for i in range(traj.steps - 1):
        e_def = traj.ybar[i + 1] - float(traj.psi[i] @ traj.theta_hat[i])
        assert traj.e[i] == pytest.approx(e_def, abs=1e-12)
        w_def = traj.ybar[i + 1] - float(traj.psi[i] @ theta_star)
        assert traj.wbar[i] == pytest.approx(w_def, abs=1e-12)


def test_disturbance_increment_matches_on_a_constant_reference(example_config):
    rng = np.random.default_rng(6)
    w_vals = rng.uniform(-0.5, 0.5, size=61)
    cfg = example_config(
        reference=SignalSpec("constant", magnitude=2.0),
        disturbance=SignalSpec("custom", values=w_vals),
        horizon=60,
    )
    traj = run_closed_loop(cfg)
    # away from the start the effective disturbance is exactly the increment
    np.testing.assert_allclose(traj.wbar[1:-1], np.diff(traj.w)[:-1], atol=1e-10)


def test_equilibrium_is_a_fixed_point(example_config, example_theta0):
    cfg = example_config(
        phi0=np.zeros(6),
        reference=SignalSpec("constant", magnitude=0.0),
        disturbance=SignalSpec("constant", magnitude=0.0),
        horizon=50,
    )
    traj = run_closed_loop(cfg)
    assert np.all(traj.y == 0.0) and np.all(traj.u == 0.0)
    assert np.all(traj.psi == 0.0) and np.all(traj.e == 0.0)
    # a zero regressor freezes the estimator
    np.testing.assert_array_equal(traj.theta_hat, np.tile(example_theta0, (50, 1)))


def test_runs_are_deterministic(example_config):
    cfg = example_config(horizon=120)
    a, b = run_closed_loop(cfg), run_closed_loop(cfg)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
    np.testing.assert_array_equal(a.gains, b.gains)


def test_horizon_one_and_start_offset(example_config):
    traj = run_closed_loop(example_config(horizon=1, t0=7))
    assert traj.steps == 1
    assert traj.t[0] == 7
    assert traj.y[0] == -1.0  # phi0's newest output


def _first_order_cfg(b0: float, nudge: bool) -> SimConfig:
    return SimConfig(
        n=1,
        theta_true=PlantParameters([0.5], [2.0]),
        box=BoxSet([0.3, 0.0], [0.7, 4.0]),
        target=TargetPolynomial([1.0, -0.5], 1),
        mu=0.1,
        theta0=np.array([1.5, -0.5, b0]),
        phi0=np.zeros(4),
        reference=SignalSpec("constant", magnitude=0.0),
        disturbance=SignalSpec("constant", magnitude=0.0),
        horizon=5,
        nudge_singular=nudge,
    )


def test_singular_start_aborts_with_the_step_attached():
    with pytest.raises(SingularSylvesterError) as exc:
        run_closed_loop(_first_order_cfg(0.0, nudge=False))
    assert exc.value.step == 0


def test_nudge_recovers_a_singular_start():
    traj = run_closed_loop(_first_order_cfg(0.0, nudge=True))
    assert traj.steps == 5
    # the estimate was pushed a millionth of the box width toward the center
    assert traj.theta_hat[0, 2] == pytest.approx(4e-6, rel=1e-9)
    # a regular start is left untouched by the same setting
    clean = run_closed_loop(_first_order_cfg(2.0, nudge=True))
    assert clean.theta_hat[0, 2] == 2.0


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_roundtrip_is_bit_exact(example_config, tmp_path):
    cfg = example_config(horizon=50)
    traj = run_closed_loop(cfg)
    path = tmp_path / "traj.csv"
    traj.save(path)
    text = path.read_text()
    back = Trajectory.from_csv(text, cfg)
    assert back.to_csv() == text
    np.testing.assert_array_equal(back.psi, traj.psi)
    np.testing.assert_array_equal(back.theta_hat, traj.theta_hat)
    np.testing.assert_array_equal(back.phi, traj.phi)


def _csv_per_field(traj: Trajectory) -> str:
    """The schema rendered one f-string per field, the reference for to_csv."""
    lines = [",".join(Trajectory.header(traj.n))]
    for i in range(traj.steps):
        scalars = (
            traj.y[i], traj.u[i], traj.w[i], traj.r[i],
            traj.ybar[i], traj.ubar[i], traj.wbar[i], traj.e[i],
        )
        row = [str(int(traj.t[i]))] + [f"{v:.17g}" for v in scalars]
        row += [f"{v:.17g}" for v in (*traj.psi[i], *traj.theta_hat[i], *traj.gains[i])]
        row.append(f"{traj.dioph_residual[i]:.17g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_csv_rows_match_the_per_field_rendering(example_config):
    traj = run_closed_loop(example_config(horizon=40))
    assert traj.to_csv() == _csv_per_field(traj)
    y, psi, gains = traj.y.copy(), traj.psi.copy(), traj.gains.copy()
    y[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    psi[3, 2] = -2.5e-310
    gains[7] = [np.nan, -0.0, np.inf, 1e-320, -np.inf]
    odd = dataclasses.replace(traj, y=y, psi=psi, gains=gains)
    text = odd.to_csv()
    assert text == _csv_per_field(odd)
    assert text.splitlines()[1].split(",")[1] == "nan" and ",-0," in text


def test_csv_parse_is_bit_equal_to_per_field_float(example_config):
    cfg = example_config(horizon=40)
    traj = run_closed_loop(cfg)
    y, psi, gains = traj.y.copy(), traj.psi.copy(), traj.gains.copy()
    y[1:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    psi[3, 2] = -2.5e-310
    gains[7] = [np.nan, -0.0, np.inf, 1e-320, -np.inf]
    lines = dataclasses.replace(traj, y=y, psi=psi, gains=gains).to_csv().splitlines()
    # spellings to_csv never writes but float() reads: a signed NaN, a signed
    # infinity, digit grouping and padding
    row = lines[9].split(",")
    row[3:7] = ["-nan", "+inf", "1_000.5", " 2.5 "]
    lines[9] = ",".join(row)
    back = Trajectory.from_csv("\n".join(lines) + "\n", cfg)
    got = np.column_stack((
        back.t, back.y, back.u, back.w, back.r, back.ybar, back.ubar, back.wbar, back.e,
        back.psi, back.theta_hat, back.gains, back.dioph_residual,
    ))
    ref = np.array([[float(p) for p in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.signbit(back.w[8]) and np.isnan(back.w[8])


def test_csv_rejects_a_field_moved_between_rows(example_config):
    # the total field count is right, but one row is short and the next long
    cfg = example_config(horizon=30)
    lines = run_closed_loop(cfg).to_csv().splitlines()
    short, long_ = lines[4].split(","), lines[5].split(",")
    lines[4], lines[5] = ",".join(short[:-1]), ",".join(long_ + short[-1:])
    with pytest.raises(TrajectoryFormatError, match="row 3 has 24 fields, expected 25"):
        Trajectory.from_csv("\n".join(lines) + "\n", cfg)
    lines[4], lines[5] = ",".join(short[:3] + ["oops"] + short[4:]), ",".join(long_)
    with pytest.raises(TrajectoryFormatError, match="row 3 is not numeric: .*'oops'"):
        Trajectory.from_csv("\n".join(lines) + "\n", cfg)


def test_csv_header_layout():
    cols = Trajectory.header(2)
    assert cols[:9] == ["t", "y", "u", "w", "r", "ybar", "ubar", "wbar", "e"]
    # gnuplot-facing 1-based positions: psi at 10..14, estimates at 15..19,
    # gains at 20..24, residual at 25
    assert cols[9] == "psi_1" and cols[13] == "psi_5"
    assert cols[14] == "thetahat_1" and cols[18] == "thetahat_5"
    assert cols[19] == "K_1" and cols[23] == "K_5"
    assert cols[24] == "dioph_residual" and len(cols) == 25


def test_csv_rejects_schema_breakage(example_config):
    cfg = example_config(horizon=30)
    text = run_closed_loop(cfg).to_csv()
    lines = text.splitlines()

    with pytest.raises(TrajectoryFormatError, match="header"):
        Trajectory.from_csv("\n".join(["x" + lines[0][1:]] + lines[1:]) + "\n", cfg)
    with pytest.raises(TrajectoryFormatError, match="rows"):
        Trajectory.from_csv("\n".join(lines[:-3]) + "\n", cfg)
    bad_field = lines[:]
    bad_field[5] = bad_field[5].replace(",", ",oops,", 1)
    with pytest.raises(TrajectoryFormatError, match="fields|numeric"):
        Trajectory.from_csv("\n".join(bad_field) + "\n", cfg)
    wrong_time = lines[:]
    first = wrong_time[1].split(",")
    first[0] = "9"
    wrong_time[1] = ",".join(first)
    with pytest.raises(TrajectoryFormatError, match="time"):
        Trajectory.from_csv("\n".join(wrong_time) + "\n", cfg)
    with pytest.raises(TrajectoryFormatError, match="empty"):
        Trajectory.from_csv("", cfg)


def test_csv_checks_the_configured_start_state(example_config):
    cfg = example_config(horizon=30)
    text = run_closed_loop(cfg).to_csv()
    other = example_config(horizon=30, phi0=np.ones(6))
    with pytest.raises(TrajectoryFormatError, match="phi0"):
        Trajectory.from_csv(text, other)


# ---------------------------------------------------------------------------
# sampled constants and the crude growth bound


@pytest.fixture(scope="module")
def bench_constants(example_target):
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    return estimate_constants(aux_box, example_target, samples=100_000, seed=0)


def test_constants_report_the_exact_diameter(bench_constants):
    assert bench_constants.s_bar == pytest.approx(np.sqrt(29.0), abs=1e-12)
    assert bench_constants.samples_skipped == 0
    assert bench_constants.samples_used == 100_000 + 2**5
    assert bench_constants.alpha_bar > 1.0


def test_constants_grow_monotonically_with_samples(example_target):
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    small = estimate_constants(aux_box, example_target, samples=2_000, seed=0)
    large = estimate_constants(aux_box, example_target, samples=20_000, seed=0)
    assert small.alpha_bar <= large.alpha_bar


def test_constants_reject_a_wrong_box(example_target):
    with pytest.raises(ValueError):
        estimate_constants(BoxSet(np.zeros(4), np.ones(4)), example_target)


def test_constants_name_a_box_with_no_regular_design(example_target):
    # b pinned at zero: every sample and vertex has a vanishing numerator
    aux_box = BoxSet([-1.0, -3.0, 1.0, 0.0, 0.0], [1.0, 1.0, 3.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="singular at all 42 sampled estimates"):
        estimate_constants(aux_box, example_target, samples=10)


def _constants_by_brute_force(aux_box, target, samples, seed):
    """One-shot draws and vertices, every regular matrix through the SVD."""
    n = target.n
    rng = np.random.default_rng(seed)
    thetas = np.concatenate((aux_box.sample(rng, samples), aux_box.vertices()))
    design = solve_diophantine_batch(thetas, target.lifted_coeffs(), n)
    mats = closed_loop_matrix(thetas[design.ok], design.gains, n)
    alpha = np.linalg.svd(mats, compute_uv=False)[:, 0].max()
    used = design.gains.shape[0]
    return float(alpha), used, thetas.shape[0] - used


def _seeded_problem(n: int):
    """A random plant box of order n (all b > 0, so B(1) != 0) and a stable target."""
    rng = np.random.default_rng(100 + n)
    lo = np.concatenate((rng.uniform(-1.0, 0.5, n), rng.uniform(0.2, 1.5, n)))
    box = BoxSet(lo, lo + rng.uniform(0.1, 1.0, 2 * n))
    return image_box(box, n), TargetPolynomial(np.poly(rng.uniform(-0.7, 0.7, n)), n)


@pytest.mark.parametrize("samples", [_CHUNK // 2, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_streamed_constants_equal_a_full_svd(n, samples):
    aux_box, target = _seeded_problem(n)
    est = estimate_constants(aux_box, target, samples=samples, seed=n)
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, samples, seed=n)
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)


def test_pruned_constants_keep_a_near_rank_one_maximum():
    # b near zero: huge gains, sigma_2/sigma_1 ~ 1e-6, ||A||_F within 3e-13 of sigma_1
    aux_box = image_box(BoxSet([-0.5, 1e-6], [-0.4, 2e-6]), 1)
    target = TargetPolynomial([1.0, -0.5], 1)
    est = estimate_constants(aux_box, target, samples=_CHUNK + 1, seed=3)
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, _CHUNK + 1, seed=3)
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)
    assert alpha > 1e5


def test_frobenius_pruning_keeps_a_maximum_outside_the_probe():
    # 100 identities lead in Frobenius norm (sqrt 5) with sigma_max 1; the rank-one
    # matrix (Frobenius norm = sigma_max = 1 + 1e-11) is outside the probe and wins
    u = np.full(5, np.sqrt((1.0 + 1e-11) / 5.0))
    mats = np.stack([np.eye(5)] * 100 + [np.outer(u, u)])
    expected = np.linalg.svd(mats, compute_uv=False)[:, 0].max()
    assert expected > 1.0
    assert _max_sigma(mats, -np.inf) == expected
    assert _max_sigma(mats, 2.0) == 2.0
    mats[0, 0, 0] = np.nan  # a non-finite matrix fails as the full SVD does
    with pytest.raises(np.linalg.LinAlgError):
        _max_sigma(mats, -np.inf)


def test_constants_memory_does_not_grow_with_samples(example_target):
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    tracemalloc.start()
    try:
        estimate_constants(aux_box, example_target, samples=400_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_crude_bound_holds_on_the_benchmark(bench_run, bench_constants):
    _, traj = bench_run
    report = crude_bound_audit(traj, bench_constants.alpha_bar, bench_constants.s_bar)
    assert report["pass"]
    assert report["alpha_required"] <= bench_constants.alpha_bar


def test_crude_bound_flags_an_impossible_constant(bench_run):
    _, traj = bench_run
    report = crude_bound_audit(traj, 0.0, 0.0)
    assert not report["pass"]
    assert report["alpha_required"] > 0.0


# ---------------------------------------------------------------------------
# pole audit, gain bound, tracking


def test_pole_audit_passes_and_detects_corruption(bench_run, example_target):
    _, traj = bench_run
    assert pole_placement_audit(traj, example_target)["pass"]

    broken = dataclasses.replace(traj, gains=traj.gains * 1.01)
    report = pole_placement_audit(broken, example_target)
    assert not report["pass"]
    assert report["max_coeff_err"] > 1e-3


def _pole_audit_per_row(traj: Trajectory, target: TargetPolynomial) -> dict:
    """pole_placement_audit's reference: eigvals and np.poly on every finite row."""
    lifted = target.lifted_coeffs()
    scale = 1.0 + float(np.abs(lifted).max())
    finite = np.isfinite(traj.theta_hat).all(axis=1) & np.isfinite(traj.gains).all(axis=1)
    eig = np.linalg.eigvals(closed_loop_matrix(traj.theta_hat[finite], traj.gains[finite], traj.n))
    max_err = 0.0 if finite.all() else np.inf
    for row in eig:
        max_err = max(max_err, float(np.abs(np.poly(row) - lifted).max()))
    res_max = float(traj.dioph_residual.max())
    violations = int(not max_err <= AUDIT_TOL * scale) + int(not res_max <= AUDIT_TOL * scale)
    return {
        "violations": violations,
        "pass": violations == 0,
        "max_coeff_err": max_err,
        "max_residual": res_max,
    }


def test_deduplicated_pole_audit_equals_the_per_row_audit(bench_run, example_target):
    _, traj = bench_run
    # the rows repeat; corrupt one repeat only, so its estimate comes with two gain rows
    repeat = int(np.flatnonzero((traj.theta_hat[1:] == traj.theta_hat[:-1]).all(axis=1))[0]) + 1
    second = traj.gains.copy()
    second[repeat] *= 1.01
    nan_row = traj.gains.copy()
    nan_row[10, 0] = np.nan
    for gains in (traj.gains, traj.gains * 1.01, second, nan_row):
        case = dataclasses.replace(traj, gains=gains)
        assert pole_placement_audit(case, example_target) == _pole_audit_per_row(case, example_target)
    assert not pole_placement_audit(dataclasses.replace(traj, gains=second), example_target)["pass"]


def test_gain_bound_fit_validates_lam(bench_run, example_target):
    _, traj = bench_run
    with pytest.raises(ValueError, match="lam"):
        gain_bound_fit(traj, 0.5, example_target)
    with pytest.raises(ValueError, match="lam"):
        gain_bound_fit(traj, 1.0, example_target)


def test_gain_bound_is_a_certified_envelope(bench_run, example_target):
    cfg, traj = bench_run
    fit = gain_bound_fit(traj, 0.8, example_target)
    assert fit["gamma"] > 0.0
    # recompute the bound independently and check it dominates ||phi(t)||
    phi_norm = np.linalg.norm(traj.phi, axis=1)
    envelope = np.empty(traj.steps)
    conv = 0.0
    for i in range(traj.steps):
        envelope[i] = (
            phi_norm[0] * 0.8**i + (np.abs(traj.r).max() + np.sqrt(cfg.mu)) + conv
        )
        conv = 0.8 * conv + abs(traj.w[i])
    assert np.all(phi_norm <= fit["gamma"] * envelope + 1e-9)
    # the fit is tight: some step attains it
    assert np.isclose((phi_norm / envelope).max(), fit["gamma"], rtol=1e-12)


def test_gain_bound_on_an_equilibrium_run_is_zero(example_config, example_target):
    cfg = example_config(
        phi0=np.zeros(6),
        reference=SignalSpec("constant", magnitude=0.0),
        disturbance=SignalSpec("constant", magnitude=0.0),
        horizon=40,
    )
    fit = gain_bound_fit(run_closed_loop(cfg), 0.8, example_target)
    assert fit["gamma"] == 0.0
    assert fit["residual_floor"] == 0.0


def test_tracking_audit_contract(example_config):
    cfg = example_config(
        reference=SignalSpec("constant", magnitude=2.0),
        disturbance=SignalSpec("constant", magnitude=0.5),
        horizon=400,
    )
    traj = run_closed_loop(cfg)
    report = tracking_audit(traj, tail=100)
    assert report["pass"]
    assert report["tail_max_error"] <= 1e-8  # the loop converges onto the set-point

    flip = run_closed_loop(example_config(horizon=400))
    with pytest.raises(ValueError, match="constant"):
        tracking_audit(flip, tail=100)
    with pytest.raises(ValueError, match="tail"):
        tracking_audit(traj, tail=0)
    with pytest.raises(ValueError, match="short"):
        tracking_audit(traj, tail=300)


# ---------------------------------------------------------------------------
# audit orchestration


def test_run_audits_returns_all_requested_sections(bench_run, bench_constants):
    cfg, traj = bench_run
    results = run_audits(
        traj, cfg,
        which=("estimator", "recursion", "poles", "crude_bound"),
        constants=bench_constants,
    )
    assert set(results) == {"estimator", "recursion", "poles", "crude_bound"}
    for res in results.values():
        assert res["pass"] and res["violations"] == 0


def test_run_audits_rejects_unknown_names(bench_run):
    cfg, traj = bench_run
    with pytest.raises(ValueError, match="unknown audit"):
        run_audits(traj, cfg, which=("spectral",))


def test_run_audits_tracking_section(example_config):
    cfg = example_config(
        reference=SignalSpec("constant", magnitude=2.0),
        disturbance=SignalSpec("constant", magnitude=0.5),
        horizon=300,
    )
    traj = run_closed_loop(cfg)
    results = run_audits(traj, cfg, which=("tracking",), tracking_tail=50)
    assert results["tracking"]["pass"]
    assert results["tracking"]["tail_max_error"] <= 1e-8


# ---------------------------------------------------------------------------
# the Monte Carlo sweep


def test_sweep_single_draw_equals_a_plain_run(example_config, example_target):
    cfg = example_config(horizon=200)
    reports = monte_carlo_sweep(cfg, draws=1, alpha_samples=2_000)
    assert len(reports) == 1
    rep = reports[0]
    direct = gain_bound_fit(run_closed_loop(cfg), cfg.decay_rate(), example_target)
    assert rep.gamma == direct["gamma"]
    assert rep.violations == 0 and not rep.aborted
    assert rep.mu == cfg.mu and rep.draw == 0


def test_sweep_randomization_is_reproducible(example_config):
    cfg = example_config(horizon=120)
    overrides = {"theta": True, "theta0": True, "mu": (1e-6, 1.0), "phi0": 5.0}
    kw = dict(draws=6, seed=11, overrides=overrides, alpha_samples=1_000,
              audits=("estimator", "recursion", "poles"))
    first = monte_carlo_sweep(cfg, **kw)
    second = monte_carlo_sweep(cfg, **kw)
    assert [r.gamma for r in first] == [r.gamma for r in second]
    assert [r.mu for r in first] == [r.mu for r in second]
    # randomization actually happened
    assert len({r.mu for r in first}) > 1


def test_sweep_validates_inputs(example_config):
    cfg = example_config(horizon=50)
    with pytest.raises(ValueError, match="draws"):
        monte_carlo_sweep(cfg, draws=0)
    with pytest.raises(ValueError, match="override"):
        monte_carlo_sweep(cfg, draws=1, overrides={"sigma": 1.0})
    with pytest.raises(ValueError, match="horizon"):
        monte_carlo_sweep(cfg, draws=1, horizon=0)
    for mu_range in ((0.0, 1.0), (1.0, 0.5), (1e-3, np.inf)):
        with pytest.raises(ValueError, match="mu override"):
            monte_carlo_sweep(cfg, draws=1, overrides={"mu": mu_range})


def test_sweep_collects_aborted_draws_instead_of_dying():
    cfg = _first_order_cfg(0.0, nudge=False)
    reports = monte_carlo_sweep(
        cfg, draws=2, alpha_samples=500, audits=("recursion", "poles")
    )
    assert len(reports) == 2
    assert all(r.aborted for r in reports)
    assert all(np.isnan(r.gamma) for r in reports)


def test_sweep_horizon_override(example_config):
    cfg = example_config(horizon=400)
    reports = monte_carlo_sweep(
        cfg, draws=1, horizon=80, alpha_samples=500, audits=("recursion",)
    )
    assert len(reports) == 1 and not reports[0].aborted
