"""Closed-loop simulation, trajectory serialization, audits, and the sweep."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from adaptive_pp import (
    AUDIT_TOL,
    BoxSet,
    ConstantsEstimate,
    PlantParameters,
    SignalSpec,
    SimConfig,
    SingularSylvesterError,
    TargetPolynomial,
    Trajectory,
    TrajectoryFormatError,
    closed_loop_matrix,
    crude_bound_audit,
    design_residual,
    design_rhs,
    estimate_constants,
    gain_bound_fit,
    image_box,
    monte_carlo_sweep,
    pole_placement_audit,
    run_audits,
    run_closed_loop,
    solve_diophantine_batch,
    solve_gains,
    tracking_audit,
)
from adaptive_pp import simulation
from adaptive_pp.audits import _phi_history, _rouche_margin
from adaptive_pp.cli import load_config
from adaptive_pp.controller import _design_identity
from adaptive_pp.estimator import projection_step
from adaptive_pp.simulation import (
    _CHUNK_BYTES,
    _CSV_ROWS,
    TRAJECTORY_COLUMNS,
    _box_chunks,
    _chunk_rows,
    _sigma_bound,
)
from conftest import BENCHMARK_CONFIG, ROOT

# ---------------------------------------------------------------------------
# signals


def test_sign_flip_schedule():
    r = SignalSpec("sign_flip", magnitude=2.0, period=200).series(401)
    assert r[0] == 2.0
    assert r[199] == 2.0
    assert r[200] == -2.0
    assert r[399] == -2.0
    assert r[400] == 2.0
    w = SignalSpec("sign_flip", magnitude=0.5, period=250).series(500)
    assert w[499] == -0.5


def test_constant_and_custom_signals():
    assert SignalSpec("constant", magnitude=-1.5).series(1001)[1000] == -1.5
    custom = SignalSpec("custom", values=[0.0, 1.0, 4.0])
    assert custom.series(3)[2] == 4.0
    with pytest.raises(IndexError):
        custom.series(4)


def _signal_at(spec: SignalSpec, elapsed: int) -> float:
    """The signal at one elapsed step, element by element: the reference for SignalSpec.series."""
    if spec.kind == "constant":
        return float(spec.magnitude)
    if spec.kind == "sign_flip":
        flips = elapsed // int(spec.period)
        return float(spec.magnitude) * (1.0 if flips % 2 == 0 else -1.0)
    if not 0 <= elapsed < spec.values.size:
        raise IndexError(f"custom signal has no value at elapsed step {elapsed}")
    return float(spec.values[elapsed])


@pytest.mark.parametrize(
    "spec",
    [
        SignalSpec("constant", magnitude=-1.5),
        SignalSpec("constant", magnitude=0.0),
        SignalSpec("sign_flip", magnitude=0.75, period=1),
        SignalSpec("sign_flip", magnitude=-2.0, period=7),
        SignalSpec("sign_flip", magnitude=0.0, period=7),  # -0.0 in odd periods
        SignalSpec("sign_flip", magnitude=3.0, period=500),  # longer than the count
        SignalSpec("custom", values=np.random.default_rng(3).normal(size=60)),
    ],
    ids=["constant", "constant-zero", "flip-1", "flip-7", "flip-zero", "flip-long", "custom"],
)
def test_signal_series_is_the_element_wise_signal(spec):
    for count in (0, 1, 59, 60):
        got = spec.series(count)
        want = np.array([_signal_at(spec, i) for i in range(count)], dtype=float)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), count
    if spec.kind == "custom":
        with pytest.raises(IndexError, match="60 values, 61 asked for"):
            spec.series(61)
        # a copy: the spec's own values stay read-only and untouched
        spec.series(60)[0] = 99.0
        assert spec.values[0] != 99.0
    with pytest.raises(ValueError, match="count"):
        spec.series(-1)


def test_signal_validation():
    with pytest.raises(ValueError):
        SignalSpec("noise")
    with pytest.raises(ValueError):
        SignalSpec("sign_flip", magnitude=1.0, period=0)
    with pytest.raises(ValueError):
        SignalSpec("sign_flip", magnitude=1.0, period=2.5)
    # none is an integer an int64 step index can be divided by
    for period in (np.inf, np.nan, 2**63):
        with pytest.raises(ValueError, match="period"):
            SignalSpec("sign_flip", magnitude=1.0, period=period)
    with pytest.raises(ValueError):
        SignalSpec("custom")
    with pytest.raises(ValueError):
        SignalSpec("custom", values=[1.0, np.nan])
    with pytest.raises(ValueError, match="magnitude"):
        SignalSpec("constant", magnitude=np.nan)
    with pytest.raises(ValueError, match="magnitude"):
        SignalSpec("sign_flip", magnitude=np.inf, period=2)


# ---------------------------------------------------------------------------
# config validation


def test_config_validates_the_benchmark(example_config):
    example_config()


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
        ({"t0": 0.5}, "t0"),
        ({"phi0": np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0])}, "phi0"),
        ({"horizon": np.inf}, "horizon"),
        ({"horizon": np.nan}, "horizon"),
        # the times t0 .. t0 + horizon - 1 are the int64 t column
        ({"t0": 2**63 - 999}, r"^t0, horizon and t0 \+ horizon - 1 must be int64 integers, got t0 = 9\d+, horizon = 1000$"),
        ({"t0": -(2**63) - 1}, r"^t0, horizon and t0 \+ horizon - 1 must be int64 integers, got t0 = -\d+, horizon = 1000$"),
        ({"horizon": 2**63}, r"^t0, horizon and t0 \+ horizon - 1 must be int64 integers, got t0 = 0, horizon = 9\d+$"),
        ({"audits": ("spectral",)}, "^audits must be drawn from"),
        ({"audits": ("poles", "estimator", "poles")}, "^audits must name each audit once"),
        ({"alpha_samples": -5}, "^alpha_samples must be an integer >= 0, got -5$"),
        ({"seed": -1}, "^seed must be an integer >= 0, got -1$"),
        # the tracking audit reads the final 2 * tracking_tail steps
        (
            {"audits": ("tracking",), "tracking_tail": 501},
            r"^tracking_tail must be at most horizon / 2 .* got tracking_tail = 501, horizon = 1000$",
        ),
    ],
)
def test_config_rejections(example_config, overrides, match):
    with pytest.raises(ValueError, match=match):
        example_config(**overrides)


def test_a_tracking_window_of_the_whole_horizon_is_accepted(example_config):
    assert example_config(audits=("tracking",), tracking_tail=500).horizon == 1000
    # without the tracking audit the tail is read only by the gain-bound fit, which caps it
    assert example_config(audits=("poles",), tracking_tail=10**6).tracking_tail == 10**6


def test_the_time_axis_reaches_the_last_int64(example_config):
    traj = run_closed_loop(example_config(t0=2**63 - 50, horizon=50))
    assert traj.t.dtype == np.int64 and traj.t[-1] == 2**63 - 1
    assert np.array_equal(np.diff(traj.t), np.ones(49, dtype=np.int64))


def test_config_rejects_mismatched_orders(example_config):
    with pytest.raises(ValueError, match="agree"):
        example_config(theta_true=PlantParameters([0.5], [1.0]))
    with pytest.raises(ValueError, match="dimension 4"):
        example_config(box=BoxSet(np.zeros(2), np.ones(2)))


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
    assert _phi_history(traj.y, traj.u, cfg.phi0, cfg.n).shape == (600, 6)
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
    phi = _phi_history(traj.y, traj.u, cfg.phi0, cfg.n)
    y_hist, u_hist = cfg.phi0[:3], cfg.phi0[3:]
    for i in range(traj.steps):
        if i > 0:
            y_hist = np.concatenate(([traj.y[i]], y_hist[:-1]))
            u_hist = np.concatenate(([traj.u[i]], u_hist[:-1]))
        np.testing.assert_array_equal(phi[i], np.concatenate((y_hist, u_hist)))


def _seeded_cfg(n: int) -> SimConfig:
    """A seeded order-n plant in a box of half-width 0.1, the loop starting at its center."""
    rng = np.random.default_rng(60 + n)
    plant = PlantParameters(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n))
    box = BoxSet(plant.vector - 0.1, plant.vector + 0.1)
    aux = image_box(box, n)
    return SimConfig(
        n=n,
        theta_true=plant,
        box=box,
        target=TargetPolynomial([1.0, -0.5], n),
        mu=0.1,
        theta0=0.5 * (aux.lo + aux.hi),
        phi0=rng.uniform(-1, 1, 2 * (n + 1)),
        reference=SignalSpec("sign_flip", magnitude=1.0, period=30),
        disturbance=SignalSpec("custom", values=rng.uniform(-0.2, 0.2, 81)),
        horizon=80,
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_loop_outputs_follow_the_plant_difference_equation(n):
    cfg = _seeded_cfg(n)
    traj = run_closed_loop(cfg)
    a, b = cfg.theta_true.a, cfg.theta_true.b
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_loop_outputs_have_the_bits_of_shifted_histories(n):
    # the reference keeps y(t)..y(t-n+1) and u(t)..u(t-n+1) newest first in
    # two arrays shifted by one each step, and replays the plant and the
    # input increment K psi(t) with the loop's grouping and dot products
    cfg = _seeded_cfg(n)
    traj = run_closed_loop(cfg)
    a, b = cfg.theta_true.a, cfg.theta_true.b
    b0, b_tail = float(b[0]), b[1:]
    y, u = cfg.phi0[:n].copy(), cfg.phi0[n + 1 : 2 * n + 1].copy()
    ys, us = [], []
    for i in range(traj.steps):
        ys.append(y[0])
        us.append(u0 := float(u[0]))
        u_term = b0 * u0
        if n > 1:
            u_term += float(b_tail.dot(u[1:]))
        y_next = float(a.dot(y)) + u_term + traj.w[i]
        ubar_next = float(traj.gains[i].dot(traj.psi[i]))
        y[1:], u[1:] = y[:-1].copy(), u[:-1].copy()
        y[0], u[0] = y_next, u0 + ubar_next
    np.testing.assert_array_equal(traj.y.view(np.uint64), np.array(ys).view(np.uint64))
    np.testing.assert_array_equal(traj.u.view(np.uint64), np.array(us).view(np.uint64))
    assert traj.y.flags.c_contiguous and traj.u.flags.c_contiguous


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


def _first_order_cfg(b0: float) -> SimConfig:
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
    )


@pytest.mark.parametrize(
    "cfg, step",
    [
        (_first_order_cfg(0.0), 0),
        # the case of the retired nudge_singular option: theta0 is the centre
        # of the incremental box b in [-4, 4] and the run starts at t0 = 3
        (dataclasses.replace(_first_order_cfg(0.0), box=BoxSet([0.3, -4.0], [0.7, 4.0]), t0=3), 3),
    ],
    ids=["no_nudge", "nudge_at_centre"],
)
def test_singular_start_aborts_with_the_step_attached(cfg, step):
    # the step is the time the design failed at, counted from t0
    with pytest.raises(SingularSylvesterError) as exc:
        run_closed_loop(cfg)
    assert exc.value.step == step
    assert isinstance(exc.value.__cause__, SingularSylvesterError)


def _per_step_loop(cfg: SimConfig) -> Trajectory:
    """The loop logging every column at every step: the reference for run_closed_loop."""
    n = cfg.n
    dim = 2 * n + 1
    aux_box = cfg.aux_box()
    theta_star = cfg.theta_star()
    mu = cfg.law_mu()
    a, b = cfg.theta_true.a, cfg.theta_true.b
    r_t = _signal_at(cfg.reference, 0)
    y, u = cfg.phi0[: n + 1], cfg.phi0[n + 1 :]
    psi = np.concatenate((y - r_t, u[:-1] - u[1:]))
    y, u = y[:n].copy(), u[:n].copy()
    theta = cfg.theta0
    steps = int(cfg.horizon)
    out = {
        field: np.empty(steps if prefix is None else (steps, dim))
        for field, prefix in TRAJECTORY_COLUMNS
        if field != "t"
    }
    key = None
    for i in range(steps):
        w_t = _signal_at(cfg.disturbance, i)
        if theta.tobytes() != key:
            try:
                K = solve_gains(theta, cfg.target)
            except SingularSylvesterError as err:
                raise SingularSylvesterError(
                    err.margin, err.threshold, err.rcond, err.theta_hat, step=cfg.t0 + i
                ) from err
            residual = design_residual(theta, K, cfg.target)
            key = theta.tobytes()
        out["y"][i] = y[0]
        out["u"][i] = u[0]
        out["w"][i] = w_t
        out["r"][i] = r_t
        out["ybar"][i] = psi[0]
        out["ubar"][i] = psi[n + 1]
        out["dioph_residual"][i] = residual
        out["psi"][i] = psi
        out["theta_hat"][i] = theta
        out["gains"][i] = K
        u_term = float(b[0] * u[0])
        if n > 1:
            u_term += float(b[1:] @ u[1:])
        y_next = float(a @ y) + u_term + w_t
        r_t = _signal_at(cfg.reference, i + 1)
        ybar_next = y_next - r_t
        out["wbar"][i] = ybar_next - float(psi @ theta_star)
        theta, out["e"][i] = projection_step(theta, psi, ybar_next, mu, aux_box)
        ubar_next = float(K @ psi)
        y[1:] = y[:-1]
        y[0] = y_next
        u[1:] = u[:-1]
        u[0] += ubar_next
        psi[1 : n + 1] = psi[:n]
        psi[0] = ybar_next
        psi[n + 2 :] = psi[n + 1 : dim - 1]
        psi[n + 1] = ubar_next
    return Trajectory(n=n, t=cfg.t0 + np.arange(steps), **out)


def _kicked_first_order_cfg() -> SimConfig:
    """A first-order loop whose gain estimate is clipped onto b = 0, a singular design, at step 12."""
    return SimConfig(
        n=1,
        theta_true=PlantParameters([0.5], [0.2]),
        box=BoxSet([0.3, 0.0], [0.7, 4.0]),
        target=TargetPolynomial([1.0, -0.5], 1),
        mu=0.1,
        theta0=np.array([1.5, -0.5, 0.3]),
        phi0=np.zeros(4),
        reference=SignalSpec("constant", magnitude=1.0),
        disturbance=SignalSpec("custom", values=np.random.default_rng(2).uniform(-2, 2, 41)),
        horizon=40,
    )


def _oracle_cases():
    for n in (1, 2, 3, 4):
        for law in ("classical", "ideal"):
            yield pytest.param(n, law, id=f"n{n}-{law}")


def _assert_bit_equal(new: Trajectory, old: Trajectory) -> None:
    for field in dataclasses.fields(Trajectory):
        a, b = np.asarray(getattr(new, field.name)), np.asarray(getattr(old, field.name))
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field.name


@pytest.mark.parametrize("n, law", _oracle_cases())
def test_loop_equals_the_per_step_oracle(n, law):
    cfg = dataclasses.replace(_seeded_cfg(n), estimator_mode=law)
    _assert_bit_equal(run_closed_loop(cfg), _per_step_loop(cfg))
    # a custom reference too
    rng = np.random.default_rng(n)
    cfg = dataclasses.replace(cfg, reference=SignalSpec("custom", values=rng.uniform(-1, 1, 81)))
    _assert_bit_equal(run_closed_loop(cfg), _per_step_loop(cfg))


def test_loop_equals_the_oracle_through_singular_designs():
    cfg = _first_order_cfg(2.0)
    _assert_bit_equal(run_closed_loop(cfg), _per_step_loop(cfg))
    # a singular start, and an estimate clipped onto the singular b = 0 face mid-run
    for cfg, step in ((_first_order_cfg(0.0), 0), (_kicked_first_order_cfg(), 12)):
        with pytest.raises(SingularSylvesterError) as new:
            run_closed_loop(cfg)
        with pytest.raises(SingularSylvesterError) as old:
            _per_step_loop(cfg)
        assert new.value.step == old.value.step == step
        assert str(new.value) == str(old.value)


# ---------------------------------------------------------------------------
# CSV round trip


@pytest.mark.parametrize("n", [1, 2, 3])
def test_csv_roundtrip_is_bit_exact(n, example_config, tmp_path):
    cfg = example_config(horizon=50) if n == 2 else _seeded_cfg(n)
    traj = run_closed_loop(cfg)
    path = tmp_path / "traj.csv"
    traj.save(path)
    text = path.read_text()
    back = Trajectory.from_csv(text, cfg)
    assert back.to_csv() == text
    # every field, bit for bit, with its dtype and shape
    for field in dataclasses.fields(Trajectory):
        old, new = np.asarray(getattr(traj, field.name)), np.asarray(getattr(back, field.name))
        assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes()), field.name


def test_a_failed_save_leaves_the_existing_file_as_it_was(example_config, tmp_path):
    traj = run_closed_loop(example_config(horizon=50))
    path = tmp_path / "traj.csv"
    traj.save(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        dataclasses.replace(traj, y=traj.y[:-1]).save(path)  # to_csv raises
    assert path.read_bytes() == before
    # a rename that fails removes its temp file
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        traj.save(tmp_path / "taken")
    assert sorted(os.listdir(tmp_path)) == ["taken", "traj.csv"]


@pytest.mark.parametrize("steps", [1, _CSV_ROWS, _CSV_ROWS + 1])
def test_save_streams_the_bytes_of_to_csv(example_config, tmp_path, steps):
    traj = run_closed_loop(example_config(horizon=steps))
    path = tmp_path / "traj.csv"
    traj.save(path)
    assert path.read_bytes() == traj.to_csv().encode() == _csv_per_field(traj).encode()
    assert os.listdir(tmp_path) == ["traj.csv"]


def test_save_streams_the_benchmark_csv(tmp_path):
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    traj = run_closed_loop(cfg)
    path = tmp_path / "traj.csv"
    traj.save(path)
    data = path.read_bytes()
    assert data == traj.to_csv().encode()
    with open(os.path.join(ROOT, "out", "benchmark", "trajectory.csv"), "rb") as fh:
        assert data == fh.read()


def test_save_checks_the_columns_before_it_opens_a_file(example_config, tmp_path, monkeypatch):
    traj = run_closed_loop(example_config(horizon=50))
    opened = []
    monkeypatch.setattr(simulation, "_write_whole", lambda *args: opened.append(args))
    with pytest.raises(ValueError):
        dataclasses.replace(traj, gains=traj.gains[:-1]).save(tmp_path / "traj.csv")
    assert opened == [] and os.listdir(tmp_path) == []


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
    # the run's layout broken: psi drawn at random; ybar, psi_1 and the
    # shifted psi_2 apart only by the sign of a zero; NaN and +-Inf in w, r, psi
    rng = np.random.default_rng(40)
    assert (traj.ybar == traj.psi[:, 0]).all() and (traj.psi[1:, 1] == traj.psi[:-1, 0]).all()
    w, r, ybar, ubar, psi = (np.array(v) for v in (traj.w, traj.r, traj.ybar, traj.ubar, traj.psi))
    ybar[11], psi[11, 0], psi[12, 1] = -0.0, 0.0, -0.0
    ubar[13], psi[13, 3], psi[14, 4] = 0.0, -0.0, 0.0
    signed = dataclasses.replace(traj, ybar=ybar, ubar=ubar, psi=psi)
    w, r, psi = w.copy(), r.copy(), psi.copy()
    w[3], w[4], r[5], r[6] = np.nan, np.inf, -np.inf, -np.nan
    psi[7, 0], psi[8, 1], psi[9, 4] = np.nan, -np.inf, np.inf
    odd = dataclasses.replace(signed, w=w, r=r, psi=psi)
    for broken in (dataclasses.replace(traj, psi=rng.normal(size=traj.psi.shape)), signed, odd):
        assert broken.to_csv() == _csv_per_field(broken)


def _csv_per_row(traj: Trajectory) -> str:
    """The schema rendered with one "%d," + "%.17g"... format per row, block runs not shared."""
    cols = np.column_stack([getattr(traj, field) for field, _ in TRAJECTORY_COLUMNS])
    fmt = "%d," + ",".join(["%.17g"] * (cols.shape[1] - 1))
    lines = [",".join(Trajectory.header(traj.n))]
    lines += [fmt % tuple(row) for row in cols.tolist()]
    return "\n".join(lines) + "\n"


def _hand_built(block: np.ndarray, shared: str = "random") -> Trajectory:
    """An n = 1 trajectory with the given (thetahat, K, residual) rows.

    `shared` sets the w, r, ybar, ubar and psi columns: "random"; "shifted",
    laid out as a run logs them (ybar and ubar are psi_1 and psi_3, psi_2 is
    psi_1 a row later, w and r repeat each value for three rows); or that
    layout broken: "psi_random", "zero_sign" (values apart only by the sign
    of a zero where the layout repeats one) or "non_finite" (NaN and +-Inf in
    w, r and psi).
    """
    steps = block.shape[0]
    rng = np.random.default_rng(steps)
    col = lambda: rng.normal(size=steps)  # noqa: E731
    cols = dict(
        y=col(), u=col(), w=col(), r=col(), ybar=col(), ubar=col(), wbar=col(), e=col(),
        psi=rng.normal(size=(steps, 3)),
    )
    if shared != "random":
        ybar, ubar = cols["ybar"], cols["ubar"]
        w, r = (np.repeat(cols[key][::3], 3)[:steps] for key in ("w", "r"))
        psi = np.column_stack((ybar, np.r_[cols["psi"][0, 1], ybar[:-1]], ubar))
        if shared == "psi_random":
            psi = rng.normal(size=(steps, 3))
        elif shared == "zero_sign":
            ybar[2], psi[2, 0], psi[3, 1] = -0.0, 0.0, -0.0
            ubar[5], psi[5, 2] = 0.0, -0.0
            w[3], w[4], r[6], r[7] = -0.0, 0.0, 0.0, -0.0
        elif shared == "non_finite":
            w[1], r[4], r[5] = np.nan, np.inf, -np.inf
            ybar[6] = psi[6, 0] = psi[7, 1] = np.nan
            psi[2, 1], psi[8, 2] = -np.inf, np.inf
        cols.update(w=w, r=r, psi=psi)
    return Trajectory(
        n=1, t=np.arange(steps), **cols,
        theta_hat=block[:, :3], gains=block[:, 3:6], dioph_residual=block[:, 6],
    )


def _estimate_blocks(case: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    if case == "distinct":
        return rng.normal(size=(9, 7))
    if case == "equal":
        return np.tile(rng.normal(size=7), (9, 1))
    block = np.zeros((9, 7))
    if case == "signed_zero":
        # equal under == to the rows around them, but not bit for bit
        block[2, 1] = block[5, 6] = -0.0
        block[7, 3:6] = -0.0
    else:
        block[1:4, 0] = np.nan
        block[3, 4] = block[6, 2] = np.inf
        block[4:6, 5] = block[8, 6] = -np.inf
    return block


@pytest.mark.parametrize(
    "case, shared",
    [
        pytest.param("signed_zero", "random", id="signed_zero"),
        pytest.param("non_finite", "random", id="non_finite"),
        pytest.param("distinct", "random", id="distinct"),
        pytest.param("equal", "random", id="equal"),
        pytest.param("distinct", "shifted", id="shifted"),
        pytest.param("equal", "psi_random", id="psi_random"),
        pytest.param("equal", "zero_sign", id="zero_sign"),
        pytest.param("non_finite", "non_finite", id="non_finite_shared"),
    ],
)
def test_csv_equals_the_per_row_rendering_on_hand_built_estimate_runs(case, shared):
    traj = _hand_built(_estimate_blocks(case), shared)
    assert traj.to_csv() == _csv_per_row(traj)


def test_csv_refuses_columns_of_different_lengths(example_config):
    traj = run_closed_loop(example_config(horizon=20))
    short = lambda *fields: {field: getattr(traj, field)[:-1] for field in fields}  # noqa: E731
    for cut in (
        short("y"),
        short("w", "r", "ybar", "ubar", "psi"),
        short("theta_hat", "gains", "dioph_residual"),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(traj, **cut).to_csv()


def test_benchmark_trajectory_renders_the_golden_csv():
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    with open(os.path.join(ROOT, "out", "benchmark", "trajectory.csv"), "rb") as fh:
        golden = fh.read()
    assert run_closed_loop(cfg).to_csv().encode("ascii") == golden


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


def test_constants_refuse_a_negative_sample_count(example_target):
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    with pytest.raises(ValueError, match="samples"):
        estimate_constants(aux_box, example_target, samples=-5)


def test_constants_name_a_box_with_no_regular_design(example_target):
    # b pinned at zero: every sample and vertex has a vanishing numerator
    aux_box = BoxSet([-1.0, -3.0, 1.0, 0.0, 0.0], [1.0, 1.0, 3.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="singular at all 42 sampled estimates"):
        estimate_constants(aux_box, example_target, samples=10)


def _constants_by_brute_force(aux_box, target, samples, seed):
    """One-shot draws and vertices, every regular matrix through the SVD."""
    n = target.n
    rng = np.random.default_rng(seed)
    thetas = np.concatenate((aux_box.sample(rng, samples), np.array(list(aux_box.vertices()))))
    design = solve_diophantine_batch(thetas, target.lifted_coeffs(), n)
    mats = closed_loop_matrix(thetas[design.ok], design.gains)
    alpha = np.linalg.svd(mats, compute_uv=False)[:, 0].max()
    used = design.gains.shape[0]
    return float(alpha), used, thetas.shape[0] - used


def _seeded_problem(n: int):
    """A random plant box of order n (all b > 0, so B(1) != 0) and a stable target."""
    rng = np.random.default_rng(100 + n)
    lo = np.concatenate((rng.uniform(-1.0, 0.5, n), rng.uniform(0.2, 1.5, n)))
    box = BoxSet(lo, lo + rng.uniform(0.1, 1.0, 2 * n))
    return image_box(box, n), TargetPolynomial(np.poly(rng.uniform(-0.7, 0.7, n)), n)


# a draw count of one to twelve chunks at n = 1..4 and up to 23 at n = 6 (it
# was one chunk before chunks were sized in bytes)
_SAMPLES = 8192


@pytest.mark.parametrize("samples", [_SAMPLES // 2, _SAMPLES, _SAMPLES + 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pruned_streamed_constants_equal_a_full_svd(n, samples):
    aux_box, target = _seeded_problem(n)
    est = estimate_constants(aux_box, target, samples=samples, seed=n)
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, samples, seed=n)
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_chunks_are_the_one_shot_stream_in_one_entry_major_buffer(n):
    # two and a half chunks of draws, then the vertices; every chunk is a view
    # of one (dim, rows) buffer, entry-major, and the draws and vertices have
    # the bits of one `box.sample` call and of `box.vertices()`
    aux_box, _ = _seeded_problem(n)
    rows = _chunk_rows(n) // 4
    samples = 5 * rows // 2
    chunks, bases = [], set()
    for chunk in _box_chunks(aux_box, np.random.default_rng(n), samples, rows):
        assert chunk.strides == (8, 8 * rows) and chunk.shape[0] <= rows
        bases.add(id(chunk.base))
        chunks.append(chunk.copy())
    assert len(bases) == 1
    draws = np.concatenate(chunks)[:samples]
    want = aux_box.sample(np.random.default_rng(n), samples)
    np.testing.assert_array_equal(draws.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(np.concatenate(chunks)[samples:], np.array(list(aux_box.vertices())))
    assert [c.shape[0] for c in chunks][:3] == [rows, rows, samples - 2 * rows]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constants_stream_across_chunk_boundaries(n):
    # one chunk of draws and one draw more: a full chunk, then a one-row chunk
    rows = _chunk_rows(n)
    assert (2 * n + 1) * (2 * n + 2) * 8 * rows <= _CHUNK_BYTES
    aux_box, target = _seeded_problem(n)
    for samples in (rows, rows + 1):
        est = estimate_constants(aux_box, target, samples=samples, seed=n)
        alpha, used, skipped = _constants_by_brute_force(aux_box, target, samples, seed=n)
        assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)


def test_benchmark_constants_equal_a_full_svd(bench_constants, example_target):
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    alpha, used, skipped = _constants_by_brute_force(aux_box, example_target, 100_000, seed=0)
    est = bench_constants
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)


def test_benchmark_constants_make_no_lapack_solve(monkeypatch, example_target):
    # the batched elimination decides and solves every row itself, so a
    # silent fallback to LAPACK's solve or det fails here
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_constants called LAPACK's solve or det")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    est = estimate_constants(aux_box, example_target, samples=100_000, seed=0)
    assert est.samples_used == 100_032


def test_constants_with_skipped_samples_equal_a_full_svd():
    # b straddles 0: the draws with |b| below about 1e-6 have a singular design
    aux_box = image_box(BoxSet([-0.5, -1e-4], [-0.4, 1e-4]), 1)
    target = TargetPolynomial([1.0, -0.5], 1)
    est = estimate_constants(aux_box, target, samples=_SAMPLES + 1, seed=3)
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, _SAMPLES + 1, seed=3)
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)
    assert skipped > 0


def test_pruned_constants_keep_a_near_rank_one_maximum():
    # b near zero: huge gains, sigma_2/sigma_1 ~ 1e-6, ||A||_F within 3e-13 of sigma_1
    aux_box = image_box(BoxSet([-0.5, 1e-6], [-0.4, 2e-6]), 1)
    target = TargetPolynomial([1.0, -0.5], 1)
    est = estimate_constants(aux_box, target, samples=_SAMPLES + 1, seed=3)
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, _SAMPLES + 1, seed=3)
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)
    assert alpha > 1e5


@pytest.mark.parametrize("box", ["near_rank_one", "benchmark"])
def test_constants_send_few_rows_to_the_svd(monkeypatch, example_target, box):
    # only rows whose upper bound reaches the cut are decomposed, in at most
    # one SVD call per chunk: 3 of the 100,004 regular rows near rank one,
    # 7 of the 100,032 on the benchmark
    aux_box, target = {
        "near_rank_one": (image_box(BoxSet([-0.5, 1e-6], [-0.4, 2e-6]), 1), TargetPolynomial([1.0, -0.5], 1)),
        "benchmark": (BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0]), example_target),
    }[box]
    decomposed = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        decomposed.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    est = estimate_constants(aux_box, target, samples=100_000, seed=0)
    monkeypatch.undo()
    rows = _chunk_rows(target.n)
    chunks = -(-100_000 // rows) + -(-(2**aux_box.dim) // rows)
    assert 0 < len(decomposed) <= chunks
    assert sum(decomposed) == {"near_rank_one": 3, "benchmark": 7}[box]
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, 100_000, seed=0)
    assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_gram_bound_dominates_sigma_max(n):
    # 25k rows per order: random (theta, K), K not solved, each row scaled
    # log-uniformly within 1e-3..1e6; in the first 100 rows theta lies on a
    # column the shift rows read and K = 0, which makes the upper bound exact
    rng = np.random.default_rng(40 + n)
    dim = 2 * n + 1
    thetas, gains = (
        rng.normal(size=(25_000, dim)) * 10.0 ** rng.uniform(-3.0, 6.0, (25_000, 1)) for _ in "tk"
    )
    thetas[:100, :] = gains[:100, :] = 0.0
    thetas[:100, 0] = 10.0 ** rng.uniform(-3.0, 6.0, 100)
    sigma = np.linalg.svd(closed_loop_matrix(thetas, gains), compute_uv=False)[:, 0]
    low, high = _sigma_bound(thetas, gains)
    # the pruning keeps a row unless its upper bound is below cut * (1 - 1e-12),
    # so this is the property it needs; rounding of the bound and of the SVD
    # can leave the bound an ulp or two under a tight sigma_max, never more
    assert np.all(high >= sigma * (1.0 - 1e-12))
    assert np.all(high >= sigma * (1.0 - 4 * np.finfo(float).eps))
    # a lower bound above a row's sigma_max could cut the chunk's maximiser
    assert np.all(low <= sigma)


@pytest.mark.parametrize("fake", ["chunk_max", "nan"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_constants_loop_past_a_one_row_probe(monkeypatch, n, fake):
    # each side of the two-sided bound in turn is made the same on every row
    # of a chunk, at the chunk's largest value of that side, or NaN.  The cut
    # reads only the largest lower bound, a flat upper bound at the chunk's
    # largest still bounds every row, a NaN upper bound is never pruned and
    # a NaN lower bound never sets the cut, so the maximum keeps the full
    # SVD's bits
    true_bound = simulation._sigma_bound
    aux_box, target = _seeded_problem(n)
    alpha, used, skipped = _constants_by_brute_force(aux_box, target, _SAMPLES + 1, seed=n)
    for side in (0, 1):

        def flat(*args):
            bounds = list(true_bound(*args))
            bounds[side] = np.full_like(bounds[side], bounds[side].max() if fake == "chunk_max" else np.nan)
            return tuple(bounds)

        monkeypatch.setattr(simulation, "_sigma_bound", flat)
        est = estimate_constants(aux_box, target, samples=_SAMPLES + 1, seed=n)
        assert (est.alpha_bar, est.samples_used, est.samples_skipped) == (alpha, used, skipped)


def test_constants_memory_does_not_grow_with_samples(example_target):
    # one bound, a fixed multiple of the chunk budget, whatever the sample
    # count or the order: 4e5 draws at n = 2 on the benchmark box, and at
    # n = 6 a seeded box whose 8192 vertices need 23 chunks of their own
    problems = (
        (BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0]), example_target, 400_000),
        (*_seeded_problem(6), 10_000),
    )
    for aux_box, target, samples in problems:
        tracemalloc.start()
        try:
            estimate_constants(aux_box, target, samples=samples, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * _CHUNK_BYTES, f"n = {target.n}: peak {peak} bytes"


def test_crude_bound_holds_on_the_benchmark(bench_run, bench_constants):
    cfg, traj = bench_run
    report = crude_bound_audit(traj, cfg, bench_constants)
    assert report["pass"]
    assert report["alpha_required"] <= bench_constants.alpha_bar


def test_crude_bound_flags_an_impossible_constant(bench_run):
    cfg, traj = bench_run
    report = crude_bound_audit(traj, cfg, ConstantsEstimate(0.0, 0.0, 1, 0))
    assert not report["pass"]
    assert report["alpha_required"] > 0.0


# ---------------------------------------------------------------------------
# pole audit, gain bound, tracking


def test_pole_audit_passes_and_detects_corruption(bench_run):
    cfg, traj = bench_run
    assert pole_placement_audit(traj, cfg)["pass"]

    broken = dataclasses.replace(traj, gains=traj.gains * 1.01)
    report = pole_placement_audit(broken, cfg)
    assert not report["pass"]
    assert report["max_coeff_err"] > 1e-3


def test_pole_audit_flags_a_non_finite_row_and_a_single_nudged_gain(bench_run):
    cfg, traj = bench_run
    nan_row = traj.gains.copy()
    nan_row[10, 0] = np.nan
    inf_row = traj.gains.copy()
    inf_row[20, 1] = np.inf
    nudged = traj.gains.copy()
    nudged[317, 2] += 1e-6  # one row of 600, by a millionth
    for gains in (nan_row, inf_row, nudged, traj.gains * 1.01):
        report = pole_placement_audit(dataclasses.replace(traj, gains=gains), cfg)
        assert report["violations"] >= 1
        assert not report["pass"]
    report = pole_placement_audit(dataclasses.replace(traj, gains=nudged), cfg)
    assert report["max_coeff_err"] > 1e-7


@pytest.fixture(scope="module")
def golden_run():
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    with open(os.path.join(ROOT, "out", "benchmark", "trajectory.csv"), encoding="ascii") as fh:
        return cfg, Trajectory.from_csv(fh.read(), cfg)


def test_golden_residual_column_is_the_pole_audits_own_error(golden_run):
    # the logged column and the audit read the same evaluation of the identity
    cfg, traj = golden_run
    *_, r = _design_identity(traj.theta_hat, traj.gains, cfg.target)
    own = np.abs(r).max(axis=1)
    assert np.array_equal(traj.dioph_residual.view(np.uint64), own.view(np.uint64))
    report = pole_placement_audit(traj, cfg)
    assert report["violations"] == 0
    assert report["max_residual"] == own.max()
    assert np.all(traj.dioph_residual <= report["max_coeff_err"])


@pytest.mark.parametrize("bad", [1e-3, np.nan])
def test_pole_audit_residual_check_fires_on_its_own(golden_run, bad):
    # only the logged column is bent, so eps and the Rouche radius still pass
    cfg, traj = golden_run
    clean = pole_placement_audit(traj, cfg)
    assert clean["violations"] == 0
    column = traj.dioph_residual.copy()
    column[1234] = bad
    report = pole_placement_audit(dataclasses.replace(traj, dioph_residual=column), cfg)
    assert report["violations"] == 1
    assert report["max_coeff_err"] == clean["max_coeff_err"] <= AUDIT_TOL
    assert report["rouche_margin"] == clean["rouche_margin"]
    assert np.array_equal(report["max_residual"], bad, equal_nan=True)


def test_pole_audit_certifies_the_decay_radius(bench_run):
    cfg, traj = bench_run
    report = pole_placement_audit(traj, cfg)
    assert report["lambda"] == 0.8
    # a proven lower bound just under the exact minimum lam^4 (lam - 0.6)
    assert 0.99 * 0.8**4 * 0.2 < report["rouche_margin"] < 0.8**4 * 0.2
    assert report["max_coeff_err"] * sum(0.8**j for j in range(5)) < report["rouche_margin"]
    assert report["violations"] == 0


def test_pole_audit_fails_the_radius_check_past_the_rouche_margin(bench_run):
    cfg, traj = bench_run
    assert cfg.decay_rate() == 0.8
    sum_powers = sum(0.8**j for j in range(5))
    margin = pole_placement_audit(traj, cfg)["rouche_margin"]
    # scaling one gain row by 1 + d moves its coefficient error by d M x, and
    # M x = Astar - Abar up to rounding: put eps just under and just over
    # margin / sum lam^j, both far past AUDIT_TOL, which is one violation
    rhs = design_rhs(traj.theta_hat[5], cfg.target.lifted_coeffs(), 2)
    counts = []
    for factor in (0.5, 2.0):
        scaled = traj.gains.copy()
        scaled[5] *= 1.0 + factor * margin / sum_powers / np.abs(rhs).max()
        report = pole_placement_audit(dataclasses.replace(traj, gains=scaled), cfg)
        assert report["max_coeff_err"] > AUDIT_TOL
        counts.append((report["max_coeff_err"] * sum_powers >= margin, report["violations"]))
    assert counts == [(False, 1), (True, 2)]
    # finer samples certify a radius a millionth above the target pole; one
    # closer than the finest 2^20 arcs resolve leaves no certifiable margin
    assert pole_placement_audit(traj, dataclasses.replace(cfg, lam=0.6 + 1e-6))["violations"] == 0
    report = pole_placement_audit(traj, dataclasses.replace(cfg, lam=0.6 + 1e-9))
    assert report["violations"] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rouche_margin_is_a_lower_bound_on_the_circle(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(5):
        roots = rng.uniform(0.3, 0.7, n) * np.exp(1j * rng.uniform(0.0, np.pi, n))
        coeffs = np.real(np.poly(np.concatenate((roots, roots.conj()))))
        target = TargetPolynomial(coeffs, n)
        lam = rng.uniform(target.decay_floor() + 0.05, 0.99)
        z = lam * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 400_001))
        lifted = np.polyval(target.lifted_coeffs(), z)
        dense = np.abs(lifted).min()
        margin = _rouche_margin(target, lam)
        assert 0.0 < margin <= dense
        assert margin > 0.5 * dense


@pytest.mark.parametrize("power", [2, 3])
def test_pole_audit_certifies_a_repeated_pole_near_the_circle(power):
    # (1 - 0.9 z^-1)^power at the default decay rate 0.95: min |q| on the
    # circle is 0.05^power, below the slack of the first 2^11 samples
    cfg = dataclasses.replace(_seeded_cfg(1), target=TargetPolynomial(np.poly([0.9] * power), 1))
    lam = cfg.decay_rate()
    assert lam == pytest.approx(0.95, rel=1e-5)
    z = lam * np.exp(1j * np.linspace(0.0, np.pi, 400_001))
    dense = np.abs(np.polyval(cfg.target.lifted_coeffs(), z)).min()
    margin = _rouche_margin(cfg.target, lam)
    assert 0.4 * dense < margin <= dense
    report = pole_placement_audit(run_closed_loop(cfg), cfg)
    assert report["pass"]
    assert report["rouche_margin"] == margin


def test_gain_bound_is_a_certified_envelope(bench_run):
    cfg, traj = bench_run
    fit = gain_bound_fit(traj, cfg)
    assert fit["gamma"] > 0.0 and fit["lambda"] == 0.8
    # recompute the bound independently and check it dominates ||phi(t)||
    phi_norm = np.linalg.norm(_phi_history(traj.y, traj.u, cfg.phi0, cfg.n), axis=1)
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


def test_gain_bound_fit_reads_the_update_laws_mu(example_config):
    # the ideal law has no regularizer, so its envelope carries no sqrt(mu)
    # floor: with r = w = 0 it is ||phi0|| lam^t alone, however large mu is
    zero = SignalSpec("constant", magnitude=0.0)
    cfg = example_config(estimator_mode="ideal", mu=1.0, reference=zero, disturbance=zero, horizon=600)
    traj = run_closed_loop(cfg)
    y_hist, u_hist = cfg.phi0[:3], cfg.phi0[3:]
    ratios = []
    for i in range(traj.steps):
        if i > 0:
            y_hist = np.concatenate(([traj.y[i]], y_hist[:-1]))
            u_hist = np.concatenate(([traj.u[i]], u_hist[:-1]))
        ratios.append(np.linalg.norm(np.concatenate((y_hist, u_hist))) / (np.linalg.norm(cfg.phi0) * 0.8**i))
    fit = gain_bound_fit(traj, cfg)
    assert fit["gamma"] == pytest.approx(max(ratios), rel=1e-12)
    assert 300.0 < fit["gamma"] < 350.0


def test_gain_bound_on_an_equilibrium_run_is_zero(example_config):
    cfg = example_config(
        phi0=np.zeros(6),
        reference=SignalSpec("constant", magnitude=0.0),
        disturbance=SignalSpec("constant", magnitude=0.0),
        horizon=40,
    )
    fit = gain_bound_fit(run_closed_loop(cfg), cfg)
    assert fit["gamma"] == 0.0
    assert fit["residual_floor"] == 0.0


def test_tracking_audit_contract(example_config):
    cfg = example_config(
        reference=SignalSpec("constant", magnitude=2.0),
        disturbance=SignalSpec("constant", magnitude=0.5),
        horizon=400,
    )
    traj = run_closed_loop(cfg)
    assert cfg.tracking_tail == 100
    report = tracking_audit(traj, cfg, None)
    assert report["pass"]
    assert report["tail_max_error"] <= 1e-8  # the loop converges onto the set-point

    flip_cfg = example_config(horizon=400)
    with pytest.raises(ValueError, match="constant"):
        tracking_audit(run_closed_loop(flip_cfg), flip_cfg, None)
    with pytest.raises(ValueError, match="tracking_tail"):
        example_config(tracking_tail=0)
    with pytest.raises(ValueError, match="short"):
        tracking_audit(traj, dataclasses.replace(cfg, tracking_tail=300), None)


def test_gain_bound_reads_the_tracking_tail(example_config):
    # both tail errors cover the final tracking_tail steps; this run's
    # largest error over the final 75 steps lies outside the final 20
    cfg = example_config(
        reference=SignalSpec("constant", magnitude=1.0),
        disturbance=SignalSpec("constant", magnitude=0.5),
        horizon=300,
        tracking_tail=20,
    )
    traj = run_closed_loop(cfg)
    tail = tracking_audit(traj, cfg, None)["tail_max_error"]
    assert gain_bound_fit(traj, cfg)["tail_tracking"] == tail == np.abs(traj.ybar[-20:]).max()
    assert tail != np.abs(traj.ybar[-75:]).max()


# ---------------------------------------------------------------------------
# audit orchestration


def test_run_audits_returns_all_requested_sections(bench_run, bench_constants):
    cfg, traj = bench_run
    audits = ("estimator", "recursion", "poles", "crude_bound")
    results = run_audits(traj, dataclasses.replace(cfg, audits=audits), bench_constants)
    assert set(results) == {"estimator", "recursion", "poles", "crude_bound"}
    for res in results.values():
        assert res["pass"] and res["violations"] == 0


def test_audits_cannot_be_handed_an_invalid_config():
    # mu = 0 is refused where the config is built, before an audit can read it
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    cfg = dataclasses.replace(cfg, horizon=50, tracking_tail=25)
    traj = run_closed_loop(cfg)
    with pytest.raises(ValueError, match="mu must be positive"):
        run_audits(traj, dataclasses.replace(cfg, mu=0.0))


def test_run_audits_needs_constants_for_the_crude_bound(bench_run):
    cfg, traj = bench_run
    with pytest.raises(ValueError, match="constants"):
        run_audits(traj, dataclasses.replace(cfg, audits=("crude_bound",)))


def test_run_audits_tracking_section(example_config):
    cfg = example_config(
        reference=SignalSpec("constant", magnitude=2.0),
        disturbance=SignalSpec("constant", magnitude=0.5),
        horizon=300,
        tracking_tail=50,
        audits=("tracking",),
    )
    traj = run_closed_loop(cfg)
    results = run_audits(traj, cfg)
    assert results["tracking"]["pass"]
    assert results["tracking"]["tail_max_error"] <= 1e-8


# ---------------------------------------------------------------------------
# the Monte Carlo sweep


def test_sweep_single_draw_equals_a_plain_run(example_config):
    cfg = example_config(
        horizon=200, audits=("estimator", "recursion", "poles", "crude_bound"), alpha_samples=2_000
    )
    reports = monte_carlo_sweep(cfg, draws=1)
    assert len(reports) == 1
    rep = reports[0]
    direct = gain_bound_fit(run_closed_loop(cfg), cfg)
    assert rep.gamma == direct["gamma"]
    assert rep.violations == 0 and not rep.aborted
    assert rep.mu == cfg.mu and rep.draw == 0


def test_sweep_randomization_is_reproducible(example_config):
    cfg = example_config(horizon=120, audits=("estimator", "recursion", "poles"), alpha_samples=1_000)
    overrides = {"theta": True, "theta0": True, "mu": (1e-6, 1.0), "phi0": 5.0}
    kw = dict(draws=6, seed=11, overrides=overrides)
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
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        monte_carlo_sweep(cfg, draws=1, seed=-1)
    for mu_range in ((0.0, 1.0), (1.0, 0.5), (1e-3, np.inf)):
        with pytest.raises(ValueError, match=r"^overrides\.mu must be \[lo, hi\] with finite 0 < lo <= hi"):
            monte_carlo_sweep(cfg, draws=1, overrides={"mu": mu_range})
    for scale in (-5.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^overrides\.phi0 must be a finite scale >= 0"):
            monte_carlo_sweep(cfg, draws=1, overrides={"phi0": scale})


def test_sweep_collects_aborted_draws_instead_of_dying():
    cfg = dataclasses.replace(_first_order_cfg(0.0), audits=("recursion", "poles"))
    reports = monte_carlo_sweep(cfg, draws=2)
    assert len(reports) == 2
    assert all(r.aborted for r in reports)
    assert all(np.isnan(r.gamma) for r in reports)


def test_sweep_refuses_a_tracking_window_before_sampling_the_constants(example_config, monkeypatch):
    # a sweep horizon of 150 cannot hold the final 2 * 100 steps the tracking audit reads
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_constants ran")

    monkeypatch.setattr(simulation, "estimate_constants", refuse)
    cfg = example_config(horizon=400, audits=("crude_bound", "tracking"), tracking_tail=100, alpha_samples=500)
    with pytest.raises(ValueError, match="^tracking_tail must be at most horizon / 2 .* horizon = 150$"):
        monte_carlo_sweep(cfg, draws=1, horizon=150)


def test_sweep_horizon_override(example_config):
    cfg = example_config(horizon=400, audits=("recursion",))
    reports = monte_carlo_sweep(cfg, draws=1, horizon=80)
    assert len(reports) == 1 and not reports[0].aborted
