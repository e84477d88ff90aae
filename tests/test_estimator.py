"""Projection estimator updates and the energy-inequality audit."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptive_pp
from adaptive_pp import AUDIT_TOL, BoxSet, estimator_audit, projection_step

BENCH_AUX_BOX = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])


# ---------------------------------------------------------------------------
# projection


def _project(x) -> np.ndarray:
    """The projection alone: a classical step on a zero regressor moves nothing, then clips into the box."""
    return projection_step(np.array(x, dtype=float), np.zeros(5), 0.0, 1.0, BENCH_AUX_BOX)[0]


def test_projection_clamps_coordinatewise():
    out = _project([2.0, 0.0, 0.0, -0.5, -4.0])
    np.testing.assert_array_equal(out, [1.0, 0.0, 1.0, -0.5, -4.0])


def test_projection_is_identity_inside():
    x = np.array([0.0, -1.0, 2.0, -0.5, -4.0])
    np.testing.assert_array_equal(_project(x), x)


vec5 = st.lists(
    st.floats(-20, 20, allow_nan=False, allow_infinity=False), min_size=5, max_size=5
)


@settings(max_examples=200, deadline=None)
@given(vec5, vec5)
def test_projection_is_nonexpansive_toward_box_points(x, anchor):
    # for any p inside the box, ||proj(x) - p|| <= ||x - p||
    x = np.array(x)
    p = np.clip(anchor, BENCH_AUX_BOX.lo, BENCH_AUX_BOX.hi)
    proj = _project(x)
    assert BENCH_AUX_BOX.contains(proj)
    assert np.linalg.norm(proj - p) <= np.linalg.norm(x - p) + 1e-12


def _projection_step_reference(theta, psi, ybar_next, mu, box):
    """The update with fresh arrays: `np.clip(theta + psi * (e / denom), box.lo, box.hi)`."""
    e = float(ybar_next) - float(psi.dot(theta))
    denom = mu + float(psi.dot(psi))
    if denom == 0.0:
        return theta, e
    return np.clip(theta + psi * (e / denom), box.lo, box.hi), e


def test_projection_step_keeps_the_bits_of_the_fresh_array_update():
    # signed zeros in the estimate, the regressor and the bounds, estimates
    # exactly on a bound, steps that land exactly on one, and NaN entries
    box = BoxSet([-1.0, -0.0, 0.0, -2.0, -0.0], [1.0, 0.0, 3.0, -0.0, 0.5])
    rng = np.random.default_rng(7)
    cases = [
        (np.array([1.0, -0.0, 0.0, -0.0, 0.5]), np.array([1.0, 2.0, -0.0, 0.0, -1.0]), 3.0),
        (np.array([-1.0, 0.0, 3.0, -2.0, -0.0]), np.array([-0.0, 0.0, 0.0, -0.0, 0.0]), 0.0),
        (np.array([0.0, -0.0, 0.0, -0.0, 0.0]), np.array([0.0, 1.0, -1.0, 1.0, 1.0]), -0.0),
        (np.array([0.5, -0.0, 1.0, -1.0, 0.25]), np.array([0.0, 0.0, 0.0, 0.0, 0.25]), 0.3125),
        (np.array([0.5, np.nan, 1.0, -1.0, 0.25]), np.array([1.0, 0.5, 0.0, 0.0, 0.25]), 1.0),
        (np.array([0.5, -0.0, 1.0, -1.0, 0.25]), np.array([1.0, np.nan, 0.0, 0.0, 0.25]), 1.0),
        (np.array([0.5, -0.0, 1.0, -1.0, 0.25]), np.array([1.0, -0.0, 0.0, 0.0, 0.25]), np.nan),
    ]
    # NaNs with two payloads at one entry: where the hardware propagates a
    # payload, the sum keeps the estimate's, as `theta + step` does
    theta, psi = np.array([0.5, -0.0, 1.0, -1.0, 0.25]), np.array([1.0, 0.5, 0.0, 0.0, 0.25])
    theta[2], psi[2] = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)
    cases.append((theta, psi, 1.0))
    cases += [(np.clip(rng.uniform(-3, 3, 5), box.lo, box.hi), rng.uniform(-2, 2, 5) * (rng.random(5) < 0.6), rng.normal()) for _ in range(300)]
    for theta, psi, ybar in cases:
        for mu in (0.0, 1e-3, 0.1):
            got, e_got = projection_step(theta, psi, ybar, mu, box)
            want, e_want = _projection_step_reference(theta, psi, ybar, mu, box)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.float64(e_got).view(np.uint64) == np.float64(e_want).view(np.uint64)
            assert got is not psi and (got is theta) == (want is theta)


# ---------------------------------------------------------------------------
# update laws


def test_classical_update_by_hand():
    box = BoxSet([-1.0] * 3, [1.0] * 3)
    psi = np.array([1.0, 2.0, 0.0])
    # e = 1 - 0.5 = 0.5, denom = 0.5 + 5 = 5.5, step = psi / 11
    new, e = projection_step(np.array([0.5, 0.0, 0.0]), psi, 1.0, 0.5, box)
    np.testing.assert_allclose(new, [0.5 + 1 / 11, 2 / 11, 0.0], atol=1e-15)
    assert e == pytest.approx(0.5, abs=1e-15)


def test_classical_update_clips_to_the_box():
    box = BoxSet([-1.0] * 3, [1.0] * 3)
    new, _ = projection_step(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 10.0, 1.0, box)
    # the raw step lands at 5.5 and must be clamped back to the face
    np.testing.assert_array_equal(new, [1.0, 0.0, 0.0])


def test_ideal_update_interpolates_and_freezes():
    box = BoxSet([-10.0] * 3, [10.0] * 3)
    psi = np.array([1.0, 2.0, 2.0])
    new, _ = projection_step(np.array([0.5, 0.0, 0.0]), psi, 3.0, 0.0, box)
    # wide box: no clipping, so the new estimate reproduces the observation
    assert 3.0 - psi @ new == pytest.approx(0.0, abs=1e-12)
    frozen, e = projection_step(new, np.zeros(3), 123.0, 0.0, box)
    np.testing.assert_array_equal(frozen, new)
    assert e == 123.0


@settings(max_examples=200, deadline=None)
@given(
    vec5,
    vec5,
    st.floats(-10, 10, allow_nan=False),
    st.floats(min_value=1e-6, max_value=10.0),
)
def test_update_keeps_membership_and_respects_the_step_cap(start, psi, ybar_next, mu):
    theta = np.clip(start, BENCH_AUX_BOX.lo, BENCH_AUX_BOX.hi)
    psi = np.array(psi)
    new, e = projection_step(theta, psi, ybar_next, mu, BENCH_AUX_BOX)
    assert BENCH_AUX_BOX.contains(new, tol=1e-12)
    assert e == ybar_next - psi @ theta
    norm = np.linalg.norm(psi)
    if norm > 0.0:
        assert np.linalg.norm(new - theta) <= abs(e) / norm + 1e-9


# ---------------------------------------------------------------------------
# the audit as a theorem on generated data


def _audit(psi, e, wbar, theta_hat, theta_star, mu) -> dict:
    """`estimator_audit` on a stand-in trajectory and config that hold these arrays and this mu."""
    traj = SimpleNamespace(psi=psi, e=e, wbar=wbar, theta_hat=theta_hat)
    cfg = SimpleNamespace(theta_star=lambda: theta_star, law_mu=lambda: mu)
    return estimator_audit(traj, cfg, None)


def _synthetic_run(mode: str, mu: float, steps: int, seed: int, zero_psi_every: int = 0):
    """Drive the update law on synthetic data; return the audit arrays."""
    rng = np.random.default_rng(seed)
    box = BENCH_AUX_BOX
    theta_star = box.sample(rng)
    theta = box.sample(rng)
    law_mu = mu if mode == "classical" else 0.0

    psi_log = np.empty((steps, box.dim))
    e_log = np.empty(steps)
    wbar_log = np.empty(steps)
    theta_log = np.empty((steps, box.dim))
    for t in range(steps):
        psi = rng.normal(scale=2.0, size=box.dim)
        if zero_psi_every and t % zero_psi_every == 0:
            psi = np.zeros(box.dim)
        wbar = float(rng.normal(scale=0.1))
        ybar_next = float(psi @ theta_star) + wbar
        theta_log[t] = theta
        psi_log[t] = psi
        wbar_log[t] = wbar
        theta, e_log[t] = projection_step(theta, psi, ybar_next, law_mu, box)
    return psi_log, e_log, wbar_log, theta_log, theta_star


@pytest.mark.parametrize(
    "mode,mu,zero_every",
    [("classical", 0.1, 0), ("classical", 1e-4, 0), ("ideal", 0.0, 7)],
)
def test_audit_passes_on_faithfully_generated_data(mode, mu, zero_every):
    psi, e, wbar, theta_hat, theta_star = _synthetic_run(mode, mu, 400, 42, zero_every)
    audit = _audit(psi, e, wbar, theta_hat, theta_star, mu)
    assert audit["pass"], audit
    assert audit["violations"] == 0
    assert audit["pairs_checked"] > 400
    # slacks can graze zero from rounding but never sink below the tolerance
    assert audit["min_slack_energy"] > -AUDIT_TOL
    assert audit["min_slack_interval"] > -AUDIT_TOL


def _fsum_windows(v, d):
    """Loop reference: worst v[tau] - v[tau+L] + sum(d[tau:tau+L]) over dyadic L, by math.fsum."""
    worst, pairs, lag = math.inf, 0, 1
    while lag < len(v):
        for tau in range(len(v) - lag):
            worst = min(worst, math.fsum([v[tau], -v[tau + lag], *d[tau : tau + lag]]))
            pairs += 1
        lag *= 2
    return worst, pairs


@pytest.mark.parametrize("mode,mu,zero_every", [("classical", 0.5, 0), ("ideal", 0.0, 7)])
def test_audit_matches_a_per_record_reference(mode, mu, zero_every):
    # the window sums are added in another order than a per-window fsum, so
    # the worst slacks agree to a tolerance; the step cap is the same arithmetic.
    # Every squared norm is the audit's elementwise einsum on one record, which
    # no BLAS kernel computes
    psi, e, wbar, theta_hat, theta_star = _synthetic_run(mode, mu, 90, 5, zero_every)
    audit = _audit(psi, e, wbar, theta_hat, theta_star, mu)
    square = lambda x: float(np.einsum("ij,ij->i", x[None], x[None])[0])  # noqa: E731
    v = [square(x) for x in theta_hat - theta_star]
    psi_sq = [square(p) for p in psi]
    d = [(-0.5 * e[t] ** 2 + 2 * wbar[t] ** 2) / (mu + psi_sq[t]) if mu + psi_sq[t] else 0.0
         for t in range(len(v) - 1)]
    energy, pairs = _fsum_windows(v, d)
    interval, excess = math.inf, -math.inf
    active = [0.0 < q and mu <= q for q in psi_sq] + [False]
    start = None
    for t, on in enumerate(active):
        if on and start is None:
            start = t
        if not on and start is not None:
            d = [(-0.25 * e[j] ** 2 + 2 * wbar[j] ** 2) / psi_sq[j] for j in range(start, t - 1)]
            worst, count = _fsum_windows(v[start:t], d)
            interval, pairs, start = min(interval, worst), pairs + count, None
        if on and t + 1 < len(v):
            step = np.sqrt(square(theta_hat[t + 1] - theta_hat[t]))
            excess = max(excess, step - abs(e[t]) / np.sqrt(psi_sq[t]))
    assert audit["pass"] and audit["pairs_checked"] == pairs
    assert audit["min_slack_energy"] == pytest.approx(energy, abs=1e-12)
    assert audit["min_slack_interval"] == pytest.approx(interval, abs=1e-12)
    assert audit["max_step_excess"] == excess


# the audit of a seeded random log, as the bits of its max_step_excess
_STEP_EXCESS = """
from types import SimpleNamespace
import numpy as np
from adaptive_pp import estimator_audit

rng = np.random.default_rng(5)
psi, theta_hat = rng.normal(scale=2.0, size=(2, 400, 5))
e, wbar = rng.normal(size=(2, 400))
theta_star = rng.normal(size=5)
traj = SimpleNamespace(psi=psi, e=e, wbar=wbar, theta_hat=theta_hat)
cfg = SimpleNamespace(theta_star=lambda: theta_star, law_mu=lambda: 0.5)
excess = estimator_audit(traj, cfg, None)["max_step_excess"]
bits = int(np.float64(excess).view(np.uint64))
"""


def test_step_cap_does_not_depend_on_the_blas_kernel():
    # the step sizes are an elementwise einsum, so a child process held to
    # OpenBLAS's Haswell kernels gets the bits of this process
    src = os.path.dirname(os.path.dirname(adaptive_pp.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _STEP_EXCESS + "print(bits)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    scope = {}
    exec(_STEP_EXCESS, scope)
    assert np.isfinite(scope["excess"])
    assert int(child.stdout) == scope["bits"]


def test_audit_flags_a_corrupted_estimate_trail():
    psi, e, wbar, theta_hat, theta_star = _synthetic_run("classical", 0.1, 200, 3)
    theta_hat = theta_hat.copy()
    theta_hat[120] += 1.0  # an update no projection law could have produced
    audit = _audit(psi, e, wbar, theta_hat, theta_star, 0.1)
    assert not audit["pass"]
    assert audit["min_slack_energy"] < -AUDIT_TOL and audit["min_slack_interval"] < -AUDIT_TOL
    # the bent estimate makes at most two steps exceed the cap; the rest are window slacks
    assert audit["violations"] > 2


def test_audit_flags_a_step_longer_than_the_cap():
    # halving one recorded error leaves the energy decrease intact but makes
    # the step that error drove exceed |e| / ||psi||
    psi, e, wbar, theta_hat, theta_star = _synthetic_run("classical", 0.1, 200, 3)
    e = e.copy()
    e[120] *= 0.5
    audit = _audit(psi, e, wbar, theta_hat, theta_star, 0.1)
    assert audit["violations"] == 1
    assert audit["min_slack_energy"] >= -AUDIT_TOL and audit["min_slack_interval"] >= -AUDIT_TOL
    assert audit["max_step_excess"] > AUDIT_TOL


def test_audit_flags_the_wrong_regularizer():
    # auditing mu-regularized data against the sharper mu = 0 law must fail:
    # the recorded steps are smaller than an interpolating update, but the
    # recorded errors then violate the ideal-law energy decrease
    psi, e, wbar, theta_hat, theta_star = _synthetic_run("classical", 10.0, 300, 9)
    wrong = _audit(psi, e, np.zeros_like(wbar), theta_hat, theta_star, 0.0)
    right = _audit(psi, e, wbar, theta_hat, theta_star, 10.0)
    assert right["pass"]
    assert not wrong["pass"]


@pytest.mark.parametrize("mu", [-0.1, float("nan"), float("inf")])
def test_audit_rejects_a_regularizer_outside_zero_to_infinity(mu):
    psi, e, wbar, theta_hat, theta_star = _synthetic_run("classical", 0.1, 10, 1)
    with pytest.raises(ValueError, match="mu"):
        _audit(psi, e, wbar, theta_hat, theta_star, mu)


def test_audit_rejects_mismatched_lengths():
    psi, e, wbar, theta_hat, _ = _synthetic_run("classical", 0.1, 10, 1)
    with pytest.raises(ValueError):
        _audit(psi, e[:-1], wbar, theta_hat, np.zeros(5), 0.1)


def test_audit_handles_short_and_empty_logs():
    dim = 5
    empty = _audit(np.empty((0, dim)), np.empty(0), np.empty(0), np.empty((0, dim)), np.zeros(dim), 0.1)
    assert empty["pass"] and empty["pairs_checked"] == 0
    one = _audit(np.ones((1, dim)), np.ones(1), np.zeros(1), np.zeros((1, dim)), np.zeros(dim), 0.1)
    assert one["pass"]
