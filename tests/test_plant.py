"""Plant recursion, incremental reparameterization, and box machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_pp import (
    BoxSet,
    PlantParameters,
    SignalSpec,
    aux_transform,
    image_box,
    run_closed_loop,
    sylvester_coeffs,
)
from adaptive_pp.simulation import _chunk_rows

# ---------------------------------------------------------------------------
# BoxSet


def test_box_basic_geometry():
    box = BoxSet([0.0, -1.0], [2.0, 1.0])
    assert box.dim == 2
    np.testing.assert_array_equal(box.width, [2.0, 2.0])
    assert box.diameter() == pytest.approx(np.sqrt(8.0), abs=1e-15)
    assert box.contains([1.0, 0.5])
    assert not box.contains([3.0, 0.0])
    assert box.contains([2.0 + 1e-12, 0.0], tol=1e-9)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: BoxSet(v, np.ones(2)), "lo"),
        (lambda v: PlantParameters(v, np.ones(2)), "a"),
        (lambda v: SignalSpec("custom", values=v), "values"),
    ],
    ids=["BoxSet", "PlantParameters", "SignalSpec"],
)
def test_constructors_copy_the_callers_array(build, field):
    caller = np.zeros(2)
    obj = build(caller)
    assert caller.flags.writeable
    caller[0] = 1.0
    kept = getattr(obj, field)
    assert kept[0] == 0.0 and not kept.flags.writeable


def test_box_vertices_and_samples():
    box = BoxSet([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    verts = np.array(list(box.vertices()))
    assert verts.shape == (8, 3)
    assert {tuple(v) for v in verts} == {tuple(map(float, v)) for v in np.ndindex(2, 2, 2)}
    rng = np.random.default_rng(0)
    one = box.sample(rng)
    many = box.sample(rng, 10)
    assert one.shape == (3,) and many.shape == (10, 3)
    assert box.contains(one) and all(box.contains(row) for row in many)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_box_samples_are_the_bits_of_rng_uniform(n):
    # one generator stream through sample, a twin through rng.uniform and a
    # third through sample into an entry-major `out`, which it returns: every
    # draw has the same bits, and the generators end in the same state; the
    # box's first coordinate has lo = hi
    rows = _chunk_rows(n)
    draw = np.random.default_rng(20 + n)
    lo = draw.uniform(-3.0, 1.0, 2 * n + 1)
    box = BoxSet(lo, lo + draw.uniform(0.0, 4.0, 2 * n + 1) * (np.arange(2 * n + 1) > 0))
    mine, twin, into = np.random.default_rng(n), np.random.default_rng(n), np.random.default_rng(n)
    entries = np.full((box.dim, rows + 1), np.nan)
    for size in (None, 1, rows, rows + 1):
        got = box.sample(mine, size)
        want = twin.uniform(box.lo, box.hi, None if size is None else (size, box.dim))
        out = entries[:, 0] if size is None else entries[:, :size].T
        assert box.sample(into, size, out=out) is out
        assert got.shape == want.shape == out.shape
        for arr in (got, out):
            np.testing.assert_array_equal(arr.view(np.uint64), want.view(np.uint64))
    assert mine.bit_generator.state == twin.bit_generator.state == into.bit_generator.state


def test_box_rejects_malformed_bounds():
    with pytest.raises(ValueError):
        BoxSet([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        BoxSet([1.0], [0.0])
    with pytest.raises(ValueError):
        BoxSet([0.0], [np.inf])
    with pytest.raises(ValueError, match="widths"):
        BoxSet([-1e308], [1e308])  # finite bounds, but hi - lo overflows


def test_box_bounds_are_frozen():
    box = BoxSet([0.0], [1.0])
    with pytest.raises(ValueError):
        box.lo[0] = -1.0


# ---------------------------------------------------------------------------
# parameterizations and the incremental transform

BENCH_A = np.array([-0.5, -1.5])
BENCH_B = np.array([-0.75, -3.0])


def test_plant_polynomials_have_the_documented_layout():
    # B = -0.75 q - 3 q^2 enters the design unchanged, after Abar's n+2 terms
    theta = PlantParameters(BENCH_A, BENCH_B)
    assert theta.n == 2
    np.testing.assert_array_equal(sylvester_coeffs(aux_transform(theta), 2)[4:], [0.0, -0.75, -3.0])
    assert theta.b_at_one() == pytest.approx(-3.75, abs=1e-15)
    np.testing.assert_array_equal(theta.vector, [-0.5, -1.5, -0.75, -3.0])


def test_benchmark_incremental_parameters():
    theta_star = aux_transform(PlantParameters(BENCH_A, BENCH_B))
    np.testing.assert_allclose(theta_star[:3], [0.5, -1.0, 1.5], atol=1e-15)
    np.testing.assert_allclose(theta_star[3:], BENCH_B, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5))
def test_abar_coefficients_always_sum_to_one(a):
    # multiplying by (1 - q) keeps the value at q = 1 equal to A(1) + ...;
    # concretely the incremental denominator coefficients telescope to 1
    theta = PlantParameters(np.array(a), np.ones(len(a)))
    assert aux_transform(theta)[: len(a) + 1].sum() == pytest.approx(1.0, abs=1e-9)


def test_incremental_poly_is_the_product_with_one_minus_q():
    # abar = (1 - q) A for random plants of several orders
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5):
        theta = PlantParameters(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        a_poly = np.concatenate(([1.0], -theta.a))
        product = np.convolve(a_poly, [1.0, -1.0])
        np.testing.assert_allclose(
            sylvester_coeffs(aux_transform(theta), n)[: n + 2], product, atol=1e-15
        )


# ---------------------------------------------------------------------------
# image box


def test_benchmark_image_box_is_exact(example_box):
    img = image_box(example_box, 2)
    np.testing.assert_array_equal(img.lo, [-1.0, -3.0, 1.0, -1.0, -5.0])
    np.testing.assert_array_equal(img.hi, [1.0, 1.0, 3.0, 0.0, -3.0])
    assert img.diameter() == pytest.approx(np.sqrt(29.0), abs=1e-12)


def test_image_box_contains_every_transformed_point():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        lo = rng.uniform(-3, 0, 2 * n)
        box = BoxSet(lo, lo + rng.uniform(0.1, 2, 2 * n))
        img = image_box(box, n)
        for vec in np.vstack((box.sample(rng, 200), np.array(list(box.vertices())))):
            theta = PlantParameters(vec[:n], vec[n:])
            assert img.contains(aux_transform(theta), tol=1e-12)


def test_image_box_bounds_are_attained():
    # per-coordinate tightness: some box point maps onto each face
    box = BoxSet([-2.0, -3.0, -1.0, -5.0], [0.0, -1.0, 0.0, -3.0])
    img = image_box(box, 2)
    attained_lo = np.full(5, np.inf)
    attained_hi = np.full(5, -np.inf)
    for vec in box.vertices():
        point = aux_transform(PlantParameters(vec[:2], vec[2:]))
        attained_lo = np.minimum(attained_lo, point)
        attained_hi = np.maximum(attained_hi, point)
    np.testing.assert_allclose(attained_lo, img.lo, atol=1e-12)
    np.testing.assert_allclose(attained_hi, img.hi, atol=1e-12)


def test_image_box_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        image_box(BoxSet([0.0], [1.0]), 1)


# ---------------------------------------------------------------------------
# standing assumptions


def test_validate_accepts_the_benchmark_plant(example_box):
    PlantParameters(BENCH_A, BENCH_B).validate(example_box)


def test_validate_rejects_zero_dc_gain():
    with pytest.raises(ValueError, match="set-point"):
        PlantParameters([0.5, 0.1], [1.0, -1.0]).validate()


def test_validate_rejects_shared_factor():
    # B = q(1 - 2q) vanishes at q = 1/2, and so does A = 1 - q - 2q^2
    with pytest.raises(ValueError, match="coprime"):
        PlantParameters([1.0, 2.0], [1.0, -2.0]).validate()


def test_validate_rejects_points_outside_the_box(example_box):
    with pytest.raises(ValueError, match="outside"):
        PlantParameters([0.5, -1.5], [-0.75, -3.0]).validate(example_box)


# ---------------------------------------------------------------------------
# the plant recursion


def test_benchmark_first_output_by_hand(example_config):
    # y(1) = a1 y(0) + a2 y(-1) + b1 u(0) + b2 u(-1) + w(0)
    #      = (-0.5)(-1) + (-1.5)(-1) + 0 + 0 + 0.5 = 2.5
    traj = run_closed_loop(example_config(horizon=2))
    assert traj.w[0] == 0.5 and traj.u[0] == 0.0
    assert traj.y[1] == pytest.approx(2.5, abs=1e-15)


def test_benchmark_initial_regressor(example_config):
    # psi(0) = [y(0..-2) - r(0), ubar(0..-1)] with phi0 = [-1, -1, -1, 0, 0, 0], r(0) = 2
    traj = run_closed_loop(example_config(horizon=1))
    np.testing.assert_array_equal(traj.psi[0], [-3.0, -3.0, -3.0, 0.0, 0.0])


def test_incremental_model_reproduces_the_plant():
    # After one warm-up step the incremental identity
    # ybar(t+1) = psi(t)' theta_star + (w(t) - w(t-1)) holds exactly.
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        theta = PlantParameters(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n))
        theta_star = aux_transform(theta)
        r = 1.3
        # raw histories newest first: y(t)..y(t-n) and u(t)..u(t-n)
        y, u = rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1)
        w_prev = None
        for step in range(8):
            psi = np.concatenate((y - r, u[:-1] - u[1:]))
            w_t = float(rng.uniform(-1, 1))
            y_next = float(theta.a @ y[:n] + theta.b @ u[:n]) + w_t
            if w_prev is not None:
                predicted = psi @ theta_star + (w_t - w_prev)
                assert (y_next - r) == pytest.approx(predicted, abs=1e-12)
            y = np.concatenate(([y_next], y[:-1]))
            u = np.concatenate(([rng.uniform(-1, 1)], u[:-1]))
            w_prev = w_t
