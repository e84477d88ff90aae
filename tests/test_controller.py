"""Pole-placement design, gain application, and the closed-loop recursion."""

import numpy as np
import pytest

from adaptive_pp import (
    BoxSet,
    SingularSylvesterError,
    TargetPolynomial,
    closed_loop_matrix,
    image_box,
    solve_diophantine,
    solve_diophantine_batch,
    state_recursion_audit,
)

BENCH_TARGET = TargetPolynomial([1.0, -0.6], 2)
BENCH_THETA0 = np.array([0.0, -1.0, 2.0, -0.5, -4.0])


def _identity_lhs(theta: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Abar L + B P through polynomial products, with L and P read from the gain row."""
    n = (theta.size - 1) // 2
    abar = np.concatenate(([1.0], -theta[: n + 1]))
    b_poly = np.concatenate(([0.0], theta[n + 1 :]))
    L = np.concatenate(([1.0], -K[n + 1 :]))
    P = np.concatenate(([0.0], -K[: n + 1]))
    return np.convolve(abar, L) + np.convolve(b_poly, P)


# ---------------------------------------------------------------------------
# target validation


def test_target_accepts_the_benchmark_choice():
    assert BENCH_TARGET.dim == 5
    np.testing.assert_array_equal(BENCH_TARGET.lifted_coeffs(), [1.0, -0.6, 0, 0, 0, 0])
    # exact, not approximate: the golden decay rate 0.8 = (0.6 + 1) / 2 rests on it
    assert BENCH_TARGET.decay_floor() == 0.6


def test_target_rejects_bad_polynomials():
    with pytest.raises(ValueError, match="monic"):
        TargetPolynomial([2.0, -0.6], 2)
    with pytest.raises(ValueError, match="degree"):
        TargetPolynomial([1.0, 0, 0, 0, 0, 0, 0.1], 2)  # degree 6 > 5
    with pytest.raises(ValueError, match="stable"):
        TargetPolynomial([1.0, -1.1], 2)  # pole at 1.1
    with pytest.raises(ValueError, match="stable"):
        TargetPolynomial([1.0, -1.0], 1)  # pole on the circle
    with pytest.raises(ValueError, match="n must"):
        TargetPolynomial([1.0, -0.5], 0)


# ---------------------------------------------------------------------------
# the design solve


def test_first_order_design_reads_off_the_coefficients():
    # With abarhat = [0, 0] and bhat = [1] the identity collapses to
    # L + q P = Astar, so L and P are the target's own coefficients.
    target = TargetPolynomial([1.0, 0.3, -0.1, 0.05], 1)
    K, residual = solve_diophantine(np.array([0.0, 0.0, 1.0]), target)
    # K = [-p_1, -p_2, -l_1] with L = 1 + 0.3 q and P = -0.1 q + 0.05 q^2
    np.testing.assert_allclose(K, [0.1, -0.05, -0.3], atol=1e-14)
    assert residual <= 1e-14


def test_design_solves_the_identity_at_the_benchmark_start():
    K, residual = solve_diophantine(BENCH_THETA0, BENCH_TARGET)
    # independent reconstruction through polynomial products
    combo = _identity_lhs(BENCH_THETA0, K)
    np.testing.assert_allclose(combo, BENCH_TARGET.lifted_coeffs(), atol=1e-12)
    assert residual <= 1e-12
    batch = solve_diophantine_batch(BENCH_THETA0[None], BENCH_TARGET.lifted_coeffs(), 2)
    assert batch.margins[0] > 1e-6


def test_design_identity_holds_across_the_uncertainty_box(example_box, example_target):
    rng = np.random.default_rng(17)
    aux_box = image_box(example_box, 2)
    lifted = example_target.lifted_coeffs()
    worst = 0.0
    for vec in aux_box.sample(rng, 300):
        try:
            K, residual = solve_diophantine(vec, example_target)
        except SingularSylvesterError:
            continue
        combo = _identity_lhs(vec, K)
        worst = max(worst, float(np.abs(combo - lifted).max()), residual)
    assert worst <= 1e-9


def test_design_raises_on_a_vanishing_numerator():
    theta = np.array([0.5, -1.0, 1.5, 0.0, 0.0])
    with pytest.raises(SingularSylvesterError) as exc:
        solve_diophantine(theta, BENCH_TARGET)
    err = exc.value
    assert err.margin <= err.threshold
    assert err.rcond < 1e-12
    np.testing.assert_array_equal(err.theta_hat, theta)
    assert err.step is None


def test_design_raises_on_a_shared_factor():
    # abar = (1 - q)(1 + 0.5q + 1.5q^2), bhat = q(1 - q)  -> common root
    theta = np.array([0.5, -1.0, 1.5, 1.0, -1.0])
    with pytest.raises(SingularSylvesterError):
        solve_diophantine(theta, BENCH_TARGET)


def test_design_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_diophantine(np.zeros(4), BENCH_TARGET)
    with pytest.raises(ValueError):
        solve_diophantine(np.zeros((1, 5)), BENCH_TARGET)


def test_batched_design_is_a_stack_of_single_solves(example_box):
    rng = np.random.default_rng(41)
    thetas = image_box(example_box, 2).sample(rng, 200)
    thetas[57] = [0.5, -1.0, 1.5, 0.0, 0.0]  # vanishing numerator: singular
    batch = solve_diophantine_batch(thetas, BENCH_TARGET.lifted_coeffs(), 2)
    singles = []
    for vec in thetas:
        try:
            singles.append(solve_diophantine(vec, BENCH_TARGET))
        except SingularSylvesterError:
            singles.append(None)
    np.testing.assert_array_equal(batch.ok, [sol is not None for sol in singles])
    assert not batch.ok[57] and batch.ok.sum() == 199
    solved = [sol for sol in singles if sol is not None]
    assert np.array_equal(batch.gains, np.array([K for K, _ in solved]))
    lifted = BENCH_TARGET.lifted_coeffs()
    residuals = [
        np.abs(_identity_lhs(vec, K) - lifted).max()
        for vec, (K, _) in zip(thetas[batch.ok], solved)
    ]
    assert np.array_equal(residuals, [residual for _, residual in solved])


# ---------------------------------------------------------------------------
# closed-loop matrix and its spectrum


def test_closed_loop_matrix_layout():
    theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    K = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    mat = closed_loop_matrix(theta, K)
    np.testing.assert_array_equal(mat[0], theta)
    np.testing.assert_array_equal(mat[1], [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(mat[2], [0, 1, 0, 0, 0])
    np.testing.assert_array_equal(mat[3], K)
    np.testing.assert_array_equal(mat[4], [0, 0, 0, 1, 0])


def test_closed_loop_matrix_stacks_rows():
    rng = np.random.default_rng(3)
    thetas, gains = rng.normal(size=(2, 7, 5))
    stack = closed_loop_matrix(thetas, gains)
    assert stack.shape == (7, 5, 5)
    for theta, K, mat in zip(thetas, gains, stack):
        np.testing.assert_array_equal(mat, closed_loop_matrix(theta, K))


def test_closed_loop_matrix_validates_lengths():
    with pytest.raises(ValueError):
        closed_loop_matrix(np.zeros(5), np.zeros(3))
    with pytest.raises(ValueError):
        closed_loop_matrix(np.zeros(4), np.zeros(4))


def test_zero_design_is_nilpotent():
    # n = 1, all-zero estimate and gains: the shift structure alone
    mat = closed_loop_matrix(np.zeros(3), np.zeros(3), n=1)
    np.testing.assert_array_equal(np.linalg.matrix_power(mat, 3), np.zeros((3, 3)))


def test_spectrum_matches_the_target_in_coefficient_space():
    rng = np.random.default_rng(29)
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    lifted = BENCH_TARGET.lifted_coeffs()
    for vec in aux_box.sample(rng, 50):
        try:
            K, _ = solve_diophantine(vec, BENCH_TARGET)
        except SingularSylvesterError:
            continue
        mat = closed_loop_matrix(vec, K)
        coeffs = np.poly(np.linalg.eigvals(mat))
        np.testing.assert_allclose(coeffs, lifted, atol=1e-10)


# ---------------------------------------------------------------------------
# recursion audit


def _recursion_rollout(steps: int, seed: int):
    """Roll psi forward by the exact recursion with random innovations."""
    rng = np.random.default_rng(seed)
    theta = np.array([0.3, -0.2, 0.4])
    K, _ = solve_diophantine(theta, TargetPolynomial([1.0, -0.5], 1))
    psi = np.empty((steps, 3))
    e = rng.normal(size=steps)
    psi[0] = rng.normal(size=3)
    mat = closed_loop_matrix(theta, K)
    for t in range(steps - 1):
        psi[t + 1] = mat @ psi[t]
        psi[t + 1, 0] += e[t]
    theta_log = np.tile(theta, (steps, 1))
    gains_log = np.tile(K, (steps, 1))
    return psi, theta_log, gains_log, e


def test_recursion_audit_is_exact_on_generated_data():
    psi, theta_log, gains_log, e = _recursion_rollout(200, 4)
    record = state_recursion_audit(psi, theta_log, gains_log, e)
    assert record["pass"] and record["max_residual"] <= 1e-12


def test_recursion_audit_detects_a_spike():
    psi, theta_log, gains_log, e = _recursion_rollout(200, 4)
    psi = psi.copy()
    psi[100, 1] += 0.5
    record = state_recursion_audit(psi, theta_log, gains_log, e)
    assert not record["pass"] and record["violations"] == 1
    assert record["max_residual"] >= 0.5 - 1e-9


def test_recursion_audit_trivial_cases():
    zeros = np.zeros((1, 3))
    record = state_recursion_audit(zeros, zeros, zeros, np.zeros(1))
    assert record == {"violations": 0, "pass": True, "max_residual": 0.0}
