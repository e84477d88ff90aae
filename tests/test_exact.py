"""Rational-arithmetic certification of the pole-placement identity."""

from fractions import Fraction

import numpy as np
import pytest

from adaptive_pp import (
    BoxSet,
    TargetPolynomial,
    charpoly_fractions,
    closed_loop_matrix,
    exact_pole_check,
    solve_fraction_system,
    sylvester_matrix,
)
from adaptive_pp.exact import _closed_loop_fractions, _sylvester_fractions

BENCH_TARGET = TargetPolynomial([1.0, -0.6], 2)
BENCH_THETA0 = np.array([0.0, -1.0, 2.0, -0.5, -4.0])


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_charpoly_of_a_triangular_matrix():
    coeffs = charpoly_fractions(np.array([[2.0, 1.0], [0.0, 3.0]]))
    assert coeffs == [Fraction(1), Fraction(-5), Fraction(6)]


def test_charpoly_of_a_companion_matrix():
    # companion of z^3 - 2z^2 + 3z - 4 in controllable form
    comp = np.array([[2.0, -3.0, 4.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    coeffs = charpoly_fractions(comp)
    assert coeffs == [Fraction(1), Fraction(-2), Fraction(3), Fraction(-4)]


def test_charpoly_accepts_prebuilt_fraction_rows():
    rows = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    coeffs = charpoly_fractions(rows)
    assert coeffs == [Fraction(1), Fraction(-5, 6), Fraction(1, 6)]


def test_charpoly_is_exact_where_floats_are_not():
    # 0.1 is not representable in binary; the exact route must use the float's
    # true rational value, so the trace coefficient reproduces it bit for bit
    coeffs = charpoly_fractions(np.array([[0.1]]))
    assert coeffs == [Fraction(1), -Fraction(0.1)]
    assert coeffs[1] != Fraction(1, 10)


# ---------------------------------------------------------------------------
# exact linear solve


def test_fraction_solve_matches_float_solve():
    rng = np.random.default_rng(13)
    m = rng.uniform(-2, 2, size=(5, 5)) + 5 * np.eye(5)
    b = rng.uniform(-2, 2, size=5)
    exact = solve_fraction_system(m, b)
    approx = np.linalg.solve(m, b)
    np.testing.assert_allclose([float(v) for v in exact], approx, atol=1e-12)


def test_fraction_solve_has_zero_residual():
    rng = np.random.default_rng(21)
    m = rng.uniform(-1, 1, size=(4, 4)) + 3 * np.eye(4)
    b = rng.uniform(-1, 1, size=4)
    x = solve_fraction_system(m, b)
    mf = [[Fraction(float(v)) for v in row] for row in m]
    bf = [Fraction(float(v)) for v in b]
    residual = [sum(mf[i][j] * x[j] for j in range(4)) - bf[i] for i in range(4)]
    assert all(r == 0 for r in residual)


def test_fraction_solve_needs_pivoting():
    # leading zero pivot forces a row swap; the system is still regular
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    b = np.array([3.0, 4.0])
    x = solve_fraction_system(m, b)
    assert x == [Fraction(2), Fraction(3)]


def test_fraction_solve_raises_on_singular_systems():
    with pytest.raises(ZeroDivisionError):
        solve_fraction_system(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# exact matrices share the float layouts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_matrices_match_the_float_assembly(n):
    rng = np.random.default_rng(50 + n)
    theta = rng.uniform(-2.0, 2.0, 2 * n + 1)
    gains = rng.uniform(-2.0, 2.0, 2 * n + 1)
    exact_theta = [Fraction(float(v)) for v in theta]
    np.testing.assert_array_equal(
        _sylvester_fractions(exact_theta, n).astype(float), sylvester_matrix(theta, n)
    )
    exact_gains = [Fraction(float(v)) for v in gains]
    np.testing.assert_array_equal(
        _closed_loop_fractions(exact_theta, exact_gains, n).astype(float),
        closed_loop_matrix(theta, gains, n),
    )


# ---------------------------------------------------------------------------
# the end-to-end certificate


def test_certificate_is_exactly_zero_at_the_benchmark_start():
    err = exact_pole_check(BENCH_THETA0, BENCH_TARGET.lifted_coeffs(), 2)
    assert isinstance(err, Fraction)
    assert err == 0


def test_certificate_is_exactly_zero_across_the_box():
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    rng = np.random.default_rng(31)
    for vec in aux_box.sample(rng, 10):
        assert exact_pole_check(vec, BENCH_TARGET.lifted_coeffs(), 2) == 0


def test_certificate_holds_for_any_monic_target():
    # the identity is a theorem for every monic target the solve accepts, so
    # perturbing a placeable coefficient just moves the design along with it
    lifted = BENCH_TARGET.lifted_coeffs().copy()
    lifted[1] += 1e-9
    assert exact_pole_check(BENCH_THETA0, lifted, 2) == 0


def test_certificate_comparison_is_not_vacuous():
    # the leading coefficient is the one thing the design cannot absorb;
    # a deviation there must be reported exactly
    lifted = BENCH_TARGET.lifted_coeffs().copy()
    lifted[0] += 1e-9
    err = exact_pole_check(BENCH_THETA0, lifted, 2)
    assert err != 0
    assert float(err) == pytest.approx(1e-9, rel=1e-3)


def test_certificate_validates_lengths():
    with pytest.raises(ValueError):
        exact_pole_check(BENCH_THETA0[:4], BENCH_TARGET.lifted_coeffs(), 2)
    with pytest.raises(ValueError):
        exact_pole_check(BENCH_THETA0, BENCH_TARGET.lifted_coeffs()[:5], 2)


def test_certificate_raises_cleanly_on_a_singular_design():
    theta = np.array([0.5, -1.0, 1.5, 0.0, 0.0])  # zero numerator
    with pytest.raises(ZeroDivisionError):
        exact_pole_check(theta, BENCH_TARGET.lifted_coeffs(), 2)
