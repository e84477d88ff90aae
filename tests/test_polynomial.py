"""Delay-operator coefficient conventions, target root moduli, and the design matrix."""

import numpy as np
import pytest

from adaptive_pp import (
    PlantParameters,
    TargetPolynomial,
    aux_transform,
    spectral_radius,
    sylvester_coeffs,
    sylvester_margin,
    sylvester_matrix,
    sylvester_rcond,
)

# ---------------------------------------------------------------------------
# target coefficients


def test_coeffs_are_low_first_and_degree_counts_trailing_zeros():
    t = TargetPolynomial([1.0, -0.6, 0.0], 2)
    assert t.coeffs.tolist() == [1.0, -0.6, 0.0]
    np.testing.assert_array_equal(t.lifted_coeffs(), [1.0, -0.6, 0.0, 0.0, 0.0, 0.0])
    # the stored length is the nominal degree: a trailing zero past 2n+1 is refused
    with pytest.raises(ValueError, match="degree 6"):
        TargetPolynomial([1.0, -0.6, 0.0, 0.0, 0.0, 0.0, 0.0], 2)


def test_polynomial_is_immutable():
    source = np.array([1.0, -0.6])
    t = TargetPolynomial(source, 2)
    source[1] = 0.9  # the target keeps its own copy
    assert t.coeffs.tolist() == [1.0, -0.6]
    with pytest.raises(AttributeError):
        t.coeffs = np.array([1.0])
    with pytest.raises(ValueError):
        t.coeffs[0] = 5.0  # the array itself is frozen


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty 1-D"):
        TargetPolynomial([], 2)
    with pytest.raises(ValueError, match="nonempty 1-D"):
        TargetPolynomial([[1.0, 2.0], [3.0, 4.0]], 2)
    with pytest.raises(ValueError, match="finite"):
        TargetPolynomial([1.0, np.nan], 2)
    with pytest.raises(ValueError, match="finite"):
        TargetPolynomial([1.0, np.inf], 2)


def test_monic_means_unit_constant_coefficient():
    # monic in the delay operator: the q^0 coefficient is exactly 1
    assert TargetPolynomial([1.0, 0.5], 1).decay_floor() == 0.5
    for coeffs in ([2.0, 1.0], [1.0 + 1e-15, 0.5], [0.0], [0.0, 1e-300]):
        with pytest.raises(ValueError, match="monic"):
            TargetPolynomial(coeffs, 1)


# ---------------------------------------------------------------------------
# products


def test_product_against_hand_expansion():
    # the benchmark plant A = 1 + 0.5 q + 1.5 q^2 has the incremental
    # denominator (1 - q) A = 1 - 0.5 q + q^2 - 1.5 q^3
    theta_star = aux_transform(PlantParameters([-0.5, -1.5], [-0.75, -3.0]))
    np.testing.assert_allclose(sylvester_coeffs(theta_star, 2)[:4], [1.0, -0.5, 1.0, -1.5], atol=0.0)


# ---------------------------------------------------------------------------
# root moduli of the lifted form


def test_roots_of_lifted_first_order_target():
    # q-polynomial 1 - 0.6 q declared at degree 5 lifts to z^4 (z - 0.6);
    # the four origin roots are exact zeros and leave the modulus exactly 0.6
    assert spectral_radius([1.0, -0.6, 0.0, 0.0, 0.0, 0.0]) == 0.6
    target = TargetPolynomial([1.0, -0.6], 2)
    assert target.decay_floor() == spectral_radius(target.lifted_coeffs()) == 0.6


def test_roots_symmetric_pair():
    # 1 - q^2 lifts to z^2 - 1: both roots on the unit circle
    assert spectral_radius([1.0, 0.0, -1.0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="stable"):
        TargetPolynomial([1.0, 0.0, -1.0], 1)


def test_roots_with_zero_constant_coefficient():
    # -0.75 q - 3 q^2 lifts to -0.75 z - 3, root -4; the z^2 lift degree is
    # dropped because the constant-in-z coefficient chain starts lower
    assert spectral_radius([0.0, -0.75, -3.0]) == pytest.approx(4.0, abs=1e-12)


def test_roots_reject_zero_polynomial():
    # the zero polynomial has no roots to report, and is no target
    assert spectral_radius([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError, match="monic"):
        TargetPolynomial([0.0, 0.0], 1)


def test_roots_are_sorted_deterministically():
    # 1 + 0.25 q^2 lifts to z^2 + 0.25: the conjugate pair +-0.5i, modulus
    # 0.5, with the same bits on every call
    target = TargetPolynomial([1.0, 0.0, 0.25], 1)
    floors = {target.decay_floor() for _ in range(5)}
    assert len(floors) == 1
    assert floors.pop() == pytest.approx(0.5, abs=1e-12)


def test_random_root_sets_are_recovered():
    rng = np.random.default_rng(7)
    for _ in range(20):
        size = int(rng.integers(2, 7))
        while True:
            roots = np.sort(rng.uniform(-0.95, 0.95, size=size))
            if np.diff(roots).min() > 0.15:
                break
        # np.poly gives z^d + c1 z^{d-1} + ...; read as low-first q-coefficients
        # it is exactly the target whose lift has these roots, plus zero
        # roots up to the placeable degree 2n+1 = 7
        target = TargetPolynomial(np.poly(roots), 3)
        assert target.decay_floor() == pytest.approx(np.abs(roots).max(), abs=1e-8)
        assert spectral_radius(target.lifted_coeffs()) == target.decay_floor()


def test_spectral_radius_examples():
    assert spectral_radius([1.0, -0.6]) == 0.6
    assert spectral_radius([1.0, 0.0, -0.25]) == pytest.approx(0.5, abs=1e-12)
    # a constant has no roots once its lift zeros are discounted
    assert spectral_radius([1.0]) == 0.0
    assert spectral_radius([1.0, 0.0, 0.0, 0.0]) == 0.0
    # exact zero roots next to a nonzero pair: z^3 (z^2 - 0.81)
    assert spectral_radius([1.0, 0.0, -0.81, 0.0, 0.0, 0.0]) == pytest.approx(0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# design system matrix


def test_sylvester_identity_case():
    # abar = 1 (declared at degree 2), bhat = q: the system matrix is I_3
    m = sylvester_matrix(np.array([0.0, 0.0, 1.0]), 1)
    np.testing.assert_array_equal(m, np.eye(3))
    margin, _, regular = sylvester_margin(m)
    assert margin == pytest.approx(1.0, abs=1e-15) and regular
    assert sylvester_rcond(m) == pytest.approx(1.0, abs=1e-12)


def test_sylvester_matrix_lists_product_coefficients():
    # For any L, P of the right shape, M @ [l; p] must equal the coefficients
    # of abar*(L-1) + bhat*P on q^1..q^{2n+1}; a stack of estimates gives the
    # stack of their matrices.
    rng = np.random.default_rng(3)
    n = 2
    dim = 2 * n + 1
    thetas = rng.uniform(-1, 1, (4, dim))
    stack = sylvester_matrix(thetas, n)
    assert stack.shape == (4, dim, dim)
    for theta, m in zip(thetas, stack):
        np.testing.assert_array_equal(m, sylvester_matrix(theta, n))
        abar = np.concatenate(([1.0], -theta[: n + 1]))
        bhat = np.concatenate(([0.0], theta[n + 1 :]))
        np.testing.assert_array_equal(sylvester_coeffs(theta, n), np.concatenate((abar, bhat)))
        l_coef = rng.uniform(-1, 1, n)
        p_coef = rng.uniform(-1, 1, n + 1)
        combo = (
            np.convolve(abar, np.concatenate(([1.0], l_coef)))
            - np.pad(abar, (0, n))
            + np.convolve(bhat, np.concatenate(([0.0], p_coef)))
        )
        np.testing.assert_allclose(m @ np.concatenate((l_coef, p_coef)), combo[1:], atol=1e-12)


def test_sylvester_rejects_malformed_inputs():
    # monic abar and the zero constant term of bhat are fixed by the layout;
    # what can still go wrong is the order and the estimate length
    with pytest.raises(ValueError):
        sylvester_matrix(np.zeros(1), 0)
    with pytest.raises(ValueError):
        sylvester_matrix(np.zeros(4), 1)
    with pytest.raises(ValueError):
        sylvester_matrix(np.zeros((2, 4)), 1)


def test_common_factor_collapses_the_margin():
    # abar = (1 - q)(1 + 0.5 q + 1.5 q^2) and bhat = q(1 - q) share a factor,
    # so the design system must be singular.
    theta = np.array([0.5, -1.0, 1.5, 1.0, -1.0])
    coeffs = sylvester_coeffs(theta, 2)
    np.testing.assert_array_equal(coeffs[:4], np.convolve([1.0, -1.0], [1.0, 0.5, 1.5]))
    np.testing.assert_array_equal(coeffs[4:], np.convolve([0.0, 1.0], [1.0, -1.0]))
    m = sylvester_matrix(theta, 2)
    margin, threshold, regular = sylvester_margin(m)
    assert margin < 1e-12 and margin <= threshold and not regular
    assert sylvester_rcond(m) < 1e-12


def test_margin_positive_for_coprime_pair():
    # abar = 1 - 0.5 q + 0.25 q^3, bhat = -0.75 q - 3 q^2
    coprime = np.array([0.5, 0.0, -0.25, -0.75, -3.0])
    margin, _, regular = sylvester_margin(sylvester_matrix(coprime, 2))
    assert margin > 1e-3 and regular
    # one decision per matrix of a stack; a NaN estimate counts as singular
    shared = np.array([0.5, -1.0, 1.5, 1.0, -1.0])
    stack = sylvester_matrix(np.array([coprime, shared, np.full(5, np.nan)]), 2)
    with np.errstate(invalid="ignore"):
        regular = sylvester_margin(stack)[2]
    np.testing.assert_array_equal(regular, [True, False, False])


def test_rcond_of_exactly_singular_matrix_is_zero():
    assert sylvester_rcond(np.zeros((3, 3))) == 0.0
    # rank deficiency shows up at rounding level through the SVD
    assert sylvester_rcond(np.array([[1.0, 1.0], [1.0, 1.0]])) < 1e-15
