"""Rational-arithmetic certification of the pole-placement identity."""

import dataclasses
import os
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from conftest import BENCHMARK_CONFIG, ROOT, charpoly_ints, reference_charpoly, reference_solve

import adaptive_pp.exact
from adaptive_pp import (
    BoxSet,
    TargetPolynomial,
    Trajectory,
    closed_loop_layout,
    closed_loop_matrix,
    design_rhs,
    exact_pole_check,
    pole_placement_audit,
    run_closed_loop,
    sylvester_matrix,
)
from adaptive_pp.cli import load_config
from adaptive_pp.exact import _bareiss

BENCH_TARGET = TargetPolynomial([1.0, -0.6], 2)
BENCH_THETA0 = np.array([0.0, -1.0, 2.0, -0.5, -4.0])


def _reference_certificate(theta_hat, target_lifted, n):
    vals = [Fraction(v) for v in theta_hat.tolist()]
    astar = [Fraction(v) for v in target_lifted.tolist()]
    dim = 2 * n + 1
    rhs = [astar[k] + (vals[k - 1] if k <= n + 1 else 0) for k in range(1, dim + 1)]
    x = reference_solve(sylvester_matrix(theta_hat, n).tolist(), rhs)
    v = vals + [-v for v in x[n:]] + [-v for v in x[:n]] + [Fraction(1)]
    a = [[Fraction(0)] * dim for _ in range(dim)]
    for row, col, src in zip(*closed_loop_layout(n)):
        a[row][col] = v[src]
    # det(zI - A) from the integer oracle on d A, d the common denominator,
    # whose coefficients are d^k times A's: `reference_charpoly` takes about
    # 2 s a matrix at n = 6
    d = lcm(*(v.denominator for row in a for v in row))
    char = charpoly_ints([[int(v * d) for v in row] for row in a])
    return max(abs(Fraction(c, d**k) - t) for k, (c, t) in enumerate(zip(char, astar)))


# ---------------------------------------------------------------------------
# the Faddeev-LeVerrier oracle of conftest: integer characteristic coefficients


def test_charpoly_of_a_triangular_matrix():
    assert charpoly_ints([[2, 1], [0, 3]]) == [1, -5, 6]


def test_charpoly_of_a_companion_matrix():
    # companion of z^3 - 2z^2 + 3z - 4 in controllable form
    assert charpoly_ints([[2, -3, 4], [1, 0, 0], [0, 1, 0]]) == [1, -2, 3, -4]


def test_charpoly_of_an_empty_matrix_is_one():
    assert charpoly_ints([]) == [1]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_charpoly_equals_the_fraction_reference(dim):
    rng = np.random.default_rng(70 + dim)
    for bound in (9, 10**12):
        rows = rng.integers(-bound, bound + 1, size=(dim, dim)).tolist()
        assert charpoly_ints(rows) == reference_charpoly(rows)
    # entries far past int64, as the certificate's scaled closed loop has
    rows = [[v * 3**60 + 1 for v in row] for row in rng.integers(-9, 10, size=(dim, dim)).tolist()]
    assert charpoly_ints(rows) == reference_charpoly(rows)


def test_charpoly_of_a_nilpotent_matrix_is_a_pure_power():
    # strictly triangular: every coefficient but the leading one is exactly zero
    rows = np.triu(np.arange(1, 26).reshape(5, 5), k=1).tolist()
    assert charpoly_ints(rows) == [1] + [0] * 5


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
def test_charpoly_of_sparse_rows_equals_the_fraction_reference(dim):
    # a row with one nonzero entry takes the scaled-copy path of the integer
    # kernel, every other row the dot products; mix them in every proportion
    rng = np.random.default_rng(150 + dim)

    def nonzero(shape):
        return rng.integers(1, 10, shape) * rng.choice([-1, 1], shape)

    perm = np.eye(dim, dtype=int)[rng.permutation(dim)]
    cases = [perm, perm * nonzero((dim, 1)), np.zeros((dim, dim), dtype=int)]
    for _ in range(12):
        a = nonzero((dim, dim))
        for i, kind in enumerate(rng.integers(0, 4, dim)):
            if kind == 3:  # dense
                continue
            j = i if kind == 2 or dim == 1 else int(rng.choice([c for c in range(dim) if c != i]))
            value = -abs(a[i, j]) if kind == 1 else a[i, j]
            a[i] = 0
            if kind:  # one negative off-diagonal entry, or one diagonal entry
                a[i, j] = value
        cases.append(a)
    for a in cases:
        assert charpoly_ints(a.tolist()) == reference_charpoly(a.tolist())


# ---------------------------------------------------------------------------
# the Bareiss kernel: (det, X) of an augmented integer system, x = X / det


def test_fraction_solve_matches_float_solve():
    rng = np.random.default_rng(13)
    m = rng.integers(-20, 21, size=(5, 5)) + 100 * np.eye(5, dtype=int)
    b = rng.integers(-20, 21, size=5)
    det, x = _bareiss(np.column_stack((m, b)).tolist())
    np.testing.assert_allclose([v / det for v in x], np.linalg.solve(m, b), atol=1e-12)


def test_fraction_solve_has_zero_residual():
    # Cramer: m X = det b holds in integers, with no Fraction at all
    rng = np.random.default_rng(21)
    m = (rng.integers(-10, 11, size=(4, 4)) + 30 * np.eye(4, dtype=int)).tolist()
    b = rng.integers(-10, 11, size=4).tolist()
    det, x = _bareiss([row + [v] for row, v in zip(m, b)])
    assert det != 0
    assert [sum(r * v for r, v in zip(row, x)) for row in m] == [det * v for v in b]


def test_fraction_solve_needs_pivoting():
    # leading zero pivot forces a row swap; the system is still regular
    det, x = _bareiss([[0, 1, 3], [2, 0, 4]])
    assert [Fraction(v, det) for v in x] == [2, 3]


def test_fraction_solve_raises_on_singular_systems():
    with pytest.raises(ZeroDivisionError):
        _bareiss([[1, 2, 1], [2, 4, 1]])
    # singular only after a step of elimination, in a later column
    with pytest.raises(ZeroDivisionError):
        _bareiss([[1, 2, 3, 1], [2, 4, 6, 1], [1, 0, 1, 1]])


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_fraction_solve_equals_the_fraction_reference(dim):
    rng = np.random.default_rng(90 + dim)
    for bound in (10**3, 10**12):
        m = rng.integers(-bound, bound + 1, size=(dim, dim)).tolist()
        b = rng.integers(-bound, bound + 1, size=dim).tolist()
        det, x = _bareiss([row + [v] for row, v in zip(m, b)])
        assert [Fraction(v, det) for v in x] == reference_solve(m, b)


def test_fraction_solve_equals_the_reference_across_pivot_swaps():
    # column 0 has a zero lead; after eliminating it, column 1 has one too
    m = [[0, 4, 8, 4], [4, 4, 4, 2], [8, 8, 12, 1], [0, 12, 0, 4]]
    b = [1, -2, 3, 7]
    det, x = _bareiss([row + [v] for row, v in zip(m, b)])
    x = [Fraction(v, det) for v in x]
    assert x == reference_solve(m, b)
    assert [sum(r * v for r, v in zip(row, x)) for row in m] == b


# ---------------------------------------------------------------------------
# the float core's builders keep exact inputs exact


def test_design_rhs_sums_fractions_exactly():
    # 0.1 + 0.2 rounds in float64; on Fractions the sum must be the exact one,
    # whether the Fractions hold the floats' values or true decimals
    n = 1
    for tenth, fifth in ((Fraction(0.1), Fraction(0.2)), (Fraction(1, 10), Fraction(1, 5))):
        theta = np.array([tenth, fifth, Fraction(3)], dtype=object)
        lifted = np.array([Fraction(1), fifth, Fraction(0), Fraction(1, 7)], dtype=object)
        rhs = design_rhs(theta, lifted, n)
        assert rhs.dtype == object
        assert rhs.tolist() == [tenth + fifth, fifth, Fraction(1, 7)]
    assert Fraction(0.1) + Fraction(0.2) != Fraction(0.1 + 0.2)
    floats = design_rhs(np.array([0.1, 0.2, 3.0]), np.array([1.0, 0.2, 0.0, 0.5]), n)
    assert floats.dtype == np.float64
    assert floats.tolist() == [0.1 + 0.2, 0.2, 0.5]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_input_never_certifies(bad):
    # a NaN or Inf is never a pass: each position raises, naming the argument,
    # instead of returning a certificate
    for i in range(5):
        theta = BENCH_THETA0.copy()
        theta[i] = bad
        with pytest.raises(ValueError, match="theta_hat"):
            exact_pole_check(theta, BENCH_TARGET.lifted_coeffs(), 2)
    for i in range(6):
        lifted = BENCH_TARGET.lifted_coeffs().copy()
        lifted[i] = bad
        with pytest.raises(ValueError, match="target_lifted"):
            exact_pole_check(BENCH_THETA0, lifted, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_certificates_equal_the_fraction_reference(n, monkeypatch):
    # perturb each lifted target coefficient in turn: the design absorbs all
    # but the leading one, whose gap must be the reference's exactly.  The
    # gap divides by |det|, so half the estimates have det(M) < 0 and Bareiss
    # must return dets of both signs; at n = 1, det(M) = b_1^2 is never negative
    dets = []
    bareiss = adaptive_pp.exact._bareiss

    def recorded(rows):
        det, x = bareiss(rows)
        dets.append(det)
        return det, x

    monkeypatch.setattr(adaptive_pp.exact, "_bareiss", recorded)
    rng = np.random.default_rng(110 + n)
    dim = 2 * n + 1
    pool = rng.uniform(-2.0, 2.0, (40, dim))
    negative = np.linalg.det(sylvester_matrix(pool, n)) < 0
    for theta in np.concatenate((pool[~negative][:3], pool[negative][:3])):
        target = np.concatenate(([1.0], rng.uniform(-1.0, 1.0, dim)))
        assert exact_pole_check(theta, target, n) == _reference_certificate(theta, target, n) == 0
        for k in range(dim + 1):
            lifted = target.copy()
            lifted[k] += rng.uniform(-1e-6, 1e-6)
            cert = exact_pole_check(theta, lifted, n)
            assert cert == _reference_certificate(theta, lifted, n)
            assert (cert != 0) == (k == 0)
    assert min(dets) < 0 < max(dets) if n > 1 else min(dets) > 0


@pytest.mark.parametrize(
    "arg, index, value",
    [("theta_hat", 0, 5e-324), ("theta_hat", 4, 1e300), ("target_lifted", 3, 2.0**-1074)],
    ids=["subnormal-estimate", "huge-estimate", "subnormal-target"],
)
def test_certificates_at_extreme_exponents_equal_the_fraction_reference(arg, index, value):
    # one power-of-two scale must hold 2**-1074 and 1e300 side by side with
    # the box's ordinary values, and the integers it makes must stay exact
    theta = BENCH_THETA0.copy()
    lifted = BENCH_TARGET.lifted_coeffs().copy()
    (theta if arg == "theta_hat" else lifted)[index] = value
    assert exact_pole_check(theta, lifted, 2) == _reference_certificate(theta, lifted, 2) == 0
    lifted[0] += 2.0**-20  # a nonzero gap, in the one coefficient the design cannot absorb
    cert = exact_pole_check(theta, lifted, 2)
    assert cert == _reference_certificate(theta, lifted, 2) == Fraction(2**-20)


def test_a_zero_certificate_builds_one_fraction(monkeypatch):
    # the certificate stays in integers from input to verdict: a zero one is
    # the single Fraction(0) at the end, and no Fraction arithmetic comes before
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(adaptive_pp.exact, "Fraction", counted)
    cert = exact_pole_check(BENCH_THETA0, BENCH_TARGET.lifted_coeffs(), 2)
    assert cert == 0 and isinstance(cert, Fraction)
    assert built == [(0,)]


def test_every_benchmark_estimate_certifies_exactly():
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    with open(os.path.join(ROOT, "out", "benchmark", "trajectory.csv"), encoding="ascii") as fh:
        traj = Trajectory.from_csv(fh.read(), cfg)
    estimates = np.unique(traj.theta_hat, axis=0)
    assert len(estimates) == 667
    lifted = cfg.target.lifted_coeffs()
    assert all(exact_pole_check(theta, lifted, cfg.n) == 0 for theta in estimates)


def test_every_order4_estimate_certifies_exactly():
    # the general order end to end: every distinct estimate the n = 4 example logs
    cfg = load_config(os.path.join(ROOT, "examples", "order4.json"))[0]
    estimates = np.unique(run_closed_loop(cfg).theta_hat, axis=0)
    assert cfg.n == 4 and len(estimates) == 224
    lifted = cfg.target.lifted_coeffs()
    certs = [exact_pole_check(theta, lifted, cfg.n) for theta in estimates]
    assert all(isinstance(c, Fraction) and c == 0 for c in certs)


@pytest.mark.parametrize(
    "n, theta, lifted",
    [
        (0, np.array([0.5]), np.array([1.0, 0.0])),
        (2.0, BENCH_THETA0, BENCH_TARGET.lifted_coeffs()),
        (-1, BENCH_THETA0, BENCH_TARGET.lifted_coeffs()),
    ],
    ids=["zero", "float", "negative"],
)
def test_certificate_refuses_an_order_that_is_not_a_positive_integer(n, theta, lifted):
    # lengths that fit 2n+1 must not carry a bad n on: n = 0 would reach the
    # solve as a singular 1 x 1 design, n = 2.0 a TypeError from range
    with pytest.raises(ValueError, match="n must be an integer of at least 1"):
        exact_pole_check(theta, lifted, n)


def test_certificate_raises_cleanly_on_a_singular_design():
    theta = np.array([0.5, -1.0, 1.5, 0.0, 0.0])  # zero numerator
    with pytest.raises(ZeroDivisionError):
        exact_pole_check(theta, BENCH_TARGET.lifted_coeffs(), 2)


# ---------------------------------------------------------------------------
# the pole audit: the closed loop's characteristic polynomial is the design
# polynomial, and the audit's float bound covers its exact coefficient error


def _design_polynomial(theta, gains, n) -> list[Fraction]:
    """Abar L + B P lowest power first, exactly, with L = [1, -K[n+1:]] and P = [0, -K[:n+1]]."""
    t = [Fraction(float(v)) for v in theta]
    k = [Fraction(float(v)) for v in gains]
    pairs = (
        ([Fraction(1)] + [-v for v in t[: n + 1]], [Fraction(1)] + [-v for v in k[n + 1 :]]),
        ([Fraction(0)] + t[n + 1 :], [Fraction(0)] + [-v for v in k[: n + 1]]),
    )
    out = [Fraction(0)] * (2 * n + 2)
    for a, b in pairs:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_loop_charpoly_is_the_design_polynomial(n):
    # det(zI - A(theta, K)) is the z-lift of Abar L + B P for any estimate and
    # any gain row, solved or not; the lift lists the same coefficients.  The
    # identity is polynomial, so integer points test it as well as any, and
    # their integer-valued floats convert to the kernel's ints exactly
    rng = np.random.default_rng(70 + n)
    for _ in range(200):
        theta, gains = rng.integers(-9, 10, (2, 2 * n + 1))
        charpoly = charpoly_ints(closed_loop_matrix(theta, gains).astype(int).tolist())
        assert charpoly == _design_polynomial(theta, gains, n)


def test_pole_audit_bound_covers_the_exact_error_on_every_golden_row():
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    with open(os.path.join(ROOT, "out", "benchmark", "trajectory.csv"), encoding="ascii") as fh:
        traj = Trajectory.from_csv(fh.read(), cfg)
    lifted = [Fraction(float(v)) for v in cfg.target.lifted_coeffs()]
    worst = Fraction(0)
    for i in range(traj.steps):
        poly = _design_polynomial(traj.theta_hat[i], traj.gains[i], cfg.n)
        exact = max(abs(c - a) for c, a in zip(poly, lifted))
        row = dataclasses.replace(traj, theta_hat=traj.theta_hat[i : i + 1], gains=traj.gains[i : i + 1])
        assert pole_placement_audit(row, cfg)["max_coeff_err"] >= exact
        worst = max(worst, exact)
    assert 0 < worst <= pole_placement_audit(traj, cfg)["max_coeff_err"]
