"""Rational-arithmetic certification of the pole-placement identity."""

import dataclasses
import os
from fractions import Fraction

import numpy as np
import pytest
from conftest import BENCHMARK_CONFIG, ROOT

import adaptive_pp.exact
from adaptive_pp import (
    BoxSet,
    TargetPolynomial,
    Trajectory,
    charpoly_fractions,
    closed_loop_matrix,
    design_rhs,
    exact_pole_check,
    pole_placement_audit,
    solve_fraction_system,
    sylvester_matrix,
)
from adaptive_pp.cli import load_config

BENCH_TARGET = TargetPolynomial([1.0, -0.6], 2)
BENCH_THETA0 = np.array([0.0, -1.0, 2.0, -0.5, -4.0])


# ---------------------------------------------------------------------------
# reference: plain Fraction Gaussian elimination and Faddeev-LeVerrier, the
# textbook loops the integer kernels must agree with under ==


def _reference_solve(a, b):
    a = [[Fraction(v) for v in row] for row in a]
    b = [Fraction(v) for v in b]
    dim = len(b)
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("system is exactly singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, dim):
            factor = a[r][col] / a[col][col]
            for c in range(col, dim):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * dim
    for r in range(dim - 1, -1, -1):
        acc = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, dim))
        x[r] = acc / a[r][r]
    return x


def _reference_charpoly(a):
    a = [[Fraction(v) for v in row] for row in a]
    dim = len(a)

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]

    coeffs = [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for k in range(1, dim + 1):
        if k > 1:
            m = matmul(a, m)
            for i in range(dim):
                m[i][i] += coeffs[-1]
        coeffs.append(-sum(matmul(a, m)[i][i] for i in range(dim)) / k)
    return coeffs


def _reference_certificate(theta_hat, target_lifted, n):
    vals = [Fraction(v) for v in theta_hat.tolist()]
    astar = [Fraction(v) for v in target_lifted.tolist()]
    dim = 2 * n + 1
    rhs = [astar[k] + (vals[k - 1] if k <= n + 1 else 0) for k in range(1, dim + 1)]
    x = _reference_solve(sylvester_matrix(theta_hat, n).tolist(), rhs)
    gains = np.array([-v for v in x[n:]] + [-v for v in x[:n]], dtype=object)
    char = _reference_charpoly(closed_loop_matrix(theta_hat, gains).tolist())
    return max(abs(c - t) for c, t in zip(char, astar))


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


def test_charpoly_of_an_empty_matrix_is_one():
    assert charpoly_fractions(np.zeros((0, 0))) == [Fraction(1)]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_charpoly_equals_the_fraction_reference(dim):
    rng = np.random.default_rng(70 + dim)
    for scale in (1.0, 1e-8, 1e8):
        a = rng.uniform(-3.0, 3.0, size=(dim, dim)) * scale
        assert charpoly_fractions(a) == _reference_charpoly(a.tolist())
    # entries that share no denominator, some not dyadic and some negative
    rows = [
        [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 12))) for _ in range(dim)]
        for _ in range(dim)
    ]
    assert charpoly_fractions(rows) == _reference_charpoly(rows)


def test_charpoly_of_a_nilpotent_matrix_is_a_pure_power():
    # strictly triangular: every coefficient but the leading one is exactly zero
    a = np.triu(np.arange(1.0, 26.0).reshape(5, 5), k=1) / 3.0
    assert charpoly_fractions(a) == [Fraction(1)] + [Fraction(0)] * 5


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
def test_charpoly_of_sparse_rows_equals_the_fraction_reference(dim):
    # a row with one nonzero entry takes the scaled-copy path of the integer
    # kernel, every other row the dot products; mix them in every proportion
    rng = np.random.default_rng(150 + dim)
    perm = np.eye(dim)[rng.permutation(dim)]
    cases = [perm, perm * rng.uniform(-3.0, 3.0, (dim, 1)), np.zeros((dim, dim))]
    for _ in range(12):
        a = rng.uniform(-3.0, 3.0, (dim, dim))
        for i, kind in enumerate(rng.integers(0, 4, dim)):
            if kind == 3:  # dense
                continue
            j = i if kind == 2 or dim == 1 else int(rng.choice([c for c in range(dim) if c != i]))
            value = -abs(a[i, j]) if kind == 1 else a[i, j]
            a[i] = 0.0
            if kind:  # one negative off-diagonal entry, or one diagonal entry
                a[i, j] = value
        cases.append(a)
    for a in cases:
        assert charpoly_fractions(a) == _reference_charpoly(a.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_charpoly_refuses_a_non_finite_entry_by_name(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="^a has a non-finite entry"):
        charpoly_fractions(a)
    with pytest.raises(ValueError, match="^a has a non-finite entry"):
        charpoly_fractions([[Fraction(1), bad], [Fraction(0), Fraction(2)]])


def test_charpoly_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        charpoly_fractions(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        charpoly_fractions([[Fraction(1), Fraction(2)], [Fraction(3)]])


def test_charpoly_is_exact_where_floats_are_not():
    # 0.1 is not representable in binary; the exact route must use the float's
    # true rational value, so the trace coefficient reproduces it bit for bit
    coeffs = charpoly_fractions(np.array([[0.1]]))
    assert coeffs == [Fraction(1), -Fraction(0.1)]
    assert coeffs[1] != Fraction(1, 10)


def test_object_arrays_of_fractions_stay_exact():
    # 1/3 has no float64 value; an object array must not round it through one
    third = np.array([[Fraction(1, 3)]], dtype=object)
    assert charpoly_fractions(third) == [Fraction(1), Fraction(-1, 3)]
    assert solve_fraction_system(third, np.array([1])) == [Fraction(3)]
    rhs = np.array([Fraction(1, 7), Fraction(2, 3)], dtype=object)
    m = np.array([[Fraction(1, 3), Fraction(0)], [Fraction(1, 5), Fraction(1)]], dtype=object)
    assert solve_fraction_system(m, rhs) == [Fraction(3, 7), Fraction(2, 3) - Fraction(3, 35)]


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
    # singular only after a step of elimination, in a later column
    with pytest.raises(ZeroDivisionError):
        solve_fraction_system(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]), np.ones(3))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_fraction_solve_equals_the_fraction_reference(dim):
    rng = np.random.default_rng(90 + dim)
    for scale in (1.0, 1e-8, 1e8):
        m = rng.uniform(-3.0, 3.0, size=(dim, dim)) * scale
        b = rng.uniform(-3.0, 3.0, size=dim)
        assert solve_fraction_system(m, b) == _reference_solve(m.tolist(), b.tolist())


def test_fraction_solve_equals_the_reference_across_pivot_swaps():
    # column 0 has a zero lead; after eliminating it, column 1 has one too
    m = np.array([
        [0.0, 1.0, 2.0, 1.0],
        [1.0, 1.0, 1.0, 0.5],
        [2.0, 2.0, 3.0, 0.25],
        [0.0, 3.0, 0.0, 1.0],
    ]) / 3.0
    b = np.array([1.0, -2.0, 0.1, 7.0])
    x = solve_fraction_system(m, b)
    assert x == _reference_solve(m.tolist(), b.tolist())
    mf = [[Fraction(v) for v in row] for row in m.tolist()]
    assert [sum(r * v for r, v in zip(row, x)) for row in mf] == [Fraction(v) for v in b.tolist()]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fraction_solve_refuses_a_non_finite_entry_by_name(bad):
    m = np.eye(3)
    m[2, 0] = bad
    with pytest.raises(ValueError, match="^m has a non-finite entry"):
        solve_fraction_system(m, np.ones(3))
    rhs = np.ones(3)
    rhs[1] = bad
    with pytest.raises(ValueError, match="^rhs has a non-finite entry"):
        solve_fraction_system(np.eye(3), rhs)


@pytest.mark.parametrize(
    "m, rhs",
    [
        (np.ones((2, 3)), np.ones(2)),
        (np.ones((3, 2)), np.ones(3)),
        (np.eye(3), np.array([1.0, 2.0])),
        (np.eye(2), np.ones(3)),
        (np.eye(2), np.ones((2, 1))),
        (np.ones(4), np.ones(4)),
    ],
    ids=["wide", "tall", "short-rhs", "long-rhs", "column-rhs", "vector-matrix"],
)
def test_fraction_solve_rejects_malformed_shapes(m, rhs):
    with pytest.raises(ValueError):
        solve_fraction_system(m, rhs)


# ---------------------------------------------------------------------------
# the float core's builders keep Fraction inputs exact


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


def test_closed_loop_matrix_keeps_a_fraction_gain_row_exact():
    n = 1
    theta = np.array([0.5, -1.0, 2.0])
    gains = np.array([Fraction(1, 3), Fraction(-2, 7), Fraction(5)], dtype=object)
    a = closed_loop_matrix(theta, gains)
    assert a.dtype == object
    assert a[0].tolist() == theta.tolist()
    assert a[n + 1].tolist() == gains.tolist()
    floats = closed_loop_matrix(theta, gains.astype(float))
    assert floats.dtype == np.float64
    np.testing.assert_array_equal(floats, a.astype(float))
    assert a[n + 1, 0] != Fraction(floats[n + 1, 0])


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificates_equal_the_fraction_reference(n):
    rng = np.random.default_rng(110 + n)
    dim = 2 * n + 1
    for _ in range(6):
        theta = rng.uniform(-2.0, 2.0, dim)
        # a perturbed leading coefficient leaves a nonzero, exactly known gap
        lifted = np.concatenate(([1.0 + rng.uniform(-1e-6, 1e-6)], rng.uniform(-1.0, 1.0, dim)))
        cert = exact_pole_check(theta, lifted, n)
        assert cert != 0
        assert cert == _reference_certificate(theta, lifted, n)
        lifted[0] = 1.0
        assert exact_pole_check(theta, lifted, n) == _reference_certificate(theta, lifted, n) == 0


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_loop_charpoly_is_the_design_polynomial(n):
    # det(zI - A(theta, K)) is the z-lift of Abar L + B P for any estimate and
    # any gain row, solved or not; the lift lists the same coefficients
    rng = np.random.default_rng(70 + n)
    for _ in range(200):
        theta, gains = rng.uniform(-3.0, 3.0, (2, 2 * n + 1))
        charpoly = charpoly_fractions(closed_loop_matrix(theta, gains))
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
