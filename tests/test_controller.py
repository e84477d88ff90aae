"""Pole-placement design, gain application, and the closed-loop recursion."""

import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ROOT, reference_charpoly, reference_threshold

import adaptive_pp
from adaptive_pp import (
    BoxSet,
    SingularSylvesterError,
    TargetPolynomial,
    closed_loop_matrix,
    design_residual,
    design_rhs,
    image_box,
    run_closed_loop,
    singularity_threshold,
    solve_diophantine_batch,
    solve_gains,
    state_recursion_audit,
    sylvester_margin,
    sylvester_matrix,
)
from adaptive_pp import controller
from adaptive_pp.cli import load_config
from adaptive_pp.controller import _design_identity, _design_workspace, _gain_order, _gamma
from adaptive_pp.polynomial import SINGULAR_REL_THRESHOLD, sylvester_coeffs, sylvester_gather
from adaptive_pp.simulation import _box_chunks, _chunk_rows

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
    theta = np.array([0.0, 0.0, 1.0])
    K = solve_gains(theta, target)
    residual = design_residual(theta, K, target)
    # K = [-p_1, -p_2, -l_1] with L = 1 + 0.3 q and P = -0.1 q + 0.05 q^2
    np.testing.assert_allclose(K, [0.1, -0.05, -0.3], atol=1e-14)
    assert residual <= 1e-14


def test_design_solves_the_identity_at_the_benchmark_start():
    K = solve_gains(BENCH_THETA0, BENCH_TARGET)
    residual = design_residual(BENCH_THETA0, K, BENCH_TARGET)
    # independent reconstruction through polynomial products
    combo = _identity_lhs(BENCH_THETA0, K)
    np.testing.assert_allclose(combo, BENCH_TARGET.lifted_coeffs(), atol=1e-12)
    assert residual <= 1e-12
    assert sylvester_margin(sylvester_matrix(BENCH_THETA0, 2))[0] > 1e-6


def test_design_identity_holds_across_the_uncertainty_box(example_box, example_target):
    rng = np.random.default_rng(17)
    aux_box = image_box(example_box, 2)
    lifted = example_target.lifted_coeffs()
    worst = 0.0
    for vec in aux_box.sample(rng, 300):
        try:
            K = solve_gains(vec, example_target)
        except SingularSylvesterError:
            continue
        residual = design_residual(vec, K, example_target)
        combo = _identity_lhs(vec, K)
        worst = max(worst, float(np.abs(combo - lifted).max()), residual)
    assert worst <= 1e-9


def test_design_raises_on_a_vanishing_numerator():
    theta = np.array([0.5, -1.0, 1.5, 0.0, 0.0])
    with pytest.raises(SingularSylvesterError) as exc:
        solve_gains(theta, BENCH_TARGET)
    err = exc.value
    assert err.margin <= err.threshold
    assert err.rcond < 1e-12
    np.testing.assert_array_equal(err.theta_hat, theta)
    assert err.step is None


def test_design_raises_on_a_shared_factor():
    # abar = (1 - q)(1 + 0.5q + 1.5q^2), bhat = q(1 - q)  -> common root
    theta = np.array([0.5, -1.0, 1.5, 1.0, -1.0])
    with pytest.raises(SingularSylvesterError):
        solve_gains(theta, BENCH_TARGET)


def test_design_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_gains(np.zeros(4), BENCH_TARGET)
    with pytest.raises(ValueError):
        solve_gains(np.zeros((1, 5)), BENCH_TARGET)


def _lapack_gain_error(thetas: np.ndarray, gains: np.ndarray, lapack: np.ndarray) -> np.ndarray:
    """||K - K_L|| over 2 gamma_{3d} kappa_2(M) ||K_L||, per row: at most 1 between two stable solves.

    Each LU solve is backward stable, so its relative forward error is about
    gamma_{3d} kappa_2(M) to first order (Higham, Thm 9.4 and section 7.1);
    the gap between two of them is at most the sum.
    """
    n = (thetas.shape[1] - 1) // 2
    kappa = np.linalg.cond(sylvester_matrix(thetas, n))
    scale = 2.0 * _gamma(3 * (2 * n + 1)) * kappa * np.linalg.norm(lapack, axis=1)
    return np.linalg.norm(gains - lapack, axis=1) / scale


def test_batched_design_is_a_stack_of_single_solves(example_box):
    rng = np.random.default_rng(41)
    thetas = image_box(example_box, 2).sample(rng, 200)
    thetas[57] = [0.5, -1.0, 1.5, 0.0, 0.0]  # vanishing numerator: singular
    batch = solve_diophantine_batch(thetas, BENCH_TARGET.lifted_coeffs(), 2)
    singles = []
    for vec in thetas:
        try:
            singles.append(solve_gains(vec, BENCH_TARGET))
        except SingularSylvesterError:
            singles.append(None)
    np.testing.assert_array_equal(batch.ok, [K is not None for K in singles])
    assert not batch.ok[57] and batch.ok.sum() == 199
    lapack = np.array([K for K in singles if K is not None])
    assert np.all(_lapack_gain_error(thetas[batch.ok], batch.gains, lapack) <= 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_residual_has_the_bits_of_each_single_solve(n):
    # seeded generic, near-common-root and huge-gain estimates of order n
    target = _spread_target(n)
    thetas = _certificate_rows(n, 600, seed=80 + n)
    design = solve_diophantine_batch(thetas, target.lifted_coeffs(), n)
    thetas, gains = thetas[design.ok], design.gains
    # each row's bits are those of a one-row call, whatever the stack around
    # it and the operands' memory order: the system stack is made contiguous,
    # so every row goes through the same BLAS matrix-vector product
    singles = np.array([design_residual(vec, K, target) for vec, K in zip(thetas, gains)])
    picked = np.random.default_rng(n).permutation(len(thetas))
    stacks = {
        "stacked": design_residual(thetas, gains, target),
        "fortran": design_residual(np.asfortranarray(thetas), np.asfortranarray(gains), target),
        "fancy": design_residual(thetas[picked], gains[picked], target)[np.argsort(picked)],
        "strided": design_residual(np.repeat(thetas, 2, axis=0)[::2], np.repeat(gains, 2, axis=0)[::2], target),
        "reversed": design_residual(thetas[::-1], gains[::-1], target)[::-1],
    }
    for name, got in stacks.items():
        assert np.array_equal(got.view(np.uint64), singles.view(np.uint64)), name
    # the polynomial products sum the same terms in another order: both are
    # within gamma_{2n+3} of the exact error, scaled by the terms' magnitude
    lifted = target.lifted_coeffs()
    by_convolve = np.array([np.abs(_identity_lhs(vec, K) - lifted).max() for vec, K in zip(thetas, gains)])
    m, x, _, _ = _design_identity(thetas, gains, target)
    terms = (np.abs(m) @ np.abs(x)[:, :, None])[:, :, 0] + np.abs(design_rhs(thetas, lifted, n)) + np.abs(lifted[1:])
    assert np.all(np.abs(singles - by_convolve) <= 2.0 * _gamma(2 * n + 3) * terms.max(axis=1) * (1.0 + 1e-6))
    # a (..., 2n+1) stack keeps its leading shape, and one row gives a 0-d value
    assert design_residual(thetas[:6].reshape(2, 3, -1), gains[:6].reshape(2, 3, -1), target).shape == (2, 3)
    assert design_residual(thetas[0], gains[0], target).shape == ()


# ---------------------------------------------------------------------------
# the batched elimination, with LAPACK as the reference


def _spread_target(n: int) -> TargetPolynomial:
    return TargetPolynomial(np.poly(np.linspace(-0.5, 0.5, n)), n)


def _certificate_rows(n: int, count: int, seed: int) -> np.ndarray:
    """Estimates of order n: a third generic, a third near a common root, a third with huge gains.

    Generic rows are uniform in [-2, 2].  The next third start from Abar and
    B sharing a factor (1 - rho q), or from B = 0 when n = 1, and are then
    moved by 1e-12 to 1e-6.  The last third scale b down by 1e-2 to 1e-7.
    """
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-2.0, 2.0, (count, 2 * n + 1))
    third = count // 3
    rho = rng.uniform(-1.5, 1.5, (third, 1))
    abar = np.zeros((third, n + 2))
    abar[:, 0] = 1.0
    abar[:, 1 : n + 1] = rng.uniform(-1.0, 1.0, (third, n))
    abar[:, 1:] -= rho * abar[:, :-1]
    b = np.zeros((third, n + 1))
    b[:, 1:n] = rng.uniform(-2.0, 2.0, (third, n - 1))
    b[:, 2:] -= rho * b[:, 1:-1]
    near = np.concatenate((-abar[:, 1:], b[:, 1:]), axis=1)
    near += 10.0 ** rng.uniform(-12.0, -6.0, (third, 1)) * rng.normal(size=near.shape)
    thetas[third : 2 * third] = near
    thetas[2 * third :, n + 1 :] *= 10.0 ** rng.uniform(-7.0, -2.0, (count - 2 * third, 1))
    return thetas


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_design_agrees_with_lapack_away_from_the_threshold(n):
    # 25k rows per order, 1e5 in all: the verdict is LAPACK's wherever |det| is
    # not within a factor 2 of the threshold, and the gain rows agree to rounding
    target = _spread_target(n)
    thetas = _certificate_rows(n, 25_000, seed=n)
    design = solve_diophantine_batch(thetas, target.lifted_coeffs(), n)
    margin, threshold, regular = sylvester_margin(sylvester_matrix(thetas, n))
    clear = (margin < threshold / 2) | (margin > 2 * threshold)
    np.testing.assert_array_equal(design.ok[clear], regular[clear])
    assert not clear.all() and not design.ok.all()
    both = design.ok & regular
    lapack = np.array([solve_gains(vec, target) for vec in thetas[both]])
    assert np.all(_lapack_gain_error(thetas[both], design.gains[both[design.ok]], lapack) <= 1.0)
    assert np.abs(lapack).max() > 1e6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_design_decides_the_rows_at_the_threshold(n):
    dim = 2 * n + 1
    rows = []
    # Abar = 1 and B = b q^n make M diagonal with det b^(n+1), and every row
    # sum is at most 1, so the threshold is 1e-12: |det| within 1e-9 of it,
    # on the side the sign of t says, except at t = 0
    offsets = (-9e-10, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 9e-10)
    for t in offsets:
        theta = np.zeros(dim)
        theta[-1] = (1e-12 * (1.0 + t)) ** (1.0 / (n + 1))
        rows.append(theta)
    m = sylvester_matrix(np.array(rows), n)
    assert np.all(np.abs(np.abs(np.linalg.det(m)) / singularity_threshold(m) - 1.0) < 1e-9)
    generic = np.random.default_rng(7).uniform(-2.0, 2.0, dim)
    for bad in (np.nan, np.inf, -np.inf):
        for j in (0, dim - 1):
            rows.append(generic.copy())
            rows[-1][j] = bad
    rows.append(np.concatenate((generic[: n + 1], np.zeros(n))))  # vanishing numerator
    if n >= 2:
        # Abar = (1 - q/2)(1 + q/2)^n and B = q (1 - q/2)(1 + q/4)^(n-2): exactly representable, a common root
        abar = functools.reduce(np.convolve, [[1.0, 0.5]] * n, [1.0, -0.5])
        b = functools.reduce(np.convolve, [[1.0, 0.25]] * (n - 2), [1.0, -0.5])
        rows.append(np.concatenate((-abar[1:], b)))
        assert abs(np.linalg.det(sylvester_matrix(rows[-1], n))) <= singularity_threshold(sylvester_matrix(rows[-1], n))
    ok, gains = solve_diophantine_batch(np.array(rows), _spread_target(n).lifted_coeffs(), n)
    near, rest = ok[: len(offsets)], ok[len(offsets) :]
    signs = np.sign(offsets)
    np.testing.assert_array_equal(near[signs != 0], signs[signs != 0] > 0)
    assert not rest.any() and gains.shape == (near.sum(), dim)


def test_batched_design_refuses_an_underflowing_pivot_product():
    # Abar = 1 + q - 2^-1070 q^3 and B = 2^40 (q + q^2): the Schur complement's
    # first column is [0, 0, 2^-1030], so its pivots are 2^-1030, 2^40 and
    # -2^40, the first partial product is subnormal and |det M| = 2^-950 is normal
    n = 2
    theta = np.array([-1.0, 0.0, 2.0**-1070, 2.0**40, 2.0**40])
    charpoly = reference_charpoly(sylvester_matrix(theta, n).tolist())
    assert abs(charpoly[-1]) == Fraction(2) ** -950  # the constant term is det(-M)
    ok, gains = solve_diophantine_batch(theta[None], _spread_target(n).lifted_coeffs(), n)
    assert not ok[0] and gains.shape == (0, 2 * n + 1)


def _design_batch_fresh(thetas: np.ndarray, lifted: np.ndarray, n: int):
    """`solve_diophantine_batch` with fresh arrays for every temporary: the reference for the workspace version.

    The same elimination, entry by entry across the stack, from a transposed
    copy of the draws, a concatenated [c; b] stack gathered into [M | b],
    `np.where` pivot swaps, Schur updates into new arrays and the pivot
    product by `np.prod`.  The gain rows are the transpose of a C-contiguous
    (2n+1, ok.sum()) block, the layout `solve_diophantine_batch` documents.
    """
    d = 2 * n + 1
    cols = np.ascontiguousarray(thetas.T).T  # each entry's stack contiguous
    # [M | b] in one gather, one (count,) array per entry
    gather = np.column_stack((sylvester_gather(n), np.arange(2 * n + 3, 4 * n + 4)))
    a = np.concatenate((sylvester_coeffs(cols, n).T, design_rhs(cols, lifted, n).T))[gather]
    thr = np.abs(a[:, 0])  # singularity_threshold's row sums, a column at a time
    for j in range(1, d):
        thr += np.abs(a[:, j])
    thr = SINGULAR_REL_THRESHOLD * np.maximum(1.0, thr.max(axis=0))
    with np.errstate(all="ignore"):
        for k in range(d):
            if k >= n:  # partial pivoting on the Schur complement
                for r in range(k + 1, d):
                    hit = np.abs(a[r, k]) > np.abs(a[k, k])
                    a[k, k:], a[r, k:] = np.where(hit, a[r, k:], a[k, k:]), np.where(hit, a[k, k:], a[r, k:])
                a[k + 1 :, k] /= a[k, k]
            j = max(k + 1, n)  # row k < n of U' is e_k up to column n
            a[k + 1 :, j:] -= a[k + 1 :, k, None] * a[k, None, j:]
        x = a[:, d]  # back substitution in place
        for k in range(d - 1, -1, -1):
            x[k] = (x[k] - np.einsum("jc,jc->c", a[k, k + 1 : d], x[k + 1 :])) / a[k, k]
        ok = np.abs(np.prod(a[range(n, d), range(n, d)], axis=0)) > thr
    return ok, np.ascontiguousarray(-x[_gain_order(n)][:, ok]).T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_design_in_a_workspace_has_the_bits_of_fresh_arrays(n):
    # the constants' chunk stream, one workspace for every chunk, each chunk
    # fed row-major and entry-major: at n = 2 the benchmark box and draws (45
    # full chunks, a partial one, the vertex chunk), elsewhere a seeded box
    # with two and a half chunks of draws
    if n == 2:
        box, target, samples = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0]), BENCH_TARGET, 100_000
    else:
        lo = np.random.default_rng(80 + n).uniform(-1.0, 1.0, 2 * n + 1)
        box, target, samples = BoxSet(lo, lo + 0.2), _spread_target(n), 5 * _chunk_rows(n) // 2
    rows, lifted = _chunk_rows(n), target.lifted_coeffs()
    work = _design_workspace(n, rows)
    work[:] = np.nan  # nothing may read a value the chunk did not write
    sizes = []
    for thetas in _box_chunks(box, np.random.default_rng(n), samples, rows):
        want = _design_batch_fresh(thetas, lifted, n)
        for order in "CF":
            got = solve_diophantine_batch(np.asarray(thetas, order=order), lifted, n, work)
            work[:] = np.nan  # and no result lives in the workspace
            for mine, ref in zip(got, want):
                assert mine.shape == ref.shape and mine.strides == ref.strides
                np.testing.assert_array_equal(np.ascontiguousarray(mine).view(np.uint8), np.ascontiguousarray(ref).view(np.uint8))
        sizes.append(thetas.shape[0])
    vertices = 2 ** (2 * n + 1)
    assert sizes[-1] == vertices and sizes[-2] == samples % rows and max(sizes) == rows
    # near-common roots, huge gains, and NaN and Inf entries, in a workspace sized for more rows
    hard = _certificate_rows(n, 600, seed=90 + n)
    hard[::97, ::3] = np.nan
    hard[50::101, -1] = np.inf
    want = _design_batch_fresh(hard, lifted, n)
    for order in "CF":
        for mine, ref in zip(solve_diophantine_batch(np.asarray(hard, order=order), lifted, n, work), want):
            assert mine.shape == ref.shape and mine.strides == ref.strides
            np.testing.assert_array_equal(np.ascontiguousarray(mine).view(np.uint8), np.ascontiguousarray(ref).view(np.uint8))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_design_threshold_builds_no_abs_matrix_stack(n):
    # one chunk, every row regular, in a workspace the caller passes: the
    # threshold's row sums of |M| are added a column at a time, so the peak
    # stays below the size of a (count, 2n+1, 2n+1) stack of |M|
    lo = np.random.default_rng(80 + n).uniform(-1.0, 1.0, 2 * n + 1)
    rows, lifted = _chunk_rows(n), _spread_target(n).lifted_coeffs()
    thetas = BoxSet(lo, lo + 0.2).sample(np.random.default_rng(n), rows)
    work = _design_workspace(n, rows)
    tracemalloc.start()
    try:
        ok, _ = solve_diophantine_batch(thetas, lifted, n, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok.all()
    stack = (2 * n + 1) ** 2 * rows * 8
    assert peak < stack, f"peak {peak} bytes, |M| stack {stack} bytes"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_batched_thresholds_have_the_bits_of_singularity_threshold(monkeypatch, n):
    # the solve sums |c| a column run at a time, left to right, the order in
    # which `singularity_threshold` sums each row of the assembled stack in
    # either layout, so every threshold has its bits: on certificate rows,
    # uniform draws, box vertices whose entries include -0.0 and +0.0, draws
    # with signed zeros scattered in, draws spread over twelve decades (where
    # another summation order rounds some sums differently), and rows with a NaN
    rng = np.random.default_rng(200 + n)
    dim = 2 * n + 1
    lo = rng.uniform(-2.0, 0.0, dim)
    lo[::3] = -0.0
    hi = lo + rng.uniform(0.1, 2.0, dim)
    hi[1::3] = 0.0
    box = BoxSet(lo, hi)
    zeros = box.sample(rng, 100)
    zeros[rng.random(zeros.shape) < 0.3] = 0.0
    zeros[rng.random(zeros.shape) < 0.3] = -0.0
    thetas = np.concatenate((
        _certificate_rows(n, 600, seed=70 + n),
        box.sample(rng, 300),
        np.array(list(itertools.islice(box.vertices(), 300))),
        zeros,
        box.sample(rng, 300) * 10.0 ** rng.integers(-6, 7, (300, dim)),
    ))
    thetas[::97, ::3] = np.nan
    seen = []
    real = controller._row_sum_threshold

    def recording(rows):
        seen.append(real(rows))
        return seen[-1]

    monkeypatch.setattr(controller, "_row_sum_threshold", recording)
    solve_diophantine_batch(thetas, _spread_target(n).lifted_coeffs(), n)
    stack = sylvester_matrix(thetas, n)
    entry_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
    assert len(seen) == 1 and np.isnan(seen[0][::97]).all()
    bits = seen[0].view(np.uint64)
    np.testing.assert_array_equal(bits, reference_threshold(stack).view(np.uint64))
    for layout in (stack, entry_major):
        np.testing.assert_array_equal(bits, singularity_threshold(layout).view(np.uint64))
    # one matrix at a time, as the fresh solve reads them
    singles = np.array([singularity_threshold(m) for m in stack])
    np.testing.assert_array_equal(bits, singles.view(np.uint64))


def test_fresh_and_batched_solves_share_threshold_bits_on_the_order4_run(monkeypatch):
    # every estimate the order-4 example logs, through the fresh solve one at
    # a time and through one batched solve: the thresholds agree bit for bit
    cfg = load_config(os.path.join(ROOT, "examples", "order4.json"))[0]
    thetas = np.unique(run_closed_loop(cfg).theta_hat, axis=0)
    fresh, batched = [], []
    real_margin, real_threshold = controller.sylvester_margin, controller._row_sum_threshold

    def recording_margin(m):
        out = real_margin(m)
        fresh.append(out[1])
        return out

    def recording_threshold(rows):
        batched.append(real_threshold(rows))
        return batched[-1]

    monkeypatch.setattr(controller, "sylvester_margin", recording_margin)
    monkeypatch.setattr(controller, "_row_sum_threshold", recording_threshold)
    for theta in thetas:
        solve_gains(theta, cfg.target)
    assert solve_diophantine_batch(thetas, cfg.target.lifted_coeffs(), cfg.n).ok.all()
    assert len(fresh) == thetas.shape[0] > 100 and len(batched) == 1
    np.testing.assert_array_equal(np.array(fresh).view(np.uint64), batched[0].view(np.uint64))


def _solve_gains_reference(theta, target):
    """The gain row of a fresh solve, from the fresh arrays of `sylvester_matrix` and `design_rhs`."""
    n = target.n
    m = sylvester_matrix(theta, n)
    margin, threshold, regular = sylvester_margin(m)
    gains = None
    if regular:
        gains = -np.linalg.solve(m, design_rhs(theta, target.lifted_coeffs(), n))[_gain_order(n)]
    return margin, threshold, regular, gains


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_fresh_solve_keeps_the_verdict_margin_and_threshold_at_the_threshold(n):
    # scale b by s and bisect s down to two neighbouring floats whose systems
    # fall on either side of the threshold: `solve_gains` must give each the
    # verdict of `sylvester_margin`, raise with its margin and threshold bits
    # on the singular one, and return the reference gain row's bits on the
    # regular one; a few generic estimates are checked as well
    rng = np.random.default_rng(300 + n)
    target = _spread_target(n)
    base = rng.uniform(-1.0, 1.0, 2 * n + 1)
    base[n + 1 :] = rng.uniform(0.5, 1.5, n)

    def at(s):
        theta = base.copy()
        theta[n + 1 :] *= s
        return theta

    lo, hi = 0.0, 1.0
    assert not _solve_gains_reference(at(lo), target)[2] and _solve_gains_reference(at(hi), target)[2]
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        lo, hi = (lo, mid) if _solve_gains_reference(at(mid), target)[2] else (mid, hi)
    cases = [at(lo), at(hi)] + list(rng.uniform(-2.0, 2.0, (5, 2 * n + 1)))
    verdicts = []
    for theta in cases:
        margin, threshold, regular, gains = _solve_gains_reference(theta, target)
        verdicts.append(bool(regular))
        if regular:
            np.testing.assert_array_equal(solve_gains(theta, target).view(np.uint64), gains.view(np.uint64))
        else:
            with pytest.raises(SingularSylvesterError) as info:
                solve_gains(theta, target)
            assert np.float64(info.value.margin).view(np.uint64) == np.float64(margin).view(np.uint64)
            assert np.float64(info.value.threshold).view(np.uint64) == np.float64(threshold).view(np.uint64)
    assert verdicts[:2] == [False, True]


# the batched design of 5,000 seeded benchmark draws, as the digest of its ok and gains bytes
_DESIGN_DIGEST = """
import hashlib
import numpy as np
from adaptive_pp import BoxSet, TargetPolynomial, solve_diophantine_batch

box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
thetas = box.sample(np.random.default_rng(0), 5000)
ok, gains = solve_diophantine_batch(thetas, TargetPolynomial([1.0, -0.6], 2).lifted_coeffs(), 2)
digest = hashlib.sha256(ok.tobytes() + np.ascontiguousarray(gains).tobytes()).hexdigest()
"""


def test_design_does_not_depend_on_the_blas_kernel():
    # the elimination is elementwise numpy arithmetic, so a child process
    # held to OpenBLAS's Nehalem kernels (SSE only) gets the same bits
    src = os.path.dirname(os.path.dirname(adaptive_pp.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _DESIGN_DIGEST + "print(digest)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    scope = {}
    exec(_DESIGN_DIGEST, scope)
    assert child.stdout.strip() == scope["digest"]


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
    # an object gain row is read as float64 too, like the estimate
    thirds = closed_loop_matrix(theta, np.array([Fraction(k, 3) for k in range(5)], dtype=object))
    assert thirds.dtype == np.float64
    np.testing.assert_array_equal(thirds[3], np.arange(5) / 3)


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
    mat = closed_loop_matrix(np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(np.linalg.matrix_power(mat, 3), np.zeros((3, 3)))


def test_spectrum_matches_the_target_in_coefficient_space():
    rng = np.random.default_rng(29)
    aux_box = BoxSet([-1.0, -3.0, 1.0, -1.0, -5.0], [1.0, 1.0, 3.0, 0.0, -3.0])
    lifted = BENCH_TARGET.lifted_coeffs()
    for vec in aux_box.sample(rng, 50):
        try:
            K = solve_gains(vec, BENCH_TARGET)
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
    K = solve_gains(theta, TargetPolynomial([1.0, -0.5], 1))
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


def _recursion(psi, theta_hat, gains, e) -> dict:
    """`state_recursion_audit` on a stand-in trajectory holding these columns; it reads no config."""
    traj = SimpleNamespace(psi=psi, theta_hat=theta_hat, gains=gains, e=e)
    return state_recursion_audit(traj, None, None)


def test_recursion_audit_is_exact_on_generated_data():
    psi, theta_log, gains_log, e = _recursion_rollout(200, 4)
    record = _recursion(psi, theta_log, gains_log, e)
    assert record["pass"] and record["max_residual"] <= 1e-12


def test_recursion_audit_detects_a_spike():
    psi, theta_log, gains_log, e = _recursion_rollout(200, 4)
    psi = psi.copy()
    psi[100, 1] += 0.5
    record = _recursion(psi, theta_log, gains_log, e)
    assert not record["pass"] and record["violations"] == 1
    assert record["max_residual"] >= 0.5 - 1e-9


def test_recursion_audit_detects_a_wrong_gain_row_and_a_nan():
    psi, theta_log, gains_log, e = _recursion_rollout(200, 4)
    wrong = gains_log.copy()
    wrong[50, 2] += 1e-3
    record = _recursion(psi, theta_log, wrong, e)
    assert not record["pass"] and record["max_residual"] >= 1e-3 * abs(psi[50, 2]) * 0.5
    for log in (psi, theta_log, gains_log):
        bad = log.copy()
        bad[120, 0] = np.nan
        args = [bad if arr is log else arr for arr in (psi, theta_log, gains_log)]
        record = _recursion(*args, e)
        assert not record["pass"] and record["violations"] == 1


def test_recursion_audit_trivial_cases():
    zeros = np.zeros((1, 3))
    record = _recursion(zeros, zeros, zeros, np.zeros(1))
    assert record == {"violations": 0, "pass": True, "max_residual": 0.0}
