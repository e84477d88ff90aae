"""Shared fixtures: the benchmark plant, box, target, config builders and exact references."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from adaptive_pp import (
    BoxSet,
    PlantParameters,
    SignalSpec,
    SimConfig,
    TargetPolynomial,
)
from adaptive_pp.polynomial import SINGULAR_REL_THRESHOLD

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_CONFIG = os.path.join(ROOT, "examples", "paper_sec6.json")
BENCHMARK_CONFIG = os.path.join(ROOT, "configs", "benchmark.json")


# ---------------------------------------------------------------------------
# reference: plain Fraction Gaussian elimination and Faddeev-LeVerrier, the
# textbook loops the integer kernels of `adaptive_pp.exact` must agree with,
# and the singularity threshold from row sums in Python floats


def reference_solve(a, b):
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


def reference_charpoly(a):
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


def reference_threshold(m) -> np.ndarray:
    """`singularity_threshold` in Python floats: each row of |m| summed left to right.

    One threshold per matrix of a (..., d, d) stack; a NaN row sum gives NaN.
    """
    m = np.asarray(m, dtype=float)
    out = np.empty(m.shape[:-2])
    for index in np.ndindex(out.shape):
        sums = []
        for row in m[index].tolist():
            acc = 0.0
            for v in row:
                acc += abs(v)
            sums.append(acc)
        out[index] = math.nan if any(math.isnan(s) for s in sums) else SINGULAR_REL_THRESHOLD * max([1.0] + sums)
    return out


@pytest.fixture(scope="session")
def example_plant() -> PlantParameters:
    return PlantParameters(np.array([-0.5, -1.5]), np.array([-0.75, -3.0]))


@pytest.fixture(scope="session")
def example_box() -> BoxSet:
    return BoxSet(np.array([-2.0, -3.0, -1.0, -5.0]), np.array([0.0, -1.0, 0.0, -3.0]))


@pytest.fixture(scope="session")
def example_target() -> TargetPolynomial:
    return TargetPolynomial([1.0, -0.6], 2)


@pytest.fixture(scope="session")
def example_theta0() -> np.ndarray:
    return np.array([0.0, -1.0, 2.0, -0.5, -4.0])


@pytest.fixture(scope="session")
def example_phi0() -> np.ndarray:
    return np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0])


@pytest.fixture()
def example_config(example_plant, example_box, example_target, example_theta0, example_phi0):
    """Benchmark scenario as a SimConfig factory; fields overridable by kwargs."""

    def build(**kw) -> SimConfig:
        base = dict(
            n=2,
            theta_true=example_plant,
            box=example_box,
            target=example_target,
            mu=0.1,
            theta0=example_theta0,
            phi0=example_phi0,
            reference=SignalSpec("sign_flip", magnitude=2.0, period=200),
            disturbance=SignalSpec("sign_flip", magnitude=0.5, period=250),
            horizon=1000,
        )
        base.update(kw)
        return SimConfig(**base)

    return build


ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    """Collect acceptance-criterion verdict lines for the terminal summary."""

    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def config_file(tmp_path):
    """Write a config dict to a temp JSON file and return its path."""

    counter = [0]

    def write(overrides=None, drop=(), **top) -> str:
        with open(EXAMPLE_CONFIG, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.update(overrides or {})
        raw.update(top)
        for key in drop:
            raw.pop(key, None)
        counter[0] += 1
        path = tmp_path / f"config_{counter[0]}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    return write
