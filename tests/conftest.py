"""Shared fixtures: the benchmark plant, box, target, and config builders."""

import json
import os

import numpy as np
import pytest

from adaptive_pp import (
    BoxSet,
    PlantParameters,
    SignalSpec,
    SimConfig,
    TargetPolynomial,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_CONFIG = os.path.join(ROOT, "examples", "paper_sec6.json")
BENCHMARK_CONFIG = os.path.join(ROOT, "configs", "benchmark.json")


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
