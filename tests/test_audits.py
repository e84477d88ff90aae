"""The audit registry's record contract, checked on the golden trajectory for every registered audit."""

import dataclasses
import json
import os

import numpy as np
import pytest

from adaptive_pp import AUDIT_NAMES, ConstantsEstimate, Trajectory, run_audits
from adaptive_pp.cli import load_config, write_manifest
from conftest import BENCHMARK_CONFIG, ROOT

GOLDEN = os.path.join(ROOT, "out", "benchmark")

# the trajectory columns each registered audit reads; a new audit adds its own
READS = {
    "estimator": ("psi", "e", "wbar", "theta_hat"),
    "recursion": ("psi", "theta_hat", "gains", "e"),
    "poles": ("theta_hat", "gains", "dioph_residual"),
    "crude_bound": ("psi", "wbar"),
    "tracking": ("w", "r", "ybar"),
}


@pytest.fixture(scope="module")
def golden():
    """The golden run: its trajectory, config, sampled constants and manifest records."""
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    with open(os.path.join(GOLDEN, "trajectory.csv"), encoding="ascii") as fh:
        traj = Trajectory.from_csv(fh.read(), cfg)
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return traj, cfg, ConstantsEstimate(**manifest["constants"]), manifest["audits"]


def _violations(record, out_dir) -> int:
    """The record's violation count, after checking the contract every record keeps."""
    assert isinstance(record, dict)
    violations = record["violations"]
    assert type(violations) is int and violations >= 0
    assert record["pass"] is (violations == 0)
    write_manifest(str(out_dir), {"audits": {"record": record}})
    return violations


@pytest.mark.parametrize("name", AUDIT_NAMES)
def test_audit_record_contract(golden, name, tmp_path):
    traj, cfg, constants, records = golden
    cfg = dataclasses.replace(cfg, audits=(name,))
    record = run_audits(traj, cfg, constants)[name]
    assert _violations(record, tmp_path) == 0
    assert record == records[name]
    # a NaN in one entry of row 1950, inside the tracking tail, of each column read
    for column in READS[name]:
        bent = getattr(traj, column).copy()
        bent.reshape(traj.steps, -1)[1950, -1] = np.nan
        broken = dataclasses.replace(traj, **{column: bent})
        record = run_audits(broken, cfg, constants)[name]
        assert _violations(record, tmp_path) >= 1, column
