"""Command-line interface: exit codes, artifacts, manifests, determinism."""

import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest

from adaptive_pp import BoxSet, ConstantsEstimate, SimConfig, Trajectory, image_box, run_audits
from adaptive_pp.cli import ConfigError, load_config, main
from conftest import BENCHMARK_CONFIG, ROOT

GOLDEN = os.path.join(ROOT, "out", "benchmark")

FAST = {"horizon": 200, "alpha_samples": 2000}

SINGULAR_FIRST_ORDER = dict(
    n=1,
    plant={"a": [0.5], "b": [2.0]},
    parameter_box={"a": [[0.3, 0.7]], "b": [[0.0, 4.0]]},
    target_poly=[1.0, -0.5],
    theta0=[1.5, -0.5, 0.0],  # zero numerator estimate: the design is singular
    phi0=[0.0, 0.0, 0.0, 0.0],
    reference={"kind": "constant", "magnitude": 0.0},
    disturbance={"kind": "constant", "magnitude": 0.0},
    horizon=5,
    audits=["recursion", "poles"],
    alpha_samples=500,
)


def _refuse_constant(name):
    raise ValueError(f"manifest holds the non-standard JSON constant {name}")


def read_manifest(out_dir) -> dict:
    """Parse manifest.json strictly: NaN and Infinity are not standard JSON."""
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_refuse_constant)


# ---------------------------------------------------------------------------
# config loading


def test_load_config_accepts_the_shipped_example(config_file):
    cfg, extras, digest = load_config(config_file())
    assert cfg.n == 2 and cfg.horizon == 1000
    assert cfg.audits == ("estimator", "recursion", "poles", "crude_bound", "tracking")
    assert extras["sweep"]["draws"] == 100
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_config_hash_tracks_content(config_file):
    d1 = load_config(config_file())[2]
    d2 = load_config(config_file())[2]
    d3 = load_config(config_file(horizon=999))[2]
    assert d1 == d2
    assert d1 != d3


def test_audits_default_when_omitted(config_file):
    cfg, _, _ = load_config(config_file(drop=("audits",)))
    assert cfg.audits == ("estimator", "recursion", "poles")


def test_omitted_optional_keys_take_the_simconfig_defaults(config_file):
    omitted = ("t0", "seed", "estimator", "audits", "alpha_samples", "tracking_tail")
    cfg, _, _ = load_config(config_file(drop=omitted))
    for field in dataclasses.fields(SimConfig):
        if field.default is not dataclasses.MISSING:
            assert getattr(cfg, field.name) == field.default, field.name


@pytest.mark.parametrize(
    "mutation",
    [
        dict(drop=("mu",)),
        dict(mu=0.0),
        dict(mu=-3.0),
        dict(schema_version=2),
        dict(horizon=0),
        dict(audits=["spectral"]),
        dict(extra_key=1),
        dict(theta0=[0.0, 0.0]),
        dict(target_poly=[1.0, -1.5]),
        dict(plant={"a": [-0.5, -1.5], "b": [0.0, 0.0]}),
        dict(parameter_box={"a": [[0, 1]], "b": [[0, 1]]}),
        dict(reference={"kind": "mystery"}),
        dict(sweep={"draws": 10, "overrides": {"gain": 2}}),
        dict(tracking_tail=0),
        dict(mu=float("inf")),
        dict(n=2.0),
        dict(horizon=300.7),
        dict(horizon="300"),
        dict(t0=0.5),
        dict(seed=False),
        dict(alpha_samples=1e3),
        dict(tracking_tail=100.0),
        dict(reference={"kind": "sign_flip", "magnitude": 2.0, "period": 100.9}),
        dict(disturbance={"kind": "sign_flip", "magnitude": 0.5, "period": True}),
        dict(nudge_singular="no"),
        dict(nudge_singular=0),
        dict(sweep={"draws": 10.5}),
        dict(sweep={"draws": 10, "seed": 1.5}),
        dict(sweep={"draws": 10, "horizon": "400"}),
        dict(sweep={"draws": 10, "overrides": {"theta": 1}}),
        dict(sweep={"draws": 10, "overrides": {"theta0": "yes"}}),
        # every number must be a finite JSON number, never a string or a boolean
        dict(mu="0.1"),
        dict(mu=True),
        {"lambda": "0.8"},
        dict(reference={"kind": "sign_flip", "magnitude": "2", "period": 200}),
        dict(reference={"kind": "constant", "magnitude": False}),
        dict(disturbance={"kind": "sign_flip", "magnitude": float("nan"), "period": 250}),
        dict(disturbance={"kind": "constant", "magnitude": float("inf")}),
        dict(reference={"kind": "custom", "values": ["2.0"] * 1001}),
        dict(theta0=["0.0", "-1.0", "2.0", "-0.5", "-4.0"]),
        dict(phi0=-1.0),
        dict(target_poly=[True, -0.6]),
        dict(plant={"a": ["-0.5", -1.5], "b": [-0.75, -3.0]}),
        dict(parameter_box={"a": [[-2.0, 0.0], [-3.0, "-1"]], "b": [[-1.0, 0.0], [-5.0, -3.0]]}),
        dict(sweep={"draws": 10, "overrides": {"mu": ["1e-3", 1.0]}}),
        dict(sweep={"draws": 10, "overrides": {"mu": [1e-3]}}),
        dict(sweep={"draws": 10, "overrides": {"mu": [1.0, 1e-6]}}),
        dict(sweep={"draws": 10, "overrides": {"mu": [0.0, 1.0]}}),
        dict(sweep={"draws": 10, "overrides": {"phi0": "5"}}),
        dict(mu=10**400),
        # the output directory must be a JSON string
        dict(out=5),
        dict(out=True),
        dict(out=["out"]),
        # a section that is not an object, a reversed box pair, plant lengths other than n
        dict(plant=[1]),
        dict(parameter_box={"a": [[0.0, -2.0], [-3.0, -1.0]], "b": [[-1.0, 0.0], [-5.0, -3.0]]}),
        dict(plant={"a": [-0.5], "b": [-0.75, -3.0]}),
        # finite bounds whose width overflows, which no draw can scale by
        dict(parameter_box={"a": [[-1e308, 1e308], [-3.0, -1.0]], "b": [[-1.0, 0.0], [-5.0, -3.0]]}),
        # an audit named twice
        dict(audits=["poles", "poles", "estimator"]),
        # a negative phi0 scale, which no uniform draw on [-c, c] can take
        dict(sweep={"draws": 10, "overrides": {"phi0": -5.0}}),
        # times and a sign-flip period beyond int64, which the t column and
        # the step index cannot hold
        dict(t0=10**20),
        dict(disturbance={"kind": "sign_flip", "magnitude": 0.5, "period": 10**19}),
    ],
)
def test_load_config_rejects_bad_content(config_file, mutation):
    drop = mutation.pop("drop", ())
    path = config_file(drop=drop, **mutation)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_names_a_repeated_audit(config_file):
    with pytest.raises(ConfigError, match="^bad config: audits must name each audit once"):
        load_config(config_file(audits=["poles", "poles", "estimator"]))


@pytest.mark.parametrize("value", [5, None, ["classical"]])
def test_load_config_names_a_non_string_estimator(config_file, value):
    with pytest.raises(ConfigError, match="^estimator must be a string"):
        load_config(config_file(estimator=value))


def test_load_config_names_the_estimator_key_for_an_unknown_law(config_file):
    with pytest.raises(ConfigError, match="^bad config: estimator must be 'classical' or 'ideal'"):
        load_config(config_file(estimator="Ideal"))


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_load_config_names_the_lambda_key_outside_its_range(config_file, lam):
    # the example's target has its pole at 0.6, so lambda must lie in (0.6, 1)
    with pytest.raises(ConfigError, match=r"^bad config: lambda must lie in \(0\.600000, 1\)"):
        load_config(config_file({"lambda": lam}))


def test_load_config_rejects_unreadable_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(garbled))


# ---------------------------------------------------------------------------
# run


def test_run_writes_csv_and_manifest(config_file, tmp_path):
    out = tmp_path / "run"
    code = main(["run", config_file(**FAST), "--out", str(out), "--quiet"])
    assert code == 0

    csv_lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(csv_lines) == 201  # header + one row per step
    assert csv_lines[0].startswith("t,y,u,w,r,ybar,ubar,wbar,e,psi_1")

    manifest = read_manifest(out)
    assert manifest["command"] == "run"
    assert manifest["status"] == "pass"
    assert manifest["outputs"] == ["trajectory.csv"]
    assert set(manifest["audits"]) == {"estimator", "recursion", "poles", "crude_bound", "tracking"}
    assert all(sec["pass"] for sec in manifest["audits"].values())
    assert manifest["gain_bound"]["gamma"] > 0.0
    assert manifest["constants"]["s_bar"] == pytest.approx(np.sqrt(29.0))
    assert len(manifest["config_hash"]) == 64
    assert manifest["wall_time_s"] > 0.0


def _order_n(n: int) -> dict:
    """Config entries for a seeded order-n plant, its box and a start at the box center."""
    rng = np.random.default_rng(60 + n)
    plant = np.concatenate((rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n)))
    box = BoxSet(plant - 0.1, plant + 0.1)
    bounds = [[lo, hi] for lo, hi in zip(box.lo.tolist(), box.hi.tolist())]
    return dict(
        n=n,
        plant={"a": plant[:n].tolist(), "b": plant[n:].tolist()},
        parameter_box={"a": bounds[:n], "b": bounds[n:]},
        target_poly=[1.0, -0.5],
        theta0=image_box(box, n).center.tolist(),
        phi0=rng.uniform(-1.0, 1.0, 2 * (n + 1)).tolist(),
        audits=["recursion", "poles"],
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_run_emits_plot_scripts(n, config_file, tmp_path):
    out = tmp_path / "plots"
    path = config_file(**FAST, **({} if n == 2 else _order_n(n)))
    code = main(["run", path, "--out", str(out), "--plots", "--quiet"])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["outputs"] == ["trajectory.csv", "signals.gp", "estimates.gp"]
    signals = (out / "signals.gp").read_text()
    estimates = (out / "estimates.gp").read_text()
    assert "set terminal pngcairo" in signals and "trajectory.csv" in signals
    # every curve is plotted against t from the column its name has in the header
    col = {name: i for i, name in enumerate(Trajectory.header(n), start=1)}
    using = re.compile(r"using (\d+):(\d+) with lines")
    assert using.findall(signals) == [(str(col["t"]), str(col[name])) for name in "yruw"]
    first = col["thetahat_1"]
    assert using.findall(estimates) == [(str(col["t"]), str(first + i)) for i in range(2 * n + 1)]
    assert "dashtype 2" in estimates  # true-parameter reference lines


def test_run_console_output_and_quiet(config_file, capsys):
    path = config_file(horizon=200, alpha_samples=500, audits=["recursion", "poles"])
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        assert main(["run", path, "--out", out]) == 0
        loud = capsys.readouterr().out
        assert "audit recursion: PASS" in loud
        assert "audit poles: PASS" in loud
        assert "gain bound: gamma" in loud

        assert main(["run", path, "--out", out, "--quiet"]) == 0
        assert capsys.readouterr().out == ""


def test_run_uses_the_config_out_directory(config_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = config_file(out="configured_out", horizon=120, audits=["recursion"])
    assert main(["run", path, "--quiet"]) == 0
    assert (tmp_path / "configured_out" / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "extra",
    [
        {},
        # theta0 is the centre of the incremental box, so the nudge cannot move it
        dict(nudge_singular=True, parameter_box={"a": [[0.3, 0.7]], "b": [[-4.0, 4.0]]}, t0=3),
    ],
    ids=["no_nudge", "nudge_at_centre"],
)
def test_run_aborts_with_exit_3_on_a_singular_design(config_file, tmp_path, extra):
    out = tmp_path / "sing"
    # an earlier good run into the same directory must not outlive the abort
    good = config_file(horizon=120, audits=["recursion"], alpha_samples=500)
    assert main(["run", good, "--out", str(out), "--plots", "--quiet"]) == 0
    path = config_file(**{**SINGULAR_FIRST_ORDER, **extra})
    code = main(["run", path, "--out", str(out), "--quiet"])
    assert code == 3
    manifest = read_manifest(out)
    assert manifest["status"] == "aborted"
    assert "singular" in manifest["error"]
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_plain_run_removes_the_plot_scripts_of_an_earlier_run(config_file, tmp_path):
    out = tmp_path / "rerun"
    order3 = config_file(**FAST, **_order_n(3))
    assert main(["run", order3, "--out", str(out), "--plots", "--quiet"]) == 0
    assert main(["run", config_file(**FAST), "--out", str(out), "--quiet"]) == 0
    present = sorted(os.listdir(out))
    assert not [name for name in present if name.endswith(".gp")]
    assert sorted(read_manifest(out)["outputs"]) == [n for n in present if n != "manifest.json"]


def test_run_ideal_law_example_passes_the_estimator_audit(config_file, tmp_path):
    out = tmp_path / "ideal"
    assert main(["run", config_file(estimator="ideal"), "--out", str(out), "--quiet"]) == 0
    manifest = read_manifest(out)
    assert manifest["estimator"] == "ideal"
    assert manifest["audits"]["estimator"]["violations"] == 0


def test_run_nudge_option_recovers_the_singular_start(config_file, tmp_path):
    out = tmp_path / "nudged"
    path = config_file(nudge_singular=True, **SINGULAR_FIRST_ORDER)
    assert main(["run", path, "--out", str(out), "--quiet"]) == 0
    assert read_manifest(out)["status"] == "pass"


def test_run_exit_2_on_config_errors(config_file, tmp_path, capsys):
    assert main(["run", config_file(mu=-1.0), "--quiet"]) == 2
    # non-integer or non-boolean values are refused, not truncated or coerced
    assert main(["run", config_file(horizon=300.7), "--quiet"]) == 2
    assert main(["run", config_file(nudge_singular="no"), "--quiet"]) == 2
    assert main(["run", config_file(mu=float("inf")), "--quiet"]) == 2
    nan_signal = {"kind": "sign_flip", "magnitude": float("nan"), "period": 250}
    assert main(["run", config_file(disturbance=nan_signal), "--quiet"]) == 2
    assert main(["run", config_file(out=5), "--quiet"]) == 2
    assert main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 2
    # a tracking window the horizon cannot hold is a config-level error, and
    # it leaves the files of an earlier run in the same directory as they were
    out = tmp_path / "x"
    good = config_file(horizon=120, audits=["recursion"], alpha_samples=500)
    assert main(["run", good, "--out", str(out), "--quiet"]) == 0
    before = {name: (out / name).read_bytes() for name in ("trajectory.csv", "manifest.json")}
    bad = config_file(horizon=150, tracking_tail=140, alpha_samples=500)
    assert main(["run", bad, "--out", str(out), "--quiet"]) == 2
    assert {name: (out / name).read_bytes() for name in before} == before
    # an output directory that is a file: one error line and exit 2, not a
    # traceback and the audit-violation exit 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    for argv in (["run", good], ["sweep", good, "--draws", "1"], ["audit", str(out / "trajectory.csv"), good]):
        assert main(argv + ["--out", str(blocker), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_a_negative_seed_is_a_config_error(config_file, tmp_path):
    # numpy's generators refuse a negative seed, so the loader refuses it first:
    # exit 2 and nothing written, never the audit-violation exit 1
    fast = dict(horizon=100, audits=["recursion", "crude_bound"], alpha_samples=500)
    good = tmp_path / "good"
    assert main(["run", config_file(**fast), "--out", str(good), "--quiet"]) == 0
    csv = str(good / "trajectory.csv")
    for bad in (config_file(seed=-1, **fast), config_file(sweep={"draws": 2, "seed": -1}, **fast)):
        with pytest.raises(ConfigError, match=r"^bad (config: |sweep: sweep\.)seed must be an integer >= 0, got -1$"):
            load_config(bad)
        out = tmp_path / "out"
        assert main(["run", bad, "--out", str(out), "--quiet"]) == 2
        assert main(["audit", csv, bad, "--out", str(out), "--quiet"]) == 2
        assert main(["sweep", bad, "--out", str(out), "--quiet"]) == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "mutation",
    [
        dict(t0=2**63 - 100),
        dict(t0=10**20),
        dict(disturbance={"kind": "sign_flip", "magnitude": 0.5, "period": 10**19}),
    ],
    ids=["t0-wraps", "t0-beyond-int64", "period-beyond-int64"],
)
def test_run_refuses_times_beyond_int64(config_file, tmp_path, capsys, mutation):
    # the t column and a sign flip's step index are int64s: a config they
    # cannot hold exits 2 naming the key, before the output directory is made
    out = tmp_path / "never"
    path = config_file(horizon=300, audits=["recursion"], **mutation)
    assert main(["run", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    if "t0" in mutation:
        assert err.startswith("error: bad config: t0, horizon and t0 + horizon - 1 must be int64 integers"), err
    else:
        assert err.startswith("error: bad disturbance: sign_flip needs an integer period in [1, 2**63 - 1]"), err
    assert not out.exists()


def test_run_single_step_horizon(config_file, tmp_path):
    out = tmp_path / "one"
    path = config_file(horizon=1, audits=["estimator", "recursion", "poles"], alpha_samples=500)
    assert main(["run", path, "--out", str(out), "--quiet"]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 2
    # one record has no pairs to check: its infinite worst slacks are written as null
    estimator = read_manifest(out)["audits"]["estimator"]
    assert estimator["pass"] and estimator["min_slack_energy"] is None


# ---------------------------------------------------------------------------
# audit


def test_audit_roundtrip_reproduces_a_clean_verdict(config_file, tmp_path):
    out = tmp_path / "base"
    path = config_file(**FAST)
    assert main(["run", path, "--out", str(out), "--quiet"]) == 0
    csv_path = str(out / "trajectory.csv")

    audit_out = tmp_path / "audited"
    code = main(["audit", csv_path, path, "--out", str(audit_out), "--quiet"])
    assert code == 0
    manifest = read_manifest(audit_out)
    assert manifest["command"] == "audit"
    assert manifest["status"] == "pass"
    assert manifest["trajectory"].endswith("trajectory.csv")
    # both paths read phi0, lambda and the law's mu from the config
    run_manifest = read_manifest(out)
    assert manifest["audits"] == run_manifest["audits"]
    assert manifest["gain_bound"] == run_manifest["gain_bound"]


def test_audit_flags_a_corrupted_trajectory(config_file, tmp_path):
    out = tmp_path / "base"
    path = config_file(horizon=150, audits=["recursion", "poles"], alpha_samples=500)
    assert main(["run", path, "--out", str(out), "--quiet"]) == 0
    csv_path = out / "trajectory.csv"

    lines = csv_path.read_text().splitlines()
    fields = lines[40].split(",")
    fields[9] = f"{float(fields[9]) + 1.0:.17g}"  # bend psi_1 on one row
    lines[40] = ",".join(fields)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")

    assert main(["audit", str(tampered), path, "--quiet"]) == 1


def test_audit_counts_non_finite_values_as_violations(tmp_path):
    with open(os.path.join(GOLDEN, "trajectory.csv"), "r", encoding="ascii") as fh:
        golden_lines = fh.read().splitlines()
    cfg, _, _ = load_config(BENCHMARK_CONFIG)
    constants = ConstantsEstimate(**read_manifest(GOLDEN)["constants"])

    def tamper(row: int, cols: slice, audits: tuple) -> str:
        lines = list(golden_lines)
        fields = lines[row + 1].split(",")
        fields[cols] = ["nan"] * len(fields[cols])
        lines[row + 1] = ",".join(fields)
        tampered = tmp_path / f"nan_{row}.csv"
        tampered.write_text("\n".join(lines) + "\n")
        traj = Trajectory.from_csv(tampered.read_text(), cfg)
        results = run_audits(traj, dataclasses.replace(cfg, audits=audits), constants)
        for name, res in results.items():
            assert res["violations"] >= 1 and not res["pass"], name
        return str(tampered)

    # data row 300: its psi, thetahat, and K blocks
    psi_block = tamper(300, slice(9, 24), ("estimator", "recursion", "poles", "crude_bound"))
    assert main(["audit", psi_block, BENCHMARK_CONFIG, "--quiet"]) == 1
    # data row 1950, inside the final 100 rows: its w, r and ybar columns; a
    # non-finite w or r is a violation, not a window that is not constant
    for col in (3, 4, 5):
        tail = tamper(1950, slice(col, col + 1), ("tracking",))
        assert main(["audit", tail, BENCHMARK_CONFIG, "--quiet"]) == 1


def test_audit_rejects_schema_violations_with_exit_2(config_file, tmp_path):
    out = tmp_path / "base"
    path = config_file(horizon=100, audits=["recursion"], alpha_samples=500)
    assert main(["run", path, "--out", str(out), "--quiet"]) == 0
    csv_path = out / "trajectory.csv"

    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(csv_path.read_text().splitlines()[:-5]) + "\n")
    assert main(["audit", str(truncated), path, "--quiet"]) == 2
    assert main(["audit", str(tmp_path / "ghost.csv"), path, "--quiet"]) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_per_draw_rows(config_file, tmp_path):
    out = tmp_path / "sweep"
    path = config_file(
        horizon=120,
        audits=["estimator", "recursion", "poles"],
        alpha_samples=500,
    )
    code = main([
        "sweep", path, "--draws", "3", "--seed", "5", "--horizon", "80",
        "--out", str(out), "--quiet",
    ])
    assert code == 0

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == (
        "draw,mu,gamma,lam,residual_floor,tail_tracking,violations,aborted,"
        "violations_estimator,violations_recursion,violations_poles"
    )
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]

    manifest = read_manifest(out)
    assert manifest["command"] == "sweep"
    assert manifest["status"] == "pass"
    assert manifest["draws"] == 3
    assert manifest["total_violations"] == 0
    assert manifest["aborted_draws"] == 0
    assert manifest["worst_gamma"] > 0.0


@pytest.mark.parametrize(
    "args,overrides",
    [
        (["--draws", "0"], None),
        (["--draws", "2", "--horizon", "0"], None),
        (["--draws", "2"], {"mu": [0.0, 1.0]}),
        (["--draws", "2"], {"mu": [1.0, 0.5]}),
        (["--draws", "2"], {"mu": [1.0, 1e-6]}),
        (["--draws", "2"], {"phi0": -5.0}),
    ],
    ids=["zero-draws", "zero-horizon", "mu-from-zero", "mu-reversed", "mu-reversed-wide", "phi0-negative"],
)
def test_sweep_rejects_bad_input_with_exit_2(config_file, tmp_path, capsys, args, overrides):
    out = tmp_path / "bad_sweep"
    sweep = {"draws": 2} if overrides is None else {"draws": 2, "overrides": overrides}
    path = config_file(horizon=100, audits=["recursion"], alpha_samples=500, sweep=sweep)
    assert main(["sweep", path, "--out", str(out), "--quiet"] + args) == 2
    assert "error: bad sweep" in capsys.readouterr().err
    # refused before the output directory is made, so nothing is written
    assert not out.exists()


@pytest.mark.parametrize(
    "args, sweep",
    [
        (["--seed", "-1"], {"draws": 2}),
        (["--draws", "0"], None),
        (["--draws", "-3"], None),
        (["--horizon", "0"], {"draws": 2}),
        ([], {"draws": 0}),
        ([], {"draws": 2, "horizon": 0}),
    ],
    ids=["seed", "draws-zero", "draws-negative", "horizon", "config-draws", "config-horizon"],
)
def test_sweep_refuses_a_bad_setting_before_writing(config_file, tmp_path, capsys, args, sweep):
    out = tmp_path / "never"
    path = config_file(horizon=100, audits=["recursion"], alpha_samples=500, sweep=sweep)
    assert main(["sweep", path, "--out", str(out), "--quiet"] + args) == 2
    err = capsys.readouterr().err
    name = args[0] if args else "sweep." + next(k for k, v in sweep.items() if v < 1)
    assert f"error: bad sweep: {name} must be an integer >= " in err, err
    assert "expected non-negative integer" not in err
    assert not out.exists()


@pytest.mark.parametrize("sweep", [{"draws": 0}, {"draws": 2, "horizon": 0}], ids=["draws", "horizon"])
def test_run_and_audit_refuse_a_bad_sweep_block(config_file, tmp_path, capsys, sweep):
    # every command loads the sweep block, so each refuses it as sweep does
    out = tmp_path / "never"
    path = config_file(horizon=100, audits=["recursion"], sweep=sweep)
    key = next(k for k, v in sweep.items() if v < 1)
    for argv in (["run", path], ["audit", os.path.join(GOLDEN, "trajectory.csv"), path]):
        assert main(argv + ["--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad sweep: sweep.{key} must be an integer >= 1, got 0"), err
    assert not out.exists()


def test_sweep_requires_a_draw_count(config_file, tmp_path):
    path = config_file(drop=("sweep",), horizon=100)
    assert main(["sweep", path, "--out", str(tmp_path / "s"), "--quiet"]) == 2


def test_sweep_falls_back_to_the_config_sweep_block(config_file, tmp_path):
    out = tmp_path / "cfg_sweep"
    path = config_file(
        sweep={"draws": 2, "horizon": 60},
        audits=["recursion", "poles"],
        alpha_samples=500,
    )
    assert main(["sweep", path, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + the config's two draws


def test_sweep_says_that_tracking_is_not_run_per_draw(config_file, tmp_path, capsys):
    # the console and the manifest name the skipped audit; sweep.csv is the
    # same as for a config that never listed it
    common = dict(sweep={"draws": 2, "horizon": 60}, alpha_samples=500)
    listed, unlisted = tmp_path / "listed", tmp_path / "unlisted"
    assert main(["sweep", config_file(audits=["recursion", "tracking"], **common), "--out", str(listed)]) == 0
    assert "sweep: tracking is not run per draw" in capsys.readouterr().out
    assert main(["sweep", config_file(audits=["recursion"], **common), "--out", str(unlisted)]) == 0
    assert "is not run per draw" not in capsys.readouterr().out
    for out, skipped in ((listed, ["tracking"]), (unlisted, [])):
        manifest = read_manifest(out)
        assert manifest["audits"] == ["recursion"] and manifest["skipped_audits"] == skipped
    assert (listed / "sweep.csv").read_bytes() == (unlisted / "sweep.csv").read_bytes()
    assert main(["sweep", config_file(audits=["tracking"], **common), "--out", str(listed), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_sweep_reports_aborted_draws_with_exit_3(config_file, tmp_path):
    out = tmp_path / "sweep_abort"
    cfg = dict(SINGULAR_FIRST_ORDER)
    cfg["sweep"] = {"draws": 2}
    path = config_file(**cfg)
    assert main(["sweep", path, "--out", str(out), "--quiet"]) == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert all(row.split(",")[7] == "1" for row in lines[1:])  # aborted column
    manifest = read_manifest(out)
    assert manifest["status"] == "aborted"
    assert manifest["aborted_draws"] == 2
    assert manifest["worst_gamma"] is None  # no finite gamma: null, not NaN


# ---------------------------------------------------------------------------
# determinism across invocations


def test_benchmark_run_reproduces_the_golden_artifacts(tmp_path):
    out = tmp_path / "bench"
    assert main(["run", BENCHMARK_CONFIG, "--out", str(out), "--quiet"]) == 0
    with open(os.path.join(GOLDEN, "trajectory.csv"), "rb") as fh:
        golden_csv = fh.read()
    assert (out / "trajectory.csv").read_bytes() == golden_csv
    manifest, golden = read_manifest(out), read_manifest(GOLDEN)
    for block in ("constants", "audits", "gain_bound"):
        assert manifest[block] == golden[block], block


def test_benchmark_sweep_reproduces_the_reference_digest(tmp_path):
    # the seed-0 sweep.csv digest that the benchmark checks its sweep against
    with open(os.path.join(ROOT, "perfbench", "reference.json"), "r", encoding="utf-8") as fh:
        want = json.load(fh)["sweep"]
    assert want["seed"] == 0
    out = tmp_path / "sweep"
    assert main(["sweep", BENCHMARK_CONFIG, "--seed", "0", "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == want["sha256"]


def test_repeated_runs_are_byte_identical(config_file, tmp_path):
    path = config_file(horizon=150, audits=["recursion", "poles"], alpha_samples=500)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", path, "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    m_a, m_b = read_manifest(out_a), read_manifest(out_b)
    for volatile in ("wall_time_s",):
        m_a.pop(volatile), m_b.pop(volatile)
    assert m_a == m_b


def test_repeated_sweeps_are_byte_identical(config_file, tmp_path):
    path = config_file(horizon=100, audits=["recursion"], alpha_samples=500)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--draws", "2", "--seed", "9", "--horizon", "60", "--quiet"]
    assert main(["sweep", path, "--out", str(out_a)] + args) == 0
    assert main(["sweep", path, "--out", str(out_b)] + args) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "adaptive-pp" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_exists():
    import adaptive_pp.__main__  # noqa: F401  (import proves wiring)
