"""Command-line front end: run one closed loop, sweep random draws, re-audit.

Exit codes: 0 when every requested audit passes, 1 when an audit reports
violations, 2 for configuration, trajectory-file or output-path problems, 3
when the design equation becomes singular and the run aborts.

Configs are strict JSON; unknown keys anywhere are rejected so typos cannot
silently change an experiment, and every number must be a finite JSON
number.  Every command writes a `manifest.json` summarizing inputs
(including a SHA-256 of the canonical config), outputs, audit results, and
timing; it is standard JSON (a non-finite value is written as null).  Every
output file is written whole or not at all (a sibling temp file, then a
rename), so neither a crash nor a failed render can leave a half-written or
emptied file next to finished data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .audits import gain_bound_fit, run_audits
from .controller import SingularSylvesterError, TargetPolynomial
from .plant import BoxSet, PlantParameters
from .simulation import (
    BoundReport,
    SignalSpec,
    SimConfig,
    Trajectory,
    TrajectoryFormatError,
    _check_decay_rate,
    _check_estimator_mode,
    _check_sweep,
    _write_whole,
    monte_carlo_sweep,
    run_closed_loop,
)

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(Exception):
    """The config file (or a stored trajectory) cannot be used as given."""


def _expect_keys(obj: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _exact(value, kind: type, where: str):
    """`value` itself if its JSON type is the one `kind` asks for; never coerced."""
    if type(value) is not kind:  # a bool is not an int here, and 300.7 is not 300
        names = {bool: "a boolean", int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}
        name = names[kind]
        raise ConfigError(f"{where} must be {name}, got {json.dumps(value)}")
    return value


def _float(value, where: str) -> float:
    """`value` as a float if it is a finite JSON number; strings and booleans are refused."""
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number, got {json.dumps(value)}")


def _floats(value, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {json.dumps(value)}")
    return np.array([_float(v, f"{where}[{k}]") for k, v in enumerate(value)], dtype=float)


def _signal(obj, where: str) -> SignalSpec:
    _expect_keys(obj, where, ("kind",), ("magnitude", "period", "values"))
    kind = obj["kind"]
    try:
        if kind == "constant":
            _expect_keys(obj, where, ("kind",), ("magnitude",))
            magnitude = _float(obj.get("magnitude", 0.0), f"{where}.magnitude")
            return SignalSpec("constant", magnitude=magnitude)
        if kind == "sign_flip":
            _expect_keys(obj, where, ("kind", "magnitude", "period"), ())
            return SignalSpec(
                "sign_flip",
                magnitude=_float(obj["magnitude"], f"{where}.magnitude"),
                period=_exact(obj["period"], int, f"{where}.period"),
            )
        if kind == "custom":
            _expect_keys(obj, where, ("kind", "values"), ())
            return SignalSpec("custom", values=_floats(obj["values"], f"{where}.values"))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {where}: {err}") from err
    raise ConfigError(f"{where}.kind must be 'constant', 'sign_flip', or 'custom'")


def _box(obj, n: int) -> BoxSet:
    _expect_keys(obj, "parameter_box", ("a", "b"))
    rows = []
    for name in ("a", "b"):
        part = obj[name]
        if not isinstance(part, list) or len(part) != n:
            raise ConfigError(f"parameter_box.{name} must list {n} [lo, hi] pairs")
        for k, pair in enumerate(part):
            bounds = _floats(pair, f"parameter_box.{name}[{k}]")
            if bounds.size != 2 or not bounds[0] <= bounds[1]:
                raise ConfigError(f"parameter_box.{name}[{k}] must be [lo, hi] with lo <= hi")
            rows.append(bounds)
    rows = np.array(rows)
    try:
        return BoxSet(rows[:, 0], rows[:, 1])
    except ValueError as err:
        raise ConfigError(f"bad parameter_box: {err}") from err


TOP_KEYS_REQUIRED = (
    "schema_version", "n", "plant", "parameter_box", "target_poly",
    "mu", "theta0", "phi0", "reference", "disturbance", "horizon",
)
# the optional keys that set a SimConfig field as they are: key, field, JSON type
_FIELD_KEYS = (
    ("t0", "t0", int), ("seed", "seed", int), ("estimator", "estimator_mode", str),
    ("tracking_tail", "tracking_tail", int), ("alpha_samples", "alpha_samples", int),
    ("audits", "audits", list),
)
TOP_KEYS_OPTIONAL = tuple(key for key, _, _ in _FIELD_KEYS) + ("lambda", "sweep", "out")


def load_config(path: str) -> tuple[SimConfig, dict, str]:
    """Parse and validate a config file.

    Returns the simulation config, a dict of CLI-level extras (sweep, out),
    and the SHA-256 hash of the canonical JSON rendering.  An optional key
    the file leaves out takes the `SimConfig` field's default.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err

    _expect_keys(raw, "config", TOP_KEYS_REQUIRED, TOP_KEYS_OPTIONAL)
    if raw["schema_version"] != 1:
        raise ConfigError("schema_version must be 1")
    n = _exact(raw["n"], int, "n")

    _expect_keys(raw["plant"], "plant", ("a", "b"))
    a = _floats(raw["plant"]["a"], "plant.a")
    b = _floats(raw["plant"]["b"], "plant.b")
    if a.size != n or b.size != n:
        raise ConfigError(f"plant.a and plant.b must each have length n = {n}")

    box = _box(raw["parameter_box"], n)
    try:
        target = TargetPolynomial(_floats(raw["target_poly"], "target_poly"), n)
    except ValueError as err:
        raise ConfigError(f"bad target_poly: {err}") from err

    sweep = raw.get("sweep")
    if sweep is not None:
        _expect_keys(sweep, "sweep", ("draws",), ("seed", "horizon", "overrides"))
        for key in ("draws", "seed", "horizon"):
            if key in sweep:
                _exact(sweep[key], int, f"sweep.{key}")
        overrides = _exact(sweep.get("overrides", {}), dict, "sweep.overrides")
        for key in ("theta", "theta0"):
            if key in overrides:
                _exact(overrides[key], bool, f"sweep.overrides.{key}")
        if "mu" in overrides:
            _floats(overrides["mu"], "sweep.overrides.mu")
        if "phi0" in overrides:
            _float(overrides["phi0"], "sweep.overrides.phi0")

    optional = {field: _exact(raw[key], kind, key) for key, field, kind in _FIELD_KEYS if key in raw}
    if raw.get("lambda") is not None:
        optional["lam"] = _float(raw["lambda"], "lambda")
    try:
        # SimConfig checks both as well; checked here, a refusal names the config key
        if "estimator_mode" in optional:
            _check_estimator_mode(optional["estimator_mode"], "estimator")
        if "lam" in optional:
            _check_decay_rate(optional["lam"], target, "lambda")
        cfg = SimConfig(
            n=n,
            theta_true=PlantParameters(a, b),
            box=box,
            target=target,
            mu=_float(raw["mu"], "mu"),
            theta0=_floats(raw["theta0"], "theta0"),
            phi0=_floats(raw["phi0"], "phi0"),
            reference=_signal(raw["reference"], "reference"),
            disturbance=_signal(raw["disturbance"], "disturbance"),
            horizon=_exact(raw["horizon"], int, "horizon"),
            **optional,
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad config: {err}") from err
    if sweep is not None:
        try:
            _check_sweep(cfg, "sweep.", **sweep)
        except ValueError as err:
            raise ConfigError(f"bad sweep: {err}") from err

    extras = {
        "sweep": sweep,
        "out": None if raw.get("out") is None else _exact(raw["out"], str, "out"),
    }
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return cfg, extras, digest


def write_manifest(out_dir: str, payload: dict) -> str:
    """Atomically write manifest.json (write to a sibling temp file, rename).

    The file is standard JSON: numpy scalars become plain numbers and a NaN
    or an infinity becomes null.
    """
    path = os.path.join(out_dir, "manifest.json")
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_whole(path, (text, "\n"))
    return path


def _json_ready(obj):
    """Recursively convert numpy scalars, and non-finite floats to None."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _manifest(out_dir: str, args, digest: str, started: float, body: dict) -> None:
    """Write a manifest: the command header, `body`, and the wall time since `started`."""
    write_manifest(out_dir, {
        "version": __version__,
        "command": args.command,
        "config_path": os.path.abspath(args.config),
        "config_hash": digest,
        **body,
        "wall_time_s": time.perf_counter() - started,
    })


def _using(n: int) -> Callable[[str], str]:
    """`using <t>:<col> with lines` for a trajectory.csv column name, at its header position."""
    col = {name: i for i, name in enumerate(Trajectory.header(n), start=1)}
    return lambda name: f"using {col['t']}:{col[name]} with lines"


def _signals_plot(n: int) -> str:
    use = _using(n)
    return (
        "set datafile separator comma\n"
        "set key autotitle columnhead\n"
        "set terminal pngcairo size 1200,900\n"
        "set output 'signals.png'\n"
        "set multiplot layout 3,1\n"
        "set xlabel 't'\n"
        f"plot 'trajectory.csv' {use('y')}, '' {use('r')}\n"
        f"plot 'trajectory.csv' {use('u')}\n"
        f"plot 'trajectory.csv' {use('w')}\n"
        "unset multiplot\n"
    )


def _estimates_plot(n: int, theta_star: np.ndarray) -> str:
    dim = 2 * n + 1
    use = _using(n)
    curves = [f"'trajectory.csv' {use(f'thetahat_{i}')}" for i in range(1, dim + 1)]
    refs = [
        f"{theta_star[i]:.17g} with lines dashtype 2 title 'true_{i + 1}'"
        for i in range(dim)
    ]
    return (
        "set datafile separator comma\n"
        "set key autotitle columnhead\n"
        "set terminal pngcairo size 1200,600\n"
        "set output 'estimates.png'\n"
        "set xlabel 't'\n"
        "plot " + ", \\\n     ".join(curves + refs) + "\n"
    )


# every file `run` can write besides manifest.json: the trajectory, then the
# plot scripts; a run removes each of them it does not write itself
RUN_OUTPUTS = ("trajectory.csv", "signals.gp", "estimates.gp")


def _emit_plots(out_dir: str, cfg: SimConfig) -> list[str]:
    names = list(RUN_OUTPUTS[1:])
    for name, text in zip(names, (_signals_plot(cfg.n), _estimates_plot(cfg.n, cfg.theta_star()))):
        _write_whole(os.path.join(out_dir, name), (text,))
    return names


def _remove_stale(out_dir: str, written: list[str]) -> None:
    """Delete an earlier run's outputs, so none stands beside this run's manifest."""
    for name in RUN_OUTPUTS:
        path = os.path.join(out_dir, name)
        if name not in written and os.path.exists(path):
            os.remove(path)


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _audit(traj: Trajectory, cfg: SimConfig, constants, quiet: bool):
    """Run the configured audits and the gain-bound fit and print the verdicts.

    Returns the audit records, the gain_bound block, and the total violation
    count.
    """
    try:
        results = run_audits(traj, cfg, constants)
    except ValueError as err:
        raise ConfigError(f"audit setup failed: {err}") from err
    fit = gain_bound_fit(traj, cfg)
    total = 0
    for name, res in results.items():
        total += res["violations"]
        flag = "PASS" if res["pass"] else "FAIL"
        _say(quiet, f"audit {name}: {flag} ({res['violations']} violations)")
    _say(
        quiet,
        f"gain bound: gamma = {fit['gamma']:.6g} at lambda = {fit['lambda']:.6g}, "
        f"residual floor = {fit['residual_floor']:.6g}, tail tracking = {fit['tail_tracking']:.6g}",
    )
    return results, fit, total


def cmd_run(args) -> int:
    cfg, extras, digest = load_config(args.config)
    out_dir = args.out or extras["out"] or "out"
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    constants = cfg.constants()

    try:
        traj = run_closed_loop(cfg)
    except SingularSylvesterError as err:
        _say(args.quiet, f"aborted: {err}")
        _remove_stale(out_dir, [])
        _manifest(out_dir, args, digest, started, {
            "seed": cfg.seed, "status": "aborted", "error": str(err),
        })
        return 3

    # audit first: an audit set-up error (exit 2) must leave out_dir untouched
    results, bound, total = _audit(traj, cfg, constants, args.quiet)
    csv_path = os.path.join(out_dir, RUN_OUTPUTS[0])
    traj.save(csv_path)
    outputs = [RUN_OUTPUTS[0]]
    if args.plots:
        outputs += _emit_plots(out_dir, cfg)
    _remove_stale(out_dir, outputs)
    body = {
        "seed": cfg.seed,
        "estimator": cfg.estimator_mode,
        "mu": cfg.mu,
        "horizon": cfg.horizon,
        "outputs": outputs,
        "audits": results,
        "gain_bound": bound,
        "status": "pass" if total == 0 else "fail",
    }
    if constants is not None:
        body["constants"] = asdict(constants)
    _manifest(out_dir, args, digest, started, body)
    _say(args.quiet, f"wrote {csv_path}")
    return 0 if total == 0 else 1


def cmd_sweep(args) -> int:
    cfg, extras, digest = load_config(args.config)
    sweep_cfg = extras["sweep"] or {}
    # checked before out_dir is made, so a refused flag writes nothing
    try:
        _check_sweep(cfg, "--", draws=args.draws, seed=args.seed, horizon=args.horizon)
    except ValueError as err:
        raise ConfigError(f"bad sweep: {err}") from err
    draws, seed, horizon = (
        sweep_cfg.get(key) if getattr(args, key) is None else getattr(args, key)
        for key in ("draws", "seed", "horizon")
    )
    if draws is None:
        raise ConfigError("sweep needs --draws or a sweep.draws config entry")
    out_dir = args.out or extras["out"] or "out"
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()

    # tracking needs a constant-excitation tail that a randomized draw need not have
    skipped = [a for a in cfg.audits if a == "tracking"]
    cfg = replace(cfg, audits=tuple(a for a in cfg.audits if a != "tracking"))
    if skipped:
        _say(args.quiet, "sweep: tracking is not run per draw")
    try:
        reports = monte_carlo_sweep(
            cfg, draws,
            seed=seed,
            overrides=sweep_cfg.get("overrides"),
            horizon=horizon,
        )
    except ValueError as err:
        raise ConfigError(f"bad sweep: {err}") from err

    detail_names = list(cfg.audits)
    # the BoundReport fields in order, then one violation count per audit
    columns = [field.name for field in fields(BoundReport) if field.name != "details"]
    lines = [",".join(columns + [f"violations_{a}" for a in detail_names])]
    for rep in reports:
        values = [getattr(rep, name) for name in columns]
        row = [f"{v:.17g}" if isinstance(v, float) else str(int(v)) for v in values]
        row += [str(rep.details.get(a, 0)) for a in detail_names]
        lines.append(",".join(row))
    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_whole(csv_path, ("\n".join(lines) + "\n",))

    total = sum(rep.violations for rep in reports)
    aborted = sum(1 for rep in reports if rep.aborted)
    finite = [rep.gamma for rep in reports if not rep.aborted]
    worst = max(finite) if finite else float("nan")
    _say(
        args.quiet,
        f"sweep: {draws} draws, total violations = {total}, "
        f"aborted = {aborted}, worst gamma = {worst:.6g}",
    )
    status = "pass" if total == 0 and aborted == 0 else (
        "aborted" if aborted else "fail"
    )
    _manifest(out_dir, args, digest, started, {
        "seed": cfg.seed if seed is None else seed,
        "draws": draws,
        "outputs": ["sweep.csv"],
        "audits": detail_names,
        "skipped_audits": skipped,
        "total_violations": total,
        "aborted_draws": aborted,
        "worst_gamma": worst,
        "status": status,
    })
    _say(args.quiet, f"wrote {csv_path}")
    if aborted:
        return 3
    return 0 if total == 0 else 1


def cmd_audit(args) -> int:
    cfg, extras, digest = load_config(args.config)
    try:
        with open(args.trajectory, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read trajectory {args.trajectory}: {err}") from err
    try:
        traj = Trajectory.from_csv(text, cfg)
    except TrajectoryFormatError as err:
        raise ConfigError(str(err)) from err

    started = time.perf_counter()
    results, bound, total = _audit(traj, cfg, cfg.constants(), args.quiet)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _manifest(args.out, args, digest, started, {
            "trajectory": os.path.abspath(args.trajectory),
            "audits": results,
            "gain_bound": bound,
            "status": "pass" if total == 0 else "fail",
        })
    return 0 if total == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptive-pp",
        description="Adaptive pole placement: simulate, sweep, and audit closed loops.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one closed loop and audit it")
    run_p.add_argument("config", help="JSON config path")
    run_p.add_argument("--out", default=None, help="output directory (default: config out or ./out)")
    run_p.add_argument("--plots", action="store_true", help="emit gnuplot scripts next to the CSV")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run repeated (optionally randomized) draws")
    sweep_p.add_argument("config", help="JSON config path")
    sweep_p.add_argument("--draws", type=int, default=None, help="number of draws")
    sweep_p.add_argument("--seed", type=int, default=None, help="sweep seed (default: config seed)")
    sweep_p.add_argument("--horizon", type=int, default=None, help="per-draw horizon override")
    sweep_p.add_argument("--out", default=None, help="output directory")
    sweep_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    sweep_p.set_defaults(func=cmd_sweep)

    audit_p = sub.add_parser("audit", help="recompute audits for a stored trajectory")
    audit_p.add_argument("trajectory", help="trajectory CSV path")
    audit_p.add_argument("config", help="JSON config path")
    audit_p.add_argument("--out", default=None, help="optional directory for a manifest")
    audit_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    audit_p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:  # an OSError here comes from creating or writing outputs
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SingularSylvesterError as err:
        print(f"aborted: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
