"""Benchmark of adaptive-pp: four workloads, each in its own fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload run --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all     # every workload, metrics by name
    python3 perfbench/run.py --self-test        # corrupted outputs must count as failed

Workloads.  BENCHMARK.json gates `run` and `certify`, which between them
reach every layer; `sweep` and `audit` run the same way on request but are
left out of the gated set, because on a shared 2-core machine each gated
workload adds runs whose spread the machine's speed drift already fills.

* run     - `adaptive-pp run configs/benchmark.json`; the trajectory CSV must
            equal out/benchmark/trajectory.csv byte for byte.
* sweep   - `adaptive-pp sweep configs/benchmark.json --seed <seed>`; at the
            reference seed sweep.csv must have the recorded digest, at any
            other seed every repetition must reproduce the first.
* audit   - `adaptive-pp audit out/benchmark/trajectory.csv configs/benchmark.json`;
            all five audits must pass with the recorded violation counts.
* certify - `exact_pole_check` on estimates drawn from the incremental box
            with the given seed; every certificate must be exactly zero.

With --trace 0 the last line reports setup_s (median over several fresh
processes, from process start to ready), throughput (median over the
run's operations, with quartiles and count printed beside it) and
peak_rss_mb (getrusage of the workload's own process).  With
--trace 1 the library's public functions are wrapped from outside (see
tracer.py), untraced and traced operations alternate, and the last line
reports the per-layer metrics plus trace.overhead_frac.  The spans are
written to .perfbench_out/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("run", "sweep", "audit", "certify")
REQUIRED = (
    os.path.join("src", "adaptive_pp", "cli.py"),
    os.path.join("configs", "benchmark.json"),
    os.path.join("out", "benchmark", "trajectory.csv"),
)
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_SAMPLES = 8   # set-up-only processes, besides the measuring one
BUDGET_S = 170.0    # a whole invocation for one workload ends within this


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ADAPTIVE_PP_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Start child.py in a fresh process, wait for it, return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    argv = [sys.executable, CHILD, *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{' '.join(args)} did not finish in time") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def describe(values: list[float], what: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"median of {len(values)} {what}, q1 {q1:.6g}, q3 {q3:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; prints its metrics by name and returns the result object."""
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", name, "--seed", str(seed)]
    setups: list[float] = []
    if not trace:
        spawn(common + ["--setup-only"], deadline)  # warm the file cache and bytecode
        setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = spawn(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(res["setup_s"])

    env = dict(res["env"], commit=git_commit())
    print(f"[{name}] env: {json.dumps(env, sort_keys=True)}")
    attempted, failed = res["attempted"], res["failed"]
    checks = list(res.get("checks", []))
    for err in res["errors"]:
        print(f"[{name}] failed operation: {err.strip()}", file=sys.stderr)
    for msg in checks:
        print(f"[{name}] check failed: {msg}", file=sys.stderr)

    metrics: dict = {}
    plain = res["throughput"]
    if trace:
        for metric, (value, unit) in res["layers"].items():
            metrics[metric] = {"value": value, "unit": unit}
        traced = res["traced_throughput"]
        overhead = 1.0 - statistics.median(traced) / statistics.median(plain) if plain and traced else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        for metric, m in metrics.items():
            print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
        print(f"[{name}] absent (not called): {', '.join(res['absent']) or 'none'}")
        print(f"[{name}] exact counts per operation: {json.dumps(res['counts'], sort_keys=True)}")
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["throughput"] = {"value": statistics.median(plain) if plain else 0.0, "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        print(f"[{name}] setup_s = {metrics['setup_s']['value']:.4f} s ({describe(setups, 'set-ups')})")
        if plain:
            print(f"[{name}] throughput = {metrics['throughput']['value']:.6g} 1/s "
                  f"({res['unit']}; {describe(plain, 'operations')})")
        print(f"[{name}] peak_rss_mb = {metrics['peak_rss_mb']['value']:.2f} MB")
    print(f"[{name}] failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    return {
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def self_test(seed: int) -> int:
    """Each workload: a clean operation must pass and a corrupted one must count as failed."""
    ok = True
    for name in WORKLOADS:
        res = spawn(["--workload", name, "--seed", str(seed), "--self-test"], time.monotonic() + BUDGET_S)
        good = res["clean_ok"] and res["corrupted_failed"]
        ok &= good
        print(f"[{name}] self-test: clean operation {'passed' if res['clean_ok'] else 'FAILED'}, "
              f"corrupted output {'counted as failed' if res['corrupted_failed'] else 'NOT caught'}")
        for err in res["errors"]:
            print(f"[{name}]   caught: {err.strip().splitlines()[-1]}")
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that the output gates catch corruption")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an adaptive-pp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(args.seed)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
