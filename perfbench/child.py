"""One workload in one fresh process: set up, run timed operations, gate outputs.

`run.py` starts this script with the BLAS and OpenMP thread counts pinned to
one and ADAPTIVE_PP_THREADS cleared, so that the numbers describe a single
thread.  The last line of standard output is a JSON object for `run.py`.

Every operation calls one public entry point of adaptive_pp and is then
checked against a known-good output; a wrong output or exit code counts the
operation as failed.  Only the library call is timed, not the check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from adaptive_pp import cli, exact  # noqa: E402

from tracer import TARGETS, Summary, Tracer, layer_metrics  # noqa: E402

CONFIG = os.path.join(ROOT, "configs", "benchmark.json")
GOLDEN = os.path.join(ROOT, "out", "benchmark", "trajectory.csv")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
TRACED_SPANS = {span for _, _, span, _ in TARGETS if span is not None}
AUDIT_LINE = re.compile(r"^audit (\w+): (PASS|FAIL) \((\d+) violations\)$", re.M)

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def flip_digit(data: bytes, line: int, field: int) -> bytes:
    """Copy of CSV bytes with the first digit of one field changed."""
    rows = data.split(b"\n")
    cells = rows[line].split(b",")
    cell = bytearray(cells[field])
    pos = next(i for i, ch in enumerate(cell) if chr(ch).isdigit())
    cell[pos] = ord(str((int(chr(cell[pos])) + 1) % 10))
    cells[field] = bytes(cell)
    rows[line] = b",".join(cells)
    return b"\n".join(rows)


class Run:
    """`adaptive-pp run` on the benchmark config; the CSV must match the golden file."""

    root_span = "cli.main"
    unit = "simulated steps/s"

    def __init__(self, seed: int, work_dir: str):
        cfg, _, _ = cli.load_config(CONFIG)
        self.work = cfg.horizon
        self.out = work_dir
        self.csv = os.path.join(work_dir, "trajectory.csv")
        with open(GOLDEN, "rb") as fh:
            self.golden = fh.read()

    def prepare(self, tamper: bool) -> None:
        if os.path.exists(self.csv):
            os.remove(self.csv)

    def call(self):
        return cli.main(["run", CONFIG, "--out", self.out, "--quiet"])

    def check(self, rc, tamper: bool) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        with open(self.csv, "rb") as fh:
            data = fh.read()
        if tamper:
            data = flip_digit(data, 3, 9)
        return None if data == self.golden else "trajectory.csv differs from the golden file"


class Sweep:
    """`adaptive-pp sweep --seed <seed>`; sweep.csv is checked by digest."""

    root_span = "cli.main"
    unit = "draw-steps/s"

    def __init__(self, seed: int, work_dir: str):
        _, extras, _ = cli.load_config(CONFIG)
        self.work = extras["sweep"]["draws"] * extras["sweep"]["horizon"]
        self.seed = seed
        self.out = work_dir
        self.csv = os.path.join(work_dir, "sweep.csv")
        # At the reference seed the digest is known; at any other seed every
        # repetition must reproduce the first one.
        ref = REFERENCE["sweep"]
        self.digest = ref["sha256"] if seed == ref["seed"] else None

    def prepare(self, tamper: bool) -> None:
        if os.path.exists(self.csv):
            os.remove(self.csv)

    def call(self):
        return cli.main(["sweep", CONFIG, "--out", self.out, "--quiet", "--seed", str(self.seed)])

    def check(self, rc, tamper: bool) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        with open(self.csv, "rb") as fh:
            data = fh.read()
        if tamper:
            data = flip_digit(data, 1, 2)
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        return None if digest == self.digest else f"sweep.csv digest {digest[:12]} != {self.digest[:12]}"


class Audit:
    """`adaptive-pp audit` on the golden trajectory; verdicts and counts must match."""

    root_span = "cli.main"
    unit = "audited rows/s"

    def __init__(self, seed: int, work_dir: str):
        cfg, _, _ = cli.load_config(CONFIG)
        self.work = cfg.horizon
        with open(GOLDEN, "rb") as fh:
            self.golden = fh.read()
        self.tampered = os.path.join(work_dir, "trajectory.csv")
        self.path = GOLDEN

    def prepare(self, tamper: bool) -> None:
        self.path = GOLDEN
        if tamper:
            with open(self.tampered, "wb") as fh:
                fh.write(flip_digit(self.golden, 3, 9))
            self.path = self.tampered

    def call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["audit", self.path, CONFIG])
        return rc, buf.getvalue()

    def check(self, result, tamper: bool) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        verdicts = {name: (flag, int(v)) for name, flag, v in AUDIT_LINE.findall(text)}
        expected = {name: ("PASS", v) for name, v in REFERENCE["audit_violations"].items()}
        return None if verdicts == expected else f"audit verdicts {verdicts}"


class Certify:
    """`exact_pole_check` on seeded estimates from the incremental box."""

    root_span = "certify.batch"
    unit = "certificates/s"
    batch = 25
    batches = 64

    def __init__(self, seed: int, work_dir: str):
        cfg, _, _ = cli.load_config(CONFIG)
        self.n = cfg.n
        self.lifted = cfg.target.lifted_coeffs()
        rng = np.random.default_rng(seed)
        pool = cfg.aux_box().sample(rng, self.batch * self.batches)
        self.pool = pool.reshape(self.batches, self.batch, -1)
        self.work = self.batch
        self.next = 0

    def prepare(self, tamper: bool) -> None:
        self.thetas = self.pool[self.next % self.batches]
        self.next += 1

    def call(self):
        return [exact.exact_pole_check(theta, self.lifted, self.n) for theta in self.thetas]

    def check(self, certs, tamper: bool) -> str | None:
        if tamper:
            certs = [certs[0] + Fraction(1, 10**30)] + certs[1:]
        bad = sum(1 for c in certs if not (isinstance(c, Fraction) and c == 0))
        return None if bad == 0 else f"{bad} of {len(certs)} certificates are not exactly zero"


def environment() -> dict:
    """What the numbers were measured on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "adaptive_pp_threads": os.environ.get("ADAPTIVE_PP_THREADS"),
    }


WORKLOADS = {"run": Run, "sweep": Sweep, "audit": Audit, "certify": Certify}


class Runner:
    """Runs and gates operations, counting attempts and failures."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, traced: bool = False, tamper: bool = False) -> float | None:
        """One gated operation; returns its duration in seconds, None if it failed."""
        w = self.workload
        self.attempted += 1
        try:
            w.prepare(tamper)
            if traced:
                result, seconds = self.tracer.run_op(w.root_span, w.call)
            else:
                start = time.perf_counter()
                result = w.call()
                seconds = time.perf_counter() - start
            error = w.check(result, tamper)
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            return None
        return seconds


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    """Operations until the time is up; with tracing, untraced and traced alternate.

    A new operation starts only if it is expected to end before the
    deadline, judged by the median operation so far, so a run stays within
    about `seconds`.  At least one operation (one of each kind) always runs.
    """
    plain: list[float] = []
    with_trace: list[float] = []
    start = time.perf_counter()
    turn = 0
    while True:
        done = plain + with_trace
        enough = not traced or (plain and with_trace)
        if done and enough and time.perf_counter() - start + statistics.median(done) > seconds:
            break
        if runner.failed:
            break  # the run is already wrong; timing more of it says nothing
        use_trace = traced and turn % 2 == 1
        took = runner.op(traced=use_trace)
        if took is not None:
            (with_trace if use_trace else plain).append(took)
        turn += 1
    work = runner.workload.work
    return {
        "throughput": [work / s for s in plain],
        "traced_throughput": [work / s for s in with_trace],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help="set up, report set-up time, exit")
    mode.add_argument("--self-test", action="store_true",
                      help="one clean and one corrupted operation; the corrupted one must fail")
    args = parser.parse_args()

    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        setup_s = time.monotonic() - args.spawned_at
        result: dict = {"setup_s": setup_s}
        if args.setup_only:
            pass
        elif args.self_test:
            runner = Runner(workload)
            runner.op()
            clean_failed = runner.failed
            runner.op(tamper=True)
            result.update(clean_ok=clean_failed == 0, corrupted_failed=runner.failed == clean_failed + 1,
                          errors=runner.errors)
        else:
            tracer = Tracer() if args.trace else None
            runner = Runner(workload, tracer)
            result.update(measure(runner, args.seconds, bool(args.trace)))
            result.update(
                attempted=runner.attempted,
                failed=runner.failed,
                errors=runner.errors,
                unit=workload.unit,
                env=environment(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            if tracer is not None:
                summary = Summary(tracer)
                layers, counts = layer_metrics(summary)
                unsteady = sorted(k for k, v in counts.items() if len(set(v)) > 1)
                result.update(
                    layers=layers,
                    counts={k: v[0] for k, v in counts.items() if v},
                    checks=summary.errors + [f"count {k} differs between operations" for k in unsteady],
                    absent=sorted(set(tracer.missing) | (TRACED_SPANS - set(tracer.names))),
                )
                tracer.write(os.path.join(OUT_ROOT, f"spans-{args.workload}.csv"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
