"""In-memory span tracer that wraps adaptive_pp's public functions from outside.

A wrapped call records one span: its name, start and end (perf_counter_ns),
the span open when it started (its parent) and the operation it belongs to.
Functions are replaced where their callers look them up: `simulation` does
`from .controller import solve_diophantine`, so the loop's calls go through
`adaptive_pp.simulation.solve_diophantine`, and that is the name replaced.
Patching `adaptive_pp.controller.solve_diophantine` alone would miss them.

Some targets only count calls (no span), for functions called so often that
a span each would swamp the measurement.  Observers read a call's arguments
and result after its span closes; anything costly they need is deferred to
the end of the operation, outside the timed region.

`Summary` turns the recorded spans into the per-layer metrics.  A target
that is no longer called (or no longer exists) is reported as absent, with
value 0, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


def _steps(tracer, args, kwargs, result):
    tracer.count("simulation.steps", result.steps)


def _constants(tracer, args, kwargs, result):
    tracer.count("simulation.constants_used", result.samples_used)
    tracer.count("simulation.constants_drawn", result.samples_used + result.samples_skipped)


def _pole_rows(tracer, args, kwargs, result):
    theta = args[0].theta_hat

    def later():
        tracer.count("simulation.pole_audit_rows", theta.shape[0])
        tracer.count("simulation.distinct_estimates", np.unique(theta, axis=0).shape[0])

    tracer.defer(later)


def _pairs(tracer, args, kwargs, result):
    tracer.count("estimator.audit_pairs_checked", result.pairs_checked)


def _projection(tracer, args, kwargs, result):
    before = args[0]
    tracer.defer(lambda: tracer.count("estimator.projections_active", int(np.any(result != before))))


def _csv_written(tracer, args, kwargs, result):
    tracer.count("simulation.csv_bytes", len(result))


def _csv_read(tracer, args, kwargs, result):
    tracer.count("simulation.csv_bytes", len(args[1]))


def _aborted(tracer, args, kwargs, result):
    tracer.count("simulation.draws_aborted", sum(1 for rep in result if rep.aborted))


def _certified(tracer, args, kwargs, result):
    tracer.count("exact.certified", int(result == 0))


# (module where callers look the name up, attribute, span name, observer).
# A span name of None means count calls only.
TARGETS = (
    ("adaptive_pp.cli", "load_config", "cli.load_config", None),
    ("adaptive_pp.cli", "write_manifest", "cli.write_manifest", None),
    ("adaptive_pp.cli", "run_closed_loop", "simulation.run_closed_loop", _steps),
    ("adaptive_pp.cli", "estimate_constants", "simulation.estimate_constants", _constants),
    ("adaptive_pp.cli", "run_audits", "simulation.run_audits", None),
    ("adaptive_pp.cli", "gain_bound_fit", "simulation.gain_bound_fit", None),
    ("adaptive_pp.cli", "monte_carlo_sweep", "simulation.monte_carlo_sweep", _aborted),
    ("adaptive_pp.simulation", "Trajectory.to_csv", "simulation.to_csv", _csv_written),
    ("adaptive_pp.simulation", "Trajectory.from_csv", "simulation.from_csv", _csv_read),
    ("adaptive_pp.simulation", "run_closed_loop", "simulation.run_closed_loop", _steps),
    ("adaptive_pp.simulation", "run_audits", "simulation.run_audits", None),
    ("adaptive_pp.simulation", "estimate_constants", "simulation.estimate_constants", _constants),
    ("adaptive_pp.simulation", "pole_placement_audit", "simulation.pole_placement_audit", _pole_rows),
    ("adaptive_pp.simulation", "crude_bound_audit", "simulation.crude_bound_audit", None),
    ("adaptive_pp.simulation", "tracking_audit", "simulation.tracking_audit", None),
    ("adaptive_pp.simulation", "gain_bound_fit", "simulation.gain_bound_fit", None),
    ("adaptive_pp.simulation", "solve_diophantine", "controller.solve_diophantine", None),
    ("adaptive_pp.simulation", "control_step", "controller.control_step", None),
    ("adaptive_pp.simulation", "state_recursion_audit", "controller.state_recursion_audit", None),
    ("adaptive_pp.simulation", "update", "estimator.update", None),
    ("adaptive_pp.simulation", "estimator_audit", "estimator.estimator_audit", _pairs),
    ("adaptive_pp.simulation", "plant_step", "plant.plant_step", None),
    ("adaptive_pp.estimator", "project_box", None, _projection),
    ("adaptive_pp.controller", "sylvester_matrix", "polynomial.sylvester_matrix", None),
    ("adaptive_pp.controller", "poly_mul", "polynomial.poly_mul", None),
    ("adaptive_pp.polynomial", "Polynomial.__init__", None, None),
    ("adaptive_pp.exact", "exact_pole_check", "exact.exact_pole_check", _certified),
    ("adaptive_pp.exact", "charpoly_fractions", "exact.charpoly_fractions", None),
)


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, raw attribute) or None when it is gone."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        return owner, name, inspect.getattr_static(owner, name)
    except AttributeError:
        return None


class Tracer:
    """Spans and counts of the traced operations, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: list[Counter] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._deferred: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(len(self.counts) - 1)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[-1][key] += amount

    def defer(self, fn) -> None:
        self._deferred.append(fn)

    def _wrap(self, fn, span: str | None, key: str, observer):
        tracer = self

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.counts[-1][key] += 1
                if observer is not None:
                    observer(tracer, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observer is not None:
                observer(tracer, args, kwargs, result)
            return result
        return spanned

    def run_op(self, root: str, fn):
        """Run one operation as a root span with every target wrapped.

        Returns fn's result and the root span's duration in seconds, which
        leaves out the patching and the deferred observer work.
        """
        self.counts.append(Counter())
        self._install()
        try:
            idx = self._open(root)
            try:
                result = fn()
            finally:
                self._close(idx)
            return result, (self.end[idx] - self.start[idx]) / 1e9
        finally:
            self._uninstall()
            for later in self._deferred:
                later()
            self._deferred.clear()

    def _install(self) -> None:
        missing = []
        for module_name, attr, span, observer in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                missing.append(f"{module_name}.{attr}")
                continue
            owner, name, raw = found
            key = f"{module_name.rsplit('.', 1)[-1]}.{attr.replace('.__init__', '')}_calls"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, key, observer))
            else:
                wrapped = self._wrap(raw, span, key, observer)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)
        self.missing = missing

    def _uninstall(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as CSV: op, span id, parent id, name, start, end (ns)."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op_id[i]},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def tail_percentile(count: int) -> float | None:
    """Highest of the usual percentiles that leaves at least 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


class Summary:
    """Per-op and per-call views of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.errors: list[str] = []
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int64)
        self.op = np.frombuffer(tracer.op_id, dtype=np.int64)
        self.dur = end - start
        has_parent = parent >= 0
        children = np.zeros(self.dur.size, dtype=np.int64)
        np.add.at(children, parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - children
        self.ops = len(tracer.counts)

        if np.any(end < start):
            self.errors.append("a span never closed")
        pidx = parent[has_parent]
        if np.any(start[has_parent] < start[pidx]) or np.any(end[has_parent] > end[pidx]):
            self.errors.append("a span is not nested inside its parent")
        roots = np.flatnonzero(~has_parent)
        if roots.size != self.ops or np.any(self.op[roots] != np.arange(self.ops)):
            self.errors.append("an operation does not have exactly one root span")
        else:
            self_sum = np.bincount(self.op, weights=self.self_ns, minlength=self.ops)
            if not np.array_equal(self_sum.astype(np.int64), self.dur[roots]):
                self.errors.append("self times do not sum to the operation's traced wall time")

    def _mask(self, name: str) -> np.ndarray:
        nid = self.tracer._name_ids.get(name)
        if nid is None:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name_id == nid

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def p50(self, name: str) -> float:
        d = self.durations(name)
        return float(np.median(d)) if d.size else 0.0

    def tail(self, name: str) -> tuple[float, float]:
        d = self.durations(name)
        pct = tail_percentile(d.size)
        if pct is None:
            return 0.0, 0.0
        return float(np.percentile(d, pct)), pct

    def per_op(self, values) -> np.ndarray:
        """Sum an array over each op's spans."""
        return np.bincount(self.op, weights=values, minlength=self.ops)

    def calls(self, name: str) -> np.ndarray:
        return self.per_op(self._mask(name).astype(float))

    def self_time(self, name: str) -> np.ndarray:
        return self.per_op(np.where(self._mask(name), self.self_ns, 0).astype(float))

    def counter(self, key: str) -> np.ndarray:
        return np.array([float(c[key]) for c in self.tracer.counts])


def _median(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


def _ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Median over ops of num/den, over the ops where den is nonzero."""
    keep = den > 0
    return _median(num[keep] / den[keep])


# Counts that must repeat exactly from one traced operation to the next.
EXACT_COUNTS = (
    "controller.solve_calls",
    "estimator.update_calls",
    "estimator.audit_pairs_checked",
    "plant.plant_step_calls",
    "polynomial.poly_mul_calls",
    "polynomial.Polynomial_constructions",
    "simulation.steps",
    "simulation.csv_bytes",
    "simulation.distinct_estimates",
    "simulation.draws_aborted",
)


def layer_metrics(s: Summary) -> tuple[dict, dict]:
    """Per-layer metrics as {name: (value, unit)} and the per-op exact counts."""
    out: dict = {}
    per_op_counts: dict = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def ms(name):
        put(f"{name}_ms", s.p50(name) / 1e6, "ms")

    def count(name, per_op):
        per_op_counts[name] = [int(v) for v in per_op]
        put(name, _median(per_op), "count")

    def p50_and_tail(name, scale, unit, with_tail=True):
        put(f"{name}_{unit}_p50", s.p50(name) / scale, unit)
        if with_tail:
            value, pct = s.tail(name)
            put(f"{name}_{unit}_tail", value / scale, unit)
            put(f"{name}_{unit}_tail_pct", pct, "%")

    steps = s.counter("simulation.steps")

    # cli
    ms("cli.load_config")
    ms("cli.write_manifest")
    put("cli.self_ms", _median(s.self_time("cli.main")) / 1e6 if s.calls("cli.main").any() else 0.0, "ms")

    # simulation
    ms("simulation.run_closed_loop")
    put(
        "simulation.loop_self_us_per_step",
        _ratio(s.self_time("simulation.run_closed_loop"), steps) / 1e3,
        "us",
    )
    count("simulation.steps", steps)
    ms("simulation.estimate_constants")
    put(
        "simulation.constants_used_ratio",
        _ratio(s.counter("simulation.constants_used"), s.counter("simulation.constants_drawn")),
        "ratio",
    )
    ms("simulation.pole_placement_audit")
    distinct = s.counter("simulation.distinct_estimates")
    put("simulation.pole_audit_distinct_ratio", _ratio(distinct, s.counter("simulation.pole_audit_rows")), "ratio")
    count("simulation.distinct_estimates", distinct)
    ms("simulation.crude_bound_audit")
    ms("simulation.tracking_audit")
    ms("simulation.gain_bound_fit")
    ms("simulation.to_csv")
    ms("simulation.from_csv")
    count("simulation.csv_bytes", s.counter("simulation.csv_bytes"))
    sweep_self = s.self_time("simulation.monte_carlo_sweep")
    put("simulation.sweep_self_ms", _median(sweep_self[s.calls("simulation.monte_carlo_sweep") > 0]) / 1e6, "ms")
    count("simulation.draws_aborted", s.counter("simulation.draws_aborted"))

    # controller
    solves = s.calls("controller.solve_diophantine")
    p50_and_tail("controller.solve_diophantine", 1e3, "us")
    count("controller.solve_calls", solves)
    put("controller.fresh_solve_ratio", _ratio(solves, steps), "ratio")
    p50_and_tail("controller.control_step", 1e3, "us", with_tail=False)
    ms("controller.state_recursion_audit")

    # estimator
    updates = s.calls("estimator.update")
    p50_and_tail("estimator.update", 1e3, "us")
    count("estimator.update_calls", updates)
    put(
        "estimator.projection_active_ratio",
        _ratio(s.counter("estimator.projections_active"), s.counter("estimator.project_box_calls")),
        "ratio",
    )
    ms("estimator.estimator_audit")
    count("estimator.audit_pairs_checked", s.counter("estimator.audit_pairs_checked"))

    # plant
    p50_and_tail("plant.plant_step", 1e3, "us", with_tail=False)
    count("plant.plant_step_calls", s.calls("plant.plant_step"))

    # polynomial
    p50_and_tail("polynomial.sylvester_matrix", 1e3, "us", with_tail=False)
    count("polynomial.poly_mul_calls", s.calls("polynomial.poly_mul"))
    count("polynomial.Polynomial_constructions", s.counter("polynomial.Polynomial_calls"))

    # exact
    p50_and_tail("exact.exact_pole_check", 1e6, "ms")
    p50_and_tail("exact.charpoly_fractions", 1e6, "ms", with_tail=False)
    put(
        "exact.certified_ratio",
        _ratio(s.counter("exact.certified"), s.calls("exact.exact_pole_check")),
        "ratio",
    )
    return out, {k: per_op_counts[k] for k in EXACT_COUNTS}
