"""Closed-loop simulation, trajectory logging, sampled constants, and the sweep.

`run_closed_loop` wires the pieces together with the update order the design
prescribes: at each step the controller gains come from the estimate held
before the new measurement arrives (a one-step delay), the plant produces
y(t+1), the estimator absorbs the new tracking error, and the next input
increment is K psi(t).  Tracking errors are computed once, at their own time,
against that time's set-point, and the regressor is shifted forward; this
makes the one-step recursion psi(t+1) = A psi(t) + e1 e(t+1) exact even when
the set-point switches.

The logged `wbar` column is the disturbance increment the incremental model
actually saw, ybar(t+1) - psi(t)' theta_star.  It equals w(t) - w(t-1) in
steady operation but also absorbs the start-up mismatch of an arbitrary
initial state and set-point transients; the estimator inequalities and the
crude growth bound are theorems with respect to this signal, so the audits
use it.

`monte_carlo_sweep` audits every draw through `audits.run_audits`, and
`estimate_constants` samples the norm constants of the crude growth bound;
`SimConfig.constants` decides whether a run's audits need them.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .audits import AUDIT_NAMES, gain_bound_fit, needs_constants, run_audits
from .controller import (
    SingularSylvesterError,
    TargetPolynomial,
    _design_workspace,
    _gamma,
    closed_loop_matrix,
    design_residual,
    solve_diophantine_batch,
    solve_gains,
)
from .estimator import projection_step
from .plant import BoxSet, PlantParameters, _frozen, aux_transform, image_box

__all__ = [
    "SignalSpec",
    "SimConfig",
    "Trajectory",
    "TrajectoryFormatError",
    "ConstantsEstimate",
    "BoundReport",
    "run_closed_loop",
    "estimate_constants",
    "monte_carlo_sweep",
]

SIGNAL_KINDS = ("constant", "sign_flip", "custom")


class TrajectoryFormatError(ValueError):
    """A trajectory file does not match the documented schema or the config."""


@dataclass(frozen=True)
class SignalSpec:
    """Exogenous scalar signal: constant, periodic sign flip, or explicit values."""

    kind: str
    magnitude: float = 0.0
    period: int = 1
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"signal kind must be one of {SIGNAL_KINDS}")
        if not np.isfinite(self.magnitude):
            raise ValueError("signal magnitude must be finite")
        # the period divides an int64 step index
        if self.kind == "sign_flip" and not (self.period % 1 == 0 and 1 <= self.period < 2**63):
            raise ValueError(f"sign_flip needs an integer period in [1, 2**63 - 1], got {self.period!r}")
        if self.kind == "custom":
            if self.values is None:
                raise ValueError("custom signal needs explicit values")
            vals = _frozen(self.values)
            if vals.ndim != 1 or not np.all(np.isfinite(vals)):
                raise ValueError("custom signal values must be a finite 1-D sequence")
            object.__setattr__(self, "values", vals)

    def series(self, count: int) -> np.ndarray:
        """The signal at elapsed steps 0..count-1, as a new float array.

        A sign flip is +magnitude in even periods and -magnitude in odd ones.
        A custom signal with fewer than `count` values raises IndexError.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self.kind == "constant":
            return np.full(count, float(self.magnitude))
        if self.kind == "sign_flip":
            signs = np.where(np.arange(count) // int(self.period) % 2 == 0, 1.0, -1.0)
            return float(self.magnitude) * signs
        if count > self.values.size:
            raise IndexError(f"custom signal has {self.values.size} values, {count} asked for")
        return self.values[:count].copy()


def _check_integer(value, least: int, name: str) -> None:
    """Refuse a value other than an integer >= `least`, naming the setting `name`."""
    # `% 1` rather than float(): an integer beyond the float range is still one
    if not (value % 1 == 0 and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_horizon(cfg: "SimConfig", horizon, name: str) -> None:
    """Refuse a horizon `name` whose times from cfg.t0 leave int64 or outrun a custom signal of `cfg`."""
    t0 = cfg.t0
    if not (t0 % 1 == 0 and -(2**63) <= t0 <= 2**63 - horizon and horizon < 2**63):
        raise ValueError(
            f"t0, {name} and t0 + {name} - 1 must be int64 integers, got t0 = {t0!r}, {name} = {horizon!r}"
        )
    for which, spec in (("reference", cfg.reference), ("disturbance", cfg.disturbance)):
        if spec.kind == "custom" and spec.values.size < horizon + 1:
            raise ValueError(f"custom {which} needs at least {name}+1 = {horizon + 1} values")


def _check_estimator_mode(mode: str, name: str) -> None:
    """Refuse an update law other than 'classical' or 'ideal', naming the setting `name`."""
    if mode not in ("classical", "ideal"):
        raise ValueError(f"{name} must be 'classical' or 'ideal', got {mode!r}")


def _check_decay_rate(lam: float, target: TargetPolynomial, name: str) -> None:
    """Refuse a decay rate outside (largest target pole modulus, 1), naming the setting `name`."""
    floor = target.decay_floor()
    if not floor < lam < 1.0:
        raise ValueError(f"{name} must lie in ({floor:.6f}, 1), got {lam!r}")


@dataclass(frozen=True)
class SimConfig:
    """Everything one closed-loop run depends on.

    `phi0` stacks the initial output and input histories newest first,
    [y(t0)..y(t0-n), u(t0)..u(t0-n)].  `theta0` is the initial estimate in
    incremental coordinates and must lie in the image box of `box`.  The
    times t0 .. t0 + horizon - 1 must be int64s.
    `tracking_tail` is the number of final steps the tracking audit and the
    gain-bound fit read; with the tracking audit listed it is at most
    horizon / 2, since that audit reads twice as many.  `audits` names the
    audits a run is checked by (each of `audits.AUDIT_NAMES` at most once),
    and `alpha_samples` is the number of draws `constants()` samples when
    one of them reads the norm constants.  A config is checked when it is
    built: an inconsistent one raises ValueError.
    """

    n: int
    theta_true: PlantParameters
    box: BoxSet
    target: TargetPolynomial
    mu: float
    theta0: np.ndarray
    phi0: np.ndarray
    reference: SignalSpec
    disturbance: SignalSpec
    horizon: int
    t0: int = 0
    seed: int = 0
    estimator_mode: str = "classical"
    lam: float | None = None
    tracking_tail: int = 100
    audits: tuple[str, ...] = ("estimator", "recursion", "poles")
    alpha_samples: int = 100_000

    def __post_init__(self):
        theta0, phi0 = _frozen(self.theta0), _frozen(self.phi0)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "phi0", phi0)
        n = self.n
        if n < 1 or self.theta_true.n != n or self.target.n != n:
            raise ValueError("plant order, target, and n must agree and be >= 1")
        if self.box.dim != 2 * n:
            raise ValueError(f"the parameter box must have dimension {2 * n}")
        self.theta_true.validate(self.box)
        if theta0.shape != (2 * n + 1,):
            raise ValueError(f"theta0 must have length {2 * n + 1}")
        if not self.aux_box().contains(theta0):
            raise ValueError("theta0 must lie inside the incremental parameter box")
        if phi0.shape != (2 * (n + 1),):
            raise ValueError(f"phi0 must have length {2 * (n + 1)}")
        if not np.all(np.isfinite(phi0)):
            raise ValueError("phi0 must be finite")
        if not 0.0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")
        _check_integer(self.horizon, 1, "horizon")
        _check_horizon(self, self.horizon, "horizon")  # int64 times, covered by any custom signal
        _check_integer(self.tracking_tail, 1, "tracking_tail")
        _check_integer(self.seed, 0, "seed")  # numpy's generators refuse a negative seed
        _check_integer(self.alpha_samples, 0, "alpha_samples")
        audits = tuple(self.audits)
        object.__setattr__(self, "audits", audits)
        for name in audits:
            if name not in AUDIT_NAMES:
                raise ValueError(f"audits must be drawn from {AUDIT_NAMES}, got {name!r}")
        if len(set(audits)) != len(audits):
            raise ValueError(f"audits must name each audit once, got {list(audits)}")
        if "tracking" in audits and 2 * self.tracking_tail > self.horizon:
            raise ValueError(
                f"tracking_tail must be at most horizon / 2 when the tracking audit runs, since it "
                f"reads the final 2 * tracking_tail steps; got tracking_tail = {self.tracking_tail!r}, "
                f"horizon = {self.horizon!r}"
            )
        _check_estimator_mode(self.estimator_mode, "estimator_mode")
        if self.lam is not None:
            _check_decay_rate(self.lam, self.target, "lam")

    def aux_box(self) -> BoxSet:
        return image_box(self.box, self.n)

    def theta_star(self) -> np.ndarray:
        return aux_transform(self.theta_true)

    def law_mu(self) -> float:
        """The update law's regularizer: mu for the classical law, 0 for the ideal one."""
        return self.mu if self.estimator_mode == "classical" else 0.0

    def decay_rate(self) -> float:
        """Decay rate for the gain-bound fit: configured, else the midpoint."""
        if self.lam is not None:
            return float(self.lam)
        return 0.5 * (self.target.decay_floor() + 1.0)

    def constants(self, seed: int | None = None) -> ConstantsEstimate | None:
        """The norm constants `estimate_constants` samples when an audit of `audits` reads them, else None.

        `alpha_samples` draws from `seed`, by default the config's own.
        """
        if not needs_constants(self.audits):
            return None
        seed = self.seed if seed is None else seed
        return estimate_constants(self.aux_box(), self.target, samples=self.alpha_samples, seed=seed)


# The trajectory.csv schema, in column order: each entry names the
# `Trajectory` field a column holds and, for the three (2n+1)-wide blocks, the
# prefix of their columns <prefix>_1..<prefix>_{2n+1}; a scalar column is
# named after its field.
TRAJECTORY_COLUMNS = (
    ("t", None), ("y", None), ("u", None), ("w", None), ("r", None),
    ("ybar", None), ("ubar", None), ("wbar", None), ("e", None),
    ("psi", "psi"), ("theta_hat", "thetahat"), ("gains", "K"), ("dioph_residual", None),
)


def _write_whole(path, parts) -> None:
    """Write the strings of `parts` to `path` whole or not at all: a sibling temp file, then a rename."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


# trajectory rows per block of the streamed CSV
_CSV_ROWS = 256


def _pooled_texts(values: np.ndarray) -> np.ndarray:
    """A 2-D float array as an object array of "%.17g" strings, each distinct bit pattern formatted once.

    Bits are compared as uint64, which keeps -0.0 and 0.0, and NaN payloads,
    apart; "%.17g" renders a Python float exactly as f"{v:.17g}" does.
    """
    bits, cell = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map("%.17g".__mod__, bits.view(float).tolist())), dtype=object)
    return texts[cell.reshape(values.shape)]


@dataclass
class Trajectory:
    """Per-step record of one closed-loop run.

    Row i belongs to absolute time t[i] = t0+i and carries the signals then,
    the regressor psi(t), the estimate thetahat(t) the step started from, the
    gain row solved from that estimate (it produces the next input
    increment), the prediction error e(t+1), and the design residual at that
    estimate.
    """

    n: int
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
    w: np.ndarray
    r: np.ndarray
    ybar: np.ndarray
    ubar: np.ndarray
    wbar: np.ndarray
    e: np.ndarray
    psi: np.ndarray
    theta_hat: np.ndarray
    gains: np.ndarray
    dioph_residual: np.ndarray

    @property
    def steps(self) -> int:
        return self.t.size

    @staticmethod
    def header(n: int) -> list[str]:
        cols = []
        for field, prefix in TRAJECTORY_COLUMNS:
            cols += [field] if prefix is None else [f"{prefix}_{i}" for i in range(1, 2 * n + 2)]
        return cols

    def to_csv(self) -> str:
        """Render the documented column schema; floats carry 17 significant digits.

        The text of `save`: the blocks of `_csv_blocks`, joined.
        """
        return "".join(self._csv_blocks())

    def _csv_blocks(self):
        """The CSV text as an iterator of blocks: the header line, then _CSV_ROWS rows at a time.

        Every cell is checked and formatted before this returns, so a column
        of the wrong length raises here, not part-way through the blocks.
        Each distinct value of the float columns from y to psi is formatted
        once (see `_pooled_texts`), and the closing (thetahat, K,
        dioph_residual) block once per run of consecutive rows with the same
        bits (a uint64 view keeps -0.0 and NaN apart).
        """
        t, *head = (getattr(self, field) for field, _ in TRAJECTORY_COLUMNS[:-3])
        texts = _pooled_texts(np.column_stack(head))
        cells = np.empty((self.steps, texts.shape[1] + 2), dtype=object)
        # a column of another length fails the stack or an assignment
        cells[:, 0] = t
        cells[:, 1:-1] = texts

        block = np.column_stack([getattr(self, field) for field, _ in TRAJECTORY_COLUMNS[-3:]])
        bits = block.view(np.uint64)
        fresh = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)][: len(bits)]
        fmt = ",%.17g" * block.shape[1]
        runs = np.array([fmt % tuple(row) for row in block[fresh].tolist()], dtype=object)
        cells[:, -1] = runs[np.cumsum(fresh) - 1]
        fmt = "%d" + ",%s" * texts.shape[1] + "%s\n"
        rows = (cells[start : start + _CSV_ROWS].tolist() for start in range(0, self.steps, _CSV_ROWS))
        return itertools.chain(
            [",".join(self.header(self.n)) + "\n"],
            ("".join([fmt % tuple(row) for row in part]) for part in rows),
        )

    def save(self, path) -> None:
        """Write the text of `to_csv()` to `path` block by block; a render that raises leaves the file as it was."""
        _write_whole(path, self._csv_blocks())

    @classmethod
    def from_csv(cls, text: str, cfg: SimConfig) -> "Trajectory":
        """Parse an exported trajectory and rebuild the in-memory form.

        The header, column count, row count, and time axis must match the
        config exactly (the times are compared as integers, which keep
        every int64 apart), and the first row must start from the config's
        phi0.
        """
        n = cfg.n
        lines = [ln for ln in text.split("\n") if ln != ""]
        if not lines:
            raise TrajectoryFormatError("empty trajectory file")
        header = lines[0].split(",")
        if header != cls.header(n):
            raise TrajectoryFormatError("trajectory header does not match the schema")
        rows = lines[1:]
        if len(rows) != cfg.horizon:
            raise TrajectoryFormatError(
                f"expected {cfg.horizon} rows for this config, found {len(rows)}"
            )
        width = len(header)
        times = []
        data = np.empty((len(rows), width - 1))
        for i, ln in enumerate(rows):
            parts = ln.split(",")
            if len(parts) != width:
                raise TrajectoryFormatError(f"row {i} has {len(parts)} fields, expected {width}")
            try:
                times.append(int(parts[0]))
            except ValueError:
                raise TrajectoryFormatError(f"row {i} has a time that is not an integer: {parts[0]!r}") from None
            try:
                data[i] = [float(p) for p in parts[1:]]
            except ValueError as err:
                raise TrajectoryFormatError(f"row {i} is not numeric: {err}") from err
        if times != list(range(cfg.t0, cfg.t0 + len(rows))):
            raise TrajectoryFormatError("time column does not match the config start and horizon")
        widths = [1 if prefix is None else 2 * n + 1 for _, prefix in TRAJECTORY_COLUMNS[1:]]
        blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
        cols = {
            field: block[:, 0] if prefix is None else block
            for (field, prefix), block in zip(TRAJECTORY_COLUMNS[1:], blocks)
        }
        cols["t"] = cfg.t0 + np.arange(len(rows))

        if cols["y"][0] != cfg.phi0[0] or cols["u"][0] != cfg.phi0[n + 1]:
            raise TrajectoryFormatError("first row is inconsistent with the config's phi0")

        return cls(n=n, **cols)


def run_closed_loop(cfg: SimConfig) -> Trajectory:
    """Simulate the adaptive loop for cfg.horizon steps.

    Raises SingularSylvesterError (annotated with the failing step) if the
    design becomes unsolvable at some estimate.  The design is re-solved
    only when the estimate changes.

    The loop logs what each step computes: y(t+1) and u(t+1) into two
    logs kept in reversed time, whose newest-first windows are the plant's
    histories, e, and psi(t+1) as the next row of the regressor log it
    works in.  Each fresh solve logs one (thetahat, K) row and its first
    step; the other columns, the design residual of every solve included,
    are derived after the loop, with the bits a per-step copy would have.
    """
    n = cfg.n
    aux_box = cfg.aux_box()
    mu = cfg.law_mu()
    steps = int(cfg.horizon)
    w_col, r_col = cfg.disturbance.series(steps), cfg.reference.series(steps + 1)
    w, r = w_col.tolist(), r_col.tolist()

    a, b = cfg.theta_true.a, cfg.theta_true.b
    b0, b_tail = float(b[0]), b[1:]
    # psi(t0) from phi0 under the first set-point
    y, u = cfg.phi0[: n + 1], cfg.phi0[n + 1 :]
    psi = np.empty((steps + 1, 2 * n + 1))
    psi[0] = np.concatenate((y - r[0], u[:-1] - u[1:]))
    psi_rows = list(psi)  # one view per row, made once
    # y(t0 + i) is y_rev[steps - i], so at step i the history y(t)..y(t-n+1),
    # newest first, is the view y_rev[steps - i :][:n]; u alike
    y_rev, u_rev = np.empty(steps + n), np.empty(steps + n)
    y_rev[steps:], u_rev[steps:] = y[:n], u[:n]
    u_now = float(u[0])
    theta = cfg.theta0

    e = np.empty(steps)
    solves, starts = [], []
    key = None
    for i in range(steps):
        if theta.tobytes() != key:
            try:
                K = solve_gains(theta, cfg.target)
            except SingularSylvesterError as err:
                raise SingularSylvesterError(
                    err.margin, err.threshold, err.rcond, err.theta_hat, step=cfg.t0 + i
                ) from err
            key = theta.tobytes()
            solves.append((theta, K))
            starts.append(i)
        at = steps - i

        # the plant difference equation; the grouping fixes the output bits
        # (ndarray.dot is the BLAS dot of `@`, with less dispatch)
        u_term = b0 * u_now
        if n > 1:
            u_term += float(b_tail.dot(u_rev[at + 1 : at + n]))
        y_next = float(a.dot(y_rev[at : at + n])) + u_term + w[i]
        ybar_next = y_next - r[i + 1]
        now, nxt = psi_rows[i], psi_rows[i + 1]
        theta, e[i] = projection_step(theta, now, ybar_next, mu, aux_box)
        ubar_next = float(K.dot(now))

        # the newest values in front of the histories, and the regressor shifted
        y_rev[at - 1] = y_next
        u_now += ubar_next
        u_rev[at - 1] = u_now
        nxt[1:] = now[:-1]
        nxt[0] = ybar_next
        nxt[n + 1] = ubar_next

    thetas, gains = (np.array(col) for col in zip(*solves))
    residuals = design_residual(thetas, gains, cfg.target)
    solve_of = np.repeat(np.arange(len(starts)), np.diff(starts + [steps]))
    # the stacked row product has the bits of each step's psi @ theta_star
    seen = (psi[:-1, None, :] @ cfg.theta_star()[:, None])[:, 0, 0]
    return Trajectory(
        n=n, t=cfg.t0 + np.arange(steps), y=y_rev[steps:0:-1].copy(), u=u_rev[steps:0:-1].copy(), w=w_col,
        r=r_col[:-1], ybar=psi[:-1, 0].copy(), ubar=psi[:-1, n + 1].copy(),
        wbar=psi[1:, 0] - seen, e=e, psi=psi[:-1], theta_hat=thetas[solve_of],
        gains=gains[solve_of], dioph_residual=residuals[solve_of],
    )


# ---------------------------------------------------------------------------
# sampled norm constants of the crude growth bound


@dataclass(frozen=True)
class ConstantsEstimate:
    """Sampled closed-loop norm bound and the exact box diameter."""

    alpha_bar: float
    s_bar: float
    samples_used: int
    samples_skipped: int


# bytes of one streamed chunk's [M | b] stack in estimate_constants
_CHUNK_BYTES = 1 << 19


def _chunk_rows(n: int) -> int:
    """Estimates per chunk of order n: as many (2n+1) x (2n+2) float systems as fit _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // ((2 * n + 1) * (2 * n + 2) * 8))


def _box_chunks(box: BoxSet, rng: np.random.Generator, samples: int, rows: int):
    """`samples` uniform draws, then every box vertex, in chunks of at most `rows` rows.

    The chunked draws are the one-shot `box.sample(rng, samples)` stream,
    value for value, and the vertices are drawn from `box.vertices()`.
    Every chunk is a (count, dim) view of one entry-major buffer, the
    transpose of a C-contiguous (dim, rows) block, which the next chunk
    overwrites; the draws are scaled there, after the copy.
    """
    entries = np.empty((box.dim, rows))
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        yield box.sample(rng, count, out=entries[:, :count].T)
    corners = box.vertices()
    while chunk := list(itertools.islice(corners, rows)):
        block = entries[:, : len(chunk)].T
        block[...] = chunk
        yield block


def _sigma_bound(thetas: np.ndarray, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on sigma_max of the closed-loop matrix of each (theta, K) row.

    Every row of A(theta, K) is theta, K or one of the 2n-1 shift rows, which
    are distinct unit vectors, so A'A = D + theta theta' + K K' with D a 0/1
    diagonal.  With G the 2x2 Gram matrix of theta and K, three row dot
    products per row, Weyl's monotonicity theorem gives
    lambda_max(G) <= sigma_max(A)^2 <= 1 + lambda_max(G): D is positive
    semidefinite with norm at most 1.  G's entries are (2n+1)-term dot
    products, which moves lambda_max by at most 2 gamma_{2n+1} lambda_max
    (Higham, section 3.1), and a dozen roundings form the bounds from G, so
    the factors 1 -+ 2 gamma_{2n+10} cover their own rounding.
    """
    pairs = ((thetas, thetas), (gains, gains), (thetas, gains))
    tt, kk, tk = (np.einsum("ij,ij->i", a, b) for a, b in pairs)
    half = 0.5 * (tt - kk)
    lam = 0.5 * (tt + kk) + np.sqrt(half * half + tk * tk)
    slack = 2.0 * _gamma(thetas.shape[-1] + 9)
    return np.sqrt(lam) * (1.0 - slack), np.sqrt(1.0 + lam) * (1.0 + slack)


def estimate_constants(
    aux_box: BoxSet,
    target: TargetPolynomial,
    samples: int = 100_000,
    seed: int = 0,
) -> ConstantsEstimate:
    """Sample the incremental box for the worst closed-loop matrix norm.

    Draws `samples` uniform points plus every box vertex, solves the design
    at each, and takes the largest induced 2-norm of the assembled
    closed-loop matrix.  Samples with a singular design are skipped and
    counted; a negative `samples`, or a box where every one is singular,
    raises ValueError.  For a fixed seed the draw stream is sequential, so
    the estimate is monotone nondecreasing in `samples`.  The returned s_bar
    is the exact box diameter.

    The estimates stream through in chunks, draws first and then the
    vertices, with a running maximum.  A chunk holds as many rows as fit
    their design systems in _CHUNK_BYTES, and `solve_diophantine_batch`
    solves every chunk in one workspace allocated per call, so memory stays
    bounded whatever the sample count, the vertex count or the order n.
    `_box_chunks` lays every chunk out entry-major in one buffer beside
    the workspace, so the solve and `_sigma_bound` read every entry's
    draws, and every gain entry, as one contiguous array.
    `_sigma_bound` brackets sigma_max for every regular row's gain row, and
    each chunk sends to one SVD call only the rows whose upper bound reaches
    the cut: the maximum so far or the chunk's largest lower bound,
    whichever is larger.  The result is the same float as one batched solve
    and SVD of every row: chunked draws reproduce the one-shot stream, each
    row's solve and each matrix's SVD do not depend on the batch around it,
    a pruned row's sigma_max is below the maximum so far or below the
    sigma_max of the row with the chunk's largest lower bound, which is
    kept, and a maximum does not depend on order.
    """
    n = target.n
    dim = 2 * n + 1
    if aux_box.dim != dim:
        raise ValueError(f"expected an incremental box of dimension {dim}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rng = np.random.default_rng(seed)
    lifted = target.lifted_coeffs()
    rows = _chunk_rows(n)
    work = _design_workspace(n, rows)
    alpha = -np.inf
    used = total = 0
    for thetas in _box_chunks(aux_box, rng, int(samples), rows):
        total += thetas.shape[0]
        ok, gains = solve_diophantine_batch(thetas, lifted, n, work)
        if not ok.all():
            thetas = thetas[ok]
        low, high = _sigma_bound(thetas, gains)
        # the relative margin keeps a row whose rounded bound ties the cut, a
        # NaN upper bound is never below it, and fmax passes over a NaN lower one
        cut = np.fmax.reduce(low, initial=alpha)
        rows = np.flatnonzero(~(high < cut * (1.0 - 1e-12)))
        if rows.size:
            mats = closed_loop_matrix(thetas[rows], gains[rows])
            alpha = float(np.max(np.linalg.svd(mats, compute_uv=False)[:, 0], initial=alpha))
        used += gains.shape[0]
    if used == 0:
        raise ValueError(f"the design is singular at all {total} sampled estimates of the box")
    return ConstantsEstimate(
        alpha_bar=alpha,
        s_bar=aux_box.diameter(),
        samples_used=used,
        samples_skipped=total - used,
    )


# ---------------------------------------------------------------------------
# the Monte Carlo sweep


@dataclass(frozen=True)
class BoundReport:
    """One sweep draw: the `sweep.csv` columns in field order, then per-audit violation counts."""

    draw: int
    mu: float
    gamma: float
    lam: float
    residual_floor: float
    tail_tracking: float
    violations: int
    aborted: bool
    details: dict


def _sample_plant(box: BoxSet, n: int, rng: np.random.Generator, tries: int = 100) -> PlantParameters:
    """Uniform plant draw satisfying the standing assumptions."""
    for _ in range(tries):
        vec = box.sample(rng)
        theta = PlantParameters(vec[:n], vec[n:])
        try:
            theta.validate(box)
        except ValueError:
            continue
        return theta
    raise RuntimeError(f"no admissible plant found in {tries} draws from the box")


def _check_sweep(cfg: SimConfig, prefix: str = "", draws=None, seed=None, horizon=None, overrides=None) -> None:
    """Refuse a sweep setting of `cfg` out of range, naming it `prefix` + its sweep-block key; None is unset.

    A horizon must be one a run of `cfg` can take, as `SimConfig` checks its own.
    """
    for key, value, least in (("draws", draws, 1), ("seed", seed, 0), ("horizon", horizon, 1)):
        if value is not None:
            _check_integer(value, least, prefix + key)
    if horizon is not None:
        _check_horizon(cfg, horizon, prefix + "horizon")
    overrides = overrides or {}
    unknown = set(overrides) - {"theta", "theta0", "mu", "phi0"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {prefix}overrides")
    mu, scale = overrides.get("mu"), overrides.get("phi0")
    if mu is not None and not (len(mu) == 2 and 0.0 < mu[0] <= mu[1] < np.inf):
        raise ValueError(f"{prefix}overrides.mu must be [lo, hi] with finite 0 < lo <= hi, got {mu!r}")
    if scale is not None and not 0.0 <= scale < np.inf:
        raise ValueError(f"{prefix}overrides.phi0 must be a finite scale >= 0, got {scale!r}")


def monte_carlo_sweep(
    cfg: SimConfig,
    draws: int,
    seed: int | None = None,
    overrides: dict | None = None,
    horizon: int | None = None,
) -> list[BoundReport]:
    """Repeated, optionally randomized runs of a base config, audited draw by draw.

    With no `overrides` every draw replays the base config, so draws=1 is a
    single closed-loop run plus audits.  `overrides` switches randomizations
    on: `theta` (True: redraw the plant uniformly from the box), `theta0`
    (True: redraw the initial estimate from the incremental box), `mu`
    ((lo, hi): log-uniform), `phi0` (scale c: uniform on [-c, c]), drawn in
    that order from the seed just before the draw runs.  Every draw is
    audited by `cfg.audits`, with `cfg.constants(seed)` sampled once.  A draw
    whose design equation goes singular is reported as aborted rather than
    killing the sweep.
    """
    _check_sweep(cfg, draws=draws, seed=seed, horizon=horizon, overrides=overrides)
    if horizon is not None:  # checked with the audit plan before the constants are sampled
        cfg = replace(cfg, horizon=horizon)
    seed = cfg.seed if seed is None else int(seed)
    overrides = overrides or {}
    mu_range, scale = overrides.get("mu"), overrides.get("phi0")
    log_mu = None if mu_range is None else (np.log(float(mu_range[0])), np.log(float(mu_range[1])))
    n, aux_box, lam = cfg.n, cfg.aux_box(), cfg.decay_rate()
    constants = cfg.constants(seed)
    rng = np.random.default_rng(seed)
    reports = []
    for draw in range(draws):
        theta = _sample_plant(cfg.box, n, rng) if overrides.get("theta") else cfg.theta_true
        theta0 = aux_box.sample(rng) if overrides.get("theta0") else cfg.theta0
        mu = cfg.mu if log_mu is None else float(np.exp(rng.uniform(*log_mu)))
        phi0 = cfg.phi0 if scale is None else rng.uniform(-float(scale), float(scale), size=2 * (n + 1))
        c = replace(
            cfg,
            theta_true=theta,
            theta0=theta0,
            mu=mu,
            phi0=phi0,
        )
        try:
            traj = run_closed_loop(c)
        except SingularSylvesterError:
            nan = float("nan")
            reports.append(BoundReport(draw, c.mu, nan, lam, nan, nan, 0, True, {}))
            continue
        results = run_audits(traj, c, constants)
        detail = {name: res["violations"] for name, res in results.items()}
        fit = gain_bound_fit(traj, c)
        reports.append(BoundReport(
            draw, c.mu, fit["gamma"], lam, fit["residual_floor"], fit["tail_tracking"],
            sum(detail.values()), False, detail,
        ))
    return reports
