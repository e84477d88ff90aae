"""Closed-loop simulation, trajectory logging, and the audit suite.

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

Audits available on any trajectory:

* estimator energy inequalities (see `estimator.estimator_audit`),
* exact one-step state recursion (see `controller.state_recursion_audit`),
* frozen-time pole placement: a proven bound on the characteristic
  coefficient error of every logged (thetahat, K) row, read off the design
  system without building a closed-loop matrix, and a Rouche certificate
  that every frozen pole lies inside the decay radius,
* the crude growth bound ||psi(t+1)|| <= (alpha + diam) ||psi(t)|| + |wbar(t)|
  with alpha estimated by sampling the parameter box,
* a fitted linear-like gain bound and a tracking check under constant
  excitation.

Each audit decides its own verdict against the shared rounding tolerance
`AUDIT_TOL` and returns its manifest record, a plain dict with `violations`,
`pass` and its diagnostics; a NaN or Inf is a violation, never a pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controller import (
    SingularSylvesterError,
    TargetPolynomial,
    _certified_design,
    _gain_order,
    _gamma,
    closed_loop_matrix,
    design_rhs,
    solve_diophantine,
    solve_diophantine_batch,
    state_recursion_audit,
)
from .estimator import AUDIT_TOL, estimator_audit, projection_step
from .plant import BoxSet, PlantParameters, aux_transform, image_box
from .polynomial import sylvester_matrix

__all__ = [
    "SignalSpec",
    "SimConfig",
    "Trajectory",
    "TrajectoryFormatError",
    "ConstantsEstimate",
    "BoundReport",
    "run_closed_loop",
    "estimate_constants",
    "crude_bound_audit",
    "pole_placement_audit",
    "gain_bound_fit",
    "tracking_audit",
    "monte_carlo_sweep",
    "run_audits",
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
        if self.kind == "sign_flip" and (int(self.period) != self.period or self.period < 1):
            raise ValueError("sign_flip needs an integer period >= 1")
        if self.kind == "custom":
            if self.values is None:
                raise ValueError("custom signal needs explicit values")
            vals = np.atleast_1d(np.asarray(self.values, dtype=float))
            if vals.ndim != 1 or not np.all(np.isfinite(vals)):
                raise ValueError("custom signal values must be a finite 1-D sequence")
            vals.flags.writeable = False
            object.__setattr__(self, "values", vals)

    def value(self, elapsed: int) -> float:
        if self.kind == "constant":
            return float(self.magnitude)
        if self.kind == "sign_flip":
            flips = elapsed // int(self.period)
            return float(self.magnitude) * (1.0 if flips % 2 == 0 else -1.0)
        if not 0 <= elapsed < self.values.size:
            raise IndexError(f"custom signal has no value at elapsed step {elapsed}")
        return float(self.values[elapsed])


@dataclass(frozen=True)
class SimConfig:
    """Everything one closed-loop run depends on.

    `phi0` stacks the initial output and input histories newest first,
    [y(t0)..y(t0-n), u(t0)..u(t0-n)].  `theta0` is the initial estimate in
    incremental coordinates and must lie in the image box of `box`.
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
    nudge_singular: bool = False
    lam: float | None = None

    def __post_init__(self):
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float)).copy()
        phi0 = np.atleast_1d(np.asarray(self.phi0, dtype=float)).copy()
        theta0.flags.writeable = False
        phi0.flags.writeable = False
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "phi0", phi0)

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

    def validate(self) -> None:
        n = self.n
        if n < 1 or self.theta_true.n != n or self.target.n != n:
            raise ValueError("plant order, target, and n must agree and be >= 1")
        if self.box.dim != 2 * n:
            raise ValueError(f"the parameter box must have dimension {2 * n}")
        self.theta_true.validate(self.box)
        if self.theta0.shape != (2 * n + 1,):
            raise ValueError(f"theta0 must have length {2 * n + 1}")
        if not self.aux_box().contains(self.theta0):
            raise ValueError("theta0 must lie inside the incremental parameter box")
        if self.phi0.shape != (2 * (n + 1),):
            raise ValueError(f"phi0 must have length {2 * (n + 1)}")
        if not 0.0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError("horizon must be an integer >= 1")
        if self.estimator_mode not in ("classical", "ideal"):
            raise ValueError("estimator_mode must be 'classical' or 'ideal'")
        for name, spec in (("reference", self.reference), ("disturbance", self.disturbance)):
            if spec.kind == "custom" and spec.values.size < self.horizon + 1:
                raise ValueError(
                    f"custom {name} needs at least horizon+1 = {self.horizon + 1} values"
                )
        if self.lam is not None:
            floor = self.target.decay_floor()
            if not floor < self.lam < 1.0:
                raise ValueError(f"lam must lie in ({floor:.6f}, 1)")


def _phi_history(y: np.ndarray, u: np.ndarray, phi0: np.ndarray, n: int) -> np.ndarray:
    """Raw states [y(t)..y(t-n), u(t)..u(t-n)] for every logged row.

    Row 0 is phi0 itself; later rows shift in the logged y and u columns,
    newest first, with phi0 supplying the history before the first row.
    """
    windows = [
        sliding_window_view(np.concatenate((hist[::-1], col[1:])), n + 1)[:, ::-1]
        for hist, col in ((phi0[: n + 1], y), (phi0[n + 1 :], u))
    ]
    return np.concatenate(windows, axis=1)


# The trajectory.csv schema, in column order: each entry names the
# `Trajectory` field a column holds and, for the three (2n+1)-wide blocks, the
# prefix of their columns <prefix>_1..<prefix>_{2n+1}; a scalar column is
# named after its field.
TRAJECTORY_COLUMNS = (
    ("t", None), ("y", None), ("u", None), ("w", None), ("r", None),
    ("ybar", None), ("ubar", None), ("wbar", None), ("e", None),
    ("psi", "psi"), ("theta_hat", "thetahat"), ("gains", "K"), ("dioph_residual", None),
)


@dataclass
class Trajectory:
    """Per-step record of one closed-loop run.

    Row i belongs to absolute time t[i] = t0+i and carries the signals then,
    the regressor psi(t), the estimate thetahat(t) the step started from, the
    gain row solved from that estimate (it produces the next input
    increment), the prediction error e(t+1), and the design residual at that
    estimate.  `phi` holds the raw state [y(t)..y(t-n), u(t)..u(t-n)].
    """

    n: int
    mu: float
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
    phi: np.ndarray

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

        The closing (thetahat, K, dioph_residual) block is formatted once per
        run of consecutive rows with the same bits (a uint64 view keeps -0.0
        and NaN apart).
        """
        head, block = (
            np.column_stack([getattr(self, field) for field, _ in part])
            for part in (TRAJECTORY_COLUMNS[:-3], TRAJECTORY_COLUMNS[-3:])
        )
        bits = block.view(np.uint64)
        fresh = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)][: len(bits)]
        # "%d" renders the integral time axis; "%.17g" renders a Python float
        # exactly as f"{v:.17g}" does
        fmt = ",%.17g" * block.shape[1]
        blocks = [fmt % tuple(row) for row in block[fresh].tolist()]
        fmt = "%d" + ",%.17g" * (head.shape[1] - 1)
        runs = (np.cumsum(fresh) - 1).tolist()
        lines = [",".join(self.header(self.n))]
        lines += [fmt % tuple(row) + blocks[k] for row, k in zip(head.tolist(), runs)]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str, cfg: SimConfig) -> "Trajectory":
        """Parse an exported trajectory and rebuild the in-memory form.

        The header, column count, row count, and time axis must match the
        config exactly; the raw state phi is reconstructed from the y and u
        columns seeded with the config's phi0.
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
        data = np.empty((len(rows), width))
        for i, ln in enumerate(rows):
            parts = ln.split(",")
            if len(parts) != width:
                raise TrajectoryFormatError(f"row {i} has {len(parts)} fields, expected {width}")
            try:
                data[i] = [float(p) for p in parts]
            except ValueError as err:
                raise TrajectoryFormatError(f"row {i} is not numeric: {err}") from err
        widths = [1 if prefix is None else 2 * n + 1 for _, prefix in TRAJECTORY_COLUMNS]
        blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
        cols = {
            field: block[:, 0] if prefix is None else block
            for (field, prefix), block in zip(TRAJECTORY_COLUMNS, blocks)
        }
        expected_t = cfg.t0 + np.arange(len(rows))
        if not np.array_equal(cols["t"], expected_t.astype(float)):
            raise TrajectoryFormatError("time column does not match the config start and horizon")
        cols["t"] = expected_t

        y, u = cols["y"], cols["u"]
        if y[0] != cfg.phi0[0] or u[0] != cfg.phi0[n + 1]:
            raise TrajectoryFormatError("first row is inconsistent with the config's phi0")

        return cls(
            n=n,
            mu=cfg.mu,
            phi=_phi_history(y, u, cfg.phi0, n),
            **cols,
        )


def _design(theta: np.ndarray, cfg: SimConfig, aux_box: BoxSet, t: int):
    """Solve at theta, nudged once toward the box center if allowed; (theta, K, residual)."""
    try:
        return theta, *solve_diophantine(theta, cfg.target)
    except SingularSylvesterError as err:
        failure = err
    if cfg.nudge_singular:
        nudged = aux_box.clip(theta + 1e-6 * aux_box.width * np.sign(aux_box.center - theta))
        try:
            return nudged, *solve_diophantine(nudged, cfg.target)
        except SingularSylvesterError as err:
            failure = err
    raise SingularSylvesterError(
        failure.margin, failure.threshold, failure.rcond, failure.theta_hat, step=t
    ) from failure


def run_closed_loop(cfg: SimConfig) -> Trajectory:
    """Simulate the adaptive loop for cfg.horizon steps.

    Raises SingularSylvesterError (annotated with the failing step) if the
    design becomes unsolvable at some estimate; with cfg.nudge_singular the
    estimate is first pushed a millionth of the box width toward the box
    center and the solve retried once.  The design is re-solved only when
    the estimate changes.

    The loop logs what each step computes: y, u, e, and psi(t+1) as the
    next row of the regressor log it works in.  Each fresh solve logs one
    (thetahat, K, residual) row and its first step; the other columns are
    derived after the loop, with the bits a per-step copy would have.
    """
    cfg.validate()
    n = cfg.n
    aux_box = cfg.aux_box()
    mu = cfg.law_mu()
    steps = int(cfg.horizon)
    w = [cfg.disturbance.value(i) for i in range(steps)]
    r = [cfg.reference.value(i) for i in range(steps + 1)]

    a, b = cfg.theta_true.a, cfg.theta_true.b
    # psi(t0) from phi0 under the first set-point; y and u keep the raw
    # histories y(t)..y(t-n+1) and u(t)..u(t-n+1), newest first
    y, u = cfg.phi0[: n + 1], cfg.phi0[n + 1 :]
    psi = np.empty((steps + 1, 2 * n + 1))
    psi[0] = np.concatenate((y - r[0], u[:-1] - u[1:]))
    y, u = y[:n].copy(), u[:n].copy()
    theta = cfg.theta0

    y_log, u_log, e = np.empty(steps), np.empty(steps), np.empty(steps)
    solves, starts = [], []
    key = None
    for i in range(steps):
        if theta.tobytes() != key:
            theta, K, residual = _design(theta, cfg, aux_box, cfg.t0 + i)
            key = theta.tobytes()
            solves.append((theta, K, residual))
            starts.append(i)
        y_log[i] = y[0]
        u_log[i] = u[0]

        # the plant difference equation; the grouping fixes the output bits
        u_term = float(b[0] * u[0])
        if n > 1:
            u_term += float(b[1:] @ u[1:])
        y_next = float(a @ y) + u_term + w[i]
        ybar_next = y_next - r[i + 1]
        now, nxt = psi[i], psi[i + 1]
        theta, e[i] = projection_step(theta, now, ybar_next, mu, aux_box)
        ubar_next = float(K @ now)

        # shift the histories and the regressor: newest values in front
        y[1:] = y[:-1]
        y[0] = y_next
        u[1:] = u[:-1]
        u[0] += ubar_next
        nxt[1:] = now[:-1]
        nxt[0] = ybar_next
        nxt[n + 1] = ubar_next

    solve_of = np.repeat(np.arange(len(starts)), np.diff(starts + [steps]))
    thetas, gains, residuals = (np.array(col)[solve_of] for col in zip(*solves))
    # the stacked row product has the bits of each step's psi @ theta_star
    seen = (psi[:-1, None, :] @ cfg.theta_star()[:, None])[:, 0, 0]
    return Trajectory(
        n=n, mu=cfg.mu, t=cfg.t0 + np.arange(steps), y=y_log, u=u_log, w=np.array(w),
        r=np.array(r[:-1]), ybar=psi[:-1, 0].copy(), ubar=psi[:-1, n + 1].copy(),
        wbar=psi[1:, 0] - seen, e=e, psi=psi[:-1], theta_hat=thetas, gains=gains,
        dioph_residual=residuals, phi=_phi_history(y_log, u_log, cfg.phi0, n),
    )


# ---------------------------------------------------------------------------
# sampled constants and the crude growth bound


@dataclass(frozen=True)
class ConstantsEstimate:
    """Sampled closed-loop norm bound and the exact box diameter."""

    alpha_bar: float
    s_bar: float
    samples_used: int
    samples_skipped: int


# estimates per streamed chunk of estimate_constants, and the rows of largest
# sigma_max bound whose solve and SVD seed each chunk's pruning cutoff
_CHUNK = 8192
_PROBE = 8


def _box_chunks(box: BoxSet, rng: np.random.Generator, samples: int):
    """`samples` uniform draws, then every box vertex, in chunks of at most _CHUNK rows.

    The chunked draws are the one-shot `box.sample(rng, samples)` stream,
    value for value, and the vertices are drawn from `box.vertices()`.
    """
    for start in range(0, samples, _CHUNK):
        yield box.sample(rng, min(_CHUNK, samples - start))
    corners = box.vertices()
    while chunk := list(itertools.islice(corners, _CHUNK)):
        yield np.array(chunk)


def _sigma_bound(thetas: np.ndarray, gains: np.ndarray, slack: float | np.ndarray) -> np.ndarray:
    """Upper bound on sigma_max of the closed-loop matrix of each (theta, K) row.

    Every row of A(theta, K) is theta, K or one of the 2n-1 shift rows, which
    are distinct unit vectors, so A'A = D + theta theta' + K K' with D a 0/1
    diagonal.  By Weyl, sigma_max(A)^2 <= 1 + lambda_max(G), G the 2x2 Gram
    matrix of theta and K: three row dot products per row.  sqrt(lambda_max)
    is the 2-norm of the stacked rows [theta; K], so it grows by at most
    `slack` when K moves by at most that much; the bound holds for every
    such K.  G's entries are (2n+1)-term dot products, which moves
    lambda_max by at most 2 gamma_{2n+1} lambda_max (Higham, section 3.1),
    and a dozen roundings form the bound from G, so a factor
    1 + 2 gamma_{2n+10} covers its own rounding.
    """
    pairs = ((thetas, thetas), (gains, gains), (thetas, gains))
    tt, kk, tk = (np.einsum("ij,ij->i", a, b) for a, b in pairs)
    half = 0.5 * (tt - kk)
    top = np.sqrt(0.5 * (tt + kk) + np.sqrt(half * half + tk * tk)) + slack
    return np.sqrt(1.0 + top * top) * (1.0 + 2.0 * _gamma(thetas.shape[-1] + 9))


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
    counted; a box where every one is singular raises ValueError.  For a
    fixed seed the draw stream is sequential, so the estimate is monotone
    nondecreasing in `samples`.  The returned s_bar is the exact box
    diameter.

    The estimates stream through in fixed-size chunks, draws first and then
    the vertices, with a running maximum, so memory stays bounded however
    many samples or vertices there are.  `controller._certified_design`
    proves LAPACK's verdict at nearly every row of a chunk and, with
    `_sigma_bound`, bounds sigma_max for LAPACK's gain row.  LAPACK solves
    only the undecided rows, the _PROBE rows of largest bound, and the rows
    whose bound reaches the maximum so far, and every regular row it solves
    goes to the SVD with LAPACK's gain row.  The result is the same float as
    one LAPACK solve and SVD of every row: chunked draws reproduce the
    one-shot stream, each matrix's solve and SVD do not depend on the batch
    around it, a pruned row's sigma_max is below the maximum, and a maximum
    does not depend on order.
    """
    n = target.n
    dim = 2 * n + 1
    if aux_box.dim != dim:
        raise ValueError(f"expected an incremental box of dimension {dim}")
    rng = np.random.default_rng(seed)
    lifted = target.lifted_coeffs()
    alpha = -np.inf
    used = total = 0
    for thetas in _box_chunks(aux_box, rng, int(samples)):
        decided, ok, gains, slack = _certified_design(thetas, lifted, n)
        bound = np.where(ok, _sigma_bound(thetas, gains, slack), -np.inf)
        lapack, done = ~decided, np.zeros_like(ok)
        lapack[np.argpartition(bound, -_PROBE)[-_PROBE:] if bound.size > _PROBE else slice(None)] = True
        while lapack.any():
            design = solve_diophantine_batch(thetas[lapack], lifted, n)
            ok[lapack] = design.ok
            mats = closed_loop_matrix(thetas[lapack][design.ok], design.gains)
            alpha = float(np.max(np.linalg.svd(mats, compute_uv=False)[:, 0], initial=alpha))
            done |= lapack
            # the rows whose bound reaches the maximum; the relative margin keeps a
            # row whose rounded bound ties it, and a NaN bound is never below it
            lapack = ok & ~done & ~(bound < alpha * (1.0 - 1e-12))
        used += int(ok.sum())
        total += thetas.shape[0]
    if used == 0:
        raise ValueError(f"the design is singular at all {total} sampled estimates of the box")
    return ConstantsEstimate(
        alpha_bar=alpha,
        s_bar=aux_box.diameter(),
        samples_used=used,
        samples_skipped=total - used,
    )


def crude_bound_audit(traj: Trajectory, alpha_bar: float, s_bar: float) -> dict:
    """Check ||psi(t+1)|| <= (alpha + diam) ||psi(t)|| + |wbar(t)| stepwise.

    alpha_bar is a sampled lower estimate of the true supremum, so isolated
    violations indicate undersampling rather than a broken loop;
    `alpha_required` reports how large alpha would have to be.
    """
    norms = np.linalg.norm(traj.psi, axis=1)
    violations = 0
    alpha_required = 0.0
    if norms.size >= 2:
        prev, lhs, wbar = norms[:-1], norms[1:], np.abs(traj.wbar[:-1])
        rhs = (alpha_bar + s_bar) * prev + wbar
        # a NaN or Inf on either side counts, never passes
        violations = int((~(lhs - rhs <= AUDIT_TOL * (1.0 + prev)) | ~np.isfinite(rhs)).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            needed = np.where(prev > 0.0, (lhs - wbar) / prev - s_bar, -np.inf)
        alpha_required = float(needed.max())
    return {
        "violations": violations,
        "pass": violations == 0,
        "alpha_bar": alpha_bar,
        "s_bar": s_bar,
        "alpha_required": alpha_required,
    }


def _rouche_margin(target: TargetPolynomial, lam: float) -> float:
    """Proven lower bound on min |z^{2n+1} Astar(1/z)| over the circle |z| = lam.

    That is lam^(2n+1-d) min |q|, q the target without trailing zeros and d
    its degree.  |q| is symmetric about the real axis, so arcs + 1 samples
    of the upper half circle leave every point within an arc lam pi/(2 arcs)
    of one; |q'| <= sum_k k|q_k| lam^(k-1) turns that into a Lipschitz
    slack, and gamma_{16(2n+1)} sum_k |q_k| lam^k covers the rounding.  The
    arcs double from 2^11 until the slack is at most half the sampled
    minimum, which keeps at least half of it for a target root near the
    circle; at 2^20 arcs the bound is returned as it is, and a nonpositive
    one certifies nothing.
    """
    q = np.trim_zeros(target.coeffs, "b")
    lipschitz = np.polyval(np.polyder(np.abs(q)), lam) * np.pi * lam / 2
    rounding = _gamma(16 * target.dim) * np.polyval(np.abs(q), lam)
    arcs = 2048
    while True:
        circle = lam * np.exp(1j * np.pi / arcs * np.arange(arcs + 1))
        lowest = np.abs(np.polyval(q, circle)).min()
        if lipschitz / arcs <= 0.5 * lowest or arcs >= 2**20:
            return float(lam ** (target.dim + 1 - q.size) * (lowest - lipschitz / arcs - rounding))
        arcs *= 2


def pole_placement_audit(traj: Trajectory, target: TargetPolynomial, lam: float) -> dict:
    """Prove that every logged (thetahat, K) row places the target poles, inside |z| < lam.

    det(zI - A(theta, K)) is the z-lift of Abar L + B P, with
    [L, P] = [1, l, 0, p] and x = [l; p] = [-K[n+1:], -K[:n+1]] for any
    gain row.  So the coefficient error of every row is
    r = M(theta) x - (Astar - Abar), with the design matrix M and no
    closed-loop matrix built.  Its 2n+1 products and two rounded terms make
    |r| + gamma_{2n+3} (|M||x| + |Astar - Abar| + |Astar|) a bound on the
    exact error (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1); a factor 1 + 2 gamma_{2n+3} covers the bound's own rounding,
    and its largest entry is the proven `max_coeff_err` eps.

    Violations: eps beyond AUDIT_TOL * (1 + max|Astar|); the design
    residual column beyond the same; and a failed radius certificate.  By
    Rouche's theorem all frozen poles lie in |z| < lam when every target
    pole does and eps * sum_{j<=2n} lam^j is below `rouche_margin` (see
    `_rouche_margin`).  A NaN or Inf is a violation.
    """
    lam = float(lam)
    n, k = target.n, 2 * target.n + 3
    lifted = target.lifted_coeffs()
    scale = 1.0 + float(np.abs(lifted).max())
    m = sylvester_matrix(traj.theta_hat, n)
    rhs = design_rhs(traj.theta_hat, lifted, n)
    x = np.empty(traj.gains.shape + (1,))
    x[:, _gain_order(n), 0] = -traj.gains
    margin = _rouche_margin(target, lam)
    with np.errstate(invalid="ignore", over="ignore"):
        r = (m @ x)[:, :, 0] - rhs
        bound = (np.abs(m) @ np.abs(x))[:, :, 0] + np.abs(rhs) + np.abs(lifted[1:])
        err = np.abs(r) + _gamma(k) * bound
        eps = float(np.max(err)) * (1.0 + 2.0 * _gamma(k))
        radius = eps * np.polyval(np.ones(2 * n + 1), lam)
    res_max = float(traj.dioph_residual.max())
    # a NaN fails every comparison, so it counts as a violation
    checks = (eps <= AUDIT_TOL * scale, res_max <= AUDIT_TOL * scale,
              target.decay_floor() < lam and radius < margin)
    violations = sum(not ok for ok in checks)
    return {
        "violations": violations,
        "pass": violations == 0,
        "max_coeff_err": eps,
        "max_residual": res_max,
        "lambda": lam,
        "rouche_margin": margin,
    }


# ---------------------------------------------------------------------------
# linear-like gain bound and tracking


def gain_bound_fit(traj: Trajectory, lam: float, target: TargetPolynomial) -> dict:
    """Fit the smallest gamma making the linear-like bound hold on one run.

    The bound compares ||phi(t)|| against gamma times
    lam^(t-t0) ||phi0|| + (|r| + sqrt(mu)) + sum_j lam^(t-1-j) |w(j)|,
    so lam must sit strictly between the largest target pole modulus and 1.
    Returns the manifest's gain_bound block: gamma, lambda, the residual
    floor (max ||psi|| over the final quarter) and the tail tracking error.
    """
    floor = target.decay_floor()
    if not floor < lam < 1.0:
        raise ValueError(f"lam must lie in ({floor:.6f}, 1), got {lam}")
    steps = traj.steps
    phi_norm = np.linalg.norm(traj.phi, axis=1)
    offset = float(np.abs(traj.r).max()) + np.sqrt(traj.mu)

    conv = np.empty(steps)
    conv[0] = 0.0
    for i in range(steps - 1):
        conv[i + 1] = lam * conv[i] + abs(traj.w[i])
    denom = phi_norm[0] * lam ** np.arange(steps) + offset + conv
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0.0, phi_norm / np.where(denom > 0.0, denom, 1.0), 0.0)

    psi_norm = np.linalg.norm(traj.psi, axis=1)
    tail = min(100, max(1, steps // 4))
    return {
        "gamma": float(ratios.max()),
        "lambda": float(lam),
        "residual_floor": float(psi_norm[(3 * steps) // 4 :].max()),
        "tail_tracking": float(np.abs(traj.ybar[-tail:]).max()),
    }


def tracking_audit(traj: Trajectory, tail: int = 100) -> dict:
    """Largest |ybar| over the final `tail` steps under constant excitation.

    Demands constant reference and disturbance over the last 2*tail steps
    (the audited tail plus an equally long lead-in), since the
    asymptotic-tracking guarantee only speaks about constant excitation.  A
    NaN or Inf tail error is a violation.
    """
    if tail < 1:
        raise ValueError("tail must be >= 1")
    window = 2 * tail
    if traj.steps < window:
        raise ValueError(f"trajectory too short: need {window} steps, have {traj.steps}")
    r_win = traj.r[-window:]
    w_win = traj.w[-window:]
    if not (np.all(r_win == r_win[0]) and np.all(w_win == w_win[0])):
        raise ValueError("reference and disturbance must be constant over the audited window")
    err = float(np.abs(traj.ybar[-tail:]).max())
    violations = int(not np.isfinite(err))
    return {"violations": violations, "pass": violations == 0, "tail_max_error": err}


# ---------------------------------------------------------------------------
# audit orchestration and the Monte Carlo sweep

AUDIT_NAMES = ("estimator", "recursion", "poles", "crude_bound", "tracking")


def run_audits(
    traj: Trajectory,
    cfg: SimConfig,
    which: tuple[str, ...] | list[str] = ("estimator", "recursion", "poles"),
    constants: ConstantsEstimate | None = None,
    tracking_tail: int = 100,
) -> dict:
    """Run the selected audits on one trajectory; returns name -> manifest record.

    Records come in AUDIT_NAMES order.  The crude bound needs the sampled
    `constants` (see `estimate_constants`).
    """
    for name in which:
        if name not in AUDIT_NAMES:
            raise ValueError(f"unknown audit '{name}'; choose from {AUDIT_NAMES}")
    if "crude_bound" in which and constants is None:
        raise ValueError("the crude_bound audit needs the sampled constants")
    checks = {
        "estimator": lambda: estimator_audit(
            traj.psi, traj.e, traj.wbar, traj.theta_hat, cfg.theta_star(), cfg.law_mu()
        ).record(),
        "recursion": lambda: state_recursion_audit(traj.psi, traj.theta_hat, traj.gains, traj.e),
        "poles": lambda: pole_placement_audit(traj, cfg.target, cfg.decay_rate()),
        "crude_bound": lambda: crude_bound_audit(traj, constants.alpha_bar, constants.s_bar),
        "tracking": lambda: tracking_audit(traj, tail=tracking_tail),
    }
    return {name: check() for name, check in checks.items() if name in which}


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


OVERRIDE_KEYS = ("theta", "theta0", "mu", "phi0")


def monte_carlo_sweep(
    cfg: SimConfig,
    draws: int,
    seed: int | None = None,
    overrides: dict | None = None,
    horizon: int | None = None,
    alpha_samples: int = 100_000,
    audits: tuple[str, ...] = ("estimator", "recursion", "poles", "crude_bound"),
) -> list[BoundReport]:
    """Repeated, optionally randomized runs of a base config, audited draw by draw.

    With no `overrides` every draw replays the base config, so draws=1 is a
    single closed-loop run plus audits.  `overrides` switches randomizations
    on: `theta` (True: redraw the plant uniformly from the box), `theta0`
    (True: redraw the initial estimate from the incremental box), `mu`
    ((lo, hi): log-uniform), `phi0` (scale c: uniform on [-c, c]).  Draw
    parameters are generated up front from the seed, after every argument is
    checked.  A draw whose design equation goes singular is reported as
    aborted rather than killing the sweep.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    cfg.validate()
    seed = cfg.seed if seed is None else int(seed)
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"unknown override keys: {sorted(unknown)}")
    use_theta = bool(overrides.get("theta", False))
    use_theta0 = bool(overrides.get("theta0", False))
    mu_range = overrides.get("mu")
    if mu_range is not None:
        lo, hi = float(mu_range[0]), float(mu_range[1])
        if not 0.0 < lo <= hi < np.inf:
            raise ValueError(f"the mu override needs finite 0 < lo <= hi, got [{lo}, {hi}]")
    phi0_scale = overrides.get("phi0")

    n = cfg.n
    aux_box = cfg.aux_box()
    rng = np.random.default_rng(seed)
    configs: list[SimConfig] = []
    for _ in range(draws):
        theta = _sample_plant(cfg.box, n, rng) if use_theta else cfg.theta_true
        theta0 = aux_box.sample(rng) if use_theta0 else cfg.theta0
        if mu_range is None:
            mu = cfg.mu
        else:
            mu = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        if phi0_scale is None:
            phi0 = cfg.phi0
        else:
            phi0 = rng.uniform(-float(phi0_scale), float(phi0_scale), size=2 * (n + 1))
        configs.append(
            replace(
                cfg,
                theta_true=theta,
                theta0=theta0,
                mu=mu,
                phi0=phi0,
                horizon=horizon if horizon is not None else cfg.horizon,
            )
        )

    lam = cfg.decay_rate()
    need_constants = "crude_bound" in audits
    constants = (
        estimate_constants(aux_box, cfg.target, samples=alpha_samples, seed=seed)
        if need_constants
        else None
    )

    def one(idx: int) -> BoundReport:
        c = configs[idx]
        try:
            traj = run_closed_loop(c)
        except SingularSylvesterError:
            nan = float("nan")
            return BoundReport(idx, c.mu, nan, lam, nan, nan, 0, True, {})
        results = run_audits(traj, c, which=audits, constants=constants)
        detail = {name: res["violations"] for name, res in results.items()}
        fit = gain_bound_fit(traj, lam, cfg.target)
        return BoundReport(
            idx, c.mu, fit["gamma"], lam, fit["residual_floor"], fit["tail_tracking"],
            sum(detail.values()), False, detail,
        )

    return [one(i) for i in range(draws)]
