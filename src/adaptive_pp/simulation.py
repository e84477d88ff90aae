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
* frozen-time pole placement, compared in coefficient space where the
  repeated-pole problem is well conditioned,
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
    closed_loop_matrix,
    solve_diophantine,
    solve_diophantine_batch,
    state_recursion_audit,
)
from .estimator import AUDIT_TOL, estimator_audit, projection_step
from .plant import BoxSet, PlantParameters, aux_transform, image_box

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


@dataclass
class Trajectory:
    """Per-step record of one closed-loop run.

    Row i belongs to absolute time t0+i and carries the signals at that time,
    the regressor psi(t), the estimate thetahat(t) the step started from, the
    gain row solved from that estimate (it produces the next input
    increment), the prediction error e(t+1), and the design residual at that
    estimate.  `phi` holds the raw state [y(t)..y(t-n), u(t)..u(t-n)].
    """

    n: int
    t0: int
    mu: float
    estimator_mode: str
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
        dim = 2 * n + 1
        cols = ["t", "y", "u", "w", "r", "ybar", "ubar", "wbar", "e"]
        cols += [f"psi_{i}" for i in range(1, dim + 1)]
        cols += [f"thetahat_{i}" for i in range(1, dim + 1)]
        cols += [f"K_{i}" for i in range(1, dim + 1)]
        cols.append("dioph_residual")
        return cols

    def to_csv(self) -> str:
        """Render the documented column schema; floats carry 17 significant digits."""
        cols = np.column_stack((
            self.y, self.u, self.w, self.r, self.ybar, self.ubar, self.wbar, self.e,
            self.psi, self.theta_hat, self.gains, self.dioph_residual,
        ))
        # "%.17g" renders a Python float exactly as f"{v:.17g}" does
        fmt = "%d," + ",".join(["%.17g"] * cols.shape[1])
        lines = [",".join(self.header(self.n))]
        lines += [fmt % (t, *row) for t, row in zip(self.t.tolist(), cols.tolist())]
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
        dim = 2 * n + 1
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
        width = len(cls.header(n))
        data = np.empty((len(rows), width))
        for i, ln in enumerate(rows):
            parts = ln.split(",")
            if len(parts) != width:
                raise TrajectoryFormatError(f"row {i} has {len(parts)} fields, expected {width}")
            try:
                data[i] = [float(p) for p in parts]
            except ValueError as err:
                raise TrajectoryFormatError(f"row {i} is not numeric: {err}") from err
        t = data[:, 0]
        expected_t = cfg.t0 + np.arange(len(rows))
        if not np.array_equal(t, expected_t.astype(float)):
            raise TrajectoryFormatError("time column does not match the config start and horizon")

        y, u = data[:, 1], data[:, 2]
        if y[0] != cfg.phi0[0] or u[0] != cfg.phi0[n + 1]:
            raise TrajectoryFormatError("first row is inconsistent with the config's phi0")

        c = 9
        return cls(
            n=n,
            t0=cfg.t0,
            mu=cfg.mu,
            estimator_mode=cfg.estimator_mode,
            t=t.astype(int),
            y=y.copy(),
            u=u.copy(),
            w=data[:, 3].copy(),
            r=data[:, 4].copy(),
            ybar=data[:, 5].copy(),
            ubar=data[:, 6].copy(),
            wbar=data[:, 7].copy(),
            e=data[:, 8].copy(),
            psi=data[:, c : c + dim].copy(),
            theta_hat=data[:, c + dim : c + 2 * dim].copy(),
            gains=data[:, c + 2 * dim : c + 3 * dim].copy(),
            dioph_residual=data[:, c + 3 * dim].copy(),
            phi=_phi_history(y, u, cfg.phi0, n),
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
    """
    cfg.validate()
    n = cfg.n
    dim = 2 * n + 1
    aux_box = cfg.aux_box()
    theta_star = cfg.theta_star()
    mu = cfg.mu if cfg.estimator_mode == "classical" else 0.0

    a, b = cfg.theta_true.a, cfg.theta_true.b
    # psi(t0) from phi0 under the first set-point; y and u keep the raw
    # histories y(t)..y(t-n+1) and u(t)..u(t-n+1), newest first
    r_t = cfg.reference.value(0)
    y, u = cfg.phi0[: n + 1], cfg.phi0[n + 1 :]
    psi = np.concatenate((y - r_t, u[:-1] - u[1:]))
    y, u = y[:n].copy(), u[:n].copy()
    theta = cfg.theta0

    steps = int(cfg.horizon)
    out = {
        name: np.empty(steps)
        for name in ("y", "u", "w", "r", "ybar", "ubar", "wbar", "e", "dioph_residual")
    }
    psi_log = np.empty((steps, dim))
    theta_log = np.empty((steps, dim))
    gain_log = np.empty((steps, dim))

    key = None
    for i in range(steps):
        w_t = cfg.disturbance.value(i)
        if theta.tobytes() != key:
            theta, K, residual = _design(theta, cfg, aux_box, cfg.t0 + i)
            key = theta.tobytes()

        out["y"][i] = y[0]
        out["u"][i] = u[0]
        out["w"][i] = w_t
        out["r"][i] = r_t
        out["ybar"][i] = psi[0]
        out["ubar"][i] = psi[n + 1]
        out["dioph_residual"][i] = residual
        psi_log[i] = psi
        theta_log[i] = theta
        gain_log[i] = K

        # the plant difference equation; the grouping fixes the output bits
        u_term = float(b[0] * u[0])
        if n > 1:
            u_term += float(b[1:] @ u[1:])
        y_next = float(a @ y) + u_term + w_t
        r_t = cfg.reference.value(i + 1)
        ybar_next = y_next - r_t
        out["wbar"][i] = ybar_next - float(psi @ theta_star)
        theta, out["e"][i] = projection_step(theta, psi, ybar_next, mu, aux_box)
        ubar_next = float(K @ psi)

        # shift the histories and the regressor: newest values in front
        y[1:] = y[:-1]
        y[0] = y_next
        u[1:] = u[:-1]
        u[0] += ubar_next
        psi[1 : n + 1] = psi[:n]
        psi[0] = ybar_next
        psi[n + 2 :] = psi[n + 1 : dim - 1]
        psi[n + 1] = ubar_next

    return Trajectory(
        n=n,
        t0=cfg.t0,
        mu=cfg.mu,
        estimator_mode=cfg.estimator_mode,
        t=cfg.t0 + np.arange(steps),
        psi=psi_log,
        theta_hat=theta_log,
        gains=gain_log,
        phi=_phi_history(out["y"], out["u"], cfg.phi0, n),
        **out,
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


# estimates per streamed chunk of estimate_constants, and the matrices of
# largest Frobenius norm whose sigma_max seeds each chunk's pruning bound
_CHUNK = 8192
_PROBE = 64


def _box_chunks(box: BoxSet, rng: np.random.Generator, samples: int):
    """`samples` uniform draws, then every box vertex, in chunks of at most _CHUNK rows.

    The chunked draws are the one-shot `box.sample(rng, samples)` stream,
    value for value, and the vertices come in `BoxSet.vertices` order.
    """
    for start in range(0, samples, _CHUNK):
        yield box.sample(rng, min(_CHUNK, samples - start))
    corners = itertools.product(*zip(box.lo.tolist(), box.hi.tolist()))
    while chunk := list(itertools.islice(corners, _CHUNK)):
        yield np.array(chunk)


def _max_sigma(mats: np.ndarray, floor: float) -> float:
    """max(floor, largest sigma_max in a stack), with an SVD only where it can win.

    sigma_max(A) <= ||A||_F, so once the SVD of the _PROBE matrices of
    largest Frobenius norm gives a lower bound lo on the answer, a matrix
    with ||A||_F < lo cannot raise it.  The relative margin keeps a matrix
    whose rounded norms tie (one near rank one) in the SVD, and a NaN norm
    is never below the cutoff, so a non-finite matrix still reaches it.
    """
    fro = np.linalg.norm(mats, axis=(1, 2))
    probe = np.argpartition(fro, -_PROBE)[-_PROBE:] if fro.size > _PROBE else slice(None)
    lo = np.max(np.linalg.svd(mats[probe], compute_uv=False)[:, 0], initial=floor)
    keep = ~(fro < lo * (1.0 - 1e-12))
    return float(np.max(np.linalg.svd(mats[keep], compute_uv=False)[:, 0], initial=lo))


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
    many samples or vertices there are.  In each chunk only the matrices
    whose Frobenius norm reaches the best sigma_max known so far go to the
    SVD (sigma_max <= ||A||_F; see `_max_sigma`).  The result is the same
    float as one SVD of every matrix: chunked draws reproduce the one-shot
    stream, each matrix's LAPACK solve and SVD do not depend on the batch
    around it, and a maximum does not depend on the order it is taken in.
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
        design = solve_diophantine_batch(thetas, lifted, n)
        alpha = _max_sigma(closed_loop_matrix(thetas[design.ok], design.gains, n), alpha)
        used += design.gains.shape[0]
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


def pole_placement_audit(traj: Trajectory, target: TargetPolynomial) -> dict:
    """Compare each step's closed-loop characteristic polynomial to the target.

    Eigenvalues of the assembled matrix are mapped back to a monic
    polynomial; the coefficients are the well-conditioned object here (the
    placed pole at the origin is repeated with a single Jordan chain, so raw
    eigenvalue positions smear at roughly eps^(1/4) and would say nothing at
    tight tolerances).  The estimate is re-solved only when it changes, so
    most rows repeat: each distinct [thetahat, K] row, keyed on its bytes,
    is checked once, and the maximum over the distinct rows is the maximum
    over all of them.  The design residual column is rechecked as well.  Any
    NaN or Inf in the estimates, gains, or residuals is a violation.
    """
    lifted = target.lifted_coeffs()
    scale = 1.0 + float(np.abs(lifted).max())
    rows = np.concatenate((traj.theta_hat, traj.gains), axis=1)
    finite = np.isfinite(rows).all(axis=1)
    rows = rows[finite]
    _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))),
                         return_index=True)
    dim = traj.theta_hat.shape[1]
    eig = np.linalg.eigvals(closed_loop_matrix(rows[first, :dim], rows[first, dim:], traj.n))
    max_err = 0.0 if finite.all() else np.inf  # a non-finite row has no spectrum to match
    for row in eig:
        coeffs = np.poly(row)
        max_err = max(max_err, float(np.abs(coeffs - lifted).max()))
    res_max = float(traj.dioph_residual.max())
    # written as "not <=" so that a NaN counts as a violation
    violations = int(not max_err <= AUDIT_TOL * scale) + int(not res_max <= AUDIT_TOL * scale)
    return {
        "violations": violations,
        "pass": violations == 0,
        "max_coeff_err": max_err,
        "max_residual": res_max,
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

    Records come in AUDIT_NAMES order.  The crude bound samples its
    constants from the config's box unless `constants` is given.
    """
    for name in which:
        if name not in AUDIT_NAMES:
            raise ValueError(f"unknown audit '{name}'; choose from {AUDIT_NAMES}")
    if "crude_bound" in which and constants is None:
        constants = estimate_constants(cfg.aux_box(), cfg.target, seed=cfg.seed)
    mu = cfg.mu if traj.estimator_mode == "classical" else 0.0
    checks = {
        "estimator": lambda: estimator_audit(
            traj.psi, traj.e, traj.wbar, traj.theta_hat, cfg.theta_star(), mu
        ).record(),
        "recursion": lambda: state_recursion_audit(traj.psi, traj.theta_hat, traj.gains, traj.e),
        "poles": lambda: pole_placement_audit(traj, cfg.target),
        "crude_bound": lambda: crude_bound_audit(traj, constants.alpha_bar, constants.s_bar),
        "tracking": lambda: tracking_audit(traj, tail=tracking_tail),
    }
    return {name: check() for name, check in checks.items() if name in which}


@dataclass(frozen=True)
class BoundReport:
    """One sweep draw: the `sweep.csv` columns plus per-audit violation counts."""

    draw: int
    mu: float
    gamma: float
    lam: float
    residual_floor: float
    tail_tracking: float
    violations: int
    details: dict
    aborted: bool = False


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
    unknown = set(overrides) - {"theta", "theta0", "mu", "phi0"}
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
            return BoundReport(idx, c.mu, nan, lam, nan, nan, 0, {}, aborted=True)
        results = run_audits(traj, c, which=audits, constants=constants)
        detail = {name: res["violations"] for name, res in results.items()}
        fit = gain_bound_fit(traj, lam, cfg.target)
        return BoundReport(
            idx, c.mu, fit["gamma"], lam, fit["residual_floor"], fit["tail_tracking"],
            sum(detail.values()), detail,
        )

    return [one(i) for i in range(draws)]
