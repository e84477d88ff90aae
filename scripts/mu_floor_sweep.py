#!/usr/bin/env python3
"""Residual-floor experiment: how does the settled state scale with mu?

Runs the benchmark plant with zero reference and zero disturbance from a
fixed nonzero initial state, for mu across several decades, and reports
R(mu), the gain-bound fit's residual floor (the sup of ||psi(t)|| over the
final quarter of the horizon), together with R(mu)/sqrt(mu).  The linear-like bound predicts a floor no larger than
gamma*sqrt(mu); with nothing exciting the loop the measured floor typically
underflows to zero once the estimator has settled, which is consistent with
(and much better than) the bound.
"""

import argparse
import os
from dataclasses import replace

import numpy as np

from adaptive_pp.cli import load_config
from adaptive_pp import SignalSpec, gain_bound_fit, run_closed_loop

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CONFIG = os.path.join(HERE, "..", "configs", "benchmark.json")


def floor_of(cfg, mu: float, horizon: int) -> float:
    zero = SignalSpec("constant", magnitude=0.0)
    # no audit runs here, so the tracking audit's 2 * tracking_tail window must not refuse the horizon
    c = replace(cfg, mu=mu, reference=zero, disturbance=zero, horizon=horizon, audits=())
    return gain_bound_fit(run_closed_loop(c), c)["residual_floor"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=DEFAULT_CONFIG)
    ap.add_argument("--horizon", type=int, default=2000)
    ap.add_argument(
        "--mu", type=float, nargs="+", default=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    )
    args = ap.parse_args()

    cfg, _, _ = load_config(args.config)
    print(f"{'mu':>10}  {'R(mu)':>13}  {'R/sqrt(mu)':>13}")
    ratios = []
    for mu in args.mu:
        r = floor_of(cfg, mu, args.horizon)
        ratio = r / np.sqrt(mu)
        ratios.append(ratio)
        print(f"{mu:10.1e}  {r:13.6e}  {ratio:13.6e}")
    positive = [x for x in ratios if x > 0]
    if positive:
        print(f"max/min ratio over positive entries: {max(positive) / min(positive):.3f}")
    else:
        print("all floors underflowed to zero (settled exactly)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
