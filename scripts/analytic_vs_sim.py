#!/usr/bin/env python3
"""Sweep the primary arrival rate and report analytic-vs-simulated deltas.

Writes the per-point comparison table and prints the worst absolute gaps,
a quick health check on the closed forms. The energy chain treats primary
activity as independent across slots, yet it is exact at stable points
(tests/test_coupled_oracle.py), so the gaps are Monte Carlo noise, which
the acceptance budgets bound.

  python3 scripts/analytic_vs_sim.py --slots 1000000 --out compare.csv
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ehshare.cli_sweep import COMPARE_METRICS, PARAM_FIELDS, SweepSpec, compare, write_rows
from ehshare.config import default_params
from ehshare.simulator import SimConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="compare.csv")
    parser.add_argument("--slots", type=int, default=1_000_000)
    parser.add_argument("--warmup", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--lambda-e", type=float, default=0.0)
    parser.add_argument("--eta", type=float, default=0.6)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    spec = SweepSpec(
        swept_param="lambda_p",
        grid=tuple(round(0.1 * i, 1) for i in range(11)),
        fixed=default_params(eta=args.eta, lambda_e=args.lambda_e),
        engines="both",
        sim=SimConfig(n_slots=args.slots, seed=args.seed, warmup=args.warmup),
    )
    rows = compare(spec, jobs=args.jobs)
    write_rows(rows, PARAM_FIELDS + COMPARE_METRICS, args.out, "csv")

    clean = [r for r in rows if not r["error"]]
    print(f"{len(clean)}/{len(rows)} points -> {args.out}")
    for metric in ("d_mu_s_abs", "d_pi_idle_abs", "d_pu_throughput_abs", "tv_occupancy"):
        worst = max(float(r[metric]) for r in clean)
        print(f"  max {metric}: {worst:.5f}")


if __name__ == "__main__":
    main()
