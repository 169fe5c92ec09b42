#!/usr/bin/env python3
"""Compare sampling-based capital estimates against Monte Carlo simulation.

For each budget k the full pipeline runs with capital weight only
(alpha = 1), then the selected seeds are re-scored by forward simulation.
Emits one CSV row per k with the held-out estimate (the check corpus R2,
unbiased for the chosen seeds), the in-sample one (the corpus R1 that
chose them) and the relative error of each.

Example:
    python scripts/capital_fidelity.py --nodes 1000 --ks 5,10,25,50 \
        --out fidelity.csv
"""

import argparse
import csv
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from divtim.diversity import AttributeWiseDiversity
from divtim.estimator import estimate_params
from divtim.graph import select_targets, synth_graph
from divtim.profiles import synth_profiles
from divtim.simulator import simulate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=1000)
    ap.add_argument("--arcs", type=int, default=4)
    ap.add_argument("--percent", type=float, default=25.0)
    ap.add_argument("--ks", default="5,10,25,50")
    ap.add_argument("--epsilon", type=float, default=0.3)
    ap.add_argument("--runs", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="capital_fidelity.csv")
    args = ap.parse_args()

    g = synth_graph(args.nodes, args.arcs, seed=args.seed, score_mode="uniform")
    targets = select_targets(g, "top_percent", percent=args.percent)
    profiles = synth_profiles(args.nodes, m=5, domain_sizes=8, seed=1)

    rows = []
    for k in (int(tok) for tok in args.ks.split(",")):
        t0 = time.perf_counter()
        res, stats = estimate_params(g, targets, "ic", [k], [1.0],
                                     AttributeWiseDiversity(profiles), epsilon=args.epsilon,
                                     master_seed=args.seed).points[k, 1.0]
        sampling_s = time.perf_counter() - t0
        report = simulate(g, "ic", res.seeds, runs=args.runs,
                          master_seed=args.seed + 1, targets=targets)
        held_out, in_sample = res.expected_capital, stats["capital_in_sample"]
        err = abs(held_out - report.mean_capital) / report.mean_capital
        err_in = abs(in_sample - report.mean_capital) / report.mean_capital
        rows.append({
            "k": k, "theta": stats["theta"], "check_theta": stats["check_theta"],
            "estimated_capital": f"{held_out:.4f}",
            "in_sample_capital": f"{in_sample:.4f}",
            "mc_capital": f"{report.mean_capital:.4f}",
            "mc_stderr": f"{report.stderr_capital:.4f}",
            "relative_error": f"{err:.5f}",
            "in_sample_relative_error": f"{err_in:.5f}",
            "pipeline_seconds": f"{sampling_s:.2f}",
        })
        print(f"k={k}: held-out={held_out:.2f} in-sample={in_sample:.2f} "
              f"mc={report.mean_capital:.2f} rel_err={err:.3%} in-sample rel_err={err_in:.3%}")

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
