#!/usr/bin/env python3
"""Sweep the capital/diversity trade-off and report seed-set drift.

Runs selection over an alpha grid on one synthetic dataset, then emits:
  * overlap.csv  - pairwise seed overlap (normalized by k) across alphas,
                   empty where a greedy stopped before k seeds
  * curve.csv    - achieved diversity vs. its budget-k maximum per alpha

Example:
    python scripts/alpha_sweep.py --nodes 500 --k 20 --out sweep/
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from divtim.diversity import AttributeWiseDiversity
from divtim.estimator import estimate_params
from divtim.graph import select_targets, synth_graph
from divtim.metrics import seed_entropy, seed_overlap
from divtim.profiles import synth_profiles


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=500)
    ap.add_argument("--arcs", type=int, default=4)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--percent", type=float, default=25.0)
    ap.add_argument("--epsilon", type=float, default=0.3)
    ap.add_argument("--distribution", choices=("uniform", "exponential"),
                    default="exponential")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    g = synth_graph(args.nodes, args.arcs, seed=args.seed, score_mode="uniform")
    targets = select_targets(g, "top_percent", percent=args.percent)
    profiles = synth_profiles(args.nodes, m=10, domain_sizes=10,
                              distribution=args.distribution, seed=args.seed)
    alphas = [round(i / 10, 1) for i in range(11)]
    # one sizing for the whole grid: every alpha is checked against OPIM-C's ratio
    params = estimate_params(g, targets, "ic", [args.k], alphas,
                             AttributeWiseDiversity(profiles), epsilon=args.epsilon,
                             master_seed=args.seed)
    results = {}
    for alpha in alphas:
        res = results[alpha] = params.points[args.k, alpha][0]
        print(f"alpha={alpha}: capital={res.expected_capital:.2f} "
              f"diversity={res.diversity_value:.2f} "
              f"entropy={seed_entropy(res.seeds, profiles):.3f}")

    with open(os.path.join(args.out, "overlap.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha"] + [str(a) for a in alphas])
        for a in alphas:
            row = [str(a)]
            for b in alphas:
                s1, s2 = results[a].seeds, results[b].seeds
                # a greedy that stopped early has fewer than k seeds: no overlap
                row.append(f"{seed_overlap(s1, s2, args.k):.3f}"
                           if len(s1) == len(s2) == args.k else "")
            writer.writerow(row)

    curve = [{"k": res.k, "alpha": res.alpha, "diversity": res.diversity_value,
              "diversity_max": res.diversity_max,
              "ratio": res.diversity_value / res.diversity_max if res.diversity_max > 0 else 0.0}
             for res in results.values()]
    with open(os.path.join(args.out, "curve.csv"), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(curve[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(curve)
    print(f"wrote overlap.csv and curve.csv to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
