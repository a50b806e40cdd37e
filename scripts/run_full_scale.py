#!/usr/bin/env python3
"""Full-size reproduction: m = 900, 1000 replications per sweep point.

Runs the grid study (exponential truth vs. independence working model, g
sweep), the time-series study (oscillating vs. smooth AR(2), g sweep), and
the range-mismatch study (exponential vs. exponential, range sweep), then
prints a compact summary table per study, with the time each took.

Usage:
    python scripts/run_full_scale.py [--out-dir results-full] [--seed N]
"""

import argparse
import os
import sys
import time
from dataclasses import astuple

from misfdr.simulation import SWEEP_COLUMNS, builtin_example, run_sweep, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results-full")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    for which in (1, 2, 3):
        config = builtin_example(which, scale="full", root_seed=args.seed)
        start = time.time()
        rows = run_sweep(config)
        elapsed = time.time() - start
        out = os.path.join(args.out_dir, f"{config.label}.csv")
        write_csv(out, SWEEP_COLUMNS, map(astuple, rows))
        print(f"\n{config.label} ({elapsed:.1f}s) -> {out}")
        columns = ["fdr_cor", "fdr_mis", "fnr_cor", "fnr_mis"]
        print(f"{config.sweep_key:>9} " + " ".join(f"{c:>8}" for c in columns)
              + f" {'kl_per_dim':>11}")
        for row in rows:
            cells = " ".join(f"{getattr(row, c):8.4f}" for c in columns)
            print(f"{row.sweep_value:9.2f} {cells} {row.kl_per_dim:11.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
