#!/usr/bin/env python3
"""Full-size reproduction: m = 900, 1000 replications per sweep point.

Runs the grid study (exponential truth vs. independence working model, g
sweep), the time-series study (oscillating vs. smooth AR(2), g sweep), and
the range-mismatch study (exponential vs. exponential, range sweep), then
prints a compact summary table per study. Each study takes about 2.5-3.5 s
with the default --threads 2 (3.5-4.5 s with --threads 1) on a 2-core
machine with one BLAS thread.

Usage:
    python scripts/run_full_scale.py [--out-dir results-full] [--seed N]
                                     [--threads N]
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
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    for which in (1, 2, 3):
        config = builtin_example(which, scale="full", root_seed=args.seed)
        start = time.time()
        rows = run_sweep(config, threads=args.threads)
        elapsed = time.time() - start
        out = os.path.join(args.out_dir, f"{config.label}.csv")
        write_csv(out, SWEEP_COLUMNS, map(astuple, rows))
        print(f"\n{config.label} ({elapsed:.1f}s) -> {out}")
        header = f"{'value':>8} {'fdr_cor':>8} {'fdr_mis':>8} {'fnr_cor':>8} " \
                 f"{'fnr_mis':>8} {'kl_per_dim':>11}"
        print(header)
        for row in rows:
            print(f"{row.sweep_value:8.2f} {row.fdr_cor:8.4f} {row.fdr_mis:8.4f} "
                  f"{row.fnr_cor:8.4f} {row.fnr_mis:8.4f} {row.kl_per_dim:11.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
