#!/usr/bin/env python3
"""Run the three built-in studies at desk scale and write CSVs plus plots.

The SVG plots need matplotlib. Where it is not installed, the studies run
without `--plots` and the script says that plots were skipped.

Desk scale shrinks each study to m = 100 and 400 replications, so the whole
script finishes in well under a minute. Pass --scale full for the m = 900,
1000-replication versions (see run_full_scale.py for timings).

Usage:
    python scripts/run_examples.py [--out-dir results] [--scale desk|full]
                                   [--seed N]
"""

import argparse
import importlib.util
import sys

from misfdr.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--scale", default="desk", choices=["desk", "full"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    plots = ["--plots"] if importlib.util.find_spec("matplotlib") else []
    if not plots:
        print("matplotlib is not installed: plots skipped")
    for which in (1, 2, 3):
        out_dir = f"{args.out_dir}/example{which}-{args.scale}"
        print(f"running example {which} ({args.scale}) -> {out_dir}")
        code = cli_main([
            "--output-dir", out_dir,
            "--seed", str(args.seed),
            "--verbose",
            "example", "--which", str(which), "--scale", args.scale, *plots,
        ])
        if code != 0:
            print(f"example {which} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
