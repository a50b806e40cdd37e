#!/usr/bin/env python3
"""Check that this tree writes the same CSVs, byte for byte, as another tree's.

Each request below runs once from this tree and once from OTHER_TREE, each
in a fresh interpreter with PYTHONPATH=<tree>/src and every BLAS thread
variable set to 1. The CLI requests cover all six subcommands: studies 1-3 at
full and desk scale, seed 0 (at full scale each point is a pass of its own,
at desk scale points share a pass, and at both each study draws its
datasets once); five desk-size `simulate` runs from config files (a range
sweep; a range sweep of 1100 reps, whose 110,000 floats of data exceed one
draw block, so each pass draws them again; a range sweep at 0.001 and 5,
where the kernel at range 0.001 underflows to the identity, a matrix
built as a square and kept as its variances; a g sweep that sets `g` beside
`sweep.values` and sets `kl_draws`; a single run with no `sweep.` key);
`kl` on a 10 x 10 exponential-vs-identity config and on an m = 50 AR(2)
config whose truth sets `normalize = true` and whose misspecified spec
leaves `normalize` out (its default); `gen-cov` for every kernel; `dist` at
three ratios; and `fdr` on a CSV with a header and tied scores. The config
files and the `fdr` input are written to the
work directory first. Four more requests call the public
`operating_characteristics` (the path the benchmark's unknown-variance
workload times) on a 10 x 10 exponential truth: known and unknown
variance, each with a dense spec (the truth's covariance) and a diagonal
one (the identity), at three g and 1100 replications, so the draws span
three blocks, the last one partial. Each writes the repr of every FDR,
FNR and their se to oc.csv. Every CSV is compared byte for byte;
run-meta.txt, which records a timestamp, is skipped. One line is printed per
artifact. Under a CSV that differs, one more line per differing column
gives its largest relative difference, |a - b| / max(|a|, |b|) over its
cells (inf where a cell is not a number in both). The exit code is 1 on any
difference or failed run.

Usage:
    python scripts/compare_outputs.py OTHER_TREE
"""

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THIS_TREE = Path(__file__).resolve().parents[1]

KL_CONFIG = """\
grid.rows = 10
grid.cols = 10
sigma0_sq = 0.25
g = 1.0
truth.kernel = exponential
truth.range = 5.0
mis.kernel = identity
"""

# AR(2) against AR(2): one kernel sets normalize, the other takes its default.
AR2_KL_CONFIG = """\
m = 50
sigma0_sq = 0.25
g = 1.0
truth.kernel = ar2
truth.rho1 = 1.5
truth.rho2 = -0.9
truth.normalize = true
mis.kernel = ar2
mis.rho1 = 0.6
mis.rho2 = 0.3
"""

RANGE_CONFIG = """\
grid.rows = 10
grid.cols = 10
sigma0_sq = 0.25
g = 1.0
truth.kernel = exponential
truth.range = 5.0
mis.kernel = exponential
sweep.variable = rho
sweep.values = 1.0, 2.5, 5.0, 10.0
n_reps = 200
seed = 3
"""

# Too many reps to keep: 1100 x 100 floats exceed a 512 x 200 draw block, so
# each of the sweep's passes draws the datasets again.
REDRAW_CONFIG = RANGE_CONFIG.replace("n_reps = 200", "n_reps = 1100").replace(
    "1.0, 2.5, 5.0, 10.0", "0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0")

# exp(-1 / 0.001) underflows to 0.0: the first point's kernel is the identity.
UNDERFLOW_CONFIG = RANGE_CONFIG.replace("1.0, 2.5, 5.0, 10.0", "0.001, 5")

# The shape of the benchmark's reps-heavy config: g is set beside sweep.values,
# and kl_draws is read and ignored.
G_CONFIG = """\
grid.rows = 10
grid.cols = 10
sigma0_sq = 0.25
g = 1.0
truth.kernel = exponential
truth.range = 5
mis.kernel = identity
sweep.variable = g
sweep.values = 0.1, 1, 10
alpha_star = 0.05
n_reps = 1000
kl_draws = 1000
seed = 7
"""

# No sweep. key: one point, at the config's g.
SINGLE_CONFIG = """\
grid.rows = 10
grid.cols = 10
sigma0_sq = 0.25
g = 2.0
truth.kernel = exponential
truth.range = 5.0
mis.kernel = exponential
mis.range = 2.5
n_reps = 300
seed = 4
"""

# Fixed operating_characteristics cells: python -c OC_SCRIPT OUT_DIR NOISE COV.
OC_SCRIPT = """\
import sys

import numpy as np

import misfdr

out, noise, cov = sys.argv[1:]
layout = misfdr.GridLayout(10, 10)
truth = misfdr.TrueProcess(np.zeros(layout.m), 0.25, misfdr.exponential_cov(layout, 5.0))
noise = misfdr.KnownVariance(0.25) if noise == "known" else misfdr.UnknownVariance(2.0, 0.5)
cov = truth.sigma1 if cov == "dense" else misfdr.identity_cov(layout.m)
rows = ["g,fdr_hat,fdr_se,fnr_hat,fnr_se"]
for i, g in enumerate((0.1, 1.0, 10.0)):
    spec = misfdr.ModelSpec(truth.theta0, g, cov, noise)
    oc = misfdr.operating_characteristics(truth, spec, 0.05, 1100, rng=misfdr.rng.stream(5, i))
    rows.append(",".join(map(repr, (g, oc.fdr_hat, oc.fdr_se, oc.fnr_hat, oc.fnr_se))))
with open(f"{out}/oc.csv", "w") as fh:
    fh.write("\\n".join(rows) + "\\n")
"""

# The step-up rule at alpha 0.021 stops inside the run of tied 0.03 scores.
FDR_INPUT = "i,h\n" + "".join(
    f"{i},{h}\n" for i, h in enumerate([0.03, 0.01, 0.2, 0.03, 0.9, 0.01, 0.03, 0.5]))

INPUTS = {"kl.cfg": KL_CONFIG, "ar2.cfg": AR2_KL_CONFIG, "range.cfg": RANGE_CONFIG,
          "redraw.cfg": REDRAW_CONFIG, "underflow.cfg": UNDERFLOW_CONFIG, "g.cfg": G_CONFIG,
          "single.cfg": SINGLE_CONFIG, "scores.csv": FDR_INPUT}


CLI = ["-m", "misfdr.cli", "--output-dir"]


def requests(work: Path) -> dict[str, tuple[list[str], list[str]]]:
    """Named requests (head, tail), each run as `python *head OUT_DIR *tail`
    with its own output directory; the CLI ones read the INPUTS written to
    `work`."""
    runs = {
        f"example{which}-{scale}": ["--seed", "0", "example", "--which", str(which),
                                    "--scale", scale]
        for scale in ("full", "desk") for which in (1, 2, 3)
    }
    runs["simulate-range"] = ["simulate", "--config", str(work / "range.cfg")]
    runs["simulate-redraw"] = ["simulate", "--config", str(work / "redraw.cfg")]
    runs["simulate-underflow"] = ["simulate", "--config", str(work / "underflow.cfg")]
    runs["simulate-g"] = ["simulate", "--config", str(work / "g.cfg")]
    runs["simulate-single"] = ["simulate", "--config", str(work / "single.cfg")]
    runs["kl"] = ["kl", "--config", str(work / "kl.cfg")]
    runs["kl-ar2"] = ["kl", "--config", str(work / "ar2.cfg")]
    ar2 = ["gen-cov", "--kernel", "ar2", "--m", "50", "--rho1", "0.6", "--rho2", "0.3"]
    runs.update({
        "gen-cov-exponential": ["gen-cov", "--kernel", "exponential",
                                "--rows", "10", "--cols", "10", "--range", "5.0"],
        "gen-cov-ar2": ar2,
        "gen-cov-ar2-normalized": [*ar2, "--normalize"],
        "gen-cov-identity": ["gen-cov", "--kernel", "identity", "--m", "20"],
        "gen-cov-separable": ["gen-cov", "--kernel", "separable", "--stations-rows", "3",
                              "--stations-cols", "3", "--n-times", "4", "--delta", "1.0",
                              "--range", "2.0", "--alpha", "0.5"],
        "dist": ["dist", "--r", "0.25", "--r", "1.0", "--r", "4.0", "--points", "50"],
        "fdr": ["fdr", "--input", str(work / "scores.csv"), "--alpha", "0.021"],
    })
    cells = {f"oc-{noise}-{cov}": (["-c", OC_SCRIPT], [noise, cov])
             for noise in ("known", "unknown") for cov in ("dense", "diagonal")}
    return {**{name: (CLI, argv) for name, argv in runs.items()}, **cells}


def run_python(tree: Path, out_dir: Path, head: list[str], tail: list[str]) -> bool:
    """Run `python *head out_dir *tail` on the package of `tree`; True when it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir.mkdir(parents=True)
    done = subprocess.run([sys.executable, *head, str(out_dir), *tail],
                          env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"FAILED     {tree}: {' '.join(tail)} exited {done.returncode}: "
              f"{done.stderr.strip()}")
    return done.returncode == 0


def relative_difference(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two differing cells; inf unless both are numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    diff = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(diff) else diff


def column_differences(ours: Path, theirs: Path) -> dict[str, float]:
    """The largest relative difference of each column in which two CSVs
    differ, by the column's header name (its index when the header does not
    name it); {"shape": inf} when their rows or row lengths differ."""
    rows = [list(csv.reader(path.read_text().splitlines())) for path in (ours, theirs)]
    if len(rows[0]) != len(rows[1]) or any(len(a) != len(b) for a, b in zip(*rows)):
        return {"shape": math.inf}
    header = rows[0][0] if rows[0] else []
    worst = {}
    for index, (row_a, row_b) in enumerate(zip(*rows)):
        for col, (a, b) in enumerate(zip(row_a, row_b)):
            if a != b:
                name = "header" if index == 0 else (
                    header[col] if len(header) == len(row_a) else f"column {col}")
                worst[name] = max(worst.get(name, 0.0), relative_difference(a, b))
    return worst


def compare(name: str, ours: Path, theirs: Path) -> bool:
    """Print one line per CSV of the two output directories; True when all match."""
    names = sorted({p.name for d in (ours, theirs) for p in d.glob("*.csv")})
    if not names:
        print(f"MISSING    {name}: no CSV written")
        return False
    same = True
    for artifact in names:
        a, b = ours / artifact, theirs / artifact
        if not (a.exists() and b.exists()):
            status = "MISSING"
        elif a.read_bytes() == b.read_bytes():
            status = "identical"
        else:
            status = "DIFFERS"
        same &= status == "identical"
        print(f"{status:<10} {name}/{artifact}")
        if status == "DIFFERS":
            for column, diff in column_differences(a, b).items():
                print(f"{'':<10}   {column}: max relative difference {diff:.3g}")
    return same


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    other = Path(sys.argv[1]).resolve()
    if not (other / "src" / "misfdr").is_dir():
        print(f"{other} has no src/misfdr", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for file, text in INPUTS.items():
            (work / file).write_text(text)
        for name, (head, tail) in requests(work).items():
            outs = (work / "this" / name, work / "other" / name)
            ran = [run_python(tree, out, head, tail) for tree, out in zip((THIS_TREE, other), outs)]
            ok &= all(ran) and compare(name, *outs)
    print("all artifacts identical" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
