"""The benchmark workloads: inputs made from a seed, the timed call, its outputs.

Every workload runs closed-loop on one thread: one sweep at a time,
`--threads 1`, BLAS pinned to one thread by the worker's environment.

- grid-g-full: built-in study 1 at full scale (30x30 exponential truth,
  identity analysis model, 6 values of g, 1000 reps, 1000 KL draws). Dense
  m=900 linear algebra and Monte Carlo KL dominate; the specification is the
  same at every point, so per-specification work shared across g shows here.
- grid-range-full: built-in study 3 at full scale (7 misspecified ranges).
  Same size and layers, but every point brings a new specification, so
  caching per specification gets no reuse here.
- reps-heavy-desk: `misfdr simulate` on a generated config (10x10 grid,
  g in {0.1, 1, 10}, 20000 reps and KL draws). Per-replication Python work
  (step-up loop, stream creation, draw loop) dominates; linalg is ~5%.
- unknown-var-full: the unknown-variance case through the public API, which
  no sweep reaches: 30x30 truth, correct and identity specifications under
  IG(2, 0.5), g in {0.1, 1, 10}; each cell runs operating_characteristics,
  law_unknown_var, xi_sampler/xi_to_h draws and step_up on each draw.

An operation is one sweep point, or one (g, spec) cell of unknown-var-full.
`smoke` sizes shrink every workload to run in about a second for self-tests.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIZES = ("full", "smoke")

# Cells compared against the reference: name -> (value column, se column).
_SWEEP_CELLS = {
    "fdr_cor": ("fdr_cor", "fdr_cor_se"),
    "fdr_mis": ("fdr_mis", "fdr_mis_se"),
    "fnr_cor": ("fnr_cor", "fnr_cor_se"),
    "fnr_mis": ("fnr_mis", "fnr_mis_se"),
    "kl_per_dim": ("kl_per_dim", "kl_se"),
}


@dataclass(frozen=True)
class Workload:
    """`build(seed, size, work_dir)` makes the inputs (set-up), `call(misfdr,
    inputs)` is the timed call into the program, and `outputs(raw, inputs)`
    turns its result into {op key: {cell: (value, se)}} or {op key: error}."""

    name: str
    build: Callable
    call: Callable
    outputs: Callable


# -- sweeps through the command line -------------------------------------


def _cli_call(misfdr, argv):
    code = misfdr.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"misfdr exited with code {code}")
    return argv


def _sweep_outputs(raw, argv):
    out_dir = argv[argv.index("--output-dir") + 1]
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        repr(float(row["sweep_value"])): {
            cell: (float(row[v]), float(row[se])) for cell, (v, se) in _SWEEP_CELLS.items()
        }
        for row in rows
    }


def _example(which: int):
    def build(seed, size, work_dir):
        scale = "full" if size == "full" else "desk"
        return ["--output-dir", work_dir, "--seed", str(seed), "--threads", "1",
                "example", "--which", str(which), "--scale", scale]
    return build


def _reps_heavy(seed, size, work_dir):
    n = 20000 if size == "full" else 1000
    config = os.path.join(work_dir, "reps-heavy.cfg")
    with open(config, "w") as fh:
        fh.write(
            "grid.rows = 10\ngrid.cols = 10\nsigma0_sq = 0.25\n"
            "truth.kernel = exponential\ntruth.range = 5\nmis.kernel = identity\n"
            "sweep.variable = g\nsweep.values = 0.1, 1, 10\nalpha_star = 0.05\n"
            f"n_reps = {n}\nkl_draws = {n}\nseed = {seed}\n"
        )
    return ["--output-dir", work_dir, "--threads", "1", "simulate", "--config", config]


# -- unknown variance through the public API -----------------------------


@dataclass(frozen=True)
class UnknownVarInputs:
    seed: int
    rows: int
    cols: int
    n_reps: int
    n_draws: int
    range_: float = 5.0
    sigma0_sq: float = 0.25
    ig_alpha: float = 2.0
    ig_beta: float = 0.5
    gs: tuple = (0.1, 1.0, 10.0)
    alpha_star: float = 0.05


def _unknown_var_build(seed, size, work_dir):
    if size == "full":
        return UnknownVarInputs(seed, 30, 30, n_reps=1000, n_draws=1000)
    return UnknownVarInputs(seed, 10, 10, n_reps=200, n_draws=200)


def _unknown_var_cell(misfdr, p, truth, cov, g, path):
    noise = misfdr.UnknownVariance(p.ig_alpha, p.ig_beta)
    spec = misfdr.ModelSpec(truth.theta0, g, cov, noise)
    oc = misfdr.operating_characteristics(
        truth, spec, p.alpha_star, p.n_reps, rng=misfdr.rng.stream(p.seed, 0, *path)
    )
    law = misfdr.law_unknown_var(truth, spec)
    xi = misfdr.xi_sampler(law, p.n_draws, misfdr.rng.stream(p.seed, 1, *path))
    h = misfdr.xi_to_h(xi, law)
    rates = np.array([misfdr.step_up(row, p.alpha_star).k for row in h]) / truth.m
    return {
        "fdr": (oc.fdr_hat, oc.fdr_se),
        "fnr": (oc.fnr_hat, oc.fnr_se),
        "law_rejection_rate": (float(rates.mean()),
                               float(rates.std(ddof=1) / math.sqrt(rates.size))),
    }


def _unknown_var_call(misfdr, p):
    layout = misfdr.GridLayout(p.rows, p.cols)
    truth_cov = misfdr.exponential_cov(layout, p.range_)
    truth = misfdr.TrueProcess(np.zeros(layout.m), p.sigma0_sq, truth_cov)
    specs = (("correct", truth_cov), ("identity", misfdr.identity_cov(layout.m)))
    cells = {}
    for gi, g in enumerate(p.gs):
        for si, (tag, cov) in enumerate(specs):
            key = f"g={g!r},spec={tag}"
            # One failed cell is one failed operation; the rest still run.
            try:
                cells[key] = _unknown_var_cell(misfdr, p, truth, cov, g, (gi, si))
            except Exception as err:  # noqa: BLE001 - recorded as a failure
                cells[key] = f"{type(err).__name__}: {err}"
    return cells


WORKLOADS = {
    w.name: w for w in (
        Workload("grid-g-full", _example(1), _cli_call, _sweep_outputs),
        Workload("grid-range-full", _example(3), _cli_call, _sweep_outputs),
        Workload("reps-heavy-desk", _reps_heavy, _cli_call, _sweep_outputs),
        Workload("unknown-var-full", _unknown_var_build, _unknown_var_call,
                 lambda raw, inputs: raw),
    )
}
