"""Command-line surface for reproducible runs.

Every subcommand writes its CSV artifacts plus a `run-meta.txt` (seed,
config hash, version, timestamp) into the output directory. Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
import time
from dataclasses import astuple

import numpy as np

from . import __version__
from .covariance import GridLayout, ar2_cov, exponential_cov, identity_cov, separable_cov
from .divergence import kl_exact
from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .fdr import step_up
from .sampdist import marginal_cdf, marginal_pdf
from .simulation import (
    SWEEP_COLUMNS,
    build_cov,
    builtin_example,
    config_from_mapping,
    paired_specs,
    parse_config_text,
    run_sweep,
    write_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misfdr",
        description="Covariance-misspecification influence on posterior-probability FDR control",
    )
    parser.add_argument("--output-dir", default=".", help="directory for all artifacts")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")
    parser.add_argument(
        "--threads", type=int,
        help="worker parallelism cap, at least 1 (env fallback MISFDR_THREADS, else 1)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-cov", help="construct a covariance matrix and dump it to CSV")
    p.add_argument("--kernel", required=True,
                   choices=["exponential", "ar2", "identity", "separable"])
    p.add_argument("--m", type=int, help="dimension (ar2, identity)")
    p.add_argument("--rows", type=int, help="grid rows (exponential)")
    p.add_argument("--cols", type=int, help="grid cols (exponential)")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--range", type=float, dest="range_", help="spatial range")
    p.add_argument("--rho1", type=float)
    p.add_argument("--rho2", type=float)
    p.add_argument("--normalize", action="store_true", help="unit-diagonal AR(2)")
    p.add_argument("--stations-rows", type=int, help="station grid rows (separable)")
    p.add_argument("--stations-cols", type=int, help="station grid cols (separable)")
    p.add_argument("--n-times", type=int, help="number of time points (separable)")
    p.add_argument("--delta", type=float)
    p.add_argument("--alpha", type=float, help="temporal decay in (0,1) (separable)")
    p.add_argument("--out", default="cov.csv")

    p = sub.add_parser("dist", help="marginal CDF/pdf of the statistic on a grid of h")
    p.add_argument("--r", type=float, action="append", required=True,
                   dest="ratios", help="ratio a_ii/b_ii (repeatable)")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", default="dist.csv")

    p = sub.add_parser("kl", help="KL divergence between two specifications")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="kl.csv")

    p = sub.add_parser("fdr", help="step-up procedure on an h-vector CSV")
    p.add_argument("--input", required=True, help="CSV with an 'h' column")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default="rejections.csv")

    p = sub.add_parser("simulate", help="run the sweep described by a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--plots", action="store_true", help="also write SVG line charts")

    p = sub.add_parser("example", help="run a built-in study configuration")
    p.add_argument("--which", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--scale", default="desk", choices=["full", "desk"])
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--plots", action="store_true")
    return parser


def _write_run_meta(output_dir: str, seed, config_bytes: bytes, argv) -> None:
    digest = hashlib.sha256(config_bytes).hexdigest()
    path = os.path.join(output_dir, "run-meta.txt")
    with open(path, "w") as fh:
        fh.write(f"version = {__version__}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"argv = {' '.join(argv)}\n")
        fh.write(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")


def _write_artifact(args, header, rows, note: str = "") -> None:
    """Write the subcommand's CSV to --output-dir/--out; `-v` reports it."""
    out = os.path.join(args.output_dir, args.out)
    write_csv(out, header, rows)
    if args.verbose:
        print(f"wrote {out}{note}")


def _cmd_gen_cov(args) -> bytes:
    if args.kernel == "exponential":
        if args.rows is None or args.cols is None or args.range_ is None:
            raise ParameterError("exponential kernel needs --rows, --cols, --range")
        cov = exponential_cov(GridLayout(args.rows, args.cols, args.spacing), args.range_)
    elif args.kernel == "ar2":
        if args.m is None or args.rho1 is None or args.rho2 is None:
            raise ParameterError("ar2 kernel needs --m, --rho1, --rho2")
        cov = ar2_cov(args.m, args.rho1, args.rho2, normalize=args.normalize)
    elif args.kernel == "identity":
        if args.m is None:
            raise ParameterError("identity kernel needs --m")
        cov = identity_cov(args.m)
    else:
        needed = (args.stations_rows, args.stations_cols, args.n_times,
                  args.delta, args.range_, args.alpha)
        if any(v is None for v in needed):
            raise ParameterError(
                "separable kernel needs --stations-rows, --stations-cols, "
                "--n-times, --delta, --range, --alpha"
            )
        layout = GridLayout(args.stations_rows, args.stations_cols, args.spacing)
        times = np.arange(1, args.n_times + 1)
        cov = separable_cov(layout.points(), times, args.delta, args.range_, args.alpha)
    cov.chol  # certify positive definiteness before writing
    _write_artifact(args, [f"# covariance m={cov.dim} kernel={cov.kernel}"], cov.entries,
                    f" (m={cov.dim}, kernel={cov.kernel})")
    return repr(vars(args)).encode()


def _cmd_dist(args) -> bytes:
    grid = np.linspace(0.0, 1.0, args.points + 2)[1:-1]
    rows = [
        (ratio, hval, c, d)
        for ratio in args.ratios
        for hval, c, d in zip(grid, marginal_cdf(grid, ratio), marginal_pdf(grid, ratio))
    ]
    _write_artifact(args, ["r", "h", "cdf", "pdf"], rows)
    return repr(vars(args)).encode()


def _read_config(path: str) -> tuple[dict[str, str], bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ParameterError(f"cannot read config file {path!r}: {err}") from err
    return parse_config_text(raw.decode()), raw


def _cmd_kl(args) -> bytes:
    mapping, raw = _read_config(args.config)
    config = config_from_mapping(mapping, label="kl")
    if config.mis_kernel == {"kind": "exponential"}:
        # A range sweep may omit mis.range; the KL divergence is taken at it.
        raise ParameterError("missing config key: mis.range")
    truth_cov = build_cov(config.truth_kernel, config.m, config.grid)
    mis_cov = build_cov(config.mis_kernel, config.m, config.grid)
    truth, spec_cor, spec_mis = paired_specs(config, truth_cov, mis_cov, config.g)
    total = kl_exact(truth, spec_cor, spec_mis)
    per_dim = total / config.m
    _write_artifact(args, ["g", "m", "total", "per_dim"], [(config.g, config.m, total, per_dim)],
                    f" (per_dim={per_dim:.6g})")
    return raw


def _cmd_fdr(args) -> bytes:
    try:
        with open(args.input, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except OSError as err:
        raise ParameterError(f"cannot read input file {args.input!r}: {err}") from err
    start = 0
    col = 0
    if rows and not _is_float(rows[0][0]):
        header = [name.strip().lower() for name in rows[0]]
        if "h" not in header:
            raise ParameterError("input CSV needs an 'h' column or bare numbers")
        col = header.index("h")
        start = 1
    h = np.array([float(row[col]) for row in rows[start:]])
    decision = step_up(h, args.alpha)
    rows = [(i, hval, int(rej)) for i, (hval, rej) in enumerate(zip(h, decision.rejected))]
    _write_artifact(args, ["i", "h", "rejected"], rows, f" (k={decision.k})")
    return repr((list(h), args.alpha)).encode()


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _run_and_write_sweep(config, args) -> None:
    rows = run_sweep(config, threads=args.threads)
    _write_artifact(args, SWEEP_COLUMNS, map(astuple, rows), f" ({len(rows)} sweep points)")
    if getattr(args, "plots", False):
        _write_plots(config, rows, args.output_dir)


def _write_plots(config, rows, output_dir: str) -> None:
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError as err:
        raise ParameterError("matplotlib is required for --plots") from err
    xs = [row.sweep_value for row in rows]
    xlabel = "g" if config.sweep_variable == "g" else "misspecified range"
    panels = [
        ("fdr", [("correct", [r.fdr_cor for r in rows]),
                 ("misspecified", [r.fdr_mis for r in rows])]),
        ("fnr", [("correct", [r.fnr_cor for r in rows]),
                 ("misspecified", [r.fnr_mis for r in rows])]),
        ("rejection_rate_diff", [("diff", [r.rejection_rate_diff for r in rows])]),
        ("kl_per_dim", [("kl_per_dim", [r.kl_per_dim for r in rows])]),
    ]
    for name, series in panels:
        fig, ax = plt.subplots(figsize=(4.5, 3.2))
        for label, ys in series:
            ax.plot(xs, ys, marker="o", label=label)
        if config.sweep_variable == "g":
            ax.set_xscale("log")
        ax.set_xlabel(xlabel)
        ax.set_ylabel(name)
        if len(series) > 1:
            ax.legend()
        fig.tight_layout()
        fig.savefig(os.path.join(output_dir, f"{name}.svg"))
        plt.close(fig)


def _cmd_simulate(args) -> bytes:
    mapping, raw = _read_config(args.config)
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    config = config_from_mapping(mapping, label=os.path.basename(args.config))
    _run_and_write_sweep(config, args)
    return raw


def _cmd_example(args) -> bytes:
    config = builtin_example(args.which, args.scale,
                             root_seed=args.seed if args.seed is not None else 0)
    _run_and_write_sweep(config, args)
    return repr((args.which, args.scale, config.root_seed)).encode()


_COMMANDS = {
    "gen-cov": _cmd_gen_cov,
    "dist": _cmd_dist,
    "kl": _cmd_kl,
    "fdr": _cmd_fdr,
    "simulate": _cmd_simulate,
    "example": _cmd_example,
}


def _thread_count(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get("MISFDR_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ParameterError(f"MISFDR_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ParameterError(f"thread count must be at least 1, got {threads}")
    return threads


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        args.threads = _thread_count(args.threads)
        os.makedirs(args.output_dir, exist_ok=True)
        config_bytes = _COMMANDS[args.subcommand](args)
        _write_run_meta(args.output_dir, args.seed, config_bytes, argv)
        return 0
    except ParameterError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (BoundaryError, NotPositiveDefiniteError, RuntimeError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
