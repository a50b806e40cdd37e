"""Command-line surface for reproducible runs.

Every subcommand writes its CSV artifacts plus a `run-meta.txt` (the seed it
drew from or None, request hash, version, timestamp, the numpy, scipy and BLAS
versions and the BLAS thread variables it saw) into the output directory. A
sweep runs its passes in order on the calling thread: `--threads` and
`MISFDR_THREADS` are accepted at 1 only. Exit codes:
0 success, 1 configuration error (`ParameterError`), 2 numerical failure
(`NotPositiveDefiniteError`, `BoundaryError`), each printed with the error's
own message. gen-cov builds the kinds of `simulation.KERNELS` with
`build_cov`; only the separable kernel has a branch of its own.
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
import scipy

from . import __version__
from .covariance import GridLayout, separable_cov
from .divergence import kl_exact
from .errors import BoundaryError, NotPositiveDefiniteError, ParameterError
from .fdr import step_up
from .linalg import chol
from .sampdist import marginal_cdf, marginal_pdf
from .simulation import (
    KERNELS,
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
        help="accepted at 1 only, as is MISFDR_THREADS: sweeps run on one thread",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-cov", help="construct a covariance matrix and dump it to CSV")
    p.add_argument("--kernel", required=True,
                   choices=[*KERNELS, "separable"])
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


def _blas(module) -> str:
    """Name and version of the BLAS `module` (numpy or scipy) was built
    against, from its build config. Each wheel bundles its own build: numpy's
    runs the general matrix products, scipy's every factorization, inverse,
    triangular solve and product in `linalg`."""
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


# The environment variables that set the BLAS thread pools numpy and scipy use.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_run_meta(output_dir: str, seed: int | None, config_bytes: bytes, argv) -> None:
    digest = hashlib.sha256(config_bytes).hexdigest()
    path = os.path.join(output_dir, "run-meta.txt")
    with open(path, "w") as fh:
        fh.write(f"version = {__version__}\n")
        fh.write(f"seed = {seed}\n")
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"argv = {' '.join(argv)}\n")
        fh.write(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        fh.write(f"numpy = {np.__version__}\n")
        fh.write(f"scipy = {scipy.__version__}\n")
        fh.write(f"numpy_blas = {_blas(np)}\n")
        fh.write(f"scipy_blas = {_blas(scipy)}\n")
        for name in _BLAS_THREAD_VARS:
            fh.write(f"{name} = {os.environ.get(name, 'unset')}\n")


def _write_artifact(args, header, rows, note: str = "") -> None:
    """Write the subcommand's CSV to --output-dir/--out; `-v` reports it."""
    out = os.path.join(args.output_dir, args.out)
    write_csv(out, header, rows)
    if args.verbose:
        print(f"wrote {out}{note}")


def _request_bytes(args) -> bytes:
    """The options that define a gen-cov or dist request, not where or how it is written."""
    where = ("output_dir", "out", "verbose", "threads", "seed")
    return repr(sorted((k, v) for k, v in vars(args).items() if k not in where)).encode()


def _cmd_gen_cov(args) -> tuple[bytes, None]:
    # The value of each flag by its name, `_` for `-`: --range's dest is range_.
    flags = {**vars(args), "range": args.range_}
    separable = args.kernel == "separable"
    if separable:
        needed = ["stations_rows", "stations_cols", "n_times", "delta", "range", "alpha"]
    else:
        _, on_grid, keys = KERNELS[args.kernel]
        needed = [*(("rows", "cols") if on_grid else ("m",)),
                  *(name for name, (_, default) in keys.items() if default is None)]
    if any(flags[name] is None for name in needed):
        listed = ", ".join("--" + name.replace("_", "-") for name in needed)
        raise ParameterError(f"{args.kernel} kernel needs {listed}")
    if separable:
        layout = GridLayout(args.stations_rows, args.stations_cols, args.spacing)
        times = np.arange(1, args.n_times + 1)
        cov = separable_cov(layout.points(), times, args.delta, args.range_, args.alpha)
    else:
        grid = GridLayout(args.rows, args.cols, args.spacing) if on_grid else None
        kernel = {"kind": args.kernel,
                  **{name: flags[name] for name in keys if flags[name] is not None}}
        cov = build_cov(kernel, args.m, grid)
    # A diagonal matrix keeps only its variances: its square is formed once, here.
    entries = cov.entries
    chol(entries)  # certify positive definiteness before writing
    _write_artifact(args, [f"# covariance m={cov.dim} kernel={args.kernel}"], entries,
                    f" (m={cov.dim}, kernel={args.kernel})")
    return _request_bytes(args), None


def _cmd_dist(args) -> tuple[bytes, None]:
    if args.points < 1:
        raise ParameterError(f"--points must be at least 1, got {args.points}")
    grid = np.linspace(0.0, 1.0, args.points + 2)[1:-1]
    rows = [
        (ratio, hval, c, d)
        for ratio in args.ratios
        for hval, c, d in zip(grid, marginal_cdf(grid, ratio), marginal_pdf(grid, ratio))
    ]
    _write_artifact(args, ["r", "h", "cdf", "pdf"], rows)
    return _request_bytes(args), None


def _read_config(path: str) -> tuple[dict[str, str], bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ParameterError(f"cannot read config file {path!r}: {err}") from err
    return parse_config_text(raw.decode()), raw


def _cmd_kl(args) -> tuple[bytes, None]:
    mapping, raw = _read_config(args.config)
    # A single run's model: a key that only a sweep reads is an unknown key.
    config = config_from_mapping(mapping, label="kl", sweep=False)
    truth_cov, mis_cov = (build_cov(kernel, config.m, config.grid)
                          for kernel in (config.truth_kernel, config.mis_kernel))
    total = kl_exact(*paired_specs(config, truth_cov, mis_cov, config.g))
    per_dim = total / config.m
    _write_artifact(args, ["g", "m", "total", "per_dim"], [(config.g, config.m, total, per_dim)],
                    f" (per_dim={per_dim:.6g})")
    return raw, None


def _cmd_fdr(args) -> tuple[bytes, None]:
    try:
        with open(args.input, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as err:
        raise ParameterError(f"cannot read input file {args.input!r}: {err}") from err
    start = 0
    col = 0
    if rows and not _is_float(rows[0][1][0]):
        header = [name.strip().lower() for name in rows[0][1]]
        if "h" not in header:
            raise ParameterError("input CSV needs an 'h' column or bare numbers")
        col = header.index("h")
        start = 1
    h = np.array([_h_cell(line, row, col) for line, row in rows[start:]])
    decision = step_up(h, args.alpha)
    rows = [(i, hval, int(rej)) for i, (hval, rej) in enumerate(zip(h, decision.rejected))]
    _write_artifact(args, ["i", "h", "rejected"], rows, f" (k={decision.k})")
    return repr((list(h), args.alpha)).encode(), None


def _h_cell(line: int, row: list[str], col: int) -> float:
    """The score in column `col` of the input row on line `line`."""
    if col >= len(row):
        raise ParameterError(f"input line {line} has no 'h' value (column {col + 1})")
    try:
        return float(row[col])
    except ValueError:
        raise ParameterError(f"input line {line}: 'h' value {row[col]!r} is not a number") from None


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _run_and_write_sweep(config, args) -> None:
    plt = None
    if args.plots:
        # Before the sweep, so a missing matplotlib fails before any work.
        try:
            import matplotlib
            matplotlib.use("svg")
            import matplotlib.pyplot as plt
        except ImportError as err:
            raise ParameterError("matplotlib is required for --plots") from err
    rows = run_sweep(config)
    _write_artifact(args, SWEEP_COLUMNS, map(astuple, rows), f" ({len(rows)} sweep points)")
    if plt is not None:
        _write_plots(plt, config, rows, args.output_dir)


def _write_plots(plt, config, rows, output_dir: str) -> None:
    xs = [row.sweep_value for row in rows]
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
        ax.set_xscale("log")
        ax.set_xlabel(config.sweep_key)
        ax.set_ylabel(name)
        if len(series) > 1:
            ax.legend()
        fig.tight_layout()
        fig.savefig(os.path.join(output_dir, f"{name}.svg"))
        plt.close(fig)


def _cmd_simulate(args) -> tuple[bytes, int]:
    mapping, raw = _read_config(args.config)
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    config = config_from_mapping(mapping, label=os.path.basename(args.config))
    _run_and_write_sweep(config, args)
    return raw, config.root_seed


def _cmd_example(args) -> tuple[bytes, int]:
    config = builtin_example(args.which, args.scale,
                             root_seed=args.seed if args.seed is not None else 0)
    _run_and_write_sweep(config, args)
    return repr((args.which, args.scale, config.root_seed)).encode(), config.root_seed


_COMMANDS = {
    "gen-cov": _cmd_gen_cov,
    "dist": _cmd_dist,
    "kl": _cmd_kl,
    "fdr": _cmd_fdr,
    "simulate": _cmd_simulate,
    "example": _cmd_example,
}


def _check_threads(threads: int | None) -> None:
    """Refuse a thread setting other than 1, so that none is quietly ignored."""
    settings = {"--threads": threads, "MISFDR_THREADS": os.environ.get("MISFDR_THREADS")}
    for name, value in settings.items():
        if value not in (None, 1, "1"):
            raise ParameterError(f"{name} must be 1, got {value!r}: sweeps run on one thread")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        _check_threads(args.threads)
        os.makedirs(args.output_dir, exist_ok=True)
        config_bytes, seed = _COMMANDS[args.subcommand](args)
        _write_run_meta(args.output_dir, seed, config_bytes, argv)
        return 0
    except ParameterError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (BoundaryError, NotPositiveDefiniteError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
