"""Configuration-driven sweeps: paired correct/misspecified runs.

A sweep varies either the prior scale g or the misspecified spatial range,
runs the step-up procedure under both specifications on the *same* datasets
(pairing reduces the variance of the rejection-rate difference), and
attaches the exact per-dimension KL divergence between the two laws.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .covariance import CovarianceMatrix, GridLayout, ar2_cov, exponential_cov, identity_cov
from .divergence import check_kl_specs, kl_laws
from .errors import ParameterError
from .fdr import replicate, summarize_counts
from .posterior import KnownVariance, ModelSpec, TrueProcess
from .sampdist import law_known_var
# `stream` is not used here; the benchmark's tracer self-test checks that
# tracing rebinds it as a name imported into another module.
from .rng import Substreams, stream  # noqa: F401

DEFAULT_G_GRID = tuple(10.0**e for e in (-2, -1, 0, 1, 2, 3))
DEFAULT_RHO_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


@dataclass(frozen=True)
class ExperimentConfig:
    label: str
    m: int
    sigma0_sq: float
    g: float
    truth_kernel: dict
    mis_kernel: dict
    sweep_variable: str  # "g" or "rho"
    sweep_values: tuple
    alpha_star: float
    n_reps: int
    root_seed: int
    grid: GridLayout | None = None

    def __post_init__(self) -> None:
        if self.sweep_variable not in ("g", "rho"):
            raise ParameterError("sweep.variable must be 'g' or 'rho'")
        if not self.sweep_values:
            raise ParameterError("sweep.values must be nonempty")
        if self.sweep_variable == "rho" and self.mis_kernel.get("kind") != "exponential":
            raise ParameterError("a 'rho' sweep varies mis.range: mis.kernel must be exponential")
        if self.n_reps < 1:
            raise ParameterError("n_reps must be at least 1")
        if self.grid is not None and self.grid.m != self.m:
            raise ParameterError("grid size does not match m")


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    fdr_cor: float
    fdr_mis: float
    fnr_cor: float
    fnr_mis: float
    rejection_rate_diff: float
    kl_per_dim: float
    # 0.0, as the KL divergence is exact; kept for readers of the sweep CSV that
    # pair each value with a standard error (the benchmark's correctness check).
    kl_se: float
    # Monte Carlo standard errors, kept for trend checks.
    fdr_cor_se: float
    fdr_mis_se: float
    fnr_cor_se: float
    fnr_mis_se: float


def build_cov(kernel: dict, m: int, grid: GridLayout | None) -> CovarianceMatrix:
    """Construct a covariance from a kernel descriptor dict."""
    kind = kernel.get("kind")
    if kind == "exponential":
        if grid is None:
            raise ParameterError("exponential kernel requires a grid layout")
        return exponential_cov(grid, float(kernel["range"]))
    if kind == "ar2":
        return ar2_cov(
            m,
            float(kernel["rho1"]),
            float(kernel["rho2"]),
            normalize=bool(kernel.get("normalize", False)),
        )
    if kind == "identity":
        return identity_cov(m)
    raise ParameterError(f"unknown kernel kind: {kind!r}")


def sweep_truth(config: ExperimentConfig, truth_cov: CovarianceMatrix) -> TrueProcess:
    """The data-generating process of a sweep: zero mean, the config's noise variance."""
    return TrueProcess(np.zeros(config.m), config.sigma0_sq, truth_cov)


def sweep_spec(config: ExperimentConfig, cov: CovarianceMatrix, g: float) -> ModelSpec:
    """An analysis spec of a sweep at prior scale g: the one place a sweep builds a spec."""
    return ModelSpec(np.zeros(config.m), g, cov, KnownVariance(config.sigma0_sq))


def paired_specs(config: ExperimentConfig, truth_cov, mis_cov, g: float):
    """(truth, spec_cor, spec_mis) at prior scale g; spec_cor uses the truth's covariance."""
    return (sweep_truth(config, truth_cov), sweep_spec(config, truth_cov, g),
            sweep_spec(config, mis_cov, g))


def _sweep_point(config: ExperimentConfig, truth: TrueProcess, mis_cov, cor,
                 index: int) -> SweepRow:
    """One sweep point. A g sweep passes the misspecified covariance `mis_cov`
    that all its points share and builds both specs and laws here. A range
    sweep passes `cor`, the (spec, law) pair of the correct spec that all its
    points share, and builds only the misspecified spec and law."""
    value = float(config.sweep_values[index])
    if cor is None:
        spec_cor, law_cor = sweep_spec(config, truth.sigma1, value), None
        spec_mis = sweep_spec(config, mis_cov, value)
    else:
        spec_cor, law_cor = cor
        mis_cov = build_cov({**config.mis_kernel, "range": value}, config.m, config.grid)
        spec_mis = sweep_spec(config, mis_cov, config.g)
    check_kl_specs(truth, spec_cor, spec_mis)

    block = Substreams(config.root_seed, config.n_reps, 0, index)
    counts_cor, counts_mis = replicate(truth, [spec_cor, spec_mis], config.alpha_star, block)
    oc_cor = summarize_counts(counts_cor, config.m)
    oc_mis = summarize_counts(counts_mis, config.m)
    diff = float((counts_cor[:, 0].mean() - counts_mis[:, 0].mean()) / config.m)
    if law_cor is None:
        law_cor = law_known_var(truth, spec_cor)
    kl = kl_laws(law_cor, law_known_var(truth, spec_mis))

    return SweepRow(
        sweep_value=value,
        fdr_cor=oc_cor.fdr_hat,
        fdr_mis=oc_mis.fdr_hat,
        fnr_cor=oc_cor.fnr_hat,
        fnr_mis=oc_mis.fnr_hat,
        rejection_rate_diff=diff,
        kl_per_dim=kl / truth.m,
        kl_se=0.0,
        fdr_cor_se=oc_cor.fdr_se,
        fdr_mis_se=oc_mis.fdr_se,
        fnr_cor_se=oc_cor.fnr_se,
        fnr_mis_se=oc_mis.fnr_se,
    )


def run_sweep(config: ExperimentConfig, threads: int = 1) -> list[SweepRow]:
    """Run every sweep point; deterministic given config.root_seed.

    The truth is built once. A g sweep shares its misspecified covariance
    across points; a range sweep shares its correct spec and that spec's law.
    Points are independent; `threads` caps worker parallelism. Output order
    always follows config.sweep_values.
    """
    truth = sweep_truth(config, build_cov(config.truth_kernel, config.m, config.grid))
    indices = range(len(config.sweep_values))
    try:
        mis_cov = cor = None
        if config.sweep_variable == "g":
            mis_cov = build_cov(config.mis_kernel, config.m, config.grid)
        else:
            spec_cor = sweep_spec(config, truth.sigma1, config.g)
            cor = spec_cor, law_known_var(truth, spec_cor)
        point = partial(_sweep_point, config, truth, mis_cov, cor)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(point, indices))
        else:
            rows = [point(j) for j in indices]
    except ParameterError:
        raise
    except Exception as err:
        raise RuntimeError(f"sweep failed for {config.label!r}: {err}") from err
    return rows


def builtin_example(which: int, scale: str = "full", root_seed: int = 0) -> ExperimentConfig:
    """Preset configurations for the three numerical studies, parsed by
    `config_from_mapping` like any config file.

    `desk` scale shrinks to m=100 (10x10 grid or length-100 series) and 400
    replications so the whole sweep runs in well under a minute.
    """
    if scale not in ("full", "desk"):
        raise ParameterError("scale must be 'full' or 'desk'")
    desk = scale == "desk"
    side = "10" if desk else "30"
    grid = {"grid.rows": side, "grid.cols": side}
    # repr round-trips a float exactly, so the parsed values equal the grids.
    g_sweep = {"sweep.values": ", ".join(map(repr, DEFAULT_G_GRID))}
    studies = {
        1: {**grid, **g_sweep, "truth.kernel": "exponential", "truth.range": "5.0",
            "mis.kernel": "identity"},
        2: {**g_sweep, "m": "100" if desk else "900",
            "truth.kernel": "ar2", "truth.rho1": "1.5", "truth.rho2": "-0.9",
            "mis.kernel": "ar2", "mis.rho1": "0.6", "mis.rho2": "0.3"},
        3: {**grid, "truth.kernel": "exponential", "truth.range": "5.0",
            "mis.kernel": "exponential", "sweep.variable": "rho",
            "sweep.values": ", ".join(map(repr, DEFAULT_RHO_GRID))},
    }
    if which not in studies:
        raise ParameterError("which must be 1, 2, or 3")
    mapping = {**studies[which], "sigma0_sq": "0.25",
               "n_reps": "400" if desk else "1000", "seed": str(root_seed)}
    return config_from_mapping(mapping, label=f"example{which}-{scale}")


SWEEP_COLUMNS = [f.name for f in fields(SweepRow)]


def write_csv(path, header, rows) -> None:
    """The one artifact format: a header row, then each row with floats written
    as repr(float(v)), which parses back exactly, and other cells as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat `key = value` config format; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParameterError(f"config line {lineno}: empty key or value")
        mapping[key] = value
    return mapping


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _kernel_from_mapping(get, prefix: str, needs_range: bool = True) -> dict:
    kind = get(f"{prefix}.kernel")
    kernel: dict = {"kind": kind}
    if kind == "exponential":
        if needs_range:
            kernel["range"] = get(f"{prefix}.range", cast=_finite_float)
    elif kind == "ar2":
        kernel["rho1"] = get(f"{prefix}.rho1", cast=_finite_float)
        kernel["rho2"] = get(f"{prefix}.rho2", cast=_finite_float)
        kernel["normalize"] = get(f"{prefix}.normalize", "false").lower() == "true"
    elif kind != "identity":
        raise ParameterError(f"unknown kernel kind: {kind!r}")
    return kernel


def config_from_mapping(mapping: dict[str, str], label: str = "config") -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key-value pairs.

    Every key must be one the build reads: a misspelled key, or a parameter
    the chosen kernel does not take, is an error rather than silently unused.
    """
    read: set[str] = set()

    def get(key: str, default=None, cast=str):
        read.add(key)
        if key not in mapping:
            if default is None:
                raise ParameterError(f"missing config key: {key}")
            return default
        try:
            return cast(mapping[key])
        except ValueError:
            raise ParameterError(f"config key {key}: invalid value {mapping[key]!r}") from None

    if get("noise.mode", "known") != "known":
        raise ParameterError(
            "sweeps and the KL divergence require the known-variance mode: the "
            "unknown-variance law has no closed-form joint density"
        )
    grid = None
    if "grid.rows" in mapping:
        grid = GridLayout(
            get("grid.rows", cast=int), get("grid.cols", cast=int),
            get("grid.spacing", 1.0, _finite_float),
        )
        m = grid.m
    else:
        m = get("m", cast=int)
    g = get("g", 1.0, _finite_float)
    sweep_variable = get("sweep.variable", "g")
    config = ExperimentConfig(
        label=label,
        m=m,
        sigma0_sq=get("sigma0_sq", cast=_finite_float),
        g=g,
        truth_kernel=_kernel_from_mapping(get, "truth"),
        # A range sweep sets mis.range at each point, so it may leave it out.
        mis_kernel=_kernel_from_mapping(
            get, "mis", sweep_variable != "rho" or "mis.range" in mapping),
        sweep_variable=sweep_variable,
        # A config without sweep.values describes a single run at its g.
        sweep_values=get("sweep.values", (g,),
                         lambda text: tuple(map(_finite_float, text.split(",")))),
        alpha_star=get("alpha_star", 0.05, _finite_float),
        n_reps=get("n_reps", 400, int),
        root_seed=get("seed", 0, int),
        grid=grid,
    )
    if "kl_draws" in mapping:
        # Read and ignored: the benchmark's generated reps-heavy config sets it,
        # and a key the parser does not read is an error.
        get("kl_draws", cast=int)
        warnings.warn("config key kl_draws is ignored: the KL divergence is exact", stacklevel=2)
    unread = sorted(set(mapping) - read)
    if unread:
        raise ParameterError(f"unknown config key(s): {', '.join(unread)}")
    return config
