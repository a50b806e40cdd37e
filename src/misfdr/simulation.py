"""Configuration-driven sweeps: paired correct/misspecified runs.

Point j of a sweep is its config with the key `SWEEP_KEYS[sweep.variable]` set
to `sweep.values[j]`; without `sweep.values` the config is one point, at its
own value of the key. Each point runs the step-up rule under both specs on the
*same* datasets (pairing reduces the variance of the rejection-rate
difference) and attaches the exact per-dimension KL divergence of the laws.

Every point of a sweep scores the same datasets, the first n_reps of the
stream `(seed, 0, 0)`: common random numbers, which pair the points with each
other too. Each row's standard errors are still that row's own Monte Carlo
errors, but the rows are correlated, so a difference between two rows is
estimated more precisely than the two errors suggest. A `mis.*` key leaves
the correct spec alone, so it is scored once; any other key leaves the
misspecified covariance alone, so it is built once.

The datasets are drawn once per pass, not once per point. A pass is a run
of consecutive points whose specs all score one draw: it takes points while
the m x m arrays they add (each dense spec's A, and a range point's own
covariance) fit in the floats of one draw block of `fdr.drawn_datasets`,
`_BLOCK_ROWS` x 2m. At m = 100 a whole built-in study takes one or two
passes; at m = 900 one dense A fills the block, so each point is its own
pass. A range sweep scores its shared correct spec on its own, before the
passes. When a sweep scores its datasets more than once and their n_reps x
m floats fit in one draw block too (as for every built-in study of more
than one pass), they are drawn once, before the passes, and kept as the
list of `fdr.drawn_datasets`' blocks; otherwise each pass draws them. The
passes and the keeping follow from the config and its covariances alone,
and the passes run in order on the calling thread. Each spec's counts are those it would
get alone on the stream, so the numbers do not depend on the grouping or
on whether the datasets are kept.

`KERNELS` is the one table of kernel kinds: the config parser, the check of
the swept key, `build_cov` and the CLI's gen-cov read it. A config file sets
each key once. `run_sweep` raises the package's own errors unwrapped,
whether the truth or a point's spec raised them.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import covariance
from .covariance import CovarianceMatrix, GridLayout
from .divergence import kl_laws
from .errors import ParameterError
from .fdr import block_floats, drawn_datasets, replicate, summarize_counts
from .posterior import KnownVariance, ModelSpec, TrueProcess
from .sampdist import law_known_var
from .rng import stream

DEFAULT_G_GRID = tuple(10.0**e for e in (-2, -1, 0, 1, 2, 3))
DEFAULT_RHO_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
# sweep.variable -> the config key that each point of the sweep sets.
SWEEP_KEYS = {"g": "g", "rho": "mis.range"}


@dataclass(frozen=True)
class ExperimentConfig:
    label: str
    m: int
    sigma0_sq: float
    g: float
    truth_kernel: dict
    mis_kernel: dict
    sweep_variable: str  # a key of SWEEP_KEYS
    sweep_values: tuple
    alpha_star: float
    n_reps: int
    root_seed: int
    grid: GridLayout | None = None

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_KEYS:
            raise ParameterError(f"sweep.variable must be one of {', '.join(SWEEP_KEYS)}")
        prefix, _, name = self.sweep_key.rpartition(".")
        kinds = [kind for kind, (_, _, keys) in KERNELS.items() if name in keys]
        if prefix and getattr(self, f"{prefix}_kernel").get("kind") not in kinds:
            raise ParameterError(f"a {self.sweep_variable!r} sweep varies {self.sweep_key}: "
                                 f"{prefix}.kernel must be {' or '.join(kinds)}")
        if not self.sweep_values:
            raise ParameterError("sweep.values must be nonempty")
        # The positive parameters the points read, refused before any work:
        # every key of SWEEP_KEYS is one, and a swept g replaces the config's.
        positive = {"sigma0_sq": (self.sigma0_sq,), "g": (self.g,),
                    self.sweep_key: self.sweep_values}
        for key, values in positive.items():
            if not all(0 < value < np.inf for value in values):
                raise ParameterError(f"{key} must be positive and finite")
        if not isinstance(self.n_reps, numbers.Integral):
            raise ParameterError(f"n_reps must be an integer, not {self.n_reps!r}")
        if self.n_reps < 1:
            raise ParameterError("n_reps must be at least 1")
        if not 0.0 < self.alpha_star < 1.0:
            raise ParameterError("alpha_star must lie in (0, 1)")
        if self.grid is not None and self.grid.m != self.m:
            raise ParameterError("grid size does not match m")

    @property
    def sweep_key(self) -> str:
        return SWEEP_KEYS[self.sweep_variable]

    def at(self, value: float) -> ExperimentConfig:
        """Sweep point `value`: the one-point config with the swept key set to it."""
        prefix, _, name = self.sweep_key.rpartition(".")
        field = f"{prefix}_kernel" if prefix else name
        setting = {**getattr(self, field), name: value} if prefix else value
        return replace(self, sweep_values=(value,), **{field: setting})


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
    """The covariance of a kernel dict, built as its kind's `KERNELS` entry
    says; a key that the kind does not take is refused."""
    kind = kernel.get("kind")
    if kind not in KERNELS:
        raise ParameterError(f"unknown kernel kind: {kind!r}")
    constructor, on_grid, keys = KERNELS[kind]
    foreign = [name for name in kernel if name != "kind" and name not in keys]
    if foreign:
        raise ParameterError(f"{kind} kernel takes no {', '.join(map(repr, foreign))}")
    if on_grid and grid is None:
        raise ParameterError(f"{kind} kernel requires a grid layout")
    values = [kernel.get(name, default) for name, (_, default) in keys.items()]
    missing = [name for name, value in zip(keys, values) if value is None]
    if missing:
        raise ParameterError(f"{kind} kernel requires {', '.join(missing)}")
    return getattr(covariance, constructor)(grid if on_grid else m, *values)


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


def _score(config: ExperimentConfig, truth: TrueProcess, specs, kept) -> list:
    """The counts of each of `specs` on the sweep's datasets: the `kept` ones,
    or when they are None the first n_reps of a fresh `stream(seed, 0, 0)`."""
    datasets = (drawn_datasets(truth, stream(config.root_seed, 0, 0), config.n_reps)
                if kept is None else kept)
    return replicate(truth, specs, config.alpha_star, datasets)


def _sweep_pass(config: ExperimentConfig, truth: TrueProcess, mis_cov, shared_cor, kept,
                values) -> list[SweepRow]:
    """The rows of the sweep points `values`, scored in one pass: their specs
    all score the sweep's datasets in one `_score` call; then each point
    builds its laws and their KL divergence, and each spec is dropped once
    its law is built. A point builds what `run_sweep` does not pass it to
    share: its misspecified covariance when `mis_cov` is None, its correct
    spec, law and counts when `shared_cor`, the (law, counts) of a range
    sweep's correct spec, is None."""
    points = [config.at(float(value)) for value in values]
    specs = []
    for point in points:
        if shared_cor is None:
            specs.append(sweep_spec(point, truth.sigma1, point.g))
        specs.append(sweep_spec(point, mis_cov if mis_cov is not None
                                else build_cov(point.mis_kernel, point.m, point.grid), point.g))
    counts = iter(_score(config, truth, specs, kept))
    # Popped as its law is built, a spec and its m x m A are freed at once.
    specs.reverse()
    rows = []
    for point in points:
        law_cor, counts_cor = shared_cor or (law_known_var(truth, specs.pop()), next(counts))
        counts_mis = next(counts)
        kl = kl_laws(law_cor, law_known_var(truth, specs.pop()))
        rows.append(_sweep_row(config.m, point.sweep_values[0], counts_cor, counts_mis, kl))
    return rows


def _passes(values, cost: int, budget: int) -> list:
    """The points `values` in consecutive passes, each as many points as fit
    their `cost` within `budget`, and at least one."""
    size = max(1, budget // cost) if cost else len(values)
    return [values[start:start + size] for start in range(0, len(values), size)]


def _sweep_row(m: int, value: float, counts_cor, counts_mis, kl: float) -> SweepRow:
    oc_cor = summarize_counts(counts_cor, m)
    oc_mis = summarize_counts(counts_mis, m)
    return SweepRow(
        sweep_value=value,
        fdr_cor=oc_cor.fdr_hat,
        fdr_mis=oc_mis.fdr_hat,
        fnr_cor=oc_cor.fnr_hat,
        fnr_mis=oc_mis.fnr_hat,
        rejection_rate_diff=float((counts_cor[:, 0].mean() - counts_mis[:, 0].mean()) / m),
        kl_per_dim=kl / m,
        kl_se=0.0,
        fdr_cor_se=oc_cor.fdr_se,
        fdr_mis_se=oc_mis.fdr_se,
        fnr_cor_se=oc_cor.fnr_se,
        fnr_mis_se=oc_mis.fnr_se,
    )


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Run every sweep point; deterministic given config.root_seed.

    The truth is built once, and every point scores the same n_reps datasets,
    so the rows are paired with each other as well as within themselves. A
    `mis.*` key leaves the correct spec alone: it is built, given its law and
    scored once, before the points, and dropped once it is scored; any other
    key leaves the shared misspecified covariance alone.

    The points are scored in passes of consecutive points, each of which
    scores the datasets once for all its specs (`_sweep_pass`). A pass takes
    points while the m x m arrays they add, each dense spec's A and a range
    point's own covariance, fit in the floats of one draw block
    (`fdr.block_floats`). The passes follow from the config alone and run
    in order on the calling thread.

    When the sweep scores its datasets more than once (more than one pass,
    or a shared correct spec beside the passes) and their n_reps x m floats
    fit in one draw block, they are drawn once, before the passes, and kept
    as the list of `fdr.drawn_datasets`' blocks: at m = 900 and 1000 reps
    that is 900,000 floats of the block's 921,600. Otherwise each scoring
    draws them from a fresh stream, so a sweep never holds more datasets
    than one draw block. Every
    spec's counts are those of its own `replicate` on the stream, so the
    rows do not depend on the grouping or on keeping. Output order follows
    config.sweep_values.
    """
    truth = sweep_truth(config, build_cov(config.truth_kernel, config.m, config.grid))
    square, budget = config.m * config.m, block_floats(config.m)
    shares_cor = config.sweep_key.startswith("mis.")
    mis_cov = shared_cor = kept = None
    if shares_cor:
        # A point builds its covariance and its spec's A.
        cost = 2 * square
    else:
        mis_cov = build_cov(config.mis_kernel, config.m, config.grid)
        cost = square * ((not truth.sigma1.is_diagonal) + (not mis_cov.is_diagonal))
    passes = _passes(config.sweep_values, cost, budget)
    if len(passes) + shares_cor > 1 and config.n_reps * config.m <= budget:
        kept = list(drawn_datasets(truth, stream(config.root_seed, 0, 0), config.n_reps))
    if shares_cor:
        spec_cor = sweep_spec(config, truth.sigma1, config.g)
        shared_cor = (law_known_var(truth, spec_cor), *_score(config, truth, [spec_cor], kept))
        del spec_cor
    return [row for values in passes
            for row in _sweep_pass(config, truth, mis_cov, shared_cor, kept, values)]


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
    """Parse the flat `key = value` config format; '#' starts a comment, and a
    key may be set only once."""
    mapping: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParameterError(f"config line {lineno}: empty key or value")
        if key in lines:
            raise ParameterError(f"config line {lineno}: key {key!r} repeats line {lines[key]}")
        mapping[key], lines[key] = value, lineno
    return mapping


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _boolean(text: str) -> bool:
    value = text.lower()
    if value not in ("true", "false"):
        raise ValueError(text)
    return value == "true"


def _seed(text: str) -> int:
    # numpy's SeedSequence takes a non-negative int entropy.
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# kernel kind -> (its `covariance` constructor's name, looked up at each call so a
# wrapper rebound to it is called; whether it takes the grid, else m; {key read
# after `<prefix>.kernel`, passed next in order: (cast, default or None if required)})
KERNELS = {
    "exponential": ("exponential_cov", True, {"range": (_finite_float, None)}),
    "ar2": ("ar2_cov", False, {"rho1": (_finite_float, None), "rho2": (_finite_float, None),
                               "normalize": (_boolean, False)}),
    "identity": ("identity_cov", False, {}),
}


def _kernel_from_mapping(get, prefix: str) -> dict:
    kind = get(f"{prefix}.kernel")
    if kind not in KERNELS:
        raise ParameterError(f"unknown kernel kind: {kind!r}")
    _, _, keys = KERNELS[kind]
    return {"kind": kind, **{name: get(f"{prefix}.{name}", default, cast)
                             for name, (cast, default) in keys.items()}}


def config_from_mapping(mapping: dict[str, str], label: str = "config",
                        sweep: bool = True) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key-value pairs.

    Every key must be one the build reads: a misspelled key, or a parameter
    the chosen kernel does not take, is an error rather than silently unused.
    With `sweep` False it reads one run's model only: `sweep.*`, n_reps, seed,
    alpha_star and kl_draws, which only a sweep reads, are then unknown keys.
    """
    read: dict[str, object] = {}

    def get(key: str, default=None, cast=str):
        if key not in mapping and default is None:
            raise ParameterError(f"missing config key: {key}")
        try:
            read[key] = cast(mapping[key]) if key in mapping else default
        except ValueError:
            raise ParameterError(f"config key {key}: invalid value {mapping[key]!r}") from None
        return read[key]

    run_get = get if sweep else lambda key, default, cast=str: default
    sweep_variable = run_get("sweep.variable", "g")
    key = SWEEP_KEYS.get(sweep_variable)
    values = run_get("sweep.values", (), lambda text: tuple(map(_finite_float, text.split(","))))
    if values and key:
        # Each point sets the key, so the config may leave it out: it is point 0.
        mapping = {key: repr(values[0]), **mapping}
    if get("noise.mode", "known") != "known":
        raise ParameterError(
            "sweeps and the KL divergence require the known-variance mode: the "
            "joint density of the unknown-variance law is not implemented yet"
        )
    grid = None
    if "grid.rows" in mapping:
        grid = GridLayout(get("grid.rows", cast=int), get("grid.cols", cast=int),
                          get("grid.spacing", 1.0, _finite_float))
    config = ExperimentConfig(
        label=label,
        m=get("m", cast=int) if grid is None else grid.m,
        sigma0_sq=get("sigma0_sq", cast=_finite_float),
        g=get("g", 1.0, _finite_float),
        truth_kernel=_kernel_from_mapping(get, "truth"),
        mis_kernel=_kernel_from_mapping(get, "mis"),
        sweep_variable=sweep_variable,
        # Without sweep.values the config is one point, at its own value of the
        # key: None if no kernel read the key, which the config then refuses.
        sweep_values=values or (read.get(key),),
        alpha_star=run_get("alpha_star", 0.05, _finite_float),
        n_reps=run_get("n_reps", 400, int),
        root_seed=run_get("seed", 0, _seed),
        grid=grid,
    )
    if sweep and "kl_draws" in mapping:
        # Read and ignored: the benchmark's generated reps-heavy config sets it.
        get("kl_draws", cast=int)
        warnings.warn("config key kl_draws is ignored: the KL divergence is exact", stacklevel=2)
    unread = sorted(set(mapping) - set(read))
    if unread:
        raise ParameterError(f"unknown config key(s): {', '.join(unread)}")
    return config
