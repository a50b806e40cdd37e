"""Step-up procedure on posterior probabilities and its operating characteristics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .posterior import ModelSpec, PosteriorOperator, TrueProcess, draw_replications
from .rng import spawn


@dataclass(frozen=True)
class DecisionSet:
    rejected: np.ndarray
    k: int | np.ndarray


@dataclass(frozen=True)
class OperatingCharacteristics:
    fdr_hat: float
    fnr_hat: float
    mean_rejection_rate: float
    n_reps: int
    fdr_se: float
    fnr_se: float


def step_up(h: np.ndarray, alpha_star: float) -> DecisionSet:
    """Reject the k smallest h, k the longest prefix of sorted h whose running
    mean is at most alpha_star: the rule of Newton et al. 2004 (Biostatistics
    5:155) and Sun & Cai 2007 (JASA 102:901). `h` is (m,), giving an int k, or
    (n, m), one replication per row, giving an (n,) array of k and (n, m) masks."""
    if not 0.0 < alpha_star < 1.0:
        raise ParameterError("alpha_star must lie in (0, 1)")
    h = np.asarray(h, dtype=float)
    # One comparison each way also rejects NaN, which fails both.
    if h.size and not (h.min() >= 0.0 and h.max() <= 1.0):
        raise ParameterError("statistics must be finite and lie in [0, 1]")
    m = h.shape[-1]
    order = np.argsort(h, axis=-1, kind="stable")
    # Cumsum in place: a batch then holds one float (n, m) array besides h.
    prefix_means = np.take_along_axis(h, order, axis=-1)
    np.cumsum(prefix_means, axis=-1, out=prefix_means)
    prefix_means /= np.arange(1, m + 1)
    # k ends at the last qualifying prefix: rounding can leave gaps before it.
    qualifying = prefix_means <= alpha_star
    k = np.count_nonzero(np.logical_or.accumulate(qualifying[..., ::-1], axis=-1), axis=-1)
    rejected = np.empty(h.shape, dtype=bool)
    np.put_along_axis(rejected, order, np.arange(m) < np.expand_dims(k, -1), axis=-1)
    return DecisionSet(rejected, int(k) if h.ndim == 1 else k)


def truth_labels(theta: np.ndarray, theta_bound: np.ndarray) -> np.ndarray:
    """True where H0 holds, i.e. theta_i >= bound_i (boundary is null)."""
    return np.asarray(theta) >= np.asarray(theta_bound)


def replication_counts(h: np.ndarray, null_mask: np.ndarray, alpha_star: float) -> np.ndarray:
    """(R, V, T) for one replication: rejections, false rejections, true
    alternatives left unrejected. A batch (n, m) gives one row per replication."""
    decision = step_up(h, alpha_star)
    false_rejections = np.count_nonzero(decision.rejected & null_mask, axis=-1)
    missed = np.count_nonzero(~(decision.rejected | null_mask), axis=-1)
    return np.stack((decision.k, false_rejections, missed), axis=-1)


def replicate(truth: TrueProcess, specs, alpha_star: float, streams) -> list[np.ndarray]:
    """(n, 3) per-replication (R, V, T) counts for each spec, all scored on the
    same n datasets drawn from `truth`, one per stream. H0i is theta_i >= the
    spec's prior mean."""
    theta, y = draw_replications(truth, streams)
    return [
        replication_counts(PosteriorOperator(s).probs(y), truth_labels(theta, s.theta0), alpha_star)
        for s in specs
    ]


def summarize_counts(
    counts: np.ndarray, m: int
) -> OperatingCharacteristics:
    """Aggregate per-replication (R, V, T) rows into FDR/FNR estimates."""
    rejections = counts[:, 0].astype(float)
    fdp = counts[:, 1] / np.maximum(rejections, 1.0)
    fnp = counts[:, 2] / np.maximum(m - rejections, 1.0)
    n = counts.shape[0]
    fdr_se = float(fdp.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    fnr_se = float(fnp.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return OperatingCharacteristics(
        fdr_hat=float(fdp.mean()),
        fnr_hat=float(fnp.mean()),
        mean_rejection_rate=float(rejections.mean() / m),
        n_reps=n,
        fdr_se=fdr_se,
        fnr_se=fnr_se,
    )


def operating_characteristics(
    truth: TrueProcess,
    spec: ModelSpec,
    alpha_star: float,
    n_reps: int,
    rng=0,
) -> OperatingCharacteristics:
    """Monte Carlo FDR/FNR of the step-up procedure under (truth, spec).

    `rng` is an int root seed or a Generator; replication r draws from its
    own substream, so results are reproducible and order-independent.
    """
    if n_reps < 1:
        raise ParameterError("n_reps must be at least 1")
    (counts,) = replicate(truth, [spec], alpha_star, spawn(rng, n_reps))
    return summarize_counts(counts, truth.m)
