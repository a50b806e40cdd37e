"""Step-up procedure on posterior probabilities and its operating characteristics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .posterior import ModelSpec, PosteriorOperator, TrueProcess, draw_replications
from .rng import as_generator


@dataclass(frozen=True)
class DecisionSet:
    rejected: np.ndarray
    k: int
    threshold_level: float


@dataclass(frozen=True)
class OperatingCharacteristics:
    fdr_hat: float
    fnr_hat: float
    mean_rejection_rate: float
    n_reps: int
    fdr_se: float
    fnr_se: float


def step_up(h: np.ndarray, alpha_star: float) -> DecisionSet:
    """Reject the k hypotheses with smallest h, where k is the largest
    prefix whose running mean of sorted h stays at or below alpha_star."""
    if not 0.0 < alpha_star < 1.0:
        raise ParameterError("alpha_star must lie in (0, 1)")
    h = np.asarray(h, dtype=float)
    # One comparison each way also rejects NaN, which fails both.
    if h.size and not (h.min() >= 0.0 and h.max() <= 1.0):
        raise ParameterError("statistics must be finite and lie in [0, 1]")
    order = np.argsort(h, kind="stable")
    prefix_means = np.cumsum(h[order]) / np.arange(1, h.size + 1)
    qualifying = np.nonzero(prefix_means <= alpha_star)[0]
    k = int(qualifying[-1] + 1) if qualifying.size else 0
    rejected = np.zeros(h.size, dtype=bool)
    rejected[order[:k]] = True
    return DecisionSet(rejected=rejected, k=k, threshold_level=alpha_star)


def truth_labels(theta: np.ndarray, theta_bound: np.ndarray) -> np.ndarray:
    """True where H0 holds, i.e. theta_i >= bound_i (boundary is null)."""
    return np.asarray(theta) >= np.asarray(theta_bound)


def replication_counts(
    h: np.ndarray, null_mask: np.ndarray, alpha_star: float
) -> tuple[int, int, int]:
    """(R, V, T) for one replication: rejections, false rejections,
    true alternatives left unrejected."""
    decision = step_up(h, alpha_star)
    rejections = decision.k
    false_rejections = int(np.count_nonzero(decision.rejected & null_mask))
    missed = int(np.count_nonzero(~decision.rejected & ~null_mask))
    return rejections, false_rejections, missed


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
    gen = as_generator(rng)
    streams = [np.random.default_rng(s) for s in gen.bit_generator.seed_seq.spawn(n_reps)]
    theta, y = draw_replications(truth, streams)
    h = PosteriorOperator(spec).probs(y)
    nulls = truth_labels(theta, np.broadcast_to(spec.theta0, theta.shape))
    counts = np.array(
        [replication_counts(h[i], nulls[i], alpha_star) for i in range(n_reps)]
    )
    return summarize_counts(counts, truth.m)
