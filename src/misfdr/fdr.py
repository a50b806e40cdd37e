"""Step-up procedure on posterior probabilities and its operating characteristics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .posterior import ModelSpec, TrueProcess, check_dims, draw_replications


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


# Rows handled at once: `replicate` draws, scores and decides this many
# replications per pass, so `step_up` is never handed more rows than this.
# Not fewer: at 256 rows OpenBLAS re-packs a 900 x 900 scoring operand on
# every call, and the scoring gemm ran 8% slower.
_BLOCK_ROWS = 512


def step_up(h: np.ndarray, alpha_star: float) -> DecisionSet:
    """Reject the k smallest h, k the longest prefix of sorted h whose running
    mean is at most alpha_star: the rule of Newton et al. 2004 (Biostatistics
    5:155) and Sun & Cai 2007 (JASA 102:901). `h` is (m,), giving an int k, or
    (n, m), one replication per row, giving an (n,) array of k and (n, m) masks."""
    if not 0.0 < alpha_star < 1.0:
        raise ParameterError("alpha_star must lie in (0, 1)")
    h = np.asarray(h, dtype=float)
    rows = np.atleast_2d(h)
    n, m = rows.shape
    sorted_h = np.sort(rows, axis=1)
    # A row's extremes are its first and last sorted scores; NaN sorts last
    # and fails both comparisons.
    if sorted_h.size and not (sorted_h[:, 0].min() >= 0.0 and sorted_h[:, -1].max() <= 1.0):
        raise ParameterError("statistics must be finite and lie in [0, 1]")
    if m == 0:
        # No column to search: every row rejects nothing.
        k, t, cut = np.zeros(n, dtype=np.intp), np.full(n, -np.inf), []
    else:
        # `replicate` bounds n by _BLOCK_ROWS, so the running means are
        # formed for all rows at once.
        prefix_means = np.cumsum(sorted_h, axis=1)
        prefix_means /= np.arange(1, m + 1)
        qualifying = prefix_means <= alpha_star
        del prefix_means
        # k ends at the last qualifying prefix: rounding can leave gaps before it.
        every = np.arange(n)
        last = m - 1 - np.argmax(qualifying[:, ::-1], axis=1)
        k = np.where(qualifying[every, last], last + 1, 0)
        # The k-th smallest score t, -inf when k = 0. `rows <= t` takes more
        # than k scores exactly where the next sorted score ties with t.
        t = np.where(k > 0, sorted_h[every, last], -np.inf)
        following = sorted_h[every, np.minimum(last + 1, m - 1)]
        cut = np.flatnonzero((k < m) & (following == t))
    del sorted_h
    rejected = rows <= t[:, None]
    # Where scores tied at t straddle the cut, a stable sort would reject the
    # ones of lowest index: drop the `over` tied scores of highest index.
    if len(cut):
        over = np.count_nonzero(rejected[cut], axis=1) - k[cut]
        tied = rows[cut] == t[cut, None]
        from_right = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
        rejected[cut] &= ~(tied & (from_right <= over[:, None]))
    if h.ndim == 1:
        return DecisionSet(rejected[0], int(k[0]))
    return DecisionSet(rejected, k)


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


def replicate(
    truth: TrueProcess, specs, alpha_star: float, gen: np.random.Generator, n: int
) -> list[np.ndarray]:
    """(n, 3) per-replication (R, V, T) counts for each spec in `specs`, all
    scored on the same n datasets, the next n that `gen` draws from `truth`.
    H0i is theta_i >= the spec's prior mean.

    The datasets are drawn, scored and decided `_BLOCK_ROWS` at a time, in
    order, so the working set is a few (_BLOCK_ROWS, m) arrays however large
    n is. Row r is the r-th dataset of the stream whatever the block size, so
    the first N rows of n > N replications are the N replications.
    """
    for spec in specs:
        check_dims(truth, spec)
    counts = [np.empty((n, 3), dtype=np.intp) for _ in specs]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        theta, y = draw_replications(truth, gen, stop - start)
        # The null labels are all that is read of theta: free it before scoring.
        nulls = [truth_labels(theta, spec.theta0) for spec in specs]
        del theta
        for spec, null, out in zip(specs, nulls, counts):
            out[start:stop] = replication_counts(spec.probs(y), null, alpha_star)
    return counts


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

    The replications are the next n_reps that `np.random.default_rng(rng)`
    draws: an int seed gives a fresh stream, so results are reproducible,
    and a Generator passed in is advanced by the draws.
    """
    if n_reps < 1:
        raise ParameterError("n_reps must be at least 1")
    (counts,) = replicate(truth, [spec], alpha_star, np.random.default_rng(rng), n_reps)
    return summarize_counts(counts, truth.m)
