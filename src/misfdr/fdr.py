"""Step-up procedure on posterior probabilities and its operating characteristics."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import chol
from .posterior import ModelSpec, TrueProcess, check_spec, draw_replications


@dataclass(frozen=True)
class DecisionSet:
    rejected: np.ndarray
    k: int | np.ndarray


@dataclass(frozen=True)
class OperatingCharacteristics:
    fdr_hat: float
    fnr_hat: float
    fdr_se: float
    fnr_se: float


# Rows handled at once: `drawn_datasets` draws, and `replicate` scores and
# decides, this many replications per block, so `step_up` is never handed
# more rows than this.
# Not fewer: at 256 rows OpenBLAS re-packs a 900 x 900 scoring operand on
# every call, and the scoring gemm ran 8% slower.
_BLOCK_ROWS = 512


def block_floats(m: int) -> int:
    """Floats in one block of draws at dimension m: `drawn_datasets` draws
    `_BLOCK_ROWS` replications of 2m normals at a time. A caller that holds
    no more than this beside a `replicate` call keeps its working set within
    a few (_BLOCK_ROWS, m) arrays. A sweep whose n_reps x m floats of data
    fit in it keeps its datasets, the list of `drawn_datasets`' blocks,
    rather than draw them again for each `replicate` call."""
    return _BLOCK_ROWS * 2 * m


# Columns of each sorted row that `_decide` evaluates in its first pass, and
# the fewest that a later pass adds for the rows whose running mean can still
# qualify; past 8 of these a pass adds an eighth of the prefix, so a long row
# takes few passes. On 512 x 900 Student-t rows (2-core Xeon, one BLAS
# thread) this ran 15% faster than doubling from 64.
_STEP = 64
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).smallest_subnormal


def step_up(h: np.ndarray, alpha_star: float) -> DecisionSet:
    """Reject the k smallest h, k the longest prefix of sorted h whose running
    mean is at most alpha_star: the rule of Newton et al. 2004 (Biostatistics
    5:155) and Sun & Cai 2007 (JASA 102:901). `h` is (m,), giving an int k, or
    (n, m), one replication per row, giving an (n,) array of k and (n, m) masks.
    It is `_decide` on h as given, in one pass over each row: with no CDF to
    skip, more passes would only add overhead to a one-row call."""
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2):
        raise ParameterError(f"h must be an (m,) or (n, m) array, not {h.ndim}-d")
    decision = _decide(np.atleast_2d(h), alpha_star)
    if h.ndim == 1:
        return DecisionSet(decision.rejected[0], int(decision.k[0]))
    return decision


def _decide(x: np.ndarray, alpha_star: float, cdf=None) -> DecisionSet:
    """The step-up rule on h = cdf(x) for an (n, m) batch x, one replication
    per row, with `cdf` non-decreasing and taking `out=` as a numpy ufunc
    does (h = x when it is None). It gives the k and masks of
    `step_up(cdf(x))`, but applies `cdf` and the running means to no more of
    each sorted row than the rule reads.

    Each row is sorted by x, so cdf of the sorted row is sorted h. The
    running means are formed on the first _STEP columns, then on more for
    the rows whose last mean could still qualify, and so on. Each pass
    carries a row's running sum on, so every mean is the one a `cumsum` of
    the whole row gives, bit for bit. The exact means of sorted h never
    decrease, and the float sum and divide move a mean of at most m
    non-negative terms by less than a factor 1 +- m eps / 2, so once a
    computed mean exceeds alpha_star (1 + 2 m eps) no longer prefix can
    qualify, and the row stops. k is the last qualifying prefix: rounding
    can leave gaps before it.

    A row rejects every x at most its k-th sorted x. Where the next sorted
    score has the same h, ties between distinct x that round to one h
    included (ndtr(-40) == ndtr(-41) == 0.0), the row is decided on its whole
    h: the tied scores of lowest index are rejected, as a stable sort of h
    orders them. The decisions are those of sorting h itself wherever the
    float `cdf` is non-decreasing. ndtr and the Student-t kernel
    (`posterior.StudentT`, Hill's transform with a fitted correction) can
    step down by an ulp, but only between scores a few ulps apart; the
    kernel also by up to 5e-13 relatively where it hands over to stdtr at
    x = -37.
    """
    if not 0.0 < alpha_star < 1.0:
        raise ParameterError("alpha_star must lie in (0, 1)")
    n, m = x.shape
    if not n * m:
        return DecisionSet(np.zeros(x.shape, dtype=bool), np.zeros(n, dtype=np.intp))
    sorted_x = np.sort(x, axis=1)
    # The extremes of h are cdf of those of x; NaN sorts last, max propagates
    # it and it fails both comparisons.
    lowest, highest = sorted_x[:, 0].min(), sorted_x[:, -1].max()
    if cdf is not None:
        lowest, highest = cdf(lowest), cdf(highest)
    if not (lowest >= 0.0 and highest <= 1.0):
        raise ParameterError("statistics must be finite and lie in [0, 1]")
    # A row whose running mean passes `stop` stops, as the docstring shows;
    # _TINY covers a divide that rounds below the normal range.
    stop = alpha_star * (1.0 + 2 * m * _EPS) + _TINY
    every = rows = np.arange(n)
    lo, hi = 0, m if cdf is None else min(m, _STEP)
    # Each pass's h, running sums and means, in place in one buffer: new
    # arrays for each pass raised the peak RSS of a full study-1 sweep by
    # about 4 MB.
    work = None if cdf is None else np.empty(n * m)
    while True:
        if cdf is None:
            # h is x: one pass over the whole of each row.
            sums = np.add.accumulate(sorted_x, axis=1)
        else:
            sums = work[:len(rows) * (hi - lo)].reshape(len(rows), hi - lo)
            np.take(sorted_x[:, lo:hi], rows, axis=0, out=sums, mode="clip")
            cdf(sums, out=sums)
            if lo:
                # Continue each row's running sum as a `cumsum` of the whole row does.
                sums[:, 0] += carry
            np.add.accumulate(sums, axis=1, out=sums)
            carry = sums[:, -1].copy()
        means = np.divide(sums, np.arange(lo + 1.0, hi + 1.0), out=sums)
        qualifying = means <= alpha_star
        last = hi - lo - 1 - np.argmax(qualifying[:, ::-1], axis=1)
        found = qualifying[every[:len(rows)], last]
        if lo:
            k[rows[found]] = lo + last[found] + 1
        else:
            k = np.where(found, last + 1, 0)
        if hi == m:
            break
        going = np.flatnonzero(means[:, -1] <= stop)
        if not len(going):
            break
        rows, carry = rows[going], carry[going]
        lo, hi = hi, min(m, hi + max(_STEP, hi // 8))
    # The k-th smallest x, -inf when k = 0.
    t = sorted_x[every, k - 1]
    t[k == 0] = -np.inf
    rejected = x <= t[:, None]
    # A row rejects more than k scores, or the wrong ones, only where the
    # next sorted h ties with the k-th. k = 0 leaves t = -inf, whose h is 0
    # and below the first h, which failed the rule.
    following = sorted_x[every, np.minimum(k, m - 1)]
    t_h, following_h = (t, following) if cdf is None else (cdf(t), cdf(following))
    cut = np.flatnonzero((k < m) & (following_h == t_h))
    if len(cut):
        h = x[cut] if cdf is None else cdf(x[cut])
        at_most, tied = h <= t_h[cut, None], h == t_h[cut, None]
        # Drop the `over` tied scores of highest index.
        over = np.count_nonzero(at_most, axis=1) - k[cut]
        from_right = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
        rejected[cut] = at_most & ~(tied & (from_right <= over[:, None]))
    return DecisionSet(rejected, k)


def drawn_datasets(truth: TrueProcess, gen: np.random.Generator, n: int):
    """The next n datasets `gen` draws from `truth`, `_BLOCK_ROWS` at a time:
    for each block, the residuals y - truth.theta0 and their null mask
    theta >= truth.theta0 (`posterior.draw_replications`). Each block owns
    its arrays, so a list of the blocks keeps n x m floats and as many
    bools. Sigma_1 is factored once, before the first block, and the factor
    is freed with the generator after the last."""
    sigma1_chol = chol(truth.sigma1.entries)
    for start in range(0, n, _BLOCK_ROWS):
        null, resid = draw_replications(truth, sigma1_chol, gen, min(_BLOCK_ROWS, n - start))
        yield resid, null


def replicate(truth: TrueProcess, specs, alpha_star: float, blocks) -> list[np.ndarray]:
    """(n, 3) per-replication (R, V, T) counts for each spec in `specs`, all
    scored on the same n datasets: the (resid, null) blocks of `blocks`,
    drawn as they are read (`drawn_datasets`) or kept in a list of them, n
    their rows in all. Every spec must have the truth's dimension and prior
    mean (`check_spec`), so one null mask, theta_i >= theta0_i, serves them
    all.
    R is the number of rejections, V the false ones and T the true
    alternatives left unrejected. Each is at most m, so the counts are
    int32: a sweep holds one array per spec.

    The blocks are scored and decided in order, one at a time, so the
    working set is a few (_BLOCK_ROWS, m) arrays however large n is, and
    the specs are checked before the first block is drawn. Row r is the
    r-th dataset of the stream whatever the block size, so the first N rows
    of n > N replications are the N replications. A block is decided from
    its standardized scores `spec.standardized_residual(resid)`: the
    posterior CDF `spec.cdf` is applied only to the sorted prefix of each
    row that the step-up rule reads (see `_decide`), and the counts are
    those of `step_up(spec.cdf(spec.standardized_residual(resid)))`.
    """
    for spec in specs:
        check_spec(truth, spec)
    counts = [[] for _ in specs]
    for resid, null in blocks:
        for spec, out in zip(specs, counts):
            decision = _decide(spec.standardized_residual(resid), alpha_star, spec.cdf)
            out.append(np.stack([decision.k,
                                 np.count_nonzero(decision.rejected & null, axis=1),
                                 np.count_nonzero(~(decision.rejected | null), axis=1)],
                                axis=1, dtype=np.int32))
    return [np.concatenate(out) for out in counts]


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
    if not isinstance(n_reps, numbers.Integral):
        raise ParameterError(f"n_reps must be an integer, not {n_reps!r}")
    if n_reps < 1:
        raise ParameterError("n_reps must be at least 1")
    datasets = drawn_datasets(truth, np.random.default_rng(rng), n_reps)
    (counts,) = replicate(truth, [spec], alpha_star, datasets)
    return summarize_counts(counts, truth.m)
