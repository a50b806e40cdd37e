"""Reference draws and Monte Carlo oracles for the package; only tests use them.

- `draw_dataset`: one (theta, y) draw from a seed or Generator, the reference that
  `draw_replications` reproduces row for row: its rows are successive draws.
- `kl_known_var`: the KL divergence between the correct and misspecified
  known-variance laws of the scores, by Monte Carlo, against `kl_exact`.
- `log_density_ratio`: log f_cor(h) - log f_mis(h), the summand of that
  estimate.
- `kl_copula_difference`: the closed-form KL divergence through the difference
  of the two copula matrices and their log determinants, the reference that
  `kl_laws` is pinned to.
- `joint_cdf_mc`: the joint CDF of a known-variance law, by Monte Carlo.
- `xi_sampler_c`: draws of the unknown-variance law's scaled Gaussian vector
  from its C and L_B, the reference that `sampdist.xi_sampler`, which scores
  residuals drawn from the truth, is pinned to.
- `random_truth_spec_pairs`: random SPD truths and specifications.
- `dense_twin`: a covariance with the same entries that the package treats as
  dense, the reference the closed forms of a diagonal specification are
  pinned to.
- `step_up_reference`: the step-up rule in its earlier, many-pass form, the
  reference whose k and rejections `fdr.step_up` reproduces exactly.
- `probs`: a spec's scores h = Psi(z) on every coordinate of y.
- `replication_counts`: (R, V, T) from scores h by `step_up_reference`, the
  reference that `fdr.replicate`, which decides from the standardized
  scores, reproduces exactly.
- `sweep_rows_per_point`: a sweep's rows by one `replicate` per point, each
  on its own fresh stream, the reference that `simulation.run_sweep`, which
  scores the points in passes, reproduces field for field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from misfdr.covariance import CovarianceMatrix
from misfdr.divergence import check_kl_specs
from misfdr.errors import BoundaryError, ParameterError
from misfdr.divergence import kl_laws
from misfdr.fdr import _BLOCK_ROWS, DecisionSet, drawn_datasets, replicate, summarize_counts
from misfdr.posterior import ModelSpec, TrueProcess, draw_replications
from misfdr.linalg import chol
from misfdr.rng import stream
from misfdr.sampdist import SamplingLaw, _check_open_unit, law_known_var, require_density
from misfdr.simulation import SweepRow, build_cov, sweep_spec, sweep_truth

DEFAULT_DRAWS = 1000

# Abort if more than this fraction of draws hit a floating-point boundary.
MAX_EXCLUDED_FRACTION = 1e-3


@dataclass(frozen=True)
class KLEstimate:
    total: float
    per_dim: float
    std_err: float
    n_draws: int
    n_excluded: int = 0


def draw_dataset(truth: TrueProcess, rng) -> tuple[np.ndarray, np.ndarray]:
    """One draw (theta, y): theta ~ N(theta0, Sigma1), y = theta + N(0, sigma0^2 I).
    It factors Sigma1 itself, as the truth keeps no factor of it."""
    gen = np.random.default_rng(rng)
    z = gen.standard_normal(truth.m)
    theta = truth.theta0 + chol(truth.sigma1.entries) @ z
    eps = np.sqrt(truth.sigma0_sq) * gen.standard_normal(truth.m)
    return theta, theta + eps


def random_truth_spec_pairs(seed=7):
    """Random SPD truths and specs with random noise variances, m in [2, 50]."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        m = int(rng.integers(2, 51))
        raw, raw2 = rng.standard_normal((m, m)), rng.standard_normal((m, m))
        sigma1 = CovarianceMatrix(raw @ raw.T + m * np.eye(m))
        sigma = CovarianceMatrix(raw2 @ raw2.T + m * np.eye(m))
        yield rng, TrueProcess(np.zeros(m), float(rng.uniform(0.1, 2.0)), sigma1), sigma


def dense_twin(cov: CovarianceMatrix) -> CovarianceMatrix:
    """`cov`'s entries in a covariance that takes the dense path: its operator
    factors K and inverts it, its law forms B by congruence and factors it."""
    twin = CovarianceMatrix(cov.entries)
    # A matrix that keeps its entries is dense: `is_diagonal` reads which is kept.
    twin._entries = cov.entries
    return twin


def kl_copula_difference(law_cor: SamplingLaw, law_mis: SamplingLaw) -> float:
    """KL(f_cor || f_mis) from two known-variance laws as
    (1/2)(log det C_cor - log det C_mis) + (1/2) sum_ij (C_mis - C_cor)_ij S_ij,
    with S = C_cor^{-1} = D_a^{-1/2} B_cor D_a^{-1/2}.

    The log determinants and the trace are O(m) terms that cancel as the two
    laws approach each other, so the absolute error of this value is a few
    ulps of |log det C_cor| + |log det C_mis| + m.
    """
    require_density(law_cor, law_mis)
    diff = law_mis.copula - law_cor.copula
    diff *= law_cor.b_chol @ law_cor.b_chol.T
    root = 1.0 / np.sqrt(law_cor.a_diag)
    trace = float(root @ diff @ root)
    return 0.5 * (law_cor.log_det_copula - law_mis.log_det_copula) + 0.5 * trace


def _log_density_ratio_phi(phi: np.ndarray, law_cor: SamplingLaw, law_mis: SamplingLaw):
    diff = law_mis.copula - law_cor.copula
    quad = np.sum(phi * (phi @ diff), axis=-1)
    return 0.5 * (law_cor.log_det_copula - law_mis.log_det_copula) + 0.5 * quad


def log_density_ratio(h: np.ndarray, law_cor: SamplingLaw, law_mis: SamplingLaw):
    """log f_cor(h) - log f_mis(h) with the phi'phi terms cancelled.

    Accepts (m,) or (n, m); identical laws give exactly zero. Both laws must
    be known-variance laws, the only ones with a joint density.
    """
    require_density(law_cor, law_mis)
    return _log_density_ratio_phi(ndtri(_check_open_unit(h)), law_cor, law_mis)


def kl_known_var(
    truth: TrueProcess,
    spec_cor: ModelSpec,
    spec_mis: ModelSpec,
    n_draws: int = DEFAULT_DRAWS,
    rng=0,
) -> KLEstimate:
    """KL(f_cor || f_mis) of the statistic vector, by Monte Carlo: the test
    oracle for `kl_exact`.

    The draws are the next n_draws of `np.random.default_rng(rng)`: an int
    seed gives a reproducible estimate, and a Generator is advanced.
    """
    check_kl_specs(truth, spec_cor, spec_mis)

    _, y = draw_replications(truth, chol(truth.sigma1.entries), np.random.default_rng(rng),
                             n_draws)
    # Work with phi = Phi^{-1}(h) computed directly from the standardized
    # posterior mean: round-tripping through h loses the tail (h saturates
    # at 1.0 in float64 once phi exceeds ~8.2) and would force exclusions.
    phi = spec_cor.standardized(y)

    interior = np.all(np.isfinite(phi), axis=1)
    n_excluded = int(n_draws - interior.sum())
    if n_excluded > MAX_EXCLUDED_FRACTION * n_draws:
        raise BoundaryError(
            f"{n_excluded} of {n_draws} draws produced boundary statistics"
        )

    law_cor = law_known_var(truth, spec_cor)
    law_mis = law_known_var(truth, spec_mis)
    summands = _log_density_ratio_phi(phi[interior], law_cor, law_mis)
    n_kept = summands.shape[0]
    total = float(summands.mean())
    std_err = float(summands.std(ddof=1) / np.sqrt(n_kept)) if n_kept > 1 else 0.0
    return KLEstimate(
        total=total,
        per_dim=total / truth.m,
        std_err=std_err,
        n_draws=n_kept,
        n_excluded=n_excluded,
    )


def joint_cdf_mc(
    h: np.ndarray, law: SamplingLaw, n_draws: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the joint CDF, with binomial standard error."""
    if not law.known:
        raise ParameterError("joint CDF evaluator applies to the known-variance law")
    h = _check_open_unit(h)
    thresholds = np.sqrt(law.r) * ndtri(h)
    # z ~ N(0, P_b) through the factor D_b^{-1/2} L_B of P_b.
    z = rng.standard_normal((n_draws, law.m)) @ law.b_chol.T
    z /= np.sqrt(law.b_diag)
    hits = np.all(z <= thresholds, axis=1)
    p = float(hits.mean())
    se = float(np.sqrt(p * (1.0 - p) / n_draws))
    return p, se


def xi_sampler_c(law: SamplingLaw, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Rows sqrt((m + 2 alpha) / (z' C z + 2 beta)) * z with z ~ N(0, P_b) drawn
    through P_b's factor D_b^{-1/2} L_B, from one (n_draws, m) block of
    normals: the unknown-variance sampler as the paper writes it, from the
    law's C and L_B as read."""
    z = rng.standard_normal((n_draws, law.m)) @ law.b_chol.T
    z /= np.sqrt(law.b_diag)
    c = law.c
    quad = np.square(z) @ c if c.ndim == 1 else np.sum(z * (z @ c), axis=1)
    return np.sqrt(law.dof / (quad + 2.0 * law.mode.beta))[:, None] * z


def step_up_reference(h: np.ndarray, alpha_star: float) -> DecisionSet:
    """Reject the k smallest h, k the longest prefix of sorted h whose running
    mean is at most alpha_star: the rule of Newton et al. 2004 (Biostatistics
    5:155) and Sun & Cai 2007 (JASA 102:901). `h` is (m,), giving an int k, or
    (n, m), one replication per row, giving an (n,) array of k and (n, m) masks.

    The many-pass form: k counted from an accumulated mask, t a masked max,
    and every row's rejections counted. `fdr.step_up` must give the same k
    and the same masks."""
    if not 0.0 < alpha_star < 1.0:
        raise ParameterError("alpha_star must lie in (0, 1)")
    h = np.asarray(h, dtype=float)
    # One comparison each way also rejects NaN, which fails both.
    if h.size and not (h.min() >= 0.0 and h.max() <= 1.0):
        raise ParameterError("statistics must be finite and lie in [0, 1]")
    rows = np.atleast_2d(h)
    m = rows.shape[1]
    sorted_h = np.sort(rows, axis=1)
    # The running means are formed a block of rows at a time, so that no
    # second (n, m) float array is live next to the sorted scores.
    qualifying = np.empty(rows.shape, dtype=bool)
    prefix_lengths = np.arange(1, m + 1)
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        prefix_means = np.cumsum(sorted_h[block], axis=1)
        prefix_means /= prefix_lengths
        np.less_equal(prefix_means, alpha_star, out=qualifying[block])
    # k ends at the last qualifying prefix: rounding can leave gaps before it.
    k = np.count_nonzero(np.logical_or.accumulate(qualifying[:, ::-1], axis=1), axis=1)
    # The k-th smallest score t (-inf when k = 0): sorted_h ascends, so it is
    # the largest of the first k.
    t = np.max(sorted_h, axis=1, keepdims=True, where=np.arange(m) < k[:, None], initial=-np.inf)
    del sorted_h
    rejected = rows <= t
    # Where scores tied at t straddle the cut, a stable sort would reject the
    # ones of lowest index: drop the `over` tied scores of highest index.
    over = np.count_nonzero(rejected, axis=1) - k
    cut = np.flatnonzero(over)
    tied = rows[cut] == t[cut]
    from_right = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
    rejected[cut] &= ~(tied & (from_right <= over[cut, None]))
    if h.ndim == 1:
        return DecisionSet(rejected[0], int(k[0]))
    return DecisionSet(rejected, k)


def probs(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """h_i = P(theta_i >= theta0_i | y) under `spec`, for (m,) or (n, m) y."""
    return spec.cdf(spec.standardized(y))


def replication_counts(h: np.ndarray, null_mask: np.ndarray, alpha_star: float) -> np.ndarray:
    """(R, V, T) for one replication: rejections, false rejections, true
    alternatives left unrejected. A batch (n, m) gives one row per replication."""
    decision = step_up_reference(h, alpha_star)
    false_rejections = np.count_nonzero(decision.rejected & null_mask, axis=-1)
    missed = np.count_nonzero(~(decision.rejected | null_mask), axis=-1)
    return np.stack((decision.k, false_rejections, missed), axis=-1)


def sweep_rows_per_point(config) -> list[SweepRow]:
    """The rows of a sweep, point by point: each point builds both of its
    specs and both laws, and scores the specs in one `replicate` call on a
    fresh `stream(seed, 0, 0)`."""
    truth = sweep_truth(config, build_cov(config.truth_kernel, config.m, config.grid))
    m, rows = config.m, []
    for value in config.sweep_values:
        point = config.at(float(value))
        mis_cov = build_cov(point.mis_kernel, m, point.grid)
        spec_cor, spec_mis = (sweep_spec(point, cov, point.g) for cov in (truth.sigma1, mis_cov))
        datasets = drawn_datasets(truth, stream(config.root_seed, 0, 0), config.n_reps)
        counts_cor, counts_mis = replicate(truth, [spec_cor, spec_mis], config.alpha_star,
                                           datasets)
        oc_cor, oc_mis = summarize_counts(counts_cor, m), summarize_counts(counts_mis, m)
        kl = kl_laws(law_known_var(truth, spec_cor), law_known_var(truth, spec_mis))
        rows.append(SweepRow(
            sweep_value=float(value),
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
        ))
    return rows
