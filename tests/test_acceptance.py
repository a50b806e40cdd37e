"""End-to-end acceptance checks.

Each test records a single PASS/FAIL line, echoed in the terminal summary.
Criterion 7 is asserted on the full-size grid: at
m = 100 the Monte Carlo noise in fdr_mis (about 0.002 per point) exceeds the
spacing between neighboring range values, so the minimizer is not stable at
that scale, while at m = 900 it is unambiguous.
"""

import dataclasses
import os

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import ks_1samp, ks_2samp, spearmanr

from misfdr.covariance import (
    CovarianceMatrix,
    GridLayout,
    ar2_cov,
    exponential_cov,
    identity_cov,
)
from misfdr.fdr import step_up
from misfdr.posterior import (
    KnownVariance,
    ModelSpec,
    TrueProcess,
    UnknownVariance,
    draw_replications,
)
from misfdr.linalg import chol
from misfdr.rng import stream
from misfdr.sampdist import law_known_var, law_unknown_var, marginal_cdf, xi_sampler, xi_to_h
from misfdr.simulation import builtin_example, run_sweep
from oracles import kl_known_var, probs

RUN_FULL = os.environ.get("MISFDR_RUN_FULL") == "1"

# One verdict line per criterion; echoed by the conftest terminal-summary
# hook so the lines survive pytest's output capture.
VERDICT_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {criterion:2d}: {verdict} - {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def example1_specs(grid: GridLayout, g: float = 1.0, sigma0_sq: float = 0.25):
    sigma1 = exponential_cov(grid, 5.0)
    truth = TrueProcess(np.zeros(grid.m), sigma0_sq, sigma1)
    noise = KnownVariance(sigma0_sq)
    spec_cor = ModelSpec(np.zeros(grid.m), g, sigma1, noise)
    spec_mis = ModelSpec(np.zeros(grid.m), g, identity_cov(grid.m), noise)
    return truth, spec_cor, spec_mis


@pytest.fixture(scope="module")
def desk_sweep1():
    config = builtin_example(1, scale="desk", root_seed=42)
    return config, run_sweep(config)


@pytest.fixture(scope="module")
def full_sweep3():
    config = builtin_example(3, scale="full", root_seed=42)
    return config, run_sweep(config)


def test_criterion_1_example1_ratio_values():
    truth, spec_cor, spec_mis = example1_specs(GridLayout(30, 30))
    law_mis = law_known_var(truth, spec_mis)
    law_cor = law_known_var(truth, spec_cor)
    mis_dev = float(np.abs(law_mis.r - 0.25).max())
    lo, hi = float(law_cor.r.min()), float(law_cor.r.max())
    ok = mis_dev < 1e-10 and 0.115 <= lo and hi <= 0.165
    report(1, ok, f"mis |r - 0.25| max {mis_dev:.2e}; cor r in [{lo:.4f}, {hi:.4f}]")


def test_criterion_2_known_var_marginal_law():
    truth, spec_cor, spec_mis = example1_specs(GridLayout(10, 10))
    n_draws = 10_000
    _, y = draw_replications(truth, chol(truth.sigma1.entries), stream(123), n_draws)
    coords = [0, 17, 44, 77, 99]
    worst = 1.0
    for spec in (spec_cor, spec_mis):
        law = law_known_var(truth, spec)
        h = probs(spec, y)
        for i in coords:
            root_r = np.sqrt(law.r[i])
            # closed-form reference CDF; written via the probit so that the
            # floating-point endpoints h = 0 and h = 1 map to 0 and 1
            pval = ks_1samp(h[:, i], lambda x, rr=root_r: ndtr(rr * ndtri(x))).pvalue
            worst = min(worst, pval)
    ok = worst >= 0.001
    report(2, ok, f"min KS p-value {worst:.4f} over {2 * len(coords)} coordinate/spec pairs")


def test_criterion_3_unknown_var_joint_law():
    grid = GridLayout(5, 5)
    sigma1 = exponential_cov(grid, 5.0)
    truth = TrueProcess(np.zeros(grid.m), 0.25, sigma1)
    # 4e4 draws: the Spearman noise floor at 1e4 draws is itself about 0.04
    # for the weakly dependent misspecified statistics, above the 0.03 bound
    n_draws = 40_000

    ks_min, rho_dev = 1.0, 0.0
    for sigma_spec in (sigma1, identity_cov(grid.m)):
        spec = ModelSpec(np.zeros(grid.m), 1.0, sigma_spec, UnknownVariance(1.0, 1.0))
        _, y = draw_replications(truth, chol(truth.sigma1.entries), stream(42, 0), n_draws)
        h_sim = probs(spec, y)

        law = law_unknown_var(truth, spec)
        xi = xi_sampler(law, n_draws, stream(42, 1))
        h_law = xi_to_h(xi, law)

        ks_min = min(ks_min, min(
            ks_2samp(h_sim[:, i], h_law[:, i]).pvalue for i in range(grid.m)
        ))
        rho_sim = spearmanr(h_sim).statistic
        rho_law = spearmanr(h_law).statistic
        rho_dev = max(rho_dev, float(np.abs(rho_sim - rho_law).max()))
    ok = ks_min >= 0.001 and rho_dev < 0.03
    report(3, ok, f"min KS p-value {ks_min:.4f}; max Spearman deviation {rho_dev:.4f} "
                  f"(correct and misspecified specs)")


def test_criterion_4_fdr_at_truth_desk(desk_sweep1):
    _, rows = desk_sweep1
    row = next(r for r in rows if r.sweep_value == 1.0)
    ok = 0.03 <= row.fdr_cor <= 0.07
    report(4, ok, f"desk fdr_cor at g=1 is {row.fdr_cor:.4f} (se {row.fdr_cor_se:.4f})")


@pytest.mark.skipif(not RUN_FULL, reason="long run; set MISFDR_RUN_FULL=1 to enable")
def test_criterion_4_fdr_at_truth_full():
    from misfdr.fdr import operating_characteristics

    truth, spec_cor, _ = example1_specs(GridLayout(30, 30))
    oc = operating_characteristics(truth, spec_cor, 0.05, n_reps=1000, rng=42)
    ok = 0.04 <= oc.fdr_hat <= 0.06
    report(4, ok, f"full-scale fdr_cor at g=1 is {oc.fdr_hat:.4f} (se {oc.fdr_se:.4f})")


def test_criterion_5_fnr_ordering(desk_sweep1):
    _, rows = desk_sweep1
    margins = []
    for row in rows:
        se = np.hypot(row.fnr_cor_se, row.fnr_mis_se)
        margins.append(row.fnr_mis - (row.fnr_cor - 2 * se))
    worst = float(min(margins))
    ok = worst >= 0.0
    report(5, ok, f"min (fnr_mis - fnr_cor + 2 se) over g grid is {worst:.4f}")


def test_criterion_6_kl_sanity_and_trend(desk_sweep1):
    truth, spec_cor, _ = example1_specs(GridLayout(10, 10))
    exact_zero = kl_known_var(truth, spec_cor, spec_cor, n_draws=200, rng=0)

    _, rows = desk_sweep1
    probe = [r for r in rows if r.sweep_value in (0.1, 1.0, 10.0, 100.0)]
    positive = all(r.kl_per_dim > 5 * r.kl_se for r in probe)
    monotone = all(
        probe[k + 1].kl_per_dim
        <= probe[k].kl_per_dim + 2 * np.hypot(probe[k].kl_se, probe[k + 1].kl_se)
        for k in range(len(probe) - 1)
    )
    smallest = min(r.kl_per_dim for r in probe)
    ok = exact_zero.total == 0.0 and positive and monotone
    report(6, ok, f"identical specs give {exact_zero.total}; min kl_per_dim "
                  f"{smallest:.3g} (se {max(r.kl_se for r in probe)}); "
                  f"non-increasing over g in {{0.1,1,10,100}}: {monotone}")


def test_criterion_7_range_sweep_crossing(full_sweep3):
    _, rows = full_sweep3
    devs = {row.sweep_value: abs(row.fdr_mis - 0.05) for row in rows}
    best = min(devs, key=devs.get)
    fnr_ok = all(
        rows[k + 1].fnr_mis
        <= rows[k].fnr_mis + 2 * np.hypot(rows[k].fnr_mis_se, rows[k + 1].fnr_mis_se)
        for k in range(len(rows) - 1)
    )
    ok = best == 5.0 and fnr_ok
    report(7, ok, f"|fdr_mis - 0.05| minimized at range {best} "
                  f"(dev {devs[best]:.4f}); fnr_mis non-increasing: {fnr_ok}")


def test_criterion_8_copula_matrix_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 51))
        raw1 = rng.standard_normal((m, m))
        raw2 = rng.standard_normal((m, m))
        truth = TrueProcess(
            np.zeros(m), float(rng.uniform(0.1, 2.0)),
            CovarianceMatrix(raw1 @ raw1.T + m * np.eye(m)),
        )
        spec = ModelSpec(
            np.zeros(m), float(rng.uniform(0.1, 10.0)),
            CovarianceMatrix(raw2 @ raw2.T + m * np.eye(m)),
            KnownVariance(truth.sigma0_sq),
        )
        law = law_known_var(truth, spec)
        root_r = np.sqrt(law.r)
        alt = root_r[:, None] * np.linalg.inv(law.p_b) * root_r[None, :]
        rel = np.linalg.norm(law.copula - alt) / np.linalg.norm(alt)
        worst = max(worst, float(rel))
    ok = worst < 1e-8
    report(8, ok, f"max relative Frobenius deviation {worst:.2e} over 50 random pairs")


def test_criterion_9_vague_prior_limits():
    g = 1e8
    grid = GridLayout(5, 5)
    sigma1 = exponential_cov(grid, 5.0)
    truth = TrueProcess(np.zeros(grid.m), 0.25, sigma1)
    target = truth.sigma0_sq / (truth.sigma0_sq + np.diag(sigma1.entries))
    specs = [sigma1, exponential_cov(grid, 1.0), ar2_cov(grid.m, 0.6, 0.3)]

    r_dev = 0.0
    for sigma_spec in specs:
        law = law_known_var(truth, ModelSpec(np.zeros(grid.m), g, sigma_spec,
                                             KnownVariance(0.25)))
        r_dev = max(r_dev, float(np.abs(law.r - target).max()))

    c_max = 0.0
    for sigma_spec in specs:
        law = law_unknown_var(truth, ModelSpec(np.zeros(grid.m), g, sigma_spec,
                                               UnknownVariance(1.0, 1.0)))
        c_max = max(c_max, float(np.abs(law.c).max()))

    ok = r_dev < 1e-5 and c_max < 1e-6
    report(9, ok, f"max |r - limit| {r_dev:.2e}; max |C| {c_max:.2e}")


def test_criterion_10_step_up_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100_000):
        m = int(rng.integers(1, 21))
        h = rng.uniform(0.0, 1.0, m)
        alpha = float(rng.uniform(0.01, 0.5))
        s = np.sort(h)
        running = 0.0
        best = 0
        for k in range(m):
            running += s[k]
            if running / (k + 1) <= alpha:
                best = k + 1
        if step_up(h, alpha).k != best:
            mismatches += 1
    ok = mismatches == 0
    report(10, ok, f"{mismatches} mismatches on 100000 random instances (m <= 20)")


def test_report_example2_both_normalizations():
    """Oscillating-vs-smooth AR(2) study, reported but not asserted.

    The raw oscillating kernel has marginal variance near 7.3 while the
    unit-diagonal version rescales it to 1; both are run at g = 1 and the
    resulting ratios and error rates reported for inspection.
    """
    for normalize in (False, True):
        config = builtin_example(2, scale="desk", root_seed=42)
        config = dataclasses.replace(
            config,
            truth_kernel={**config.truth_kernel, "normalize": normalize},
            mis_kernel={**config.mis_kernel, "normalize": normalize},
            sweep_values=(1.0,),
        )
        row = run_sweep(config)[0]
        sigma1 = ar2_cov(config.m, 1.5, -0.9, normalize=normalize)
        truth = TrueProcess(np.zeros(config.m), 0.25, sigma1)
        law = law_known_var(
            truth, ModelSpec(np.zeros(config.m), 1.0, sigma1, KnownVariance(0.25))
        )
        line = (
            f"example 2 (normalize={normalize}): r in "
            f"[{law.r.min():.4f}, {law.r.max():.4f}], "
            f"fdr_cor {row.fdr_cor:.4f}, fdr_mis {row.fdr_mis:.4f}, "
            f"fnr_cor {row.fnr_cor:.4f}, fnr_mis {row.fnr_mis:.4f}, "
            f"kl_per_dim {row.kl_per_dim:.4f}"
        )
        VERDICT_LINES.append(line)
        print(line, flush=True)
