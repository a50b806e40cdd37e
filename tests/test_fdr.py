import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from misfdr import fdr
from misfdr.covariance import GridLayout, exponential_cov, identity_cov
from misfdr.errors import ParameterError
from misfdr.fdr import (
    drawn_datasets,
    operating_characteristics,
    replicate,
    step_up,
    summarize_counts,
)
from misfdr.posterior import (KnownVariance, ModelSpec, TrueProcess, UnknownVariance,
                              draw_replications)
from misfdr.linalg import chol
from misfdr.rng import stream, streams
from oracles import draw_dataset, probs, replication_counts, step_up_reference

h_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def brute_force_k(h, alpha_star):
    """Largest k such that the mean of the k smallest h is <= alpha_star,
    with exact rational arithmetic."""
    s = sorted(Fraction(x) for x in h)
    alpha = Fraction(alpha_star)
    best = 0
    running = Fraction(0)
    for k, x in enumerate(s, start=1):
        running += x
        if running <= k * alpha:
            best = k
    return best


# Small value sets make ties, all-null rows (k = 0) and all-rejected rows
# (k = m) common.
tied_scores = st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1, 0.5, 1.0])
batch_shapes = st.tuples(st.integers(1, 6), st.integers(1, 12))
score_batches = batch_shapes.flatmap(
    lambda shape: st.tuples(
        arrays(np.float64, shape, elements=tied_scores),
        arrays(np.bool_, shape),
    )
)
tied_batches = arrays(np.float64, batch_shapes, elements=tied_scores)


def near_threshold(h, alpha_star):
    """True when some exact prefix mean sits within float roundoff of
    alpha_star, where the cumsum in the implementation may tip either way."""
    s = sorted(Fraction(x) for x in h)
    alpha = Fraction(alpha_star)
    running = Fraction(0)
    for k, x in enumerate(s, start=1):
        running += x
        if abs(running / k - alpha) < Fraction(1, 10**9):
            return True
    return False


class TestStepUp:
    def test_single_statistic_at_threshold(self):
        out = step_up(np.array([0.05]), 0.05)
        assert out.k == 1
        assert out.rejected.tolist() == [True]

    def test_running_mean_rescues_later_rejections(self):
        # third-smallest statistic exceeds alpha_star but the prefix mean
        # (0.01 + 0.02 + 0.09) / 3 = 0.04 still qualifies
        out = step_up(np.array([0.09, 0.01, 0.8, 0.02]), 0.05)
        assert out.k == 3
        assert out.rejected.tolist() == [True, True, False, True]

    def test_nothing_rejected(self):
        out = step_up(np.array([0.5, 0.9]), 0.05)
        assert out.k == 0
        assert not out.rejected.any()

    def test_everything_rejected(self):
        out = step_up(np.array([0.01, 0.02, 0.03]), 0.05)
        assert out.k == 3

    def test_empty_input_rejects_nothing(self):
        assert step_up(np.array([]), 0.05).k == 0

    @pytest.mark.parametrize("shape", [(3, 0), (0, 4)])
    def test_empty_batch_rejects_nothing(self, shape):
        out = step_up(np.zeros(shape), 0.05)
        assert out.k.shape == (shape[0],) and not out.k.any()
        assert out.rejected.shape == shape and not out.rejected.any()

    def test_ties_at_the_cut_go_to_the_lower_index(self):
        # sorted: 0.01, 0.04, 0.04, 0.04, 0.5; prefix means 0.01, 0.025, 0.03,
        # 0.0325, 0.126, so at 0.031 k = 3 takes two of the three tied 0.04
        # scores: those at indices 1 and 3, not 4
        h = np.array([0.5, 0.04, 0.01, 0.04, 0.04])
        out = step_up(h, 0.031)
        assert out.k == 3
        assert out.rejected.tolist() == [False, True, True, True, False]
        batch = step_up(np.stack([h, h[::-1]]), 0.031)
        assert batch.k.tolist() == [3, 3]
        assert batch.rejected.tolist() == [
            [False, True, True, True, False], [True, True, True, False, False]
        ]

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            step_up(np.array([0.5]), 0.0)
        with pytest.raises(ParameterError):
            step_up(np.array([1.5]), 0.05)

    @pytest.mark.parametrize("h", [0.01, np.full((2, 2, 2), 0.01)], ids=["0-d", "3-d"])
    def test_wrong_dimension_rejected(self, h):
        with pytest.raises(ParameterError, match=r"\(m,\) or \(n, m\) array, not [03]-d"):
            step_up(h, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            step_up(np.array([0.01, bad, 0.02]), 0.05)

    @given(h=h_vectors, alpha=st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, h, alpha):
        # exclude prefix means within roundoff of the threshold, where a
        # float cumsum may legitimately land on either side
        assume(not near_threshold(h, alpha))
        out = step_up(h, alpha)
        assert out.k == brute_force_k(h, alpha)
        assert int(out.rejected.sum()) == out.k

    @given(h=h_vectors, alpha=st.floats(min_value=0.01, max_value=0.5), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, h, alpha, seed):
        perm = np.random.default_rng(seed).permutation(h.size)
        base = step_up(h, alpha)
        shuffled = step_up(h[perm], alpha)
        assert shuffled.k == base.k
        # the rejected set itself is permutation-equivariant only when no
        # tie straddles the cut
        if np.unique(h).size == h.size:
            np.testing.assert_array_equal(shuffled.rejected, base.rejected[perm])

    @given(h=h_vectors)
    @settings(max_examples=100, deadline=None)
    def test_rejections_monotone_in_alpha(self, h):
        ks = [step_up(h, a).k for a in (0.01, 0.05, 0.1, 0.3)]
        assert ks == sorted(ks)

    @given(h=h_vectors, alpha=st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_rejects_exactly_the_smallest(self, h, alpha):
        out = step_up(h, alpha)
        if 0 < out.k < h.size:
            assert h[out.rejected].max() <= h[~out.rejected].min()


class TestBatchedStepUp:
    @given(batch=score_batches, alpha=st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_brute_force(self, batch, alpha):
        h, nulls = batch
        decision = step_up(h, alpha)
        counts = replication_counts(h, nulls, alpha)
        assert counts.shape == (h.shape[0], 3)
        for i, row in enumerate(h):
            if near_threshold(row, alpha):
                continue
            k = brute_force_k(row, alpha)
            # ties at the cut go to the lower index, as with a stable sort
            rejected = np.zeros(row.size, dtype=bool)
            rejected[sorted(range(row.size), key=lambda j: (row[j], j))[:k]] = True
            assert decision.k[i] == k
            np.testing.assert_array_equal(decision.rejected[i], rejected)
            v = int(np.sum(rejected & nulls[i]))
            t = int(np.sum(~rejected & ~nulls[i]))
            assert counts[i].tolist() == [k, v, t]

    def test_batch_spanning_mean_blocks_matches_rows(self):
        # Rows of a batch larger than the blocks `replicate` hands over decide
        # exactly as each row alone.
        rng = np.random.default_rng(11)
        h = rng.beta(0.3, 1.0, size=(2 * fdr._BLOCK_ROWS + 37, 40))
        h[::7, :5] = 0.04
        batch = step_up(h, 0.05)
        for i, row in enumerate(h):
            single = step_up(row, 0.05)
            assert batch.k[i] == single.k
            np.testing.assert_array_equal(batch.rejected[i], single.rejected)

    @given(h=tied_batches, alpha=st.floats(0.001, 0.999), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_k_invariant_under_permutation(self, h, alpha, seed):
        shuffled = np.random.default_rng(seed).permuted(h, axis=1)
        np.testing.assert_array_equal(step_up(shuffled, alpha).k, step_up(h, alpha).k)

    @given(h=tied_batches, alphas=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_k_non_decreasing_in_alpha(self, h, alphas):
        ks = np.array([step_up(h, a).k for a in sorted(alphas)])
        assert np.all(np.diff(ks, axis=0) >= 0)


def assert_same_decisions(h, alpha):
    new, old = step_up(h, alpha), step_up_reference(h, alpha)
    assert type(new.k) is type(old.k)
    np.testing.assert_array_equal(new.k, old.k)
    assert new.rejected.shape == old.rejected.shape
    np.testing.assert_array_equal(new.rejected, old.rejected)


def ulps_from(value, steps):
    """`value` moved by `steps` representable doubles."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = np.nextafter(value, toward)
    return float(value)


tied_vectors = arrays(np.float64, st.integers(1, 40), elements=tied_scores)
unit_alphas = st.floats(0.001, 0.999)


class TestStepUpMatchesReference:
    """`step_up` finds k by one argmax and t by a gather, and counts rejections
    only in rows whose cut splits a tie; `oracles.step_up_reference` is the
    many-pass form it replaced. Every k and every mask must be the same."""

    @given(h=tied_vectors, alpha=unit_alphas)
    @settings(max_examples=200, deadline=None)
    def test_tied_vectors(self, h, alpha):
        assert_same_decisions(h, alpha)

    @given(h=tied_batches, alpha=unit_alphas)
    @settings(max_examples=200, deadline=None)
    def test_tied_batches(self, h, alpha):
        assert_same_decisions(h, alpha)

    @given(h=h_vectors, data=st.data(), steps=st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    def test_prefix_mean_within_ulps_of_alpha(self, h, data, steps):
        # alpha is the float running mean of some prefix, moved a few ulps,
        # where the comparison in the cumsum can tip either way.
        k = data.draw(st.integers(1, h.size))
        prefix_mean = np.cumsum(np.sort(h))[k - 1] / k
        alpha = ulps_from(prefix_mean, steps)
        assume(0.0 < alpha < 1.0)
        assert near_threshold(h, alpha)
        assert_same_decisions(h, alpha)
        assert_same_decisions(np.stack([h, h[::-1], np.sort(h)]), alpha)

    @given(h=tied_batches, alpha=st.floats(0.01, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_nothing_and_everything_rejected(self, h, alpha):
        # Scores in (alpha, 1], and scores whose running means stay well
        # below alpha whatever the rounding.
        above = np.minimum(alpha + (1.0 - alpha) * (0.5 + 0.5 * h), 1.0)
        below = 0.5 * alpha * h
        assert not step_up(above, alpha).k.any()
        assert np.all(step_up(below, alpha).k == h.shape[1])
        assert_same_decisions(above, alpha)
        assert_same_decisions(below, alpha)
        assert_same_decisions(np.concatenate([above, below]), alpha)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (4, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        assert_same_decisions(np.zeros(shape), 0.05)

    def test_batch_spanning_row_blocks(self):
        rng = np.random.default_rng(29)
        n = 2 * fdr._BLOCK_ROWS + 37
        h = rng.choice([0.0, 0.01, 0.03, 0.04, 0.05, 0.2, 1.0], size=(n, 30))
        h[::5] = rng.beta(0.3, 1.0, size=h[::5].shape)
        for alpha in (0.001, 0.031, 0.05, 0.3):
            assert_same_decisions(h, alpha)

    @pytest.mark.parametrize(
        "h, alpha",
        [
            ([0.01, np.nan, 0.02], 0.05),
            ([[0.01, 0.2], [np.nan, np.nan]], 0.05),
            ([[0.01, 0.2], [0.3, np.inf]], 0.05),
            ([-np.inf, 0.2], 0.05),
            ([0.5, 1.5], 0.05),
            ([[0.5, 0.1], [-1e-300, 0.2]], 0.05),
            ([0.5], 0.0),
            ([0.5], 1.0),
            ([0.5], np.nan),
            ([], -0.5),
        ],
    )
    def test_bad_input_raises_as_before(self, h, alpha):
        with pytest.raises(ParameterError) as new:
            step_up(np.array(h), alpha)
        with pytest.raises(ParameterError) as old:
            step_up_reference(np.array(h), alpha)
        assert str(new.value) == str(old.value)


def noise_cdf(kind: str, m: int):
    """The posterior CDF of an m-dimensional spec: ndtr under known variance,
    Student t with m + 4 degrees of freedom under IG(2, 0.5)."""
    noise = KnownVariance(0.25) if kind == "known" else UnknownVariance(2.0, 0.5)
    return ModelSpec(np.zeros(m), 1.0, identity_cov(m), noise).cdf


def unit_cdf(x, out=None):
    """h = x on [0, 1]: lets a test set the sorted h of a row directly."""
    return np.clip(x, 0.0, 1.0, out=out)


def assert_decides_as_reference(z, alpha, cdf, nulls=None):
    """`_decide` on scores z and public `step_up` on h = cdf(z) give the k and
    masks of `oracles.step_up_reference`, and the (R, V, T) of
    `oracles.replication_counts`."""
    h = cdf(z)
    old = step_up_reference(h, alpha)
    for new in (fdr._decide(z, alpha, cdf), step_up(h, alpha)):
        np.testing.assert_array_equal(new.k, old.k)
        np.testing.assert_array_equal(new.rejected, old.rejected)
    if nulls is not None:
        new = fdr._decide(z, alpha, cdf)
        counts = np.stack([new.k, np.count_nonzero(new.rejected & nulls, axis=1),
                           np.count_nonzero(~(new.rejected | nulls), axis=1)], axis=1)
        np.testing.assert_array_equal(counts, replication_counts(h, nulls, alpha))


noise_kinds = pytest.mark.parametrize("kind", ["known", "unknown"])
# Rows wider than fdr._STEP, so that most rows take more than one pass.
wide_batches = st.tuples(st.integers(1, 8), st.integers(1, 300))


class TestDecideFromScores:
    """`replicate` decides each row from its standardized scores, applying the
    posterior CDF only to the sorted prefix the step-up rule reads
    (`fdr._decide`). Its k, masks and (R, V, T) must be those of the scores
    h = cdf(z) under `oracles.step_up_reference`."""

    @noise_kinds
    @pytest.mark.parametrize("seed", range(3))
    def test_replicate_counts_match_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        grid = GridLayout(6, 7)
        sigma1 = exponential_cov(grid, float(rng.uniform(1.0, 8.0)))
        truth = TrueProcess(np.zeros(grid.m), 0.25, sigma1)
        noise = KnownVariance(0.25) if kind == "known" else UnknownVariance(2.0, 0.5)
        g = float(10.0 ** rng.uniform(-1.0, 1.0))
        specs = [ModelSpec(np.zeros(grid.m), g, cov, noise)
                 for cov in (sigma1, identity_cov(grid.m))]
        alpha = float(rng.choice([0.01, 0.05, 0.2]))
        # One block of rows: the draws and scores are those of one batch.
        n = fdr._BLOCK_ROWS
        counts = replicate(truth, specs, alpha, drawn_datasets(truth, stream(seed, 3), n))
        nulls, resid = draw_replications(truth, chol(sigma1.entries), stream(seed, 3), n)
        for spec, got in zip(specs, counts):
            z = spec.standardized_residual(resid)
            np.testing.assert_array_equal(got, replication_counts(spec.cdf(z), nulls, alpha))
            assert_decides_as_reference(z, alpha, spec.cdf, nulls)

    @noise_kinds
    @given(shape=wide_batches, data=st.data(), alpha=st.sampled_from([0.02, 0.05, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, kind, shape, data, alpha):
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-4.0, 1.0)
        nulls = rng.random(shape) < 0.5
        assert_decides_as_reference(z, alpha, noise_cdf(kind, shape[1]), nulls)

    @noise_kinds
    @given(shape=wide_batches, seed=st.integers(0, 2**16), alpha=unit_alphas)
    @settings(max_examples=40, deadline=None)
    def test_exact_score_ties(self, kind, shape, seed, alpha):
        z = np.random.default_rng(seed).choice([-3.0, -2.0, -1.5, -1.0, 0.0, 2.0], size=shape)
        assert_decides_as_reference(z, alpha, noise_cdf(kind, shape[1]))

    @noise_kinds
    @given(shape=wide_batches, seed=st.integers(0, 2**16), alpha=unit_alphas)
    @settings(max_examples=40, deadline=None)
    def test_distinct_scores_that_round_to_one_h(self, kind, shape, seed, alpha):
        # ndtr(z) is exactly 0.0 below z = -38.5 and 1.0 above 8.3; a t CDF
        # with at least 5 degrees of freedom is 0.0 and 1.0 at |z| = 1e200.
        saturated = {"known": [-45.0, -41.0, -40.0, -39.0, 9.0, 20.0],
                     "unknown": [-1e300, -1e250, -1e200, 1e200, 1e250, 1e300]}[kind]
        rng = np.random.default_rng(seed)
        z = rng.choice([*saturated, -1.0, 0.5], size=shape)
        cdf = noise_cdf(kind, shape[1])
        assert set(np.unique(cdf(np.array(saturated)))) == {0.0, 1.0}
        assert_decides_as_reference(z, alpha, cdf)

    @noise_kinds
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 300])
    def test_rows_rejecting_nothing_and_everything(self, kind, m):
        rng = np.random.default_rng(m)
        nothing = rng.uniform(1.0, 3.0, size=(3, m))
        everything = rng.uniform(-9.0, -6.0, size=(3, m))
        z = np.concatenate([nothing, everything])
        cdf = noise_cdf(kind, m)
        decision = fdr._decide(z, 0.05, cdf)
        assert decision.k.tolist() == [0] * 3 + [m] * 3
        assert_decides_as_reference(z, 0.05, cdf, rng.random(z.shape) < 0.5)

    @pytest.mark.parametrize("value", [0.1, 0.3, 0.05])
    def test_running_means_that_straddle_alpha(self, value):
        # Float running means of a constant row fall on both sides of it, far
        # past the first pass: the last qualifying prefix is found all the same.
        row = np.full(500, value)
        means = np.cumsum(row) / np.arange(1, 501)
        assert np.any(means[fdr._STEP:] > value) and np.any(means[fdr._STEP:] <= value)
        z = np.stack([row, row[::-1], np.concatenate([np.zeros(20), row[20:]])])
        assert_decides_as_reference(z, value, unit_cdf)

    @given(h=tied_vectors, data=st.data(), steps=st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_prefix_mean_within_ulps_of_alpha(self, h, data, steps):
        # As for public step_up, through the lazy path of `_decide`, with the
        # row repeated so that its prefixes reach past the first pass.
        h = np.tile(h, 8)
        k = data.draw(st.integers(1, h.size))
        alpha = ulps_from(np.cumsum(np.sort(h))[k - 1] / k, steps)
        assume(0.0 < alpha < 1.0)
        assert_decides_as_reference(np.stack([h, h[::-1]]), alpha, unit_cdf)

    @noise_kinds
    @pytest.mark.parametrize("bad", [np.nan, -np.nan])
    def test_nan_score_raises(self, kind, bad):
        z = np.zeros((3, 80))
        z[1, 40] = bad
        with pytest.raises(ParameterError, match="finite"):
            fdr._decide(z, 0.05, noise_cdf(kind, 80))

    def test_infinite_scores_are_extreme_h(self):
        z = np.array([[-np.inf, 0.0, np.inf, -2.0]])
        assert_decides_as_reference(z, 0.2, noise_cdf("known", 4))

    @noise_kinds
    def test_cdf_reaches_only_the_prefix(self, kind):
        # Rows that reject a few scores leave most of each row unevaluated.
        m = 900
        z = np.random.default_rng(4).standard_normal((20, m)) + 2.5
        cdf = noise_cdf(kind, m)
        seen = []

        def counting(x, out=None):
            seen.append(np.size(x))
            return cdf(x, out=out)

        decision = fdr._decide(z, 0.05, counting)
        assert decision.k.max() < 64
        assert sum(seen) < z.size / 4
        assert_decides_as_reference(z, 0.05, cdf)


class TestDrawnDatasets:
    def test_boundary_counts_as_null(self, monkeypatch):
        # H0i is theta_i >= the truth's theta0_i: a factor of Sigma_1 with a
        # zero row puts theta_1 on the bound in every draw, and it is null
        # there; theta_0 and theta_2 fall on either side.
        truth = TrueProcess(np.array([0.5, -2.0, 3.0]), 0.25, identity_cov(3))
        monkeypatch.setattr(fdr, "chol", lambda a: np.diag([1.0, 0.0, 1.0]))
        ((_, null),) = drawn_datasets(truth, stream(0), 50)
        assert null[:, 1].all()
        assert 0 < np.count_nonzero(null[:, 0]) < 50 and 0 < np.count_nonzero(null[:, 2]) < 50

    def test_blocks_own_their_residuals(self):
        # Each block owns its residuals, C-contiguous and not a view of the
        # (rows, 2m) normals they were drawn from, so a kept list of the
        # blocks holds n m floats and n m bools.
        truth = TrueProcess(np.zeros(25), 0.25, exponential_cov(GridLayout(5, 5), 5.0))
        n, m = fdr._BLOCK_ROWS + 37, truth.m
        tracemalloc.start()
        try:
            kept = list(drawn_datasets(truth, stream(2), n))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [len(resid) for resid, _ in kept] == [fdr._BLOCK_ROWS, 37]
        for resid, null in kept:
            owner = resid if resid.base is None else resid.base
            assert resid.flags.c_contiguous and null.flags.owndata
            assert owner.nbytes == resid.nbytes == len(resid) * m * 8
        assert n * m * 9 <= held < n * m * 9 + 4096


class TestReplicationCounts:
    def test_hand_computed(self):
        h = np.array([0.01, 0.02, 0.9, 0.95])
        nulls = np.array([True, False, False, True])
        r, v, t = replication_counts(h, nulls, 0.05)
        assert (r, v, t) == (2, 1, 1)

    def test_summary_of_two_reps(self):
        counts = np.array([[2, 1, 1], [0, 0, 2]])
        oc = summarize_counts(counts, m=4)
        # fdp: 1/2 and 0/1 -> mean 0.25; fnp: 1/2 and 2/4 -> mean 0.5
        assert oc.fdr_hat == pytest.approx(0.25)
        assert oc.fnr_hat == pytest.approx(0.5)


class TestOperatingCharacteristics:
    def setup_method(self):
        grid = GridLayout(5, 5)
        sigma1 = exponential_cov(grid, 5.0)
        self.truth = TrueProcess(np.zeros(grid.m), 0.25, sigma1)
        self.spec = ModelSpec(np.zeros(grid.m), 1.0, sigma1, KnownVariance(0.25))

    def test_vanishing_alpha_rejects_nothing(self):
        # the statistics never get anywhere near 1e-300, so no prefix
        # mean can qualify
        oc = operating_characteristics(self.truth, self.spec, 1e-300, n_reps=20, rng=0)
        assert oc.fdr_hat == 0.0
        assert oc.fnr_hat > 0.0
        datasets = drawn_datasets(self.truth, np.random.default_rng(0), 20)
        (counts,) = replicate(self.truth, [self.spec], 1e-300, datasets)
        assert not counts[:, 0].any()

    def test_reproducible(self):
        a = operating_characteristics(self.truth, self.spec, 0.05, n_reps=50, rng=3)
        b = operating_characteristics(self.truth, self.spec, 0.05, n_reps=50, rng=3)
        assert a == b

    def test_equals_replicate_on_the_same_streams(self):
        oc = operating_characteristics(self.truth, self.spec, 0.05, n_reps=30, rng=stream(8, 0, 1))
        (counts,) = replicate(self.truth, [self.spec], 0.05,
                              drawn_datasets(self.truth, stream(8, 0, 1), 30))
        assert oc == summarize_counts(counts, self.truth.m)

    def test_no_reps_rejected(self):
        with pytest.raises(ParameterError, match="n_reps must be at least 1"):
            operating_characteristics(self.truth, self.spec, 0.05, n_reps=0, rng=0)

    @pytest.mark.parametrize("n_reps", [2.5, 3.0, "3"])
    def test_non_integer_reps_rejected(self, n_reps):
        with pytest.raises(ParameterError, match=f"n_reps must be an integer, not {n_reps!r}"):
            operating_characteristics(self.truth, self.spec, 0.05, n_reps=n_reps, rng=0)

    def test_numpy_integer_reps_accepted(self):
        oc = operating_characteristics(self.truth, self.spec, 0.05, n_reps=np.int32(30), rng=2)
        assert oc == operating_characteristics(self.truth, self.spec, 0.05, n_reps=30, rng=2)

    def test_fdr_near_nominal_under_correct_spec(self):
        oc = operating_characteristics(self.truth, self.spec, 0.05, n_reps=400, rng=42)
        assert 0.0 < oc.fdr_hat < 0.10


class TestRowBlocks:
    """`replicate` draws, scores and decides `_BLOCK_ROWS` replications at a
    time; these pin the seams between blocks and the bound on its memory."""

    n = 2 * fdr._BLOCK_ROWS + 37

    @staticmethod
    def diagonal_pair():
        # Identity truth and diagonal spec: every step is elementwise, so any
        # split of the rows into blocks gives exactly the same scores.
        truth = TrueProcess(np.zeros(25), 0.25, identity_cov(25))
        spec = ModelSpec(np.zeros(25), 1.0, identity_cov(25), KnownVariance(0.25))
        return truth, spec

    def test_diagonal_spec_matches_single_replications(self):
        truth, spec = self.diagonal_pair()
        (counts,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(3, 0, 1), self.n))
        twin = stream(3, 0, 1)
        expected = []
        for _ in range(self.n):
            theta, y = draw_dataset(truth, twin)
            null = theta >= truth.theta0
            expected.append(replication_counts(probs(spec, y), null, 0.05))
        np.testing.assert_array_equal(counts, expected)

    def test_counts_do_not_depend_on_block_rows(self, monkeypatch):
        truth, spec = self.diagonal_pair()
        (default,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(6), self.n))
        monkeypatch.setattr(fdr, "_BLOCK_ROWS", 7)
        (small,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(6), self.n))
        np.testing.assert_array_equal(small, default)

    def test_more_replications_keep_the_earlier_rows(self):
        truth, spec = self.diagonal_pair()
        (fewer,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(7, 0, 2), self.n))
        more_datasets = drawn_datasets(truth, stream(7, 0, 2), self.n + 37)
        (more,) = replicate(truth, [spec], 0.05, more_datasets)
        np.testing.assert_array_equal(more[: self.n], fewer)

    def test_dense_spec_matches_one_whole_batch(self):
        # A gemm row can move by an ulp with the number of rows in the call,
        # so scores agree to a tolerance; the counts at this seed are equal.
        sigma1 = exponential_cov(GridLayout(5, 5), 5.0)
        truth = TrueProcess(np.zeros(25), 0.25, sigma1)
        spec = ModelSpec(np.zeros(25), 1.0, sigma1, KnownVariance(0.25))
        null, resid = draw_replications(truth, chol(sigma1.entries), stream(4), self.n)
        whole = probs(spec, resid)
        expected = replication_counts(whole, null, 0.05)
        (counts,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(4), self.n))
        np.testing.assert_array_equal(counts, expected)
        gen = stream(4)
        for start in range(0, self.n, fdr._BLOCK_ROWS):
            rows = slice(start, start + fdr._BLOCK_ROWS)
            _, resid_rows = draw_replications(truth, chol(sigma1.entries), gen, len(whole[rows]))
            np.testing.assert_allclose(probs(spec, resid_rows), whole[rows], rtol=1e-12)

    def test_draws_factor_sigma1_once(self, monkeypatch):
        # The draws factor Sigma_1 once for all three blocks; the truth and the
        # spec own every other factor the replications read.
        truth = TrueProcess(np.zeros(25), 0.25, exponential_cov(GridLayout(5, 5), 5.0))
        spec = ModelSpec(np.zeros(25), 1.0, identity_cov(25), KnownVariance(0.25))
        factored = []
        for name, module in list(sys.modules.items()):
            if name.startswith("misfdr") and hasattr(module, "chol"):
                monkeypatch.setattr(module, "chol", lambda a, _chol=module.chol, **kw:
                                    factored.append(a.copy()) or _chol(a, **kw))
        (counts,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(8), self.n))
        assert counts.shape == (self.n, 3)
        assert len(factored) == 1
        np.testing.assert_array_equal(factored[0], truth.sigma1.entries)

    def test_kept_datasets_score_as_drawn(self):
        # Three blocks, the last partial: the kept blocks are the drawn ones.
        sigma1 = exponential_cov(GridLayout(5, 5), 5.0)
        truth = TrueProcess(np.zeros(25), 0.25, sigma1)
        specs = [ModelSpec(np.zeros(25), 1.0, cov, KnownVariance(0.25))
                 for cov in (sigma1, identity_cov(25))]
        kept = list(drawn_datasets(truth, stream(9), self.n))
        assert [len(resid) for resid, _ in kept] == [fdr._BLOCK_ROWS, fdr._BLOCK_ROWS, 37]
        drawn = drawn_datasets(truth, stream(9), self.n)
        for got, expected in zip(replicate(truth, specs, 0.05, kept),
                                 replicate(truth, specs, 0.05, drawn)):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kept", [False, True], ids=["drawn", "kept"])
    def test_another_prior_mean_refused_before_any_draw(self, monkeypatch, kept):
        # One null mask, against the truth's theta0, serves every spec: a
        # spec centred elsewhere is refused before a row is drawn.
        truth, spec = self.diagonal_pair()
        blocks = list(drawn_datasets(truth, stream(9), 40))
        drawn, draw = [], fdr.draw_replications
        monkeypatch.setattr(fdr, "draw_replications",
                            lambda *args: drawn.append(args[-1]) or draw(*args))
        datasets = blocks if kept else drawn_datasets(truth, stream(9), 40)
        other = ModelSpec(np.full(25, 0.5), 1.0, identity_cov(25), KnownVariance(0.25))
        with pytest.raises(ParameterError, match="prior mean"):
            replicate(truth, [spec, other], 0.05, datasets)
        assert drawn == []
        # The count is live: the spec with the truth's prior mean draws.
        (counts,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(9), 40))
        assert drawn == [40] and counts.shape == (40, 3)

    @noise_kinds
    def test_counts_do_not_depend_on_the_prior_mean(self, kind):
        # The draws never add theta0: the null masks and residuals, and so
        # the counts, of a truth and specs at theta0 = 3.7 are those at
        # theta0 = 0, bit for bit, on one stream.
        sigma1 = exponential_cov(GridLayout(5, 5), 5.0)
        noise = KnownVariance(0.25) if kind == "known" else UnknownVariance(2.0, 0.5)
        blocks, counts, ocs = [], [], []
        for level in (0.0, 3.7):
            theta0 = np.full(25, level)
            truth = TrueProcess(theta0, 0.25, sigma1)
            specs = [ModelSpec(theta0, 1.0, cov, noise) for cov in (sigma1, identity_cov(25))]
            blocks.append(list(drawn_datasets(truth, stream(12), self.n)))
            counts.append(replicate(truth, specs, 0.05, blocks[-1]))
            ocs.append(operating_characteristics(truth, specs[0], 0.05, self.n, stream(12)))
        for at_zero, shifted in zip(*blocks):
            for a, b in zip(at_zero, shifted):
                np.testing.assert_array_equal(b, a)
        for at_zero, shifted in zip(*counts):
            np.testing.assert_array_equal(shifted, at_zero)
        assert ocs[0] == ocs[1]

    @pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
    def test_peak_memory_below_one_batch(self, diagonal):
        grid = GridLayout(10, 10)
        sigma1 = exponential_cov(grid, 5.0)
        truth = TrueProcess(np.zeros(grid.m), 0.25, sigma1)
        cov = identity_cov(grid.m) if diagonal else sigma1
        spec = ModelSpec(np.zeros(grid.m), 1.0, cov, KnownVariance(0.25))
        n_reps = 20_000
        tracemalloc.start()
        try:
            operating_characteristics(truth, spec, 0.05, n_reps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_reps * grid.m * np.dtype(float).itemsize


class TestSeeding:
    def test_one_spawn_scheme(self):
        # streams, numpy's spawn of the parent seed sequence and the addressed
        # child streams all give the same draws
        children = np.random.SeedSequence(5, spawn_key=(0, 2)).spawn(3)
        draws = [
            [g.standard_normal(4) for g in gens]
            for gens in (
                streams(5, 3, 0, 2),
                [np.random.default_rng(s) for s in children],
                [stream(5, 0, 2, r) for r in range(3)],
            )
        ]
        for other in draws[1:]:
            np.testing.assert_array_equal(draws[0], other)

    def test_successive_calls_continue_one_generator(self):
        # A Generator passed in is drawn from, not spawned from: two calls on
        # one Generator see the replications of one longer call.
        truth = TrueProcess(np.zeros(16), 0.25, identity_cov(16))
        spec = ModelSpec(np.zeros(16), 1.0, identity_cov(16), KnownVariance(0.25))
        gen = stream(5, 1)
        first = operating_characteristics(truth, spec, 0.05, n_reps=40, rng=gen)
        second = operating_characteristics(truth, spec, 0.05, n_reps=30, rng=gen)
        (counts,) = replicate(truth, [spec], 0.05, drawn_datasets(truth, stream(5, 1), 70))
        assert first == summarize_counts(counts[:40], truth.m)
        assert second == summarize_counts(counts[40:], truth.m)
