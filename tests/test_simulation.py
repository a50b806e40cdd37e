import gc
import sys
import tracemalloc
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest

from misfdr import covariance, fdr, posterior, simulation
from misfdr.covariance import GridLayout, ar2_cov
from misfdr.divergence import kl_exact
from misfdr.errors import NotPositiveDefiniteError, ParameterError
from misfdr.posterior import ModelSpec
from misfdr.sampdist import SamplingLaw
from misfdr.simulation import (
    DEFAULT_G_GRID,
    DEFAULT_RHO_GRID,
    KERNELS,
    SWEEP_COLUMNS,
    SWEEP_KEYS,
    ExperimentConfig,
    build_cov,
    builtin_example,
    config_from_mapping,
    paired_specs,
    parse_config_text,
    run_sweep,
    write_csv,
)
from oracles import sweep_rows_per_point


def tiny_config(**overrides):
    base = dict(
        label="tiny",
        m=25,
        sigma0_sq=0.25,
        g=1.0,
        truth_kernel={"kind": "exponential", "range": 5.0},
        mis_kernel={"kind": "identity"},
        sweep_variable="g",
        sweep_values=(0.1, 1.0),
        alpha_star=0.05,
        n_reps=40,
        root_seed=0,
        grid=GridLayout(5, 5),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_bad_sweep_variable(self):
        with pytest.raises(ParameterError, match="sweep.variable"):
            tiny_config(sweep_variable="sigma")

    def test_empty_sweep(self):
        with pytest.raises(ParameterError, match="nonempty"):
            tiny_config(sweep_values=())

    @pytest.mark.parametrize("n_reps, message", [
        (0, "at least 1"), (-1, "at least 1"), (2.5, "an integer, not 2.5"),
    ], ids=["0", "-1", "2.5"])
    def test_no_reps(self, n_reps, message):
        with pytest.raises(ParameterError, match=f"n_reps must be {message}$"):
            tiny_config(n_reps=n_reps)

    @pytest.mark.parametrize("alpha_star", [0.0, 1.0, 1.5, -0.05])
    def test_alpha_star_outside_unit_interval(self, alpha_star):
        with pytest.raises(ParameterError, match=r"alpha_star must lie in \(0, 1\)"):
            tiny_config(alpha_star=alpha_star)

    @pytest.mark.parametrize("overrides, key", [
        (dict(sweep_values=(1.0, -1.0)), "g"),
        (dict(sweep_values=(0.0,)), "g"),
        (dict(sweep_variable="rho", sweep_values=(5.0, -2.0),
              mis_kernel={"kind": "exponential", "range": 5.0}), "mis.range"),
        (dict(sweep_variable="rho", sweep_values=(5.0,), g=0.0,
              mis_kernel={"kind": "exponential", "range": 5.0}), "g"),
        (dict(sigma0_sq=0.0), "sigma0_sq"),
        (dict(sigma0_sq=-0.25), "sigma0_sq"),
    ])
    def test_non_positive_parameter(self, overrides, key):
        with pytest.raises(ParameterError, match=f"{key} must be positive and finite"):
            tiny_config(**overrides)

    def test_swept_g_replaces_the_configs_own(self):
        # A g sweep never reads the config's own g: each point sets it.
        assert tiny_config(g=-1.0).at(0.1).g == 0.1

    def test_at_sets_the_swept_key(self):
        assert tiny_config().at(3.0) == tiny_config(g=3.0, sweep_values=(3.0,))
        ranged = tiny_config(**RANGE_SWEEP).at(7.0)
        assert ranged.mis_kernel == {"kind": "exponential", "range": 7.0}
        assert (ranged.g, ranged.sweep_values) == (1.0, (7.0,))

    def test_grid_mismatch(self):
        with pytest.raises(ParameterError, match="grid size"):
            tiny_config(grid=GridLayout(2, 2))

    @pytest.mark.parametrize(
        "kernel", [{"kind": "identity"}, {"kind": "ar2", "rho1": 0.6, "rho2": 0.3}]
    )
    def test_range_sweep_needs_an_exponential_mis_kernel(self, kernel):
        # Only the exponential kernel has a range for the sweep to vary.
        with pytest.raises(ParameterError, match="mis.kernel must be exponential"):
            tiny_config(sweep_variable="rho", mis_kernel=kernel)
        tiny_config(sweep_variable="rho", mis_kernel={"kind": "exponential", "range": 1.0})


class TestBuildCov:
    def test_exponential_requires_grid(self):
        with pytest.raises(ParameterError, match="grid"):
            build_cov({"kind": "exponential", "range": 5.0}, 25, None)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="kernel kind"):
            build_cov({"kind": "matern"}, 25, None)

    def test_ar2_dispatch(self):
        cov = build_cov({"kind": "ar2", "rho1": 0.6, "rho2": 0.3}, 10, None)
        assert cov.dim == 10

    @pytest.mark.parametrize("kernel, missing", [
        ({"kind": "exponential"}, "range"),
        ({"kind": "ar2", "rho1": None, "rho2": 0.3}, "rho1"),
        ({"kind": "ar2", "rho2": 0.3}, "rho1"),
        ({"kind": "ar2"}, "rho1, rho2"),
    ])
    def test_missing_required_key(self, kernel, missing):
        with pytest.raises(ParameterError, match=f"{kernel['kind']} kernel requires {missing}$"):
            build_cov(kernel, 25, GridLayout(5, 5))

    def test_optional_key_takes_the_table_default(self):
        # ar2's normalize defaults to False, the raw Yule-Walker autocovariance.
        _, _, keys = KERNELS["ar2"]
        assert keys["normalize"] == (simulation._boolean, False)
        plain = build_cov({"kind": "ar2", "rho1": 0.6, "rho2": 0.3}, 10, None)
        raw = build_cov({"kind": "ar2", "rho1": 0.6, "rho2": 0.3, "normalize": False}, 10, None)
        assert np.array_equal(plain.entries, raw.entries)
        assert np.array_equal(plain.entries, ar2_cov(10, 0.6, 0.3).entries)

    @pytest.mark.parametrize("kernel, foreign", [
        ({"kind": "ar2", "rho1": 0.6, "rho2": 0.3, "normalise": True}, "'normalise'"),
        ({"kind": "identity", "range": 5.0, "rho1": 0.6}, "'range', 'rho1'"),
    ], ids=["ar2-misspelled", "identity"])
    def test_key_its_kind_does_not_take_refused(self, kernel, foreign):
        # A misspelled or foreign key is refused, not dropped: ar2 would
        # otherwise build its raw autocovariance, as normalize defaults to False.
        with pytest.raises(ParameterError, match=f"^{kernel['kind']} kernel takes no {foreign}$"):
            build_cov(kernel, 10, None)

    @pytest.mark.parametrize("kind", list(KERNELS))
    def test_table_entry_builds_through_its_constructor(self, monkeypatch, kind):
        # Each kind calls its constructor by its module-level name at call
        # time, so a wrapper rebound to that name (the benchmark's tracer)
        # sees every build.
        constructor, on_grid, keys = KERNELS[kind]
        built = []
        original = getattr(covariance, constructor)
        monkeypatch.setattr(covariance, constructor,
                            lambda *args: built.append(args) or original(*args))
        kernel = {"kind": kind, **{name: 0.25 for name, (_, default) in keys.items()
                                   if default is None}}
        grid = GridLayout(3, 4)
        cov = build_cov(kernel, 12, grid)
        assert cov.dim == 12
        assert len(built) == 1 and built[0][0] == (grid if on_grid else 12)


RANGE_SWEEP = dict(sweep_variable="rho", sweep_values=(2.0, 5.0, 10.0),
                   mis_kernel={"kind": "exponential", "range": 5.0})


class TestRunSweep:
    def test_row_shape_and_order(self):
        rows = run_sweep(tiny_config())
        assert [row.sweep_value for row in rows] == [0.1, 1.0]
        for row in rows:
            assert 0.0 <= row.fdr_cor <= 1.0
            assert 0.0 <= row.fnr_mis <= 1.0

    def test_degenerate_sweep_no_misspecification(self):
        config = tiny_config(mis_kernel={"kind": "exponential", "range": 5.0})
        rows = run_sweep(config)
        for row in rows:
            assert row.fdr_cor == row.fdr_mis
            assert row.fnr_cor == row.fnr_mis
            assert row.rejection_rate_diff == 0.0
            assert row.kl_per_dim == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(sweep_variable="rho", sweep_values=(2.0, 10.0),
                  mis_kernel={"kind": "exponential", "range": 5.0})],
        ids=["g", "rho"],
    )
    def test_kl_per_dim_is_kl_exact(self, overrides):
        config = tiny_config(**overrides)
        truth_cov = build_cov(config.truth_kernel, config.m, config.grid)
        for row in run_sweep(config):
            rho = config.sweep_variable == "rho"
            kernel = {**config.mis_kernel, "range": row.sweep_value} if rho else config.mis_kernel
            mis_cov = build_cov(kernel, config.m, config.grid)
            g = config.g if rho else row.sweep_value
            expected = kl_exact(*paired_specs(config, truth_cov, mis_cov, g)) / config.m
            assert row.kl_per_dim == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("which", [1, 3], ids=["g", "rho"])
    def test_sweep_points_make_no_spec_check(self, monkeypatch, which):
        # A sweep builds spec_cor from the truth's covariance and noise
        # variance, and both specs at the point's g: the KL checks cannot fire.
        config = replace(builtin_example(which, scale="desk"), n_reps=50)
        expected = run_sweep(config)

        def refuse(*args):
            raise AssertionError("check_kl_specs called")

        for name, module in list(sys.modules.items()):
            if name.startswith("misfdr") and hasattr(module, "check_kl_specs"):
                monkeypatch.setattr(module, "check_kl_specs", refuse)
        assert run_sweep(config) == expected

    def test_one_operator_per_spec(self, monkeypatch):
        # Each point's dense correct spec inverts K once, on construction; the
        # identity spec is closed form and inverts nothing.
        inverted = []
        inverse = posterior.chol_inverse
        monkeypatch.setattr(posterior, "chol_inverse",
                            lambda chol, **kw: inverted.append(chol) or inverse(chol, **kw))
        config = tiny_config()
        run_sweep(config)
        assert len(inverted) == len(config.sweep_values)

    @pytest.mark.parametrize(
        "overrides, builds",
        [({}, lambda n: 2 * n),
         (dict(sweep_variable="rho", sweep_values=(2.0, 5.0, 10.0),
               mis_kernel={"kind": "exponential", "range": 5.0}), lambda n: 1 + n)],
        ids=["g", "rho"],
    )
    def test_operator_and_law_builds(self, monkeypatch, overrides, builds):
        # A range sweep builds its correct spec and law once; a g sweep needs
        # both specs and laws anew at every g.
        config = tiny_config(**overrides)
        built = {ModelSpec: 0, SamplingLaw: 0}
        for cls in built:
            def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        run_sweep(config)
        n = len(config.sweep_values)
        assert built == {ModelSpec: builds(n), SamplingLaw: builds(n)}

    def test_refcounting_frees_every_factor(self, monkeypatch):
        # A reference cycle through a spec or a law would keep each
        # point's m x m factors alive until the cyclic collector ran. Study 2
        # takes two passes at desk scale.
        made = []
        for cls in (ModelSpec, SamplingLaw):
            def tracking_init(self, *args, _init=cls.__init__, **kwargs):
                made.append(weakref.ref(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", tracking_init)
        gc.disable()
        try:
            run_sweep(builtin_example(2, scale="desk"))
            alive = [ref() for ref in made if ref() is not None]
        finally:
            gc.enable()
        assert len(made) == 4 * len(DEFAULT_G_GRID)
        assert alive == []

    def test_range_sweep_scores_its_correct_spec_once(self, monkeypatch):
        # 1100 replications are 3 blocks of at most 512 rows: each spec,
        # the correct one included, scores 3 blocks in the whole sweep.
        config = tiny_config(**RANGE_SWEEP, n_reps=1100)
        truths, specs, scored = [], [], []
        make_truth, make_spec, standardized = (simulation.sweep_truth, simulation.sweep_spec,
                                               ModelSpec.standardized_residual)

        def recording_truth(*args):
            truths.append(make_truth(*args))
            return truths[-1]

        def recording_spec(config, cov, g):
            specs.append((cov, make_spec(config, cov, g)))
            return specs[-1][1]

        def counting_standardized(self, resid, out=None):
            scored.append(self)
            return standardized(self, resid, out)

        monkeypatch.setattr(simulation, "sweep_truth", recording_truth)
        monkeypatch.setattr(simulation, "sweep_spec", recording_spec)
        monkeypatch.setattr(ModelSpec, "standardized_residual", counting_standardized)
        run_sweep(config)
        (truth,) = truths
        # The one spec on the truth's covariance is built before the points.
        on_truth = [cov is truth.sigma1 for cov, _ in specs]
        assert on_truth == [True] + [False] * len(config.sweep_values)
        assert [scored.count(spec) for _, spec in specs] == [3] * len(specs)

    def test_range_sweep_rows_share_the_correct_spec(self):
        config = replace(builtin_example(3, scale="desk"), n_reps=100)
        rows = run_sweep(config)
        cor = {(row.fdr_cor, row.fnr_cor, row.fdr_cor_se, row.fnr_cor_se) for row in rows}
        assert len(cor) == 1
        # At the truth's range the misspecified spec is the correct one, and
        # its row reads the sweep's correct values exactly.
        (at_truth,) = [row for row in rows if row.sweep_value == config.truth_kernel["range"]]
        assert {(at_truth.fdr_mis, at_truth.fnr_mis, at_truth.fdr_mis_se,
                 at_truth.fnr_mis_se)} == cor
        assert at_truth.rejection_rate_diff == 0.0
        assert at_truth.kl_per_dim == 0.0

    def test_points_share_their_datasets(self):
        rows = run_sweep(tiny_config(sweep_values=(1.0, 1.0)))
        assert rows[0] == rows[1]

    # Row 0 of each built-in desk study at seed 0, as version 0.2.0 wrote it
    # before the points of a sweep shared their datasets: point 0 always drew
    # from the stream every point now draws from.
    ROW_0 = {
        1: (0.01, 0.10595651910450453, 0.0, 0.1720150503718651, 0.5052128475476414,
            0.45087499999999997, 4.021238242222904, 0.0, 0.0054305977374101335, 0.0,
            0.00778222244154643, 0.013110322249841658),
        2: (0.01, 0.11442569141190137, 0.2307006438144348, 0.08947791213465671,
            0.2839784496093751, 0.06667500000000004, 8.660942840774906, 0.0,
            0.002590093556999555, 0.0048751907416105505, 0.0025904809416096982,
            0.004364730805243173),
        3: (0.1, 0.042498262405048726, 0.06604938116404163, 0.23609704886748403,
            0.3464175183625747, 0.07674999999999997, 0.2057413665651226, 0.0,
            0.003310851696630642, 0.00621809468393505, 0.007204522303459894,
            0.010310852753690444),
    }

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_row_0_unchanged(self, which):
        config = builtin_example(which, scale="desk")
        config = replace(config, sweep_values=config.sweep_values[:2])
        row = dict(zip(SWEEP_COLUMNS, astuple(run_sweep(config)[0])))
        expected = dict(zip(SWEEP_COLUMNS, self.ROW_0[which]))
        # The KL divergence is exact, so only rounding may move it.
        assert row.pop("kl_per_dim") == pytest.approx(expected.pop("kl_per_dim"), rel=1e-9)
        assert row == expected

    def test_configuration_error_not_wrapped(self):
        config = tiny_config(
            m=9, grid=None, truth_kernel={"kind": "identity"},
            mis_kernel={"kind": "exponential", "range": 5.0},
        )
        with pytest.raises(ParameterError, match="requires a grid"):
            run_sweep(config)

    def test_kernel_missing_a_key_refused_before_any_draw(self, monkeypatch):
        # build_cov refuses the malformed kernel itself, so run_sweep raises
        # the ParameterError before a single row is drawn.
        drawn = []
        monkeypatch.setattr(fdr, "draw_replications", lambda *args: drawn.append(args))
        config = tiny_config(mis_kernel={"kind": "exponential"})  # missing range
        with pytest.raises(ParameterError, match="exponential kernel requires range"):
            run_sweep(config)
        assert drawn == []

    def test_numerical_failure_raised_unwrapped(self):
        # At range 1e300 every entry of the misspecified covariance is 1.0: a
        # singular matrix, refused with the package's own error, unrelabelled.
        config = tiny_config(n_reps=20, sweep_variable="rho", sweep_values=(2.0, 1e300),
                             mis_kernel={"kind": "exponential", "range": 2.0})
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^matrix of dim 25 is not positive definite \(potrf info 2\)$"):
            run_sweep(config)


# A desk-size g sweep and range sweep on a 10 x 10 grid, 1100 replications:
# three draw blocks, the last one partial.
DESK_SWEEPS = {"g": replace(builtin_example(1, scale="desk"), n_reps=1100),
               "rho": replace(builtin_example(3, scale="desk"), n_reps=1100)}


class TestPasses:
    """A sweep scores consecutive points in passes, each of which draws the
    datasets once for all its specs; the rows are those of one `replicate`
    per point."""

    @staticmethod
    def rows_drawn(monkeypatch):
        drawn = []
        draw = fdr.draw_replications

        def counting_draw(truth, sigma1_chol, gen, n):
            drawn.append(n)
            return draw(truth, sigma1_chol, gen, n)

        monkeypatch.setattr(fdr, "draw_replications", counting_draw)
        return drawn

    @pytest.mark.parametrize("variable", ["g", "rho"])
    def test_draws_each_dataset_once(self, monkeypatch, variable):
        # Three points of a 10 x 10 sweep fit beside one draw block.
        config = replace(DESK_SWEEPS[variable], n_reps=600,
                         sweep_values=DESK_SWEEPS[variable].sweep_values[1:4])
        drawn = self.rows_drawn(monkeypatch)
        run_sweep(config)
        assert sum(drawn) == config.n_reps

    @pytest.mark.parametrize("variable, extra", [("g", 0), ("rho", 1)])
    def test_one_point_per_pass_when_one_spec_fills_the_block(self, monkeypatch, variable,
                                                              extra):
        # A 16-row block holds 3200 floats, fewer than one 100 x 100 A: each
        # point is its own pass, and a range sweep scores its correct spec alone.
        config = replace(DESK_SWEEPS[variable], n_reps=60, sweep_values=(0.5, 2.0, 8.0))
        monkeypatch.setattr(fdr, "_BLOCK_ROWS", 16)
        expected = sweep_rows_per_point(config)
        drawn = self.rows_drawn(monkeypatch)
        assert run_sweep(config) == expected
        assert sum(drawn) == (len(config.sweep_values) + extra) * config.n_reps

    @pytest.mark.parametrize("variable", ["g", "rho"])
    def test_kept_datasets_when_they_fit_in_one_block(self, monkeypatch, variable):
        # 32 reps of m = 100 are 3200 floats, exactly one 16-row block: each
        # point is its own pass, and all passes score one kept draw.
        config = replace(DESK_SWEEPS[variable], n_reps=32, sweep_values=(0.5, 2.0, 8.0))
        monkeypatch.setattr(fdr, "_BLOCK_ROWS", 16)
        expected = sweep_rows_per_point(config)
        drawn = self.rows_drawn(monkeypatch)
        assert run_sweep(config) == expected
        assert sum(drawn) == config.n_reps

    # name -> (config, _BLOCK_ROWS, points per pass, whether the datasets are kept)
    PLANS = {
        "study1": (builtin_example(1, scale="desk"), fdr._BLOCK_ROWS, [6], False),
        "study2": (builtin_example(2, scale="desk"), fdr._BLOCK_ROWS, [5, 1], True),
        "study3": (builtin_example(3, scale="desk"), fdr._BLOCK_ROWS, [5, 2], True),
        "block16-kept": (replace(DESK_SWEEPS["g"], n_reps=32, sweep_values=(0.5, 2.0, 8.0)),
                         16, [1, 1, 1], True),
        "block16-drawn": (replace(DESK_SWEEPS["rho"], n_reps=60, sweep_values=(0.5, 2.0, 8.0)),
                          16, [1, 1, 1], False),
    }

    @pytest.mark.parametrize("name", list(PLANS))
    def test_plan_is_the_same_at_any_thread_count(self, monkeypatch, name):
        # The passes, the rows drawn and whether the datasets are kept follow
        # from the config alone, and the passes run in order.
        config, block_rows, sizes, kept = self.PLANS[name]
        monkeypatch.setattr(fdr, "_BLOCK_ROWS", block_rows)
        drawn = self.rows_drawn(monkeypatch)
        calls, draws = [], []
        sweep_pass, draw = simulation._sweep_pass, simulation.drawn_datasets

        def recording_pass(*args):
            calls.append((tuple(args[-1]), args[-2] is not None))
            return sweep_pass(*args)

        monkeypatch.setattr(simulation, "_sweep_pass", recording_pass)
        monkeypatch.setattr(simulation, "drawn_datasets", lambda *args: draws.append(args) or
                            draw(*args))
        run_sweep(config)
        assert [value for values, _ in calls for value in values] == list(config.sweep_values)
        assert [len(values) for values, _ in calls] == sizes
        assert {was_kept for _, was_kept in calls} == {kept}
        scorings = len(sizes) + config.sweep_key.startswith("mis.")
        assert len(draws) == (1 if kept else scorings)
        assert sum(drawn) == config.n_reps * len(draws)

    @pytest.mark.parametrize("variable", ["g", "rho"])
    def test_passes_change_no_number(self, variable):
        config = DESK_SWEEPS[variable]
        assert run_sweep(config) == sweep_rows_per_point(config)

    def test_grouped_sweep_keeps_no_datasets(self):
        # The shape of the benchmark's reps-heavy sweep: all three points in
        # one pass. Keeping the datasets would take n_reps x m floats.
        config = replace(DESK_SWEEPS["g"], n_reps=20_000, sweep_values=(0.1, 1.0, 10.0))
        tracemalloc.start()
        try:
            run_sweep(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < config.n_reps * config.m * np.dtype(float).itemsize


def write_sweep(rows, path):
    write_csv(path, SWEEP_COLUMNS, map(astuple, rows))


class TestCsvOutput:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep(run_sweep(config), p1)
        write_sweep(run_sweep(config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_roundtrip_precision(self, tmp_path):
        rows = run_sweep(tiny_config())
        path = tmp_path / "sweep.csv"
        write_sweep(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        first = lines[1].split(",")
        assert float(first[SWEEP_COLUMNS.index("fdr_cor")]) == rows[0].fdr_cor

    def test_cell_format(self, tmp_path):
        # floats (numpy ones too) as repr(float(v)); ints and strings as they are
        path = tmp_path / "t.csv"
        write_csv(path, ["# one-cell header"], [(np.float64(0.1), 3, "x"), np.eye(1)[0]])
        assert path.read_bytes() == b"# one-cell header\n0.1,3,x\n1.0\n"


class TestBuiltinExamples:
    def test_example1_full(self):
        config = builtin_example(1)
        assert config.m == 900
        assert config.grid == GridLayout(30, 30)
        assert config.sweep_values == DEFAULT_G_GRID
        assert config.n_reps == 1000
        assert config.truth_kernel == {"kind": "exponential", "range": 5.0}
        assert config.mis_kernel == {"kind": "identity"}

    def test_example2_kernels(self):
        config = builtin_example(2, scale="desk", root_seed=7)
        assert (config.m, config.label, config.root_seed) == (100, "example2-desk", 7)
        assert config.truth_kernel["rho1"] == 1.5
        assert config.mis_kernel["rho2"] == 0.3

    def test_example3_sweeps_range(self):
        config = builtin_example(3, scale="desk")
        assert config.sweep_variable == "rho"
        assert config.sweep_values == DEFAULT_RHO_GRID
        assert config.g == 1.0
        # Each point sets the range; the config itself is the first point.
        assert config.mis_kernel == {"kind": "exponential", "range": DEFAULT_RHO_GRID[0]}

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            builtin_example(4)
        with pytest.raises(ParameterError):
            builtin_example(1, scale="huge")

    def test_desk_example1_known_trends(self):
        # reference behavior pinned at seed 42: correct-spec FDR near
        # nominal at g = 1, misspecification never helps FNR, and the KL
        # decreases as the prior becomes vaguer
        config = builtin_example(1, scale="desk", root_seed=42)
        rows = run_sweep(config)
        by_g = {row.sweep_value: row for row in rows}
        assert by_g[1.0].fdr_cor == pytest.approx(0.0389, abs=0.001)
        for row in rows:
            assert row.fnr_mis >= row.fnr_cor - 1e-12
        kl = [row.kl_per_dim for row in rows]
        assert kl == sorted(kl, reverse=True)
        assert kl[0] > 1.0 and kl[-1] < 0.01


class TestConfigParsing:
    TEXT = """
    # experiment description
    grid.rows = 5
    grid.cols = 5
    sigma0_sq = 0.25
    g = 1.0
    truth.kernel = exponential
    truth.range = 5.0
    mis.kernel = identity
    sweep.variable = g
    sweep.values = 0.1, 1.0
    n_reps = 40
    seed = 0
    """

    def test_parse_and_build(self):
        config = config_from_mapping(parse_config_text(self.TEXT))
        assert config.m == 25
        assert config.sweep_values == (0.1, 1.0)
        assert config.truth_kernel == {"kind": "exponential", "range": 5.0}

    def test_repeated_key_refused(self):
        text = "g = 1\nsigma0_sq = 0.25\n# a comment\ng = 10\n"
        with pytest.raises(ParameterError, match=r"config line 4: key 'g' repeats line 1$"):
            parse_config_text(text)

    def test_comments_and_blank_lines_ignored(self):
        mapping = parse_config_text("a = 1  # trailing\n\n# whole line\nb = 2")
        assert mapping == {"a": "1", "b": "2"}

    @pytest.mark.parametrize("text, match", [
        ("just some words", "line 1: expected 'key = value'"),
        ("a = 1\n= 2", "line 2: empty key or value"),
        ("a =  # no value", "line 1: empty key or value"),
    ], ids=["no-equals", "empty-key", "empty-value"])
    def test_malformed_line(self, text, match):
        with pytest.raises(ParameterError, match=match):
            parse_config_text(text)

    def test_missing_required_key(self):
        mapping = parse_config_text(self.TEXT)
        del mapping["sigma0_sq"]
        with pytest.raises(ParameterError, match="sigma0_sq"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize(
        "key, value",
        [("n_rep", "5"), ("m", "25"), ("mis.range", "2.0"), ("grid.colls", "5")],
    )
    def test_unread_key_rejected(self, key, value):
        mapping = parse_config_text(self.TEXT)
        mapping[key] = value
        with pytest.raises(ParameterError, match=f"unknown config key.*{key}"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize(
        "key, value", [("n_reps", "many"), ("sigma0_sq", "abc"), ("sweep.values", "1, x")]
    )
    def test_non_numeric_value_rejected(self, key, value):
        mapping = parse_config_text(self.TEXT)
        mapping[key] = value
        with pytest.raises(ParameterError, match=f"{key}.*{value!r}"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["sigma0_sq", "g", "alpha_star", "truth.range", "sweep.values"]
    )
    def test_non_finite_value_rejected(self, key, value):
        mapping = parse_config_text(self.TEXT)
        mapping[key] = "0.1, " + value if key == "sweep.values" else value
        with pytest.raises(ParameterError, match=f"config key {key}: invalid value"):
            config_from_mapping(mapping)

    def ar2_mapping(self, prefix: str) -> dict:
        """TEXT with an AR(2) kernel for `prefix` ("truth" or "mis")."""
        mapping = parse_config_text(self.TEXT)
        mapping.pop(f"{prefix}.range", None)
        mapping.update({f"{prefix}.kernel": "ar2", f"{prefix}.rho1": "0.6",
                        f"{prefix}.rho2": "0.3"})
        return mapping

    @pytest.mark.parametrize("prefix", ["truth", "mis"])
    @pytest.mark.parametrize("value, expected", [("true", True), ("TRUE", True),
                                                 ("False", False), (None, False)])
    def test_normalize_is_true_or_false(self, prefix, value, expected):
        mapping = self.ar2_mapping(prefix)
        if value is not None:
            mapping[f"{prefix}.normalize"] = value
        config = config_from_mapping(mapping)
        kernel = config.truth_kernel if prefix == "truth" else config.mis_kernel
        assert kernel["normalize"] is expected

    @pytest.mark.parametrize("prefix", ["truth", "mis"])
    @pytest.mark.parametrize("value", ["yes", "1", "ture", "no", ""])
    def test_normalize_other_text_rejected(self, prefix, value):
        # Any text but true/false once read as False, silently.
        mapping = {**self.ar2_mapping(prefix), f"{prefix}.normalize": value}
        with pytest.raises(ParameterError,
                           match=f"config key {prefix}.normalize: invalid value {value!r}"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("prefix", ["truth", "mis"])
    def test_unknown_kernel_kind_rejected(self, prefix):
        mapping = {**parse_config_text(self.TEXT), f"{prefix}.kernel": "matern"}
        with pytest.raises(ParameterError, match="unknown kernel kind: 'matern'"):
            config_from_mapping(mapping)

    def test_unknown_noise_mode_rejected(self):
        mapping = parse_config_text(self.TEXT)
        mapping["noise.mode"] = "unknown"
        with pytest.raises(ParameterError, match="known-variance"):
            config_from_mapping(mapping)
        mapping["noise.mode"] = "known"
        assert config_from_mapping(mapping).m == 25

    def test_range_sweep_needs_no_mis_range(self):
        mapping = parse_config_text(self.TEXT)
        mapping.update({"mis.kernel": "exponential", "sweep.variable": "rho"})
        assert config_from_mapping(mapping).mis_kernel == {"kind": "exponential", "range": 0.1}
        with_range = config_from_mapping({**mapping, "mis.range": "2.0"})
        assert with_range.mis_kernel == {"kind": "exponential", "range": 2.0}
        assert run_sweep(config_from_mapping(mapping)) == run_sweep(with_range)

    def test_g_sweep_needs_mis_range(self):
        mapping = parse_config_text(self.TEXT)
        mapping["mis.kernel"] = "exponential"
        with pytest.raises(ParameterError, match="missing config key: mis.range"):
            config_from_mapping(mapping)

    def test_single_run_defaults_sweep_to_g(self):
        mapping = parse_config_text(self.TEXT)
        del mapping["sweep.values"]
        del mapping["sweep.variable"]
        config = config_from_mapping(mapping)
        assert config.sweep_values == (1.0,)
        assert config.sweep_variable == "g"


POINT_RULE_TEXT = """
grid.rows = 4
grid.cols = 4
sigma0_sq = 0.25
g = 2.0
truth.kernel = exponential
truth.range = 5.0
n_reps = 30
seed = 11
"""


class TestPointRule:
    """Point j of a sweep is its config with the swept key set to value j. The
    one-point config drops sweep.values and keeps sweep.variable, which names
    the key whose value its row reports."""

    @pytest.mark.parametrize("sweep", [
        # g is set beside sweep.values; mis.range is left out.
        {"mis.kernel": "identity", "sweep.variable": "g", "sweep.values": "0.5, 2.0, 8.0"},
        {"mis.kernel": "exponential", "sweep.variable": "rho", "sweep.values": "1.0, 5.0, 10.0"},
    ], ids=["g", "rho"])
    def test_each_row_is_the_one_point_run_of_its_value(self, sweep):
        mapping = {**parse_config_text(POINT_RULE_TEXT), **sweep}
        key = SWEEP_KEYS[mapping["sweep.variable"]]
        rows = run_sweep(config_from_mapping(mapping))
        values = [float(v) for v in sweep["sweep.values"].split(",")]
        assert [row.sweep_value for row in rows] == values
        for row in rows:
            one_point = {k: v for k, v in mapping.items() if k != "sweep.values"}
            one_point[key] = repr(row.sweep_value)
            assert run_sweep(config_from_mapping(one_point)) == [row]
