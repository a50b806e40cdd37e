import gc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from misfdr.covariance import GridLayout
from misfdr.divergence import kl_exact
from misfdr.errors import ParameterError
from misfdr.posterior import PosteriorOperator
from misfdr.sampdist import SamplingLaw
from misfdr.simulation import (
    DEFAULT_G_GRID,
    DEFAULT_RHO_GRID,
    SWEEP_COLUMNS,
    ExperimentConfig,
    build_cov,
    builtin_example,
    config_from_mapping,
    paired_specs,
    parse_config_text,
    run_sweep,
    write_csv,
)


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

    def test_threaded_matches_serial(self):
        config = tiny_config()
        serial = run_sweep(config, threads=1)
        threaded = run_sweep(config, threads=2)
        assert serial == threaded

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

    def test_one_operator_per_spec(self, monkeypatch):
        built = []
        init = PosteriorOperator.__init__

        def counting_init(self, spec):
            built.append(spec)
            init(self, spec)

        monkeypatch.setattr(PosteriorOperator, "__init__", counting_init)
        run_sweep(tiny_config(sweep_values=(1.0,)))
        assert len(built) == 2

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
        built = {PosteriorOperator: 0, SamplingLaw: 0}
        for cls in built:
            def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        run_sweep(config, threads=2)
        n = len(config.sweep_values)
        assert built == {PosteriorOperator: builds(n), SamplingLaw: builds(n)}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_refcounting_frees_every_factor(self, monkeypatch, threads):
        # A reference cycle through an operator or a law would keep each
        # point's m x m factors alive until the cyclic collector ran.
        made = []
        for cls in (PosteriorOperator, SamplingLaw):
            def tracking_init(self, *args, _init=cls.__init__, **kwargs):
                made.append(weakref.ref(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", tracking_init)
        gc.disable()
        try:
            run_sweep(builtin_example(1, scale="desk"), threads=threads)
            alive = [ref() for ref in made if ref() is not None]
        finally:
            gc.enable()
        assert len(made) == 4 * len(DEFAULT_G_GRID)
        assert alive == []

    def test_configuration_error_not_wrapped(self):
        config = tiny_config(
            m=9, grid=None, truth_kernel={"kind": "identity"},
            mis_kernel={"kind": "exponential", "range": 5.0},
        )
        with pytest.raises(ParameterError, match="requires a grid"):
            run_sweep(config)

    def test_error_wrapped_with_label(self):
        config = tiny_config(mis_kernel={"kind": "exponential"})  # missing range
        with pytest.raises(RuntimeError, match="tiny"):
            run_sweep(config)


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
        assert config.mis_kernel == {"kind": "exponential"}  # each point sets the range

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
        rows = run_sweep(config, threads=2)
        by_g = {row.sweep_value: row for row in rows}
        assert by_g[1.0].fdr_cor == pytest.approx(0.0438, abs=0.001)
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

    def test_comments_and_blank_lines_ignored(self):
        mapping = parse_config_text("a = 1  # trailing\n\n# whole line\nb = 2")
        assert mapping == {"a": "1", "b": "2"}

    def test_malformed_line(self):
        with pytest.raises(ParameterError, match="line 1"):
            parse_config_text("just some words")

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
        assert config_from_mapping(mapping).mis_kernel == {"kind": "exponential"}
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
