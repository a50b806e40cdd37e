import sys

import numpy as np
import pytest
import scipy

from misfdr import cli, fdr
from misfdr.cli import main
from misfdr.errors import NotPositiveDefiniteError
from misfdr.simulation import KERNELS, build_cov, config_from_mapping, parse_config_text

CONFIG = """
grid.rows = 5
grid.cols = 5
sigma0_sq = 0.25
g = 1.0
truth.kernel = exponential
truth.range = 5.0
mis.kernel = identity
sweep.values = 0.1, 1.0
n_reps = 40
seed = 0
"""


# CONFIG without the keys that only a sweep reads: what `kl` accepts.
KL_CONFIG = CONFIG.replace("sweep.values = 0.1, 1.0\nn_reps = 40\nseed = 0\n", "")


def with_lines(base, lines):
    """The config `base` with each `key = value` of `lines` set in it: a key
    that `base` already sets is dropped from it, as a config may set a key
    only once."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join([*kept, lines]) + "\n"


def run(tmp_path, *argv):
    return main(["--output-dir", str(tmp_path), *argv])


def truth_cov_bytes(config_text):
    """The bytes of build_cov of the truth kernel a single-run config reads."""
    config = config_from_mapping(parse_config_text(config_text), sweep=False)
    return build_cov(config.truth_kernel, config.m, config.grid).entries.tobytes()


def written_cov_bytes(path):
    """The bytes of the matrix in a gen-cov CSV, each cell parsed back exactly."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(cell) for cell in row.split(",")] for row in rows]).tobytes()


class TestGenCov:
    def test_exponential_header(self, tmp_path):
        code = run(tmp_path, "gen-cov", "--kernel", "exponential",
                   "--rows", "3", "--cols", "3", "--range", "5.0")
        assert code == 0
        lines = (tmp_path / "cov.csv").read_text().splitlines()
        assert lines[0] == "# covariance m=9 kernel=exponential"
        assert len(lines) == 10

    def test_ar2_and_identity(self, tmp_path):
        assert run(tmp_path, "gen-cov", "--kernel", "ar2", "--m", "6",
                   "--rho1", "0.6", "--rho2", "0.3", "--out", "a.csv") == 0
        assert run(tmp_path, "gen-cov", "--kernel", "identity", "--m", "4",
                   "--out", "b.csv") == 0
        first = (tmp_path / "b.csv").read_text().splitlines()[1]
        assert first == "1.0,0.0,0.0,0.0"

    def test_separable(self, tmp_path):
        code = run(tmp_path, "gen-cov", "--kernel", "separable",
                   "--stations-rows", "2", "--stations-cols", "2",
                   "--n-times", "3", "--delta", "1.0", "--range", "5.0",
                   "--alpha", "0.5")
        assert code == 0
        assert (tmp_path / "cov.csv").read_text().startswith("# covariance m=12")

    @pytest.mark.parametrize("kernel", [*KERNELS, "separable"])
    def test_missing_parameters_exit_code(self, tmp_path, capsys, kernel):
        # A kind of the table lists its layout's flags, then each required key's.
        if kernel == "separable":
            flags = ["--stations-rows", "--stations-cols", "--n-times", "--delta", "--range",
                     "--alpha"]
        else:
            _, on_grid, keys = KERNELS[kernel]
            flags = ["--rows", "--cols"] if on_grid else ["--m"]
            flags += [f"--{name}" for name, (_, default) in keys.items() if default is None]
        assert run(tmp_path, "gen-cov", "--kernel", kernel) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {kernel} kernel needs {', '.join(flags)}\n")
        assert not (tmp_path / "cov.csv").exists()

    def test_kernel_choices_are_the_table_and_separable(self):
        gen_cov = cli._build_parser()._subparsers._group_actions[0].choices["gen-cov"]
        (kernel,) = [a for a in gen_cov._actions if a.dest == "kernel"]
        assert kernel.choices == [*KERNELS, "separable"]

    @pytest.mark.parametrize("kind", list(KERNELS))
    def test_table_kernel_equals_build_cov_of_the_config(self, tmp_path, kind):
        # Each required key of the kind at 0.25 (a positive range, a
        # stationary AR(2)), each optional key at its default: gen-cov's CSV
        # is build_cov of the kernel the config parser reads, bit for bit.
        _, on_grid, keys = KERNELS[kind]
        required = [name for name, (_, default) in keys.items() if default is None]
        layout = ["--rows", "3", "--cols", "4"] if on_grid else ["--m", "12"]
        flags = [arg for name in required for arg in (f"--{name}", "0.25")]
        assert run(tmp_path, "gen-cov", "--kernel", kind, *layout, *flags) == 0
        assert (tmp_path / "cov.csv").read_text().startswith(f"# covariance m=12 kernel={kind}\n")
        assert written_cov_bytes(tmp_path / "cov.csv") == truth_cov_bytes(
            "grid.rows = 3\ngrid.cols = 4\nsigma0_sq = 0.25\nmis.kernel = identity\n"
            f"truth.kernel = {kind}\n" + "".join(f"truth.{name} = 0.25\n" for name in required))

    def test_ar2_normalize_flag_equals_the_config_key(self, tmp_path):
        assert run(tmp_path, "gen-cov", "--kernel", "ar2", "--m", "12", "--rho1", "1.5",
                   "--rho2", "-0.9", "--normalize") == 0
        normalized = truth_cov_bytes(
            "m = 12\nsigma0_sq = 0.25\nmis.kernel = identity\ntruth.kernel = ar2\n"
            "truth.rho1 = 1.5\ntruth.rho2 = -0.9\ntruth.normalize = true\n")
        assert np.all(np.diag(np.frombuffer(normalized).reshape(12, 12)) == 1.0)
        assert written_cov_bytes(tmp_path / "cov.csv") == normalized

    def test_nonstationary_ar2_exit_code(self, tmp_path):
        assert run(tmp_path, "gen-cov", "--kernel", "ar2", "--m", "4",
                   "--rho1", "0.9", "--rho2", "0.9") == 1


class TestDist:
    def test_long_format_values(self, tmp_path):
        code = run(tmp_path, "dist", "--r", "0.25", "--r", "1.0", "--points", "9")
        assert code == 0
        lines = (tmp_path / "dist.csv").read_text().splitlines()
        assert lines[0] == "r,h,cdf,pdf"
        assert len(lines) == 1 + 2 * 9
        # for r = 1 the law is uniform: cdf = h, pdf = 1
        for line in lines[10:]:
            r, h, cdf, pdf = (float(v) for v in line.split(","))
            assert r == 1.0
            assert cdf == pytest.approx(h)
            assert pdf == pytest.approx(1.0)

    @pytest.mark.parametrize("argv", [
        ("--r", "-1"), ("--r", "nan"), ("--r", "inf"), ("--r", "0.5", "--r", "0"),
        ("--r", "0.5", "--points", "-5"), ("--r", "0.5", "--points", "0"),
    ], ids=["negative-r", "nan-r", "inf-r", "zero-r", "negative-points", "zero-points"])
    def test_bad_request_rejected(self, tmp_path, capsys, argv):
        assert run(tmp_path, "dist", *argv) == 1
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "dist.csv").exists()


class TestKl:
    def test_identical_kernels_give_zero(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(KL_CONFIG.replace("mis.kernel = identity",
                                            "mis.kernel = exponential\nmis.range = 5.0"))
        assert run(tmp_path, "kl", "--config", str(config)) == 0
        header, row = (tmp_path / "kl.csv").read_text().splitlines()
        assert header == "g,m,total,per_dim"
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["per_dim"]) == 0.0
        assert values["m"] == "25"

    def test_positive_for_real_misspecification(self, tmp_path):
        config = tmp_path / "mis.cfg"
        config.write_text(KL_CONFIG)
        assert run(tmp_path, "kl", "--config", str(config)) == 0
        row = (tmp_path / "kl.csv").read_text().splitlines()[1]
        assert float(row.split(",")[3]) > 0.0

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # The last value would otherwise win silently: g = 10, not g = 1.
        config = tmp_path / "twice.cfg"
        config.write_text(KL_CONFIG + "g = 10\n")
        assert run(tmp_path, "kl", "--config", str(config)) == 1
        assert capsys.readouterr().err == (
            "configuration error: config line 9: key 'g' repeats line 5\n")
        assert not (tmp_path / "kl.csv").exists()

    def test_unknown_variance_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(KL_CONFIG + "noise.mode = unknown\n")
        assert run(tmp_path, "kl", "--config", str(config)) == 1
        assert "known-variance" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "n_reps = 40", "seed = 3", "alpha_star = 0.2", "sweep.values = 1.0, 5.0",
        "sweep.variable = g", "kl_draws = 7",
    ], ids=["n_reps", "seed", "alpha_star", "sweep.values", "sweep.variable", "kl_draws"])
    def test_sweep_key_rejected(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(KL_CONFIG + line + "\n")
        assert run(tmp_path, "kl", "--config", str(config)) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"configuration error: unknown config key(s): {key}\n")
        assert not (tmp_path / "kl.csv").exists()


class TestFdr:
    def test_header_input(self, tmp_path):
        inp = tmp_path / "h.csv"
        inp.write_text("i,h\n0,0.01\n1,0.02\n2,0.9\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 0
        lines = (tmp_path / "rejections.csv").read_text().splitlines()
        assert lines[0] == "i,h,rejected"
        assert [line.split(",")[2] for line in lines[1:]] == ["1", "1", "0"]

    def test_bare_numbers_input(self, tmp_path):
        inp = tmp_path / "h.csv"
        inp.write_text("0.5\n0.9\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 0
        lines = (tmp_path / "rejections.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "0"]

    def test_missing_file(self, tmp_path):
        assert run(tmp_path, "fdr", "--input", str(tmp_path / "nope.csv"),
                   "--alpha", "0.05") == 1

    def test_header_without_h_rejected(self, tmp_path, capsys):
        inp = tmp_path / "h.csv"
        inp.write_text("i,score\n0,0.01\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 1
        assert "input CSV needs an 'h' column" in capsys.readouterr().err
        assert not (tmp_path / "rejections.csv").exists()

    def test_nan_score_rejected(self, tmp_path, capsys):
        inp = tmp_path / "h.csv"
        inp.write_text("0.01\nnan\n0.02\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "rejections.csv").exists()

    def test_non_numeric_score_names_its_line(self, tmp_path, capsys):
        inp = tmp_path / "h.csv"
        inp.write_text("i,h\n0,0.01\n1,high\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 1
        assert "input line 3: 'h' value 'high' is not a number" in capsys.readouterr().err
        assert not (tmp_path / "rejections.csv").exists()

    def test_short_row_names_its_line(self, tmp_path, capsys):
        inp = tmp_path / "h.csv"
        inp.write_text("i,h\n0,0.01\n\n1\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 1
        assert "input line 4 has no 'h' value" in capsys.readouterr().err
        assert not (tmp_path / "rejections.csv").exists()


class TestSimulateAndExample:
    def test_simulate_writes_sweep_and_meta(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        assert run(tmp_path, "simulate", "--config", str(config)) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("sweep_value,fdr_cor,fdr_mis")
        assert len(lines) == 3
        meta = (tmp_path / "run-meta.txt").read_text()
        assert "version = " in meta
        assert "config_sha256 = " in meta

    def test_repeat_invocations_identical(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        run(tmp_path, "simulate", "--config", str(config), "--out", "a.csv")
        run(tmp_path, "simulate", "--config", str(config), "--out", "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        run(tmp_path, "simulate", "--config", str(config), "--out", "a.csv")
        run(tmp_path, "--seed", "99", "simulate", "--config", str(config), "--out", "b.csv")
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()
        assert "seed = 99" in (tmp_path / "run-meta.txt").read_text()

    @pytest.mark.parametrize("subcommand", ["simulate", "kl"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, subcommand):
        assert run(tmp_path, subcommand, "--config", str(tmp_path / "nope.cfg")) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand", ["simulate", "example"])
    def test_plots_without_matplotlib_fail_before_the_sweep(self, tmp_path, capsys,
                                                           monkeypatch, subcommand):
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        request = {"simulate": ["--config", str(config)],
                   "example": ["--which", "3", "--scale", "desk"]}[subcommand]
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
        assert run(tmp_path, subcommand, *request, "--plots") == 1
        assert capsys.readouterr().err == (
            "configuration error: matplotlib is required for --plots\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("not a config")
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_variance_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG + "noise.mode = unknown\n")
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "known-variance" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG.replace("n_reps = 40", "n_rep = 5"))
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "n_rep" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_numeric_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG.replace("n_reps = 40", "n_reps = many"))
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_boolean_normalize_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG.replace(
            "mis.kernel = identity",
            "mis.kernel = ar2\nmis.rho1 = 0.6\nmis.rho2 = 0.3\nmis.normalize = yes"))
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert "config key mis.normalize: invalid value 'yes'" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("form", ["flag-simulate", "flag-example", "config"])
    def test_negative_seed_rejected(self, tmp_path, capsys, form):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("seed = 0", "seed = -4") if form == "config" else CONFIG)
        argv = {
            "flag-simulate": ["--seed", "-1", "simulate", "--config", str(config)],
            "flag-example": ["--seed", "-1", "example", "--which", "1", "--scale", "desk"],
            "config": ["simulate", "--config", str(config)],
        }[form]
        assert run(tmp_path, *argv) == 1
        assert "configuration error: config key seed" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_kl_draws_ignored_with_warning(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text(CONFIG)
        legacy = tmp_path / "legacy.cfg"
        legacy.write_text(CONFIG + "kl_draws = 7\n")
        assert run(tmp_path, "simulate", "--config", str(plain), "--out", "a.csv") == 0
        with pytest.warns(UserWarning, match="kl_draws is ignored"):
            assert run(tmp_path, "simulate", "--config", str(legacy), "--out", "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_non_integer_kl_draws_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG + "kl_draws = many\n")
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "kl_draws" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @staticmethod
    def count_work(monkeypatch):
        """(factored, drawn): the matrices each package `chol` is handed and
        the rows each `fdr.draw_replications` call draws, as they happen."""
        factored, drawn = [], []
        for name, module in list(sys.modules.items()):
            if name.startswith("misfdr") and hasattr(module, "chol"):
                monkeypatch.setattr(module, "chol", lambda a, _chol=module.chol, **kw:
                                    factored.append(a) or _chol(a, **kw))
        draw = fdr.draw_replications
        monkeypatch.setattr(fdr, "draw_replications",
                            lambda *args: drawn.append(args[-1]) or draw(*args))
        return factored, drawn

    @pytest.mark.parametrize("value", ["0", "1", "1.5"])
    def test_alpha_star_outside_unit_interval_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, value):
        factored, _ = self.count_work(monkeypatch)
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG + f"alpha_star = {value}\n")
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "configuration error: alpha_star must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        assert factored == []
        # The count is live: a sweep at a valid alpha_star factors.
        config.write_text(CONFIG + "alpha_star = 0.05\n")
        assert run(tmp_path, "simulate", "--config", str(config)) == 0
        assert factored

    RANGE_SWEEP = "mis.kernel = exponential\nsweep.variable = rho\n"

    @pytest.mark.parametrize("bad, good, key", [
        ("sweep.values = 1, -1", "sweep.values = 1, 2", "g"),
        ("sweep.values = 0", "sweep.values = 2", "g"),
        (RANGE_SWEEP + "sweep.values = 5, -2", RANGE_SWEEP + "sweep.values = 5, 2", "mis.range"),
        (RANGE_SWEEP + "g = 0", RANGE_SWEEP + "g = 2", "g"),
        ("sigma0_sq = -0.25", "sigma0_sq = 0.5", "sigma0_sq"),
    ], ids=["g-sweep", "g-zero", "range-sweep", "g-beside-range-sweep", "sigma0_sq"])
    def test_non_positive_parameter_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, bad, good, key):
        # Each was once refused by the point that reads it, after the
        # truth, its draws and the earlier points had run.
        factored, drawn = self.count_work(monkeypatch)
        config = tmp_path / "bad.cfg"
        config.write_text(with_lines(CONFIG, bad))
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert f"configuration error: {key} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        assert (factored, drawn) == ([], [])
        # The counts are live: the sweep at a positive value factors and draws.
        config.write_text(with_lines(CONFIG, good))
        assert run(tmp_path, "simulate", "--config", str(config)) == 0
        assert factored and drawn

    def test_configuration_error_in_sweep_point(self, tmp_path, capsys):
        # the misspecified covariance is built inside each sweep point
        config = tmp_path / "bad.cfg"
        config.write_text(
            "m = 9\nsigma0_sq = 0.25\ntruth.kernel = identity\n"
            "mis.kernel = exponential\nmis.range = 5.0\nn_reps = 10\n"
        )
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "kernel", ["identity", "ar2\nmis.rho1 = 0.6\nmis.rho2 = 0.3"], ids=["identity", "ar2"]
    )
    def test_range_sweep_without_a_range_rejected(self, tmp_path, capsys, kernel):
        config = tmp_path / "bad.cfg"
        config.write_text(
            "m = 30\nsigma0_sq = 0.25\ntruth.kernel = ar2\ntruth.rho1 = 0.6\n"
            f"truth.rho2 = 0.3\nmis.kernel = {kernel}\nsweep.variable = rho\n"
            "sweep.values = 0.1, 1, 10\nn_reps = 10\n"
        )
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "mis.kernel must be exponential" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_example_desk(self, tmp_path):
        pytest.importorskip("matplotlib")
        assert run(tmp_path, "example", "--which", "3", "--scale", "desk", "--plots") == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 8  # header + seven range values
        for name in ("fdr", "fnr", "rejection_rate_diff", "kl_per_dim"):
            assert (tmp_path / f"{name}.svg").exists()


def meta_field(directory, name):
    """The value of `name` in the run-meta.txt of `directory`."""
    for line in (directory / "run-meta.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == name:
            return value
    raise KeyError(name)


class TestRunMetaSeed:
    def test_simulate_records_config_seed(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("seed = 0", "seed = 3"))
        assert run(tmp_path, "simulate", "--config", str(config)) == 0
        assert meta_field(tmp_path, "seed") == "3"
        assert run(tmp_path, "--seed", "7", "simulate", "--config", str(config)) == 0
        assert meta_field(tmp_path, "seed") == "7"

    def test_example_records_seed_or_zero(self, tmp_path):
        assert run(tmp_path, "example", "--which", "1", "--scale", "desk") == 0
        assert meta_field(tmp_path, "seed") == "0"
        assert run(tmp_path, "--seed", "5", "example", "--which", "1", "--scale", "desk") == 0
        assert meta_field(tmp_path, "seed") == "5"

    @pytest.mark.parametrize("argv", [
        ("gen-cov", "--kernel", "identity", "--m", "3"),
        ("dist", "--r", "0.5", "--points", "3"),
        ("kl", "--config", "{config}"),
        ("fdr", "--input", "{scores}", "--alpha", "0.1"),
    ], ids=["gen-cov", "dist", "kl", "fdr"])
    def test_commands_without_draws_record_none(self, tmp_path, argv):
        config = tmp_path / "run.cfg"
        config.write_text(KL_CONFIG)
        scores = tmp_path / "h.csv"
        scores.write_text("h\n0.01\n0.5\n")
        argv = [a.format(config=config, scores=scores) for a in argv]
        assert run(tmp_path, "--seed", "4", *argv) == 0
        assert meta_field(tmp_path, "seed") == "None"


class TestRunMetaEnvironment:
    def test_records_libraries_blas_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(tmp_path, "--threads", "1", "gen-cov", "--kernel", "identity", "--m", "3") == 0
        assert meta_field(tmp_path, "numpy") == np.__version__
        assert meta_field(tmp_path, "scipy") == scipy.__version__
        for module in (np, scipy):
            blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
            assert meta_field(tmp_path, f"{module.__name__}_blas") == (
                f"{blas['name']} {blas['version']}")
        assert meta_field(tmp_path, "OPENBLAS_NUM_THREADS") == "1"
        assert meta_field(tmp_path, "OMP_NUM_THREADS") == "4"
        assert meta_field(tmp_path, "MKL_NUM_THREADS") == "unset"
        # Sweeps run on one thread, so no line records a count of them.
        with pytest.raises(KeyError):
            meta_field(tmp_path, "threads")
        # The request hash is the one written before these keys were added.
        assert meta_field(tmp_path, "config_sha256") == (
            "31dfc3ffc9bc6bde99d8c1e3bb0ad1befb04b9d4fcc3279dc5a29df1930c2a2b")

    def test_threads_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MISFDR_THREADS", "1")
        assert run(tmp_path, "dist", "--r", "0.5", "--points", "3") == 0
        monkeypatch.setenv("MISFDR_THREADS", "2")
        assert run(tmp_path / "two", "dist", "--r", "0.5", "--points", "3") == 1
        assert "MISFDR_THREADS must be 1, got '2'" in capsys.readouterr().err
        assert not (tmp_path / "two").exists()

    def test_blas_unknown_without_build_config(self, monkeypatch):
        for module in (np, scipy):
            monkeypatch.delattr(module.__config__, "CONFIG")
            assert cli._blas(module) == "unknown"


class TestRequestHash:
    GEN_COV = ("gen-cov", "--kernel", "exponential", "--rows", "3", "--cols", "3",
               "--range", "5.0")

    def test_independent_of_where_and_how_written(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(first, *self.GEN_COV) == 0
        assert main(["--output-dir", str(second), "-v", "--threads", "1", *self.GEN_COV,
                     "--out", "other.csv"]) == 0
        assert meta_field(first, "config_sha256") == meta_field(second, "config_sha256")

    def test_changes_with_the_request(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(first, *self.GEN_COV) == 0
        assert run(second, *self.GEN_COV[:-1], "6.0") == 0
        assert meta_field(first, "config_sha256") != meta_field(second, "config_sha256")

    def test_dist_independent_of_output(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(first, "dist", "--r", "0.5") == 0
        assert run(second, "-v", "dist", "--r", "0.5", "--out", "d.csv") == 0
        assert meta_field(first, "config_sha256") == meta_field(second, "config_sha256")


RANGE_SWEEP = CONFIG.replace(
    "mis.kernel = identity", "mis.kernel = exponential\nsweep.variable = rho"
)


class TestRangeSweepWithoutRange:
    def test_simulate_runs_as_with_a_range(self, tmp_path):
        bare = tmp_path / "bare.cfg"
        bare.write_text(RANGE_SWEEP)
        ranged = tmp_path / "ranged.cfg"
        ranged.write_text(RANGE_SWEEP + "mis.range = 3.0\n")
        assert run(tmp_path, "simulate", "--config", str(bare), "--out", "a.csv") == 0
        assert run(tmp_path, "simulate", "--config", str(ranged), "--out", "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_kl_names_the_missing_range(self, tmp_path, capsys):
        # kl takes no sweep key, so its exponential mis kernel needs a range.
        config = tmp_path / "bare.cfg"
        config.write_text(KL_CONFIG.replace("mis.kernel = identity", "mis.kernel = exponential"))
        assert run(tmp_path, "kl", "--config", str(config)) == 1
        assert "configuration error: missing config key: mis.range" in capsys.readouterr().err
        assert not (tmp_path / "kl.csv").exists()


class TestExitCodes:
    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise NotPositiveDefiniteError("matrix is not positive definite")

        monkeypatch.setattr(cli, "kl_exact", fail)
        config = tmp_path / "run.cfg"
        config.write_text(KL_CONFIG)
        assert run(tmp_path, "kl", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: matrix is not positive definite\n"
        assert not (tmp_path / "kl.csv").exists()

    def test_sweep_numerical_failure_exits_2_unwrapped(self, tmp_path, capsys):
        # At range 1e300 the misspecified covariance is all ones: the spec
        # refuses it, and the message is the factorization's own.
        config = tmp_path / "range.cfg"
        config.write_text(KL_CONFIG.replace("mis.kernel = identity", "mis.kernel = exponential")
                          + "sweep.variable = rho\nsweep.values = 2, 1e300\nn_reps = 20\n")
        assert run(tmp_path, "simulate", "--config", str(config)) == 2
        assert capsys.readouterr().err == (
            "numerical failure: matrix of dim 25 is not positive definite (potrf info 2)\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_covariance_without_a_factor_exits_2(self, tmp_path, capsys):
        # At range 1e300 every entry rounds to 1: LAPACK finds a zero pivot.
        argv = ["gen-cov", "--kernel", "exponential", "--rows", "3", "--cols", "3",
                "--range", "1e300"]
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: matrix of dim 9 is not positive definite")
        assert not (tmp_path / "cov.csv").exists()


class TestVerbose:
    @pytest.mark.parametrize("argv, artifact, note", [
        (["gen-cov", "--kernel", "identity", "--m", "3"], "cov.csv", " (m=3, kernel=identity)"),
        (["dist", "--r", "0.5", "--points", "5"], "dist.csv", ""),
        (["kl", "--config", "{kl_config}"], "kl.csv", " (per_dim=0.199017)"),
        (["fdr", "--input", "{scores}", "--alpha", "0.05"], "rejections.csv", " (k=2)"),
        (["example", "--which", "2", "--scale", "desk"], "sweep.csv", " (6 sweep points)"),
        (["simulate", "--config", "{config}"], "sweep.csv", " (2 sweep points)"),
    ], ids=["gen-cov", "dist", "kl", "fdr", "example", "simulate"])
    def test_one_line_per_artifact(self, tmp_path, capsys, argv, artifact, note):
        (tmp_path / "run.cfg").write_text(CONFIG)
        (tmp_path / "kl.cfg").write_text(KL_CONFIG)
        (tmp_path / "h.csv").write_text("0.01\n0.02\n0.9\n")
        paths = {"config": tmp_path / "run.cfg", "kl_config": tmp_path / "kl.cfg",
                 "scores": tmp_path / "h.csv"}
        assert run(tmp_path, "-v", *(a.format(**paths) for a in argv)) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / artifact}{note}\n"

    def test_quiet_without_flag(self, tmp_path, capsys):
        assert run(tmp_path, "gen-cov", "--kernel", "identity", "--m", "3") == 0
        assert capsys.readouterr().out == ""


# A range config without sweep.values: one point, at its own mis.range.
ONE_POINT_RANGE = CONFIG.replace("sweep.values = 0.1, 1.0\n", "sweep.variable = rho\n").replace(
    "g = 1.0", "g = 3.0").replace("mis.kernel = identity", "mis.kernel = exponential")


class TestOnePointRangeConfig:
    def test_runs_at_its_own_range(self, tmp_path):
        # At the truth's range the misspecified spec is the correct one.
        config = tmp_path / "one.cfg"
        config.write_text(ONE_POINT_RANGE + "mis.range = 5.0\n")
        assert run(tmp_path, "simulate", "--config", str(config)) == 0
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["sweep_value"] == 5.0
        assert values["kl_per_dim"] == 0.0
        assert values["fdr_mis"] == values["fdr_cor"]

    def test_needs_its_range(self, tmp_path, capsys):
        config = tmp_path / "bare.cfg"
        config.write_text(ONE_POINT_RANGE)
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "configuration error: missing config key: mis.range" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestThreads:
    """Sweeps run on one thread: a thread setting other than 1 exits 1 with a
    message and writes no CSV, so none is quietly ignored."""

    @staticmethod
    def refused(tmp_path, capsys, argv, message):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        assert run(tmp_path, *argv, "simulate", "--config", str(config)) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {message}: sweeps run on one thread\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_below_one_rejected(self, tmp_path, capsys, threads):
        self.refused(tmp_path, capsys, ["--threads", threads],
                     f"--threads must be 1, got {threads}")

    def test_above_one_rejected(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, ["--threads", "2"], "--threads must be 1, got 2")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_environment_other_than_one_rejected(self, tmp_path, capsys, monkeypatch, value):
        # The variable is refused beside --threads 1 too: a flag does not hide it.
        monkeypatch.setenv("MISFDR_THREADS", value)
        self.refused(tmp_path, capsys, [], f"MISFDR_THREADS must be 1, got '{value}'")
        self.refused(tmp_path, capsys, ["--threads", "1"],
                     f"MISFDR_THREADS must be 1, got '{value}'")

    def test_range_sweep_csv_identical_at_any_thread_count(self, tmp_path, monkeypatch):
        # The one accepted count, by flag or environment, changes no byte of
        # the default run; the correct spec and law of a range sweep are
        # shared by every point.
        csvs = []
        for name, env, flag in (("default", None, []), ("flag", None, ["--threads", "1"]),
                                ("env", "1", [])):
            if env is None:
                monkeypatch.delenv("MISFDR_THREADS", raising=False)
            else:
                monkeypatch.setenv("MISFDR_THREADS", env)
            out = tmp_path / name
            assert main(["--output-dir", str(out), *flag, "example",
                         "--which", "3", "--scale", "desk"]) == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_non_integer_environment_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MISFDR_THREADS", "abc")
        self.refused(tmp_path, capsys, [], "MISFDR_THREADS must be 1, got 'abc'")
