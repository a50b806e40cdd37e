import pytest

from misfdr.cli import main

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


def run(tmp_path, *argv):
    return main(["--output-dir", str(tmp_path), *argv])


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

    def test_missing_parameters_exit_code(self, tmp_path, capsys):
        assert run(tmp_path, "gen-cov", "--kernel", "exponential") == 1
        assert "configuration error" in capsys.readouterr().err

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


class TestKl:
    def test_identical_kernels_give_zero(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(CONFIG.replace("mis.kernel = identity",
                                         "mis.kernel = exponential\nmis.range = 5.0"))
        assert run(tmp_path, "kl", "--config", str(config)) == 0
        header, row = (tmp_path / "kl.csv").read_text().splitlines()
        assert header == "g,m,total,per_dim"
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["per_dim"]) == 0.0
        assert values["m"] == "25"

    def test_positive_for_real_misspecification(self, tmp_path):
        config = tmp_path / "mis.cfg"
        config.write_text(CONFIG)
        assert run(tmp_path, "kl", "--config", str(config)) == 0
        row = (tmp_path / "kl.csv").read_text().splitlines()[1]
        assert float(row.split(",")[3]) > 0.0

    def test_unknown_variance_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG + "noise.mode = unknown\n")
        assert run(tmp_path, "kl", "--config", str(config)) == 1
        assert "known-variance" in capsys.readouterr().err


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

    def test_nan_score_rejected(self, tmp_path, capsys):
        inp = tmp_path / "h.csv"
        inp.write_text("0.01\nnan\n0.02\n")
        assert run(tmp_path, "fdr", "--input", str(inp), "--alpha", "0.05") == 1
        assert "finite" in capsys.readouterr().err
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
        assert run(tmp_path, "--threads", "2", "example",
                   "--which", "3", "--scale", "desk", "--plots") == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 8  # header + seven range values
        for name in ("fdr", "fnr", "rejection_rate_diff", "kl_per_dim"):
            assert (tmp_path / f"{name}.svg").exists()


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_below_one_rejected(self, tmp_path, capsys, threads):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        assert run(tmp_path, "--threads", threads, "simulate", "--config", str(config)) == 1
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_range_sweep_csv_identical_at_any_thread_count(self, tmp_path):
        # The correct spec and law of a range sweep are shared by every point.
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            assert main(["--output-dir", str(out), "--threads", threads, "example",
                         "--which", "3", "--scale", "desk"]) == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_non_integer_environment_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MISFDR_THREADS", "abc")
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        assert run(tmp_path, "simulate", "--config", str(config)) == 1
        assert "MISFDR_THREADS" in capsys.readouterr().err
