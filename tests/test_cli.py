import json

import pytest

import fpmimo.cli as cli
from fpmimo.cli import build_config, main, parse_config_file
from fpmimo.formats import FP16, FP32, RoundingMode
from fpmimo.harness import read_csv
from fpmimo.kernels import PolicyMode, PrecisionPolicy


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "# comment\n"
            "scenario = MU-SIMO\n"
            "M_grid = 32,64\n"
            "K = 4  # inline comment\n"
            "format = fp16\n"
            "mode = mixed\n"
            "block_size = 16\n"
            "format_high = fp32\n"
            "lambda = 3\n"
            "trials = 10\n"
        )
        values = parse_config_file(p)
        assert values["scenario"] == "MU-SIMO"
        assert values["K"] == "4"
        cfg = build_config(values)
        assert cfg.M_grid == (32, 64)
        assert cfg.policy.mode is PolicyMode.MIXED
        assert cfg.policy.block_size == 16
        assert cfg.policy.high.name == "fp32"
        assert cfg.lam == 3.0

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("scenario SIMO\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(p)


class TestSweepCommand:
    def test_sweep_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = SIMO\nM_grid = 16\nformat = fp16\ntrials = 10\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "-o", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 and rows[0]["M"] == 16

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = SIMO\nM_grid = 16\ntrials = 10\nseed = 1\n")
        out = tmp_path / "out.csv"
        main(["sweep", "--config", str(cfg), "--seed", "42", "-o", str(out)])
        assert read_csv(out)[0]["seed"] == 42

    def test_requires_scenario(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for argv in (["sweep", "-o", str(out)], ["verify"]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: a scenario is required (flag or config file)\n", argv
        assert not out.exists()


class TestBoundsCommand:
    def test_m_max(self, capsys):
        main(["bounds", "m_max_simo", "--rho", "10", "--lambda", "3", "--format", "fp16"])
        assert "m_max_simo = 102" in capsys.readouterr().out

    def test_gamma(self, capsys):
        main(["bounds", "gamma_n", "--n", "1000", "--format", "fp16", "--lambda", "1"])
        out = capsys.readouterr().out
        assert float(out.split("=")[1]) == pytest.approx(0.0158, rel=0.01)

    def test_upsilon_quadrature(self, capsys):
        main(["bounds", "upsilon", "--M", "8", "--K", "2", "--method", "quadrature"])
        assert float(capsys.readouterr().out.split("=")[1]) == pytest.approx(7.77, rel=0.01)

    def test_rate(self, capsys):
        main(["bounds", "lb_rate_simo", "--M", "100", "--rho", "10", "--format", "fp64"])
        assert float(capsys.readouterr().out.split("=")[1]) == pytest.approx(9.967, rel=1e-3)


class TestVerifyCommand:
    def test_inner_study(self, capsys):
        main(["verify", "--inner-n", "100", "--format", "fp16", "--trials", "200"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["n"] == 100
        assert set(rep["violation_rates"]) == {"0.5", "1.0", "3.0"}
        assert {k: rep[k] for k in ("format", "mode", "block_size", "rounding")} == {
            "format": "fp16", "mode": "uniform-low", "block_size": "32",
            "rounding": "nearest-even",
        }

    @staticmethod
    def _capture_study(monkeypatch):
        seen = {}

        def study(n, policy, **kw):
            seen.update(kw, n=n, policy=policy)
            return {}

        monkeypatch.setattr(cli, "inner_product_violation_study", study)
        return seen

    def test_inner_study_takes_policy_flags(self, monkeypatch, capsys):
        seen = self._capture_study(monkeypatch)
        main(["verify", "--inner-n", "64", "--mode", "mixed", "--format-high", "fp32",
              "--block-size", "8", "--rounding", "stochastic", "--trials", "20",
              "--seed", "3"])
        assert seen["policy"] == PrecisionPolicy.mixed(
            FP16, FP32, 8, rounding=RoundingMode.STOCHASTIC
        )
        assert (seen["n"], seen["trials"], seen["seed"]) == (64, 20, 3)

    def test_inner_study_takes_config_file_policy(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mode = mixed\nformat_high = fp32\nblock_size = 16\ntrials = 7\n")
        seen = self._capture_study(monkeypatch)
        main(["verify", "--inner-n", "32", "--config", str(cfg), "--block-size", "4"])
        assert seen["policy"] == PrecisionPolicy.mixed(FP16, FP32, 4)
        assert seen["trials"] == 7 and "seed" not in seen

    @pytest.mark.parametrize("argv", [
        ["--inner-n", "0"],
        ["--inner-n", "8", "--trials", "0"],
    ])
    def test_inner_study_rejects_empty_study(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ">= 1" in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "gamma_n", "--n", "10", "--lambda", "-1"],
        ["bounds", "gamma_n", "--n", "10", "--lambda", "nan"],
        ["bounds", "xi_bn", "--n", "100", "--lambda", "0"],
        ["verify", "--scenario", "SIMO", "--M-grid", "8", "--trials", "5", "--lambdas", "0,-1,nan"],
        ["verify", "--inner-n", "8", "--trials", "5", "--lambdas", "1,nan"],
    ], ids=lambda argv: " ".join(argv))
    def test_rejects_lambda_outside_positive_finite(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: lambda must be positive and finite")
        assert captured.out == ""

    def test_scenario_verify(self, capsys):
        main(["verify", "--scenario", "SIMO", "--M-grid", "32", "--trials", "50",
              "--format", "fp16"])
        rep = json.loads(capsys.readouterr().out)
        assert rep[0]["scenario"] == "SIMO"


class TestCostCommand:
    def test_table(self, capsys):
        main(["cost", "--n", "1000", "--block-size", "32", "--G", "2"])
        out = capsys.readouterr().out
        assert "C_m,8242.0,16000,24242.0" in out
        assert "3.0765%" in out
