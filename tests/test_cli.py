import io
import json
import math
import sys

import pytest

from concrete_geom.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSample:
    def test_json_reproducible(self, capsys):
        argv = ["sample", "--beta", "1,2", "--tau", "1.0", "-n", "5", "--seed", "3"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical replay
        data = json.loads(out1)
        assert len(data["samples"]) == 5
        for row in data["samples"]:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            assert all(v > 0 for v in row)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--beta", "1,2,3", "--tau", "0.5", "-n", "2",
             "--seed", "0", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x1,x2,x3"
        assert len(lines) == 3
        for line in lines[1:]:
            vals = [float(t) for t in line.split(",")]
            assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_csv_round_trips_exactly(self, capsys):
        _, out, _ = run_cli(
            ["sample", "--beta", "1,1", "--tau", "2", "-n", "3",
             "--seed", "9", "--format", "csv"],
            capsys,
        )
        _, out_json, _ = run_cli(
            ["sample", "--beta", "1,1", "--tau", "2", "-n", "3", "--seed", "9"],
            capsys,
        )
        csv_vals = [
            float(t) for line in out.strip().split("\n")[1:] for t in line.split(",")
        ]
        json_vals = [v for row in json.loads(out_json)["samples"] for v in row]
        assert csv_vals == json_vals  # shortest-repr floats are lossless


class TestPdf:
    def test_flat_density(self, capsys):
        code, out, _ = run_cli(
            ["pdf", "--beta", "1,1", "--tau", "1", "--x", "0.3,0.7"], capsys
        )
        assert code == 0
        assert json.loads(out)["log_density"] == pytest.approx(0.0, abs=1e-14)

    def test_with_alpha(self, capsys):
        code, out, _ = run_cli(
            ["pdf", "--beta", "1,1", "--tau", "1", "--alpha", "2,1",
             "--x", "0.5,0.5"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["log_density"] == pytest.approx(0.0, abs=1e-13)

    def test_boundary_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["pdf", "--beta", "1,1", "--tau", "1", "--x", "1,0.000000000001"], capsys
        )
        assert code == 3
        assert "error" in err


class TestMoments:
    def test_keys_and_values(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--beta", "1,1", "--tau", "1", "--alpha", "2,1"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["log_ratio_means"]["mean_1_2"] == pytest.approx(-1.0, abs=1e-12)
        assert data["log_ratio_variances"]["var_1_1"] == 0.0
        assert "cov_1_2_1_2" in data["log_ratio_covariances"]


class TestFisher:
    def test_reduced_json(self, capsys):
        code, out, _ = run_cli(["fisher", "--beta", "1,1", "--tau", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 2
        assert data["entries"]["m_1_1"] == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_full_json(self, capsys):
        code, out, _ = run_cli(
            ["fisher", "--beta", "1,2,3", "--tau", "2", "--full"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 4
        assert data["entries"]["m_1_2"] == data["entries"]["m_2_1"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            ["fisher", "--beta", "1,1", "--tau", "1", "--format", "csv"], capsys
        )
        assert code == 0
        header, values = out.strip().split("\n")
        assert header.split(",")[0] == "m_1_1"
        assert float(values.split(",")[0]) == pytest.approx(16.0 / 3.0, abs=1e-12)


class TestDistance:
    def test_temperature_quadrupling(self, capsys):
        code, out, _ = run_cli(
            ["distance", "--beta-a", "1,1", "--tau-a", "1",
             "--beta-b", "1,1", "--tau-b", "4"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["distance"] == pytest.approx(1.6577414652255484, abs=1e-12)
        assert data["ell"] == pytest.approx(1.1958076954784513, abs=1e-12)
        assert len(data["delta"]) == 2

    def test_zero_distance(self, capsys):
        _, out, _ = run_cli(
            ["distance", "--beta-a", "2,4", "--tau-a", "1",
             "--beta-b", "1,2", "--tau-b", "1"],
            capsys,
        )
        assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-12)


class TestPoincare:
    def test_flat_point(self, capsys):
        code, out, _ = run_cli(["poincare", "--beta", "1,1", "--tau", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["eta"] == [0.0]
        assert data["eta_K"] == pytest.approx(0.5, abs=1e-15)


class TestRound:
    def test_probabilities_and_frequencies(self, capsys):
        code, out, _ = run_cli(
            ["round", "--beta", "1,2,3", "--tau", "0.5", "-n", "50000",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        target = [1 / 6, 1 / 3, 1 / 2]
        for p, t in zip(data["probabilities"], target):
            assert p == pytest.approx(t, abs=1e-12)
        for f, t in zip(data["mc_frequencies"], target):
            se = math.sqrt(t * (1 - t) / data["mc_samples"])
            assert abs(f - t) < 4 * se


class TestVerify:
    def test_report_schema_and_exit(self, capsys):
        code, out, _ = run_cli(["verify", "--k", "2", "--seed", "0", "-n", "20000"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 0
        assert isinstance(data["version"], str)
        assert data["checks"]
        for c in data["checks"]:
            assert set(c) == {"name", "target", "estimate", "se_or_tol", "pass"}
            assert c["pass"] is True

    def test_reproducible(self, capsys):
        argv = ["verify", "--k", "2", "--seed", "5", "-n", "20000"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_too_few_samples(self, capsys):
        code, out, err = run_cli(["verify", "--k", "2", "-n", "10"], capsys)
        assert code == 3
        assert out == ""
        assert "at least 20 samples" in err


class TestConfigFile:
    def test_mc_samples_override(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("# comment\nmc_samples = 12345\nignored_key = 7\n")
        monkeypatch.setenv("CONCRETE_GEOM_CONFIG", str(cfg))
        _, out, _ = run_cli(["round", "--beta", "1,1", "--seed", "0"], capsys)
        assert json.loads(out)["mc_samples"] == 12345

    def test_flag_beats_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("mc_samples=12345\n")
        monkeypatch.setenv("CONCRETE_GEOM_CONFIG", str(cfg))
        _, out, _ = run_cli(
            ["round", "--beta", "1,1", "--seed", "0", "-n", "777"], capsys
        )
        assert json.loads(out)["mc_samples"] == 777


class TestErrors:
    def test_usage_error(self, capsys):
        code, _, err = run_cli(["sample", "--beta", "nope", "--tau", "1"], capsys)
        assert code == 1
        assert "usage" in err

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(["sample", "--tau", "1"], capsys)
        assert code == 1

    def test_domain_error(self, capsys):
        for argv in (
            ["sample", "--beta", "1,2", "--tau", "-1"],
            ["fisher", "--beta", "1,2", "--tau", "1e200"],
            ["fisher", "--beta", "1,2", "--tau", "1e-170", "--full"],
            ["moments", "--beta", "1,2", "--tau", "1e-200"],
            ["distance", "--beta-a", "1,2", "--tau-a", "1e-300",
             "--beta-b", "1,2", "--tau-b", "1e300"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 3, argv
            assert out == ""
            assert err.startswith("error:")

    def test_nonpositive_beta(self, capsys):
        code, _, _ = run_cli(["pdf", "--beta", "0,2", "--tau", "1",
                              "--x", "0.5,0.5"], capsys)
        assert code == 3
