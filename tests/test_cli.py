import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from concrete_geom import ConcreteParams, RngState, sample_concrete
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

    @pytest.mark.parametrize("beta, tau, n, seed, zero_rows", [
        ("1,2", "1.0", 1, 0, 0),
        ("1,2,3", "0.01", 2000, 0, 7),  # README's known limit: softmax underflow
        ("1,2,3,4,5,6,7,8", "0.7", 500, 1, 0),
        ("1,2,3", "0.7", 10, 12345678901234567890, 0),
    ])
    def test_rows_match_json_and_repr_exactly(self, capsys, beta, tau, n, seed, zero_rows):
        # The rows are written through one %r template; the bytes must be those
        # of json.dumps over the nested list and of repr per CSV value.
        x = sample_concrete(
            ConcreteParams(beta=np.array(beta.split(","), dtype=float), tau=float(tau)),
            RngState(seed), n,
        )
        assert int(np.sum(np.any(x == 0.0, axis=1))) == zero_rows
        argv = ["sample", "--beta", beta, "--tau", tau, "-n", str(n), "--seed", str(seed)]
        code, out_json, _ = run_cli(argv, capsys)
        assert code == 0
        assert out_json == json.dumps({"samples": x.tolist(), "seed": seed}) + "\n"

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        assert json.loads(out_json, parse_constant=reject)["seed"] == seed
        code, out_csv, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        header = ",".join(f"x{i + 1}" for i in range(x.shape[1]))
        rows = (",".join(map(repr, row)) for row in x.tolist())
        assert out_csv == "\n".join([header, *rows]) + "\n"


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

    @pytest.mark.parametrize("tau", [0.01, 0.1, 0.7, 1.0, 5.0])
    def test_frequencies_of_sample_argmax(self, capsys, tau):
        # round ranks the logits; softmax is monotone, so the frequencies are
        # those of the argmax of the samples themselves.
        p = ConcreteParams(beta=np.array([1.0, 2.0, 3.0]), tau=tau)
        for seed in range(10):
            _, out, _ = run_cli(["round", "--beta", "1,2,3", "--tau", str(tau),
                                 "-n", "20000", "--seed", str(seed)], capsys)
            hits = np.argmax(sample_concrete(p, RngState(seed), 20_000), axis=1)
            want = [float(np.mean(hits == i)) for i in range(3)]
            assert json.loads(out)["mc_frequencies"] == want, seed


# Runs verify in a fresh interpreter and writes its own peak RSS (VmHWM) to
# stderr at exit; the report itself goes to stdout.
_VMHWM_CHILD = """
import sys
from concrete_geom.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


class TestVerify:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_peak_rss_at_k8(self):
        # The child's own high-water mark: ru_maxrss of a child can inherit
        # the parent's.  The Monte Carlo groups stream their features by row
        # block: 55 MB on a 2-core VM with numpy 2.4.6, where whole-array
        # features peaked at about 98 MB.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        env.pop("CONCRETE_GEOM_CONFIG", None)
        proc = subprocess.run(
            [sys.executable, "-c", _VMHWM_CHILD, "verify", "--k", "8", "--seed", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        hwm_kb = int(proc.stderr.split("VmHWM:")[1].split()[0])
        assert hwm_kb <= 80 * 1024

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
        # Holm over the Monte Carlo checks: 19 at K = 2, none failing.
        fw = data["familywise"]
        assert set(fw) == {"level", "mc_checks", "min_adjusted_p"}
        assert fw["level"] == 1e-3 and fw["mc_checks"] == 19
        assert fw["level"] < fw["min_adjusted_p"] <= 1.0

    def test_reproducible(self, capsys):
        argv = ["verify", "--k", "2", "--seed", "5", "-n", "20000"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_k_below_two(self, capsys):
        for k in ("1", "0", "-3"):
            code, out, err = run_cli(["verify", "--k", k], capsys)
            assert code == 3
            assert out == ""
            assert err.startswith("error:") and f"k = {k}" in err

    def test_too_few_samples(self, capsys):
        for n in ("1", "0"):
            code, out, err = run_cli(["verify", "--k", "2", "-n", n], capsys)
            assert code == 3
            assert out == ""
            assert err.startswith("error:") and "at least 2 samples" in err
        code, out, _ = run_cli(["verify", "--k", "2", "-n", "10"], capsys)
        assert code in (0, 2)
        assert json.loads(out)["checks"]


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

    @pytest.mark.parametrize("text", ["mc_samples=abc\n", "mc_samples = 1e5\n", b"\xff\xfe"])
    def test_bad_file_is_usage_error(self, tmp_path, monkeypatch, capsys, text):
        cfg = tmp_path / "cfg"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        monkeypatch.setenv("CONCRETE_GEOM_CONFIG", str(cfg))
        code, out, err = run_cli(["round", "--beta", "1,1", "--seed", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing", "."])
    def test_unreadable_file_is_usage_error(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv("CONCRETE_GEOM_CONFIG", str(tmp_path / name))
        code, out, err = run_cli(["verify", "--k", "2", "-n", "20"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_fisher_ignores_it(self, tmp_path, monkeypatch, capsys):
        # Only round and verify use mc_samples, so only they read the file.
        argv = ["fisher", "--beta", "1,2", "--tau", "1"]
        expected = run_cli(argv, capsys)
        monkeypatch.setenv("CONCRETE_GEOM_CONFIG", str(tmp_path / "missing"))
        assert run_cli(argv, capsys) == expected
        assert expected[0] == 0


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
            # tau outside [1e-150, 1e150]: the logits would overflow to +-inf
            ["sample", "--beta", "1,2,3", "--tau", "1e-308", "-n", "4"],
            ["round", "--beta", "1,2,3", "--tau", "1e-308", "-n", "100000"],
            ["fisher", "--beta", "1,2", "--tau", "1e200"],
            ["fisher", "--beta", "1,2", "--tau", "1e-170", "--full"],
            ["moments", "--beta", "1,2", "--tau", "1e-200"],
            ["distance", "--beta-a", "1,2", "--tau-a", "1e-300",
             "--beta-b", "1,2", "--tau-b", "1e300"],
            ["poincare", "--beta", "1,2", "--tau", "1e-300"],
            ["pdf", "--beta", "1,2", "--tau", "1e-200", "--x", "0.3,0.7"],
            ["pdf", "--beta", "1,2", "--tau", "1", "--alpha", "1e308,1", "--x", "0.3,0.7"],
            # alpha outside [1e-150, 1e150]: trigamma(alpha) would overflow
            ["pdf", "--beta", "1,1", "--tau", "1", "--alpha", "1e-310,1", "--x", "0.3,0.7"],
            ["moments", "--beta", "1,1", "--tau", "1", "--alpha", "1e-310,1"],
            ["moments", "--beta", "1,1", "--tau", "1", "--alpha", "1e-160,1"],
            # in-window alpha and tau whose trigamma(alpha) / tau^2 overflows
            ["moments", "--beta", "1,2", "--tau", "1e-150", "--alpha", "1e-150,1"],
            ["sample", "--beta", "1,2", "--tau", "1", "--seed", "-1"],
            ["round", "--beta", "1,2", "--seed", "-1"],
            ["verify", "--seed", "-1"],
            # above MAX_SUITE_K: rejected before the suite allocates K^3 indices
            ["verify", "--k", "9", "-n", "2"],
            ["verify", "--k", "1000", "-n", "2"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the case
                code, out, err = run_cli(argv, capsys)
            assert code == 3, argv
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_nonpositive_beta(self, capsys):
        code, _, _ = run_cli(["pdf", "--beta", "0,2", "--tau", "1",
                              "--x", "0.5,0.5"], capsys)
        assert code == 3
