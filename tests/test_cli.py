import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from concrete_geom import ConcreteParams, RngState, cli, oracle, sample_concrete
from concrete_geom.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def cli_env():
    """The environment of a CLI subprocess: this checkout's package, and
    stdout buffered as it is by default in a pipe."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def draws(beta, tau, n, seed):
    return sample_concrete(
        ConcreteParams(beta=np.array(beta.split(","), dtype=float), tau=float(tau)),
        RngState(seed), n,
    )


def expected_outputs(x, seed):
    """The JSON and CSV output of sample for the rows x: json.dumps over the
    nested list, and repr per CSV value."""
    header = ",".join(f"x{i + 1}" for i in range(x.shape[1]))
    rows = (",".join(map(repr, row)) for row in x.tolist())
    return (json.dumps({"samples": x.tolist(), "seed": seed}) + "\n",
            "\n".join([header, *rows]) + "\n")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# n at which sample at K = 2 goes from one formatting process to two.
_TWO_PROCESSES_K2 = cli.MIN_VALUES_PER_PROCESS


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
        # one below, at and above the first forked formatter
        ("1,2", "0.7", _TWO_PROCESSES_K2 - 1, 2, 0),
        ("1,2", "0.7", _TWO_PROCESSES_K2, 3, 0),
        ("1,2", "0.7", _TWO_PROCESSES_K2 + 1, 4, 0),
        ("1,2,3", "0.7", 100_001, 5, 0),
        ("1,2,3,4,5,6,7,8", "0.7", 4_001, 6, 0),
    ])
    def test_rows_match_json_and_repr_exactly(self, capsys, beta, tau, n, seed, zero_rows):
        # The rows are written through one %r template per chunk; the bytes
        # must be those of json.dumps over the nested list and of repr per
        # CSV value.
        x = draws(beta, tau, n, seed)
        assert int(np.sum(np.any(x == 0.0, axis=1))) == zero_rows
        want_json, want_csv = expected_outputs(x, seed)
        argv = ["sample", "--beta", beta, "--tau", tau, "-n", str(n), "--seed", str(seed)]
        code, out_json, _ = run_cli(argv, capsys)
        assert code == 0
        assert out_json == want_json

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        assert json.loads(out_json, parse_constant=reject)["seed"] == seed
        code, out_csv, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        assert out_csv == want_csv
        assert_no_child_left()


class TestParallelRows:
    """sample formats its rows in contiguous chunks, one forked child per
    chunk after the first; the bytes must not depend on the chunking."""

    CASES = [
        ("1,2", "1.0", 1, 0),
        ("1,2", "0.7", 7, 1),
        ("1,2,3", "0.01", 2000, 0),  # 7 rows with exact zeros
        ("1,2,3,4,5,6,7,8", "0.7", 301, 2),
    ]

    def outputs(self, capsys, beta, tau, n, seed):
        argv = ["sample", "--beta", beta, "--tau", tau, "-n", str(n), "--seed", str(seed)]
        outs = []
        for fmt in ("json", "csv"):
            code, out, err = run_cli(argv + ["--format", fmt], capsys)
            assert (code, err) == (0, "")
            outs.append(out)
        assert_no_child_left()
        return tuple(outs)

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("beta, tau, n, seed", CASES)
    def test_forced_chunks(self, capsys, monkeypatch, processes, beta, tau, n, seed):
        monkeypatch.setattr(cli, "_formatters", lambda values: processes)
        want = expected_outputs(draws(beta, tau, n, seed), seed)
        assert self.outputs(capsys, beta, tau, n, seed) == want

    def test_more_processes_than_rows(self, capsys, monkeypatch):
        # chunk bounds n * i // 5 = 0, 0, 0, 1, 1, 2: three of the five
        # chunks are empty, one of them after a row
        monkeypatch.setattr(cli, "_formatters", lambda values: 5)
        args = ("1,2,3", "0.7", 2, 3)
        assert self.outputs(capsys, *args) == expected_outputs(draws(*args), 3)

    def test_without_fork(self, capsys, monkeypatch):
        args = ("1,2,3", "0.7", _TWO_PROCESSES_K2, 1)
        want = expected_outputs(draws(*args), 1)
        monkeypatch.delattr(os, "fork", raising=False)
        assert cli._formatters(3 * _TWO_PROCESSES_K2) == 1
        assert self.outputs(capsys, *args) == want

    def test_failed_child_is_formatted_by_the_parent(self, capsys, monkeypatch):
        parent = os.getpid()
        format_rows = cli._format_rows

        calls_in_parent = []

        def fails_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("formatter failed")
            calls_in_parent.append(len(args[0]))
            return format_rows(*args)

        monkeypatch.setattr(cli, "_formatters", lambda values: 3)
        monkeypatch.setattr(cli, "_format_rows", fails_in_child)
        args = ("1,2,3,4,5,6,7,8", "0.7", 301, 2)
        assert self.outputs(capsys, *args) == expected_outputs(draws(*args), 2)
        # chunk 0 and both failed chunks, for JSON and for CSV
        assert calls_in_parent == [100 * 8, 100 * 8, 101 * 8] * 2

    def test_failed_write_reaps_every_child(self, monkeypatch):
        class ClosedStdout:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(cli, "_formatters", lambda values: 3)
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        # each child's chunk overfills its pipe, so it blocks until the
        # parent closes the read end
        with pytest.raises(BrokenPipeError):
            cli._write_rows(draws("1,2,3", "0.7", 30_000, 0), ",", "\n")
        assert_no_child_left()

    @pytest.mark.parametrize("sep, row_sep, brackets", [(",", "\n", ""), (", ", ", ", "[]")],
                             ids=["csv", "json"])
    def test_parent_peak_memory(self, monkeypatch, sep, row_sep, brackets):
        # Each chunk is formatted from a copy of its own rows, not from a
        # C-order copy of all of x.  With two formatters the parent's traced
        # peak is its chunk's floats and text: 4.1 (n, K) blocks, 5.1 with
        # the whole copy.
        monkeypatch.setattr(cli, "_formatters", lambda values: 2)
        x = draws("1,2,3", "0.7", 100_000, 0)
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                cli._write_rows(x, sep, row_sep, brackets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert_no_child_left()
        assert peak <= 4.5 * x.nbytes, peak / x.nbytes

    def test_formatters_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        m = cli.MIN_VALUES_PER_PROCESS
        assert [cli._formatters(v) for v in (1, m - 1, m, 2 * m - 1, 2 * m, 3 * m, 9 * m)] \
            == [1, 1, 1, 1, 2, 3, 4]


class TestProcessOutput:
    def test_warning_free_and_identical_to_one_process(self):
        # -W error turns any warning into a failure, such as a warning about
        # fork in a process with threads; stderr must stay empty.
        argv = ["sample", "--beta", "1,2,3", "--tau", "0.7", "-n", "100000",
                "--seed", "4", "--format", "csv"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "concrete_geom.cli", *argv],
            capture_output=True, env=cli_env(), timeout=120,
        )
        x = draws("1,2,3", "0.7", 100_000, 4)
        serial = cli._format_rows(np.ascontiguousarray(x).ravel().tolist(), 3, ",", "\n")
        assert proc.stderr == b""
        assert proc.returncode == 0
        assert proc.stdout == ("x1,x2,x3\n" + serial + "\n").encode()

    @staticmethod
    def sample_process(n, stdout):
        # Its own process group, so that a failure can kill any formatter
        # it forked along with it.
        return subprocess.Popen(
            [sys.executable, "-m", "concrete_geom.cli", "sample", "--beta", "1,2,3",
             "--tau", "0.7", "-n", str(n), "--format", "csv"],
            stdout=stdout, stderr=subprocess.PIPE, env=cli_env(), start_new_session=True,
        )

    @staticmethod
    def finish(proc):
        """stderr and exit code; EOF on stderr means that no forked
        formatter outlived the command."""
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        return err, proc.returncode

    def test_reader_closes_after_one_line(self):
        proc = self.sample_process(100_000, subprocess.PIPE)
        assert proc.stdout.readline() == b"x1,x2,x3\n"
        proc.stdout.close()
        assert self.finish(proc) == (b"", cli.EXIT_BROKEN_PIPE) == (b"", 141)

    @pytest.mark.parametrize("n", [1, 100_000])
    def test_stdout_closed_from_the_start(self, n):
        # One row fails only in the final flush; 100,000 rows fail in the
        # first write, with a forked formatter running.
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self.sample_process(n, w)
        finally:
            os.close(w)
        assert self.finish(proc) == (b"", 141)


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

    def test_beta_sum_past_float_range(self, capsys):
        # sum(beta) overflows; the matrix is that of beta = (1, 1), with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(["fisher", "--beta", "1e308,1e308", "--tau", "1"], capsys)
        assert code == 0
        _, want, _ = run_cli(["fisher", "--beta", "1,1", "--tau", "1"], capsys)
        assert out == want


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

    @pytest.mark.parametrize("beta", ["1,2,3", "0.5,1,2,8"])
    def test_frequencies_are_the_rounding_checks_estimates(self, capsys, beta):
        # round and the oracle's rounding group share one tally.
        _, out, _ = run_cli(["round", "--beta", beta, "--tau", "0.7", "-n", "20000",
                             "--seed", "5"], capsys)
        b = np.array([float(v) for v in beta.split(",")])
        checks = oracle._rounding_checks(b, 0.7, RngState(5), 20_000)
        assert json.loads(out)["mc_frequencies"] == [c.estimate for c in checks]

    def test_beta_sum_past_float_range(self, capsys):
        # sum(beta) overflows: the probabilities were [0.0, 0.0] after a
        # numpy overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(["round", "--beta", "1e308,1e308", "--tau", "1", "-n", "10"],
                                   capsys)
        assert code == 0
        assert json.loads(out)["probabilities"] == [0.5, 0.5]


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
        proc = subprocess.run(
            [sys.executable, "-c", _VMHWM_CHILD, "verify", "--k", "8", "--seed", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=cli_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        hwm_kb = int(proc.stderr.split("VmHWM:")[1].split()[0])
        assert hwm_kb <= 80 * 1024

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_report_bytes_do_not_depend_on_blas_threads(self, k):
        # The K = 3 quadrature sum once ran as a threaded BLAS ddot, whose
        # last bits depended on the thread count.
        argv = [sys.executable, "-m", "concrete_geom.cli", "verify", "--k", str(k),
                "-n", "2000", "--seed", "0"]
        outs = [
            subprocess.run(argv, capture_output=True, timeout=120,
                           env={**cli_env(), "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")
        ]
        assert [(p.returncode, p.stderr) for p in outs] == [(0, b"")] * 2
        assert outs[0].stdout == outs[1].stdout

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


# The variable through which earlier releases read mc_samples from a file.
OLD_CONFIG_VAR = "_".join(("CONCRETE", "GEOM", "CONFIG"))


class TestConfigFile:
    def test_fisher_ignores_it(self, tmp_path, monkeypatch, capsys):
        # -n alone sets the sample count: no command reads a config file
        # named by the environment, whether it is missing or sets mc_samples.
        cfg = tmp_path / "cfg"
        cfg.write_text("mc_samples=12345\n")
        outputs = {}
        for argv in (["fisher", "--beta", "1,2", "--tau", "1"],
                     ["round", "--beta", "1,1", "--seed", "0"],
                     ["verify", "--k", "2", "-n", "20"]):
            monkeypatch.delenv(OLD_CONFIG_VAR, raising=False)
            expected = run_cli(argv, capsys)
            for path in (tmp_path / "missing", cfg):
                monkeypatch.setenv(OLD_CONFIG_VAR, str(path))
                assert run_cli(argv, capsys) == expected, (argv, path)
            assert expected[0] in (0, 2), argv
            outputs[argv[0]] = expected[1]
        assert json.loads(outputs["round"])["mc_samples"] == 100000


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
            # in-window beta whose canonical form underflows to 0: was NonPositiveEntry
            ["fisher", "--beta", "1e-200,1e200", "--tau", "1"],
            ["moments", "--beta", "1,2", "--tau", "1e-200"],
            ["distance", "--beta-a", "1,2", "--tau-a", "1e-300",
             "--beta-b", "1,2", "--tau-b", "1e300"],
            # in-window beta whose canonical form underflows to 0: was a NaN distance
            ["distance", "--beta-a", "1e-200,1e200", "--tau-a", "1",
             "--beta-b", "1e200,1e-200", "--tau-b", "1"],
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
            ["verify", "--k", str(oracle.MAX_SUITE_K + 1), "-n", "2"],
            ["verify", "--k", "1000", "-n", "2"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the case
                code, out, err = run_cli(argv, capsys)
            assert code == 3, argv
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_nonfinite_tau(self, capsys, tau):
        code, out, err = run_cli(["sample", "--beta", "1,2", "--tau", tau], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: temperature must be positive and finite, got {tau}\n"

    def test_nonpositive_beta(self, capsys):
        code, _, _ = run_cli(["pdf", "--beta", "0,2", "--tau", "1",
                              "--x", "0.5,0.5"], capsys)
        assert code == 3
