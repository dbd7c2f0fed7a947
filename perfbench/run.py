"""Benchmark of concrete-geom: CLI wall time and library throughput.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see perfbench/README.md): ``verify`` runs ``verify --k 2/3/4``,
``sample`` runs ``sample`` as JSON and CSV and ``round``, ``library`` runs
batches of public API calls.  Load is a closed loop with one client: one
operation at a time, each run after the previous one has finished.

With ``--trace 0`` the operations run as separate processes (CLI) or in a
child process (library) with no instrumentation, and the end-to-end metrics
are printed.  With ``--trace 1`` every workload's operations run once
in-process with spans around each call between modules, timing loops
measure single functions, and the per-layer metrics are printed.

The second-to-last line of stdout is a JSON detail record (environment,
sample counts and quartiles, failed verify checks, per-layer self time);
the last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--smoke`` runs every workload at tiny sizes, both traced
and untraced, and checks that every metric named in BENCHMARK.json is
reported with its unit and sample count.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
OP_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


if not (SRC / "concrete_geom" / "__init__.py").is_file():
    _fail(f"no concrete_geom sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))
os.environ.pop("CONCRETE_GEOM_CONFIG", None)  # the caller's MC budget must not leak in

import numpy as np  # noqa: E402

import concrete_geom  # noqa: E402
import perlayer  # noqa: E402
import workloads as W  # noqa: E402
from calibration import REF_PROCESS_S, REF_S, reference_time  # noqa: E402
from tracing import Tracer  # noqa: E402

if Path(concrete_geom.__file__).resolve().parent != SRC / "concrete_geom":
    _fail(f"imported concrete_geom from {concrete_geom.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(args: list) -> tuple:
    """Run a Python child from the repository root; (exit code, stdout, wall s).

    A child that outlives ``OP_TIMEOUT_S`` is killed and reported as exit -9.
    """
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -9, "", time.perf_counter() - t0
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def reference_process() -> float:
    """Wall seconds of the process-level reference (see calibration.py)."""
    return run_process(["perfbench/child.py", "reference"])[2]


def in_reference_s(samples: list, nominal: float) -> list:
    """(seconds, reference seconds) pairs -> reference seconds."""
    return [raw * nominal / ref for raw, ref in samples]


def quartiles(samples: list, nominal: float) -> dict:
    """Sample count, median and quartiles in reference seconds, plus the raw
    median seconds and the median reference."""
    values = in_reference_s(samples, nominal)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "raw_median_s": statistics.median(raw for raw, _ in samples),
            "reference_median_s": statistics.median(ref for _, ref in samples)}


# ------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "concrete_geom_config": "cleared for children",
    }


# ------------------------------------------------------------------- set-up


def setup_probes(workload: str, count: int) -> tuple:
    """Fresh-process set-up as (seconds, reference seconds) pairs, each
    probe's in-process timings and the failure count.

    One untimed probe first, so byte-code compilation is not counted.
    """
    probe = ["perfbench/child.py", "probe", workload]
    run_process(probe)
    walls, parts, failed = [], [], 0
    for _ in range(count):
        ref = reference_process()
        code, out, wall = run_process(probe)
        if code != 0:
            failed += 1
            continue
        walls.append((wall, ref))
        parts.append({**json.loads(out), "reference_s": ref})
    return walls, parts, failed


# --------------------------------------------------------- untraced (e2e)


def cli_workload(workload: str, seed: int, seconds: float, sizes: W.Sizes) -> dict:
    """Round-robin over the workload's CLI ops, one process at a time, for
    ``seconds`` (at least ``MIN_PASSES`` full passes).  An op is not started
    when its previous run would take it past ``seconds``.  Only runs that
    pass their check are timed into ``samples``.

    The first output of each op is checked in full; every later output must
    be byte-identical to it, as the CLI promises for a fixed seed.
    """
    ops = W.cli_ops(workload, seed, sizes)
    samples = {op.name: [] for op in ops}
    first, infos, problems, last = {}, {}, [], {}
    attempted = failed = 0
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= MIN_PASSES * len(ops) and (
                time.perf_counter() - start + last[op.name] > seconds):
            break
        t0 = time.perf_counter()
        attempted += 1
        ref = reference_process()
        code, out, wall = run_process(["-m", "concrete_geom.cli", *op.argv])
        if op.name not in first:
            first[op.name] = (code, out)
            infos[op.name] = op.check(code, out)
            bad = infos[op.name]["problems"]
        elif (code, out) != first[op.name]:
            bad = ["output differs from the first run at the same seed"]
        else:
            bad = infos[op.name]["problems"]
        if bad:
            failed += 1
            problems += [f"{op.name}: {msg}" for msg in bad]
        else:
            samples[op.name].append((wall, ref))
        last[op.name] = time.perf_counter() - t0
    return {"ops": ops, "samples": samples, "infos": infos,
            "problems": problems, "attempted": attempted, "failed": failed}


def library_workload(seed: int, seconds: float, sizes: W.Sizes) -> dict:
    smoke = "1" if sizes == W.SMOKE else "0"
    code, out, _ = run_process(["perfbench/child.py", "library", str(seed), str(seconds), smoke])
    if code != 0:
        return {"samples": {}, "work": {},
                "problems": [f"library child exit {code}"], "attempted": 1, "failed": 1}
    return json.loads(out)


def measure_e2e(workload: str, seed: int, seconds: float, sizes: W.Sizes) -> tuple:
    """End-to-end metrics as {name: (value, samples)}, with counts and detail."""
    walls, _, probe_failed = setup_probes(workload, sizes.setup_probes)
    if workload == "library":
        res = library_workload(seed, seconds, sizes)
        names = [op.name for op in W.LIBRARY_OPS]
        work = res["work"]
        nominal = REF_S
    else:
        res = cli_workload(workload, seed, seconds, sizes)
        names = [op.name for op in res["ops"]]
        work = {op.name: op.rows for op in res["ops"]}
        nominal = REF_PROCESS_S
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    samples = res["samples"]
    attempted = res["attempted"] + sizes.setup_probes
    failed = res["failed"] + probe_failed

    metrics = {"peak_rss_mb": (rss_mb, attempted)}
    if walls:
        metrics["setup_s"] = (statistics.median(in_reference_s(walls, REF_PROCESS_S)),
                              len(walls))
    ops = {}
    for i, name in enumerate(names):
        if samples.get(name):
            ops[f"op{i + 1}_s"] = {"op": name, **quartiles(samples[name], nominal)}
            metrics[f"op{i + 1}_s"] = (ops[f"op{i + 1}_s"]["median"], len(samples[name]))
    detail = {
        "workload": workload,
        "ops": ops,
        "setup_s": quartiles(walls, REF_PROCESS_S) if walls else None,
        "issue_names": _issue_names(workload, ops, work, res, attempted, failed),
        "problems": res["problems"],
    }
    return metrics, attempted, failed, detail


def _issue_names(workload: str, ops: dict, work: dict, res: dict,
                 attempted: int, failed: int) -> dict:
    """The same numbers under the per-workload names the benchmark's design
    notes use (rows/s, calls/s and the verify failure count)."""
    med = {v["op"]: v["median"] for v in ops.values()}
    out = {"fail_ratio": failed / attempted}
    if workload == "verify":
        failures = {op: info.get("failed_checks", []) for op, info in res["infos"].items()}
        out.update({f"{op}_s": t for op, t in med.items()})
        out["verify_checks_failed"] = {op: len(f) for op, f in failures.items()}
        out["verify_failed_check_names"] = failures
    elif workload == "sample":
        out.update({f"{op}_rows_per_s": work[op] / t for op, t in med.items()})
    else:
        rename = {"small_k": "small_k_calls_per_s", "large_k": "large_k_calls_per_s",
                  "scalar_integrand": "scalar_integrand_points_per_s"}
        out.update({rename[op]: work[op] / t for op, t in med.items()})
    return out


# -------------------------------------------------------- traced (per layer)


def measure_layers(workload: str, seed: int, sizes: W.Sizes) -> tuple:
    """Per-layer metrics; the tracing overhead is measured on ``workload``."""
    _, parts, probe_failed = setup_probes(workload, sizes.setup_probes)
    ops = perlayer.catalogue(seed, sizes)
    own = [op for op in ops if op.workload == workload]
    refs = {}  # (op name, traced) -> in-process reference seconds just before
    untraced = {}
    for op in own:
        refs[op.name, False] = reference_time()
        t0 = time.perf_counter()
        op.run()
        untraced[op.name] = time.perf_counter() - t0

    tracer = Tracer()
    outputs, walls = perlayer.traced_pass(
        tracer, ops, before=lambda op: refs.__setitem__((op.name, True), reference_time()))
    infos = {op.name: op.check(outputs[op.name]) for op in ops}
    problems = [f"{name}: {msg}" for name, info in infos.items() for msg in info["problems"]]
    failed = sum(bool(info["problems"]) for info in infos.values()) + probe_failed
    attempted = len(ops) + len(own) + sizes.setup_probes

    metrics = perlayer.span_metrics(tracer, ops, outputs, infos)
    metrics.update(perlayer.micro_metrics(seed, sizes))
    refs["after"] = reference_time()
    scale = REF_S / statistics.median(refs.values())
    metrics = {name: _in_reference(name, value, n, scale) for name, (value, n) in metrics.items()}
    for key in ("import_numpy_s", "import_concrete_geom_s"):
        values = [p[key] * REF_PROCESS_S / p["reference_s"] for p in parts]
        metrics[f"setup.{key}"] = (statistics.median(values), len(values))
    # The direct difference, each side scaled by the reference timed just
    # before it, is far noisier than the overhead itself; the metric is the
    # number of spans the workload's ops record times the cost of one span.
    traced_s = sum(walls[op.name] * REF_S / refs[op.name, True] for op in own)
    untraced_s = sum(untraced[op.name] * REF_S / refs[op.name, False] for op in own)
    own_spans = sum(1 for span in tracer.spans if span[4] in untraced)
    cost = perlayer.span_cost_s(sizes.micro_s) * scale
    metrics["trace.overhead_s"] = (own_spans * cost, own_spans)
    detail = {
        "workload": workload,
        "reference_task": {"median_s": statistics.median(refs.values()), "n": len(refs)},
        "tracing": {"traced_reference_s": traced_s, "untraced_reference_s": untraced_s,
                    "difference_reference_s": traced_s - untraced_s,
                    "spans": own_spans, "span_cost_reference_s": cost,
                    "overhead_reference_s": own_spans * cost},
        "self_s_by_op": {op.name: tracer.layer_self({op.name}) for op in ops},
        "verify_failed_check_names": {
            op.name: infos[op.name]["failed_checks"] for op in ops if op.workload == "verify"},
        "problems": problems,
    }
    return metrics, attempted, failed, detail


def _in_reference(name: str, value: float, n: int, scale: float) -> tuple:
    """Scale a per-layer value to reference seconds; the unit is in the name."""
    if name.endswith("_per_s"):
        return value / scale, n
    if name.endswith(("_s", "_ms", "_us", "_us_per_point")):
        return value * scale, n
    return value, n


# -------------------------------------------------------------------- main


def result_line(spec_metrics: list, metrics: dict, attempted: int, failed: int) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not measured, no run of their operation passed its check: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in spec_metrics},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: W.Sizes) -> tuple:
    if trace:
        return measure_layers(workload, seed, sizes)
    return measure_e2e(workload, seed, seconds, sizes)


def smoke() -> int:
    spec = load_spec()
    bad = 0
    for workload in W.WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            metrics, attempted, failed, _ = measure(workload, 0, 0.5, trace, W.SMOKE)
            listed = spec["per_layer" if trace else "end_to_end"]
            result = result_line(listed, metrics, attempted, failed)
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                print(f"{workload} trace={trace:d}: not in BENCHMARK.json: {sorted(extra)}")
                bad += 1
            for m in listed:
                value, n = metrics[m["name"]]
                if not (np.isfinite(value) and n >= 1
                        and result["metrics"][m["name"]] == {"value": value, "unit": m["unit"]}):
                    print(f"{workload} trace={trace:d}: {m['name']} = {value}, n={n}")
                    bad += 1
            if failed:
                print(f"{workload} trace={trace:d}: {failed} of {attempted} operations failed")
                bad += 1
            print(f"{workload} trace={trace:d}: {len(listed)} metrics, "
                  f"{attempted} ops, {time.perf_counter() - t0:.1f} s")
    print("smoke ok" if not bad else f"smoke FAILED ({bad} problems)")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment()
    metrics, attempted, failed, detail = measure(
        args.workload, args.seed, seconds, bool(args.trace), W.FULL)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    detail.update({
        "seed": args.seed, "seconds": seconds, "trace": args.trace, "env": env,
        "metrics": {name: {"value": v, "samples": n} for name, (v, n) in metrics.items()},
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(listed, metrics, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
