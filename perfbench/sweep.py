"""Repeat the benchmark over ten seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/sweep.py --runs 10 --out perfbench/baseline.json

For every workload in BENCHMARK.json, runs ``perfbench/run.py --trace 0``
once per seed (seeds 0 to runs - 1) and reports, for each end-to-end
metric, the median and quartiles of the per-run values
(``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) / median`` next
to the metric's bound.  One traced run per workload, at seed 0, adds the
per-layer metrics and the tracing overhead.  Prints a table; ``--out`` also
writes the whole record as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list, bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, values = [], {}
        for seed in range(args.runs):
            detail, result = run_once(workload, seed, 0)
            record.setdefault("env", detail["env"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "ops": detail["ops"], "setup_s": detail["setup_s"],
                         "issue_names": detail["issue_names"],
                         "problems": detail["problems"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"runs": runs,
                 "metrics": {name: summarise(v, bounds[name]) for name, v in values.items()}}
        print(f"{workload}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed")
        for name, s in entry["metrics"].items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.3f}  bound {s['bound']}{flag}")
        detail, result = run_once(workload, 0, 1)
        entry["traced"] = {"seed": 0, "correct": result["correct"],
                           "tracing": detail["tracing"],
                           "verify_failed_check_names": detail["verify_failed_check_names"],
                           "metrics": detail["metrics"]}
        tracing = detail["tracing"]
        print(f"  traced: overhead {tracing['overhead_reference_s']:.3f} s "
              f"of {tracing['untraced_reference_s']:.3f} s untraced (reference seconds)")
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
