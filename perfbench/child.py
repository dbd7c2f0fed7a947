"""Child processes of the benchmark; run from the repository root with
``PYTHONPATH=src``.

    python3 perfbench/child.py probe WORKLOAD
        Fresh-process set-up: import numpy, then concrete_geom.cli; for the
        ``library`` workload also one warm-up pass at smoke sizes.  Prints
        the in-process timings as JSON.

    python3 perfbench/child.py reference
        The process-level reference of calibration.py: import numpy, run
        the reference task, print its seconds.

    python3 perfbench/child.py library SEED SECONDS SMOKE
        The untraced ``library`` workload: warm up, then run passes of the
        three batches until SECONDS have passed (at least three passes),
        checking every output.  Each pass starts with a reference-task
        timing (see calibration.py).  Prints (seconds, reference seconds)
        for every batch that passes its check as JSON.
"""

import json
import sys
import time

MIN_PASSES = 3


def probe(workload: str) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import concrete_geom.cli  # noqa: F401

    t2 = time.perf_counter()
    if workload == "library":
        import workloads as W

        inputs = W.library_inputs(0, W.SMOKE)
        for op in W.LIBRARY_OPS:
            op.run(inputs)
    t3 = time.perf_counter()
    return {"import_numpy_s": t1 - t0, "import_concrete_geom_s": t2 - t1, "warmup_s": t3 - t2}


def library(seed: int, seconds: float, smoke: bool) -> dict:
    import workloads as W
    from calibration import reference_time

    sizes = W.SMOKE if smoke else W.FULL
    warm = W.library_inputs(seed, W.SMOKE)
    for op in W.LIBRARY_OPS:
        op.run(warm)
    inputs = W.library_inputs(seed, sizes)
    samples = {op.name: [] for op in W.LIBRARY_OPS}
    work = {}
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        ref = reference_time()
        for op in W.LIBRARY_OPS:
            attempted += 1
            t0 = time.perf_counter()
            n, out = op.run(inputs)
            wall = time.perf_counter() - t0
            work[op.name] = n
            bad = op.check(out)
            if bad:
                failed += 1
                problems += [f"{op.name}: {msg}" for msg in bad]
            else:
                samples[op.name].append((wall, ref))
        passes += 1
    return {"samples": samples, "work": work, "problems": problems,
            "attempted": attempted, "failed": failed}


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "probe":
        result = probe(argv[1])
    elif mode == "reference":
        from calibration import reference_time

        result = reference_time()
    elif mode == "library":
        result = library(int(argv[1]), float(argv[2]), argv[3] == "1")
    else:
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
