"""Machine-speed calibration.

On a shared host the CPU speed available to one process drifts by up to
about 2x, over seconds and over minutes, so raw wall times of the same code
differ by more between runs than any change worth detecting.  The benchmark
therefore times a fixed reference, which runs no concrete_geom code, right
before every operation, and reports each time in *reference seconds*:

    measured seconds * nominal reference seconds / measured reference seconds

That is the time the operation would take on a machine where the reference
takes its nominal time.  The median is taken over these per-operation
values.  Raw seconds are kept in the run's detail.

Two references, each like what it calibrates:

- in-process work (library batches, traced runs) uses ``reference_task``:
  interpreted float arithmetic, many small numpy calls and large array
  passes, nominally ``REF_S``;
- processes (CLI operations, set-up probes) use the wall time of a fresh
  process that starts Python, imports numpy and runs ``reference_time``
  (``python3 perfbench/child.py reference``), nominally ``REF_PROCESS_S``.
  Measured on a 2-core shared VM, it tracks a CLI process's wall time
  (correlation about 0.7) far better than the in-process task timed in the
  parent (about 0.2).
"""

import math
import statistics
import time

import numpy as np

REF_S = 0.010
REF_PROCESS_S = 0.25
REPEATS = 3


def reference_task() -> float:
    """Seconds taken by one run of the fixed reference computation."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += math.sqrt(i) * 0.5
    a = np.arange(1.0, 11.0)
    for _ in range(300):
        a = np.exp(np.log(a)) / np.sum(a) * 10.0
    b = np.random.default_rng(0).random(200_000)
    np.sort(np.exp(b))
    return time.perf_counter() - t0


def reference_time() -> float:
    """Median of ``REPEATS`` reference runs, in seconds."""
    return statistics.median(reference_task() for _ in range(REPEATS))
