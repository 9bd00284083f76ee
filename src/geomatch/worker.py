"""One worker thread next to the main thread, where a CPU is spare.

`diffnet` alone hands it work, through `split`: chain forwards, dense
backward products and Adam. `split` cuts a list of items in two by size
and runs the first part on the worker while the main thread runs the
rest. A job runs only `np.matmul`, ufuncs and indexing on arrays the main
thread allocated and neither writes nor frees until it has waited for the
job; it calls no traced function and builds no Tensor, so anything that
wraps those (a tracer) sees every call on the main thread. Each job
performs the same operations on the same operands as a single-threaded
run, so every result keeps its bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate


def spare_cpu() -> bool:
    """Whether the worker gets a CPU of its own: the process may run on two
    or more CPUs and BLAS runs one thread. BLAS reads its thread count on
    loading (OpenBLAS and MKL each from their own variable, then from
    OMP_NUM_THREADS), so the first of these variables that is set stands for
    it; with none set, BLAS runs a thread per CPU."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    blas = next((os.environ[var].strip() for var in
                 ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
                 if os.environ.get(var, "").strip()), None)
    return cpus > 1 and blas == "1"


_POOL: ThreadPoolExecutor | None = None
# Without a spare CPU a hand-off costs time and overlaps nothing (2-vCPU
# Xeon VM): on one CPU the worker made toy training about 4% slower, and
# next to BLAS threads on both CPUs it made a train stage 16-20% slower.
SPARE_CPU = spare_cpu()


def split(job, items, sizes, *args) -> None:
    """Run `job(items[:cut], *args)` on the worker thread while
    `job(items[cut:], *args)` runs here, then wait for it and raise its
    exception (with its own type), if this part raised none. The cut is the
    one whose first part's total of `sizes` is nearest half of all, the
    lower on a tie. A cut of 0, or no spare CPU, runs `job(items, *args)`
    here, once."""
    global _POOL
    ends = list(accumulate(sizes, initial=0))
    cut = min(range(len(ends)), key=lambda i: abs(2 * ends[i] - ends[-1]))
    if not cut or not SPARE_CPU:
        job(items, *args)
        return
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="geomatch-worker")
    future = _POOL.submit(job, items[:cut], *args)
    try:
        job(items[cut:], *args)
    finally:
        future.exception()      # waits, and lets this part's exception pass
    future.result()
