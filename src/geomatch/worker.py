"""One worker thread beside the main thread, where a CPU is spare.

`diffnet` and `sparse` hand it part of their work through `beside`. A job
runs only `np.matmul`, ufuncs and indexing on arrays the main thread
allocated and neither writes nor frees until it has waited for the job; it
calls no traced function and builds no Tensor, so anything that wraps those
(a tracer) sees every call on the main thread. Each job performs the same
operations on the same operands as a single-threaded run, so every result
keeps its bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


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
# beside BLAS threads on both CPUs it made a train stage 16-20% slower.
SPARE_CPU = spare_cpu()


@contextmanager
def beside(job, *args):
    """Run `job(*args)` on the worker thread while the block runs here;
    on leaving, wait for it and raise its exception (with its own type), if
    the block raised none. Without a spare CPU, run it here first instead.
    The job's return value is dropped: it hands results back through
    arrays or lists it was given."""
    global _POOL
    if not SPARE_CPU:
        job(*args)
        yield
        return
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="geomatch-worker")
    future = _POOL.submit(job, *args)
    try:
        yield
    finally:
        future.exception()      # waits, and lets the block's exception pass
    future.result()

