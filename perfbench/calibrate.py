"""A fixed CPU task that tells how fast the host runs Python right now.

The hosts this benchmark runs on are shared, and their speed drifts by
tens of percent for minutes at a time as other tenants load the cores
and caches.  The benchmark therefore times its workloads in CPU seconds,
which leave out the time spent waiting for a core, and times this task
next to them in the same thread.  Scaling a time by
REFERENCE_S / (this task's time) turns it into seconds on the baseline
host (perfbench/README.md) and cancels most of the remaining drift,
which slows both alike.  The task mixes the two kinds of work ipdlab
does: tuple and string handling in the interpreter, and many numpy
operations on small arrays.  It shares no code with ipdlab.
"""

import resource
import time

REFERENCE_S = 0.19  # about the CPU seconds of calibrate() on the idle baseline host
PY_ROUNDS = 10_000
NP_ROUNDS = 20_000


def cpu_seconds():
    """CPU seconds of this process, its threads and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate(share=1.0):
    """CPU seconds of this thread that the whole task takes, from `share` of it.

    This thread's time leaves out numpy's BLAS worker threads, which
    start when numpy is imported.  numpy is imported here, not at the
    top, so that a fresh interpreter can time `import ipdlab`, numpy
    included, before calibrating.
    """
    import numpy as np

    start = time.thread_time()
    table = {}
    length = 0
    for i in range(round(PY_ROUNDS * share)):
        text = ",".join(map(str, ((i * j) % 7 for j in range(24))))
        length += len(text)
        key = tuple(int(x) for x in text.split(","))
        table[key] = table.get(key, 0) + sum(key)
    base = np.arange(40, dtype=np.int64)
    total = 0
    for i in range(round(NP_ROUNDS * share)):
        mixed = (base * i) % 7
        total += int(np.where(mixed > 3, mixed, base)[::2].sum())
    if length <= 0 or total < 0 or not table:
        raise AssertionError("calibration task computed nothing")
    return (time.thread_time() - start) / share
