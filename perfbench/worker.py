"""One fresh process that runs a workload's invocations through ipdlab.cli.main.

    python3 perfbench/worker.py SRC_DIR WORKLOAD SEED SECONDS MODE DIRECTORY RESULT

MODE is `plain` (no spans) or `trace` (invocations alternate between
traced and untraced, starting traced).  It makes one untimed warm-up
invocation and then timed ones until SECONDS have passed since it
started, at least MIN_SAMPLES of them, then writes RESULT as JSON.  Only
the last invocation's artifacts stay in DIRECTORY; every invocation's
sha256 digests go into RESULT.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracer
from calibrate import REFERENCE_S, calibrate, cpu_seconds
from workloads import RATES, WORKLOADS

MIN_SAMPLES = 3


def import_package(src_dir):
    sys.path.insert(0, src_dir)
    import ipdlab
    import ipdlab.cli

    where = os.path.dirname(os.path.abspath(ipdlab.__file__))
    if where != os.path.join(os.path.abspath(src_dir), "ipdlab"):
        raise SystemExit(f"imported ipdlab from {where}, not from {src_dir}")
    return ipdlab


def invoke(package, workload, seed, directory):
    """Run one invocation; returns (times, exit codes, artifact digests).

    times holds the invocation's wall and CPU seconds and its `scaled_s`
    seconds: each command line's CPU time in seconds of the baseline
    host, by the mean of the calibrations run just before and after it
    (calibrate.py), summed.  Calibrating around every command line
    follows the host's speed through long invocations; the calibrations
    of one invocation add up to one whole task.
    """
    for name in workload.artifacts:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(directory, name))
    rates = []
    codes = []
    commands = workload.command_lines(seed, directory)
    share = 1 / (len(commands) + 1)
    times = {"wall_s": 0.0, "cpu_s": 0.0, "scaled_s": 0.0}
    before = calibrate(share)
    for argv in commands:
        out = io.StringIO()
        start, cpu_start = time.perf_counter(), cpu_seconds()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(package.cli.main(argv))
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        after = calibrate(share)
        times["wall_s"] += wall
        times["cpu_s"] += cpu
        times["scaled_s"] += cpu * REFERENCE_S / ((before + after) / 2)
        before = after
        if argv[0] == "rates":
            rates.append(out.getvalue())
    if RATES in workload.artifacts:
        text = "".join(line for chunk in rates for line in chunk.splitlines(True)
                       if not line.startswith("#"))
        with open(os.path.join(directory, RATES), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    digests = {}
    for name in workload.artifacts:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return times, codes, digests


def check_backend_parity(package, workload, seed, directory):
    """Replay one invocation with every batch on both backends; True if all agree."""
    import numpy as np

    kernels = package.kernels
    original = kernels.play_batch
    agree = []

    def both(progs_a, progs_b, turns, noise, seeds, backend=None):
        outs = [original(progs_a, progs_b, turns, noise, seeds, backend=name)
                for name in ("numpy", "numba")]
        agree.append(all(np.array_equal(x, y) for x, y in zip(*outs)))
        return outs[0]

    undo = tracer.patch(original, both)
    try:
        invoke(package, workload, seed, directory)
    finally:
        tracer.unpatch(undo)
    return all(agree)


def main(argv):
    src_dir, name, seed, seconds, mode, directory, result_path = argv
    seed, seconds = int(seed), float(seconds)
    workload = WORKLOADS[name]
    package = import_package(src_dir)
    numba = getattr(package.kernels, "HAS_NUMBA", False)  # ipdlab's own import test
    result = {
        "backend": package.kernels.active_backend(),
        "numba_importable": numba,
        "numpy": sys.modules["numpy"].__version__,
        "python": platform.python_version(),
        "invocations": [],
    }

    trace = None
    if mode == "trace":
        trace = tracer.Tracer(package)
        result["missing_boundaries"] = trace.missing
        build = getattr(package.strategies, "_build_default_registry", None)
        builds = [0.0]
        if build is None:
            trace.missing.append("ipdlab.strategies._build_default_registry")
        else:
            builds = []
            for _ in range(5):
                start = time.perf_counter()
                build()
                builds.append(time.perf_counter() - start)
        result["strategies.build_s"] = statistics.median(builds)

    def run(traced):
        if traced:
            trace.install()
        try:
            times, codes, digests = invoke(package, workload, seed, directory)
        finally:
            if traced:
                trace.uninstall()
        record = dict(times, traced=traced, codes=codes, digests=digests)
        if traced:
            record["layers"] = trace.layer_metrics(package.kernels, workload.evaluations)
            trace.clear()  # so that untraced invocations carry no span garbage
        return record

    deadline = time.perf_counter() + seconds
    result["warmup"] = run(False)
    while time.perf_counter() < deadline or len(result["invocations"]) < MIN_SAMPLES:
        traced = trace is not None and len(result["invocations"]) % 2 == 0
        result["invocations"].append(run(traced))
    if trace is not None and numba:
        result["backend_parity"] = check_backend_parity(package, workload, seed, directory)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
