"""ipdlab end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload {tournament,evolve,noisy_profile} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
`src/` directory, never from an installed copy.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).  The
last line of stdout is one JSON object; the `#` lines before it carry
the provenance, the sample counts and the artifact digests.  Every
artifact of every invocation is checked against an independent model
(reference.py) and, for the pinned seeds, against pinned sha256 digests.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from calibrate import REFERENCE_S
import reference
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))

DEFAULT_SEED = 0
HELDOUT_SEED = 9001  # for confirming a claim on a seed it was not tuned on
SETUP_SAMPLES = 9  # before the workload, and as many again after it
# A run may take --seconds of timed invocations plus this much for the
# fresh interpreters, warm-ups, the invocation that overruns, backend
# parity and the reference checks.
TIME_MARGIN_S = 140

# The main thread's CPU time: numpy's import starts BLAS worker threads
# whose start-up runs beside it and would be counted by process time.
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); from calibrate import calibrate; "
    "start = time.thread_time(); import ipdlab; took = time.thread_time() - start; "
    "print(repr(took), repr(calibrate()))"
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Outcome:
    results: list  # the workers' result records
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("the run exceeded its time limit")
    return left


def _run(argv, deadline, **kwargs):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline), **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} did not finish within the time limit") from None
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def import_times(count, deadline):
    """(thread CPU s of `import ipdlab`, calibration s) in count fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", IMPORT_SNIPPET, HERE]
    return [tuple(map(float, _run(argv, deadline, env=env).split()))
            for _ in range(count)]


def run_worker(workload, seed, seconds, mode, tag, deadline):
    directory = os.path.join(WORK, tag)
    os.makedirs(directory)
    result_path = os.path.join(directory, "result.json")
    _run([sys.executable, os.path.join(HERE, "worker.py"), SRC, workload, str(seed),
          str(seconds), mode, directory, result_path], deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["directory"] = directory
    return result


def verified_digests(workload, seed, directory):
    """Digests of the artifacts in directory if the model and the pins accept them."""
    texts, digests = {}, {}
    try:
        for name in WORKLOADS[workload].artifacts:
            with open(os.path.join(directory, name), "rb") as fh:
                raw = fh.read()
            texts[name] = raw.decode("utf-8")
            digests[name] = hashlib.sha256(raw).hexdigest()
        reference.check(workload, texts, SRC, seed)
    except (reference.Mismatch, OSError, KeyError, ValueError) as exc:
        print(f"# check failed: {exc}", file=sys.stderr)
        return None
    with open(os.path.join(HERE, "pinned_sha256.json"), encoding="utf-8") as fh:
        pinned = json.load(fh).get(str(seed), {}).get(workload)
    if pinned is not None and pinned != digests:
        print(f"# check failed: digests differ from the pinned ones for seed {seed}",
              file=sys.stderr)
        return None
    return digests


def failures(results, good):
    """(attempted, failed) invocations: a failure exits non-zero or writes other bytes."""
    invocations = [inv for r in results for inv in [r["warmup"]] + r["invocations"]]
    failed = sum(1 for inv in invocations
                 if good is None or inv["digests"] != good or any(inv["codes"]))
    return len(invocations), failed


def tail(samples):
    """Nearest-rank percentile with at least ten samples above it, or None."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n)
    if p <= 50:
        return None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def provenance(workload, seed, first):
    files = []
    for base, _, names in sorted(os.walk(os.path.join(SRC, "ipdlab"))):
        files += [os.path.join(base, n) for n in sorted(names)
                  if n.endswith((".py", ".fsm"))]
    source = hashlib.sha256()
    for path in files:
        source.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            source.update(fh.read())
    revision, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        revision = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                  text=True).stdout.strip() or "unknown"
        dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True).stdout.strip())
    return {
        "workload": workload, "seed": seed, "heldout_seed": HELDOUT_SEED,
        "git_revision": revision, "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "python": first["python"], "numpy": first["numpy"], "nproc": os.cpu_count(),
        "backend": first["backend"], "numba_importable": first["numba_importable"],
    }


def end_to_end(workload, seed, seconds, deadline):
    # Set-up is sampled on both sides of the workload, so that its median
    # covers the same stretch of host load as wall_s; the first
    # interpreter only warms the file cache and bytecode.
    imports = import_times(SETUP_SAMPLES + 1, deadline)[1:]
    result = run_worker(workload, seed, seconds, "plain", "plain", deadline)
    imports += import_times(SETUP_SAMPLES, deadline)
    good = verified_digests(workload, seed, result["directory"])
    attempted, failed = failures([result], good)
    invocations = result["invocations"]
    walls = [inv["scaled_s"] for inv in invocations]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "turns_per_s": (WORKLOADS[workload].logical_turns / wall, "turns/s"),
        # Each import in seconds of the baseline host, by its own calibration.
        "setup_s": (statistics.median(t * REFERENCE_S / c for t, c in imports), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    percentile = tail(walls)
    notes = [f"wall_s over {len(walls)} invocations after 1 warm-up"
             + (f"; p{percentile[0]} {percentile[1]:.6f} s" if percentile
                else "; too few for a tail percentile"),
             "unscaled medians: wall "
             f"{statistics.median(inv['wall_s'] for inv in invocations):.6f} s, CPU "
             f"{statistics.median(inv['cpu_s'] for inv in invocations):.6f} s",
             f"setup_s over {len(imports)} fresh imports; unscaled medians: import "
             f"{statistics.median(t for t, _ in imports):.6f} s, calibration "
             f"{statistics.median(c for _, c in imports):.6f} s",
             "digests " + json.dumps(good)]
    return Outcome([result], good is not None and failed == 0, attempted, failed,
                   metrics, notes)


def per_layer(workload, seed, seconds, deadline):
    results = [run_worker(workload, seed, seconds / 2, "trace", f"trace{i}", deadline)
               for i in (1, 2)]
    good = verified_digests(workload, seed, results[0]["directory"])
    attempted, failed = failures(results, good)
    traced = [inv for r in results for inv in r["invocations"] if inv["traced"]]
    untraced = [inv["wall_s"] for r in results for inv in r["invocations"]
                if not inv["traced"]]
    firsts = [next(inv["layers"] for inv in r["invocations"] if inv["traced"])
              for r in results]
    unequal = [name for name in tracer.EXACT_COUNTS if firsts[0][name] != firsts[1][name]]
    if unequal:
        print(f"# check failed: two traced runs counted differently: {unequal}",
              file=sys.stderr)
    parity = [r["backend_parity"] for r in results if "backend_parity" in r]
    if not all(parity):
        print("# check failed: numba and numpy backends disagree", file=sys.stderr)

    metrics = {}
    for name, value in firsts[0].items():
        unit = tracer.unit(name)
        if unit == "s":
            value = statistics.median(inv["layers"][name] for inv in traced)
        metrics[name] = (value, unit)
    metrics["strategies.build_s"] = (
        statistics.median(r["strategies.build_s"] for r in results), "s")
    traced_wall = statistics.median(inv["wall_s"] for inv in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    missing = sorted(set(results[0]["missing_boundaries"]))
    notes = [f"{len(traced)} traced and {len(untraced)} untraced invocations "
             "in two fresh processes; times are medians, counts are the first traced "
             "invocation's",
             "missing boundaries: " + (", ".join(missing) or "none"),
             "backend parity: " + ("checked" if parity else "not checked, numba not importable"),
             "digests " + json.dumps(good)]
    correct = good is not None and failed == 0 and not unequal and all(parity)
    return Outcome(results, correct, attempted, failed, metrics, notes)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ipdlab", "__init__.py")):
        print(f"error: no ipdlab source under {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
    try:
        measure = per_layer if args.trace else end_to_end
        outcome = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))

    print("# provenance "
          + json.dumps(provenance(args.workload, args.seed, outcome.results[0])))
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# error_rate = {outcome.failed / outcome.attempted:g} "
          f"({outcome.failed} of {outcome.attempted} invocations failed)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
