"""The paper's pipeline as CLI processes on files: profile the hand-built
FirstPrac from a tournament's dump, evolve from it (once straight through,
then killed at two log lengths and resumed), then prune the champion, check
it against itself and play both forms in the default tournament."""

import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ipdlab

GENERATIONS = "200"  # about 2 ms a generation: a kill after KILLS_AT lines lands mid-run
KILLS_AT = (10, 120)  # of the 201 lines an uninterrupted run logs
FULL_LOG_SHA256 = "0b5f243710181ddd0e75f477cd30e701c11c70bcbd7bd4b2146b1ff51c23919b"  # seed 0
FIRSTPRAC = Path(ipdlab.__file__).parent / "data" / "FirstPrac.fsm"

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGKILL") or not os.path.exists("/dev/stdin"),
                                reason="needs SIGKILL and /dev/stdin")


def _env():
    root = os.path.dirname(os.path.dirname(ipdlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))


def _cli(cwd, *argv, stdin=None):
    """stdout of `python -m ipdlab.cli *argv` in cwd, which must exit 0."""
    proc = subprocess.run([sys.executable, "-m", "ipdlab.cli", *argv], cwd=cwd, env=_env(),
                          input=stdin, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def _evolve(log, out):
    return ["evolve", "--seed-fsm", "FirstPrac.fsm", "--generations", GENERATIONS,
            "--log", log, "--out", out]


def _killed_evolve(cwd, log, out, kill_at):
    """Start _evolve(log, out) and SIGKILL it once its log holds kill_at lines; return how
    many lines the log held when it was first seen non-empty."""
    proc = subprocess.Popen([sys.executable, "-m", "ipdlab.cli", *_evolve(log, out)], cwd=cwd,
                            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    first = None
    try:
        deadline = time.monotonic() + 60
        seen = 0  # the log's size at the last look
        while True:  # no sleep between looks, so a look falls between two generations
            size = os.stat(cwd / log).st_size if (cwd / log).exists() else 0
            if size != seen:
                seen, lines = size, (cwd / log).read_bytes().count(b"\n")
                first = first or lines
                if lines >= kill_at:
                    break
            assert proc.poll() is None, "the run ended before the kill"
            assert time.monotonic() < deadline, "the log did not grow"
        assert proc.poll() is None, "the run ended before the kill"  # so it ran at every look
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL  # the kill, not the run's end, stopped it
    return first


def test_the_paper_pipeline_survives_a_kill(tmp_path):
    (tmp_path / "FirstPrac.fsm").write_bytes(FIRSTPRAC.read_bytes())

    # 1. the starting measurement: FirstPrac's cooperation rates in the default tournament
    _cli(tmp_path, "tournament", "--out", "ranking.csv", "--histories", "h.txt")
    dump = (tmp_path / "h.txt").read_bytes()
    from_file = _cli(tmp_path, "rates", "--in", "h.txt", "--player", "FirstPrac")
    assert "# player = FirstPrac\n# matches = 140\n" in from_file
    for player in ("FirstPrac", "firstprac"):  # a pipe is read once, the name resolved in that read
        from_pipe = _cli(tmp_path, "rates", "--in", "/dev/stdin", "--player", player, stdin=dump)
        assert from_pipe.replace("# in = /dev/stdin\n", "# in = h.txt\n") == from_file

    # 2. the search from FirstPrac, straight through, and killed then resumed at each KILLS_AT
    _cli(tmp_path, *_evolve("full.log", "best.fsm"))
    full = (tmp_path / "full.log").read_bytes()
    assert full.count(b"\n") == int(GENERATIONS) + 1  # generation 0 and every one after
    assert hashlib.sha256(full).hexdigest() == FULL_LOG_SHA256
    best = (tmp_path / "best.fsm").read_bytes()
    for kill_at in KILLS_AT:
        log, out = f"killed{kill_at}.log", f"killed{kill_at}.fsm"
        first = _killed_evolve(tmp_path, log, out, kill_at)
        # the log grows as the run goes: it is seen non-empty well before the first kill length
        # (at 1 to 3 lines in 60 kills on 2 cores), where a log written at the run's end shows 201
        assert first < KILLS_AT[0], f"the log first held {first} lines"
        killed = (tmp_path / log).read_bytes()
        assert kill_at <= killed.count(b"\n") and len(killed) < len(full) and full.startswith(killed)
        assert not (tmp_path / out).exists()
        _cli(tmp_path, *_evolve(log, out), "--resume")
        assert (tmp_path / log).read_bytes() == full
        assert (tmp_path / out).read_bytes() == best

    # 3. the champion, under a name no built-in uses, without its unreachable states plays as it
    # does: equivalent, and alike to the byte in the default tournament, with and without noise
    (tmp_path / "renamed.fsm").write_bytes(re.sub(rb"^fsm \S+", b"fsm Champion", best))
    _cli(tmp_path, "prune", "--in", "renamed.fsm", "--out", "pruned.fsm")
    assert _cli(tmp_path, "equiv", "--a", "renamed.fsm", "--b", "pruned.fsm").endswith("\nequivalent\n")
    for noise in ("0", "0.05"):
        outputs = []
        for machine in ("renamed", "pruned"):
            files = [f"{machine}.csv", f"{machine}.txt", f"{machine}.coop"]
            _cli(tmp_path, "tournament", "--roster", f"default,@{machine}.fsm", "--noise", noise,
                 "--out", files[0], "--histories", files[1], "--coop-report", files[2])
            outputs.append([(tmp_path / name).read_bytes() for name in files])
        assert b"Champion|" in outputs[0][1] and outputs[0] == outputs[1]
