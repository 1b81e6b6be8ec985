"""The paper's pipeline as CLI processes on files: profile the hand-built
FirstPrac from a tournament's dump, evolve from it (once straight through,
once killed and resumed), then prune the champion and check it against
itself."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ipdlab

GENERATIONS = "200"  # about 1 ms a generation: a kill after KILL_AT lines lands mid-run
KILL_AT = 10
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


def _killed_evolve(cwd, log, out):
    """Start _evolve(log, out) and SIGKILL it once its log holds KILL_AT lines."""
    proc = subprocess.Popen([sys.executable, "-m", "ipdlab.cli", *_evolve(log, out)], cwd=cwd,
                            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (cwd / log).exists() or (cwd / log).read_bytes().count(b"\n") < KILL_AT:
            assert proc.poll() is None, "the run ended before the kill"
            assert time.monotonic() < deadline, "the log did not grow"
            time.sleep(0.001)
        assert proc.poll() is None, "the run ended before the kill"
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL  # the kill, not the run's end, stopped it


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

    # 2. the search from FirstPrac, straight through and killed then resumed
    _cli(tmp_path, *_evolve("full.log", "best.fsm"))
    full = (tmp_path / "full.log").read_bytes()
    assert full.count(b"\n") == int(GENERATIONS) + 1  # generation 0 and every one after
    _killed_evolve(tmp_path, "killed.log", "killed.fsm")
    killed = (tmp_path / "killed.log").read_bytes()
    assert KILL_AT <= killed.count(b"\n") and len(killed) < len(full) and full.startswith(killed)
    assert not (tmp_path / "killed.fsm").exists()
    _cli(tmp_path, *_evolve("killed.log", "killed.fsm"), "--resume")
    assert (tmp_path / "killed.log").read_bytes() == full
    assert (tmp_path / "killed.fsm").read_bytes() == (tmp_path / "best.fsm").read_bytes()

    # 3. the champion without its unreachable states plays as it does
    _cli(tmp_path, "prune", "--in", "best.fsm", "--out", "pruned.fsm")
    assert _cli(tmp_path, "equiv", "--a", "best.fsm", "--b", "pruned.fsm").endswith("\nequivalent\n")
