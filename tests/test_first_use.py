"""The built-in registry and the CLI parser are built once, on first use:
importing ipdlab reads no file, and only the commands that play a built-in
(tournament, evolve, trace) read the bundled machines under data/."""

import json
import shutil
from pathlib import Path

import pytest

import ipdlab
from ipdlab import cli, default_registry
from ipdlab.cli import main

DATA = Path(ipdlab.__file__).parent / "data"

# In a fresh interpreter: count the calls of importlib.resources.files, and point
# them at sys.argv[1] unless it is empty, before the first ipdlab import; import
# every ipdlab module; then print, as JSON, for each argv of the JSON list in
# sys.argv[2], main's exit code, stdout, stderr and the calls counted so far.
RUN = """
import contextlib, importlib, importlib.resources, io, json, pathlib, pkgutil, sys
root, argvs = sys.argv[1], json.loads(sys.argv[2])
calls, real = [], importlib.resources.files
def files(package):
    calls.append(package)
    return pathlib.Path(root) if root else real(package)
importlib.resources.files = files
import ipdlab
for module in pkgutil.iter_modules(ipdlab.__path__):
    importlib.import_module(f"ipdlab.{module.name}")
from ipdlab.cli import main
runs = []
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue(), len(calls)])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A default tournament's dump, written with the bundled files, and two of them as FSM files."""
    folder = tmp_path_factory.mktemp("first_use")
    assert main(["tournament", "--turns", "20", "--reps", "2", "--noise", "0.05",
                 "--out", str(folder / "ranking.csv"), "--histories", str(folder / "h.txt")]) == 0
    for name in ("EvolvedFSM8", "EvolvedFSM6"):
        shutil.copyfile(DATA / f"{name}.fsm", folder / f"{name}.fsm")
    return folder


def _untouched(folder):
    """Commands that play no built-in."""
    return [["rates", "--in", str(folder / "h.txt"), "--player", "FirstPrac"],
            ["rates", "--in", str(folder / "h.txt"), "--player", "firstprac"],
            ["prune", "--in", str(folder / "EvolvedFSM8.fsm"), "--out", str(folder / "pruned.fsm")],
            ["equiv", "--a", str(folder / "EvolvedFSM8.fsm"), "--b", str(folder / "EvolvedFSM6.fsm")]]


def test_an_edited_bundled_file_stops_only_the_commands_that_play_a_built_in(
        inputs, tmp_path, capsys, fresh_python):
    shutil.copytree(DATA, tmp_path / "data")
    with open(tmp_path / "data" / "FirstPrac.fsm", "a", encoding="utf-8") as fh:
        fh.write("# one more line\n")
    untouched = _untouched(inputs)
    expected = []
    for argv in untouched:
        code = main(argv)
        expected.append([code, *capsys.readouterr()])
    pruned = (inputs / "pruned.fsm").read_bytes()
    (inputs / "pruned.fsm").unlink()
    assert [run[0] for run in expected] == [0] * len(untouched)
    played = [["tournament", "--turns", "5", "--reps", "1", "--out", str(tmp_path / "never.csv")],
              ["evolve", "--generations", "1", "--turns", "5", "--log", str(tmp_path / "never.log")],
              ["trace", "--a", "TitForTat", "--b", "Defector", "--turns", "3"]]

    runs = json.loads(fresh_python(RUN, str(tmp_path), json.dumps(untouched + played)))
    assert [run[:3] for run in runs[:len(untouched)]] == expected
    assert runs[len(untouched) - 1][3] == 0  # nor did they read any bundled file
    assert (inputs / "pruned.fsm").read_bytes() == pruned
    for code, out, err, _ in runs[len(untouched):]:
        assert (code, out) == (2, "")  # a data error, before any header
        assert err.startswith("error: built-in machine FirstPrac failed its checksum (expected ")
        assert err.count("\n") == 1  # and no traceback
    assert not (tmp_path / "never.csv").exists() and not (tmp_path / "never.log").exists()


def test_importing_every_module_and_running_rates_reads_no_bundled_file(inputs, fresh_python):
    argv = ["rates", "--in", str(inputs / "h.txt"), "--player", "TitForTat"]
    [[code, out, _, calls]] = json.loads(fresh_python(RUN, "", json.dumps([argv])))
    assert (code, calls) == (0, 0)
    assert "# matches = 28\n" in out
    assert default_registry() is default_registry()  # then built once, on first use
    assert cli._parser() is cli._parser()
