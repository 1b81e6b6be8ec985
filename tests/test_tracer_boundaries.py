"""The benchmark's tracer finds ipdlab's layer boundaries by module and
function name, so a renamed function would leave its layer reading 0."""

import json
import runpy
from pathlib import Path

import pytest

import ipdlab
from ipdlab.cli import main
from ipdlab.rng import derive_seeds

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The numba kernel loop is gone; its entry stays until the tracer drops it.
STALE = {("kernels", "_batch_numba")}


def test_every_tracer_boundary_but_the_stale_one_names_an_ipdlab_function():
    # run_path compiles the file without writing a bytecode cache beside it
    boundaries = runpy.run_path(str(TRACER))["BOUNDARIES"]
    unresolved = {(module, name) for module, name, _span in boundaries
                  if not callable(getattr(getattr(ipdlab, module, None), name, None))}
    assert unresolved == STALE


TOURNAMENT = ["tournament", "--seed", "0", "--histories", "dump.txt"]
EVOLVE = ["evolve", "--generations", "3", "--seed", "0", "--log", "log.csv"]


# Match seeds come from rng.derive_seeds, which the tracer does not wrap, so
# rng.derive_seed_calls counts only the single seeds (init, select, mutate).
@pytest.mark.parametrize("argv, counts", [
    (TOURNAMENT, (231, 0, 0, 1)),
    (EVOLVE, (3120, 133, 0, 4)),
], ids=["tournament", "evolve"])
def test_a_traced_default_run_counts_what_the_tracer_reads(tmp_path, monkeypatch, capsys,
                                                           argv, counts):
    # The counts come from Program attributes, kernels.KIND_FSM and
    # play_batch's parameter names; a rename would zero them silently.
    monkeypatch.chdir(tmp_path)
    tracer = runpy.run_path(str(TRACER))["Tracer"](ipdlab)
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics(ipdlab.kernels, 0)
    assert tracer.missing == ["ipdlab.kernels._batch_numba"]
    names = ("kernels.matches", "rng.derive_seed_calls", "kernels.redundant_matches",
             "kernels.play_batch_calls")
    assert {name: metrics[name] for name in names} == dict(zip(names, counts))


@pytest.mark.parametrize("argv, matches, batches", [
    (TOURNAMENT, 231, 1),
    (EVOLVE, 3120, 4),
], ids=["tournament", "evolve"])
def test_a_traced_run_packs_both_seats_of_a_batch_at_once(tmp_path, monkeypatch, capsys,
                                                          argv, matches, batches):
    # kernels.packed_programs counts _pack's first argument: both seats' rows
    monkeypatch.chdir(tmp_path)
    tracer = runpy.run_path(str(TRACER))["Tracer"](ipdlab)
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(ipdlab.kernels, 0)
    assert metrics["kernels.packed_programs"] == 2 * metrics["kernels.matches"] == 2 * matches
    spans = [name for name, *_ in tracer.spans]
    assert spans.count("kernels.pack") == spans.count("kernels.play_batch") == batches


# The seed count the tracer read before match seeds moved to derive_seeds.
@pytest.mark.parametrize("argv, calls, seeds", [
    (TOURNAMENT, 1, 140),  # the 14 pairs with Random, 10 repetitions each
    (EVOLVE, 8, 1430),  # 4 batches: 130 roots, and 10 seeds per genome against Random
], ids=["tournament", "evolve"])
def test_a_default_run_derives_its_match_seeds_in_one_call_per_batch(tmp_path, monkeypatch,
                                                                     capsys, argv, calls, seeds):
    monkeypatch.chdir(tmp_path)
    derived = []

    def counted(prefixes, tails):
        digests = derive_seeds(prefixes, tails)
        derived.append(len(digests) // 8)
        return digests

    for module in (ipdlab.tournament, ipdlab.evolution):
        monkeypatch.setattr(module, "derive_seeds", counted)
    assert main(argv) == 0
    assert (len(derived), sum(derived)) == (calls, seeds)


def test_a_tracer_built_right_after_a_bare_import_reads_the_pinned_counts(tmp_path, fresh_python):
    # The tracer patches the modules loaded when it is built, and it loads each
    # boundary's module itself, as `getattr(ipdlab, module)`.  The counts are
    # the ones test_a_traced_default_run_counts_what_the_tracer_reads pins for EVOLVE.
    names = ["kernels.matches", "rng.derive_seed_calls", "kernels.redundant_matches",
             "kernels.play_batch_calls"]
    out = fresh_python(
        "import contextlib, io, json, runpy, sys\n"
        "import ipdlab\n"
        "tracer = runpy.run_path(sys.argv[1])['Tracer'](ipdlab)\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ipdlab.cli.main(json.loads(sys.argv[2]))\n"
        "tracer.uninstall()\n"
        "metrics = tracer.layer_metrics(ipdlab.kernels, 0)\n"
        "print(json.dumps([code, tracer.missing, [metrics[n] for n in json.loads(sys.argv[3])]]))\n",
        str(TRACER), json.dumps(EVOLVE), json.dumps(names), cwd=tmp_path)
    assert json.loads(out) == [0, ["ipdlab.kernels._batch_numba"], [3120, 133, 0, 4]]
