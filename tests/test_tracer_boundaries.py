"""The benchmark's tracer finds ipdlab's layer boundaries by module and
function name, so a renamed function would leave its layer reading 0."""

import runpy
from pathlib import Path

import pytest

import ipdlab
from ipdlab.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The numba kernel loop is gone; its entry stays until the tracer drops it.
STALE = {("kernels", "_batch_numba")}


def test_every_tracer_boundary_but_the_stale_one_names_an_ipdlab_function():
    # run_path compiles the file without writing a bytecode cache beside it
    boundaries = runpy.run_path(str(TRACER))["BOUNDARIES"]
    unresolved = {(module, name) for module, name, _span in boundaries
                  if not callable(getattr(getattr(ipdlab, module, None), name, None))}
    assert unresolved == STALE


@pytest.mark.parametrize("argv, counts", [
    (["tournament", "--seed", "0", "--histories", "dump.txt"], (231, 140, 0, 1)),
    (["evolve", "--generations", "3", "--seed", "0", "--log", "log.csv"], (3120, 1563, 0, 4)),
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
