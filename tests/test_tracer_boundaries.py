"""The benchmark's tracer finds ipdlab's layer boundaries by module and
function name, so a renamed function would leave its layer reading 0."""

import runpy
from pathlib import Path

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


def test_a_traced_default_tournament_counts_what_the_tracer_reads(tmp_path, capsys):
    # The counts come from Program attributes, kernels.KIND_FSM and
    # play_batch's parameter names; a rename would zero them silently.
    tracer = runpy.run_path(str(TRACER))["Tracer"](ipdlab)
    tracer.install()
    try:
        code = main(["tournament", "--seed", "0", "--histories", str(tmp_path / "dump.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics(ipdlab.kernels, 0)
    assert tracer.missing == ["ipdlab.kernels._batch_numba"]
    counts = ("kernels.matches", "rng.derive_seed_calls", "kernels.redundant_matches",
              "kernels.play_batch_calls")
    assert {name: metrics[name] for name in counts} == {
        "kernels.matches": 231, "rng.derive_seed_calls": 140,
        "kernels.redundant_matches": 0, "kernels.play_batch_calls": 1}
