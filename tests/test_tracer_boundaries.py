"""The benchmark's tracer finds ipdlab's layer boundaries by module and
function name, so a renamed function would leave its layer reading 0."""

import runpy
from pathlib import Path

import ipdlab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The numba kernel loop is gone; its entry stays until the tracer drops it.
STALE = {("kernels", "_batch_numba")}


def test_every_tracer_boundary_but_the_stale_one_names_an_ipdlab_function():
    # run_path compiles the file without writing a bytecode cache beside it
    boundaries = runpy.run_path(str(TRACER))["BOUNDARIES"]
    unresolved = {(module, name) for module, name, _span in boundaries
                  if not callable(getattr(getattr(ipdlab, module, None), name, None))}
    assert unresolved == STALE
