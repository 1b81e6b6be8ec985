"""The package's public names: what `from ipdlab import *` promises."""

import importlib.util
import sys

import ipdlab


def test_every_public_name_resolves_once():
    assert len(ipdlab.__all__) == len(set(ipdlab.__all__))
    missing = [name for name in ipdlab.__all__ if not hasattr(ipdlab, name)]
    assert missing == []


def test_the_fsm_module_stands_alone(monkeypatch):
    # the text format and its Action need no kernel, so no numpy: fsm.py
    # imports nothing from the package and loads outside it
    spec = importlib.util.spec_from_file_location("fsm_alone", ipdlab.fsm.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "fsm_alone", module)
    spec.loader.exec_module(module)
    assert module.parse_fsm("fsm x\nstart 1 D\n1 C -> 1 D\n1 D -> 1 D\n").initial_action == 1
    assert ipdlab.Action is ipdlab.fsm.Action
