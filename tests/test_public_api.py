"""The package's public names: what `from ipdlab import *` promises."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

import ipdlab

# The public names, in the order `from ipdlab import *` binds them.
PUBLIC_NAMES = [
    "Action", "CooperationReport", "DEFAULT_PAYOFFS", "EvolutionParams", "FsmParseError",
    "FsmSpec", "FsmValidationError", "GenerationRecord", "MatchConfig", "MatchRecord",
    "PayoffMatrix", "RankRow", "ReachabilityReport", "StrategyId", "TournamentConfig",
    "TournamentResult", "TransitionDiff", "UnknownStrategyError", "active_backend",
    "behaviorally_equivalent", "builtin_fsm", "compare_transitions", "cooperation_rates",
    "default_registry", "evolve", "fitness", "fsm_entry", "fsm_step", "generation_deltas",
    "load_fsm_file", "median_ranking", "mutate_fsm", "parse_fsm", "parse_fsm_line",
    "play_match", "prune_unreachable", "random_genome", "reachable_states",
    "read_generation_log", "read_history_dump", "roster_default", "run_tournament",
    "serialize_fsm", "serialize_fsm_line", "trace_match", "validate_fsm",
    "write_history_dump", "write_ranking_csv",
]


def test_every_public_name_resolves_once():
    assert len(ipdlab.__all__) == len(set(ipdlab.__all__))
    missing = [name for name in ipdlab.__all__ if not hasattr(ipdlab, name)]
    assert missing == []


def test_a_bare_import_loads_no_submodule_and_no_numpy(fresh_python):
    out = fresh_python("import sys, ipdlab; "
                       "print(sorted(m for m in sys.modules if m.startswith(('ipdlab.', 'numpy'))))")
    assert out == "[]\n"


def test_star_import_binds_the_public_names_in_order():
    namespace = {}
    exec("from ipdlab import *", namespace)
    del namespace["__builtins__"]
    assert ipdlab.__all__ == PUBLIC_NAMES
    assert list(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(ipdlab, name) for name in PUBLIC_NAMES)


def test_a_public_name_reads_its_module_as_it_is_now(monkeypatch):
    # nothing is cached on the package, so a patched module attribute shows through
    marker = object()
    monkeypatch.setattr(ipdlab.fsm, "parse_fsm", marker)
    assert ipdlab.parse_fsm is marker


def test_an_unknown_name_is_an_attribute_error():
    assert getattr(ipdlab, "nope", None) is None
    with pytest.raises(AttributeError, match="^module 'ipdlab' has no attribute 'nope'$"):
        ipdlab.nope


def test_dir_covers_the_public_names():
    assert set(PUBLIC_NAMES) <= set(dir(ipdlab))


def test_every_submodule_resolves_after_a_bare_import(fresh_python):
    names = sorted(path.stem for path in Path(ipdlab.__file__).parent.glob("*.py")
                   if path.stem != "__init__")
    out = fresh_python("import sys, ipdlab; print([getattr(ipdlab, name) is "
                       "sys.modules['ipdlab.' + name] for name in sys.argv[1:]])", *names)
    assert out == f"{[True] * len(names)}\n"
    assert set(names) <= set(dir(ipdlab))


def test_the_fsm_module_stands_alone(monkeypatch):
    # the text format and its Action need no kernel, so no numpy: fsm.py
    # imports nothing from the package and loads outside it
    spec = importlib.util.spec_from_file_location("fsm_alone", ipdlab.fsm.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "fsm_alone", module)
    spec.loader.exec_module(module)
    assert module.parse_fsm("fsm x\nstart 1 D\n1 C -> 1 D\n1 D -> 1 D\n").initial_action == 1
    assert ipdlab.Action is ipdlab.fsm.Action


def test_the_rng_module_stands_alone(monkeypatch):
    # seed derivation needs neither numpy nor the package: rng.py imports
    # hashlib alone, loads outside the package and derives its seeds
    spec = importlib.util.spec_from_file_location("rng_alone", ipdlab.rng.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "rng_alone", module)
    spec.loader.exec_module(module)
    names = vars(module).values()
    assert {value.__name__ for value in names if isinstance(value, types.ModuleType)} == {"hashlib"}
    assert {value.__module__ for value in names if callable(value)} == {"rng_alone"}
    parts = (9001, "fitness", "k\u00e9y")
    assert module.derive_seed(*parts) == ipdlab.rng.derive_seed(*parts)
    prefixes, tails = [(0, "match"), (2**64, "opp")], [("Random", "TitForTat", 3), (-1,)]
    assert module.derive_seeds(prefixes, tails) == ipdlab.rng.derive_seeds(prefixes, tails)
    assert module.SplitMix64(5).next_u64() == ipdlab.rng.SplitMix64(5).next_u64()
