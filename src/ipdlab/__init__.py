"""Iterated prisoner's dilemma lab.

Deterministic tournament engine, finite-state-machine strategy format
with reachability and equivalence analysis, memory-one cooperation
profiling, and an elitist evolutionary optimizer.  See the README for
the command-line interface; the pieces below are the library surface.

Nothing is imported with the package: a public name or a submodule
loads its module on first use (PEP 562), so a caller that never touches
the match kernel never imports numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_PUBLIC = {
    "evolution": """EvolutionParams GenerationRecord evolve fitness generation_deltas
                    mutate_fsm random_genome read_generation_log""",
    "fsm": """Action FsmParseError FsmSpec FsmValidationError ReachabilityReport
              TransitionDiff behaviorally_equivalent compare_transitions fsm_step
              load_fsm_file parse_fsm parse_fsm_line prune_unreachable reachable_states
              serialize_fsm serialize_fsm_line validate_fsm""",
    "game": "DEFAULT_PAYOFFS MatchConfig MatchRecord PayoffMatrix play_match trace_match",
    "kernels": "active_backend",
    "strategies": """StrategyId UnknownStrategyError builtin_fsm default_registry fsm_entry
                     roster_default""",
    "tournament": """CooperationReport RankRow TournamentConfig TournamentResult
                     cooperation_rates median_ranking read_history_dump run_tournament
                     write_history_dump write_ranking_csv""",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = {*_PUBLIC, "cli", "rng"}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Nothing is cached here, so ipdlab.X always reads X's module as it is now.
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
