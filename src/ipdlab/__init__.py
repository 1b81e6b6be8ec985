"""Iterated prisoner's dilemma lab.

Deterministic tournament engine, finite-state-machine strategy format
with reachability and equivalence analysis, memory-one cooperation
profiling, and an elitist evolutionary optimizer.  See the README for
the command-line interface; the pieces below are the library surface.
"""

from .evolution import (
    EvolutionParams,
    GenerationRecord,
    evolve,
    fitness,
    generation_deltas,
    mutate_fsm,
    random_genome,
    read_generation_log,
)
from .fsm import (
    Action,
    FsmParseError,
    FsmSpec,
    FsmValidationError,
    ReachabilityReport,
    TransitionDiff,
    behaviorally_equivalent,
    compare_transitions,
    fsm_step,
    load_fsm_file,
    parse_fsm,
    parse_fsm_line,
    prune_unreachable,
    reachable_states,
    serialize_fsm,
    serialize_fsm_line,
    validate_fsm,
)
from .game import (
    DEFAULT_PAYOFFS,
    MatchConfig,
    MatchRecord,
    PayoffMatrix,
    play_match,
    trace_match,
)
from .kernels import active_backend
from .strategies import (
    StrategyId,
    UnknownStrategyError,
    builtin_fsm,
    default_registry,
    fsm_entry,
    roster_default,
)
from .tournament import (
    CooperationReport,
    RankRow,
    TournamentConfig,
    TournamentResult,
    cooperation_rates,
    median_ranking,
    read_history_dump,
    run_tournament,
    write_history_dump,
    write_ranking_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CooperationReport",
    "DEFAULT_PAYOFFS",
    "EvolutionParams",
    "FsmParseError",
    "FsmSpec",
    "FsmValidationError",
    "GenerationRecord",
    "MatchConfig",
    "MatchRecord",
    "PayoffMatrix",
    "RankRow",
    "ReachabilityReport",
    "StrategyId",
    "TournamentConfig",
    "TournamentResult",
    "TransitionDiff",
    "UnknownStrategyError",
    "active_backend",
    "behaviorally_equivalent",
    "builtin_fsm",
    "compare_transitions",
    "cooperation_rates",
    "default_registry",
    "evolve",
    "fitness",
    "fsm_entry",
    "fsm_step",
    "generation_deltas",
    "load_fsm_file",
    "median_ranking",
    "mutate_fsm",
    "parse_fsm",
    "parse_fsm_line",
    "play_match",
    "prune_unreachable",
    "random_genome",
    "reachable_states",
    "read_generation_log",
    "read_history_dump",
    "roster_default",
    "run_tournament",
    "serialize_fsm",
    "serialize_fsm_line",
    "trace_match",
    "validate_fsm",
    "write_history_dump",
    "write_ranking_csv",
]
