"""Stage game and match engine for the iterated prisoner's dilemma.

Two players pick Cooperate or Defect simultaneously each turn, collect
stage payoffs, and see what the other side just played before choosing
again.  Everything downstream (tournaments, the evolutionary search)
plays on the kernels in `kernels.py`, which follow the contract below,
so the engine is deterministic to the last bit: same strategies, same
config, same payoff matrix, same record.

Draw-order contract for one turn (the kernels follow it exactly):

1. player A picks (stochastic strategies draw one double from stream A),
2. player B picks (stream B),
3. if noise > 0, two doubles come off the noise stream, first for A's
   action then for B's; a draw below the noise level flips that action.

Strategies are shown the opponent's *recorded* (post-noise) action but
remember their *own* choice as made, so a trembling hand never confuses
a machine about its own state.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import kernels
from .rng import substream


class Action(IntEnum):
    """Cooperate or defect.  The integer values double as array indices."""

    C = 0
    D = 1

    def flip(self) -> "Action":
        return Action(self.value ^ 1)

    @classmethod
    def from_token(cls, token: str) -> "Action":
        if token == "C":
            return cls.C
        if token == "D":
            return cls.D
        raise ValueError(f"expected action token 'C' or 'D', got {token!r}")


@dataclass(frozen=True)
class PayoffMatrix:
    """Symmetric 2x2 payoff table.

    t: temptation (defect against a cooperator)
    r: reward (mutual cooperation)
    p: punishment (mutual defection)
    s: sucker (cooperate against a defector)

    A matrix is only a prisoner's dilemma when t > r > p > s and
    2r > t + s, so the constructor refuses anything else.
    """

    t: float = 5.0
    r: float = 3.0
    p: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        if not (self.t > self.r > self.p > self.s):
            raise ValueError(
                f"payoffs must satisfy t > r > p > s, got "
                f"t={self.t}, r={self.r}, p={self.p}, s={self.s}"
            )
        if not (2 * self.r > self.t + self.s):
            raise ValueError(
                "payoffs must satisfy 2r > t + s so alternating exploitation "
                "cannot beat mutual cooperation"
            )

    def as_array(self) -> np.ndarray:
        """2x2 float array indexed [own action, opponent action]."""
        return np.array([[self.r, self.s], [self.t, self.p]], dtype=np.float64)


DEFAULT_PAYOFFS = PayoffMatrix()


@dataclass(frozen=True)
class MatchConfig:
    """Length, noise level, and seed of a single match."""

    turns: int
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.turns < 1:
            raise ValueError(f"a match needs at least one turn, got {self.turns}")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError(f"noise must lie in [0, 1], got {self.noise}")


@dataclass(frozen=True)
class MatchRecord:
    """Full transcript of one match: recorded actions as C/D text, one
    letter per turn (the history dump's form), and payoff totals."""

    actions_a: str
    actions_b: str
    payoff_a: float
    payoff_b: float


def score_actions(codes_a, codes_b, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> tuple:
    """A's and B's payoff totals of action codes (C = 0, D = 1), summed over the
    last axis: one pair of totals per match for a (matches, turns) block."""
    table = matrix.as_array()
    return table[codes_a, codes_b].sum(axis=-1), table[codes_b, codes_a].sum(axis=-1)


_LETTERS = np.frombuffer(b"CD", np.uint8)


def match_records(codes_a, codes_b, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> list:
    """One MatchRecord per row of two (matches, turns) blocks of action codes."""
    codes_a, codes_b = np.asarray(codes_a), np.asarray(codes_b)
    # each row of letters, viewed as one fixed-width byte string
    text_a, text_b = (_LETTERS[codes].view(f"S{codes.shape[1]}").astype(str).ravel().tolist()
                      for codes in (codes_a, codes_b))
    payoffs_a, payoffs_b = score_actions(codes_a, codes_b, matrix)
    return list(map(MatchRecord, text_a, text_b, payoffs_a.tolist(), payoffs_b.tolist()))


def _play_generic(strat_a, strat_b, cfg: MatchConfig) -> tuple:
    """Reference interpreter: works for any strategy object.

    Returns (actions_a, actions_b, states_a, states_b); the state lists
    carry each player's machine state after every turn, or None for
    strategies that do not expose one.  Kept dead simple on purpose; the
    kernels in `kernels.py` must agree with this loop bit for bit.
    """
    strat_a.reset(substream(cfg.seed, 1))
    strat_b.reset(substream(cfg.seed, 2))
    noise_rng = substream(cfg.seed, 3)

    recorded_a = []
    recorded_b = []
    states_a = []
    states_b = []
    for turn in range(cfg.turns):
        if turn == 0:
            chosen_a = strat_a.opening()
            chosen_b = strat_b.opening()
        else:
            chosen_a = strat_a.respond(recorded_b[-1])
            chosen_b = strat_b.respond(recorded_a[-1])
        states_a.append(getattr(strat_a, "state", None))
        states_b.append(getattr(strat_b, "state", None))
        if cfg.noise > 0.0:
            if noise_rng.next_double() < cfg.noise:
                chosen_a = chosen_a.flip()
            if noise_rng.next_double() < cfg.noise:
                chosen_b = chosen_b.flip()
        recorded_a.append(chosen_a)
        recorded_b.append(chosen_b)
    return tuple(recorded_a), tuple(recorded_b), tuple(states_a), tuple(states_b)


@dataclass(frozen=True)
class MatchTrace:
    """A MatchRecord plus the per-turn machine states behind it."""

    record: MatchRecord
    states_a: tuple
    states_b: tuple


def trace_match(strat_a, strat_b, cfg: MatchConfig, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> MatchTrace:
    """Play on the generic interpreter and keep the state trajectory."""
    actions_a, actions_b, states_a, states_b = _play_generic(strat_a, strat_b, cfg)
    record = match_records([actions_a], [actions_b], matrix)[0]
    return MatchTrace(record=record, states_a=states_a, states_b=states_b)


def play_match(strat_a, strat_b, cfg: MatchConfig, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> MatchRecord:
    """Play one match between two freshly reset strategies on the kernel.

    Both strategies must carry a kernel program, as every registry entry
    does; a ValueError names the one that lacks it.  A strategy without
    a program can still be played turn by turn with `trace_match`.
    """
    for strat in (strat_a, strat_b):
        if getattr(strat, "program", None) is None:
            raise ValueError(
                f"strategy {strat.name!r} has no kernel program; "
                "play it with trace_match instead"
            )
    raw_a, raw_b = kernels.play_one(
        strat_a.program, strat_b.program, cfg.turns, cfg.noise, cfg.seed
    )
    return match_records([raw_a], [raw_b], matrix)[0]
