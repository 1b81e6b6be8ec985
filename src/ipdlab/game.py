"""Stage game, match records and single matches of the iterated PD.

Two players pick Cooperate or Defect simultaneously each turn, collect
stage payoffs, and see what the other side just played before choosing
again.  Every match, here and downstream (tournaments, the evolutionary
search), plays on the kernel in `kernels.py`, which follows the contract
below, so a match is deterministic to the last bit: same players, same
config, same payoff matrix, same record.

Draw-order contract for one turn:

1. player A picks (a coin draws one double from stream A),
2. player B picks (stream B),
3. if noise > 0, two doubles come off the noise stream, first for A's
   action then for B's; a draw below the noise level flips that action.

Machines are shown the opponent's *recorded* (post-noise) action but
remember their *own* choice as made, so a trembling hand never confuses
a machine about its own state.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import kernels


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
        _check_settings(self.turns, 1, self.noise)  # a single match is one repetition


def _check_settings(turns, repetitions, noise):
    """The checks a match's, a tournament's and a search's settings share, in order."""
    if turns < 1:
        raise ValueError(f"turns must be positive, got {turns}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    if not (0.0 <= noise <= 1.0):
        raise ValueError(f"noise must lie in [0, 1], got {noise}")


def _check_distinct(label, names):
    """Refuse a repeated name; the registry looks names up case-insensitively."""
    if len({name.lower() for name in names}) != len(names):
        raise ValueError(f"{label} entries must be distinct, got {list(names)}")


class MatchRecord(NamedTuple):
    """Full transcript of one match: recorded actions as C/D text, one
    letter per turn (the history dump's form), and payoff totals.  It is an
    immutable named tuple, equal to the plain tuple of its four fields."""

    actions_a: str
    actions_b: str
    payoff_a: float
    payoff_b: float


_new_record = partial(tuple.__new__, MatchRecord)  # MatchRecord of a 4-tuple, no Python frame


def score_actions(codes_a, codes_b, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> tuple:
    """A's and B's payoff totals of action codes (C = 0, D = 1) over the last axis, one pair per match of
    a (matches, turns) block; integer entries under 2**53 / turns score exactly from D_a, D_b, DD counts."""
    codes_a, codes_b = np.asarray(codes_a), np.asarray(codes_b)
    # as_array()[own, opponent] is entry 2 * own + opponent of the flat table
    table = matrix.as_array().ravel()
    turns, entries = codes_a.shape[-1], table.tolist()
    if turns * max(map(abs, entries)) < 2 ** 53 and all(map(float.is_integer, entries)):
        r, s, t, p = map(int, entries)
        d_a, d_b, dd = (c.sum(axis=-1, dtype=np.int64) for c in (codes_a, codes_b, codes_a & codes_b))
        cc = turns - d_a - d_b + dd
        return ((r * cc + s * (d_b - dd) + t * (d_a - dd) + p * dd).astype(np.float64),
                (r * cc + s * (d_a - dd) + t * (d_b - dd) + p * dd).astype(np.float64))
    return table[2 * codes_a + codes_b].sum(axis=-1), table[2 * codes_b + codes_a].sum(axis=-1)


def match_records(codes_a, codes_b, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> list:
    """One MatchRecord per row of two (matches, turns) blocks of action codes."""
    codes_a, codes_b = np.asarray(codes_a), np.asarray(codes_b)
    turns = codes_a.shape[1]
    # C and D are adjacent in ASCII, so each block renders as one text, cut into rows
    texts = (str(np.add(codes, ord("C"), dtype=np.uint8, casting="unsafe", order="C"), "ascii")
             for codes in (codes_a, codes_b))
    text_a, text_b = ([text[i:i + turns] for i in range(0, len(text), turns)] for text in texts)
    payoffs_a, payoffs_b = score_actions(codes_a, codes_b, matrix)
    return list(map(_new_record, zip(text_a, text_b, payoffs_a.tolist(), payoffs_b.tolist())))


@dataclass(frozen=True)
class MatchTrace:
    """A MatchRecord plus the per-turn machine states behind it."""

    record: MatchRecord
    states_a: tuple
    states_b: tuple


def _states(spec, opponent) -> tuple:
    """A machine's state on each turn, walked over the opponent's recorded
    action codes; None on every turn for a side without a spec."""
    if spec is None:
        return (None,) * len(opponent)
    # transitions are keyed by Action, an IntEnum, so plain ints find them
    states = [spec.start_state]
    for opp in opponent[:-1].tolist():
        states.append(spec.transitions[(states[-1], opp)][0])
    return tuple(states)


def trace_match(a, b, cfg: MatchConfig, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> MatchTrace:
    """Play one match between two registry entries on the kernel, and keep
    each machine's state on every turn.

    A machine's next state is keyed by its state and the opponent's
    recorded move, never by its own move, so walking its FsmSpec over the
    opponent's recorded actions gives its states exactly, at any noise
    level.  A side without a spec (Random) has None on every turn.
    """
    raw_a, raw_b = kernels.play_one(a.program, b.program, cfg.turns, cfg.noise, cfg.seed)
    return MatchTrace(record=match_records([raw_a], [raw_b], matrix)[0],
                      states_a=_states(a.spec, raw_b), states_b=_states(b.spec, raw_a))


def play_match(a, b, cfg: MatchConfig, matrix: PayoffMatrix = DEFAULT_PAYOFFS) -> MatchRecord:
    """Play one match between two registry entries (anything with a kernel
    `program`) on the kernel."""
    raw_a, raw_b = kernels.play_one(a.program, b.program, cfg.turns, cfg.noise, cfg.seed)
    return match_records([raw_a], [raw_b], matrix)[0]
