"""Vectorized match kernel.

Strategies that reduce to a lookup table (every built-in does) get
flattened into a `Program` and replayed here instead of through the
per-turn Python loop in `game._play_generic`.  One numpy loop plays a
whole batch of matches, one turn at a time, and must agree bit for bit
with `game._play_generic`: it replicates the SplitMix64 streams from
`rng.py` exactly (stream A, stream B, noise stream, in that per-turn
draw order).

The tricky parity detail: stochastic strategies draw exactly one double
per turn and deterministic ones draw nothing, so the kernel computes
candidate draws for whole arrays but only commits advanced stream state
on the stochastic rows.
"""

import numpy as np

from .rng import DOUBLE_UNIT, GOLDEN, MASK64, MIX1, MIX2

KIND_FSM = 0
KIND_RANDOM = 1

# uint64 copies of the rng constants; under numpy's promotion rules a
# uint64 mixed with a signed integer becomes float64 (and a shift is
# refused), so every operand of the stream arithmetic stays unsigned.
_UG = np.uint64(GOLDEN)
_M1 = np.uint64(MIX1)
_M2 = np.uint64(MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TAG1 = np.uint64((1 * GOLDEN) & MASK64)
_TAG2 = np.uint64((2 * GOLDEN) & MASK64)
_TAG3 = np.uint64((3 * GOLDEN) & MASK64)


def active_backend() -> str:
    """Name of the match kernel, printed in every run's header."""
    return "numpy"


# ── program encoding ─────────────────────────────────────────────────


class Program:
    """Flat, kernel-ready form of one strategy.

    kind KIND_FSM uses next_state/emit/start/first; kind KIND_RANDOM
    ignores them and cooperates with probability p each turn.  States
    are re-indexed to 0..n-1 in ascending id order.  next_state/emit come
    as (n, 2) tables or flat ones (cell 2*i + a is row i, column a).
    """

    __slots__ = ("kind", "next_state", "emit", "start", "first", "p")

    def __init__(self, kind, next_state, emit, start, first, p):
        self.kind = kind
        self.next_state = np.asarray(next_state, dtype=np.int64).reshape(-1, 2)
        self.emit = np.asarray(emit, dtype=np.int8).reshape(-1, 2)
        self.start = start
        self.first = first
        self.p = p


def fsm_program(spec) -> Program:
    """Encode an FsmSpec.  The machine must be valid (total transitions)."""
    index = {s: i for i, s in enumerate(sorted(set(spec.states)))}
    # Action is an IntEnum, so plain ints hit the same dict keys.
    moves = [spec.transitions[(s, opp)] for s in index for opp in (0, 1)]
    return Program(KIND_FSM, [index[target] for target, _ in moves], [int(own) for _, own in moves],
                   index[spec.start_state], int(spec.initial_action), 0.0)


def random_program(p: float) -> Program:
    """Encode a coin-flip strategy that cooperates with probability p."""
    return Program(KIND_RANDOM, [0, 0], [0, 0], 0, 0, float(p))


def _pack(programs):
    """Padded arrays of the distinct program objects, plus the slot of each entry.

    A batch repeats a few program objects over many rows, so each is
    encoded once; the kernel reads row i's program at slot[i].  Program
    defines no __eq__, so two objects of equal content get two slots.
    """
    distinct = list(dict.fromkeys(programs))
    position = {prog: i for i, prog in enumerate(distinct)}
    slot = np.fromiter(map(position.__getitem__, programs), np.int64, len(programs))
    width = max(prog.next_state.shape[0] for prog in distinct)
    next_state = np.zeros((len(distinct), width, 2), dtype=np.int64)
    emit = np.zeros((len(distinct), width, 2), dtype=np.int8)
    for i, prog in enumerate(distinct):
        next_state[i, :len(prog.next_state)] = prog.next_state
        emit[i, :len(prog.emit)] = prog.emit
    kind = np.array([prog.kind for prog in distinct], dtype=np.int8)
    start = np.array([prog.start for prog in distinct], dtype=np.int64)
    first = np.array([prog.first for prog in distinct], dtype=np.int8)
    coop_p = np.array([prog.p for prog in distinct], dtype=np.float64)
    return kind, next_state, emit, start, first, coop_p, slot


# ── kernel ───────────────────────────────────────────────────────────


def _mix_np(z):
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _doubles_np(z):
    return (z >> _S11).astype(np.float64) * DOUBLE_UNIT


def _batch_numpy(kind_a, next_a, emit_a, start_a, first_a, p_a, slot_a,
                 kind_b, next_b, emit_b, start_b, first_b, p_b, slot_b,
                 turns, noise, seeds, out_a, out_b):
    m = seeds.shape[0]
    sa = _mix_np(seeds + _TAG1)
    sb = _mix_np(seeds + _TAG2)
    sn = _mix_np(seeds + _TAG3)
    stoch_a = kind_a[slot_a] == KIND_RANDOM
    stoch_b = kind_b[slot_b] == KIND_RANDOM
    det_a = ~stoch_a
    det_b = ~stoch_b
    p_a = p_a[slot_a]
    p_b = p_b[slot_b]
    cur_a = start_a[slot_a]
    cur_b = start_b[slot_b]
    first_a64 = first_a[slot_a].astype(np.int64)
    first_b64 = first_b[slot_b].astype(np.int64)
    prev_a = np.zeros(m, dtype=np.int64)
    prev_b = np.zeros(m, dtype=np.int64)
    act_a = np.zeros(m, dtype=np.int64)
    act_b = np.zeros(m, dtype=np.int64)
    any_stoch_a = bool(stoch_a.any())
    any_stoch_b = bool(stoch_b.any())

    for t in range(turns):
        if any_stoch_a:
            advanced = sa + _UG
            u = _doubles_np(_mix_np(advanced))
            sa = np.where(stoch_a, advanced, sa)
            act_a = np.where(stoch_a, (u >= p_a).astype(np.int64), act_a)
        if t == 0:
            act_a = np.where(det_a, first_a64, act_a)
        else:
            stepped = emit_a[slot_a, cur_a, prev_b].astype(np.int64)
            landed = next_a[slot_a, cur_a, prev_b]
            act_a = np.where(det_a, stepped, act_a)
            cur_a = np.where(det_a, landed, cur_a)

        if any_stoch_b:
            advanced = sb + _UG
            u = _doubles_np(_mix_np(advanced))
            sb = np.where(stoch_b, advanced, sb)
            act_b = np.where(stoch_b, (u >= p_b).astype(np.int64), act_b)
        if t == 0:
            act_b = np.where(det_b, first_b64, act_b)
        else:
            stepped = emit_b[slot_b, cur_b, prev_a].astype(np.int64)
            landed = next_b[slot_b, cur_b, prev_a]
            act_b = np.where(det_b, stepped, act_b)
            cur_b = np.where(det_b, landed, cur_b)

        if noise > 0.0:
            sn = sn + _UG
            flip_a = _doubles_np(_mix_np(sn)) < noise
            sn = sn + _UG
            flip_b = _doubles_np(_mix_np(sn)) < noise
            act_a = act_a ^ flip_a.astype(np.int64)
            act_b = act_b ^ flip_b.astype(np.int64)

        out_a[:, t] = act_a
        out_b[:, t] = act_b
        prev_a = act_a
        prev_b = act_b


# ── dispatch ─────────────────────────────────────────────────────────


def play_batch(progs_a, progs_b, turns, noise, seeds):
    """Play len(seeds) matches that share turns and noise level.

    progs_a[i] meets progs_b[i] under seeds[i].  Returns two int8
    arrays of shape (matches, turns) with the recorded actions.
    """
    if not (len(progs_a) == len(progs_b) == len(seeds)):
        raise ValueError("progs_a, progs_b and seeds must have equal length")

    seed_arr = np.asarray(list(seeds), dtype=np.uint64)
    count = seed_arr.shape[0]
    out_a = np.zeros((count, turns), dtype=np.int8)
    out_b = np.zeros((count, turns), dtype=np.int8)
    if count == 0:
        return out_a, out_b
    args = _pack(progs_a) + _pack(progs_b)
    _batch_numpy(*args, turns, float(noise), seed_arr, out_a, out_b)
    return out_a, out_b


def play_pairs(pairs, repetitions, turns, noise, seed_of):
    """Play `repetitions` matches of every (prog_a, prog_b) pair in one batch.

    A match between two machines at noise 0 draws no random numbers, so
    its repetitions all replay one result: such a pair gets one played
    row, and seed_of is never called for it.  Every other pair gets one
    row per repetition, seeded by seed_of(pair index, rep).

    Returns (acts_a, acts_b, index): the played blocks, as play_batch
    gives them, and an int array of shape (len(pairs), repetitions)
    holding the row that plays each (pair, rep).
    """
    progs_a, progs_b, seeds, index = [], [], [], []
    for pair, (prog_a, prog_b) in enumerate(pairs):
        first_row = len(seeds)
        if noise == 0 and prog_a.kind == KIND_FSM and prog_b.kind == KIND_FSM:
            index.append([first_row] * repetitions)
            seeds.append(0)
        else:
            index.append(range(first_row, first_row + repetitions))
            seeds.extend(seed_of(pair, rep) for rep in range(repetitions))
        played = len(seeds) - first_row
        progs_a.extend([prog_a] * played)
        progs_b.extend([prog_b] * played)
    acts_a, acts_b = play_batch(progs_a, progs_b, turns, noise, seeds)
    return acts_a, acts_b, np.array(index, dtype=np.int64).reshape(len(pairs), repetitions)


def play_one(prog_a, prog_b, turns, noise, seed):
    """Single-match convenience wrapper around play_batch."""
    out_a, out_b = play_batch([prog_a], [prog_b], turns, noise, [seed])
    return out_a[0], out_b[0]
