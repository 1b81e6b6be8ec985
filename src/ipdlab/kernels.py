"""Vectorized match kernel: every match the package plays runs here.

Each strategy is flattened into a `Program`, a lookup table or a coin,
and one numpy loop plays a whole batch of matches by the draw-order
contract in `game.py`.  A match with seed s has three SplitMix64 streams
(A, B and noise, tags 1, 2 and 3), each starting in state
mix64((s + tag * GOLDEN) mod 2**64).  The kernel must agree bit for bit
with the per-turn loop `tests/conftest.py::reference_play`.

Draw k of a stream in state s is mix64(s + k * GOLDEN), so no draw
needs the ones before it.  A Random row's move on turn t is draw t + 1
of its own stream, and the noise flips of turn t are noise-stream draws
2t + 1 (A) and 2t + 2 (B); a machine draws nothing.  The kernel computes
all of these for BLOCK_TURNS turns at a time, as one int8 block of bits
per side, before it steps those turns.  The per-turn loop is then the
table step alone: one gather per side from a flat table of
2 * next state + own action, and an XOR with the block's bits.  A
Random row steps an all-zero table, so its coin alone decides its move.
"""

from operator import itemgetter

import numpy as np

from .rng import GOLDEN, MASK64, MIX1, MIX2

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

# Turns whose draws are computed as one block ahead of their steps.  The
# blocks hold BLOCK_TURNS x matches draws, so they are bounded by this, not
# by the match length.
BLOCK_TURNS = 16


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


def _mix_in_place(z):
    """mix64 of every element of a uint64 array, written over it."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _limit(level):
    """The integer form of `double < level`: a draw's double is m * 2**-53
    with m = draw >> 11, and it is below level exactly when m < ceil(level
    * 2**53), a product and a ceiling that float64 computes exactly for
    level in [0, 1]."""
    return np.ceil(np.multiply(level, 2.0 ** 53)).astype(np.uint64)


def _draws(state, first, count, step=1):
    """Draws first, first + step, ... (count of them) of the streams whose
    states are `state`, as a (count, streams) uint64 block."""
    k = np.arange(first, first + count * step, step, dtype=np.uint64)
    return _mix_in_place(state + (k * _UG)[:, None])


def _step_table(kind, next_state, emit, start, first, slot):
    """The flat step table of one side's packed programs, and each row's
    entry for turn one.

    A state's global index g is slot * width + state; the table holds
    2 * g' + emit at key 2 * g + opp, where (g', emit) is the transition
    on the opponent's recorded move opp.  A Random slot's table and
    opening are all zero, whatever its Program holds: its stepped action
    is always 0, so its coin decides its move alone.  Keys are int32 to
    keep the kernel's (BLOCK_TURNS, matches) key blocks small.
    """
    machine = kind == KIND_FSM
    base = np.arange(len(kind)) * next_state.shape[1]
    cells = machine[:, None, None]
    table = 2 * (base[:, None, None] + cells * next_state) + cells * emit
    opening = 2 * (base + machine * start) + machine * first
    return table.ravel().astype(np.int32), opening[slot].astype(np.int32)


def _coins(kind, p, slot, seeds, tag):
    """One side's Random rows, their streams' states and their limits of p."""
    rows = np.flatnonzero(kind[slot] == KIND_RANDOM)
    return rows, _mix_in_place(seeds[rows] + tag), _limit(p[slot[rows]])


def _bits(coins, noise_stream, t0, count, side):
    """One side's (count, rows) int8 block of bits to XOR into its stepped
    actions on turns t0 .. t0 + count - 1, or None when all are 0.

    A Random row's move on turn t is its own stream's draw t + 1, D unless
    that double is below p.  The noise flips of turn t are noise-stream
    draws 2t + 1 (side 0, A) and 2t + 2 (side 1, B), a flip when below
    the noise level.
    """
    rows, coin_state, coin_limit = coins
    noise_state, noise_limit = noise_stream
    bits = None
    if noise_limit:
        draws = _draws(noise_state, 2 * t0 + 1 + side, count, 2)
        bits = ((draws >> _S11) < noise_limit).view(np.int8)
    if rows.size:
        draws = _draws(coin_state, t0 + 1, count)
        if bits is None:
            bits = np.zeros((count, noise_state.shape[0]), dtype=np.int8)
        bits[:, rows] ^= ((draws >> _S11) >= coin_limit).view(np.int8)
    return bits


def _batch_numpy(kind_a, next_a, emit_a, start_a, first_a, p_a, slot_a,
                 kind_b, next_b, emit_b, start_b, first_b, p_b, slot_b,
                 turns, noise, seeds, out_a, out_b):
    rows = seeds.shape[0]
    table_a, entry_a = _step_table(kind_a, next_a, emit_a, start_a, first_a, slot_a)
    table_b, entry_b = _step_table(kind_b, next_b, emit_b, start_b, first_b, slot_b)
    coins_a = _coins(kind_a, p_a, slot_a, seeds, _TAG1)
    coins_b = _coins(kind_b, p_b, slot_b, seeds, _TAG2)
    noise_stream = (_mix_in_place(seeds + _TAG3), _limit(noise))
    # key_a[k] is A's table key after turn t0 + k: its bit 0 is B's recorded move
    key_a = np.empty((BLOCK_TURNS, rows), dtype=np.int32)
    key_b = np.empty((BLOCK_TURNS, rows), dtype=np.int32)
    moved = np.empty(rows, dtype=np.int32)

    for t0 in range(0, turns, BLOCK_TURNS):
        count = min(BLOCK_TURNS, turns - t0)
        bits_a = _bits(coins_a, noise_stream, t0, count, 0)
        bits_b = _bits(coins_b, noise_stream, t0, count, 1)
        for k in range(count):
            if bits_a is not None:
                entry_a ^= bits_a[k]
            if bits_b is not None:
                entry_b ^= bits_b[k]
            # bit 0 of an entry is now its side's recorded move: swap them
            np.bitwise_xor(entry_a, entry_b, out=moved)
            moved &= 1
            np.bitwise_xor(entry_a, moved, out=key_a[k])
            np.bitwise_xor(entry_b, moved, out=key_b[k])
            entry_a = table_a.take(key_a[k], mode="clip")
            entry_b = table_b.take(key_b[k], mode="clip")
        np.bitwise_and(key_b[:count].T, 1, out=out_a[:, t0:t0 + count], casting="unsafe")
        np.bitwise_and(key_a[:count].T, 1, out=out_b[:, t0:t0 + count], casting="unsafe")


# ── dispatch ─────────────────────────────────────────────────────────


def play_batch(progs_a, progs_b, turns, noise, seeds):
    """Play len(seeds) matches that share turns and noise level.

    progs_a[i] meets progs_b[i] under seeds[i].  Returns two int8
    arrays of shape (matches, turns) with the recorded actions.
    """
    if not (len(progs_a) == len(progs_b) == len(seeds)):
        raise ValueError("progs_a, progs_b and seeds must have equal length")

    # a seed outside [0, 2**64) plays mod 2**64
    seed_arr = (seeds.astype(np.uint64, copy=False) if isinstance(seeds, np.ndarray)
                else np.array([seed & MASK64 for seed in seeds], dtype=np.uint64))
    count = seed_arr.shape[0]
    out_a = np.zeros((count, turns), dtype=np.int8)
    out_b = np.zeros((count, turns), dtype=np.int8)
    if count == 0:
        return out_a, out_b
    args = _pack(progs_a) + _pack(progs_b)
    _batch_numpy(*args, turns, float(noise), seed_arr, out_a, out_b)
    return out_a, out_b


def play_pairs(pairs, repetitions, turns, noise, seeds_of):
    """Play `repetitions` matches of every (prog_a, prog_b) pair in one batch.

    A match between two machines at noise 0 draws no random numbers, so
    its repetitions all replay one result: such a pair gets one played
    row, and no seed.  Every other pair gets one row per repetition, and
    one call, seeds_of(their ascending pair indices), returns all their
    seeds as a uint64 array, pair-major, then rep-minor.

    Returns (acts_a, acts_b, index): the played blocks, as play_batch
    gives them, and an int array of shape (len(pairs), repetitions)
    holding the row that plays each (pair, rep).
    """
    shared = np.fromiter((a.kind == b.kind == KIND_FSM for a, b in pairs), bool, len(pairs))
    shared &= noise == 0
    played = np.where(shared, 1, repetitions)
    first_row = np.cumsum(played) - played
    index = first_row[:, None] + np.where(shared[:, None], 0, np.arange(repetitions))
    seeds = np.zeros(played.sum(), dtype=np.uint64)
    unshared = np.flatnonzero(~shared)
    if unshared.size:
        seeds[index[unshared].ravel()] = seeds_of(unshared.tolist())
    # fromiter, unlike np.array, does not probe each Program for a sequence
    progs_a, progs_b = (np.repeat(np.fromiter(map(itemgetter(side), pairs), object, len(pairs)), played)
                        for side in (0, 1))
    acts_a, acts_b = play_batch(progs_a, progs_b, turns, noise, seeds)
    return acts_a, acts_b, index


def play_one(prog_a, prog_b, turns, noise, seed):
    """Single-match convenience wrapper around play_batch."""
    out_a, out_b = play_batch([prog_a], [prog_b], turns, noise, [seed])
    return out_a[0], out_b[0]
