"""Vectorized match kernel: every match the package plays runs here.

Each strategy is flattened into a `Program`, a machine's move codes or
a coin, and one numpy loop plays a whole batch of matches by the
draw-order contract in `game.py`, bit for bit as the per-turn loop
`tests/conftest.py::reference_play` does.  A match with seed s has
three SplitMix64 streams, seat A's (tag 1), seat B's (tag 2) and the
noise stream (tag 3), each starting in state mix64((s + tag * GOLDEN)
mod 2**64).  Draw k of a stream in state s is mix64(s + k * GOLDEN), so
no draw needs the ones before it.  A Random row's move on turn t is
draw t + 1 of its seat's stream, D unless that double is below p, and
the noise flips of turn t are noise-stream draws 2t + 1 (A) and 2t + 2
(B), a flip when below the noise level; a machine draws nothing.

Both seats play as one array: `_pack` lays the programs of A's rows and
then B's end to end in one flat table of move codes.  The kernel draws
`_block_turns` turns at a time into one (turns, 2, matches) int8 block
of bits to XOR into the stepped actions; each turn is then one XOR, one
swap of the recorded moves and one gather of the (2, matches) entries
from the table.  A Random row steps cells that all name its own first
cell and C, so its coin alone decides its move.
"""

from operator import attrgetter

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
# the stream tags of A, B and noise: tag * GOLDEN mod 2**64
_TAGS = np.array([(tag * GOLDEN) & MASK64 for tag in (1, 2, 3)], dtype=np.uint64)

# Turns whose draws are computed as one block ahead of their steps (_block_turns):
# a block holds at most max(BLOCK_TURNS x matches, BLOCK_DRAWS) draws per seat, so
# it is bounded by these, not by the match length.
BLOCK_TURNS = 16
BLOCK_DRAWS = 16 * 1024


def active_backend() -> str:
    """Name of the match kernel, printed in every run's header."""
    return "numpy"


# ── program encoding ─────────────────────────────────────────────────


class Program:
    """Flat, kernel-ready form of one strategy, in the genome's encoding.

    Kind KIND_FSM plays codes and opening: states are re-indexed to
    0..n-1 in ascending id order, cell 2 * i + a (state i, opponent's
    move a) holds 2 * target + own move, and opening is 2 * start + first
    move.  Kind KIND_RANDOM ignores them and cooperates with probability
    p each turn.
    """

    __slots__ = ("kind", "codes", "opening", "p")

    def __init__(self, kind, codes, opening, p):
        self.kind = kind
        self.codes = np.asarray(codes, dtype=np.int64)
        self.opening = opening
        self.p = p

    # Decoded views that only perfbench's tracer reads; they go when the
    # tracer stops reading them (ROADMAP item 3 or 6).
    next_state = property(lambda self: self.codes.reshape(-1, 2) >> 1)
    emit = property(lambda self: self.codes.reshape(-1, 2) & 1)
    start = property(lambda self: self.opening >> 1)
    first = property(lambda self: self.opening & 1)


def fsm_program(spec) -> Program:
    """Encode an FsmSpec.  The machine must be valid (total transitions)."""
    index = {s: i for i, s in enumerate(sorted(set(spec.states)))}
    # Action is an IntEnum, so plain ints hit the same dict keys.
    moves = [spec.transitions[(s, opp)] for s in index for opp in (0, 1)]
    return Program(KIND_FSM, [2 * index[target] + own for target, own in moves],
                   2 * index[spec.start_state] + int(spec.initial_action), 0.0)


def random_program(p: float) -> Program:
    """Encode a coin-flip strategy that cooperates with probability p."""
    return Program(KIND_RANDOM, [0, 0], 0, float(p))


def _pack(programs):
    """The flat step table of programs, and each one's entry for turn one, kind and p.

    A batch repeats a few program objects over many rows, so each is
    encoded once: the distinct objects' codes lie end to end, and a
    program whose cells start at cell base contributes codes + base, its
    entry being opening + base.  Program defines no __eq__, so two
    objects of equal content are encoded twice.  A Random program's
    cells and entry all hold base, whatever it holds: its stepped action
    is always 0, so its coin decides its move alone.  Table and entries
    are int32 to keep the kernel's (block turns, 2, matches) key blocks
    small.
    """
    distinct = list(dict.fromkeys(programs))
    position = {prog: i for i, prog in enumerate(distinct)}
    slot = np.fromiter(map(position.__getitem__, programs), np.int64, len(programs))
    kind = np.array([prog.kind for prog in distinct], dtype=np.int8)
    machine = kind == KIND_FSM
    sizes = [prog.codes.size for prog in distinct]
    base = np.cumsum(sizes) - sizes
    cells = np.concatenate([prog.codes for prog in distinct])
    table = np.repeat(base, sizes) + np.repeat(machine, sizes) * cells
    opening = base + machine * np.array([prog.opening for prog in distinct])
    coop_p = np.array([prog.p for prog in distinct], dtype=np.float64)
    return table.astype(np.int32), opening[slot].astype(np.int32), kind[slot], coop_p[slot]


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


def _block_turns(rows, turns):
    """Turns per draw block: BLOCK_DRAWS // rows, at least BLOCK_TURNS, above that at most turns."""
    return max(BLOCK_TURNS, min(turns, BLOCK_DRAWS // rows))


def _batch_numpy(packed, turns, noise, seeds, out):
    """Play the matches packed by _pack, A's rows then B's, into out, a
    (2, matches, turns) block: row i of each seat meets under seeds[i]."""
    table, entry, kind, p = packed
    rows = seeds.shape[0]
    entry = entry.reshape(2, rows).copy()  # stepped in place, so the caller's entries stay as given
    # the Random rows of both seats, flattened seat-major as _pack gave them
    coin = np.flatnonzero(kind == KIND_RANDOM)
    coin_state = _mix_in_place(seeds[coin % rows] + _TAGS[coin // rows])
    coin_limit = _limit(p[coin])
    noise_limit = _limit(noise)
    noise_state = _mix_in_place(seeds + _TAGS[2]) if noise_limit else None
    block = _block_turns(rows, turns)
    # key[k, seat] is the seat's table key after turn t0 + k: its bit 0 is
    # the other seat's recorded move
    key = np.empty((block, 2, rows), dtype=np.int32)
    moved = np.empty(rows, dtype=np.int32)

    for t0 in range(0, turns, block):
        count = min(block, turns - t0)
        bits = np.zeros((count, 2, rows), dtype=np.int8) if noise_limit or coin.size else None
        if noise_limit:
            for seat in (0, 1):
                bits[:, seat] = (_draws(noise_state, 2 * t0 + 1 + seat, count, 2) >> _S11) < noise_limit
        if coin.size:
            draws = _draws(coin_state, t0 + 1, count)
            bits.reshape(count, 2 * rows)[:, coin] ^= ((draws >> _S11) >= coin_limit).view(np.int8)
        for k in range(count):
            if bits is not None:
                entry ^= bits[k]
            # bit 0 of an entry is now its seat's recorded move: swap them
            np.bitwise_xor(entry[0], entry[1], out=moved)
            moved &= 1
            np.bitwise_xor(entry, moved, out=key[k])
            table.take(key[k], mode="clip", out=entry)
        # A's moves are bit 0 of B's keys, and B's of A's
        np.bitwise_and(key[:count, ::-1].transpose(1, 2, 0), 1, out=out[:, :, t0:t0 + count],
                       casting="unsafe")


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
    out = np.zeros((2, count, turns), dtype=np.int8)
    if count:
        # play_pairs hands over object arrays, which join without a Python pass
        progs = (np.concatenate((progs_a, progs_b)) if isinstance(progs_a, np.ndarray)
                 else [*progs_a, *progs_b])
        _batch_numpy(_pack(progs), turns, float(noise), seed_arr, out)
    return out[0], out[1]


def play_pairs(programs, pairs, repetitions, turns, noise, seeds_of):
    """Play `repetitions` matches of every pair in one batch.

    programs is a table of Programs and pairs a (pairs, 2) int array of
    indices into it: pair i seats programs[pairs[i, 0]] as A and
    programs[pairs[i, 1]] as B.  A match between two machines at noise 0
    draws no random numbers, so its repetitions all replay one result:
    such a pair gets one played row, and no seed.  Every other pair gets
    one row per repetition, and one call, seeds_of(their ascending pair
    indices), returns all their seeds as a uint64 array, pair-major,
    then rep-minor.

    Returns (acts_a, acts_b, index): the played blocks, as play_batch
    gives them, and an int array of shape (len(pairs), repetitions)
    holding the row that plays each (pair, rep).
    """
    # fromiter, unlike np.array, does not probe each Program for a sequence
    table = np.fromiter(programs, object, len(programs))
    machine = np.fromiter(map(attrgetter("kind"), table), np.int8, len(table)) == KIND_FSM
    shared = machine[pairs].all(axis=1) & (noise == 0)
    played = np.where(shared, 1, repetitions)
    first_row = np.cumsum(played) - played
    index = first_row[:, None] + np.where(shared[:, None], 0, np.arange(repetitions))
    seeds = np.zeros(played.sum(), dtype=np.uint64)
    unshared = np.flatnonzero(~shared)
    if unshared.size:
        seeds[index[unshared].ravel()] = seeds_of(unshared.tolist())
    rows = np.repeat(pairs, played, axis=0)
    acts_a, acts_b = play_batch(table[rows[:, 0]], table[rows[:, 1]], turns, noise, seeds)
    return acts_a, acts_b, index


def play_one(prog_a, prog_b, turns, noise, seed):
    """Single-match convenience wrapper around play_batch."""
    out_a, out_b = play_batch([prog_a], [prog_b], turns, noise, [seed])
    return out_a[0], out_b[0]
