"""Kernel parity: the numpy kernel and the per-turn reference loop must agree."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipdlab
from ipdlab import FsmSpec, default_registry, kernels, roster_default
from ipdlab.kernels import (
    KIND_RANDOM,
    Program,
    _block_turns,
    _limit,
    _pack,
    active_backend,
    fsm_program,
    play_batch,
    play_one,
    play_pairs,
    random_program,
)
from ipdlab.rng import derive_seed

from conftest import fsm_specs, reference_play, reference_side


@pytest.fixture(scope="module")
def roster_entries():
    reg = default_registry()
    return [reg.get(sid.name) for sid in roster_default()]


class TestReferenceParity:
    """The determinism contract that everything else leans on."""

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_all_roster_pairs(self, roster_entries, noise):
        turns = 40
        jobs = [
            (a, b, derive_seed(17, a.id.name, b.id.name, noise))
            for a in roster_entries
            for b in roster_entries
        ]
        progs_a = [a.program for a, _, _ in jobs]
        progs_b = [b.program for _, b, _ in jobs]
        seeds = [seed for _, _, seed in jobs]

        out_a, out_b = play_batch(progs_a, progs_b, turns, noise, seeds)

        for row, (a, b, seed) in enumerate(jobs):
            ref_a, ref_b, _, _ = reference_play(reference_side(a), reference_side(b),
                                                turns, noise, seed)
            assert out_a[row].tolist() == list(ref_a), (a.id.name, b.id.name)
            assert out_b[row].tolist() == list(ref_b), (a.id.name, b.id.name)

    def test_play_one_is_batch_of_one(self, roster_entries):
        a = roster_entries[8].program  # FirstPrac
        b = roster_entries[7].program  # Random
        one_a, one_b = play_one(a, b, 30, 0.05, 123)
        batch_a, batch_b = play_batch([a], [b], 30, 0.05, [123])
        assert np.array_equal(one_a, batch_a[0])
        assert np.array_equal(one_b, batch_b[0])


class TestBatchMechanics:
    def test_pack_gives_each_program_object_one_slot(self, e6):
        # Program defines no __eq__: equal content in two objects is encoded twice
        first, twin, other = fsm_program(e6), fsm_program(e6), random_program(0.3)
        table, entry, kind, coop_p = _pack([first, twin] + [other] * 50 + [first])
        cells = first.codes.size  # twin's cells start here, other's at 2 * cells
        assert table.tolist() == [*first.codes.tolist(), *(twin.codes + cells).tolist(),
                                  2 * cells, 2 * cells]
        assert entry.tolist() == ([first.opening, twin.opening + cells] + [2 * cells] * 50
                                  + [first.opening])
        assert kind.tolist() == [0, 0] + [1] * 50 + [0]
        assert coop_p.tolist() == [0.0, 0.0] + [0.3] * 50 + [0.0]

    def test_mixed_state_counts_pad_correctly(self, e6, secondprac):
        # 6-state and 10-state machines in one batch must behave exactly
        # like they do in singleton batches.
        p6, p10 = fsm_program(e6), fsm_program(secondprac)
        seeds = [5, 6]
        batch_a, batch_b = play_batch([p6, p10], [p10, p6], 25, 0.0, seeds)
        for row, (pa, pb) in enumerate([(p6, p10), (p10, p6)]):
            solo_a, solo_b = play_one(pa, pb, 25, 0.0, seeds[row])
            assert np.array_equal(batch_a[row], solo_a)
            assert np.array_equal(batch_b[row], solo_b)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_a_packed_batch_plays_alike_twice_and_stays_as_packed(self, e6, noise):
        # the kernel steps its own copy of the entries: the first turn's bits
        # must not land in the caller's packed tuple
        programs = [fsm_program(e6), random_program(0.4), random_program(0.7), fsm_program(e6)]
        packed = _pack(programs)
        before = [column.copy() for column in packed]
        seeds = np.array([3, 4], dtype=np.uint64)
        outs = [np.zeros((2, 2, 40), dtype=np.int8) for _ in range(2)]
        for out in outs:
            kernels._batch_numpy(packed, 40, noise, seeds, out)
        assert np.array_equal(outs[0], outs[1])
        assert all(np.array_equal(column, old) for column, old in zip(packed, before))

    def test_empty_batch(self):
        out_a, out_b = play_batch([], [], 10, 0.0, [])
        assert out_a.shape == (0, 10)
        assert out_b.shape == (0, 10)

    def test_length_mismatch_rejected(self):
        prog = random_program(0.5)
        with pytest.raises(ValueError, match="equal length"):
            play_batch([prog], [prog, prog], 10, 0.0, [1, 2])

    def test_unknown_backend_rejected(self):
        # There is one kernel, so there is no backend switch to pass.
        prog = random_program(0.5)
        with pytest.raises(TypeError, match="backend"):
            play_batch([prog], [prog], 5, 0.0, [1], backend="numpy")

    def test_active_backend_is_numpy(self):
        assert active_backend() == "numpy"


class TestStreamDiscipline:
    def test_deterministic_players_consume_no_randomness(self, e6):
        # A deterministic pair must not care about the seed at zero noise.
        prog = fsm_program(e6)
        one = play_one(prog, prog, 50, 0.0, 1)
        two = play_one(prog, prog, 50, 0.0, 2)
        assert np.array_equal(one[0], two[0])
        assert np.array_equal(one[1], two[1])

    def test_player_streams_are_independent(self):
        # Replacing a deterministic opponent with another deterministic
        # opponent must not shift the stochastic player's draws.
        coin = random_program(0.5)
        tft = fsm_program(default_registry().get("TitForTat").spec)
        coop = fsm_program(default_registry().get("Cooperator").spec)
        vs_tft = play_one(coin, tft, 30, 0.0, 99)
        vs_coop = play_one(coin, coop, 30, 0.0, 99)
        assert np.array_equal(vs_tft[0], vs_coop[0])

    def test_noise_stream_separate_from_player_streams(self):
        # Turning noise on must not change which coin flips the Random
        # player itself makes (only how they are recorded).
        coin = random_program(1.0)  # always intends C
        wall = fsm_program(default_registry().get("Cooperator").spec)
        noisy_a, _ = play_one(coin, wall, 200, 0.25, 7)
        # intended all-C; every recorded D is a noise flip
        flips = int(noisy_a.sum())
        assert 20 < flips < 80  # ~50 expected at q=0.25


# A side of a drawn pair: a machine, or a coin that cooperates with probability p.
_sides = st.one_of(fsm_specs(max_states=5).map(fsm_program),
                   st.sampled_from((0.0, 0.5, 0.9)).map(random_program))


def _seed_of(pair, rep):
    return derive_seed(3, "pair", pair, rep)


def _seeds_of(repetitions, calls=None):
    """play_pairs' seed callback for _seed_of; each call's pairs go to calls."""
    def seeds_of(unshared):
        if calls is not None:
            calls.append(unshared)
        return np.array([_seed_of(pair, rep) for pair in unshared for rep in range(repetitions)],
                        dtype=np.uint64)
    return seeds_of


def _play_object_pairs(pairs, repetitions, turns, noise, seeds_of):
    """play_pairs on (prog_a, prog_b) pairs: a table of both sides of each pair, in turn."""
    programs = [prog for pair in pairs for prog in pair]
    return play_pairs(programs, np.arange(len(programs)).reshape(-1, 2), repetitions, turns,
                      noise, seeds_of)


class TestPlayPairs:
    """The planner plays each distinct match once and maps every repetition to it."""

    @given(
        pairs=st.lists(st.tuples(_sides, _sides), min_size=1, max_size=6),
        repetitions=st.integers(1, 4),
        turns=st.integers(1, 25),
        noise=st.sampled_from((0.0, 0.05)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_fully_expanded_batch(self, pairs, repetitions, turns, noise):
        calls = []
        acts_a, acts_b, index = _play_object_pairs(pairs, repetitions, turns, noise,
                                                   _seeds_of(repetitions, calls))
        assert len(calls) <= 1
        jobs = [(pair, rep) for pair in range(len(pairs)) for rep in range(repetitions)]
        full_a, full_b = play_batch(
            [pairs[pair][0] for pair, _ in jobs], [pairs[pair][1] for pair, _ in jobs],
            turns, noise, [_seed_of(pair, rep) for pair, rep in jobs],
        )
        assert index.shape == (len(pairs), repetitions)
        assert np.array_equal(acts_a[index.ravel()], full_a)
        assert np.array_equal(acts_b[index.ravel()], full_b)

    def test_no_pairs_give_empty_blocks_and_draw_no_seed(self):
        def seeds_of(unshared):
            raise AssertionError("no pair, no seed")

        acts_a, acts_b, index = _play_object_pairs([], 3, 7, 0.05, seeds_of)
        assert acts_a.shape == acts_b.shape == (0, 7)
        assert acts_a.dtype == acts_b.dtype == np.int8
        assert index.shape == (0, 3)
        assert index.dtype == np.int64

    @pytest.mark.parametrize("noise, coins", [
        (0.0, ()),  # every pair shares one row
        (0.05, ()),  # no pair does
        (0.0, (1, 3)),  # the pairs with a coin do not
    ], ids=["all_shared", "none_shared", "mixed"])
    def test_one_repetition_plays_the_fully_expanded_batch(self, e6, e8, noise, coins):
        machines = [fsm_program(e6), fsm_program(e8)]
        pairs = [(machines[i % 2], random_program(0.5) if i in coins else machines[i // 2 % 2])
                 for i in range(5)]
        acts_a, acts_b, index = _play_object_pairs(pairs, 1, 12, noise, _seeds_of(1))
        full_a, full_b = play_batch([a for a, _ in pairs], [b for _, b in pairs], 12, noise,
                                    [_seed_of(pair, 0) for pair in range(len(pairs))])
        assert index.tolist() == [[row] for row in range(len(pairs))]
        assert np.array_equal(acts_a, full_a)
        assert np.array_equal(acts_b, full_b)

    def test_seeds_are_drawn_only_for_matches_that_use_them(self, e6):
        machine = fsm_program(e6)
        coin = random_program(0.5)
        pairs = [(machine, machine), (machine, coin), (coin, machine), (coin, coin)]
        for noise, seeded_pairs in ((0.0, [1, 2, 3]), (0.05, [0, 1, 2, 3])):
            calls = []
            acts_a, _, index = _play_object_pairs(pairs, 5, 10, noise, _seeds_of(5, calls))
            assert calls == [seeded_pairs]  # one call, pairs in ascending order
            assert acts_a.shape == (5 * len(seeded_pairs) + (noise == 0), 10)
            assert len(set(index.ravel().tolist())) == acts_a.shape[0]

    @given(
        data=st.data(),
        table=st.lists(_sides, min_size=1, max_size=5),
        repetitions=st.integers(1, 4),
        turns=st.integers(1, 25),
        noise=st.sampled_from((0.0, 0.05)),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_pairs_play_as_the_fully_expanded_batch(self, data, table, repetitions, turns,
                                                          noise):
        first = table[0]
        twin = Program(first.kind, first.codes.copy(), first.opening, first.p)  # equal content
        programs = table + [twin, random_program(0.25)]  # the last entry no pair uses
        used = len(programs) - 1
        drawn = data.draw(st.lists(st.tuples(st.integers(0, used - 1), st.integers(0, used - 1)),
                                   max_size=6))
        # the twin meets its original out of table order, and entry 0 meets itself
        pairs = [(used - 1, 0), (0, 0)] + drawn
        calls = []
        acts_a, acts_b, index = play_pairs(programs, np.array(pairs), repetitions, turns, noise,
                                           _seeds_of(repetitions, calls))
        assert len(calls) <= 1
        jobs = [(pair, rep) for pair in range(len(pairs)) for rep in range(repetitions)]
        full_a, full_b = play_batch(
            [programs[pairs[pair][0]] for pair, _ in jobs],
            [programs[pairs[pair][1]] for pair, _ in jobs],
            turns, noise, [_seed_of(pair, rep) for pair, rep in jobs],
        )
        assert index.shape == (len(pairs), repetitions)
        assert np.array_equal(acts_a[index.ravel()], full_a)
        assert np.array_equal(acts_b[index.ravel()], full_b)


# A side is a machine, or the probability p of a coin, as reference_play takes it.
_machines = fsm_specs(max_states=6)
_coins = st.sampled_from((0.0, 0.5, 1.0))


def _side_program(side):
    return fsm_program(side) if isinstance(side, FsmSpec) else random_program(side)


class TestBlockEdges:
    """Draws are made a block of turns at a time; a match must not see where."""

    @pytest.mark.parametrize("coins_on", ["A", "B", "AB"], ids=["A", "B", "both"])
    @given(
        data=st.data(),
        rows=st.lists(st.tuples(st.one_of(_machines, _coins), st.one_of(_machines, _coins)),
                      max_size=4),
        size=st.sampled_from((100, 300, 700, 1024, 1100)),
        noise=st.sampled_from((0.0, 0.1, 1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_the_generic_loop(self, coins_on, data, rows, size, noise):
        # the first row holds the coin(s) named by coins_on; the others are drawn
        first = tuple(data.draw(_coins if side in coins_on else _machines) for side in "AB")
        rows = [first] + rows
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(rows),
                                   max_size=len(rows)))
        # the drawn rows lead a batch of size rows, whose block length sets the edges
        block = _block_turns(size, 2**31)
        turns = data.draw(st.sampled_from((1, block - 1, block, block + 1, 2 * block + 1)))
        batch = [rows[row % len(rows)] for row in range(size)]
        out_a, out_b = play_batch([_side_program(a) for a, _ in batch],
                                  [_side_program(b) for _, b in batch], turns, noise,
                                  seeds + list(range(size - len(rows))))
        for row, ((side_a, side_b), seed) in enumerate(zip(rows, seeds)):
            ref_a, ref_b, _, _ = reference_play(side_a, side_b, turns, noise, seed)
            assert out_a[row].tolist() == list(ref_a), row
            assert out_b[row].tolist() == list(ref_b), row

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_a_coin_ignores_the_tables_of_its_program(self, e6, noise):
        # a Random program's codes are never stepped: filled-in ones play
        # the coin of all-zero ones, next to a machine's cells in the table
        machine = fsm_program(e6)
        cells = machine.codes.size
        filled = Program(KIND_RANDOM, [3] * cells, 5, 0.5)
        plain = random_program(0.5)
        turns = 2 * _block_turns(2, 2**31) + 1
        want_a, want_b = play_batch([plain, machine], [machine, plain], turns, noise, [4, 5])
        got_a, got_b = play_batch([filled, machine], [machine, filled], turns, noise, [4, 5])
        assert np.array_equal(got_a, want_a)
        assert np.array_equal(got_b, want_b)

    @pytest.mark.parametrize("rows, blocks", [
        (231, [70, 70, 60]),  # the default tournament's batch: 16,384 // 231 turns a block
        (1024, [16] * 12 + [8]),  # from 1,024 rows on, 16-turn blocks as before
        (1050, [16] * 12 + [8]),  # noisy_profile's batch
    ])
    def test_a_batch_draws_in_blocks_set_by_its_row_count(self, monkeypatch, rows, blocks):
        counts, draws = [], kernels._draws

        def counted(state, first, count, step=1):
            counts.append(count)
            return draws(state, first, count, step)

        monkeypatch.setattr(kernels, "_draws", counted)
        coin = random_program(0.5)
        play_batch([coin] * rows, [coin] * rows, 200, 0.0, list(range(rows)))
        assert counts == blocks  # at noise 0 only the coins draw, once a block


@given(level=st.one_of(st.sampled_from((0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0)),
                       st.floats(0.0, 1.0)))
def test_limit_is_the_integer_form_of_a_double_below_level(level):
    # m * 2**-53 is a draw's double; m < _limit(level) must say m * 2**-53 < level
    limit = int(_limit(level))
    for m in (limit - 1, limit):
        if 0 <= m < 2 ** 53:
            assert (m * 2.0 ** -53 < level) == (m < limit)


def test_no_module_reads_the_program_views_that_only_the_tracer_reads():
    # next_state, emit, start and first decode a Program's codes and opening
    # for perfbench's tracer; the package reads codes and opening alone.
    views = {"next_state", "emit", "start", "first"}
    reads = [f"{path.name}: {ast.unparse(node)}"
             for path in sorted(Path(ipdlab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in views]
    # fsm.read_text reads the offset of a UnicodeDecodeError, not of a Program
    assert reads == ["fsm.py: exc.start", "fsm.py: exc.start"]
