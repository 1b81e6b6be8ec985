"""Stage game, payoff matrix, and match engine."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipdlab import (
    Action,
    DEFAULT_PAYOFFS,
    MatchConfig,
    MatchRecord,
    PayoffMatrix,
    StrategyId,
    TournamentConfig,
    default_registry,
    fsm_entry,
    play_match,
    run_tournament,
    trace_match,
)
from ipdlab.game import match_records, score_actions
from ipdlab.kernels import random_program
from ipdlab.strategies import RegisteredStrategy

from conftest import fsm_specs, reference_play, reference_side


class TestAction:
    def test_values_double_as_indices(self):
        assert Action.C == 0
        assert Action.D == 1

    def test_flip(self):
        assert Action.C.flip() is Action.D
        assert Action.D.flip() is Action.C

    def test_from_token_rejects_junk(self):
        with pytest.raises(ValueError, match="expected action token"):
            Action.from_token("x")

    def test_string_round_trip(self):
        # a record spells each recorded action by its token
        actions = (Action.C, Action.D, Action.D, Action.C)
        record = match_records([actions], [actions[::-1]])[0]
        assert (record.actions_a, record.actions_b) == ("CDDC", "CDDC")
        assert tuple(Action.from_token(ch) for ch in record.actions_a) == actions


class TestPayoffMatrix:
    def test_default_values(self):
        m = DEFAULT_PAYOFFS
        assert (m.t, m.r, m.p, m.s) == (5.0, 3.0, 1.0, 0.0)

    def test_all_four_outcomes(self):
        table = DEFAULT_PAYOFFS.as_array()
        assert (table[Action.C, Action.C], table[Action.C, Action.C]) == (3.0, 3.0)
        assert (table[Action.C, Action.D], table[Action.D, Action.C]) == (0.0, 5.0)
        assert (table[Action.D, Action.C], table[Action.C, Action.D]) == (5.0, 0.0)
        assert (table[Action.D, Action.D], table[Action.D, Action.D]) == (1.0, 1.0)

    def test_stage_payoffs_are_symmetric(self):
        # one [own, opponent] table serves both seats: a turn scores each
        # player from its own row
        table = DEFAULT_PAYOFFS.as_array()
        for a in (Action.C, Action.D):
            for b in (Action.C, Action.D):
                pa, pb = score_actions((a,), (b,))
                qb, qa = score_actions((b,), (a,))
                assert (pa, pb) == (qa, qb) == (table[a, b], table[b, a])

    def test_ordering_invariant_enforced(self):
        with pytest.raises(ValueError, match="t > r > p > s"):
            PayoffMatrix(t=3, r=3, p=1, s=0)

    def test_alternation_invariant_enforced(self):
        # t + s = 2r exactly: alternating exploitation ties mutual
        # cooperation, which the dilemma definition rules out.
        with pytest.raises(ValueError, match="2r > t \\+ s"):
            PayoffMatrix(t=6, r=3, p=1, s=0)

    def test_custom_matrix_accepted(self):
        table = PayoffMatrix(t=7, r=5, p=2, s=1).as_array()
        assert (table[Action.D, Action.C], table[Action.C, Action.D]) == (7, 1)


class TestMatchConfig:
    def test_zero_turns_rejected(self):
        with pytest.raises(ValueError, match="turns must be positive"):
            MatchConfig(turns=0)

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            MatchConfig(turns=5, noise=1.5)

    def test_boundary_noise_accepted(self):
        assert MatchConfig(turns=5, noise=0.0).noise == 0.0
        assert MatchConfig(turns=5, noise=1.0).noise == 1.0


def _entry(name):
    return default_registry().get(name)


def _play(name_a, name_b, **kwargs):
    return play_match(_entry(name_a), _entry(name_b), MatchConfig(**kwargs))


def _letters(codes) -> str:
    return "".join("CD"[code] for code in codes)


class TestPlayMatch:
    def test_titfortat_punishes_defector(self):
        record = _play("TitForTat", "Defector", turns=5)
        assert record.actions_a == "CDDDD"
        assert record.actions_b == "DDDDD"
        assert record.payoff_a == 4.0
        assert record.payoff_b == 9.0

    def test_record_length_matches_turns(self):
        record = _play("Alternator", "Grudger", turns=13)
        assert len(record.actions_a) == len(record.actions_b) == 13

    def test_payoffs_equal_recomputed_totals(self):
        record = _play("WinStayLoseShift", "Alternator", turns=20)
        codes_a = [Action.from_token(ch) for ch in record.actions_a]
        codes_b = [Action.from_token(ch) for ch in record.actions_b]
        assert (record.payoff_a, record.payoff_b) == score_actions(codes_a, codes_b)

    def test_deterministic_given_config(self):
        one = _play("Random", "TitForTat", turns=30, seed=99)
        two = _play("Random", "TitForTat", turns=30, seed=99)
        assert one == two

    def test_different_seeds_move_the_coin(self):
        one = _play("Random", "Random", turns=30, seed=1)
        two = _play("Random", "Random", turns=30, seed=2)
        assert one != two

    def test_seed_irrelevant_for_deterministic_players_at_zero_noise(self):
        one = _play("TitForTat", "Grudger", turns=30, seed=1)
        two = _play("TitForTat", "Grudger", turns=30, seed=2)
        assert one == two

    def test_full_noise_flips_everything(self):
        record = _play("Cooperator", "Cooperator", turns=8, noise=1.0, seed=4)
        assert record.actions_a == "D" * 8
        assert record.actions_b == "D" * 8

    def test_noise_changes_with_seed(self):
        one = _play("Cooperator", "Cooperator", turns=50, noise=0.2, seed=10)
        two = _play("Cooperator", "Cooperator", turns=50, noise=0.2, seed=11)
        assert one != two

    def test_strategies_see_recorded_actions(self):
        # At full noise a cooperator is recorded as all-D, so TitForTat
        # must answer those recorded defections... and then its own D
        # gets flipped back to C by the same noise.  Everyone ends up
        # recorded as C from turn 2 on except TitForTat's first reply.
        record = _play("TitForTat", "Cooperator", turns=6, noise=1.0, seed=0)
        assert record.actions_b == "DDDDDD"
        assert record.actions_a == "DCCCCC"

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64, 2**70 + 3])
    def test_seed_outside_64_bits_plays_as_trace_match_does(self, seed):
        # the streams read a seed mod 2**64, as the reference loop does
        cfg = MatchConfig(turns=5, noise=0.1, seed=seed)
        record = _play("Random", "TitForTat", turns=5, noise=0.1, seed=seed)
        assert record == trace_match(_entry("Random"), _entry("TitForTat"), cfg).record
        ref_a, ref_b, _, _ = reference_play(
            reference_side(_entry("Random")), _entry("TitForTat").spec, 5, 0.1, seed)
        assert (record.actions_a, record.actions_b) == (_letters(ref_a), _letters(ref_b))


class TestTraceMatch:
    def test_fsm_state_trajectory_exposed(self):
        cfg = MatchConfig(turns=6, seed=0)
        trace = trace_match(_entry("EvolvedFSM6"), _entry("Defector"), cfg)
        assert trace.states_a == (5, 7, 6, 8, 4, 5)
        assert trace.states_b == (1,) * 6
        trace = trace_match(_entry("EvolvedFSM6"), _entry("Random"), cfg)
        assert trace.states_b == (None,) * 6

    def test_trace_record_matches_play_match(self):
        cfg = MatchConfig(turns=25, seed=5)
        trace = trace_match(_entry("SecondPrac"), _entry("Alternator"), cfg)
        record = play_match(_entry("SecondPrac"), _entry("Alternator"), cfg)
        assert trace.record == record


# A traced side: a machine, the registry's Random, or a coin of another p.
_traced_sides = st.one_of(
    fsm_specs(max_states=6).map(fsm_entry),
    st.just(_entry("Random")),
    st.sampled_from((0.0, 0.3, 1.0)).map(
        lambda p: RegisteredStrategy(StrategyId("Coin", "stochastic"), random_program(p), None)),
)


@given(
    a=_traced_sides,
    b=_traced_sides,
    noise=st.sampled_from((0.0, 0.1, 1.0)),
    turns=st.sampled_from((1, 15, 16, 17, 33)),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), -1),
                   st.integers(2**64, 2**70)),
)
@settings(max_examples=100, deadline=None)
def test_trace_states_are_the_reference_loops(a, b, noise, turns, seed):
    """The states walked over the recorded moves are the ones the per-turn
    loop steps through, noise flips included."""
    trace = trace_match(a, b, MatchConfig(turns=turns, noise=noise, seed=seed))
    ref_a, ref_b, states_a, states_b = reference_play(
        reference_side(a), reference_side(b), turns, noise, seed)
    assert (trace.record.actions_a, trace.record.actions_b) == (_letters(ref_a), _letters(ref_b))
    assert (trace.states_a, trace.states_b) == (states_a, states_b)


@given(
    seq_a=st.lists(st.sampled_from((Action.C, Action.D)), min_size=1, max_size=30),
)
def test_score_bounds_per_turn(seq_a):
    """Any single-turn payoff sits inside [s, t]."""
    seq_b = [a.flip() for a in seq_a]
    pa, pb = score_actions(tuple(seq_a), tuple(seq_b))
    n = len(seq_a)
    assert DEFAULT_PAYOFFS.s * n <= pa <= DEFAULT_PAYOFFS.t * n
    assert DEFAULT_PAYOFFS.s * n <= pb <= DEFAULT_PAYOFFS.t * n


@given(a=fsm_specs(max_states=3, name="a"), b=fsm_specs(max_states=3, name="b"))
@settings(max_examples=30, deadline=None)
def test_swapped_seats_mirror_the_record(a, b):
    """Deterministic players at zero noise don't care which seat they get."""
    cfg = MatchConfig(turns=12, noise=0.0, seed=9)
    forward = play_match(fsm_entry(a), fsm_entry(b), cfg)
    reverse = play_match(fsm_entry(b), fsm_entry(a), cfg)
    assert forward.actions_a == reverse.actions_b
    assert forward.actions_b == reverse.actions_a
    assert forward.payoff_a == reverse.payoff_b
    assert forward.payoff_b == reverse.payoff_a


@st.composite
def fractional_payoffs(draw):
    """PayoffMatrix values with fractional parts: s, then positive gaps up to t."""
    gap = st.floats(0.01, 10.0, allow_nan=False)
    s = draw(st.floats(-10.0, 10.0, allow_nan=False))
    p = s + draw(gap)
    r = p + draw(gap)
    # 2r > t + s holds for any t below 2r - s
    t = r + (r - s) * draw(st.floats(0.01, 0.99))
    return PayoffMatrix(t=t, r=r, p=p, s=s)


@given(matrix=fractional_payoffs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_score_actions_equals_the_two_dimensional_gather(matrix, data):
    """The flat-table sums are the [own, opponent] table's, bit for bit."""
    shape = data.draw(st.tuples(st.integers(0, 4), st.integers(1, 40)))
    codes = st.lists(st.integers(0, 1), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    codes_a = np.array(data.draw(codes), dtype=np.int8).reshape(shape)
    codes_b = np.array(data.draw(codes), dtype=np.int8).reshape(shape)
    table = matrix.as_array()
    payoffs_a, payoffs_b = score_actions(codes_a, codes_b, matrix)
    assert payoffs_a.tobytes() == table[codes_a, codes_b].sum(axis=-1).tobytes()
    assert payoffs_b.tobytes() == table[codes_b, codes_a].sum(axis=-1).tobytes()


@st.composite
def integer_payoffs(draw, turns):
    """PayoffMatrix values that are integers with turns x |entry| below 2**53, often
    at that bound: score_actions takes them from outcome counts."""
    limit = (2 ** 53 - 1) // turns
    entry = st.one_of(st.integers(-9, 9), st.integers(-limit, limit),
                      st.integers(limit - 3, limit), st.integers(-limit, 3 - limit))
    s, p, r = sorted(draw(st.lists(entry, min_size=3, max_size=3, unique=True)))
    assume(r < limit)
    top = min(limit, 2 * r - s - 1)  # t < 2r - s, and s <= r - 2 leaves room above r
    t = draw(st.one_of(st.just(top), st.integers(r + 1, top)))
    return PayoffMatrix(t=float(t), r=float(r), p=float(p), s=float(s))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_score_actions_of_an_integer_matrix_equals_the_gather(data):
    """Totals from outcome counts are the [own, opponent] table's sums, bit for bit."""
    shape = data.draw(st.tuples(st.integers(0, 4), st.integers(1, 40)))
    matrix = data.draw(integer_payoffs(shape[1]))
    codes = st.lists(st.integers(0, 1), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    codes_a = np.array(data.draw(codes), dtype=np.int8).reshape(shape)
    codes_b = np.array(data.draw(codes), dtype=np.int8).reshape(shape)
    table = matrix.as_array()
    payoffs_a, payoffs_b = score_actions(codes_a, codes_b, matrix)
    assert payoffs_a.tobytes() == table[codes_a, codes_b].sum(axis=-1).tobytes()
    assert payoffs_b.tobytes() == table[codes_b, codes_a].sum(axis=-1).tobytes()


@pytest.mark.parametrize("matrix", [PayoffMatrix(t=3.0, r=2.0, p=1.0, s=-0.0),
                                    PayoffMatrix(t=-0.0, r=-1.0, p=-3.0, s=-4.0)])
def test_score_actions_of_a_matrix_with_a_negative_zero_equals_the_gather(matrix):
    # -0.0 is an integer, so these take the count form, whose zero total is +0.0;
    # numpy's sum of a row of -0.0 starts from +0.0 and gives +0.0 too
    codes_a = np.array([[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1]], dtype=np.int8)
    codes_b = np.array([[1, 1, 1], [0, 0, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
    table = matrix.as_array()
    payoffs_a, payoffs_b = score_actions(codes_a, codes_b, matrix)
    assert payoffs_a.tobytes() == table[codes_a, codes_b].sum(axis=-1).tobytes()
    assert payoffs_b.tobytes() == table[codes_b, codes_a].sum(axis=-1).tobytes()


def test_score_actions_past_the_count_bound_takes_the_gather():
    # 3 turns x 2**53 is past the bound.  The gather adds 1, 2**53 and 1, and both
    # of its running sums past the first round 2**53 + 1 to 2**53; the exact
    # total, 2**53 + 2, is a double, so only the gather reads 2**53.
    matrix = PayoffMatrix(t=2.0 ** 53, r=2.0 ** 53 - 2, p=1.0, s=0.0)
    payoffs_a, payoffs_b = score_actions([[1, 1, 1]], [[1, 0, 1]], matrix)
    assert payoffs_a.tolist() == [2.0 ** 53]
    assert payoffs_b.tolist() == [2.0]


class TestMatchRecord:
    RECORD = MatchRecord("CDD", "DCC", 5.0, 5.0)

    def test_repr_names_every_field(self):
        assert repr(self.RECORD) == (
            "MatchRecord(actions_a='CDD', actions_b='DCC', payoff_a=5.0, payoff_b=5.0)")

    def test_fields_in_order(self):
        assert MatchRecord._fields == ("actions_a", "actions_b", "payoff_a", "payoff_b")
        assert tuple(self.RECORD) == ("CDD", "DCC", 5.0, 5.0)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.RECORD.payoff_a = 0.0
        assert self.RECORD.payoff_a == 5.0

    def test_equal_records_hash_equal(self):
        twin = MatchRecord("CDD", "DCC", 5.0, 5.0)
        assert twin == self.RECORD and twin is not self.RECORD
        assert hash(twin) == hash(self.RECORD) == hash(("CDD", "DCC", 5.0, 5.0))
        assert len({twin, self.RECORD}) == 1
        assert MatchRecord("CDD", "DCC", 5.0, 4.0) != self.RECORD

    def test_repetitions_of_a_deterministic_pair_share_one_unchangeable_record(self):
        result = run_tournament(TournamentConfig(
            roster=("TitForTat", "Defector"), turns=5, repetitions=3, noise=0.0))
        first, *others = (result.histories[("Defector", "TitForTat", rep)] for rep in range(3))
        assert all(record is first for record in others)
        with pytest.raises(AttributeError):
            first.actions_a = "CCCCC"
        with pytest.raises(TypeError):
            first[0] = "CCCCC"
        assert first == MatchRecord("DDDDD", "CDDDD", 9.0, 4.0)


_GATHER_LETTERS = np.frombuffer(b"CD", np.uint8)


def _gathered_letters(codes) -> list:
    """Each row's C/D text by the table gather match_records once made: the oracle.
    Its byte-string view needs each row contiguous, so it reads a C-order copy."""
    codes = np.ascontiguousarray(codes)
    return _GATHER_LETTERS[codes].view(f"S{codes.shape[1]}").astype(str).ravel().tolist()


def _assert_records_spell_the_gathered_letters(codes_a, codes_b):
    records = match_records(codes_a, codes_b)
    payoffs_a, payoffs_b = score_actions(codes_a, codes_b)
    assert [record.actions_a for record in records] == _gathered_letters(codes_a)
    assert [record.actions_b for record in records] == _gathered_letters(codes_b)
    assert [record.payoff_a for record in records] == payoffs_a.tolist()
    assert [record.payoff_b for record in records] == payoffs_b.tolist()


@given(data=st.data(), fortran=st.booleans())
@settings(max_examples=100, deadline=None)
def test_match_records_of_a_kernel_block_spell_the_gathered_letters(data, fortran):
    """int8 (matches, turns) blocks as the kernel returns them, in either memory order."""
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 60)))
    codes = st.lists(st.integers(0, 1), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    codes_a, codes_b = (np.array(data.draw(codes), dtype=np.int8).reshape(shape)
                        for _ in range(2))
    if fortran:
        codes_a, codes_b = np.asfortranarray(codes_a), np.asfortranarray(codes_b)
    _assert_records_spell_the_gathered_letters(codes_a, codes_b)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_match_records_of_action_tuples_spell_the_gathered_letters(data):
    """Rows of Action tuples, as a caller may pass them."""
    matches, turns = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 40))
    rows = st.lists(st.tuples(*[st.sampled_from(Action)] * turns),
                    min_size=matches, max_size=matches)
    _assert_records_spell_the_gathered_letters(data.draw(rows), data.draw(rows))
