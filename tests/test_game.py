"""Stage game, payoff matrix, and match engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdlab import (
    Action,
    DEFAULT_PAYOFFS,
    FsmStrategy,
    MatchConfig,
    PayoffMatrix,
    builtin_strategy,
    play_match,
    trace_match,
)
from ipdlab.game import match_records, score_actions
from ipdlab.strategies import Strategy

from conftest import fsm_specs


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
        with pytest.raises(ValueError, match="at least one turn"):
            MatchConfig(turns=0)

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            MatchConfig(turns=5, noise=1.5)

    def test_boundary_noise_accepted(self):
        assert MatchConfig(turns=5, noise=0.0).noise == 0.0
        assert MatchConfig(turns=5, noise=1.0).noise == 1.0


class _NoProgram(Strategy):
    name = "NoProgram"

    def opening(self):
        return Action.C

    def respond(self, opp_prev):
        return opp_prev


def _play(name_a, name_b, **kwargs):
    cfg = MatchConfig(**kwargs)
    return play_match(builtin_strategy(name_a)(), builtin_strategy(name_b)(), cfg)


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

    def test_strategy_without_program_is_refused(self):
        cfg = MatchConfig(turns=4)
        with pytest.raises(ValueError, match="'NoProgram'.*trace_match"):
            play_match(builtin_strategy("Defector")(), _NoProgram(), cfg)
        trace = trace_match(builtin_strategy("Defector")(), _NoProgram(), cfg)
        assert trace.record.actions_b == "CDDD"


class TestTraceMatch:
    def test_fsm_state_trajectory_exposed(self):
        cfg = MatchConfig(turns=6, seed=0)
        trace = trace_match(
            builtin_strategy("EvolvedFSM6")(), builtin_strategy("Defector")(), cfg
        )
        assert trace.states_a == (5, 7, 6, 8, 4, 5)
        assert trace.states_b == (1,) * 6
        trace = trace_match(
            builtin_strategy("EvolvedFSM6")(), builtin_strategy("Random")(), cfg
        )
        assert trace.states_b == (None,) * 6

    def test_trace_record_matches_play_match(self):
        cfg = MatchConfig(turns=25, seed=5)
        trace = trace_match(
            builtin_strategy("SecondPrac")(), builtin_strategy("Alternator")(), cfg
        )
        record = play_match(
            builtin_strategy("SecondPrac")(), builtin_strategy("Alternator")(), cfg
        )
        assert trace.record == record


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
    forward = play_match(FsmStrategy(a), FsmStrategy(b), cfg)
    reverse = play_match(FsmStrategy(b), FsmStrategy(a), cfg)
    assert forward.actions_a == reverse.actions_b
    assert forward.actions_b == reverse.actions_a
    assert forward.payoff_a == reverse.payoff_b
    assert forward.payoff_b == reverse.payoff_a
