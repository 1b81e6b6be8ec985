"""FSM model: validation, stepping, analysis, and the text format."""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings

from ipdlab import (
    Action,
    FsmParseError,
    FsmValidationError,
    behaviorally_equivalent,
    builtin_fsm,
    compare_transitions,
    fsm_step,
    parse_fsm,
    parse_fsm_line,
    prune_unreachable,
    reachable_states,
    serialize_fsm,
    serialize_fsm_line,
    validate_fsm,
)

from conftest import build_fsm, fsm_specs

TFT_TEXT = "fsm TitForTat\nstart 1 C\n1 C -> 1 C\n1 D -> 1 D\n"
ONE_STATE = build_fsm("x", 1, "C", {1: ((1, "C"), (1, "C"))})


class TestValidate:
    def test_valid_machine_has_no_violations(self, e8):
        assert validate_fsm(e8) == []

    def test_dangling_target_reported(self):
        spec = build_fsm("x", 1, "C", {
            1: ((1, "C"), (2, "D")),
            2: ((1, "C"), (9, "D")),
        })
        violations = validate_fsm(spec)
        assert violations == ["dangling target 2/D->9"]

    def test_missing_transition_reported(self):
        spec = build_fsm("x", 1, "C", {1: ((1, "C"), (1, "C"))})
        broken = replace(spec, transitions={(1, Action.C): (1, Action.C)})
        assert "missing transition 1/D" in validate_fsm(broken)

    def test_duplicate_state_id_reported(self):
        spec = build_fsm("x", 1, "C", {1: ((1, "C"), (1, "C"))})
        assert "duplicate state id 1" in validate_fsm(replace(spec, states=(1, 1)))

    def test_start_outside_state_set_reported(self):
        spec = build_fsm("x", 1, "C", {1: ((1, "C"), (1, "C"))})
        assert "start state 7 not in state set" in validate_fsm(replace(spec, start_state=7))

    def test_name_with_whitespace_reported(self):
        spec = build_fsm("a b", 1, "C", {1: ((1, "C"), (1, "C"))})
        assert any("name" in v for v in validate_fsm(spec))

    @pytest.mark.parametrize("change, violation", [
        ({"states": (0,)}, "state id 0 is not a positive integer"),
        ({"states": (True,)}, "state id True is not a positive integer"),
        ({"states": ("1",)}, "state id '1' is not a positive integer"),
        ({"initial_action": 2}, "initial action 2 is not C or D"),
        ({"transitions": {**ONE_STATE.transitions, (5, Action.C): (1, Action.C)}},
         "transition from unknown state 5/C"),
        ({"transitions": {**ONE_STATE.transitions, (1, Action.C): (1, 2)}},
         "own action 2 on 1/C is not C or D"),
    ], ids=["state_zero", "state_true", "state_text", "initial_action", "unknown_state",
            "own_action"])
    def test_a_hand_built_fault_is_reported_first(self, change, violation):
        # parse_fsm cannot build any of these machines
        assert validate_fsm(replace(ONE_STATE, **change))[0] == violation


class TestStep:
    def test_follows_the_table(self, e8):
        assert fsm_step(e8, 5, Action.D) == (7, Action.D)
        assert fsm_step(e8, 5, Action.C) == (5, Action.C)

    def test_unknown_state_is_a_caller_bug(self, e8):
        with pytest.raises(KeyError, match="state 99"):
            fsm_step(e8, 99, Action.C)


class TestReachability:
    def test_evolved8_has_two_dead_states(self, e8):
        report = reachable_states(e8)
        assert report.reachable == frozenset({3, 4, 5, 6, 7, 8})
        assert report.unreachable == frozenset({1, 2})

    def test_firstprac_fully_reachable(self):
        report = reachable_states(builtin_fsm("FirstPrac"))
        assert report.unreachable == frozenset()
        assert report.reachable == frozenset(range(1, 9))

    def test_secondprac_fully_reachable(self, secondprac):
        assert reachable_states(secondprac).unreachable == frozenset()

    def test_prune_drops_exactly_the_dead_states(self, e8, e6):
        pruned = prune_unreachable(e8)
        assert replace(pruned, name="EvolvedFSM6") == e6

    def test_prune_is_idempotent(self, e8):
        once = prune_unreachable(e8)
        assert prune_unreachable(once) == once

    def test_prune_keeps_fully_reachable_machines_intact(self):
        first = builtin_fsm("FirstPrac")
        assert prune_unreachable(first) == first

    @given(spec=fsm_specs(max_states=5))
    @settings(max_examples=60)
    def test_prune_preserves_behavior(self, spec):
        pruned = prune_unreachable(spec)
        assert validate_fsm(pruned) == []
        assert behaviorally_equivalent(spec, pruned)


def _emitted(spec, opponent_actions):
    """Everything the machine plays against a fixed opponent script."""
    out = [spec.initial_action]
    state = spec.start_state
    for opp in opponent_actions:
        state, own = spec.transitions[(state, opp)]
        out.append(own)
    return out


class TestEquivalence:
    def test_pruning_is_behavior_preserving(self, e8, e6):
        assert behaviorally_equivalent(e8, e6)

    def test_opening_moves_differ(self):
        coop = build_fsm("c", 1, "C", {1: ((1, "C"), (1, "C"))})
        defect = build_fsm("d", 1, "D", {1: ((1, "D"), (1, "D"))})
        assert not behaviorally_equivalent(coop, defect, horizon=1)

    def test_horizon_hides_deep_differences(self):
        # TitForTat and WinStayLoseShift agree on every length-1
        # opponent sequence but split on (D, C): TFT forgives, WSLS
        # stays sour.
        tft = parse_fsm(TFT_TEXT)
        wsls = build_fsm("wsls", 1, "C", {
            1: ((1, "C"), (2, "D")),
            2: ((2, "D"), (1, "C")),
        })
        assert behaviorally_equivalent(tft, wsls, horizon=1)
        assert not behaviorally_equivalent(tft, wsls, horizon=2)
        assert not behaviorally_equivalent(tft, wsls)

    def test_horizon_must_be_positive(self, e8, e6):
        with pytest.raises(ValueError, match="horizon"):
            behaviorally_equivalent(e8, e6, horizon=0)

    @given(spec=fsm_specs(max_states=4))
    @settings(max_examples=40)
    def test_reflexive(self, spec):
        assert behaviorally_equivalent(spec, spec)

    @given(a=fsm_specs(max_states=3), b=fsm_specs(max_states=3))
    @settings(max_examples=60)
    def test_exact_check_matches_brute_force(self, a, b):
        # Distinguishing sequences never need to be longer than the
        # number of product states, so exhausting that length is an
        # exact oracle for these small machines.
        depth = len(a.states) * len(b.states)
        brute = all(
            _emitted(a, seq) == _emitted(b, seq)
            for seq in product((Action.C, Action.D), repeat=depth)
        )
        assert behaviorally_equivalent(a, b) == brute
        assert behaviorally_equivalent(a, b) == behaviorally_equivalent(b, a)


class TestTransitionDiff:
    def test_secondprac_variants_differ_in_one_entry(self, secondprac):
        diff = compare_transitions(secondprac, builtin_fsm("SecondPrac2"))
        assert diff.action_changed == ((5, Action.D),)
        assert diff.target_changed == ()
        assert diff.both_changed == ()
        assert len(diff.unchanged) == 19

    def test_third_variant_adds_another_move_change(self):
        diff = compare_transitions(builtin_fsm("SecondPrac2"), builtin_fsm("SecondPrac3"))
        assert diff.action_changed == ((4, Action.C),)
        assert len(diff.unchanged) == 19

    def test_secondprac_to_fourthprac_full_classification(self, secondprac, fourthprac):
        # The full rewrite touched 9 of 20 entries: five move changes,
        # one retarget, three that changed both.  Criterion 05 counts the
        # entries that keep their emitted move: the 11 unchanged ones and
        # the retarget.
        diff = compare_transitions(secondprac, fourthprac)
        assert diff.total == 20
        assert sorted(diff.action_changed) == [
            (4, Action.C), (4, Action.D), (7, Action.C), (10, Action.C), (10, Action.D),
        ]
        assert diff.target_changed == ((6, Action.C),)
        assert sorted(diff.both_changed) == [(5, Action.C), (5, Action.D), (6, Action.D)]
        assert len(diff.unchanged) == 11
        # 12 entries keep their emitted move.
        assert len(diff.unchanged) + len(diff.target_changed) == 12
        assert not diff.initial_action_changed
        assert not diff.start_state_changed

    def test_state_sets_must_match(self, e8, e6):
        with pytest.raises(ValueError, match="different state sets"):
            compare_transitions(e8, e6)


class TestParse:
    def test_round_trip_all_builtins(self):
        for name in ("FirstPrac", "SecondPrac", "SecondPrac2", "SecondPrac3",
                     "FourthPrac", "EvolvedFSM8", "EvolvedFSM6"):
            spec = builtin_fsm(name)
            assert parse_fsm(serialize_fsm(spec)) == spec

    def test_single_line_round_trip(self, e6):
        line = serialize_fsm_line(e6)
        assert "\n" not in line
        assert parse_fsm_line(line) == e6

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a classic\n"
            "fsm TitForTat\n"
            "\n"
            "start 1 C   # begin friendly\n"
            "1 C -> 1 C\n"
            "1 D -> 1 D\n"
        )
        assert serialize_fsm(parse_fsm(text)) == TFT_TEXT

    def test_whitespace_is_free_form(self):
        text = "fsm  x\n start   1  C\n1   C ->   1 C\n1 D->1 D\n"
        # '1 D->1 D' is only four tokens; the arrow must stand alone
        with pytest.raises(FsmParseError, match="line 4"):
            parse_fsm(text)

    def test_serialization_is_canonical(self):
        jumbled = "fsm x\nstart 2 D\n2 D -> 1 C\n1 D -> 2 D\n2 C -> 2 D\n1 C -> 1 C\n"
        expected = "fsm x\nstart 2 D\n1 C -> 1 C\n1 D -> 2 D\n2 C -> 2 D\n2 D -> 1 C\n"
        assert serialize_fsm(parse_fsm(jumbled)) == expected

    def test_missing_fsm_line(self):
        with pytest.raises(FsmParseError, match="expected 'fsm <name>'"):
            parse_fsm("start 1 C\n1 C -> 1 C\n1 D -> 1 D\n")

    def test_missing_start_line(self):
        with pytest.raises(FsmParseError, match="no 'start' line"):
            parse_fsm("fsm x\n")

    @pytest.mark.parametrize("text, message", [
        ("fsm x\nstart 1\n", "line 2: 'start' takes a state id and an action"),
        ("", "line 1: no 'fsm <name>' line found"),
        ("# a note only\n\n", "line 1: no 'fsm <name>' line found"),
    ], ids=["short_start", "empty", "comment_only"])
    def test_a_parse_error_names_its_line(self, text, message):
        with pytest.raises(FsmParseError) as err:
            parse_fsm(text)
        assert str(err.value) == message

    def test_bad_state_id_carries_line_number(self):
        with pytest.raises(FsmParseError) as err:
            parse_fsm("fsm x\nstart one C\n")
        assert err.value.line_number == 2

    def test_bad_action_token(self):
        with pytest.raises(FsmParseError, match="expected C or D"):
            parse_fsm("fsm x\nstart 1 Z\n")

    def test_duplicate_transition_rejected(self):
        text = "fsm x\nstart 1 C\n1 C -> 1 C\n1 C -> 1 D\n1 D -> 1 D\n"
        with pytest.raises(FsmParseError, match="duplicate transition 1 C"):
            parse_fsm(text)

    def test_semantic_problems_raise_validation_error(self):
        text = "fsm x\nstart 1 C\n1 C -> 2 C\n"
        with pytest.raises(FsmValidationError) as err:
            parse_fsm(text)
        assert "missing transition 1/D" in err.value.violations
        assert "dangling target 1/C->2" in err.value.violations

    @pytest.mark.parametrize("text, line, first", [
        ("fsm x\nstart 1 C\n1 C -> 1 C\n\n1 D -> 2 D\n", 5, "dangling target 1/D->2"),
        ("fsm x\nstart 1 C\n1 C -> 1 C\n1 D -> 2 D\n# 2 C is gone\n2 D -> 1 C\n", 6,
         "missing transition 2/C"),
        ("fsm x\n\nstart 3 C\n1 C -> 1 C\n1 D -> 1 D\n", 3, "missing transition 3/C"),
    ], ids=["dangling_target", "other_row_of_its_state", "start_line"])
    def test_validation_error_names_the_line_of_its_first_violation(self, text, line, first):
        with pytest.raises(FsmValidationError) as err:
            parse_fsm(text)
        assert (err.value.line_number, err.value.violations[0]) == (line, first)
        assert str(err.value).startswith(f"line {line}: {first}")
        with pytest.raises(FsmValidationError, match=f"^statement {line}: {first}"):
            parse_fsm_line(text.replace("\n", ";"))

    def test_nonpositive_state_id_rejected(self):
        with pytest.raises(FsmParseError, match="positive"):
            parse_fsm("fsm x\nstart 0 C\n0 C -> 0 C\n0 D -> 0 C\n")

    @pytest.mark.parametrize("line, text", [
        (2, "fsm x\nstart {} C\n1 C -> 1 C\n1 D -> 1 D\n"),
        (3, "fsm x\nstart 1 C\n{} C -> 1 C\n1 D -> 1 D\n"),
        (4, "fsm x\nstart 1 C\n1 C -> 1 C\n1 D -> {} D\n"),
    ], ids=["start", "state", "target"])
    @pytest.mark.parametrize("token", ["+1", "\u0661", "1_0", "-1", "\u00b2", "1.0"])
    def test_a_state_id_is_plain_digits(self, line, text, token):
        # int() reads '+1', Arabic-Indic one and '1_0' as numbers
        with pytest.raises(FsmParseError) as err:
            parse_fsm(text.format(token))
        assert str(err.value) == f"line {line}: expected a state id, got {token!r}"

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_only_newlines_and_returns_end_a_line(self, char):
        # str.splitlines would end the comment at char and parse ' more'
        text = f"fsm x\n# a note{char} more\nstart 1 Q\n1 C -> 1 C\n1 D -> 1 D\n"
        with pytest.raises(FsmParseError, match=r"^line 3: expected C or D, got 'Q'$"):
            parse_fsm(text)
        # and a line holding char counts once
        with pytest.raises(FsmParseError, match=r"^line 1: 'fsm' takes exactly one name token$"):
            parse_fsm(f"fsm X{char}Y\nstart 1 C\n1 C -> 1 C\n1 D -> 1 D\n")

    def test_returns_end_lines_as_text_mode_reads_them(self):
        assert parse_fsm("fsm TitForTat\r\nstart 1 C\r1 C -> 1 C\n1 D -> 1 D") == parse_fsm(TFT_TEXT)
        with pytest.raises(FsmParseError, match=r"^line 4: "):
            parse_fsm("fsm x\r\nstart 1 C\r1 C -> 1 C\n1 D->1 D\n")

    @pytest.mark.parametrize("name", ["g,c1", "a;b", "a|b"])
    def test_bad_name_is_refused_at_its_line(self, name):
        with pytest.raises(FsmParseError) as err:
            parse_fsm(f"# machine\nfsm {name}\nstart 1 C\n1 C -> 1 C\n1 D -> 1 D\n")
        assert str(err.value) == (f"line 2: name {name!r} must be a single token "
                                  "without ';', ',', '|' or '#'")

    @given(spec=fsm_specs(max_states=6))
    @settings(max_examples=60)
    def test_round_trip_random_machines(self, spec):
        assert parse_fsm(serialize_fsm(spec)) == spec
        assert parse_fsm_line(serialize_fsm_line(spec)) == spec


class TestGoldenTables:
    """The shipped machines, checked against independent transcriptions."""

    def test_evolvedfsm8_table(self, e8):
        expected = build_fsm("EvolvedFSM8", 5, "C", {
            1: ((3, "C"), (8, "C")),
            2: ((1, "D"), (5, "D")),
            3: ((3, "D"), (8, "D")),
            4: ((7, "D"), (5, "C")),
            5: ((5, "C"), (7, "D")),
            6: ((3, "D"), (8, "D")),
            7: ((4, "C"), (6, "D")),
            8: ((3, "C"), (4, "D")),
        })
        assert e8 == expected

    def test_evolvedfsm6_table(self, e6):
        expected = build_fsm("EvolvedFSM6", 5, "C", {
            3: ((3, "D"), (8, "D")),
            4: ((7, "D"), (5, "C")),
            5: ((5, "C"), (7, "D")),
            6: ((3, "D"), (8, "D")),
            7: ((4, "C"), (6, "D")),
            8: ((3, "C"), (4, "D")),
        })
        assert e6 == expected

    def test_secondprac_table(self, secondprac):
        expected = build_fsm("SecondPrac", 1, "C", {
            1: ((2, "C"), (3, "D")),
            2: ((1, "C"), (4, "D")),
            3: ((4, "C"), (5, "D")),
            4: ((5, "C"), (6, "D")),
            5: ((2, "C"), (9, "C")),
            6: ((5, "D"), (7, "D")),
            7: ((5, "C"), (8, "D")),
            8: ((5, "D"), (5, "C")),
            9: ((2, "C"), (10, "C")),
            10: ((2, "C"), (4, "D")),
        })
        assert secondprac == expected

    def test_fourthprac_table(self, fourthprac):
        expected = build_fsm("FourthPrac", 1, "C", {
            1: ((2, "C"), (3, "D")),
            2: ((1, "C"), (4, "D")),
            3: ((4, "C"), (5, "D")),
            4: ((5, "D"), (6, "C")),
            5: ((5, "D"), (7, "D")),
            6: ((2, "D"), (9, "C")),
            7: ((5, "D"), (8, "D")),
            8: ((5, "D"), (5, "C")),
            9: ((2, "C"), (10, "C")),
            10: ((2, "D"), (4, "C")),
        })
        assert fourthprac == expected

    def test_firstprac_spot_checks(self):
        first = builtin_fsm("FirstPrac")
        assert first.start_state == 1
        assert first.initial_action is Action.C
        assert first.transitions[(7, Action.C)] == (4, Action.D)
        assert first.transitions[(8, Action.D)] == (4, Action.D)
        assert first.transitions[(4, Action.C)] == (5, Action.C)
