"""The built-in roster: classic behaviors, FSM encodings, the registry."""

from importlib import resources

import pytest
from hypothesis import given, settings

from ipdlab import (
    Action,
    FsmSpec,
    FsmValidationError,
    UnknownStrategyError,
    builtin_fsm,
    fsm_entry,
    fsm_step,
    parse_fsm,
    roster_default,
)
from ipdlab import strategies
from ipdlab.kernels import fsm_program, play_one, random_program
from ipdlab.strategies import (
    CLASSIC_FSMS,
    _GOLDEN_SHA256,
    _load_golden,
)

from conftest import action_sequences


def _drive(spec, opponent_actions):
    """Feed a fixed opponent script to a machine, collect its plays."""
    state, plays = spec.start_state, [spec.initial_action]
    for opp in opponent_actions:
        state, own = fsm_step(spec, state, opp)
        plays.append(own)
    return plays


def _script(text):
    return [Action.from_token(ch) for ch in text]


def _assert_pinned(name, *scripts):
    """Each (opponent script, expected plays) pair plays as pinned, and the
    scripts together visit every (state, opponent action) row of the
    classic's machine, so no row of its FSM text goes unchecked."""
    spec = CLASSIC_FSMS[name]
    visited = set()
    for opponent, expected in scripts:
        state, plays = spec.start_state, [spec.initial_action]
        for opp in _script(opponent):
            visited.add((state, opp))
            state, own = fsm_step(spec, state, opp)
            plays.append(own)
        assert plays == _script(expected), opponent
    assert visited == set(spec.transitions)


class TestClassicBehaviors:
    def test_cooperator_never_defects(self):
        _assert_pinned("Cooperator", ("DDCD", "CCCCC"))

    def test_defector_never_cooperates(self):
        _assert_pinned("Defector", ("CCDC", "DDDDD"))

    def test_titfortat_mirrors(self):
        _assert_pinned("TitForTat", ("CDDC", "CCDDC"))

    def test_titfortwotats_needs_two_in_a_row(self):
        _assert_pinned(
            "TitForTwoTats",
            ("DCDCD", "CCCCCC"),
            ("DDDCC", "CCDDCC"),
        )

    def test_grudger_never_forgives(self):
        _assert_pinned("Grudger", ("CDCDC", "CCDDDD"))

    def test_alternator_ignores_opponent(self):
        _assert_pinned("Alternator", ("CCDDC", "CDCDCD"))

    def test_winstayloseshift_against_alternator(self):
        _assert_pinned("WinStayLoseShift", ("CDCDC", "CCDDCC"))

    def test_winstayloseshift_flips_every_loss(self):
        plays = _drive(CLASSIC_FSMS["WinStayLoseShift"], _script("DDDD"))
        assert plays == _script("CDCDC")


def _coin_plays(p, opponent, turns, seed):
    """A coin's moves against a machine on the kernel, as C/D text."""
    plays, _ = play_one(random_program(p), fsm_program(CLASSIC_FSMS[opponent]), turns, 0.0, seed)
    return "".join("CD"[code] for code in plays.tolist())


class TestRandom:
    def test_extreme_probabilities_are_constant(self):
        assert _coin_plays(1.0, "Defector", 5, 7) == "CCCCC"
        assert _coin_plays(0.0, "Cooperator", 5, 7) == "DDDDD"

    def test_same_stream_same_plays(self):
        one = _coin_plays(0.5, "Cooperator", 21, 3)
        two = _coin_plays(0.5, "Cooperator", 21, 3)
        assert one == two
        assert "C" in one and "D" in one


def _wsls(mine, theirs):
    # win (opponent cooperated) -> stay, loss -> shift
    if not mine:
        return Action.C
    return mine[-1] if theirs[-1] is Action.C else mine[-1].flip()


# Each classic's textbook rule over the play history (own moves, opponent's
# moves), written independently of its FSM text.
_CLASSIC_RULES = {
    "Cooperator": lambda mine, theirs: Action.C,
    "Defector": lambda mine, theirs: Action.D,
    "TitForTat": lambda mine, theirs: theirs[-1] if theirs else Action.C,
    "TitForTwoTats": lambda mine, theirs: (
        Action.D if theirs[-2:] == [Action.D, Action.D] else Action.C
    ),
    "Grudger": lambda mine, theirs: Action.D if Action.D in theirs else Action.C,
    "Alternator": lambda mine, theirs: Action.C if len(mine) % 2 == 0 else Action.D,
    "WinStayLoseShift": _wsls,
}


def _drive_rule(rule, opponent_actions):
    mine, theirs = [], []
    for opp in [None, *opponent_actions]:
        if opp is not None:
            theirs.append(opp)
        mine.append(rule(mine, theirs))
    return mine


class TestFsmEncodings:
    """Each deterministic classic's machine plays its textbook rule, move for
    move."""

    def test_rules_cover_every_classic(self):
        assert sorted(_CLASSIC_RULES) == sorted(CLASSIC_FSMS)

    @pytest.mark.parametrize("name", sorted(CLASSIC_FSMS))
    @given(script=action_sequences)
    @settings(max_examples=40, deadline=None)
    def test_class_matches_machine(self, name, script):
        rule_plays = _drive_rule(_CLASSIC_RULES[name], script)
        fsm_plays = _drive(CLASSIC_FSMS[name], script)
        assert rule_plays == fsm_plays


class TestRegistry:
    def test_lookup_is_case_insensitive(self, registry):
        assert registry.get("titfortat").id.name == "TitForTat"
        assert registry.get("TITFORTAT").id.name == "TitForTat"

    def test_unknown_name_lists_known_ones(self, registry):
        with pytest.raises(UnknownStrategyError, match="known: Alternator"):
            registry.get("Nonesuch")

    def test_with_fsm_extends_without_mutating(self, registry):
        spec = parse_fsm("fsm Custom\nstart 1 D\n1 C -> 1 D\n1 D -> 1 D\n")
        extended = registry.with_fsm(spec)
        assert extended.get("custom").id.kind == "fsm"
        with pytest.raises(UnknownStrategyError):
            registry.get("custom")

    def test_with_fsm_rejects_name_collisions(self, registry):
        spec = parse_fsm("fsm TitForTat\nstart 1 C\n1 C -> 1 C\n1 D -> 1 D\n")
        with pytest.raises(ValueError, match="duplicate strategy name"):
            registry.with_fsm(spec)

    @pytest.mark.parametrize("transitions, violation", [
        ({(1, Action.C): (2, Action.C), (1, Action.D): (1, Action.D)},
         "dangling target 1/C->2"),
        ({(1, Action.C): (1, Action.C)}, "missing transition 1/D"),
    ], ids=["dangling_target", "missing_row"])
    def test_an_invalid_spec_makes_no_entry(self, registry, transitions, violation):
        spec = FsmSpec("Broken", (1,), 1, Action.C, transitions)
        for make in (fsm_entry, registry.with_fsm):
            with pytest.raises(FsmValidationError) as info:
                make(spec)
            assert info.value.violations == [violation]

    def test_every_entry_has_a_kernel_program(self, registry):
        spec = parse_fsm("fsm Custom\nstart 1 D\n1 C -> 1 D\n1 D -> 1 D\n")
        for reg in (registry, registry.with_fsm(spec)):
            for name in reg.names():
                assert reg.get(name).program is not None, name

    def test_builtin_fsm_rejects_non_machines(self):
        with pytest.raises(UnknownStrategyError, match="not one of the built-in machines"):
            builtin_fsm("TitForTat")

    def test_roster_default_order(self):
        names = [sid.name for sid in roster_default()]
        assert names == [
            "Cooperator", "Defector", "TitForTat", "TitForTwoTats", "Grudger",
            "Alternator", "WinStayLoseShift", "Random", "FirstPrac",
            "SecondPrac", "SecondPrac2", "SecondPrac3", "FourthPrac",
            "EvolvedFSM8", "EvolvedFSM6",
        ]

    def test_roster_default_kinds(self):
        kinds = {sid.name: sid.kind for sid in roster_default()}
        assert kinds["TitForTat"] == "behavioral"
        assert kinds["Random"] == "stochastic"
        assert kinds["EvolvedFSM6"] == "fsm"


class TestGoldenChecksums:
    def test_all_goldens_load(self):
        for name in _GOLDEN_SHA256:
            assert _load_golden(name).name == name

    def test_tampered_checksum_refuses_to_load(self, monkeypatch):
        monkeypatch.setitem(_GOLDEN_SHA256, "EvolvedFSM6", "0" * 64)
        with pytest.raises(RuntimeError, match="failed its checksum"):
            _load_golden("EvolvedFSM6")

    @pytest.mark.parametrize("line_end, loads", [(b"\n", True), (b"\r\n", False)],
                             ids=["lf", "crlf"])
    def test_the_pin_covers_the_bytes_not_the_decoded_text(self, tmp_path, monkeypatch,
                                                           line_end, loads):
        # a copy with other line ends parses to the same machine, but it is not the pinned file
        data = (resources.files("ipdlab") / "data" / "EvolvedFSM6.fsm").read_bytes()
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "EvolvedFSM6.fsm").write_bytes(data.replace(b"\n", line_end))
        monkeypatch.setattr(strategies.resources, "files", lambda package: tmp_path)
        if loads:
            assert _load_golden("EvolvedFSM6") == builtin_fsm("EvolvedFSM6")
        else:
            with pytest.raises(RuntimeError, match="failed its checksum"):
                _load_golden("EvolvedFSM6")
