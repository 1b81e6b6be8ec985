"""The built-in roster: classic behaviors, FSM encodings, the registry."""

import pytest
from hypothesis import given, settings

from ipdlab import (
    Action,
    MatchConfig,
    UnknownStrategyError,
    builtin_fsm,
    builtin_strategy,
    parse_fsm,
    roster_default,
    trace_match,
)
from ipdlab.rng import SplitMix64
from ipdlab.strategies import (
    CLASSIC_FSMS,
    FsmStrategy,
    Random,
    _GOLDEN_SHA256,
    _load_golden,
)

from conftest import action_sequences


def _drive(strategy, opponent_actions, rng=None):
    """Feed a fixed opponent script to a strategy, collect its plays."""
    strategy.reset(rng)
    out = [strategy.opening()]
    for opp in opponent_actions:
        out.append(strategy.respond(opp))
    return out


def _script(text):
    return [Action.from_token(ch) for ch in text]


def _assert_pinned(name, *scripts):
    """Each (opponent script, expected plays) pair plays as pinned, and the
    scripts together visit every (state, opponent action) row of the
    classic's machine, so no row of its FSM text goes unchecked."""
    visited = set()
    for opponent, expected in scripts:
        strat = builtin_strategy(name)()
        strat.reset()
        plays = [strat.opening()]
        for opp in _script(opponent):
            visited.add((strat.state, opp))
            plays.append(strat.respond(opp))
        assert plays == _script(expected), opponent
    assert visited == set(CLASSIC_FSMS[name].transitions)


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
        plays = _drive(builtin_strategy("WinStayLoseShift")(), _script("DDDD"))
        assert plays == _script("CDCDC")


class TestRandom:
    def test_probability_bounds_checked(self):
        with pytest.raises(ValueError, match="probability"):
            Random(1.5)

    def test_needs_a_stream(self):
        with pytest.raises(ValueError, match="stream"):
            Random(0.5).reset(None)

    def test_extreme_probabilities_are_constant(self):
        always = _drive(Random(1.0), _script("DDDD"), rng=SplitMix64(7))
        never = _drive(Random(0.0), _script("CCCC"), rng=SplitMix64(7))
        assert always == _script("CCCCC")
        assert never == _script("DDDDD")

    def test_same_stream_same_plays(self):
        one = _drive(Random(0.5), _script("C" * 20), rng=SplitMix64(3))
        two = _drive(Random(0.5), _script("C" * 20), rng=SplitMix64(3))
        assert one == two
        assert Action.C in one and Action.D in one


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
        fsm_plays = _drive(builtin_strategy(name)(), script)
        assert rule_plays == fsm_plays

    def test_fsm_strategy_resets_between_matches(self):
        # one instance, two matches on the generic interpreter
        strat = FsmStrategy(builtin_fsm("EvolvedFSM6"))
        cfg = MatchConfig(turns=9, seed=1)
        first = trace_match(strat, builtin_strategy("Defector")(), cfg)
        second = trace_match(strat, builtin_strategy("Defector")(), cfg)
        assert first == second


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

    def test_every_entry_has_a_kernel_program(self, registry):
        spec = parse_fsm("fsm Custom\nstart 1 D\n1 C -> 1 D\n1 D -> 1 D\n")
        for reg in (registry, registry.with_fsm(spec)):
            for name in reg.names():
                assert reg.get(name).program is not None, name

    def test_builtin_strategy_factories_are_fresh(self):
        factory = builtin_strategy("Grudger")
        assert factory() is not factory()

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
