"""The tournament reports over records that several matches share.

At noise 0 every repetition of a deterministic pair shares one
MatchRecord object.  The history dump, the cooperation report and the
scores handle such a record once, and must give exactly what handling
every match on its own gives: each test keeps that plain per-match form
as its oracle.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipdlab import (
    MatchRecord,
    TournamentConfig,
    TournamentResult,
    cooperation_rates,
    roster_default,
    run_tournament,
)
from ipdlab.cli import _resolve_roster, main
from ipdlab.evolution import random_genome
from ipdlab.fsm import serialize_fsm
from ipdlab.rng import SplitMix64
from ipdlab.tournament import _format_payoff, render_history_dump

ROSTER = tuple(sid.name for sid in roster_default())


def _tournament(noise, self_matches, repetitions=10):
    return run_tournament(TournamentConfig(roster=ROSTER, repetitions=repetitions, noise=noise,
                                           include_self_matches=self_matches))


@pytest.fixture(scope="module", params=[(0.0, False), (0.0, True), (0.05, False), (0.05, True)],
                ids=["noise0", "noise0-self", "noise0.05", "noise0.05-self"])
def result(request):
    return _tournament(*request.param)


def _unshared(histories):
    """A copy of histories in which no two matches share a record object."""
    return {key: MatchRecord(*record) for key, record in histories.items()}


def _dump_by_line(histories):
    """The history dump, every line formatted on its own."""
    return "".join(
        f"{name_a}|{name_b}|{rep}|{record.actions_a}|{record.actions_b}|"
        f"{_format_payoff(record.payoff_a)}|{_format_payoff(record.payoff_b)}\n"
        for (name_a, name_b, rep), record in histories.items()
    )


def _scores_by_loop(result):
    """Normalized scores summed one (rep, pair) match at a time."""
    config, names = result.config, result.roster
    pairs = sorted({(name_a, name_b) for name_a, name_b, _rep in result.histories})
    scores = {name: [] for name in names}
    for rep in range(config.repetitions):
        totals = {name: 0.0 for name in names}
        seats = {name: 0 for name in names}
        for name_a, name_b in pairs:
            record = result.histories[(name_a, name_b, rep)]
            totals[name_a] += record.payoff_a
            seats[name_a] += 1
            totals[name_b] += record.payoff_b
            seats[name_b] += 1
        for name in names:
            scores[name].append(totals[name] / (config.turns * seats[name]))
    return scores


def _result_of(histories):
    return TournamentResult(config=None, roster=None, scores=None, histories=histories, ranking=None)


def test_only_noise_free_machine_pairs_share_records(result):
    shared = len(result.histories) - len(set(map(id, result.histories.values())))
    if result.config.noise:
        assert shared == 0
    else:  # every pair but Random's 14 or 15 replays one record in all 10 repetitions
        pairs = len(result.histories) // 10
        assert shared == 9 * (pairs - len(ROSTER) + 1 - result.config.include_self_matches)


def test_cooperation_rates_equal_those_of_unshared_records(result):
    unshared = _unshared(result.histories)
    for name in ROSTER:
        assert cooperation_rates(result.histories, name) == cooperation_rates(unshared, name)


def test_history_dump_equals_the_line_by_line_dump(result):
    assert render_history_dump(result) == _dump_by_line(result.histories)


def test_scores_equal_the_per_match_loop(result):
    assert result.scores == _scores_by_loop(result)


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("self_matches", [False, True])
def test_scores_of_one_repetition_equal_the_per_match_loop(noise, self_matches):
    result = _tournament(noise, self_matches, repetitions=1)
    assert result.scores == _scores_by_loop(result)
    assert all(len(scores) == 1 for scores in result.scores.values())


SHARED = MatchRecord("CCDCDD", "DCCDDC", 10.0, 11.0)
OTHER = MatchRecord("DDCCCD", "CDCDCC", 2.5, 9.0)

# One record object recurs: adjacent and not, under different pairs, in
# both seats, and in a repeated self-match.
HAND_MADE = {
    ("P", "Q", 0): SHARED,
    ("P", "Q", 1): SHARED,
    ("P", "R", 0): SHARED,  # another pair, the same seat
    ("O", "P", 0): SHARED,  # the other seat
    ("O", "P", 1): SHARED,
    ("P", "Q", 2): OTHER,
    ("P", "S", 0): SHARED,  # not adjacent to its last use
    ("P", "P", 0): SHARED,  # a self-match, three times
    ("P", "P", 1): SHARED,
    ("P", "P", 2): SHARED,
    ("P", "Q", 3): SHARED,
    ("Q", "R", 1): SHARED,  # a match P does not play, between two that P plays
    ("P", "R", 1): SHARED,
    ("R", "R", 0): OTHER,
    ("R", "R", 1): OTHER,
}


def _per_turn_counts(histories, player):
    """(count, cooperations) per context, counted one turn at a time."""
    counts = {}
    for (name_a, name_b, _rep), record in histories.items():
        views = [(record.actions_a, record.actions_b)] * (name_a == player)
        views += [(record.actions_b, record.actions_a)] * (name_b == player)
        for own, opp in views:
            for k in range(1, len(own)):
                count, coops = counts.get(own[k - 1] + opp[k - 1], (0, 0))
                counts[own[k - 1] + opp[k - 1]] = (count + 1, coops + (own[k] == "C"))
    return counts


@pytest.mark.parametrize("player", ["P", "Q", "R", "O", "S"])
def test_cooperation_rates_over_a_recurring_record(player):
    report = cooperation_rates(HAND_MADE, player)
    assert report == cooperation_rates(_unshared(HAND_MADE), player)
    counts = {label: (stats.count, stats.cooperations) for label, stats in report.contexts.items()}
    assert counts == _per_turn_counts(HAND_MADE, player)
    assert all(type(stats.count) is int and type(stats.cooperations) is int
               for stats in report.contexts.values())


def test_history_dump_over_a_recurring_record():
    assert render_history_dump(_result_of(HAND_MADE)) == _dump_by_line(HAND_MADE)


_POOL = (SHARED, OTHER, MatchRecord("CD", "DD", 1.0, 6.0))


@given(st.lists(st.tuples(st.sampled_from("PQR"), st.sampled_from("PQR"), st.sampled_from(_POOL)),
                min_size=1, max_size=12))
def test_any_sharing_of_records_reads_as_unshared(matches):
    histories = {(name_a, name_b, rep): record for rep, (name_a, name_b, record) in enumerate(matches)}
    unshared = _unshared(histories)
    for player in {name for name_a, name_b, _rep in histories for name in (name_a, name_b)}:
        assert cooperation_rates(histories, player) == cooperation_rates(unshared, player)
    assert render_history_dump(_result_of(histories)) == _dump_by_line(histories)


@pytest.mark.parametrize("noise", ["0", "0.05"])
def test_the_coop_report_of_a_60_entrant_field_walks_each_player_over_all_histories(
        tmp_path, noise):
    # the default 15 and 45 random six-state machines, self-matches included
    paths = [tmp_path / f"M{i}.fsm" for i in range(45)]
    for i, path in enumerate(paths):
        path.write_text(serialize_fsm(random_genome(6, SplitMix64(i), f"M{i}")), encoding="utf-8")
    roster = ",".join(["default", *(f"@{path}" for path in paths)])
    settings = ["--turns", "20", "--reps", "3", "--noise", noise, "--seed", "5", "--self-matches"]
    coop = tmp_path / "coop.csv"
    assert main(["tournament", "--roster", roster, *settings, "--coop-report", str(coop)]) == 0

    registry, names = _resolve_roster(roster)
    result = run_tournament(TournamentConfig(roster=tuple(names), turns=20, repetitions=3,
                                             noise=float(noise), master_seed=5,
                                             include_self_matches=True), registry)
    assert len(result.roster) == 60
    lines = ["Name,Context,Count,Rate"]
    for name in result.roster:
        report = cooperation_rates(result.histories, name)  # every player walks the whole mapping
        lines.extend(f"{name},{label},{stats.count},{stats.rate:.9f}"
                     for label, stats in report.contexts.items())
    assert coop.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_repetitions_that_compare_equal_render_as_each_formats():
    # True == 1 and they hash alike, so a cache of repetition text must not mix them
    histories = {("P", "Q", True): SHARED, ("P", "R", 1): SHARED, ("Q", "R", 1.0): OTHER}
    assert render_history_dump(_result_of(histories)) == _dump_by_line(histories)
