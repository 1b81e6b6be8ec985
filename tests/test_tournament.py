"""Round-robin tournament scoring, ranking, profiling, and dump files."""

import os
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ipdlab import (
    MatchRecord,
    TournamentConfig,
    cooperation_rates,
    median_ranking,
    read_history_dump,
    roster_default,
    run_tournament,
    write_history_dump,
    write_ranking_csv,
)
from ipdlab import tournament
from ipdlab.tournament import render_history_dump, render_ranking_csv


def _run(roster, **kw):
    defaults = dict(turns=5, repetitions=1, noise=0.0, master_seed=0)
    defaults.update(kw)
    return run_tournament(TournamentConfig(roster=tuple(roster), **defaults))


class TestConfigValidation:
    def test_turns_must_be_positive(self):
        with pytest.raises(ValueError, match="turns"):
            TournamentConfig(roster=("Cooperator", "Defector"), turns=0)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            TournamentConfig(roster=("Cooperator", "Defector"), repetitions=0)

    def test_noise_range(self):
        with pytest.raises(ValueError, match="noise"):
            TournamentConfig(roster=("Cooperator", "Defector"), noise=1.5)

    def test_roster_size(self):
        with pytest.raises(ValueError, match="two entrants"):
            TournamentConfig(roster=("Cooperator",))

    def test_duplicate_roster_entries_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            _run(["Cooperator", "Cooperator"])


class TestThreePlayerOracle:
    """Cooperator/Defector/TitForTat at five turns, worked by hand.

    Coop: 0 vs Def, 15 vs TFT -> 15/10 = 1.5
    Def: 25 vs Coop, 9 vs TFT -> 34/10 = 3.4
    TFT: 15 vs Coop, 4 vs Def -> 19/10 = 1.9
    """

    ROSTER = ("Cooperator", "Defector", "TitForTat")

    def test_normalized_scores(self):
        result = _run(self.ROSTER)
        assert result.scores["Cooperator"] == [1.5]
        assert result.scores["Defector"] == [3.4]
        assert result.scores["TitForTat"] == [1.9]

    def test_ranking_order(self):
        result = _run(self.ROSTER)
        assert [(r.rank, r.name) for r in result.ranking] == [
            (1, "Defector"),
            (2, "TitForTat"),
            (3, "Cooperator"),
        ]
        assert median_ranking(result) == result.ranking

    def test_csv_text(self):
        text = render_ranking_csv(_run(self.ROSTER))
        lines = text.splitlines()
        assert lines[0] == "Rank,Name,Median Score"
        assert lines[1] == "1,Defector,3.400000000"
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_csv_writer_reports_line_count(self, tmp_path):
        out = tmp_path / "ranking.csv"
        assert write_ranking_csv(_run(self.ROSTER), out) == 4
        assert out.read_text().splitlines()[1] == "1,Defector,3.400000000"


class TestDeterminismContract:
    def test_rerun_is_identical(self):
        roster = ["TitForTat", "Random", "EvolvedFSM6", "Grudger"]
        one = _run(roster, turns=30, repetitions=3, noise=0.05, master_seed=9)
        two = _run(roster, turns=30, repetitions=3, noise=0.05, master_seed=9)
        assert one.scores == two.scores
        assert one.ranking == two.ranking
        assert one.histories == two.histories

    def test_roster_order_does_not_move_scores(self):
        roster = ["Random", "TitForTat", "Defector", "EvolvedFSM8"]
        forward = _run(roster, turns=25, repetitions=4, noise=0.1, master_seed=3)
        backward = _run(list(reversed(roster)), turns=25, repetitions=4, noise=0.1, master_seed=3)
        assert forward.scores == backward.scores
        assert forward.histories == backward.histories

    def test_tie_breaks_follow_roster_position(self):
        # mutual cooperators tie exactly at 3.0; position decides
        ab = _run(["Cooperator", "TitForTat"], turns=10)
        assert [r.name for r in ab.ranking] == ["Cooperator", "TitForTat"]
        ba = _run(["TitForTat", "Cooperator"], turns=10)
        assert [r.name for r in ba.ranking] == ["TitForTat", "Cooperator"]
        assert ab.ranking[0].median == ba.ranking[0].median == 3.0


class TestSelfMatches:
    def test_seat_normalization_includes_self_play(self):
        # Coop: self 3t+3t, vs Def 0 over 3 seats -> 2.0
        # Def: self t+t, vs Coop 5t over 3 seats -> 7/3
        result = _run(["Cooperator", "Defector"], turns=12, include_self_matches=True)
        assert result.scores["Cooperator"] == [pytest.approx(2.0)]
        assert result.scores["Defector"] == [pytest.approx(7 / 3)]
        assert ("Cooperator", "Cooperator", 0) in result.histories
        assert ("Defector", "Defector", 0) in result.histories


@pytest.mark.parametrize("noise", [0.0, 0.07])
def test_normalized_scores_stay_on_payoff_scale(noise):
    roster = ["Random", "Alternator", "WinStayLoseShift", "FourthPrac", "Defector"]
    result = _run(roster, turns=30, repetitions=2, noise=noise, master_seed=11)
    for per_rep in result.scores.values():
        for value in per_rep:
            assert 0.0 <= value <= 5.0


class TestCooperationRates:
    def test_mutual_cooperation_has_one_context(self):
        result = _run(["Cooperator", "TitForTat"], turns=10)
        report = cooperation_rates(result.histories, "Cooperator")
        assert set(report.contexts) == {"CC"}
        assert report.contexts["CC"].rate == 1.0
        assert report.contexts["CC"].count == 9

    def test_alternator_against_cooperator(self):
        result = _run(["Alternator", "Cooperator"], turns=9)
        report = cooperation_rates(result.histories, "Alternator")
        assert set(report.contexts) == {"CC", "DC"}
        assert report.contexts["CC"].rate == 0.0
        assert report.contexts["DC"].rate == 1.0
        assert report.contexts["CC"].count == 4
        assert report.contexts["DC"].count == 4

    def test_counts_sum_to_observed_turns(self):
        result = _run(
            ["Random", "TitForTat", "Grudger"], turns=40, repetitions=3, master_seed=5
        )
        report = cooperation_rates(result.histories, "Random")
        # Random sits in 2 matches x 3 reps, each contributing turns-1 samples
        assert sum(s.count for s in report.contexts.values()) == 2 * 3 * 39

    def test_punish_then_probe_profile(self):
        # the 6-state machine against Defector over 21 turns: defect from
        # every CD context, come back to C on a quarter of DD contexts
        result = _run(["EvolvedFSM6", "Defector"], turns=21)
        report = cooperation_rates(result.histories, "EvolvedFSM6")
        assert set(report.contexts) == {"CD", "DD"}
        assert report.contexts["CD"].count == 4
        assert report.contexts["CD"].rate == 0.0
        assert report.contexts["DD"].count == 16
        assert report.contexts["DD"].rate == 0.25

    def test_unknown_player_raises(self):
        result = _run(["Cooperator", "Defector"])
        with pytest.raises(ValueError, match="Mystery"):
            cooperation_rates(result.histories, "Mystery")


_records = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.sampled_from(("a", "b", "self")),
        st.text(alphabet="CD", min_size=n, max_size=n),
        st.text(alphabet="CD", min_size=n, max_size=n),
    )
)


@given(matches=st.lists(_records, min_size=1, max_size=4))
def test_cooperation_rates_match_a_per_turn_count(matches):
    """Each turn after the first is one sample of the context before it."""
    histories = {}
    expected = {}
    for rep, (seat, own, opp) in enumerate(matches):
        if seat == "b":
            histories[("Q", "P", rep)] = MatchRecord(opp, own, 0.0, 0.0)
        else:
            other = "P" if seat == "self" else "Q"
            histories[("P", other, rep)] = MatchRecord(own, opp, 0.0, 0.0)
        views = [(own, opp), (opp, own)] if seat == "self" else [(own, opp)]
        for mine, theirs in views:
            for k in range(1, len(mine)):
                label = mine[k - 1] + theirs[k - 1]
                count, coops = expected.get(label, (0, 0))
                expected[label] = (count + 1, coops + (mine[k] == "C"))
    report = cooperation_rates(histories, "P")
    got = {label: (s.count, s.cooperations) for label, s in report.contexts.items()}
    assert got == expected


def test_evolved_six_state_sustains_cooperation_with_titfortat():
    result = _run(["EvolvedFSM6", "TitForTat"], turns=50, repetitions=2)
    assert result.scores["EvolvedFSM6"] == [3.0, 3.0]
    assert result.scores["TitForTat"] == [3.0, 3.0]


class TestHistoryDump:
    def test_round_trip(self, tmp_path):
        result = _run(
            ["Random", "TitForTat", "EvolvedFSM8"], turns=15, repetitions=2, master_seed=2
        )
        path = tmp_path / "histories.txt"
        lines = write_history_dump(result, path)
        assert lines == 3 * 2  # three pairs, two reps
        assert read_history_dump(path) == result.histories

    def test_render_places_scores_last(self):
        result = _run(["Cooperator", "Defector"], turns=3)
        line = render_history_dump(result).splitlines()[0]
        assert line == "Cooperator|Defector|0|CCC|DDD|0|15"

    def test_fractional_payoffs_survive(self, tmp_path):
        result = _run(["Cooperator", "Defector"], turns=3)
        # tamper a payoff to a non-integer and round-trip it
        path = tmp_path / "h.txt"
        text = render_history_dump(result).replace("|0|15", "|0.5|15.25")
        path.write_text(text)
        record = read_history_dump(path)[("Cooperator", "Defector", 0)]
        assert record.payoff_a == 0.5
        assert record.payoff_b == 15.25

    def test_reader_reports_field_count_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A|B|0|CC|CC|6|6\nA|B|1|CC\n")
        with pytest.raises(ValueError, match="line 2.*7 pipe-separated"):
            read_history_dump(path)

    @pytest.mark.parametrize("line", ["|B|0|CC|DD|0|10", "A||0|CC|DD|0|10"],
                             ids=["name_a", "name_b"])
    def test_reader_refuses_an_empty_strategy_name(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"A|B|1|CC|CC|6|6\n{line}\n")
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == f"{path}: line 2: expected a strategy name, got ''"

    def test_reader_counts_fields_per_line_not_per_file(self, tmp_path):
        # 13 fields and 1 hold the 14 of two lines, and each field reads if
        # the file is cut into fields without regard to its lines
        path = tmp_path / "bad.txt"
        path.write_text("A|B|0|CC|DD|1|2|B|1|CC|DD|3|X\n4\n")
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == f"{path}: line 1: expected 7 pipe-separated fields, got 13"

    def test_reader_rejects_bad_action_characters(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A|B|0|CX|CC|6|6\n")
        with pytest.raises(ValueError, match="line 1"):
            read_history_dump(path)

    @pytest.mark.parametrize("text", ["CXD", "cc", "C D", "CDC ", ""])
    def test_reader_names_the_bad_action_text(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(f"A|B|0|CCC|DDD|0|15\nA|B|1|DDD|{text}|6|6\n")
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == f"{path}: line 2: expected C/D action text, got {text!r}"

    def test_reader_rejects_a_repeated_match(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("A|B|0|CC|DD|0|10\nA|B|1|CC|CC|6|6\nA|B|0|DD|DD|2|2\n")
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == f"{path}: line 3: duplicate match A|B|0"

    @pytest.mark.parametrize("field", [5, 6], ids=["payoff_a", "payoff_b"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_reader_refuses_a_payoff_that_is_not_finite(self, tmp_path, field, text):
        parts = "A|B|1|DDD|CCC|15|0".split("|")
        parts[field] = text
        path = tmp_path / "bad.txt"
        path.write_text("A|B|0|CCC|DDD|0|15\n" + "|".join(parts) + "\n")
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == f"{path}: line 2: expected a finite payoff, got {text!r}"

    @pytest.mark.parametrize("text", ["-1", "1_0", " 2 ", "+1", "1.0", "", "\u0663", "\u00b2"])
    def test_reader_refuses_a_repetition_that_is_not_digits(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(f"A|B|0|CCC|DDD|0|15\nA|B|{text}|DDD|CCC|15|0\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == (
            f"{path}: line 2: expected a repetition of digits 0-9, got {text!r}")

    def test_reader_names_the_line_of_a_repetition_too_long_for_int(self, tmp_path):
        rep = "1" * 5000
        path = tmp_path / "bad.txt"
        path.write_text(f"A|B|0|CCC|DDD|0|15\nA|B|{rep}|DDD|CCC|15|0\n")
        with pytest.raises(ValueError) as int_error:
            int(rep)  # past sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == f"{path}: line 2: {int_error.value}"

    def test_reader_rejects_uneven_action_strings(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A|B|0|CCC|CC|9|9\n")
        with pytest.raises(ValueError, match="differ in length"):
            read_history_dump(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("A|B|0|CC|DD|2|10\n\n")
        assert len(read_history_dump(path)) == 1


_NOT_A_LETTER = st.characters(exclude_characters="CD|\n\r", exclude_categories=("Cs",))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    turns=st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(st.text("CD", min_size=n, max_size=n),
                            st.text("CD", min_size=n, max_size=n))),
    seat=st.sampled_from((3, 4)),
    where=st.integers(min_value=0),
    char=_NOT_A_LETTER,
)
def test_reader_refuses_any_letter_but_c_and_d(tmp_path, turns, seat, where, char):
    """One stray character in an action field of line 2 names that field."""
    acts_a, acts_b = turns
    path = tmp_path / "h.txt"
    lines = ["A|B|0|CD|DC|5|5", f"A|B|1|{acts_a}|{acts_b}|7|9"]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert read_history_dump(path) == {
        ("A", "B", 0): MatchRecord("CD", "DC", 5.0, 5.0),
        ("A", "B", 1): MatchRecord(acts_a, acts_b, 7.0, 9.0),
    }
    parts = lines[1].split("|")
    text = parts[seat]
    where %= len(text)
    parts[seat] = text[:where] + char + text[where + 1:]
    lines[1] = "|".join(parts)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    with pytest.raises(ValueError) as err:
        read_history_dump(path)
    assert str(err.value) == (
        f"{path}: line 2: expected C/D action text, got {parts[seat]!r}")


def test_reader_refuses_every_other_ascii_character(tmp_path):
    """Every ASCII character the fields can hold, which random draws may miss."""
    path = tmp_path / "h.txt"
    for char in map(chr, range(128)):
        if char in "CD|\n\r":
            continue
        path.write_bytes(f"A|B|0|CD|DC|5|5\nA|B|1|CDC|D{char}D|7|9\n".encode())
        with pytest.raises(ValueError) as err:
            read_history_dump(path)
        assert str(err.value) == (
            f"{path}: line 2: expected C/D action text, got {'D' + char + 'D'!r}")


# ── the block reader ─────────────────────────────────────────────────

_WRITTEN = render_history_dump(_run(("Random", "TitForTat", "Defector"), turns=7, repetitions=2,
                                    noise=0.1, master_seed=2)).encode()
_SELF = render_history_dump(_run(("Random", "TitForTat"), turns=3, repetitions=2, noise=0.1,
                                 include_self_matches=True)).encode()

# At block sizes from 1 byte to the whole file, lines straddle blocks and run longer than one
_EDGE_DUMPS = {
    "written": _WRITTEN,
    "duplicate": b"A|B|0|CD|DC|5|5\nA|C|0|CC|CC|6|6\nA|B|0|DD|DD|2|2\n",
    "fault_then_not_utf8": b"A|B|0|CX|DC|5|5\nA|B|1|CC|CC|6|6\nA|\xffB|2|DD|DD|2|2\n",
    "not_utf8": _WRITTEN + b"A|\xffB|0|CD|DC|5|5\n",
    "crlf": _WRITTEN.replace(b"\n", b"\r\n"),
    "no_final_end": _WRITTEN[:-1],
    "empty": b"",
    "self_match": _SELF,
}


def _outcome(path, player):
    try:
        return list(read_history_dump(path, player).items())
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", _EDGE_DUMPS)
def test_every_block_size_reads_a_dump_as_the_whole_file_does(monkeypatch, tmp_path, name):
    data = _EDGE_DUMPS[name]
    path = tmp_path / "h.txt"
    path.write_bytes(data)
    players = (None, "A", "Random")
    with monkeypatch.context() as whole:
        whole.setattr(tournament, "_read_dump_blocks", lambda path, player: None)
        want = {player: _outcome(path, player) for player in players}
    for size in range(1, len(data) + 1):
        monkeypatch.setattr(tournament, "_BLOCK", size)
        for player in players:
            assert _outcome(path, player) == want[player], (size, player)
            if name in ("written", "self_match"):  # a dump as written never needs the whole file
                assert list(tournament._read_dump_blocks(path, player).items()) == want[player]


# "tft" lines come before any "TFT" line, and "Grim" is the one spelling of its name
_SPELLINGS = (b"tft|B|0|CD|DC|1|6\nA|B|0|CC|CC|3|3\nA|tft|1|DD|DD|1|1\n"
              b"TFT|B|0|CC|CD|0|5\nGrim|TFT|0|DC|CC|5|0\nB|Grim|1|CD|DD|0|1\n")


def test_every_block_size_reads_a_name_by_its_spelling_else_its_one_case_equal_name(monkeypatch, tmp_path):
    path = tmp_path / "h.txt"
    path.write_bytes(_SPELLINGS)
    every = list(read_history_dump(path).items())
    want = {  # a spelling's own lines, else the one name's equal to it ignoring case, else none
        "TFT": [item for item in every if "TFT" in item[0][:2]],
        "tft": [item for item in every if "tft" in item[0][:2]],
        "Tft": [],  # two names equal it ignoring case
        "GRIM": [item for item in every if "Grim" in item[0][:2]],
        "grim": [item for item in every if "Grim" in item[0][:2]],
        "Absent": [],
    }
    for size in range(1, len(_SPELLINGS) + 1):
        monkeypatch.setattr(tournament, "_BLOCK", size)
        for player, items in want.items():
            assert list(tournament._read_dump_blocks(path, player).items()) == items, (size, player)
            assert list(read_history_dump(path, player).items()) == items, (size, player)
    monkeypatch.setattr(tournament, "_read_dump_blocks", lambda path, player: None)
    for player, items in want.items():  # the line walk
        assert list(read_history_dump(path, player).items()) == items, player


def test_a_read_holds_blocks_not_the_file(tmp_path):
    # 4 MB of 200-turn lines.  The records a player's read returns stay, so the
    # gate is on what the read holds beyond them; a player in no line keeps none.
    path = tmp_path / "h.txt"
    roster = [sid.name for sid in roster_default()]
    write_history_dump(_run(roster, turns=200, repetitions=100, noise=0.05), path)
    assert path.stat().st_size >= 4 * 2**20
    for player, matches in (("Absent", 0), ("TitForTat", 14 * 100)):
        tracemalloc.start()
        try:
            histories = read_history_dump(path, player)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(histories) == matches
        assert peak - kept < 10 * tournament._BLOCK, player


def test_a_dump_with_cr_ends_leaves_the_block_reader_at_its_first_block(tmp_path):
    # the line walk reads '\r' ends, so the block reader carries nothing on
    path = tmp_path / "h.txt"
    path.write_bytes(_WRITTEN.replace(b"\n", b"\r") * (4 * 2**20 // len(_WRITTEN) + 1))
    tracemalloc.start()
    try:
        assert tournament._read_dump_blocks(path, None) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * tournament._BLOCK


def test_a_line_longer_than_many_blocks_is_read_in_linear_time(monkeypatch, tmp_path):
    # 4 MB without a line end in 256-byte blocks: carrying the line by copying
    # it onto each block would copy about 34 GB
    monkeypatch.setattr(tournament, "_BLOCK", 256)
    path = tmp_path / "h.txt"
    path.write_bytes(b"A|B|0|" + b"C" * (4 * 2**20))
    start = time.perf_counter()
    assert tournament._read_dump_blocks(path, None) is None
    assert time.perf_counter() - start < 1.0


def test_a_result_with_no_match_renders_as_one_line_end():
    result = _run(("TitForTat", "Defector"))
    assert render_history_dump(replace(result, histories={})) == "\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("name", ["written", "crlf"])
def test_a_dump_in_a_pipe_is_read_once_as_the_file_is(tmp_path, name):
    # a pipe's data can be read once: a reader that gave it up after a block
    # and opened it again would wait for a writer that has gone
    path, fifo = tmp_path / "h.txt", tmp_path / "fifo"
    path.write_bytes(_EDGE_DUMPS[name])
    os.mkfifo(fifo)
    read = {}

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(_EDGE_DUMPS[name])

    def take():
        read["got"] = _outcome(fifo, "Random")

    threads = [threading.Thread(target=target, daemon=True) for target in (feed, take)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert read.get("got") == _outcome(path, "Random")


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_a_dump_render_holds_little_beyond_its_text(noise):
    # the text is one join over the names, the records' action texts and short
    # pieces, so no line is copied before the join: a copy per line is 2.1x
    result = _run([sid.name for sid in roster_default()], turns=200, repetitions=10, noise=noise)
    tracemalloc.start()
    try:
        text = render_history_dump(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 400_000
    assert peak < 1.8 * len(text)


@pytest.mark.parametrize("write, field", [(write_history_dump, "histories"),
                                          (write_ranking_csv, "ranking")])
def test_a_library_write_that_fails_leaves_the_old_file(tmp_path, write, field):
    # a lone surrogate cannot be encoded, so the write fails after the file is opened
    result = _run(("TitForTat", "Defector"))
    record = next(iter(result.histories.values()))
    bad = {"histories": {("A\ud800", "Defector", 0): record},
           "ranking": (replace(result.ranking[0], name="A\ud800"),)}[field]
    path = tmp_path / "out.txt"
    path.write_text("OLD CONTENT\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write(replace(result, **{field: bad}), path)
    assert path.read_bytes() == b"OLD CONTENT\n"
    assert os.listdir(tmp_path) == ["out.txt"]
