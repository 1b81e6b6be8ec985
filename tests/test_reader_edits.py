"""Single-byte edits to the files the package reads back: history dumps,
generation logs and FSM files, and stacked edits to history dumps.  Any
machine name the name rule accepts reads back unchanged from each of them.

An edited file either reads or is refused with a ValueError whose message
starts with the file's path and the line at fault.  The history dump's
column check must read every edited dump as its line walk does.
"""

import re
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ipdlab import (
    EvolutionParams,
    MatchRecord,
    TournamentConfig,
    TournamentResult,
    evolve,
    load_fsm_file,
    read_generation_log,
    read_history_dump,
    roster_default,
    run_tournament,
)
from ipdlab.evolution import render_generation_line
from ipdlab.fsm import (_name_fault, parse_fsm, parse_fsm_line, read_text, serialize_fsm,
                        serialize_fsm_line)
from ipdlab.tournament import _dump_columns, _read_dump_lines, render_history_dump

RESULT = run_tournament(TournamentConfig(
    roster=("Random", "TitForTat", "Defector"), turns=6, repetitions=2, noise=0.1, master_seed=3,
))
DUMP = render_history_dump(RESULT).encode()
LOG = "".join(render_generation_line(record) + "\n" for record in evolve([], EvolutionParams(
    generations=3, num_states=3, population_size=4, bottleneck=2, turns=5, repetitions=1,
    opponent_roster=("TitForTat", "Random"),
))[1]).encode()
FSM = (resources.files("ipdlab") / "data" / "EvolvedFSM6.fsm").read_bytes()

# (kind, position, byte): a replace adds byte to the old one mod 256, so it changes it
EDITS = st.tuples(st.sampled_from(("replace", "insert", "delete")),
                  st.integers(min_value=0), st.integers(min_value=1, max_value=255))

_FIXTURE = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def _edit(data, kind, where, byte):
    """data after one edit, and the edit's position in it."""
    if kind == "insert":
        where %= len(data) + 1
        return data[:where] + bytes([byte]) + data[where:], where
    where %= len(data)
    if kind == "delete":
        return data[:where] + data[where + 1:], where
    return data[:where] + bytes([(data[where] + byte) % 256]) + data[where + 1:], where


def _read(reader, tmp_path, data):
    """(path, what reader returns, None) or (path, None, its ValueError)."""
    path = tmp_path / "edited"
    path.write_bytes(data)
    try:
        return path, reader(path), None
    except ValueError as exc:
        return path, None, exc


def _names_its_line(path, error) -> bool:
    return re.match(re.escape(f"{path}: line ") + r"[1-9]\d*: ", str(error)) is not None


def _dump_field(kind, where):
    """Index of the DUMP field that an edit at where changes, or None for
    a '|' or a line end.  An insert at either end of a field extends it."""
    start = DUMP.rfind(b"\n", 0, where) + 1
    end = DUMP.find(b"\n", start)
    offset = where - start
    for field, text in enumerate(DUMP[start:end if end >= 0 else len(DUMP)].split(b"|")):
        if offset < 0:
            return None
        if offset < len(text) + (kind == "insert"):
            return field
        offset -= len(text) + 1
    return None


@_FIXTURE
@given(edit=EDITS)
def test_an_edited_history_dump_reads_or_names_its_line(tmp_path, edit):
    kind, where, byte = edit
    data, where = _edit(DUMP, kind, where, byte)
    path, histories, error = _read(read_history_dump, tmp_path, data)
    if error is not None:
        assert _names_its_line(path, error), str(error)
        return
    field = _dump_field(kind, where)
    if field in (3, 4):
        # the reader does not recompute payoffs, so only a C/D swap reads
        assert kind == "replace" and {DUMP[where], data[where]} == set(b"CD")
    elif field in (5, 6):
        # an edited payoff reads as the number its text now spells
        start = data.rfind(b"\n", 0, where) + 1
        parts = re.split(b"[\r\n]", data[start:], maxsplit=1)[0].decode().split("|")
        record = histories[(parts[0], parts[1], int(parts[2]))]
        assert (record.payoff_a, record.payoff_b)[field - 5] == float(parts[field])


# DUMP with each line end the reader accepts, without its last one and with blank
# lines, and a dump whose names and repetitions one deletion empties
DUMPS = (DUMP, DUMP.replace(b"\n", b"\r\n"), DUMP.replace(b"\n", b"\r"), DUMP[:-1],
         b"\n" + DUMP.replace(b"\n", b"\n\n", 3) + b"\r\n",
         b"A|B|0|CD|DC|5|5\nA|B|1|DD|CD|6|1\n")


def _outcome(reader, path):
    """The (key, record) pairs reader returns, in order, or its message."""
    try:
        return list(reader(path).items())
    except ValueError as exc:
        return str(exc)


def test_a_dump_as_written_takes_the_column_check():
    assert list(_dump_columns(DUMP.decode(), []).items()) == list(RESULT.histories.items())


def _assert_read_as_the_line_walk_reads(tmp_path, data):
    path = tmp_path / "edited"
    path.write_bytes(data)
    assert _outcome(read_history_dump, path) == _outcome(
        lambda path: _read_dump_lines(path, read_text(path).split("\n")), path)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dump=st.sampled_from(DUMPS), edit=EDITS)
def test_the_column_check_reads_an_edited_dump_as_the_line_walk_does(tmp_path, dump, edit):
    _assert_read_as_the_line_walk_reads(tmp_path, _edit(dump, *edit)[0])


# ("move", which, where): take out the which-th '|' or line-end byte and put it
# back at where.  A moved line end keeps the file's line-end count, so only the
# joints tell whether each line still holds 6 '|'.
MOVES = st.tuples(st.just("move"), st.integers(min_value=0), st.integers(min_value=0))


def _move(data, which, where):
    marks = [at for at, byte in enumerate(data) if byte in b"|\r\n"]
    at = marks[which % len(marks)]
    rest = data[:at] + data[at + 1:]
    where %= len(rest) + 1
    return rest[:where] + data[at:at + 1] + rest[where:]


@settings(max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dump=st.sampled_from(DUMPS), edits=st.lists(st.one_of(EDITS, MOVES), min_size=1, max_size=4))
def test_the_column_check_reads_a_dump_with_stacked_edits_as_the_line_walk_does(
        tmp_path, dump, edits):
    for edit in edits:
        dump = _move(dump, *edit[1:]) if edit[0] == "move" else _edit(dump, *edit)[0]
    _assert_read_as_the_line_walk_reads(tmp_path, dump)


@pytest.mark.parametrize("data", [
    b"1|2|0|C|C|3|3\n4\n5\n1|2|1|C|C|3|3\n",  # two more in one joint, between names float() reads
    b"A\n|B|0|C|C|3|3\nA|B|1|C|C|3|3\n",  # one in the first name a
    b"A|B\n|0|C|C|3|3\nA|B|1|C|C|3|3\n",  # one in a name b
    b"A|B|0|C|C|3\n|3\nA|B|1|C|C|3|3\n",  # one in a payoff a, which float() would read
])
def test_a_line_end_outside_its_joint_takes_the_line_walk(tmp_path, data):
    _assert_read_as_the_line_walk_reads(tmp_path, data)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_a_default_roster_dump_takes_the_column_path_as_match_records(noise):
    # the line walk would read it the same, so only this tells a lost fast path
    result = run_tournament(TournamentConfig(
        roster=tuple(sid.name for sid in roster_default()), turns=200, repetitions=10,
        noise=noise, master_seed=0))
    histories = _dump_columns(render_history_dump(result), [])
    assert histories is not None
    assert list(histories.items()) == list(result.histories.items())
    # a MatchRecord equals its plain tuple, so only the type tells them apart;
    # the tournament's records come from game.match_records
    assert all(type(record) is MatchRecord for record in histories.values())
    assert all(type(record) is MatchRecord for record in result.histories.values())


def test_a_repetition_too_long_for_int_comes_after_an_earlier_line_fault(tmp_path):
    _assert_read_as_the_line_walk_reads(
        tmp_path, b"A|B|0|C|C|3|3\nA|B|0|C|C|3|3\nA|B|" + b"1" * 5000 + b"|C|C|3|3\n")


@_FIXTURE
@given(edit=EDITS)
def test_an_edited_generation_log_reads_or_names_its_line(tmp_path, edit):
    path, _, error = _read(read_generation_log, tmp_path, _edit(LOG, *edit)[0])
    if error is not None:
        assert _names_its_line(path, error), str(error)


@_FIXTURE
@given(edit=EDITS)
def test_an_edited_fsm_file_reads_or_names_its_line(tmp_path, edit):
    path, _, error = _read(load_fsm_file, tmp_path, _edit(FSM, *edit)[0])
    if error is not None:
        assert str(error).startswith(f"{path}: ")
        assert _names_its_line(path, error), str(error)


# A self-match dump in the line ends of DUMPS: as written, without its last line
# end, with blank lines and with '\r' ends, so the line walk's filter runs too.
SELF_DUMP = render_history_dump(run_tournament(TournamentConfig(
    roster=("Random", "TitForTat", "Defector"), turns=4, repetitions=2, noise=0.1, master_seed=5,
    include_self_matches=True))).encode()
SELF_DUMPS = (SELF_DUMP, SELF_DUMP[:-1], b"\n" + SELF_DUMP.replace(b"\n", b"\n\n", 2),
              SELF_DUMP.replace(b"\n", b"\r"))


def _assert_a_player_reads_the_full_read_filtered(tmp_path, data):
    path = tmp_path / "edited"
    path.write_bytes(data)
    full = _outcome(read_history_dump, path)
    names = {field.decode(errors="replace") for line in re.split(b"[\r\n]", data)
             for field in line.split(b"|")[:2]}
    for player in sorted(names | {"Absent"}):
        read = _outcome(lambda path: read_history_dump(path, player), path)
        if isinstance(full, str):  # the very refusal of the full read
            assert read == full
        else:
            assert read == [(key, record) for key, record in full if player in key[:2]]
            assert all(type(record) is MatchRecord for _, record in read)


@pytest.mark.parametrize("dump", SELF_DUMPS, ids=["written", "no_last_end", "blank", "cr"])
def test_a_player_reads_its_self_match_once_on_either_path(tmp_path, dump):
    # only the dump as written takes the column path; the others take the line walk
    assert (_dump_columns(dump.decode(), [], "Random") is None) == (dump != SELF_DUMP)
    _assert_a_player_reads_the_full_read_filtered(tmp_path, dump)
    path = tmp_path / "edited"
    assert [key for key in read_history_dump(path, "Random") if key[0] == key[1]] == [
        ("Random", "Random", 0), ("Random", "Random", 1)]


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dump=st.sampled_from(DUMPS + SELF_DUMPS), edit=EDITS)
def test_a_player_reads_an_edited_dump_as_the_full_read_filtered(tmp_path, dump, edit):
    _assert_a_player_reads_the_full_read_filtered(tmp_path, _edit(dump, *edit)[0])


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dump=st.sampled_from(DUMPS + SELF_DUMPS),
       edits=st.lists(st.one_of(EDITS, MOVES), min_size=1, max_size=4))
def test_a_player_reads_a_dump_with_stacked_edits_as_the_full_read_filtered(
        tmp_path, dump, edits):
    for edit in edits:
        dump = _move(dump, *edit[1:]) if edit[0] == "move" else _edit(dump, *edit)[0]
    _assert_a_player_reads_the_full_read_filtered(tmp_path, dump)


@pytest.mark.parametrize("data", [
    b"A|B|0|C|C|3|3\nC|D|0|C|C|3|3\nC|D|0|D|D|1|1\n",  # other players' match named twice
    b"A|B|0|C|C|3|3\nC|D|1|C|C|3|3\nC|D|01|D|D|1|1\n",  # the same, through a leading zero
    b"C|D|0|C|C|3|3\nA|B|0|C|C|3|3\nA|B|0|D|D|1|1\n",  # the player's match named twice
    b"A|B|0|C|C|3|3\nC|D|0|C|X|3|3\n",  # a bad letter in other players' line
    b"A|B|0|C|C|3|3\nC|D|0|C|C|3|inf\n",  # a bad payoff in other players' line
], ids=["duplicate", "leading_zero", "own_duplicate", "letter", "payoff"])
def test_a_player_is_refused_a_fault_in_any_line(tmp_path, data):
    path = tmp_path / "edited"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line [23]: "):
        read_history_dump(path, "A")
    _assert_a_player_reads_the_full_read_filtered(tmp_path, data)


@_FIXTURE
@given(name=st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6)
       .filter(lambda name: not _name_fault(name)))
def test_a_name_the_rule_accepts_reads_back_unchanged(tmp_path, name):
    spec = replace(parse_fsm(FSM.decode()), name=name)
    assert parse_fsm(serialize_fsm(spec)) == spec
    assert parse_fsm_line(serialize_fsm_line(spec)) == spec
    histories = {(name, "TitForTat", 0): MatchRecord("CD", "DC", 5.0, 0.0)}
    path = tmp_path / "dump"
    path.write_text(render_history_dump(TournamentResult(None, None, None, histories, None)),
                    encoding="utf-8", newline="")
    assert read_history_dump(path) == histories
