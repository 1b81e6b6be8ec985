"""`ipdlab rates` reads a history dump for one player: its report, and what
the benchmark's tracer sees of it."""

import os
import runpy
import threading
import tracemalloc
from pathlib import Path

import pytest

import ipdlab
from ipdlab import (MatchRecord, TournamentConfig, cooperation_rates, read_history_dump,
                    roster_default, run_tournament)
from ipdlab.cli import main
from ipdlab.tournament import _BLOCK, CONTEXTS, render_history_dump

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ROSTER = tuple(sid.name for sid in roster_default())
DUMPS = {"noise0": (0.0, False), "noise005": (0.05, False), "self": (0.05, True)}


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    folder = tmp_path_factory.mktemp("dumps")
    paths = {}
    for name, (noise, self_matches) in DUMPS.items():
        paths[name] = folder / f"{name}.txt"
        paths[name].write_text(render_history_dump(run_tournament(TournamentConfig(
            roster=ROSTER, noise=noise, master_seed=0, include_self_matches=self_matches))))
    return paths


def _report_of_the_full_read(path, player):
    histories = read_history_dump(path)
    report = cooperation_rates(histories, player)
    lines = ["# ipdlab rates", f"# in = {path}", f"# player = {player}",
             f"# matches = {sum(1 for name_a, name_b, _ in histories if player in (name_a, name_b))}",
             "context count rate"]
    for label in CONTEXTS:
        stats = report.contexts.get(label)
        lines.append(f"{label:>7s} absent" if stats is None else
                     f"{label:>7s} {stats.count:5d} {stats.rate:.9f}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dump", DUMPS)
@pytest.mark.parametrize("player", ROSTER)
def test_rates_prints_the_report_of_the_full_read(dumps, capsys, dump, player):
    assert main(["rates", "--in", str(dumps[dump]), "--player", player]) == 0
    assert capsys.readouterr().out == _report_of_the_full_read(dumps[dump], player)


def test_a_traced_rates_call_builds_only_its_players_records(dumps, capsys):
    # The benchmark reads the rates layer through these two spans and this count.
    tracer = runpy.run_path(str(TRACER))["Tracer"](ipdlab)
    tracer.install()
    try:
        code = main(["rates", "--in", str(dumps["noise005"]), "--player", "TitForTat"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [name for name, *_ in tracer.spans] == ["tournament.read_dump", "tournament.coop"]
    metrics = tracer.layer_metrics(ipdlab.kernels, 0)
    assert metrics["tournament.read_dump_lines"] == 140  # of the dump's 1050 matches
    assert metrics["tournament.coop_calls"] == 1


def test_a_player_named_in_another_case_reads_as_the_dump_spells_it(dumps, capsys):
    path = str(dumps["noise0"])
    assert main(["rates", "--in", path, "--player", "TitForTat"]) == 0
    exact = capsys.readouterr().out
    assert main(["rates", "--in", path, "--player", "titfortat"]) == 0
    assert capsys.readouterr().out == exact
    assert "# player = TitForTat\n" in exact


def test_a_case_folded_name_must_match_one_name_of_the_dump(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("TitForTat|titfortat|0|CC|CD|3|8\n"
                    "titfortat|Defector|0|CD|DD|1|6\n")
    assert main(["rates", "--in", str(path), "--player", "TITFORTAT"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "player 'TITFORTAT' appears in none of the given histories" in captured.err
    assert main(["rates", "--in", str(path), "--player", "titfortat"]) == 0
    out = capsys.readouterr().out
    assert "# player = titfortat\n# matches = 2\n" in out
    assert main(["rates", "--in", str(path), "--player", "DEFECTOR"]) == 0
    assert "# player = Defector\n# matches = 1\n" in capsys.readouterr().out


def test_a_player_named_in_another_case_reads_a_crlf_dump_too(dumps, tmp_path, capsys):
    # the line walk reads a '\r\n' dump, and folds the name as the block reader does
    path = tmp_path / "crlf.txt"
    path.write_bytes(dumps["self"].read_bytes().replace(b"\n", b"\r\n"))
    outs = []
    for player in ("EvolvedFSM6", "evolvedfsm6"):
        assert main(["rates", "--in", str(path), "--player", player]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "# player = EvolvedFSM6\n# matches = 150\n" in outs[0]


def test_a_name_no_line_spells_so_holds_what_a_named_read_holds(tmp_path, capsys):
    # 4 MB of 200-turn lines.  A name in no line's spelling is read again for the
    # names equal to it ignoring case, and that read, too, keeps only their records.
    path = tmp_path / "h.txt"
    path.write_text(render_history_dump(run_tournament(TournamentConfig(
        roster=ROSTER, repetitions=100, noise=0.05))), encoding="utf-8")
    assert path.stat().st_size >= 4 * 2**20
    peaks, outs = {}, {}
    for player in ("TitForTat", "titfortat", "Absent"):
        tracemalloc.start()
        try:
            code = main(["rates", "--in", str(path), "--player", player])
            peaks[player] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == (2 if player == "Absent" else 0)
        outs[player] = capsys.readouterr().out
    assert outs["titfortat"] == outs["TitForTat"]
    assert peaks["titfortat"] < peaks["TitForTat"] + 2 * _BLOCK
    assert peaks["Absent"] < peaks["TitForTat"] + 2 * _BLOCK


def _through_a_pipe(data, read):
    """read(path) of a pipe's /dev/fd path, while a thread writes data into the pipe and closes it."""
    fd_in, fd_out = os.pipe()

    def fill():
        try:
            with open(fd_out, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # read stopped before the end
            pass

    writer = threading.Thread(target=fill)
    writer.start()
    try:
        return read(f"/dev/fd/{fd_in}")
    finally:
        os.close(fd_in)
        writer.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_rates_through_a_pipe_prints_what_the_file_prints(dumps, capsys):
    # a pipe can be read once: the name is resolved in the one read
    path = dumps["noise005"]
    for player in ("titfortat", "TitForTat", "EVOLVEDFSM6", "Absent"):
        code = main(["rates", "--in", str(path), "--player", player])
        want = code, capsys.readouterr()

        def rates(fd_path):
            return main(["rates", "--in", fd_path, "--player", player]), capsys.readouterr()

        code, got = _through_a_pipe(path.read_bytes(), rates)
        assert code == want[0], player
        assert got.out.split("\n")[2:] == want[1].out.split("\n")[2:], player  # below '# in = '
        assert got.err == want[1].err, player


def test_the_library_reads_a_name_as_rates_does(dumps, tmp_path):
    path = dumps["noise005"]
    tit_for_tat = [item for item in read_history_dump(path).items() if "TitForTat" in item[0][:2]]
    assert len(tit_for_tat) == 140
    assert list(read_history_dump(path, "titfortat").items()) == tit_for_tat
    assert all(type(record) is MatchRecord for _, record in tit_for_tat)
    if os.path.isdir("/dev/fd"):
        assert list(_through_a_pipe(path.read_bytes(),
                                    lambda fd_path: read_history_dump(fd_path, "titfortat")).items()) == tit_for_tat
    two = tmp_path / "two.txt"
    two.write_text("TitForTat|titfortat|0|CC|CD|3|8\n"
                   "titfortat|Defector|0|CD|DD|1|6\n")
    crlf = tmp_path / "two_crlf.txt"  # the line walk
    crlf.write_bytes(two.read_bytes().replace(b"\n", b"\r\n"))
    for dump in (two, crlf):
        assert read_history_dump(dump, "TITFORTAT") == {}
        assert list(read_history_dump(dump, "titfortat")) == [("TitForTat", "titfortat", 0),
                                                              ("titfortat", "Defector", 0)]
        assert list(read_history_dump(dump, "DEFECTOR")) == [("titfortat", "Defector", 0)]
