"""`ipdlab rates` reads a history dump for one player: its report, and what
the benchmark's tracer sees of it."""

import runpy
from pathlib import Path

import pytest

import ipdlab
from ipdlab import (TournamentConfig, cooperation_rates, read_history_dump, roster_default,
                    run_tournament)
from ipdlab.cli import main
from ipdlab.tournament import CONTEXTS, render_history_dump

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
