"""End-to-end command-line behavior, run in process through main()."""

import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import ipdlab
from ipdlab import cli
from ipdlab.cli import main
from ipdlab.evolution import read_generation_log, render_generation_line
from ipdlab.fsm import serialize_fsm
from ipdlab.strategies import CLASSIC_FSMS


def _golden_text(name: str) -> str:
    return (resources.files("ipdlab") / "data" / f"{name}.fsm").read_text(encoding="utf-8")


def _write_fsm(tmp_path, name: str, text: str):
    path = tmp_path / f"{name}.fsm"
    path.write_text(text, encoding="utf-8")
    return path


def _data_lines(out: str):
    return [line for line in out.splitlines() if not line.startswith("#")]


SMALL = ["--roster", "Cooperator,Defector,TitForTat", "--turns", "5", "--reps", "1"]


class TestTournamentCommand:
    def test_ranking_to_stdout(self, capsys):
        assert main(["tournament", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "# ipdlab tournament" in out
        assert "# turns = 5" in out
        lines = _data_lines(out)
        assert lines[0] == "Rank,Name,Median Score"
        assert lines[1] == "1,Defector,3.400000000"
        assert len(lines) == 4

    def test_out_file_replaces_stdout_table(self, tmp_path, capsys):
        target = tmp_path / "ranking.csv"
        assert main(["tournament", *SMALL, "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert f"# wrote {target}" in out
        assert _data_lines(out) == []
        assert target.read_text().splitlines()[1] == "1,Defector,3.400000000"

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["tournament", "--roster", "Random,TitForTat,EvolvedFSM8",
                "--turns", "30", "--reps", "3", "--noise", "0.05", "--seed", "7"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_history_and_coop_artifacts(self, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        coop = tmp_path / "coop.csv"
        assert main(["tournament", *SMALL, "--histories", str(hist),
                     "--coop-report", str(coop)]) == 0
        assert len(hist.read_text().splitlines()) == 3  # three pairs, one rep
        coop_lines = coop.read_text().splitlines()
        assert coop_lines[0] == "Name,Context,Count,Rate"
        assert "Cooperator,CD,4,1.000000000" in coop_lines  # cooperates regardless
        assert "Defector,DC,5,0.000000000" in coop_lines

    def test_self_matches_flag(self, capsys):
        assert main(["tournament", "--roster", "Cooperator,Defector",
                     "--turns", "12", "--reps", "1", "--self-matches"]) == 0
        out = capsys.readouterr().out
        assert "# self_matches = True" in out
        assert "1,Defector,2.333333333" in out

    def test_roster_file_entries(self, tmp_path, capsys):
        homebrew = replace(CLASSIC_FSMS["Grudger"], name="Homebrew")
        path = _write_fsm(tmp_path, "Homebrew", serialize_fsm(homebrew))
        assert main(["tournament", "--roster", f"@{path},TitForTat,Defector",
                     "--turns", "10", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "Homebrew" in out  # machines keep their declared name

    def test_numpy_backend_subprocess_matches(self, tmp_path):
        _assert_child_run_matches(tmp_path, {})

    def test_stale_backend_variable_is_ignored(self, tmp_path):
        _assert_child_run_matches(tmp_path, {"IPDLAB_BACKEND": "numba"})


def _assert_child_run_matches(tmp_path, extra_env):
    """`python -m ipdlab.cli tournament` writes what main() writes in process."""
    args = ["tournament", "--roster", "Random,EvolvedFSM6,Grudger",
            "--turns", "25", "--reps", "2", "--noise", "0.1", "--seed", "3"]
    native = tmp_path / "native.csv"
    assert main([*args, "--out", str(native)]) == 0
    forced = tmp_path / "forced.csv"
    # the child must import the same ipdlab as this process
    package_root = os.path.dirname(os.path.dirname(ipdlab.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "ipdlab.cli", *args, "--out", str(forced)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# backend = numpy" in proc.stdout
    assert forced.read_bytes() == native.read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["tournament", "--bogus", "3"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["dance"]) == 1

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "tournament" in capsys.readouterr().out

    def test_unknown_strategy_is_data_error(self, capsys):
        assert main(["tournament", "--roster", "Cooperator,Nobody"]) == 2
        assert "Nobody" in capsys.readouterr().err

    def test_a_roster_of_no_names_is_data_error(self, capsys):
        assert main(["tournament", "--roster", " , "]) == 2
        assert capsys.readouterr() == ("", "error: --roster ' , ' names no strategies\n")

    @pytest.mark.parametrize("command", [
        "prune --in {path} --out {path}.out",
        "rates --in {path} --player A",
        "evolve --generations 1 --log {path} --resume",
    ], ids=["fsm", "history_dump", "generation_log"])
    def test_input_that_is_not_utf8_names_file_and_line(self, tmp_path, capsys, command):
        path = tmp_path / "input.txt"
        # every reader skips blank lines; the bad byte lies past the
        # first read chunk, after CRLF line ends
        path.write_bytes(b"\r\n" * 5000 + b"bad \xff line\n")
        assert main(command.format(path=path).split()) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 5001: byte 0xff is not UTF-8 text\n")

    @pytest.mark.parametrize("command, bad_line", [
        ("prune --in {path} --out {path}.out", b"fsm two names"),
        ("rates --in {path} --player A", b"A|B|0|CX|DD|0|10"),
        ("evolve --generations 1 --log {path} --resume", b"0,1.0"),
    ], ids=["fsm", "history_dump", "generation_log"])
    @pytest.mark.parametrize("gap", [1, 9000], ids=["near", "past_8kb"])
    def test_a_byte_that_is_not_utf8_is_named_before_an_earlier_bad_line(
            self, tmp_path, capsys, command, bad_line, gap):
        # each reader decodes the whole file before it parses a line
        path = tmp_path / "input.txt"
        path.write_bytes(bad_line + b"\n" * gap + b"\xff\n")
        assert main(command.format(path=path).split()) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {gap + 1}: byte 0xff is not UTF-8 text\n")

    def test_missing_fsm_file_is_data_error(self, tmp_path, capsys):
        assert main(["prune", "--in", str(tmp_path / "gone.fsm"),
                     "--out", str(tmp_path / "o.fsm")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_fsm_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fsm"
        bad.write_text("fsm Broken\nstart 1 C\n1 C -> 2 C\n1 D -> 1 D\n")
        assert main(["prune", "--in", str(bad), "--out", str(tmp_path / "o.fsm")]) == 2
        assert "dangling" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "prune --in {path} --out {path}.out",
        "evolve --generations 1 --roster TitForTat --seed-fsm {path}",
        "tournament --roster @{path},TitForTat",
    ], ids=["prune", "evolve_seed_fsm", "tournament_roster"])
    @pytest.mark.parametrize("text, message", [
        ("fsm Bad\nstart 1 C\n1 C -> 1 Q\n1 D -> 1 D\n", "line 3: expected C or D, got 'Q'"),
        ("fsm Bad\nstart 1 C\n1 C -> 2 C\n1 D -> 1 D\n", "dangling target 1/C->2"),
    ], ids=["parse", "validation"])
    def test_bad_fsm_file_error_names_the_file(self, tmp_path, capsys, command, text, message):
        path = _write_fsm(tmp_path, "bad", text)
        assert main(command.format(path=path).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert message in err

    def test_bad_config_value_is_data_error(self, capsys):
        assert main(["tournament", "--roster", "Cooperator,Defector", "--turns", "0"]) == 2

    def test_a_repeated_entrant_is_refused_before_any_output(self, tmp_path, capsys):
        # the registry finds both names, so one entrant would play itself
        out = tmp_path / "ranking.csv"
        assert main(["tournament", "--roster", "TitForTat,titfortat", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: roster entries must be distinct, "
                                "got ['TitForTat', 'TitForTat']\n")
        assert captured.out == ""
        assert not out.exists()


TINY_EVOLVE = ["evolve", "--generations", "1", "--num-states", "2", "--population-size", "4",
               "--bottleneck", "2", "--turns", "3", "--repetitions", "1", "--roster", "TitForTat"]


class TestParserReuse:
    """Every main() call of a process parses with one parser, built on first use."""

    @pytest.mark.parametrize("first, second", [
        ([*TINY_EVOLVE, "--seed-fsm", "{fsm}"], TINY_EVOLVE),
        (["tournament", "--bogus", "3"], ["tournament", *SMALL]),
        (["--help"], ["tournament", *SMALL]),
        (["evolve", "--help"], TINY_EVOLVE),
    ], ids=["seed_fsm_then_none", "usage_error_then_valid", "help_then_valid",
            "command_help_then_valid"])
    def test_a_call_leaves_nothing_for_the_next(self, tmp_path, capsys,
                                                first, second):
        fsm = _write_fsm(tmp_path, "Seed", "fsm Seed\nstart 1 C\n1 C -> 1 C\n1 D -> 1 D\n")
        calls = [[arg.format(fsm=fsm) for arg in argv] for argv in (first, second)]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr()))

        cli._parser.cache_clear()
        shared = [(main(calls[0]), capsys.readouterr())]
        parser = cli._parser() if cli._parser.cache_info().currsize else None  # the one main built
        shared.append((main(calls[1]), capsys.readouterr()))
        assert parser is not None and cli._parser() is parser
        assert shared == fresh


class TestPruneCommand:
    def test_recovers_the_bundled_six_state_file(self, tmp_path, capsys):
        src = _write_fsm(tmp_path, "EvolvedFSM8", _golden_text("EvolvedFSM8"))
        dst = tmp_path / "pruned.fsm"
        assert main(["prune", "--in", str(src), "--out", str(dst),
                     "--name", "EvolvedFSM6"]) == 0
        out = capsys.readouterr().out
        assert "# kept = 3,4,5,6,7,8" in out
        assert "# removed = 1,2" in out
        assert dst.read_text(encoding="utf-8") == _golden_text("EvolvedFSM6")

    def test_minimal_machine_removes_nothing(self, tmp_path, capsys):
        src = _write_fsm(tmp_path, "t", serialize_fsm(CLASSIC_FSMS["TitForTat"]))
        dst = tmp_path / "o.fsm"
        assert main(["prune", "--in", str(src), "--out", str(dst)]) == 0
        assert "# removed = -" in capsys.readouterr().out
        assert dst.read_text() == serialize_fsm(CLASSIC_FSMS["TitForTat"])

    def test_bad_name_in_the_file_names_its_line(self, tmp_path, capsys):
        src = _write_fsm(tmp_path, "t", "fsm g,c1\nstart 1 C\n1 C -> 1 C\n1 D -> 1 D\n")
        assert main(["prune", "--in", str(src), "--out", str(tmp_path / "o.fsm")]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: line 1: name 'g,c1' must be a single token without ';', ',', '|' or '#'\n")
        assert not (tmp_path / "o.fsm").exists()

    @pytest.mark.parametrize("name", ["two words", "Ev#6", "A|B", ""])
    def test_bad_rename_is_data_error(self, tmp_path, capsys, name):
        src = _write_fsm(tmp_path, "t", serialize_fsm(CLASSIC_FSMS["TitForTat"]))
        assert main(["prune", "--in", str(src), "--out", str(tmp_path / "o.fsm"),
                     "--name", name]) == 2
        assert not (tmp_path / "o.fsm").exists()


class TestEquivCommand:
    def test_reports_equivalent(self, tmp_path, capsys):
        a = _write_fsm(tmp_path, "a", _golden_text("EvolvedFSM8"))
        b = _write_fsm(tmp_path, "b", _golden_text("EvolvedFSM6"))
        assert main(["equiv", "--a", str(a), "--b", str(b)]) == 0
        assert _data_lines(capsys.readouterr().out) == ["equivalent"]

    def test_reports_not_equivalent(self, tmp_path, capsys):
        a = _write_fsm(tmp_path, "a", serialize_fsm(CLASSIC_FSMS["TitForTat"]))
        b = _write_fsm(tmp_path, "b", serialize_fsm(CLASSIC_FSMS["Defector"]))
        assert main(["equiv", "--a", str(a), "--b", str(b)]) == 0
        assert _data_lines(capsys.readouterr().out) == ["not equivalent"]

    def test_horizon_limits_the_check(self, tmp_path, capsys):
        # TitForTat and WinStayLoseShift agree on any single opponent
        # move but split on the second
        a = _write_fsm(tmp_path, "a", serialize_fsm(CLASSIC_FSMS["TitForTat"]))
        b = _write_fsm(tmp_path, "b", serialize_fsm(CLASSIC_FSMS["WinStayLoseShift"]))
        assert main(["equiv", "--a", str(a), "--b", str(b), "--horizon", "1"]) == 0
        assert _data_lines(capsys.readouterr().out) == ["equivalent"]
        assert main(["equiv", "--a", str(a), "--b", str(b), "--horizon", "2"]) == 0
        assert _data_lines(capsys.readouterr().out) == ["not equivalent"]


class TestTraceCommand:
    def test_turn_table_shape_and_actions(self, capsys):
        assert main(["trace", "--a", "EvolvedFSM6", "--b", "Defector",
                     "--turns", "21"]) == 0
        lines = _data_lines(capsys.readouterr().out)
        assert lines[0] == "turn action_a action_b state_a state_b"
        rows = lines[1:]
        assert len(rows) == 21
        acts_a = "".join(row.split()[1] for row in rows)
        assert acts_a == "CDDDDCDDDDCDDDDCDDDDC"
        # machines, the classics included, show state ids
        assert rows[0].split()[3].isdigit()
        assert rows[0].split()[4].isdigit()
        # Random has no state and shows a dash
        assert main(["trace", "--a", "EvolvedFSM6", "--b", "Random",
                     "--turns", "3"]) == 0
        rows = _data_lines(capsys.readouterr().out)[1:]
        assert rows[0].split()[4] == "-"

    def test_accepts_fsm_files(self, tmp_path, capsys):
        path = _write_fsm(tmp_path, "x", serialize_fsm(CLASSIC_FSMS["Alternator"]))
        assert main(["trace", "--a", f"@{path}", "--b", "Cooperator",
                     "--turns", "4"]) == 0
        rows = _data_lines(capsys.readouterr().out)[1:]
        assert "".join(r.split()[1] for r in rows) == "CDCD"


class TestRatesCommand:
    def test_round_trip_from_history_dump(self, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        assert main(["tournament", "--roster", "EvolvedFSM6,Defector",
                     "--turns", "21", "--reps", "1", "--histories", str(hist)]) == 0
        capsys.readouterr()
        assert main(["rates", "--in", str(hist), "--player", "EvolvedFSM6"]) == 0
        lines = _data_lines(capsys.readouterr().out)
        assert lines[0] == "context count rate"
        table = {row.split()[0]: row.split()[1:] for row in lines[1:]}
        assert table["CC"] == ["absent"]
        assert table["CD"] == ["4", "0.000000000"]
        assert table["DC"] == ["absent"]
        assert table["DD"] == ["16", "0.250000000"]

    def test_unknown_player_is_data_error(self, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        hist.write_text("A|B|0|CC|DD|2|10\n")
        assert main(["rates", "--in", str(hist), "--player", "Zed"]) == 2

    def test_repeated_match_is_data_error(self, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        hist.write_text("A|B|0|CC|DD|0|10\nA|B|0|CC|CC|6|6\n")
        assert main(["rates", "--in", str(hist), "--player", "A"]) == 2
        assert f"{hist}: line 2: duplicate match A|B|0" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("A|B|0|CC|DD|nan|inf", "expected a finite payoff, got 'nan'"),
        ("A|B|-1|CC|DD|0|10", "expected a repetition of digits 0-9, got '-1'"),
        ("A|B|1_0|CC|DD|0|10", "expected a repetition of digits 0-9, got '1_0'"),
        ("A|B| 2 |CC|DD|0|10", "expected a repetition of digits 0-9, got ' 2 '"),
    ], ids=["nan_inf", "negative", "underscore", "spaces"])
    def test_number_the_writer_never_writes_is_data_error(self, tmp_path, capsys,
                                                          line, message):
        hist = tmp_path / "hist.txt"
        hist.write_text(f"A|B|5|CC|CC|6|6\n{line}\n")
        assert main(["rates", "--in", str(hist), "--player", "A"]) == 2
        assert capsys.readouterr().err == f"error: {hist}: line 2: {message}\n"

    def test_repetition_too_long_for_int_is_data_error(self, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        rep = "1" * 5000
        hist.write_text(f"A|B|5|CC|CC|6|6\nA|B|{rep}|CC|DD|0|10\n")
        with pytest.raises(ValueError) as int_error:
            int(rep)
        assert main(["rates", "--in", str(hist), "--player", "A"]) == 2
        assert capsys.readouterr().err == f"error: {hist}: line 2: {int_error.value}\n"


class TestEvolveCommand:
    ARGS = ["evolve", "--generations", "3", "--num-states", "4",
            "--population-size", "5", "--bottleneck", "2", "--turns", "8",
            "--repetitions", "2", "--roster", "TitForTat,Defector",
            "--seed", "11"]

    @classmethod
    def _args(cls, **flags):
        """ARGS with each flag (underscores for dashes) set or added."""
        args = [*cls.ARGS]
        for name, value in flags.items():
            flag = "--" + name.replace("_", "-")
            if flag in args:
                args[args.index(flag) + 1] = str(value)
            else:
                args += [flag, str(value)]
        return args

    def test_writes_log_and_best_genome(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        best = tmp_path / "best.fsm"
        assert main([*self.ARGS, "--log", str(log), "--out", str(best)]) == 0
        out = capsys.readouterr().out
        assert "# mutation_rate = 0.1" in out
        assert "# final 3," in out
        records = log.read_text().splitlines()
        assert len(records) == 4  # generations 0 through 3
        assert [r.split(",")[0] for r in records] == ["0", "1", "2", "3"]
        assert best.read_text().startswith("fsm ")

    def test_rerun_is_byte_identical(self, tmp_path):
        one, two = tmp_path / "one.log", tmp_path / "two.log"
        assert main([*self.ARGS, "--log", str(one)]) == 0
        assert main([*self.ARGS, "--log", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_resume_appends_to_the_log(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        short = [*self.ARGS]
        short[short.index("--generations") + 1] = "1"
        assert main([*short, "--log", str(log)]) == 0
        assert len(log.read_text().splitlines()) == 2

        assert main([*self.ARGS, "--log", str(log), "--resume"]) == 0
        records = log.read_text().splitlines()
        assert [r.split(",")[0] for r in records] == ["0", "1", "2", "3"]
        best = [float(r.split(",")[1]) for r in records]
        assert best == sorted(best)  # champion carried across the seam

    def test_resume_on_a_complete_log_changes_nothing(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        before = log.read_bytes()
        assert main([*self.ARGS, "--log", str(log), "--resume"]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert log.read_bytes() == before

    def test_resume_drops_a_torn_last_line(self, tmp_path, capsys):
        # a kill in the middle of a write leaves the last line unfinished
        log = tmp_path / "gen.log"
        args = [*self.ARGS]
        args[args.index("--generations") + 1] = "6"
        assert main([*args, "--log", str(log)]) == 0
        log.write_bytes(log.read_bytes()[:-20])

        args[args.index("--generations") + 1] = "8"
        assert main([*args, "--log", str(log), "--resume"]) == 0
        text = log.read_text()
        assert text.endswith("\n")
        records = read_generation_log(log)
        assert [r.index for r in records] == list(range(9))
        assert [render_generation_line(r) for r in records] == text.splitlines()

    def test_resume_drops_a_torn_line_cut_inside_a_character(self, tmp_path, capsys):
        # a seed machine's name may be non-ASCII, and the kill may cut it
        seed = _write_fsm(tmp_path, "seed",
                          serialize_fsm(replace(CLASSIC_FSMS["TitForTat"], name="Tït")))
        log = tmp_path / "gen.log"
        args = [*self.ARGS, "--seed-fsm", str(seed), "--log", str(log)]
        assert main(args) == 0
        data = log.read_bytes()
        log.write_bytes(data[:data.rindex(b"\xc3") + 1])

        args[args.index("--generations") + 1] = "5"
        assert main([*args, "--resume"]) == 0
        records = read_generation_log(log)
        assert [r.index for r in records] == list(range(6))
        assert [render_generation_line(r) for r in records] == log.read_text().splitlines()

    def test_resume_refuses_a_log_with_a_gap(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:1] + lines[2:]))  # generation 1 is gone
        before = log.read_bytes()
        capsys.readouterr()
        assert main([*self.ARGS, "--log", str(log), "--resume"]) == 2
        assert capsys.readouterr().err == (
            f"error: {log}: line 2: expected generation 1, got 2\n")
        assert log.read_bytes() == before

    def test_resume_refuses_a_log_without_generation_0(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        log.write_text("".join(log.read_text().splitlines(keepends=True)[1:]))
        before = log.read_bytes()
        capsys.readouterr()
        args = [*self.ARGS]
        args[args.index("--generations") + 1] = "5"
        assert main([*args, "--log", str(log), "--resume"]) == 2
        assert capsys.readouterr().err == (
            f"error: {log}: line 1: expected generation 0, got 1\n")
        assert log.read_bytes() == before

    def test_refused_resume_keeps_a_torn_last_line(self, tmp_path, capsys):
        # the torn tail is cut only once resume goes on to append
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[1:])[:-20])
        before = log.read_bytes()
        capsys.readouterr()
        args = [*self.ARGS]
        args[args.index("--generations") + 1] = "5"
        assert main([*args, "--log", str(log), "--resume"]) == 2
        assert capsys.readouterr().err == (
            f"error: {log}: line 1: expected generation 0, got 1\n")
        assert log.read_bytes() == before

    def test_resume_keeps_a_line_whose_crlf_lost_its_lf(self, tmp_path, capsys):
        # text mode ends that line at the CR, so it is complete, not torn
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        log.write_bytes(log.read_bytes().replace(b"\n", b"\r\n")[:-1])
        args = [*self.ARGS]
        args[args.index("--generations") + 1] = "5"
        assert main([*args, "--log", str(log), "--resume"]) == 0
        assert [r.index for r in read_generation_log(log)] == list(range(6))

    def test_finished_resume_keeps_a_torn_last_line(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        log.write_bytes(log.read_bytes()[:-20])
        before = log.read_bytes()
        args = [*self.ARGS]
        args[args.index("--generations") + 1] = "2"
        assert main([*args, "--log", str(log), "--resume"]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert log.read_bytes() == before

    @pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
    @pytest.mark.parametrize("logged", [0, 2, 4])
    @pytest.mark.parametrize("noise", ["0", "0.05"])
    def test_resume_equals_an_uninterrupted_run(self, tmp_path, capsys, noise, logged, torn):
        straight_log, straight_out = tmp_path / "straight.log", tmp_path / "straight.fsm"
        assert main([*self._args(generations=5, noise=noise),
                     "--log", str(straight_log), "--out", str(straight_out)]) == 0
        # logged generations are complete; a torn run was killed while writing the next one
        log, out = tmp_path / "gen.log", tmp_path / "best.fsm"
        assert main([*self._args(generations=logged + torn, noise=noise), "--log", str(log)]) == 0
        if torn:
            log.write_bytes(log.read_bytes()[:-20])
        assert main([*self._args(generations=5, noise=noise),
                     "--log", str(log), "--out", str(out), "--resume"]) == 0
        assert log.read_bytes() == straight_log.read_bytes()
        assert out.read_bytes() == straight_out.read_bytes()

    def test_resume_accepts_flags_the_logged_generations_do_not_depend_on(self, tmp_path, capsys):
        # generation 0 is scored before any selection, so --bottleneck leaves it alone
        straight_log, straight_out = tmp_path / "straight.log", tmp_path / "straight.fsm"
        assert main([*self._args(bottleneck=3),
                     "--log", str(straight_log), "--out", str(straight_out)]) == 0
        log, out = tmp_path / "gen.log", tmp_path / "best.fsm"
        assert main([*self._args(generations=0), "--log", str(log)]) == 0
        assert main([*self._args(bottleneck=3),
                     "--log", str(log), "--out", str(out), "--resume"]) == 0
        assert log.read_bytes() == straight_log.read_bytes()
        assert out.read_bytes() == straight_out.read_bytes()

    def _assert_resume_refused(self, capsys, log, args, generation):
        before = log.read_bytes()
        capsys.readouterr()
        assert main([*args, "--log", str(log), "--resume"]) == 2
        assert capsys.readouterr().err == (
            f"error: {log}: generation {generation} differs from a rerun with these flags\n")
        assert log.read_bytes() == before

    @pytest.mark.parametrize("logged, resumed", [
        ({}, {"seed": 7, "turns": 50}),
        ({"seed_fsm": "TitForTat"}, {"seed_fsm": "Defector"}),
    ], ids=["seed_and_turns", "seed_fsm"])
    def test_resume_refuses_other_flags(self, tmp_path, capsys, logged, resumed):
        machines = {name: _write_fsm(tmp_path, name, serialize_fsm(CLASSIC_FSMS[name]))
                    for name in ("TitForTat", "Defector")}
        log = tmp_path / "gen.log"
        logged = {flag: machines.get(value, value) for flag, value in logged.items()}
        assert main([*self._args(**logged), "--log", str(log)]) == 0
        log.write_bytes(log.read_bytes()[:-20])
        resumed = {flag: machines.get(value, value) for flag, value in resumed.items()}
        self._assert_resume_refused(capsys, log, self._args(generations=5, **resumed), 0)

    @pytest.mark.parametrize("field", ["fitness", "machine"])
    def test_resume_refuses_an_edited_generation(self, tmp_path, capsys, field):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        lines = log.read_bytes()[:-20].split(b"\n")
        # one digit of generation 1: its best fitness, or the target of its first entry
        at = lines[1].index(b",", 2) - 1 if field == "fitness" else lines[1].index(b"-> ") + 3
        digit = int(lines[1][at:at + 1])
        lines[1] = lines[1][:at] + str(digit % 4 + 1).encode() + lines[1][at + 1:]
        log.write_bytes(b"\n".join(lines))
        self._assert_resume_refused(capsys, log, self._args(generations=5), 1)

    @pytest.mark.parametrize("edit", ["extra_zero", "blank_line"])
    def test_resume_refuses_an_edit_that_keeps_every_value(self, tmp_path, capsys, edit):
        log = tmp_path / "gen.log"
        assert main([*self._args(generations=2), "--log", str(log)]) == 0
        records = read_generation_log(log)
        lines = log.read_text().splitlines(keepends=True)
        if edit == "extra_zero":
            index, best, rest = lines[1].split(",", 2)
            lines[1] = f"{index},{best}0,{rest}"  # the same best fitness
        else:
            lines.insert(1, "\n")  # the reader skips blank lines
        log.write_text("".join(lines))
        assert read_generation_log(log) == records
        self._assert_resume_refused(capsys, log, self._args(generations=4), 1)

    @pytest.mark.parametrize("seed, code", [(0, 0), (7, 2)], ids=["same_flags", "other_seed"])
    def test_finished_resume_checks_the_logged_generations(self, tmp_path, capsys, seed, code):
        # the log already reaches --generations: nothing is run on, but the
        # generations asked for are still rerun and checked
        log, out = tmp_path / "gen.log", tmp_path / "best.fsm"
        assert main([*self._args(generations=12, seed=0), "--log", str(log)]) == 0
        out.write_text("untouched\n")
        before = log.read_bytes()
        capsys.readouterr()
        args = [*self._args(generations=5, seed=seed), "--log", str(log), "--out", str(out)]
        assert main([*args, "--resume"]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert "# log already reaches generation 12; nothing to do" in captured.out
        else:
            assert captured.err == (
                f"error: {log}: generation 0 differs from a rerun with these flags\n")
        assert log.read_bytes() == before
        assert out.read_text() == "untouched\n"

    def test_finished_resume_counts_records_not_blank_lines(self, tmp_path, capsys):
        # generations 0..3 and two blank lines, which the reader skips
        log = tmp_path / "gen.log"
        assert main([*self._args(generations=3), "--log", str(log)]) == 0
        log.write_bytes(log.read_bytes() + b"\n\n")
        before = log.read_bytes()
        capsys.readouterr()
        assert main([*self._args(generations=2), "--log", str(log), "--resume"]) == 0
        assert "# log already reaches generation 3; nothing to do" in capsys.readouterr().out
        assert log.read_bytes() == before
        # running on past the log still meets the blank line as an edit
        self._assert_resume_refused(capsys, log, self._args(generations=5), 4)

    def test_resume_reads_its_log_once(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "gen.log"
        assert main([*self._args(generations=1), "--log", str(log)]) == 0
        modes, real_open = [], open

        def spy(file, mode="r", *args, **kwargs):
            if str(file) == str(log):
                modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        assert main([*self._args(generations=3), "--log", str(log), "--resume"]) == 0
        assert modes == ["rb", "a"]

    def test_repeated_opponents_are_refused_before_the_log_is_touched(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        before = log.read_bytes()
        capsys.readouterr()
        assert main([*self._args(roster="TitForTat,titfortat,Defector"), "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: opponent_roster entries must be distinct, "
                                "got ['TitForTat', 'TitForTat', 'Defector']\n")
        assert captured.out == ""
        assert log.read_bytes() == before

    def test_resume_without_log_is_data_error(self, capsys):
        assert main([*self.ARGS, "--resume"]) == 2
        assert "--log" in capsys.readouterr().err

    def test_seed_fsm_and_jump_report(self, tmp_path, capsys):
        seed = _write_fsm(tmp_path, "seed", _golden_text("SecondPrac"))
        args = ["evolve", "--generations", "2", "--num-states", "10",
                "--population-size", "4", "--bottleneck", "1", "--turns", "5",
                "--repetitions", "1", "--roster", "Cooperator,Defector",
                "--seed-fsm", str(seed), "--jump-threshold", "-10"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "# seed_fsm = SecondPrac" in out
        # an impossible-to-miss threshold reports both deltas
        assert out.count("# jump at generation") == 2

    def test_nan_jump_threshold_is_refused_before_the_search(self, tmp_path, capsys):
        # no delta is >= nan, so the report would be silently empty
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log), "--jump-threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --jump-threshold must be a number, got nan\n"
        assert captured.out == ""
        assert not log.exists()

    @pytest.mark.parametrize("copies, error", [
        (1, "seed genome 'SecondPrac' has 10 states, more than num_states = 4"),
        (6, "6 seed genomes exceed population size 5"),
    ], ids=["too_many_states", "too_many_seeds"])
    def test_refused_seeds_leave_an_existing_log_as_it_was(self, tmp_path, capsys, copies, error):
        log = tmp_path / "gen.log"
        assert main([*self.ARGS, "--log", str(log)]) == 0
        before = log.read_bytes()
        seed = _write_fsm(tmp_path, "seed", _golden_text("SecondPrac"))
        args = [*self.ARGS, "--log", str(log)] + ["--seed-fsm", str(seed)] * copies
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert log.read_bytes() == before


class TestAtomicWrites:
    @pytest.mark.parametrize("argv, flags, path", [
        (["tournament", *SMALL, "--out", "x.csv", "--histories", "./x.csv"],
         "--out and --histories", "./x.csv"),
        (["tournament", *SMALL, "--out", "y.csv", "--coop-report", "y.csv",
          "--histories", "z.txt"], "--out and --coop-report", "y.csv"),
        ([*TestEvolveCommand.ARGS, "--log", "gen.log", "--out", "gen.log"],
         "--log and --out", "gen.log"),
    ], ids=["out_histories", "out_coop_report", "log_out"])
    def test_outputs_naming_one_file_are_refused(self, tmp_path, monkeypatch, capsys,
                                                 argv, flags, path):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flags} both name {path}\n"
        assert list(tmp_path.iterdir()) == []

    def test_resume_with_out_naming_the_log_leaves_it_alone(self, tmp_path, capsys):
        log = tmp_path / "gen.log"
        assert main([*TestEvolveCommand.ARGS, "--log", str(log)]) == 0
        before = log.read_bytes()
        args = [*TestEvolveCommand.ARGS, "--log", str(log), "--out", str(log), "--resume"]
        args[args.index("--generations") + 1] = "5"
        assert main(args) == 2
        assert "--log and --out" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_unwritable_destination_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        target = blocker / "ranking.csv"  # parent is a file
        assert main(["tournament", *SMALL, "--out", str(target)]) == 2

    def test_one_bad_target_cancels_all_writes(self, tmp_path):
        good = tmp_path / "ranking.csv"
        bad = (tmp_path / "file.txt") / "hist.txt"
        (tmp_path / "file.txt").write_text("x")
        assert main(["tournament", *SMALL, "--out", str(good),
                     "--histories", str(bad)]) == 2
        assert not good.exists()
        assert list(tmp_path.iterdir()) == [tmp_path / "file.txt"]


class TestOutputFailures:
    E8 = str(resources.files("ipdlab") / "data" / "EvolvedFSM8.fsm")
    TOURNAMENT = ["tournament", *SMALL, "--out", "r.csv", "--histories", "h.txt",
                  "--coop-report", "c.csv"]
    EVOLVE = [*TestEvolveCommand.ARGS, "--log", "g.log", "--out", "best.fsm"]
    PRUNE = ["prune", "--in", E8, "--out", "p.fsm"]

    @pytest.mark.parametrize("argv, fail_at", [
        (TOURNAMENT, 0), (TOURNAMENT, 1), (TOURNAMENT, 2), (EVOLVE, 0), (PRUNE, 0),
    ], ids=["tournament_0", "tournament_1", "tournament_2", "evolve", "prune"])
    def test_a_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys,
                                                 argv, fail_at):
        monkeypatch.chdir(tmp_path)
        renamed = []
        real_replace = os.replace

        def replace_or_fail(src, dst):
            if len(renamed) == fail_at:
                raise OSError(f"no rename to {dst}")
            real_replace(src, dst)
            renamed.append(dst)

        monkeypatch.setattr(os, "replace", replace_or_fail)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: no rename to ")
        assert len(renamed) == fail_at
        assert [path.name for path in tmp_path.iterdir() if ".tmp" in path.name] == []

    @pytest.mark.parametrize("argv, flag", [
        (TOURNAMENT, "--out"), (TOURNAMENT, "--histories"), (TOURNAMENT, "--coop-report"),
        (EVOLVE, "--log"), (EVOLVE, "--out"), (PRUNE, "--out"),
    ], ids=["tournament_out", "histories", "coop_report", "evolve_log", "evolve_out",
            "prune_out"])
    def test_a_directory_as_an_output_is_refused_before_any_match(self, tmp_path, monkeypatch,
                                                                  capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        for name in ("r.csv", "h.txt", "c.csv", "g.log", "best.fsm", "p.fsm", "D/inside.txt"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(f"old {name}\n")
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

        def no_match(*args, **kwargs):
            raise AssertionError("a match was played")

        monkeypatch.setattr(ipdlab.kernels, "play_batch", no_match)
        argv = [*argv]
        argv[argv.index(flag) + 1] = "D"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} D is a directory\n"
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("argv, flag", [
        (TOURNAMENT, "--out"), (TOURNAMENT, "--histories"), (TOURNAMENT, "--coop-report"),
        (EVOLVE, "--log"), (EVOLVE, "--out"), (PRUNE, "--out"),
    ], ids=["tournament_out", "histories", "coop_report", "evolve_log", "evolve_out",
            "prune_out"])
    @pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link_to_fifo"])
    def test_a_fifo_as_an_output_is_refused_before_the_header(self, tmp_path, monkeypatch, capsys,
                                                              argv, flag, via_link):
        # a FIFO would be replaced by a regular file, or block an --log stream forever
        monkeypatch.chdir(tmp_path)
        os.mkfifo("F")
        if via_link:
            os.symlink("F", "L")

        def no_match(*args, **kwargs):
            raise AssertionError("a match was played")

        monkeypatch.setattr(ipdlab.kernels, "play_batch", no_match)
        argv = [*argv]
        argv[argv.index(flag) + 1] = name = "L" if via_link else "F"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag} {name} is not a regular file\n")
        assert stat.S_ISFIFO(os.stat("F").st_mode)
        assert sorted(os.listdir()) == (["F", "L"] if via_link else ["F"])

    @pytest.mark.parametrize("argv, flag", [
        (TOURNAMENT, "--out"), (TOURNAMENT, "--histories"), (TOURNAMENT, "--coop-report"),
        (EVOLVE, "--log"), (EVOLVE, "--out"), (PRUNE, "--out"),
    ], ids=["tournament_out", "histories", "coop_report", "evolve_log", "evolve_out",
            "prune_out"])
    def test_a_symlinked_output_is_written_through(self, tmp_path, monkeypatch, capsys, argv,
                                                   flag):
        monkeypatch.chdir(tmp_path)
        name = argv[argv.index(flag) + 1]
        assert main(argv) == 0
        plain = Path(name).read_bytes()
        for path in tmp_path.iterdir():
            path.unlink()
        os.mkdir("sub")
        Path("sub", "target").write_text("old\n")
        os.symlink(os.path.join("sub", "target"), name)
        assert main(argv) == 0
        assert os.path.islink(name)
        assert os.readlink(name) == os.path.join("sub", "target")
        assert Path("sub", "target").read_bytes() == plain
        assert os.listdir("sub") == ["target"]
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [TOURNAMENT, EVOLVE, PRUNE],
                             ids=["tournament", "evolve", "prune"])
    def test_an_output_in_a_missing_directory_is_refused(self, tmp_path, monkeypatch, capsys,
                                                         argv):
        monkeypatch.chdir(tmp_path)
        target = os.path.join("missing", "x")
        argv = [*argv]
        argv[argv.index("--out") + 1] = target
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --out {target}: missing is not a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [TOURNAMENT, EVOLVE, PRUNE],
                             ids=["tournament", "evolve", "prune"])
    def test_a_link_into_a_missing_directory_is_refused_before_the_header(
            self, tmp_path, monkeypatch, capsys, argv):
        # the write goes through the link, so the directory it names must exist
        monkeypatch.chdir(tmp_path)
        os.symlink(os.path.join("missing", "x"), "L")
        argv = [*argv]
        argv[argv.index("--out") + 1] = "L"
        assert main(argv) == 2
        missing = os.path.join(os.path.realpath(tmp_path), "missing")
        assert capsys.readouterr() == ("", f"error: --out L: {missing} is not a directory\n")
        assert os.listdir() == ["L"]

    @pytest.mark.parametrize("argv, flag", [
        (TOURNAMENT, "--out"), (TOURNAMENT, "--histories"), (TOURNAMENT, "--coop-report"),
        (EVOLVE, "--log"), (EVOLVE, "--out"), (PRUNE, "--out"),
    ], ids=["tournament_out", "histories", "coop_report", "evolve_log", "evolve_out",
            "prune_out"])
    def test_an_empty_output_path_is_refused_before_the_header(self, tmp_path, monkeypatch,
                                                               capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        argv = [*argv]
        argv[argv.index(flag) + 1] = ""
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag} needs a file name, got ''\n")
        assert list(tmp_path.iterdir()) == []


def test_prune_and_equiv_load_neither_numpy_nor_the_kernel(tmp_path, capsys, fresh_python):
    # the paper's last step, EvolvedFSM8 pruned to EvolvedFSM6, in a fresh interpreter
    e8, pruned = TestOutputFailures.E8, str(tmp_path / "pruned.fsm")
    runs = [["prune", "--in", e8, "--out", pruned, "--name", "EvolvedFSM6"],
            ["equiv", "--a", e8, "--b", pruned]]
    assert [main(argv) for argv in runs] == [0, 0]
    expected = capsys.readouterr().out
    assert (tmp_path / "pruned.fsm").read_text(encoding="utf-8") == _golden_text("EvolvedFSM6")
    os.unlink(pruned)
    out = fresh_python(
        "import json, sys\n"
        "from ipdlab.cli import main\n"
        "assert [main(argv) for argv in json.loads(sys.argv[1])] == [0, 0]\n"
        "print(sorted(m for m in sys.modules if m.startswith(('ipdlab', 'numpy'))))\n",
        json.dumps(runs))
    assert out == expected + "['ipdlab', 'ipdlab.cli', 'ipdlab.fsm']\n"
    assert (tmp_path / "pruned.fsm").read_text(encoding="utf-8") == _golden_text("EvolvedFSM6")


def test_a_pipe_in_a_name_is_refused_before_the_header_and_any_match(tmp_path, monkeypatch,
                                                                    capsys):
    # a '|' would split the name's history dump lines, so loading the file refuses it
    monkeypatch.chdir(tmp_path)
    _write_fsm(tmp_path, "pipe", _golden_text("EvolvedFSM6").replace("EvolvedFSM6", "A|B", 1))

    def no_match(*args, **kwargs):
        raise AssertionError("a match was played")

    monkeypatch.setattr(ipdlab.kernels, "play_batch", no_match)
    assert main(["tournament", "--roster", "TitForTat,@pipe.fsm", "--histories", "h.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: pipe.fsm: line 1: name 'A|B' must be a single token "
                            "without ';', ',', '|' or '#'\n")
    assert [path.name for path in tmp_path.iterdir()] == ["pipe.fsm"]


def test_a_history_dump_of_a_pipe_in_a_name_is_refused_to_a_library_caller(tmp_path):
    # no machine can be named 'A|B', but a result built by hand can hold the name
    histories = {("TitForTat", "A|B", 0): ipdlab.MatchRecord("CCC", "CCC", 9.0, 9.0)}
    result = ipdlab.TournamentResult(config=None, roster=None, scores=None, histories=histories,
                                     ranking=None)
    with pytest.raises(ValueError, match=r"^strategy names in a history dump cannot contain '\|'$"):
        ipdlab.write_history_dump(result, tmp_path / "h.txt")
    assert not (tmp_path / "h.txt").exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_equiv_refuses_a_horizon_below_one_before_its_header(capsys, horizon):
    e8 = TestOutputFailures.E8
    assert main(["equiv", "--a", e8, "--b", e8, "--horizon", horizon]) == 2
    assert capsys.readouterr() == ("", f"error: horizon must be positive or None, got {horizon}\n")


def test_equiv_names_a_missing_file_before_a_bad_horizon(tmp_path, capsys):
    missing = str(tmp_path / "missing.fsm")
    assert main(["equiv", "--a", TestOutputFailures.E8, "--b", missing, "--horizon", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and missing in err and "horizon" not in err


BIG = "fsm Big\nstart 1 C\n1 C -> 2 C\n1 D -> 3 D\n2 C -> 1 C\n2 D -> 3 D\n3 C -> 1 D\n3 D -> 2 D\n"


@pytest.mark.parametrize("copies, flags, error", [
    (1, ["--num-states", "2"], "seed genome 'Big' has 3 states, more than num_states = 2"),
    (2, ["--population-size", "1", "--bottleneck", "1"], "2 seed genomes exceed population size 1"),
], ids=["too_many_states", "too_many_seeds"])
def test_evolve_refuses_unusable_seeds_before_its_header(tmp_path, capsys, copies, flags, error):
    seed = _write_fsm(tmp_path, "big", BIG)
    log = tmp_path / "gen.log"
    args = ["evolve", "--generations", "1", *flags, "--log", str(log)]
    assert main(args + ["--seed-fsm", str(seed)] * copies) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not log.exists()


@pytest.mark.parametrize("argv, keys", [
    (["tournament"], {"command", "roster", "out", "coop_report", "histories"}),
    (["evolve", "--generations", "1"],
     {"command", "generations", "roster", "seed_fsm", "log", "out", "resume", "jump_threshold"}),
    (["trace", "--a", "X", "--b", "Y"], {"command", "a_name", "b_name", "turns"}),
], ids=["tournament", "evolve", "trace"])
def test_a_settings_flag_left_out_is_absent_from_the_namespace(argv, keys):
    # so the config class's own default holds, not a copy of it in the parser
    assert set(vars(cli.build_parser().parse_args(argv))) == keys


@pytest.mark.parametrize("argv, code, err", [
    ([], 1, "{usage}"),
    (["tournament", "--turns", "x"], 1,
     "ipdlab tournament: argument --turns: invalid int value: 'x'\n{usage}"),
    (["tournament", "--turns", "0"], 2, "error: turns must be positive, got 0\n"),
], ids=["no_command", "bad_int", "bad_setting"])
def test_the_module_exits_with_the_code_main_returns(argv, code, err):
    package_root = os.path.dirname(os.path.dirname(ipdlab.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ipdlab.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr == err.format(usage=cli.build_parser().format_usage())


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 3 * 65536 + 7])
def test_a_staged_text_is_written_whole_in_slices(tmp_path, size):
    # '€' is three bytes in UTF-8; a slice of the text never splits a character
    text = ("ab€\n" * size)[:size]
    path = tmp_path / "out.txt"
    cli._atomic_write_all([(str(path), text)])
    assert path.read_bytes() == text.encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]
