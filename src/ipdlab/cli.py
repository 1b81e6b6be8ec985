"""Command-line surface: reproducible batch experiments, no interactivity.

Subcommands:

  tournament   round robin over a roster, ranking CSV plus optional
               history dump and cooperation report
  evolve       evolutionary search, streaming generation log
  prune        drop unreachable states from an FSM file
  equiv        exact behavioral-equivalence check of two FSM files
  trace        per-turn action/state table of one match
  rates        cooperation-rate profile from a history dump

Exit codes: 0 success, 1 usage error, 2 data or validation error.
Every run prints its resolved configuration as `# key = value` lines so
an artifact can always be traced back to the flags that made it.
Output paths are checked before any work: two output flags of one
command may not name the same file, and none may name a directory or
lie in no existing directory.  Result files are written to temp names,
then renamed once all are written.  A set of renames is not atomic: a
failed rename can leave the outputs renamed before it replaced, but it
never leaves a temp file.  The only exception is the evolve --log
stream, which is flushed line by line so crashed runs can resume from
it.  A resume reads the log once, reruns the search from generation 0,
refuses a logged generation that the rerun does not reproduce, and
appends the rest.  rates streams a dump as written; any other input file
is read whole.  A byte that is not UTF-8 is refused, with its line, first.
Each command imports only its modules: prune and equiv run without numpy.
"""

import argparse
import contextlib
import math
import os
import sys
from argparse import SUPPRESS
from dataclasses import fields, replace


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems raise instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="ipdlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    t = sub.add_parser("tournament", help="play a round robin and rank by median score")
    t.add_argument("--roster", default="default",
                   help="comma-separated names, 'default', or @file.fsm entries")
    # a settings flag left out is absent from args, so its config class's default holds
    t.add_argument("--turns", type=int, default=SUPPRESS)
    t.add_argument("--reps", dest="repetitions", metavar="REPS", type=int, default=SUPPRESS)
    t.add_argument("--noise", type=float, default=SUPPRESS)
    t.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=SUPPRESS)
    t.add_argument("--out", help="ranking CSV destination (stdout when omitted)")
    t.add_argument("--coop-report", help="per-player cooperation-rate CSV destination")
    t.add_argument("--histories", help="full match-history dump destination")
    t.add_argument("--self-matches", dest="include_self_matches", action="store_true",
                   default=SUPPRESS, help="also play each entrant against itself")

    e = sub.add_parser("evolve", help="evolve FSM genomes against a fixed roster")
    e.add_argument("--generations", type=int, required=True)
    e.add_argument("--num-states", type=int, default=SUPPRESS)
    e.add_argument("--population-size", type=int, default=SUPPRESS)
    e.add_argument("--bottleneck", type=int, default=SUPPRESS)
    e.add_argument("--mutation-rate", type=float, default=SUPPRESS)
    e.add_argument("--turns", type=int, default=SUPPRESS)
    e.add_argument("--repetitions", type=int, default=SUPPRESS)
    e.add_argument("--noise", type=float, default=SUPPRESS)
    e.add_argument("--roster", default="default")
    e.add_argument("--seed", type=int, default=SUPPRESS)
    e.add_argument("--seed-fsm", action="append", default=[],
                   help="FSM file to seed the population with (repeatable)")
    e.add_argument("--log", help="generation log destination, streamed per generation")
    e.add_argument("--out", help="write the best genome here as FSM text")
    e.add_argument("--resume", action="store_true",
                   help="continue from the last record of --log if it exists")
    e.add_argument("--jump-threshold", type=float, default=None,
                   help="after the run, report mean-fitness jumps >= this value")

    p = sub.add_parser("prune", help="remove unreachable states from an FSM file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--name", help="rename the machine in the output file")

    q = sub.add_parser("equiv", help="exact behavioral equivalence of two FSM files")
    q.add_argument("--a", dest="a_path", required=True)
    q.add_argument("--b", dest="b_path", required=True)
    q.add_argument("--horizon", type=int, default=None,
                   help="limit the check to opponent sequences of this length")

    r = sub.add_parser("trace", help="print one match turn by turn")
    r.add_argument("--a", dest="a_name", required=True,
                   help="strategy name, or @file.fsm")
    r.add_argument("--b", dest="b_name", required=True)
    r.add_argument("--turns", type=int, default=20)
    r.add_argument("--seed", type=int, default=SUPPRESS)

    c = sub.add_parser("rates", help="cooperation rates by memory-one context")
    c.add_argument("--in", dest="in_path", required=True, help="history dump file")
    c.add_argument("--player", required=True)

    return parser


_PARSER = None  # built on the first main call; parse_args keeps no state in it


def _parser() -> _Parser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


# ── shared helpers ───────────────────────────────────────────────────


def _print_header(command: str, settings):
    print(f"# ipdlab {command}")
    for key, value in settings:
        print(f"# {key} = {value}")


def _atomic_write_all(staged):
    """Write every (path, text) pair to a temp file, then rename each over its path.

    No path is replaced until every text is written.  A set of renames is
    not atomic, so a rename that fails leaves the outputs renamed before
    it replaced; on any failure, every temp file not yet renamed is removed.
    """
    temps = []  # (temp, path) pairs created and not yet renamed
    try:
        for path, text in staged:
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                temps.append((tmp, path))
                fh.writelines(text[at:at + 65536] for at in range(0, len(text), 65536))  # not one encoded copy of the whole
        while temps:
            os.replace(*temps[0])
            del temps[0]
    except BaseException:
        for tmp, _ in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def _refuse_bad_outputs(*outputs):
    """Refuse, before any work, (flag, path) outputs of one command that are
    empty, name the same file, name a directory, or lie in no existing directory."""
    seen = {}
    for flag, path in outputs:
        if path == "":
            raise ValueError(f"{flag} needs a file name, got ''")
        if path is not None:
            parent = os.path.dirname(path) or "."
            if os.path.isdir(path):
                raise ValueError(f"{flag} {path} is a directory")
            if not os.path.isdir(parent):
                raise ValueError(f"{flag} {path}: {parent} is not a directory")
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(f"{seen[real]} and {flag} both name {path}")
            seen[real] = flag


def _resolve_roster(roster_arg: str):
    """Expand a --roster value into (registry, canonical name list)."""
    from .fsm import load_fsm_file
    from .strategies import default_registry, roster_default

    reg = default_registry()
    names = []
    for token in roster_arg.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == "default":
            names.extend(sid.name for sid in roster_default())
        elif token.startswith("@"):
            spec = load_fsm_file(token[1:])
            reg = reg.with_fsm(spec)
            names.append(spec.name)
        else:
            names.append(reg.get(token).id.name)
    if not names:
        raise ValueError(f"--roster {roster_arg!r} names no strategies")
    return reg, names


def _resolve_player(token: str):
    """The roster entry a trace player names: a registry name, or @file."""
    from .fsm import load_fsm_file
    from .strategies import default_registry, fsm_entry

    if token.startswith("@"):
        return fsm_entry(load_fsm_file(token[1:]))
    return default_registry().get(token)


def _config(config_class, args, **resolved):
    """config_class from the settings flags given, then the values the CLI resolved;
    a flag left out takes the default that config_class declares."""
    given = {field.name: getattr(args, field.name) for field in fields(config_class)
             if hasattr(args, field.name)}
    return config_class(**(given | resolved))


def _fmt(value: float) -> str:
    return f"{value:.9f}"


# ── subcommands ──────────────────────────────────────────────────────


def _cmd_tournament(args) -> int:
    from .kernels import active_backend
    from .tournament import (TournamentConfig, cooperation_rates, render_history_dump,
                             render_ranking_csv, run_tournament)

    _refuse_bad_outputs(("--out", args.out), ("--histories", args.histories),
                        ("--coop-report", args.coop_report))
    reg, names = _resolve_roster(args.roster)
    config = _config(TournamentConfig, args, roster=tuple(names))
    _print_header("tournament", [
        ("roster", ",".join(names)),
        ("turns", config.turns),
        ("reps", config.repetitions),
        ("noise", config.noise),
        ("seed", config.master_seed),
        ("self_matches", config.include_self_matches),
        ("backend", active_backend()),
    ])
    result = run_tournament(config, reg)

    staged = []
    if args.out:
        staged.append((args.out, render_ranking_csv(result)))
    if args.histories:
        staged.append((args.histories, render_history_dump(result)))
    if args.coop_report:
        lines = ["Name,Context,Count,Rate"]
        # each player's matches in file order, a self-match once
        groups = {name: {} for name in result.roster}
        for key, record in result.histories.items():
            groups[key[0]][key] = groups[key[1]][key] = record
        for name in result.roster:
            report = cooperation_rates(groups[name], name)
            for label, stats in report.contexts.items():
                lines.append(f"{name},{label},{stats.count},{_fmt(stats.rate)}")
        staged.append((args.coop_report, "\n".join(lines) + "\n"))
    _atomic_write_all(staged)

    if not args.out:
        sys.stdout.write(render_ranking_csv(result))
    for path, _ in staged:
        print(f"# wrote {path}")
    return 0


def _cmd_evolve(args) -> int:
    from .evolution import (EvolutionParams, LogStream, _seed_population, evolve,
                            generation_deltas, render_generation_line, resume_log)
    from .fsm import load_fsm_file, serialize_fsm, serialize_fsm_line
    from .kernels import active_backend

    _refuse_bad_outputs(("--log", args.log), ("--out", args.out))
    if args.jump_threshold is not None and math.isnan(args.jump_threshold):
        raise ValueError(f"--jump-threshold must be a number, got {args.jump_threshold}")
    reg, roster_names = _resolve_roster(args.roster)
    params = _config(EvolutionParams, args, opponent_roster=tuple(roster_names))
    seeds = [load_fsm_file(path) for path in args.seed_fsm]

    if args.resume and not args.log:
        raise ValueError("--resume needs --log to know where the old run lives")
    _seed_population(seeds, params)  # refuses unusable seeds before the log is read
    log_stream = None
    if args.resume and os.path.exists(args.log):
        log_stream = resume_log(args.log)
        if log_stream.records > params.generations:
            evolve(seeds, params, reg, log_stream)  # checks the generations asked for
            _print_header("evolve", [("resume", args.log)])
            print(f"# log already reaches generation {log_stream.records - 1}; nothing to do")
            return 0
    elif args.log:
        log_stream = LogStream(args.log)

    _print_header("evolve", [
        ("generations", params.generations),
        ("num_states", params.num_states),
        ("population_size", params.population_size),
        ("bottleneck", params.bottleneck),
        ("mutation_rate", params.mutation_rate),
        ("turns", params.turns),
        ("repetitions", params.repetitions),
        ("noise", params.noise),
        ("roster", ",".join(params.opponent_roster)),
        ("seed", params.seed),
        ("seed_fsm", ",".join(spec.name for spec in seeds) or "-"),
        ("backend", active_backend()),
    ])

    try:
        best, records = evolve(seeds, params, reg, log_stream)
    finally:
        if log_stream is not None:
            log_stream.close()

    if args.out:
        _atomic_write_all([(args.out, serialize_fsm(best))])

    final = records[-1]
    print(f"# final {render_generation_line(final)}")
    print(f"# best fitness {_fmt(max(r.best_fitness for r in records))}")
    print(f"# best genome {serialize_fsm_line(best)}")
    if args.jump_threshold is not None and len(records) >= 2:
        for pos, delta in generation_deltas(records, args.jump_threshold):
            print(f"# jump at generation {records[pos].index}: {_fmt(delta)}")
    for path in (args.out, args.log):
        if path:
            print(f"# wrote {path}")
    return 0


def _cmd_prune(args) -> int:
    from .fsm import (FsmValidationError, load_fsm_file, prune_unreachable, reachable_states,
                      serialize_fsm, validate_fsm)

    _refuse_bad_outputs(("--out", args.out_path))
    spec = load_fsm_file(args.in_path)
    report = reachable_states(spec)
    pruned = prune_unreachable(spec)
    if args.name is not None:
        pruned = replace(pruned, name=args.name)
        violations = validate_fsm(pruned)
        if violations:
            raise FsmValidationError(violations)
    _print_header("prune", [
        ("in", args.in_path),
        ("out", args.out_path),
        ("kept", ",".join(str(s) for s in sorted(report.reachable))),
        ("removed", ",".join(str(s) for s in sorted(report.unreachable)) or "-"),
    ])
    _atomic_write_all([(args.out_path, serialize_fsm(pruned))])
    print(f"# wrote {args.out_path}")
    return 0


def _cmd_equiv(args) -> int:
    from .fsm import behaviorally_equivalent, load_fsm_file

    spec_a = load_fsm_file(args.a_path)
    spec_b = load_fsm_file(args.b_path)
    same = behaviorally_equivalent(spec_a, spec_b, horizon=args.horizon)  # refuses a bad horizon
    _print_header("equiv", [
        ("a", f"{args.a_path} ({spec_a.name})"),
        ("b", f"{args.b_path} ({spec_b.name})"),
        ("horizon", args.horizon if args.horizon is not None else "exact"),
    ])
    print("equivalent" if same else "not equivalent")
    return 0


def _cmd_trace(args) -> int:
    from .game import MatchConfig, trace_match

    player_a = _resolve_player(args.a_name)
    player_b = _resolve_player(args.b_name)
    config = _config(MatchConfig, args)
    _print_header("trace", [
        ("a", player_a.id.name),
        ("b", player_b.id.name),
        ("turns", config.turns),
        ("seed", config.seed),
    ])
    trace = trace_match(player_a, player_b, config)
    record = trace.record
    print("turn action_a action_b state_a state_b")
    for i in range(config.turns):
        sa = trace.states_a[i] if trace.states_a[i] is not None else "-"
        sb = trace.states_b[i] if trace.states_b[i] is not None else "-"
        print(f"{i + 1:4d} {record.actions_a[i]:>8s} {record.actions_b[i]:>8s} "
              f"{str(sa):>7s} {str(sb):>7s}")
    print(f"# payoffs {record.payoff_a:g} {record.payoff_b:g}")
    return 0


def _cmd_rates(args) -> int:
    from .tournament import CONTEXTS, cooperation_rates, read_history_dump

    player = args.player
    histories = read_history_dump(args.in_path, player)
    if not histories:
        # no line names the player: take the one name equal to it ignoring case, if any
        everyone = read_history_dump(args.in_path)
        folded = {name for key in everyone for name in key[:2] if name.lower() == player.lower()}
        if len(folded) == 1:
            (player,) = folded
            histories = {key: record for key, record in everyone.items() if player in key[:2]}
    report = cooperation_rates(histories, player)
    _print_header("rates", [
        ("in", args.in_path),
        ("player", player),
        ("matches", len(histories)),
    ])
    print("context count rate")
    for label in CONTEXTS:
        stats = report.contexts.get(label)
        if stats is None:
            print(f"{label:>7s} absent")
        else:
            print(f"{label:>7s} {stats.count:5d} {_fmt(stats.rate)}")
    return 0


_COMMANDS = {
    "tournament": _cmd_tournament,
    "evolve": _cmd_evolve,
    "prune": _cmd_prune,
    "equiv": _cmd_equiv,
    "trace": _cmd_trace,
    "rates": _cmd_rates,
}


def main(argv=None) -> int:
    """Parse and run one command (sys.argv[1:] when argv is None) and
    return its exit code; never raises for user-level problems."""
    parser = _parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help paths
        return exc.code if isinstance(exc.code, int) else 0

    if args.command is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1

    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # UnknownStrategyError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
