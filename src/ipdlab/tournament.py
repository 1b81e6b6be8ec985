"""Round-robin tournaments and the reporting that hangs off them.

A tournament plays every unordered pair of roster entries for a number
of repetitions.  Each match gets its own seed derived from the master
seed, the two canonical strategy names in sorted order, and the
repetition index, which makes results independent of roster order and
bit-identical across reruns.  A pair of machines at noise 0 draws no
random numbers, so it is played once and its record serves every
repetition.

Scores are normalized per repetition: a player's payoff total divided
by (turns x matches played that repetition), so values live on the
payoff scale of a single turn.  Ranking is by median normalized score
across repetitions, ties broken by roster position.
"""

import math
import operator
import os
import statistics
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, count

import numpy as np

from . import kernels
from .fsm import read_text, write_texts
from .game import MatchRecord, _check_distinct, _check_settings, _new_record, match_records
from .rng import derive_seeds
from .strategies import default_registry

CONTEXTS = ("CC", "CD", "DC", "DD")

_DROP_CD = str.maketrans("", "", "CD")  # str.translate table that deletes C and D
_BLOCK = 120 * 1024  # bytes a dump is read in: under glibc's 128 KiB mmap threshold


@dataclass(frozen=True)
class TournamentConfig:
    """Everything a tournament needs to be replayed exactly."""

    roster: tuple
    turns: int = 200
    repetitions: int = 10
    noise: float = 0.0
    master_seed: int = 0
    include_self_matches: bool = False

    def __post_init__(self):
        _check_settings(self.turns, self.repetitions, self.noise)
        if len(self.roster) < 2:
            raise ValueError("a tournament needs at least two entrants")
        _check_distinct("roster", self.roster)


@dataclass(frozen=True)
class RankRow:
    rank: int
    name: str
    median: float


@dataclass(frozen=True)
class TournamentResult:
    config: TournamentConfig
    roster: tuple  # canonical names, roster order
    scores: dict  # name -> list of per-repetition normalized scores
    histories: dict  # (name_a, name_b, rep) -> MatchRecord
    ranking: tuple  # RankRow, best first


def run_tournament(config: TournamentConfig, registry=None) -> TournamentResult:
    """Play the full round robin described by config.

    Pure function of its arguments: calling it twice gives equal
    results, and reordering config.roster only reorders tie-breaks,
    never the underlying matches.  Each (pair, rep)'s payoffs are looked
    up by the row that played it and summed per seat in one array step.
    """
    reg = registry if registry is not None else default_registry()
    entries = [reg.get(name) for name in config.roster]
    names = [entry.id.name for entry in entries]

    pairing = combinations_with_replacement if config.include_self_matches else combinations
    pairs = sorted(tuple(sorted(pair)) for pair in pairing(names, 2))
    position = {name: i for i, name in enumerate(names)}
    slots = np.array([[position[a], position[b]] for a, b in pairs])

    def seeds_of(unshared):  # each pair's seed prefix is hashed once, then one tail per repetition
        prefixes = [(config.master_seed, "match", *pairs[pair]) for pair in unshared]
        return np.frombuffer(derive_seeds(prefixes, [(rep,) for rep in range(config.repetitions)]), "<u8")

    raw_a, raw_b, index = kernels.play_pairs(
        [entry.program for entry in entries], slots,
        config.repetitions, config.turns, config.noise, seeds_of,
    )
    records = match_records(raw_a, raw_b)
    histories = {
        (name_a, name_b, rep): records[row]
        for (name_a, name_b), rows in zip(pairs, index.tolist())
        for rep, row in enumerate(rows)
    }

    # Sum each (pair, rep) match's payoffs per seat.  They come from the integer DEFAULT_PAYOFFS,
    # so the order of summation cannot move a bit (_batch_fitness relies on the same).
    seats = slots.T.ravel()
    pay_a, pay_b = np.array([record[2:] for record in records]).T
    totals = np.zeros((len(names), config.repetitions))
    np.add.at(totals, seats, np.concatenate([pay_a[index], pay_b[index]]))
    played = np.bincount(seats, minlength=len(names))  # matches per repetition, a self-match twice
    scores = dict(zip(names, (totals / (config.turns * played[:, None])).tolist()))

    ranking = _rank(scores, names)
    return TournamentResult(
        config=config,
        roster=tuple(names),
        scores=scores,
        histories=histories,
        ranking=ranking,
    )


def _rank(scores, roster_order) -> tuple:
    medians = {name: statistics.median(scores[name]) for name in roster_order}
    position = {name: i for i, name in enumerate(roster_order)}
    ordered = sorted(roster_order, key=lambda n: (-medians[n], position[n]))
    return tuple(RankRow(i + 1, name, medians[name]) for i, name in enumerate(ordered))


def median_ranking(result: TournamentResult) -> tuple:
    """Recompute the ranking table from a result's score lists."""
    return _rank(result.scores, result.roster)


# ── cooperation-rate profiling ───────────────────────────────────────


@dataclass(frozen=True)
class ContextStats:
    """How one player behaved after one memory-one context."""

    count: int
    cooperations: int

    @property
    def rate(self) -> float:
        return self.cooperations / self.count


@dataclass(frozen=True)
class CooperationReport:
    """Cooperation rates conditioned on the previous turn's outcome.

    Context labels read own-action then opponent-action, so "CD" means
    'I cooperated, they defected'.  Contexts the player never saw are
    omitted instead of carrying a 0/0 rate.
    """

    player: str
    contexts: dict  # label -> ContextStats


def cooperation_rates(histories, player: str) -> CooperationReport:
    """Profile a player's reactions across a pile of match histories.

    histories is the (name_a, name_b, rep) -> MatchRecord mapping that
    TournamentResult carries (the history-dump reader produces the same
    shape).  Turn k >= 2 contributes one sample to the context formed by
    turn k-1's recorded actions, so a context never spans two matches.
    A self-match is seen from both seats.  A view depends only on its record
    and seat, so a record object that serves the player's next match in the
    same seat too is tallied once, weighted by the matches it stands for.
    """
    own_texts, opp_texts, repeats = [], [], []  # repeats: a view index per extra match it stands for
    last = last_a = last_b = None
    for (name_a, name_b, _rep), record in histories.items():
        if name_a == player or name_b == player:
            if record is last and (name_a == player, name_b == player) == (last_a == player, last_b == player):
                repeats.append(len(own_texts) - 1)
                if name_a == name_b:  # a self-match's seat-a view too
                    repeats.append(len(own_texts) - 2)
                continue
            last, last_a, last_b = record, name_a, name_b
            if name_a == player:
                own_texts.append(record.actions_a)
                opp_texts.append(record.actions_b)
            if name_b == player:
                own_texts.append(record.actions_b)
                opp_texts.append(record.actions_a)
    if not own_texts:
        raise ValueError(f"player {player!r} appears in none of the given histories")
    # All views end to end with an X between two matches: C = 0, D = 1, X = 21.
    own = np.frombuffer("X".join(own_texts).encode("ascii"), np.uint8) - ord("C")
    opp = np.frombuffer("X".join(opp_texts).encode("ascii"), np.uint8) - ord("C")
    # Bin 4 * own_prev + 2 * opp_prev + own_next is 0-7 for two turns of one
    # match; two positions that touch an X span two matches and land in 21-147.
    codes = 4 * own[:-1] + 2 * opp[:-1] + own[1:]
    weights = None  # every code counts once, in integers, unless a view repeats
    if repeats:  # then a view and the X after it weigh its matches; float sums of integers are exact
        matches = np.bincount(repeats, minlength=len(own_texts)) + 1
        weights = np.repeat(matches, [len(text) + 1 for text in own_texts])[:-2]
    tallies = np.bincount(codes, weights, minlength=8)[:8]
    contexts = {
        label: ContextStats(int(next_c + next_d), int(next_c))
        for label, (next_c, next_d) in zip(CONTEXTS, tallies.reshape(4, 2))
        if next_c + next_d > 0
    }
    return CooperationReport(player=player, contexts=contexts)


# ── file output ──────────────────────────────────────────────────────


def render_ranking_csv(result: TournamentResult) -> str:
    lines = ["Rank,Name,Median Score"]
    lines.extend(f"{row.rank},{row.name},{row.median:.9f}" for row in result.ranking)
    return "\n".join(lines) + "\n"


def write_ranking_csv(result: TournamentResult, destination) -> int:
    """Write the ranking table as CSV, as the CLI writes a file (a temp file renamed over
    destination, so a failed write leaves it as it was); returns lines written (incl. header)."""
    text = render_ranking_csv(result)
    write_texts([(destination, text)])
    return text.count("\n")


def _format_payoff(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def render_history_dump(result: TournamentResult) -> str:
    """One `name_a|name_b|rep|actions_a|actions_b|payoff_a|payoff_b` line per match.

    The text is one join over references: the names, the record's action
    texts, and short `|` pieces, so no line is copied before the join.  A
    record that also served the line before (as a noise-0 pair's
    repetitions do) reuses its pieces.
    """
    histories = result.histories
    # a loaded machine's name holds no '|'; a result built by hand may
    if "|" in "".join({*map(operator.itemgetter(0), histories), *map(operator.itemgetter(1), histories)}):
        raise ValueError("strategy names in a history dump cannot contain '|'")
    pieces, rep_texts = [], {}  # rep_texts: int rep -> '|rep|'
    shown = tail = None
    for (name_a, name_b, rep), record in histories.items():
        if record is not shown:
            shown, tail = record, (record.actions_a, "|", record.actions_b,
                                   f"|{_format_payoff(record.payoff_a)}|{_format_payoff(record.payoff_b)}\n")
        if type(rep) is not int:  # a hand-built key's True equals 1 but formats apart
            rep_text = f"|{rep}|"
        elif (rep_text := rep_texts.get(rep)) is None:
            rep_text = rep_texts[rep] = f"|{rep}|"
        pieces += (name_a, "|", name_b, rep_text)
        pieces += tail
    return "".join(pieces) or "\n"  # a result with no match renders as one line end


def write_history_dump(result: TournamentResult, destination) -> int:
    """One pipe-separated line per match, written as write_ranking_csv writes; returns the line count."""
    text = render_history_dump(result)
    write_texts([(destination, text)])
    return text.count("\n")


def read_history_dump(path, player=None) -> dict:
    """Parse a history dump back into the histories mapping shape.

    Refuses, naming the file and line, what render_history_dump never
    writes: a wrong field count, an empty strategy name, action text that
    is empty, holds a letter other than C and D or differs in length
    between the seats, a repetition that is not plain digits or has more
    digits than int() reads, a payoff that is not a finite number, and a
    match named twice.

    A dump as written, in a regular file, is read in blocks of whole lines,
    so a read holds a block, its records and an 8-byte hash per line.  Each
    rule is checked on a whole column of a block's fields, line ends too: one
    in each field that joins two lines, none in any other.  Any other file is
    read whole and walked line by line: a byte that is not UTF-8, then the
    first bad line and the first rule it breaks, are named.  Both ways read
    a good file alike.

    With a player, every line is still checked, but only the matches of the
    name it spells, else of the one name equal to it ignoring case (as
    --roster compares), are returned, in file order (a self-match once).
    """
    histories = _read_dump_blocks(path, player) if os.path.isfile(path) else None  # a pipe reads once
    if histories is None:  # the line walk, its result filtered the same way
        histories = _of_player(_read_dump_lines(path, read_text(path).split("\n")), player)
    return histories


def _of_player(histories, player):
    """The matches of histories that read_history_dump returns for player (all of them for None)."""
    if player is None:
        return histories
    names = {name for key in histories for name in key[:2]}
    if player not in names:  # None, which no key holds, when no name or two names match
        alike = [name for name in names if name.lower() == player.lower()]
        player = alike[0] if len(alike) == 1 else None
    return {key: record for key, record in histories.items() if player in key[:2]}


def _read_dump_blocks(path, player):
    """read_history_dump of a dump as written, _BLOCK bytes of whole lines at a time, or None if a
    block holds '\\r', is not UTF-8 or fails _dump_columns, the file ends mid-line, or two keys hash alike."""
    histories, hashes, rest, spelled = {}, [], [], False  # rest: the blocks of a line that runs on
    with open(path, "rb") as fh:
        while data := fh.read(_BLOCK):
            if b"\r" in data:  # the line walk reads '\r' line ends
                return None
            rest.append(data)
            if cut := data.rfind(b"\n") + 1:  # a byte that is not UTF-8 reads as U+FFFD
                text = str(b"".join([*rest[:-1], memoryview(data)[:cut]]), "utf-8", "replace")
                rest = [data[cut:]]
                if "\ufffd" in text or (block := _dump_columns(text, hashes, player, not spelled)) is None:
                    return None
                if not spelled and block and player in next(iter(block))[:2]:  # drop the case-equal rows kept so far
                    spelled, histories = True, {}
                histories.update(block)
    keys = np.sort(np.concatenate([np.zeros(0, np.int64), *hashes]))
    if any(rest) or (keys[1:] == keys[:-1]).any():
        return None
    return histories if spelled else _of_player(histories, player)


def _dump_columns(text, hashes, player=None, fold=False):
    """The histories mapping of a dump's text (its lines that name player, if given, or with fold
    and no line that names player, those that name a name equal to it ignoring case), or None if
    the text does not end in a line end or a line breaks a rule of read_history_dump.  A match
    named twice is the caller's to refuse: each line's key hash is appended to the list hashes."""
    fields = text.split("|")
    # Each of fields[6::6] is one line's last field, its '\n' and the next
    # line's first field.  Every line holds 6 '|' exactly when each of these
    # holds one '\n' and no other field does: digits and C/D text hold none.
    joints = fields[6::6]
    ends = "\n".join(joints).split("\n")  # payoff b, next line's name a, ..., ''
    names_a, pays_b = fields[:1] + ends[1:-1:2], ends[::2]
    names_b, reps, acts_a, acts_b, pays_a = (fields[k::6] for k in range(1, 6))
    if not (text.endswith("\n") and (len(fields) - 1) % 6 == 0 and len(ends) == 2 * len(joints)
            and all(map(operator.contains, joints, "\n" * len(joints)))
            and "\n" not in "".join(fields[:1] + names_b + pays_a)
            and all(names_a) and all(names_b) and all(acts_a) and all(acts_b)):
        return None
    letters = np.frombuffer("".join(acts_a + acts_b).encode(), np.uint8)
    if letters.min() < ord("C") or letters.max() > ord("D"):  # C and D are adjacent in ASCII
        return None
    rep_text = "".join(reps)
    if not (rep_text.isascii() and rep_text.isdigit()):
        return None
    if list(map(len, acts_a)) != list(map(len, acts_b)):
        return None
    try:  # int() refuses an empty repetition, and one longer than sys.get_int_max_str_digits()
        payoffs_a, payoffs_b = list(map(float, pays_a)), list(map(float, pays_b))
        repetitions = list(map({rep: int(rep) for rep in set(reps)}.__getitem__, reps))
    except ValueError:
        return None
    if not math.isfinite(sum(payoffs_a) + sum(payoffs_b)):  # an inf or a nan anywhere; an overflow takes the line walk
        return None
    hashes.append(np.fromiter(map(hash, zip(names_a, names_b, repetitions)), np.int64, len(joints)))
    columns = names_a, names_b, repetitions, acts_a, acts_b, payoffs_a, payoffs_b
    if player is not None:  # every line is checked, but only the player's become records
        rows = [i for i, a, b in zip(count(), names_a, names_b) if a == player or b == player]
        if fold and not rows:  # no line spells player: the lines of every name equal to it ignoring case
            names = {name for name in {*names_a, *names_b} if name.lower() == player.lower()}
            rows = [i for i, a, b in zip(count(), names_a, names_b) if a in names or b in names]
        columns = [list(map(column.__getitem__, rows)) for column in columns]
    return dict(zip(zip(*columns[:3]), map(_new_record, zip(*columns[3:]))))


def _read_dump_lines(path, lines) -> dict:
    """read_history_dump one line at a time: lines are the dump's lines,
    numbered from 1, without their line ends."""
    histories = {}
    for line_number, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("|")
        try:
            if len(parts) != 7:
                raise ValueError(f"expected 7 pipe-separated fields, got {len(parts)}")
            name_a, name_b, rep_str, acts_a, acts_b, pay_a, pay_b = parts
            for name in (name_a, name_b):
                if not name:
                    raise ValueError(f"expected a strategy name, got {name!r}")
            for acts in (acts_a, acts_b):
                if not acts or acts.translate(_DROP_CD):
                    raise ValueError(f"expected C/D action text, got {acts!r}")
            if not (rep_str.isascii() and rep_str.isdigit()):
                raise ValueError(f"expected a repetition of digits 0-9, got {rep_str!r}")
            payoff_a, payoff_b = float(pay_a), float(pay_b)
            if not (math.isfinite(payoff_a) and math.isfinite(payoff_b)):
                bad = pay_b if math.isfinite(payoff_a) else pay_a
                raise ValueError(f"expected a finite payoff, got {bad!r}")
            if len(acts_a) != len(acts_b):
                raise ValueError("action strings differ in length")
            # int() refuses a repetition longer than sys.get_int_max_str_digits()
            key = (name_a, name_b, int(rep_str))
            if key in histories:
                raise ValueError(f"duplicate match {name_a}|{name_b}|{rep_str}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_number}: {exc}") from None
        histories[key] = MatchRecord(acts_a, acts_b, payoff_a, payoff_b)
    return histories
