"""Round-robin tournaments and the reporting that hangs off them.

A tournament plays every unordered pair of roster entries for a number
of repetitions.  Each match gets its own seed derived from the master
seed, the two canonical strategy names in sorted order, and the
repetition index, which makes results independent of roster order and
bit-identical across reruns.

Scores are normalized per repetition: a player's payoff total divided
by (turns x matches played that repetition), so values live on the
payoff scale of a single turn.  Ranking is by median normalized score
across repetitions, ties broken by roster position.
"""

import statistics
from dataclasses import dataclass

import numpy as np

from . import kernels
from .game import MatchRecord, match_records
from .rng import derive_seed
from .strategies import default_registry

CONTEXTS = ("CC", "CD", "DC", "DD")


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
        if self.turns < 1:
            raise ValueError(f"turns must be positive, got {self.turns}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError(f"noise must lie in [0, 1], got {self.noise}")
        if len(self.roster) < 2:
            raise ValueError("a tournament needs at least two entrants")


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
    never the underlying matches.
    """
    reg = registry if registry is not None else default_registry()
    entries = [reg.get(name) for name in config.roster]
    names = [entry.id.name for entry in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"roster entries must be distinct, got {names}")
    by_name = dict(zip(names, entries))

    pairs = []
    for i in range(len(names)):
        start_j = i if config.include_self_matches else i + 1
        for j in range(start_j, len(names)):
            a, b = sorted((names[i], names[j]))
            pairs.append((a, b))
    pairs.sort()

    jobs = []  # (name_a, name_b, rep, seed)
    for name_a, name_b in pairs:
        for rep in range(config.repetitions):
            seed = derive_seed(config.master_seed, "match", name_a, name_b, rep)
            jobs.append((name_a, name_b, rep, seed))

    progs_a = [by_name[a].program for a, _, _, _ in jobs]
    progs_b = [by_name[b].program for _, b, _, _ in jobs]
    seeds = [seed for _, _, _, seed in jobs]
    raw_a, raw_b = kernels.play_batch(progs_a, progs_b, config.turns, config.noise, seeds)
    records = match_records(raw_a, raw_b)
    histories = {(a, b, rep): record for (a, b, rep, _), record in zip(jobs, records)}

    scores = {name: [] for name in names}
    for rep in range(config.repetitions):
        totals = {name: 0.0 for name in names}
        seats = {name: 0 for name in names}
        for name_a, name_b in pairs:
            record = histories[(name_a, name_b, rep)]
            totals[name_a] += record.payoff_a
            seats[name_a] += 1
            totals[name_b] += record.payoff_b
            seats[name_b] += 1
        for name in names:
            scores[name].append(totals[name] / (config.turns * seats[name]))

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
    turn k-1's recorded actions.
    """
    # tallies[4 * own_prev + 2 * opp_prev + own_next], action codes C = 0, D = 1
    tallies = np.zeros(8, dtype=np.int64)
    found = False
    for (name_a, name_b, _rep), record in histories.items():
        views = []
        if name_a == player:
            views.append((record.actions_a, record.actions_b))
        if name_b == player:
            views.append((record.actions_b, record.actions_a))
        for own_text, opp_text in views:
            found = True
            own = np.frombuffer(own_text.encode("ascii"), np.uint8) - ord("C")
            opp = np.frombuffer(opp_text.encode("ascii"), np.uint8) - ord("C")
            tallies += np.bincount(4 * own[:-1] + 2 * opp[:-1] + own[1:], minlength=8)
    if not found:
        raise ValueError(f"player {player!r} appears in none of the given histories")
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
    """Write the ranking table as CSV; returns lines written (incl. header)."""
    text = render_ranking_csv(result)
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text.count("\n")


def _format_payoff(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def render_history_dump(result: TournamentResult) -> str:
    lines = []
    for (name_a, name_b, rep), record in result.histories.items():
        if "|" in name_a or "|" in name_b:
            raise ValueError("strategy names in a history dump cannot contain '|'")
        lines.append(
            f"{name_a}|{name_b}|{rep}|{record.actions_a}|{record.actions_b}|"
            f"{_format_payoff(record.payoff_a)}|{_format_payoff(record.payoff_b)}"
        )
    return "\n".join(lines) + "\n"


def write_history_dump(result: TournamentResult, destination) -> int:
    """One pipe-separated line per match; returns the line count."""
    text = render_history_dump(result)
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text.count("\n")


def read_history_dump(path) -> dict:
    """Parse a history dump back into the histories mapping shape."""
    histories = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != 7:
                raise ValueError(
                    f"{path}: line {line_number}: expected 7 pipe-separated "
                    f"fields, got {len(parts)}"
                )
            name_a, name_b, rep_str, acts_a, acts_b, pay_a, pay_b = parts
            for acts in (acts_a, acts_b):
                if acts.strip("CD"):
                    raise ValueError(
                        f"{path}: line {line_number}: expected C/D action text, got {acts!r}"
                    )
            try:
                record = MatchRecord(acts_a, acts_b, float(pay_a), float(pay_b))
                key = (name_a, name_b, int(rep_str))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_number}: {exc}") from None
            if len(acts_a) != len(acts_b):
                raise ValueError(
                    f"{path}: line {line_number}: action strings differ in length"
                )
            if key in histories:
                raise ValueError(
                    f"{path}: line {line_number}: duplicate match {name_a}|{name_b}|{rep_str}"
                )
            histories[key] = record
    return histories
