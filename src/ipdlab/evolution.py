"""Elitist evolutionary search over finite-state-machine genomes.

Generation 0 is the user's seed genomes (padded with fresh unreachable
states up to num_states) plus uniformly random machines to fill the
population.  Every generation evaluates its new genomes in one kernel
batch (genomes seen before keep their cached fitness), keeps the top
`bottleneck` untouched, and refills by mutating survivors picked
uniformly at random.  Long runs are the point, so the generation log
can stream to disk as it goes.  A crashed run resumes by running again
with the LogStream that resume_log reads from its log, which checks the
logged generations and appends the rest.

Fitness is a pure function of genome content and params: match seeds
are derived from a hash of the genome's canonical serialization (name
excluded), not from its position in the population.  That keeps
evaluation order irrelevant and makes elitism honest even with a
stochastic opponent in the roster, because a surviving genome can never
be re-rolled into a different score.
"""

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .fsm import _BOTH_ACTIONS, FsmSpec, parse_fsm_line, read_text, serialize_fsm_line, validate_fsm
from .game import _check_distinct, _check_settings, score_actions
from .rng import GOLDEN, MASK64, SplitMix64, derive_seed, derive_seeds
from .strategies import default_registry, roster_default


@dataclass(frozen=True)
class EvolutionParams:
    """Search settings; the defaults follow the runs this reproduces."""

    generations: int
    num_states: int = 10
    population_size: int = 40
    bottleneck: int = 10
    mutation_rate: float = 0.1
    turns: int = 20
    repetitions: int = 10
    noise: float = 0.0
    opponent_roster: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.num_states < 1:
            raise ValueError(f"num_states must be >= 1, got {self.num_states}")
        if not (1 <= self.bottleneck <= self.population_size):
            raise ValueError(
                f"need 1 <= bottleneck <= population_size, got "
                f"{self.bottleneck} and {self.population_size}"
            )
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ValueError(f"mutation_rate must lie in [0, 1], got {self.mutation_rate}")
        _check_settings(self.turns, self.repetitions, self.noise)
        roster = self.opponent_roster
        if roster is None:
            roster = [sid.name for sid in roster_default()]
        object.__setattr__(self, "opponent_roster", tuple(roster))
        if not self.opponent_roster:
            raise ValueError("opponent_roster must not be empty")
        _check_distinct("opponent_roster", self.opponent_roster)


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    best_fitness: float
    mean_fitness: float
    best_genome: FsmSpec


# ── genome operators ─────────────────────────────────────────────────


class _Genome(namedtuple("_Genome", "name ids codes opening")):
    """The search loop's genome: by state index, codes[2 * i + opponent's move] = 2 * target
    + own move and opening = 2 * start + first move; ids ascend.  key renders when first read."""

    @cached_property
    def key(self) -> str:
        return _key(self)


@lru_cache(maxsize=64)
def _key_table(ids) -> tuple:
    """Key text on state ids `ids`, blank at the opening and moves, and each code's line end."""
    ends = tuple(f"{ids[code >> 1]} {'CD'[code & 1]}\n" for code in range(2 * len(ids)))
    text = ["fsm _\nstart ", None] + [None] * (2 * len(ends))
    text[2::2] = [end[:-1] + " -> " for end in ends]
    return tuple(text), ends


def _key(genome) -> str:
    text, ends = _key_table(genome.ids)
    text = list(text)
    text[1::2] = map(ends.__getitem__, (genome.opening, *genome.codes))
    return hashlib.sha256("".join(text).encode("utf-8")).hexdigest()


def _from_spec(spec: FsmSpec) -> _Genome:
    program = kernels.fsm_program(spec)
    return _Genome(spec.name, tuple(sorted(set(spec.states))), program.codes.tolist(),
                   program.opening)


def _to_spec(genome: _Genome) -> FsmSpec:
    ids, opening = genome.ids, genome.opening
    transitions = {(ids[cell >> 1], _BOTH_ACTIONS[cell & 1]): (ids[code >> 1], _BOTH_ACTIONS[code & 1])
                   for cell, code in enumerate(genome.codes)}
    return FsmSpec(genome.name, ids, ids[opening >> 1], _BOTH_ACTIONS[opening & 1], transitions)


def _mutate_all(parents, rate: float, rngs, names) -> list:
    """mutate_fsm on the loop's form: parents[i], all of one state count
    n, mutated with rngs[i] into a child named names[i].

    A child makes at most 6n + 1 draws, in the order documented there,
    so all of them come from one block of SplitMix64 draws computed at
    once.  Each stream ends past the draws its child used.
    """
    if not parents:
        return []
    n = len(parents[0].ids)
    draws = kernels._draws(np.array([rng.state for rng in rngs], dtype=np.uint64), 1, 6 * n + 1).T
    fires = ((draws >> kernels._S11) < kernels._limit(rate)).tolist()  # each double < rate
    targets = (draws % np.uint64(n)).tolist()
    codes, openings = [], []
    for parent, rng, fired, target in zip(parents, rngs, fires, targets):
        child, p = [], 0  # p is the child's next draw
        for code in parent.codes:
            # the flip at p, the retarget at p + 1, its target at p + 2 if it fires
            if fired[p + 1]:
                code = 2 * target[p + 2] + (code & 1)
            child.append(code ^ fired[p])
            p += 2 + fired[p + 1]
        codes.append(child)
        openings.append(parent.opening ^ fired[p])
        rng.state = (rng.state + (p + 1) * GOLDEN) & MASK64
    return list(map(_Genome, names, [parent.ids for parent in parents], codes, openings))


def _randranges(rng: SplitMix64, bounds) -> list:
    """[rng.randrange(b) for b in bounds], from one block of draws; rng ends past them."""
    draws = kernels._draws(np.array([rng.state], dtype=np.uint64), 1, len(bounds))[:, 0]
    rng.state = (rng.state + len(bounds) * GOLDEN) & MASK64
    return (draws % np.array(bounds, dtype=np.uint64)).tolist()


def _random_cells(count: int, num_states: int, rng: SplitMix64) -> list:
    """count random codes on num_states states; each draws a target index, then a move."""
    draws = _randranges(rng, [num_states, 2] * count)
    return [2 * target + move for target, move in zip(draws[::2], draws[1::2])]


def _random(num_states: int, rng: SplitMix64, name: str) -> _Genome:
    *codes, opening = _random_cells(2 * num_states + 1, num_states, rng)
    return _Genome(name, tuple(range(1, num_states + 1)), codes, opening)


def _pad(genome: _Genome, num_states: int, rng: SplitMix64) -> _Genome:
    """Grow a genome to num_states by adding fresh unreachable states after its last id."""
    fresh = num_states - len(genome.ids)
    if fresh < 0:
        raise ValueError(
            f"seed genome {genome.name!r} has {len(genome.ids)} states, more than "
            f"num_states = {num_states}"
        )
    last = genome.ids[-1]
    return genome._replace(ids=genome.ids + tuple(range(last + 1, last + 1 + fresh)),
                           codes=genome.codes + _random_cells(2 * fresh, num_states, rng))


def mutate_fsm(spec: FsmSpec, rate: float, rng: SplitMix64) -> FsmSpec:
    """One mutation pass over a valid genome.

    Draw order is part of the determinism contract: walk states in
    ascending order, C entry then D entry; each entry draws once for
    the action flip and once for the retarget; one final draw flips the
    initial action.  A retarget that fires draws one extra uniform
    state index, so disabled mutations always cost exactly one draw.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"mutation rate must lie in [0, 1], got {rate}")
    child = _to_spec(_mutate_all([_from_spec(spec)], rate, [rng], [spec.name])[0])
    return replace(spec, transitions=child.transitions, initial_action=child.initial_action)


def random_genome(num_states: int, rng: SplitMix64, name: str) -> FsmSpec:
    """Uniformly random machine on state ids 1..num_states."""
    return _to_spec(_random(num_states, rng, name))


def genome_key(spec: FsmSpec) -> str:
    """Content hash of a genome, ignoring its name."""
    return _from_spec(spec).key


# ── fitness ──────────────────────────────────────────────────────────


def _batch_fitness(genomes, params: EvolutionParams, registry) -> list:
    """fitness() of each genome in the loop's form, from one kernel batch.

    A value depends only on its genome's content and params, not on its
    position or neighbours.  If a match draws, two calls derive the seeds:
    each root derive_seed(seed, "fitness", key), then each (root, "opp", idx, rep)."""
    opponents = [registry.get(name).program for name in params.opponent_roster]
    # one Program per genome, so the kernel packs each genome once
    programs = [kernels.Program(kernels.KIND_FSM, genome.codes, genome.opening, 0.0)
                for genome in genomes]
    # genome-major pairs of indices into programs + opponents
    row, column = np.divmod(np.arange(len(genomes) * len(opponents)), len(opponents))

    def seeds_of(unshared):
        drawing = unshared[:len(unshared) // len(genomes)]  # genome 0's pairs: every machine's
        roots = derive_seeds([(params.seed, "fitness")], [(genome.key,) for genome in genomes])
        return np.frombuffer(derive_seeds(
            [(root, "opp") for root in np.frombuffer(roots, "<u8").tolist()],
            [(idx, rep) for idx in drawing for rep in range(params.repetitions)]), "<u8")

    acts_a, acts_b, index = kernels.play_pairs(
        programs + opponents, np.stack((row, column + len(genomes)), axis=1),
        params.repetitions, params.turns, params.noise, seeds_of
    )
    # Pairs run genome-major, then opponent-major, so after the gather
    # each genome's block sums to one total per repetition.  The payoffs
    # are integers, so the order of summation cannot move a bit.
    row_totals, _ = score_actions(acts_a, acts_b)
    totals = row_totals[index].reshape(len(genomes), len(opponents), params.repetitions).sum(axis=1)

    # math.fsum(row) / len(row) is what statistics.fmean(row) computes
    denominator = params.turns * len(opponents)
    return [math.fsum(row) / params.repetitions for row in (totals / denominator).tolist()]


def fitness(spec: FsmSpec, params: EvolutionParams, registry=None) -> float:
    """Mean normalized score of spec against the opponent roster.

    The candidate meets every roster member params.repetitions times
    for params.turns turns; per repetition its payoff total is divided
    by (turns x opponents), and the repetitions are averaged.
    """
    reg = registry if registry is not None else default_registry()
    return _batch_fitness([_from_spec(spec)], params, reg)[0]


# ── the search loop ──────────────────────────────────────────────────


def _seed_population(seed_genomes, params: EvolutionParams) -> list:
    """The seed genomes in the loop's form, each checked and padded to params.num_states
    after its sorted state ids; ValueError if they cannot all enter generation 0."""
    if len(seed_genomes) > params.population_size:
        raise ValueError(
            f"{len(seed_genomes)} seed genomes exceed population size "
            f"{params.population_size}"
        )
    seeds = []
    for i, spec in enumerate(seed_genomes):
        violations = validate_fsm(spec)
        if violations:
            raise ValueError(
                f"seed genome {spec.name!r} is invalid: " + "; ".join(violations)
            )
        pad_rng = SplitMix64(derive_seed(params.seed, "pad", i))
        seeds.append(_pad(_from_spec(spec), params.num_states, pad_rng))
    return seeds


def evolve(seed_genomes, params: EvolutionParams, registry=None, log_stream=None):
    """Run the search; returns (best-ever genome, list of GenerationRecord).

    When log_stream is given, each record is written and flushed as it
    is produced, so a killed run still leaves a usable log behind.  The
    same arguments with resume_log(path) as log_stream resume that run.
    """
    reg = registry if registry is not None else default_registry()
    population = _seed_population(seed_genomes, params)
    for i in range(len(population), params.population_size):
        init_rng = SplitMix64(derive_seed(params.seed, "init", i))
        population.append(_random(params.num_states, init_rng, name=f"rand{i}"))

    cache = {}
    records = []
    for gen in range(params.generations + 1):
        fresh = {genome.key: genome for genome in population if genome.key not in cache}
        cache.update(zip(fresh, _batch_fitness(list(fresh.values()), params, reg)))
        fits = [cache[genome.key] for genome in population]
        order = sorted(range(len(population)), key=lambda i: (-fits[i], i))
        champion = order[0]
        record = GenerationRecord(gen, fits[champion], math.fsum(fits) / len(fits),
                                  _to_spec(population[champion]))
        records.append(record)
        if log_stream is not None:
            log_stream.write(render_generation_line(record) + "\n")
            log_stream.flush()

        if gen == params.generations:
            break
        survivors = [population[i] for i in order[: params.bottleneck]]
        select_rng = SplitMix64(derive_seed(params.seed, "select", gen))
        slots = range(params.population_size - params.bottleneck)
        parents = [survivors[i] for i in _randranges(select_rng, [len(survivors)] * len(slots))]
        rngs = [SplitMix64(derive_seed(params.seed, "mutate", gen, slot)) for slot in slots]
        population = survivors + _mutate_all(parents, params.mutation_rate, rngs,
                                             [f"g{gen + 1}c{slot}" for slot in slots])

    return max(records, key=lambda record: record.best_fitness).best_genome, records


# ── generation log I/O and analysis ──────────────────────────────────


def render_generation_line(record: GenerationRecord) -> str:
    """`generation,best_score,mean_score,best_fsm` with 9-digit scores."""
    return (
        f"{record.index},{record.best_fitness:.9f},{record.mean_fitness:.9f},"
        f"{serialize_fsm_line(record.best_genome)}"
    )


def _complete_lines(path) -> tuple:
    """A log's complete lines, without their line ends, and the bytes they span.

    An unfinished last line, which a kill during a write leaves behind,
    is cut before decoding, because it may end inside a character.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    size = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
    return read_text(path, data[:size]).split("\n")[:-1], size


def _records(path, lines) -> list:
    """The records of a log's lines; their indices must run 0, 1, 2, ..."""
    records = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",", 3)
        try:
            if len(parts) != 4:
                raise ValueError("expected 'generation,best,mean,fsm'")
            if not (parts[0].isascii() and parts[0].isdigit()):
                raise ValueError(f"expected a generation index of digits 0-9, got {parts[0]!r}")
            record = GenerationRecord(int(parts[0]), float(parts[1]), float(parts[2]),
                                      parse_fsm_line(parts[3]))
            if record.index != len(records):
                raise ValueError(f"expected generation {len(records)}, got {record.index}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_number}: {exc}") from None
        records.append(record)
    if not records:
        raise ValueError(f"{path}: no generation records found")
    return records


def read_generation_log(path) -> list:
    """Parse a generation log; its indices must run 0, 1, 2, ...

    An unfinished last line, which a kill during a write leaves behind,
    is not read.
    """
    return _records(path, _complete_lines(path)[0])


class LogStream:
    """evolve()'s log stream, for a new run or for rerunning the run whose
    complete lines, logged, span the first size bytes of path.

    A generation the log holds must come out as its logged text, or
    ValueError names it and the file is left as it was.  The first new
    line cuts the file to size bytes, which drops an unfinished last line
    or, for a new run, creates or empties it, and new lines are appended.
    """

    def __init__(self, path, logged=(), size=0, records=0):
        self.path = path
        self.logged = logged
        self.records = records  # how many generation records logged holds
        self._size = size
        self._checked = 0
        self._stream = None

    def write(self, line):
        if self._checked < len(self.logged):
            if line != self.logged[self._checked] + "\n":
                raise ValueError(f"{self.path}: generation {self._checked} differs "
                                 "from a rerun with these flags")
            self._checked += 1
            return
        if self._stream is None:
            # "a" writes at the end of the file, wherever truncate leaves it
            self._stream = open(self.path, "a", encoding="utf-8", newline="")
            self._stream.truncate(self._size)
        self._stream.write(line)

    def flush(self):
        if self._stream is not None:
            self._stream.flush()

    def close(self):
        if self._stream is not None:
            self._stream.close()


def resume_log(path) -> LogStream:
    """The stream that reruns the run logged at path, read once; a log
    without a complete line is a new run's."""
    lines, size = _complete_lines(path)
    records = _records(path, lines) if size else ()  # refuses a log that does not parse
    return LogStream(path, lines, size, len(records))


def generation_deltas(log, threshold: float) -> list:
    """Positions where mean fitness rose by at least threshold.

    Returns (position in log, delta) for each consecutive pair whose
    mean_fitness difference is >= threshold.
    """
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    if len(log) < 2:
        raise ValueError("need at least two generation records to take deltas")
    out = []
    for pos in range(1, len(log)):
        delta = log[pos].mean_fitness - log[pos - 1].mean_fitness
        if delta >= threshold:
            out.append((pos, delta))
    return out
