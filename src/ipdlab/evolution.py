"""Elitist evolutionary search over finite-state-machine genomes.

Generation 0 is the user's seed genomes (padded with fresh unreachable
states up to num_states) plus uniformly random machines to fill the
population.  Every generation evaluates all genomes, keeps the top
`bottleneck` untouched, and refills by mutating survivors picked
uniformly at random.  Long runs are the point, so the generation log
can stream to disk as it goes and a crashed run resumes from its last
logged champion.

Fitness is a pure function of genome content and params: match seeds
are derived from a hash of the genome's canonical serialization (name
excluded), not from its position in the population.  That keeps
evaluation order irrelevant and makes elitism honest even with a
stochastic opponent in the roster, because a surviving genome can never
be re-rolled into a different score.
"""

import hashlib
import statistics
from dataclasses import dataclass, replace

from . import kernels
from .fsm import FsmSpec, parse_fsm_line, serialize_fsm, serialize_fsm_line, validate_fsm
from .game import Action, score_actions
from .rng import SplitMix64, derive_seed
from .strategies import default_registry

_BOTH_ACTIONS = (Action.C, Action.D)


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
        if self.turns < 1:
            raise ValueError(f"turns must be positive, got {self.turns}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError(f"noise must lie in [0, 1], got {self.noise}")
        if self.opponent_roster is None:
            from .strategies import roster_default

            object.__setattr__(
                self, "opponent_roster", tuple(sid.name for sid in roster_default())
            )
        else:
            object.__setattr__(self, "opponent_roster", tuple(self.opponent_roster))
        if not self.opponent_roster:
            raise ValueError("opponent_roster must not be empty")


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    best_fitness: float
    mean_fitness: float
    best_genome: FsmSpec


# ── genome operators ─────────────────────────────────────────────────


def mutate_fsm(spec: FsmSpec, rate: float, rng: SplitMix64) -> FsmSpec:
    """One mutation pass over a genome.

    Draw order is part of the determinism contract: walk states in
    ascending order, C entry then D entry; each entry draws once for
    the action flip and once for the retarget; one final draw flips the
    initial action.  A retarget that fires draws one extra uniform
    state index, so disabled mutations always cost exactly one draw.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"mutation rate must lie in [0, 1], got {rate}")
    states = sorted(set(spec.states))
    transitions = dict(spec.transitions)
    for s in states:
        for opp in _BOTH_ACTIONS:
            target, own = transitions[(s, opp)]
            if rng.chance(rate):
                own = own.flip()
            if rng.chance(rate):
                target = states[rng.randrange(len(states))]
            transitions[(s, opp)] = (target, own)
    initial = spec.initial_action
    if rng.chance(rate):
        initial = initial.flip()
    return replace(spec, transitions=transitions, initial_action=initial)


def random_genome(num_states: int, rng: SplitMix64, name: str) -> FsmSpec:
    """Uniformly random machine on state ids 1..num_states."""
    states = tuple(range(1, num_states + 1))
    transitions = {}
    for s in states:
        for opp in _BOTH_ACTIONS:
            target = states[rng.randrange(num_states)]
            own = Action(rng.randrange(2))
            transitions[(s, opp)] = (target, own)
    start = states[rng.randrange(num_states)]
    initial = Action(rng.randrange(2))
    return FsmSpec(
        name=name,
        states=states,
        start_state=start,
        initial_action=initial,
        transitions=transitions,
    )


def _pad_genome(spec: FsmSpec, num_states: int, rng: SplitMix64) -> FsmSpec:
    """Grow a genome to num_states by adding fresh unreachable states."""
    have = len(set(spec.states))
    if have > num_states:
        raise ValueError(
            f"seed genome {spec.name!r} has {have} states, more than "
            f"num_states = {num_states}"
        )
    if have == num_states:
        return spec
    fresh = list(range(max(spec.states) + 1, max(spec.states) + 1 + num_states - have))
    states = tuple(spec.states) + tuple(fresh)
    transitions = dict(spec.transitions)
    for s in fresh:
        for opp in _BOTH_ACTIONS:
            target = states[rng.randrange(len(states))]
            own = Action(rng.randrange(2))
            transitions[(s, opp)] = (target, own)
    return replace(spec, states=states, transitions=transitions)


def genome_key(spec: FsmSpec) -> str:
    """Content hash of a genome, ignoring its name."""
    body = serialize_fsm(replace(spec, name="_"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ── fitness ──────────────────────────────────────────────────────────


def fitness(spec: FsmSpec, params: EvolutionParams, registry=None) -> float:
    """Mean normalized score of spec against the opponent roster.

    The candidate meets every roster member params.repetitions times
    for params.turns turns; per repetition its payoff total is divided
    by (turns x opponents), and the repetitions are averaged.
    """
    reg = registry if registry is not None else default_registry()
    opponents = [reg.get(name) for name in params.opponent_roster]
    root = derive_seed(params.seed, "fitness", genome_key(spec))
    jobs = [
        (idx, rep)
        for idx in range(len(opponents))
        for rep in range(params.repetitions)
    ]
    seeds = [derive_seed(root, "opp", idx, rep) for idx, rep in jobs]

    candidate = kernels.fsm_program(spec)
    acts_a, acts_b = kernels.play_batch(
        [candidate] * len(jobs),
        [opponents[idx].program for idx, _ in jobs],
        params.turns,
        params.noise,
        seeds,
    )
    # Jobs run opponent-major, so each column holds one repetition.  The
    # payoffs are integers, so the order of summation cannot move a bit.
    match_totals, _ = score_actions(acts_a, acts_b)
    totals = match_totals.reshape(len(opponents), params.repetitions).sum(axis=0)

    denominator = params.turns * len(opponents)
    return statistics.fmean(total / denominator for total in totals)


# ── the search loop ──────────────────────────────────────────────────


def evolve(seed_genomes, params: EvolutionParams, registry=None,
           log_stream=None, first_generation_index=0):
    """Run the search; returns (best-ever genome, list of GenerationRecord).

    When log_stream is given, each record is written and flushed as it
    is produced, so a killed run still leaves a usable log behind.
    first_generation_index shifts the numbering (and the mutation
    streams), which is what lets a resumed run append to an old log
    without reusing generation numbers.
    """
    reg = registry if registry is not None else default_registry()
    if len(seed_genomes) > params.population_size:
        raise ValueError(
            f"{len(seed_genomes)} seed genomes exceed population size "
            f"{params.population_size}"
        )

    population = []
    for i, genome in enumerate(seed_genomes):
        violations = validate_fsm(genome)
        if violations:
            raise ValueError(
                f"seed genome {genome.name!r} is invalid: " + "; ".join(violations)
            )
        pad_rng = SplitMix64(derive_seed(params.seed, "pad", i))
        population.append(_pad_genome(genome, params.num_states, pad_rng))
    for i in range(len(population), params.population_size):
        init_rng = SplitMix64(derive_seed(params.seed, "init", i))
        population.append(random_genome(params.num_states, init_rng, name=f"rand{i}"))

    cache = {}

    def evaluate(genome):
        key = genome_key(genome)
        if key not in cache:
            cache[key] = fitness(genome, params, reg)
        return cache[key]

    records = []
    best_ever = None
    gen = first_generation_index
    final_gen = first_generation_index + params.generations
    while True:
        fits = [evaluate(genome) for genome in population]
        order = sorted(range(len(population)), key=lambda i: (-fits[i], i))
        champion = order[0]
        record = GenerationRecord(
            index=gen,
            best_fitness=fits[champion],
            mean_fitness=statistics.fmean(fits),
            best_genome=population[champion],
        )
        records.append(record)
        if log_stream is not None:
            log_stream.write(render_generation_line(record) + "\n")
            log_stream.flush()
        if best_ever is None or record.best_fitness > best_ever[0]:
            best_ever = (record.best_fitness, record.best_genome)

        if gen == final_gen:
            break
        survivors = [population[i] for i in order[: params.bottleneck]]
        select_rng = SplitMix64(derive_seed(params.seed, "select", gen))
        children = []
        for slot in range(params.population_size - params.bottleneck):
            parent = survivors[select_rng.randrange(len(survivors))]
            child_rng = SplitMix64(derive_seed(params.seed, "mutate", gen, slot))
            child = mutate_fsm(parent, params.mutation_rate, child_rng)
            children.append(replace(child, name=f"g{gen + 1}c{slot}"))
        population = survivors + children
        gen += 1

    return best_ever[1], records


# ── generation log I/O and analysis ──────────────────────────────────


def render_generation_line(record: GenerationRecord) -> str:
    """`generation,best_score,mean_score,best_fsm` with 9-digit scores."""
    return (
        f"{record.index},{record.best_fitness:.9f},{record.mean_fitness:.9f},"
        f"{serialize_fsm_line(record.best_genome)}"
    )


def read_generation_log(path) -> list:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",", 3)
            if len(parts) != 4:
                raise ValueError(
                    f"{path}: line {line_number}: expected "
                    "'generation,best,mean,fsm'"
                )
            try:
                records.append(
                    GenerationRecord(
                        index=int(parts[0]),
                        best_fitness=float(parts[1]),
                        mean_fitness=float(parts[2]),
                        best_genome=parse_fsm_line(parts[3]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_number}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no generation records found")
    return records


def generation_deltas(log, threshold: float) -> list:
    """Positions where mean fitness rose by at least threshold.

    Returns (position in log, delta) for each consecutive pair whose
    mean_fitness difference is >= threshold.
    """
    if len(log) < 2:
        raise ValueError("need at least two generation records to take deltas")
    out = []
    for pos in range(1, len(log)):
        delta = log[pos].mean_fitness - log[pos - 1].mean_fitness
        if delta >= threshold:
            out.append((pos, delta))
    return out
