"""Genome operators, fitness evaluation, and the elitist search loop."""

import hashlib
import io
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdlab import (
    Action,
    EvolutionParams,
    FsmSpec,
    GenerationRecord,
    behaviorally_equivalent,
    evolve,
    fitness,
    generation_deltas,
    mutate_fsm,
    random_genome,
    read_generation_log,
    roster_default,
    validate_fsm,
)
from ipdlab import evolution, kernels
from ipdlab.evolution import (
    _batch_fitness,
    _from_spec,
    _mutate_all,
    _pad,
    _seed_population,
    _to_spec,
    genome_key,
    render_generation_line,
)
from ipdlab.fsm import serialize_fsm, serialize_fsm_line
from ipdlab.game import score_actions
from ipdlab.rng import SplitMix64, derive_seed
from ipdlab.strategies import CLASSIC_FSMS, default_registry

from conftest import fsm_specs


_BOTH_ACTIONS = (Action.C, Action.D)


def _reference_mutate_fsm(spec, rate, rng):
    """mutate_fsm walked on the FsmSpec dict: the oracle for the array form."""
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


def _reference_random_genome(num_states, rng, name):
    """random_genome drawn on the FsmSpec dict: the oracle for its draw order."""
    states = tuple(range(1, num_states + 1))
    transitions = {}
    for s in states:
        for opp in _BOTH_ACTIONS:
            target = states[rng.randrange(num_states)]
            transitions[(s, opp)] = (target, _BOTH_ACTIONS[rng.randrange(2)])
    start = states[rng.randrange(num_states)]
    return FsmSpec(name, states, start, _BOTH_ACTIONS[rng.randrange(2)], transitions)


def _reference_pad(spec, num_states, rng):
    """Seed padding drawn on the FsmSpec dict: the oracle for its draw order on ascending states."""
    have = len(set(spec.states))
    if have == num_states:
        return spec
    fresh = tuple(range(max(spec.states) + 1, max(spec.states) + 1 + num_states - have))
    states = tuple(spec.states) + fresh
    transitions = dict(spec.transitions)
    for s in fresh:
        for opp in _BOTH_ACTIONS:
            target = states[rng.randrange(len(states))]
            transitions[(s, opp)] = (target, _BOTH_ACTIONS[rng.randrange(2)])
    return replace(spec, states=states, transitions=transitions)


@st.composite
def sparse_fsm_specs(draw, max_states=6):
    """Valid machines whose state ids are any distinct positive integers."""
    states = tuple(sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=max_states))))
    transitions = {(s, opp): (draw(st.sampled_from(states)), draw(st.sampled_from(_BOTH_ACTIONS)))
                   for s in states for opp in _BOTH_ACTIONS}
    return FsmSpec("sparse", states, draw(st.sampled_from(states)),
                   draw(st.sampled_from(_BOTH_ACTIONS)), transitions)


any_fsm_specs = st.one_of(fsm_specs(max_states=6), sparse_fsm_specs())


def _sha256_key(spec):
    return hashlib.sha256(serialize_fsm(replace(spec, name="_")).encode("utf-8")).hexdigest()


def _params(**kw):
    defaults = dict(generations=0, opponent_roster=("Cooperator", "Defector"))
    defaults.update(kw)
    return EvolutionParams(**defaults)


class TestParamsValidation:
    def test_defaults_carry_the_full_roster(self):
        params = EvolutionParams(generations=1)
        assert params.opponent_roster == tuple(s.name for s in roster_default())
        assert params.population_size == 40
        assert params.bottleneck == 10
        assert params.mutation_rate == 0.1
        assert params.turns == 20
        assert params.repetitions == 10
        assert params.noise == 0.0

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(generations=-1), "generations"),
            (dict(num_states=0), "num_states"),
            (dict(bottleneck=0), "bottleneck"),
            (dict(bottleneck=50), "bottleneck"),
            (dict(mutation_rate=1.5), "mutation_rate"),
            (dict(turns=0), "turns"),
            (dict(repetitions=0), "repetitions"),
            (dict(noise=-0.1), "noise"),
            (dict(opponent_roster=()), "opponent_roster"),
        ],
    )
    def test_rejects_bad_values(self, kw, message):
        merged = dict(generations=1)
        merged.update(kw)
        with pytest.raises(ValueError, match=message):
            EvolutionParams(**merged)

    @pytest.mark.parametrize("roster", [("TitForTat", "TitForTat"),
                                        ("TitForTat", "titfortat", "Defector")])
    def test_rejects_a_repeated_opponent(self, roster):
        # the registry finds both names, so the opponent would count twice
        with pytest.raises(ValueError) as err:
            EvolutionParams(generations=0, opponent_roster=roster)
        assert str(err.value) == f"opponent_roster entries must be distinct, got {list(roster)}"


class TestMutation:
    def test_rate_zero_is_identity(self, e8):
        out = mutate_fsm(e8, 0.0, SplitMix64(42))
        assert out == e8

    def test_rate_one_on_a_single_state_machine(self):
        spec = CLASSIC_FSMS["TitForTat"]  # one state, both targets stuck at 1
        out = mutate_fsm(spec, 1.0, SplitMix64(7))
        # every entry's action flips; retargets can only land on state 1
        assert out.transitions[(1, 0)] == (1, spec.transitions[(1, 0)][1].flip())
        assert out.transitions[(1, 1)] == (1, spec.transitions[(1, 1)][1].flip())
        assert out.initial_action == spec.initial_action.flip()

    def test_same_stream_same_child(self, fourthprac):
        assert mutate_fsm(fourthprac, 0.3, SplitMix64(11)) == mutate_fsm(
            fourthprac, 0.3, SplitMix64(11)
        )
        assert mutate_fsm(fourthprac, 0.3, SplitMix64(11)) != mutate_fsm(
            fourthprac, 0.3, SplitMix64(12)
        )

    def test_invalid_rate_rejected(self, e6):
        with pytest.raises(ValueError, match="rate"):
            mutate_fsm(e6, -0.2, SplitMix64(0))

    def test_renders_no_genome_key(self, secondprac, monkeypatch):
        # a key is rendered only where the search loop reads it
        def refuse(genome):
            raise AssertionError("mutate_fsm rendered a genome key")

        monkeypatch.setattr(evolution, "_key", refuse)
        rng, reference_rng = SplitMix64(7), SplitMix64(7)
        assert mutate_fsm(secondprac, 0.1, rng) == _reference_mutate_fsm(secondprac, 0.1,
                                                                         reference_rng)
        with pytest.raises(AssertionError, match="rendered"):
            genome_key(secondprac)

    def test_flip_fraction_tracks_the_rate(self, secondprac):
        rng = SplitMix64(2024)
        flips = entries = 0
        for _ in range(2000):
            child = mutate_fsm(secondprac, 0.1, rng)
            for key, (_, own) in secondprac.transitions.items():
                entries += 1
                flips += int(child.transitions[key][1] != own)
        assert abs(flips / entries - 0.1) < 0.01

    @given(spec=fsm_specs(), rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_mutants_are_always_valid(self, spec, rate, seed):
        child = mutate_fsm(spec, rate, SplitMix64(seed))
        assert validate_fsm(child) == []
        assert child.states == spec.states
        assert child.start_state == spec.start_state

    @given(spec=any_fsm_specs,
           rate=st.one_of(st.sampled_from((0.0, 0.1, 1.0)), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_array_form_equals_the_fsm_spec_reference(self, spec, rate, seed):
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        expected = _reference_mutate_fsm(spec, rate, reference_rng)
        assert mutate_fsm(spec, rate, rng) == expected
        assert rng.state == reference_rng.state  # the same number of draws
        child = _mutate_all([_from_spec(spec)], rate, [SplitMix64(seed)], ["child"])[0]
        assert child.key == _sha256_key(expected)

    @given(specs=st.lists(any_fsm_specs, min_size=1, max_size=6),
           rate=st.one_of(st.sampled_from((0.0, 0.1, 0.5, 1.0)), st.floats(0.0, 1.0)),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_batch_equals_the_reference_per_child(self, specs, rate, data):
        # Padded to one state count, the parents still carry different ids.
        n = max(len(spec.states) for spec in specs)
        parents = [_to_spec(_pad(_from_spec(spec), n, SplitMix64(i)))
                   for i, spec in enumerate(specs)]
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1),
                                   min_size=len(parents), max_size=len(parents)))
        rngs = [SplitMix64(seed) for seed in seeds]
        children = _mutate_all([_from_spec(parent) for parent in parents], rate, rngs,
                               [parent.name for parent in parents])
        for parent, seed, rng, child in zip(parents, seeds, rngs, children):
            reference_rng = SplitMix64(seed)
            expected = _reference_mutate_fsm(parent, rate, reference_rng)
            assert _to_spec(child) == expected
            assert child.key == _sha256_key(expected)
            assert rng.state == reference_rng.state


class TestRandomGenome:
    @given(num_states=st.integers(1, 12), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_always_valid_with_dense_state_ids(self, num_states, seed):
        spec = random_genome(num_states, SplitMix64(seed), name="r")
        assert validate_fsm(spec) == []
        assert spec.states == tuple(range(1, num_states + 1))

    def test_deterministic_per_stream(self):
        assert random_genome(8, SplitMix64(3), "x") == random_genome(8, SplitMix64(3), "x")

    @given(num_states=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_fsm_spec_reference(self, num_states, seed):
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        assert random_genome(num_states, rng, "r") == _reference_random_genome(
            num_states, reference_rng, "r")
        assert rng.state == reference_rng.state  # the same number of draws


class TestPadding:
    def test_exact_size_passes_through(self, e8):
        assert _pad(_from_spec(e8), 8, SplitMix64(0)) == _from_spec(e8)

    def test_padding_preserves_behavior(self, e6):
        padded = _to_spec(_pad(_from_spec(e6), 10, SplitMix64(5)))
        assert len(padded.states) == 10
        assert validate_fsm(padded) == []
        assert behaviorally_equivalent(padded, e6)
        for key, value in e6.transitions.items():
            assert padded.transitions[key] == value

    def test_oversized_genome_rejected(self, secondprac):
        with pytest.raises(ValueError, match="more than"):
            _pad(_from_spec(secondprac), 6, SplitMix64(0))

    @given(spec=any_fsm_specs, extra=st.integers(0, 4), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_fsm_spec_reference(self, spec, extra, seed):
        num_states = len(spec.states) + extra
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        padded = _to_spec(_pad(_from_spec(spec), num_states, rng))
        assert padded == _reference_pad(spec, num_states, reference_rng)
        assert rng.state == reference_rng.state  # the same number of draws

    @given(spec=any_fsm_specs, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_the_order_of_states_does_not_matter(self, spec, data):
        shuffled = replace(spec, states=tuple(data.draw(st.permutations(spec.states))))
        params = _params(generations=2, num_states=8, population_size=4, bottleneck=2,
                         turns=5, repetitions=2)
        assert _seed_population([shuffled], params) == _seed_population([spec], params)
        assert evolve([shuffled], params) == evolve([spec], params)


class TestGenomeKey:
    def test_name_does_not_matter(self, e6):
        assert genome_key(e6) == genome_key(replace(e6, name="Imposter"))

    def test_content_does(self, e6, e8):
        assert genome_key(e6) != genome_key(e8)

    @given(spec=any_fsm_specs)
    @settings(max_examples=80, deadline=None)
    def test_rendered_from_the_arrays_equals_the_serialized_hash(self, spec):
        assert genome_key(spec) == _sha256_key(spec)
        assert _from_spec(spec).key == _sha256_key(spec)


def _decoded(program):
    """A machine Program's transitions and opening, read through its views."""
    return ({(i, opp): (int(program.next_state[i, opp]), int(program.emit[i, opp]))
             for i in range(len(program.next_state)) for opp in (0, 1)},
            int(program.start), int(program.first))


class TestOneEncoding:
    """A kernel Program holds the genome's move codes; fsm_program is their one encoder."""

    @given(spec=any_fsm_specs, seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_a_program_and_a_genome_hold_the_same_codes(self, spec, seed):
        program, genome = kernels.fsm_program(spec), _from_spec(spec)
        assert (program.codes.tolist(), program.opening) == (genome.codes, genome.opening)
        child = _mutate_all([genome], 0.5, [SplitMix64(seed)], ["child"])[0]
        program = kernels.fsm_program(_to_spec(child))
        assert (program.codes.tolist(), program.opening) == (child.codes, child.opening)

    @pytest.mark.parametrize("name", [sid.name for sid in roster_default()
                                      if default_registry().get(sid.name).spec is not None])
    def test_the_tracer_views_decode_the_transitions_by_state_index(self, name):
        spec = default_registry().get(name).spec
        index = {s: i for i, s in enumerate(sorted(set(spec.states)))}
        transitions = {(index[s], opp): (index[target], own)
                       for (s, opp), (target, own) in spec.transitions.items()}
        assert _decoded(kernels.fsm_program(spec)) == (
            transitions, index[spec.start_state], spec.initial_action)


class TestFitness:
    def test_cooperation_scores_three(self):
        params = _params(opponent_roster=("Cooperator",), turns=10, repetitions=2)
        assert fitness(CLASSIC_FSMS["Cooperator"], params) == 3.0

    def test_exploited_cooperator_scores_zero(self):
        params = _params(opponent_roster=("Defector",), turns=10, repetitions=2)
        assert fitness(CLASSIC_FSMS["Cooperator"], params) == 0.0

    def test_exploiting_defector_scores_five(self):
        params = _params(opponent_roster=("Cooperator",), turns=10, repetitions=2)
        assert fitness(CLASSIC_FSMS["Defector"], params) == 5.0

    def test_pure_function_of_content_and_params(self, e8):
        params = _params(
            opponent_roster=("Random", "TitForTat"), turns=30, repetitions=5, seed=4
        )
        first = fitness(e8, params)
        assert fitness(e8, params) == first
        assert fitness(replace(e8, name="Imposter"), params) == first

    def test_full_roster_value_is_on_payoff_scale(self, e6):
        value = fitness(e6, EvolutionParams(generations=0, turns=20, repetitions=3))
        assert 0.0 <= value <= 5.0


def _batch(specs, params):
    return _batch_fitness([_from_spec(spec) for spec in specs], params, default_registry())


class TestBatchFitness:
    """One kernel batch for many genomes gives each genome its own fitness."""

    @given(
        genomes=st.lists(fsm_specs(max_states=5), min_size=1, max_size=5),
        noise=st.sampled_from((0.0, 0.05)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_one_fitness_call_per_genome(self, genomes, noise, seed):
        params = _params(opponent_roster=("Random", "TitForTat", "EvolvedFSM6"),
                         turns=12, repetitions=3, noise=noise, seed=seed)
        expected = [fitness(genome, params) for genome in genomes]
        assert _batch(genomes, params) == expected
        # a duplicate and a reversed order: neither position nor neighbours count
        doubled = genomes + genomes[:1]
        assert _batch(doubled, params) == expected + expected[:1]
        assert _batch(genomes[::-1], params) == expected[::-1]

    def test_empty_batch(self):
        assert _batch([], _params()) == []

    @given(
        genomes=st.lists(fsm_specs(max_states=5), min_size=1, max_size=4),
        noise=st.sampled_from((0.0, 0.05)),
        repetitions=st.integers(1, 12),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_means_keep_the_bits_of_statistics_fmean(self, genomes, noise, repetitions, seed):
        roster, turns = ("Random", "TitForTat", "EvolvedFSM6"), 7
        params = _params(opponent_roster=roster, turns=turns, repetitions=repetitions,
                         noise=noise, seed=seed)
        registry = default_registry()
        expected = []
        for genome in genomes:
            root = derive_seed(seed, "fitness", genome_key(genome))
            totals = []
            for rep in range(repetitions):
                scores = [score_actions(*kernels.play_one(
                    kernels.fsm_program(genome), registry.get(name).program, turns, noise,
                    derive_seed(root, "opp", idx, rep)))[0] for idx, name in enumerate(roster)]
                totals.append(sum(scores))
            expected.append(statistics.fmean(total / (turns * len(roster)) for total in totals))
        values = _batch_fitness([_from_spec(genome) for genome in genomes], params, registry)
        assert np.array(values).tobytes() == np.array(expected).tobytes()


class TestEvolve:
    def test_zero_generations_scores_the_seeds_once(self, e6):
        params = _params(generations=0, population_size=3, bottleneck=1, seed=8)
        best, records = evolve([e6], params)
        assert len(records) == 1
        assert records[0].index == 0
        assert genome_key(best) == genome_key(records[0].best_genome)

    def test_rerun_produces_identical_logs(self, secondprac):
        params = _params(
            generations=4, population_size=6, bottleneck=2, turns=10,
            repetitions=2, seed=21,
        )
        _, one = evolve([secondprac], params)
        _, two = evolve([secondprac], params)
        assert [render_generation_line(r) for r in one] == [
            render_generation_line(r) for r in two
        ]

    def test_best_fitness_never_drops(self):
        params = EvolutionParams(
            generations=6, num_states=6, population_size=8, bottleneck=2,
            turns=10, repetitions=2, seed=13,
        )
        _, records = evolve([], params)
        best = [r.best_fitness for r in records]
        assert best == sorted(best)
        assert len(records) == 7

    def test_rate_zero_is_pure_selection(self, e6):
        params = _params(
            generations=3, population_size=3, bottleneck=1,
            mutation_rate=0.0, turns=10, repetitions=1, seed=2,
        )
        _, records = evolve([e6], params)
        keys = {genome_key(r.best_genome) for r in records}
        assert len(keys) == 1  # the champion is copied forever

    def test_a_full_bottleneck_breeds_no_children(self, e6):
        params = _params(generations=2, population_size=3, bottleneck=3, turns=10, repetitions=1)
        _, records = evolve([e6], params)
        assert len({render_generation_line(r).split(",", 1)[1] for r in records}) == 1

    def test_too_many_seed_genomes_rejected(self, e6, e8):
        with pytest.raises(ValueError, match="exceed population size"):
            evolve([e6, e8], _params(population_size=1, bottleneck=1))

    def test_invalid_seed_genome_rejected(self, e6):
        broken = replace(e6, start_state=99)
        with pytest.raises(ValueError, match="invalid"):
            evolve([broken], _params())

    def test_log_stream_receives_each_record(self, e6):
        stream = io.StringIO()
        params = _params(
            generations=2, population_size=4, bottleneck=1, turns=5,
            repetitions=1, seed=6,
        )
        _, records = evolve([e6], params, log_stream=stream)
        expected = "".join(render_generation_line(r) + "\n" for r in records)
        assert stream.getvalue() == expected


class TestGenerationLog:
    def test_round_trip(self, tmp_path, e6, e8):
        params = _params(
            generations=3, population_size=4, bottleneck=2, turns=8,
            repetitions=2, seed=3,
        )
        _, records = evolve([e6, e8], params)
        path = tmp_path / "gen.log"
        path.write_text("".join(render_generation_line(r) + "\n" for r in records))
        loaded = read_generation_log(path)
        assert [render_generation_line(r) for r in loaded] == [
            render_generation_line(r) for r in records
        ]
        assert [r.index for r in loaded] == [0, 1, 2, 3]

    def test_reader_rejects_short_lines(self, tmp_path):
        path = tmp_path / "gen.log"
        path.write_text("0,1.0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_generation_log(path)

    def test_reader_rejects_broken_fsm_field(self, tmp_path):
        path = tmp_path / "gen.log"
        path.write_text("0,1.0,1.0,not a machine\n")
        with pytest.raises(ValueError, match="line 1"):
            read_generation_log(path)

    def test_broken_statement_names_line_and_statement(self, tmp_path, e8):
        # statement 7 of line 2 lost its arrow; the message must give the
        # log line and the statement, each once
        good = serialize_fsm_line(CLASSIC_FSMS["TitForTat"])
        statements = serialize_fsm_line(e8).split(";")
        statements[6] = "3 C"
        path = tmp_path / "gen.log"
        path.write_text(f"0,1.0,1.0,{good}\n1,1.0,1.0,{';'.join(statements)}\n"
                        f"2,1.0,1.0,{good}\n")
        with pytest.raises(ValueError) as err:
            read_generation_log(path)
        prefix = f"{path}: "
        assert str(err.value).startswith(prefix)
        message = str(err.value)[len(prefix):]
        assert message.startswith("line 2: statement 7: expected ")
        assert message.endswith("got '3 C'")
        assert message.count("line") == 1

    def test_a_statement_ends_only_at_a_semicolon(self, tmp_path):
        # \x0c and \u2028 are no line ends: the comment runs to the ';'
        statements = serialize_fsm_line(CLASSIC_FSMS["TitForTat"]).split(";")
        statements[0] += " # a note\x0c more\u2028 still"
        statements[1] = "start 1 Q"
        path = tmp_path / "gen.log"
        path.write_text(f"0,1.0,1.0,{';'.join(statements)}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_generation_log(path)
        assert str(err.value) == f"{path}: line 1: statement 2: expected C or D, got 'Q'"

    @pytest.mark.parametrize("indices, got", [([0, 0, 1], 0), ([0, 2, 3], 2)],
                             ids=["duplicate", "gap"])
    def test_reader_requires_consecutive_indices(self, tmp_path, indices, got):
        genome = serialize_fsm_line(CLASSIC_FSMS["TitForTat"])
        path = tmp_path / "gen.log"
        path.write_text("".join(f"{i},1.0,1.0,{genome}\n" for i in indices))
        with pytest.raises(ValueError) as err:
            read_generation_log(path)
        assert str(err.value) == f"{path}: line 2: expected generation 1, got {got}"

    @pytest.mark.parametrize("index", ["+1", "\u0661", "1 ", "0_1", "-1", ""])
    def test_reader_reads_an_index_of_plain_digits_only(self, tmp_path, index):
        # int() reads all but the empty one as a number
        genome = serialize_fsm_line(CLASSIC_FSMS["TitForTat"])
        path = tmp_path / "gen.log"
        path.write_text(f"0,1.0,1.0,{genome}\n{index},1.0,1.0,{genome}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_generation_log(path)
        assert str(err.value) == (
            f"{path}: line 2: expected a generation index of digits 0-9, got {index!r}")

    def test_reader_rejects_empty_log(self, tmp_path):
        path = tmp_path / "gen.log"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no generation records"):
            read_generation_log(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_reader_skips_a_torn_last_line(self, tmp_path, ending):
        genome = serialize_fsm_line(CLASSIC_FSMS["TitForTat"])
        path = tmp_path / "gen.log"
        path.write_bytes(f"0,1.0,1.0,{genome}{ending}1,1.0,1.0,{genome[:9]}".encode())
        assert [r.index for r in read_generation_log(path)] == [0]

    def test_reader_skips_a_torn_last_line_cut_inside_a_character(self, tmp_path):
        # a kill can cut a multi-byte name; the unfinished line is not decoded
        genome = serialize_fsm_line(replace(CLASSIC_FSMS["TitForTat"], name="Tït"))
        line = f"0,1.0,1.0,{genome}\n".encode()
        path = tmp_path / "gen.log"
        path.write_bytes(line + line.replace(b"0,", b"1,", 1)[:line.index(b"\xc3") + 1])
        assert [r.best_genome.name for r in read_generation_log(path)] == ["Tït"]

    def test_reader_names_a_bad_byte_in_a_complete_line(self, tmp_path):
        genome = serialize_fsm_line(CLASSIC_FSMS["TitForTat"]).encode()
        path = tmp_path / "gen.log"
        path.write_bytes(b"0,1.0,1.0," + genome + b"\r\n1,1.0,1.0,\xff" + genome + b"\n")
        with pytest.raises(ValueError, match="line 2: byte 0xff is not UTF-8 text"):
            read_generation_log(path)


class TestGenerationDeltas:
    @staticmethod
    def _log(means):
        spec = CLASSIC_FSMS["TitForTat"]
        return [
            GenerationRecord(index=i, best_fitness=m, mean_fitness=m, best_genome=spec)
            for i, m in enumerate(means)
        ]

    def test_recorded_jump_pair(self):
        jumps = generation_deltas(self._log([2.871814908, 2.885947477]), 0.01)
        assert len(jumps) == 1
        pos, delta = jumps[0]
        assert pos == 1
        assert abs(delta - 0.014132569) < 1e-12

    def test_constant_means_report_nothing(self):
        assert generation_deltas(self._log([2.0, 2.0, 2.0]), 0.001) == []

    def test_threshold_zero_reports_every_non_drop(self):
        jumps = generation_deltas(self._log([1.0, 1.5, 1.5, 1.2]), 0.0)
        assert [pos for pos, _ in jumps] == [1, 2]

    def test_single_record_log_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            generation_deltas(self._log([2.0]), 0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be a number, got nan"):
            generation_deltas(self._log([1.0, 1.5]), float("nan"))
