"""Acceptance checks: the package's headline behaviors, one test each.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line
per criterion.  Tolerances and time budgets are part of the criteria
and are asserted, not just eyeballed.
"""

import statistics
import time

from ipdlab import (
    EvolutionParams,
    MatchConfig,
    TournamentConfig,
    behaviorally_equivalent,
    builtin_fsm,
    compare_transitions,
    cooperation_rates,
    evolve,
    fsm_entry,
    generation_deltas,
    mutate_fsm,
    play_match,
    reachable_states,
    roster_default,
    run_tournament,
)
from ipdlab.cli import main
from ipdlab.evolution import GenerationRecord
from ipdlab.rng import SplitMix64, derive_seed
from ipdlab.strategies import default_registry


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_criterion_01_eight_state_machine_has_two_dead_states():
    spec = builtin_fsm("EvolvedFSM8")
    report = reachable_states(spec)  # warm imports and caches
    best = min(
        _timed(lambda: reachable_states(spec))[0] for _ in range(5)
    )
    assert report.reachable == {3, 4, 5, 6, 7, 8}
    assert report.unreachable == {1, 2}
    assert best < 0.001, f"reachability took {best * 1e3:.3f} ms"


def test_criterion_02_pruned_machine_is_indistinguishable_in_play():
    e8 = builtin_fsm("EvolvedFSM8")
    e6 = builtin_fsm("EvolvedFSM6")
    registry = default_registry()

    def check():
        assert behaviorally_equivalent(e8, e6)
        for sid in roster_default():
            entry = registry.get(sid.name)
            seed = derive_seed(2, "acceptance", sid.name)
            config = MatchConfig(turns=200, noise=0.0, seed=seed)
            rec8 = play_match(fsm_entry(e8), entry, config)
            rec6 = play_match(fsm_entry(e6), entry, config)
            assert rec8 == rec6, f"records differ against {sid.name}"

    elapsed, _ = _timed(check)
    assert elapsed < 1.0, f"equivalence block took {elapsed:.3f} s"


def test_criterion_03_top_machines_sustain_mutual_cooperation():
    e6 = builtin_fsm("EvolvedFSM6")
    registry = default_registry()
    turns = 200
    opponents = {
        "TitForTat": registry.get("TitForTat"),
        "Cooperator": registry.get("Cooperator"),
        "EvolvedFSM6": fsm_entry(e6),
    }
    for name, opponent in opponents.items():
        record = play_match(
            fsm_entry(e6), opponent, MatchConfig(turns=turns, noise=0.0, seed=0)
        )
        assert record.payoff_a == 3.0 * turns, f"vs {name}"
        assert record.payoff_b == 3.0 * turns, f"vs {name}"


def test_criterion_04_defect_streak_against_defector_with_quarter_comebacks():
    e6 = builtin_fsm("EvolvedFSM6")
    record = play_match(
        fsm_entry(e6),
        default_registry().get("Defector"),
        MatchConfig(turns=21, noise=0.0, seed=0),
    )
    emitted = record.actions_a
    assert emitted == "CDDDD" * 4 + "C"
    report = cooperation_rates({("EvolvedFSM6", "Defector", 0): record}, "EvolvedFSM6")
    assert report.contexts["DD"].rate == 0.25
    assert report.contexts["CD"].rate == 0.0


def test_criterion_05_lineage_preserves_12_of_20_table_entries():
    # The hand-built machines were designed one move per context, so an
    # entry of SecondPrac survives into FourthPrac when it keeps its
    # emitted move; a changed target alone does not undo that.
    d = compare_transitions(builtin_fsm("SecondPrac"), builtin_fsm("FourthPrac"))
    assert d.total == 20
    agreeing = sorted(
        f"{s}/{a.name}" for s, a in d.unchanged + d.target_changed
    )
    expected = "1/C 1/D 2/C 2/D 3/C 3/D 6/C 7/D 8/C 8/D 9/C 9/D".split()
    assert agreeing == expected, (
        f"FourthPrac keeps the emitted move of these {len(agreeing)} of "
        f"SecondPrac's 20 transition entries: {', '.join(agreeing)}; "
        f"the recorded 12 are: {', '.join(expected)}"
    )


def test_criterion_06_elitist_best_fitness_never_drops_over_20_generations():
    params = EvolutionParams(generations=20, seed=0)
    elapsed, (_, records) = _timed(lambda: evolve([builtin_fsm("SecondPrac")], params))
    best = [r.best_fitness for r in records]
    assert len(best) == 21
    assert best == sorted(best), f"best-fitness sequence dropped: {best}"
    assert elapsed < 60.0, f"20-generation run took {elapsed:.1f} s"


def test_criterion_07_jump_detection_flags_the_recorded_pair():
    genome = builtin_fsm("EvolvedFSM6")
    log = [
        GenerationRecord(index=i, best_fitness=m, mean_fitness=m, best_genome=genome)
        for i, m in enumerate([2.871814908, 2.885947477])
    ]
    jumps = generation_deltas(log, threshold=0.01)
    assert len(jumps) == 1
    position, delta = jumps[0]
    assert position == 1
    assert abs(delta - 0.014132569) <= 1e-12


def test_criterion_08_tournament_runs_are_byte_identical_and_order_free(tmp_path):
    flags = ["tournament", "--roster", "default", "--turns", "50", "--reps", "3",
             "--noise", "0.02", "--seed", "5"]
    outs = []
    for tag in ("one", "two"):
        ranking = tmp_path / f"ranking-{tag}.csv"
        histories = tmp_path / f"histories-{tag}.txt"
        assert main([*flags, "--out", str(ranking), "--histories", str(histories)]) == 0
        outs.append((ranking.read_bytes(), histories.read_bytes()))
    assert outs[0] == outs[1]

    names = [sid.name for sid in roster_default()]
    base = dict(turns=50, repetitions=3, noise=0.02, master_seed=5)
    forward = run_tournament(TournamentConfig(roster=tuple(names), **base))
    backward = run_tournament(TournamentConfig(roster=tuple(reversed(names)), **base))
    for name in names:
        med_f = statistics.median(forward.scores[name])
        med_b = statistics.median(backward.scores[name])
        assert abs(med_f - med_b) <= 1e-12, name


def test_criterion_09_action_flips_track_the_mutation_rate():
    genome = builtin_fsm("SecondPrac")  # 10 states, 20 table entries
    rng = SplitMix64(derive_seed(0, "acceptance", "mutation"))
    flips = 0
    trials = 10_000
    for _ in range(trials):
        child = mutate_fsm(genome, 0.1, rng)
        flips += sum(
            int(child.transitions[key][1] != genome.transitions[key][1])
            for key in genome.transitions
        )
    fraction = flips / (trials * len(genome.transitions))
    assert abs(fraction - 0.10) <= 0.01, f"flip fraction {fraction:.6f}"


def test_criterion_10_hand_scored_three_player_tournament():
    result = run_tournament(
        TournamentConfig(
            roster=("Cooperator", "Defector", "TitForTat"),
            turns=5,
            repetitions=1,
            noise=0.0,
            master_seed=0,
        )
    )
    assert result.scores["Cooperator"] == [1.5]
    assert result.scores["Defector"] == [3.4]
    assert result.scores["TitForTat"] == [1.9]
