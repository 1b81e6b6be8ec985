"""The three CLI-shaped workloads the benchmark runs.

One invocation of a workload is a fixed list of `ipdlab` command lines.
Every invocation of a run uses the run's seed, so every invocation must
write byte-identical artifacts.  `logical_turns` is the number of match
turns behind the outputs, fixed by the inputs alone: a program that
skips a redundant match still gets credit for its turns.
"""

import os
from dataclasses import dataclass

# The default roster in its canonical order (README, "Built-in strategies").
ROSTER = (
    "Cooperator", "Defector", "TitForTat", "TitForTwoTats", "Grudger",
    "Alternator", "WinStayLoseShift", "Random", "FirstPrac", "SecondPrac",
    "SecondPrac2", "SecondPrac3", "FourthPrac", "EvolvedFSM8", "EvolvedFSM6",
)

TOURNAMENT_TURNS = 200
TOURNAMENT_REPS = 10
NOISE = 0.05
MATCHES = len(ROSTER) * (len(ROSTER) - 1) // 2 * TOURNAMENT_REPS  # 1050

# `evolve` defaults (EvolutionParams) plus the generation count chosen here.
GENERATIONS = 20
POPULATION = 40
EVOLVE_TURNS = 20
EVOLVE_REPS = 10

# Artifacts an invocation leaves in its directory.  RATES is not written
# by the CLI: it is the stdout of every `rates` call without `#` lines.
RANKING = "ranking.csv"
HISTORIES = "histories.txt"
COOP = "coop.csv"
GEN_LOG = "gen.log"
BEST = "best.fsm"
RATES = "rates.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple
    logical_turns: int
    evaluations: int  # genome evaluations before caching; 0 if nothing evolves

    def command_lines(self, seed, directory):
        """The argv lists of one invocation, writing into directory."""
        def path(name):
            return os.path.join(directory, name)

        tournament = ["tournament", "--roster", "default",
                      "--turns", str(TOURNAMENT_TURNS), "--reps", str(TOURNAMENT_REPS),
                      "--seed", str(seed), "--out", path(RANKING),
                      "--histories", path(HISTORIES)]
        if self.name == "tournament":
            return [tournament + ["--noise", "0", "--coop-report", path(COOP)]]
        if self.name == "evolve":
            return [["evolve", "--generations", str(GENERATIONS), "--seed", str(seed),
                     "--log", path(GEN_LOG), "--out", path(BEST)]]
        rates = [["rates", "--in", path(HISTORIES), "--player", name] for name in ROSTER]
        return [tournament + ["--noise", str(NOISE)]] + rates


WORKLOADS = {
    "tournament": Workload(
        "tournament",
        (RANKING, HISTORIES, COOP),
        MATCHES * TOURNAMENT_TURNS,
        0,
    ),
    "evolve": Workload(
        "evolve",
        (GEN_LOG, BEST),
        (GENERATIONS + 1) * POPULATION * len(ROSTER) * EVOLVE_REPS * EVOLVE_TURNS,
        (GENERATIONS + 1) * POPULATION,
    ),
    "noisy_profile": Workload(
        "noisy_profile",
        (RANKING, HISTORIES, RATES),
        MATCHES * TOURNAMENT_TURNS,
        0,
    ),
}
