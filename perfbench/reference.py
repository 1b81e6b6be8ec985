"""Independent model of the artifacts the workloads write, for any seed.

It shares no code with ipdlab.  It re-plays every match with its own
SplitMix64 streams and FSM interpreter, written from the contracts the
package documents: seeds from blake2b over the labels joined by 0x1f,
three substreams per match (player A, player B, noise) opened as
mix64(seed + tag * golden), and per turn A's draw, B's draw, then two
noise draws.  From the re-played matches it builds the exact bytes of
the ranking CSV, the history dump, the cooperation report and the
`rates` output.  The evolve run cannot be re-played cheaply, so every
logged best fitness is re-computed from its genome and the best-genome
file is checked against the log.
"""

import hashlib
import os
import statistics

from workloads import (
    BEST, COOP, EVOLVE_REPS, EVOLVE_TURNS, GEN_LOG, GENERATIONS, HISTORIES, NOISE,
    RANKING, RATES, ROSTER, TOURNAMENT_REPS, TOURNAMENT_TURNS,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
CONTEXTS = ("CC", "CD", "DC", "DD")
ACTION = {"C": 0, "D": 1}
# (own, opponent) -> own payoff under (T, R, P, S) = (5, 3, 1, 0)
PAYOFF = {(0, 0): 3, (0, 1): 0, (1, 0): 5, (1, 1): 1}
RANDOM = "Random"  # the only stochastic roster entry: cooperates with p = 0.5

CLASSICS = {
    "Cooperator": "start 1 C;1 C -> 1 C;1 D -> 1 C",
    "Defector": "start 1 D;1 C -> 1 D;1 D -> 1 D",
    "TitForTat": "start 1 C;1 C -> 1 C;1 D -> 1 D",
    "TitForTwoTats": "start 1 C;1 C -> 1 C;1 D -> 2 C;2 C -> 1 C;2 D -> 2 D",
    "Grudger": "start 1 C;1 C -> 1 C;1 D -> 2 D;2 C -> 2 D;2 D -> 2 D",
    "Alternator": "start 1 C;1 C -> 2 D;1 D -> 2 D;2 C -> 1 C;2 D -> 1 C",
    "WinStayLoseShift": "start 1 C;1 C -> 1 C;1 D -> 2 D;2 C -> 2 D;2 D -> 1 C",
}

# The bundled machine files, as the package pins them.
GOLDEN_SHA256 = {
    "FirstPrac": "23e24bc26f60cbaee1cd446f613b4ac56dcf493526a28beee5597bf46cf2acf3",
    "SecondPrac": "37f70116307369d98fb8d01da935e74d8440cdee586aaec7b446acc09d6c308c",
    "SecondPrac2": "6516310220306a5efbc5f26177f6d530d85f9ec1124ed6684344928bc5d86438",
    "SecondPrac3": "6e1c1600e83d56aafd1e87d4f252c01810ea574b9d035a774a03deefff3118fd",
    "FourthPrac": "e32b588174816d7e45114cc341b753e2f082e5ee86dc90024b40349efa10b4d7",
    "EvolvedFSM8": "3e5cf0a39f89ebf0d6886a15ed5ec4876307b2eb9b0b3db9546169113007bc21",
    "EvolvedFSM6": "8efe56ff7cb424f3b8048a466b305ea1d4a275639981909725baa200d7818afb",
}


class Mismatch(Exception):
    """An artifact differs from what the model predicts."""


# ── random streams ───────────────────────────────────────────────────


def mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts):
    data = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class Stream:
    def __init__(self, seed, tag):
        self.state = mix64((seed + tag * GOLDEN) & MASK64)

    def next_double(self):
        self.state = (self.state + GOLDEN) & MASK64
        return (mix64(self.state) >> 11) * 2.0 ** -53


# ── machines and matches ─────────────────────────────────────────────


def parse_machine(statements):
    """'start s A;s X -> t A;...' -> (start, first action, {(s, x): (t, a)})."""
    start, table = None, {}
    for statement in statements:
        tokens = statement.split("#", 1)[0].split()
        if not tokens or tokens[0] == "fsm":
            continue
        if tokens[0] == "start":
            start = (int(tokens[1]), ACTION[tokens[2]])
        else:
            table[(int(tokens[0]), ACTION[tokens[1]])] = (int(tokens[3]), ACTION[tokens[4]])
    return start[0], start[1], table


def load_roster(src_dir):
    """Name -> machine for the default roster; Random maps to RANDOM."""
    machines = {name: parse_machine(text.split(";")) for name, text in CLASSICS.items()}
    machines[RANDOM] = RANDOM
    for name, expected in GOLDEN_SHA256.items():
        with open(os.path.join(src_dir, "ipdlab", "data", f"{name}.fsm"), "rb") as fh:
            raw = fh.read()
        if hashlib.sha256(raw).hexdigest() != expected:
            raise Mismatch(f"bundled machine {name} does not match its pinned sha256")
        machines[name] = parse_machine(raw.decode("utf-8").splitlines())
    return machines


def _move(machine, stream, state, opp_prev, turn):
    if machine == RANDOM:
        return state, 0 if stream.next_double() < 0.5 else 1
    if turn == 0:
        return machine[0], machine[1]
    return machine[2][(state, opp_prev)]


def play(machine_a, machine_b, turns, noise, seed):
    """Recorded actions (lists of 0/1) of one match."""
    stream_a, stream_b, stream_n = Stream(seed, 1), Stream(seed, 2), Stream(seed, 3)
    state_a = state_b = None
    acts_a, acts_b = [], []
    prev_a = prev_b = None
    for turn in range(turns):
        state_a, a = _move(machine_a, stream_a, state_a, prev_b, turn)
        state_b, b = _move(machine_b, stream_b, state_b, prev_a, turn)
        if noise > 0.0:
            if stream_n.next_double() < noise:
                a ^= 1
            if stream_n.next_double() < noise:
                b ^= 1
        acts_a.append(a)
        acts_b.append(b)
        prev_a, prev_b = a, b
    return acts_a, acts_b


def _letters(actions):
    return "".join("CD"[a] for a in actions)


# ── tournament artifacts ─────────────────────────────────────────────


def tournament_histories(machines, noise, seed):
    """(a, b, rep) -> (actions a, actions b) in the dump's canonical order."""
    pairs = sorted(tuple(sorted((x, y))) for i, x in enumerate(ROSTER) for y in ROSTER[i + 1:])
    histories = {}
    for a, b in pairs:
        for rep in range(TOURNAMENT_REPS):
            match_seed = derive_seed(seed, "match", a, b, rep)
            histories[(a, b, rep)] = play(machines[a], machines[b], TOURNAMENT_TURNS,
                                          noise, match_seed)
    return histories


def _payoffs(acts_a, acts_b):
    return (sum(PAYOFF[(a, b)] for a, b in zip(acts_a, acts_b)),
            sum(PAYOFF[(b, a)] for a, b in zip(acts_a, acts_b)))


def ranking_csv(histories):
    totals = {rep: dict.fromkeys(ROSTER, 0) for rep in range(TOURNAMENT_REPS)}
    for (a, b, rep), (acts_a, acts_b) in histories.items():
        pay_a, pay_b = _payoffs(acts_a, acts_b)
        totals[rep][a] += pay_a
        totals[rep][b] += pay_b
    scores = {name: [] for name in ROSTER}
    for rep in range(TOURNAMENT_REPS):
        for name in ROSTER:
            scores[name].append(totals[rep][name] / (TOURNAMENT_TURNS * (len(ROSTER) - 1)))
    medians = {name: statistics.median(scores[name]) for name in ROSTER}
    ordered = sorted(ROSTER, key=lambda n: (-medians[n], ROSTER.index(n)))
    lines = ["Rank,Name,Median Score"]
    lines += [f"{i},{name},{medians[name]:.9f}" for i, name in enumerate(ordered, 1)]
    return "\n".join(lines) + "\n"


def history_dump(histories):
    lines = []
    for (a, b, rep), (acts_a, acts_b) in histories.items():
        pay_a, pay_b = _payoffs(acts_a, acts_b)
        lines.append(f"{a}|{b}|{rep}|{_letters(acts_a)}|{_letters(acts_b)}|{pay_a}|{pay_b}")
    return "\n".join(lines) + "\n"


def context_tallies(histories, player):
    """Context label -> [count, cooperations] over every match of player."""
    tallies = {label: [0, 0] for label in CONTEXTS}
    for (a, b, _), (acts_a, acts_b) in histories.items():
        views = ([(acts_a, acts_b)] if a == player else []) + \
                ([(acts_b, acts_a)] if b == player else [])
        for own, opp in views:
            for k in range(1, len(own)):
                tally = tallies["CD"[own[k - 1]] + "CD"[opp[k - 1]]]
                tally[0] += 1
                tally[1] += own[k] == 0
    return tallies


def coop_report(histories):
    lines = ["Name,Context,Count,Rate"]
    for name in ROSTER:
        for label, (count, coops) in context_tallies(histories, name).items():
            if count:
                lines.append(f"{name},{label},{count},{coops / count:.9f}")
    return "\n".join(lines) + "\n"


def rates_output(histories):
    lines = []
    for name in ROSTER:
        lines.append("context count rate")
        for label, (count, coops) in context_tallies(histories, name).items():
            lines.append(f"{label:>7s} {count:5d} {coops / count:.9f}" if count
                         else f"{label:>7s} absent")
    return "\n".join(lines) + "\n"


# ── evolve artifacts ─────────────────────────────────────────────────


def fitness(statements, machines, seed):
    """Fitness of one genome given as its canonical serialization."""
    body = "\n".join(["fsm _"] + statements[1:]) + "\n"
    root = derive_seed(seed, "fitness", hashlib.sha256(body.encode("utf-8")).hexdigest())
    genome = parse_machine(statements)
    totals = [0] * EVOLVE_REPS
    for idx, name in enumerate(ROSTER):
        for rep in range(EVOLVE_REPS):
            acts_a, acts_b = play(genome, machines[name], EVOLVE_TURNS, 0.0,
                                  derive_seed(root, "opp", idx, rep))
            totals[rep] += _payoffs(acts_a, acts_b)[0]
    return statistics.fmean(t / (EVOLVE_TURNS * len(ROSTER)) for t in totals)


def check_evolve(log_text, best_text, machines, seed):
    lines = log_text.splitlines()
    if len(lines) != GENERATIONS + 1 or not log_text.endswith("\n"):
        raise Mismatch(f"{GEN_LOG}: expected {GENERATIONS + 1} complete lines")
    best_ever = None
    previous = None
    for index, line in enumerate(lines):
        gen, best, mean, genome = line.split(",", 3)
        statements = genome.split(";")
        if int(gen) != index:
            raise Mismatch(f"{GEN_LOG}: line {index + 1} numbers generation {gen}")
        expected = f"{fitness(statements, machines, seed):.9f}"
        if best != expected:
            raise Mismatch(f"{GEN_LOG}: generation {index} logs best {best}, "
                           f"its genome scores {expected}")
        if float(mean) > float(best) or (previous is not None and float(best) < previous):
            raise Mismatch(f"{GEN_LOG}: generation {index} breaks elitism")
        if best_ever is None or float(best) > best_ever[0]:
            best_ever = (float(best), "\n".join(statements) + "\n")
        previous = float(best)
    if best_text != best_ever[1]:
        raise Mismatch(f"{BEST}: is not the first best-scoring genome of the log")


def check(workload, texts, src_dir, seed):
    """Raise Mismatch unless texts (artifact name -> str) are what seed must give."""
    machines = load_roster(src_dir)
    if workload == "evolve":
        check_evolve(texts[GEN_LOG], texts[BEST], machines, seed)
        return
    noise = NOISE if workload == "noisy_profile" else 0.0
    histories = tournament_histories(machines, noise, seed)
    expected = {RANKING: ranking_csv(histories), HISTORIES: history_dump(histories)}
    if workload == "tournament":
        expected[COOP] = coop_report(histories)
    else:
        expected[RATES] = rates_output(histories)
    for name, text in expected.items():
        if texts[name] != text:
            raise Mismatch(f"{name} differs from the model's bytes")
