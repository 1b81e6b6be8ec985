"""Byte-exact tournament, profile and evolve artifacts, pinned by sha256.

The small roster mixes the coin-flipping Random with three machines, so
the pins cover the stochastic path, the noise stream and the
deterministic kernel path; the default roster's noisy profile pins the
`rates` output of all fifteen players, and the `trace` pins cover every
ordered pair of that roster.  Any change to match records,
scoring, the history dump, the cooperation report, fitness or the
generation log that moves a single byte fails here.
"""

import hashlib
from dataclasses import replace

import pytest

from ipdlab.cli import main
from ipdlab.fsm import serialize_fsm
from ipdlab.strategies import builtin_fsm, roster_default

ROSTER = "Random,TitForTat,EvolvedFSM8,Alternator"

PINNED = {
    "0": {
        "ranking.csv": "cdadea8b94630aad38f7fd9b61fe7cee454f230d183e8755cb45bb20bac24591",
        "histories.txt": "ee8e77ca6411b7ba4b08ca1142f82a79be848c84b7c678355406a07c04f8ac8d",
        "coop.csv": "d0798c804a9a7de523fdc579338251206b7c55331d16c951bcbaf12802361d9d",
    },
    "0.05": {
        "ranking.csv": "34343e4f444d701a5225d05725edef1eeeed4d2487d618f5cb7002969d8bfdb4",
        "histories.txt": "53ba57d57a197b82b5b8baf028b67f518fe34c0b3853608f4d93e9f45b8fb027",
        "coop.csv": "1a01c016c88c258f500560afff2e632f0a19d17a54dc7018a42e169444e5fa16",
    },
}

RATES_EVOLVEDFSM8_NOISE_005 = """\
context count rate
     CC    17 0.823529412
     CD    26 0.384615385
     DC    18 0.611111111
     DD    23 0.173913043
"""


def _tournament(tmp_path, noise):
    paths = {name: tmp_path / name for name in PINNED[noise]}
    assert main([
        "tournament", "--roster", ROSTER, "--turns", "15", "--reps", "2",
        "--noise", noise, "--seed", "0",
        "--out", str(paths["ranking.csv"]),
        "--histories", str(paths["histories.txt"]),
        "--coop-report", str(paths["coop.csv"]),
    ]) == 0
    return paths


@pytest.mark.parametrize("noise", sorted(PINNED))
def test_tournament_artifacts_are_pinned(tmp_path, capsys, noise):
    paths = _tournament(tmp_path, noise)
    capsys.readouterr()
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == PINNED[noise]


def test_rates_output_is_pinned(tmp_path, capsys):
    paths = _tournament(tmp_path, "0.05")
    capsys.readouterr()
    assert main(["rates", "--in", str(paths["histories.txt"]), "--player", "EvolvedFSM8"]) == 0
    out = capsys.readouterr().out
    assert "# matches = 6\n" in out
    assert out.split("# matches = 6\n", 1)[1] == RATES_EVOLVEDFSM8_NOISE_005


EVOLVE_PINNED = {
    "0": {
        "gen.log": "166b4e1d02336b7c9327982f3dac89f621bf92345f7d6bdffff5841b807716a5",
        "best.fsm": "df5785ad6b8218ad810e1c3aeed5ace3dbc5b1d0f1a69b46507bcfcdcd6dbb28",
    },
    "0.05": {
        "gen.log": "0298474fab140cb67805531da06b862f74640a70b9b33e62f56ee6579a7446c1",
        "best.fsm": "7987b3dd8564ea510cf1c76e91aaf56f4777694bdc62c1917e3fee130dd54294",
    },
}


@pytest.mark.parametrize("noise", sorted(EVOLVE_PINNED))
def test_evolve_artifacts_are_pinned(tmp_path, capsys, noise):
    paths = {name: tmp_path / name for name in EVOLVE_PINNED[noise]}
    assert main([
        "evolve", "--generations", "5", "--population-size", "12", "--bottleneck", "3",
        "--num-states", "4", "--turns", "15", "--repetitions", "3", "--roster", ROSTER,
        "--noise", noise, "--seed", "0",
        "--log", str(paths["gen.log"]), "--out", str(paths["best.fsm"]),
    ]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == EVOLVE_PINNED[noise]


# The same run at higher mutation rates.  At rate 1 every retarget fires,
# so the children's draws are spread as far apart as they can be.
RATE_EVOLVE_PINNED = {
    ("0.5", "0"): {
        "gen.log": "78172f9ab898471dfba03d1d38e82a12db412f6b878b399cce4ca6282a3445a8",
        "best.fsm": "c89bfff2da90299710b01a4fd7c23caa9c3c4177a842856271ce2e281a0f9782",
    },
    ("0.5", "0.05"): {
        "gen.log": "f65f35c0a2566dbf0216a355b5e20c536862cbd6a7cc1caed1cd1aacac6d8f66",
        "best.fsm": "edfae465dea21c33b427b71046d2d5afe49afd6a3644b8f0b823929b6ecf22bf",
    },
    ("1", "0"): {
        "gen.log": "27177a1cb9b0ec5fea387f5eec4348dc20ba9d008cec3dca4ee129b908e75e4e",
        "best.fsm": "3aaf11912e7dc434e3a2e6c32ceb8b774ca0d8b6ddb80be91feafa202111de24",
    },
    ("1", "0.05"): {
        "gen.log": "19d3ad4dc01c867cc04fc97492bfbe0e9cbfbc968683805d48c4fd8f9904945e",
        "best.fsm": "7b2c33ecc783b7066e3cda899a3dc643c3a1a80351fd83b359211f6231a294cc",
    },
}


@pytest.mark.parametrize("rate, noise", sorted(RATE_EVOLVE_PINNED))
def test_evolve_artifacts_at_high_mutation_rates_are_pinned(tmp_path, capsys, rate, noise):
    paths = {name: tmp_path / name for name in RATE_EVOLVE_PINNED[rate, noise]}
    assert main([
        "evolve", "--generations", "5", "--population-size", "12", "--bottleneck", "3",
        "--num-states", "4", "--turns", "15", "--repetitions", "3", "--roster", ROSTER,
        "--noise", noise, "--seed", "0", "--mutation-rate", rate,
        "--log", str(paths["gen.log"]), "--out", str(paths["best.fsm"]),
    ]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == RATE_EVOLVE_PINNED[rate, noise]


# EvolvedFSM6 as a seed genome: its state ids 3..8 are sparse, and
# --num-states 8 pads it with states 9 and 10, so the seed and its
# descendants carry ids that are not 1..n.
SEEDED_EVOLVE_PINNED = {
    "0": {
        "gen.log": "3c1e4ea04a811682553906809471e9f91baa8071ac9440f116d84e8686be94e6",
        "best.fsm": "378d98df33b46f4ed9b2b76f8c605fd27e005e39e22d223095c8c5f2b9304468",
    },
    "0.05": {
        "gen.log": "9ac41739c3ba7ea99fc58f7a87f92a40f59347c1f88266d3cc0467f0629ebc66",
        "best.fsm": "808bb43b8aaef7a053487779cab32f9efc7f9129fd211f8e25c1d2238ef000c4",
    },
}


@pytest.mark.parametrize("noise", sorted(SEEDED_EVOLVE_PINNED))
def test_seeded_evolve_artifacts_are_pinned(tmp_path, capsys, noise):
    seed = tmp_path / "EvolvedFSM6.fsm"
    seed.write_text(serialize_fsm(builtin_fsm("EvolvedFSM6")), encoding="utf-8")
    paths = {name: tmp_path / name for name in SEEDED_EVOLVE_PINNED[noise]}
    assert main([
        "evolve", "--generations", "5", "--population-size", "12", "--bottleneck", "3",
        "--num-states", "8", "--turns", "15", "--repetitions", "3", "--roster", ROSTER,
        "--noise", noise, "--seed", "0", "--seed-fsm", str(seed),
        "--log", str(paths["gen.log"]), "--out", str(paths["best.fsm"]),
    ]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == SEEDED_EVOLVE_PINNED[noise]


# The default roster at 200 turns x 10 reps and noise 0.05, then `rates`
# for every player: the ranking CSV, the history dump and the rates stdout
# without its `#` lines, in roster order.
NOISY_PROFILE_PINNED = {
    "ranking.csv": "388d0707e6d45400ae679d4c57d88e7eb0eb7a93ec68c29f288ad3e098c459de",
    "histories.txt": "99bf2e7a920002e0f241fb0e300674bc30e7fe2261b1d0900dbd736eefd19c40",
    "rates.txt": "343860a89fd54eed33e28fff8224dfe422de17f21b1f5d9e913f2b3e1dcb926a",
}


def test_default_roster_noisy_profile_is_pinned(tmp_path, capsys):
    ranking, histories = tmp_path / "ranking.csv", tmp_path / "histories.txt"
    assert main([
        "tournament", "--roster", "default", "--turns", "200", "--reps", "10",
        "--noise", "0.05", "--seed", "0", "--out", str(ranking), "--histories", str(histories),
    ]) == 0
    capsys.readouterr()
    rates = []
    for sid in roster_default():
        assert main(["rates", "--in", str(histories), "--player", sid.name]) == 0
        rates.extend(line for line in capsys.readouterr().out.splitlines(keepends=True)
                     if not line.startswith("#"))
    digests = {
        "ranking.csv": hashlib.sha256(ranking.read_bytes()).hexdigest(),
        "histories.txt": hashlib.sha256(histories.read_bytes()).hexdigest(),
        "rates.txt": hashlib.sha256("".join(rates).encode()).hexdigest(),
    }
    assert digests == NOISY_PROFILE_PINNED


# `ipdlab trace --turns 30` stdout, header lines included, for every ordered
# pair of the default roster, self-pairs too, then for a machine read from a
# file in each seat against every roster entry: one digest per seed.
TRACE_PINNED = {
    "0": "4de3bf6b581f8d7199891dbad6196f02aec87fcef72905a303479ad241fe8a5a",
    "9001": "34f061d1959b0bf47d17be5217319bd862da29b50ee2bb29da43a6bafa402d8e",
}


@pytest.mark.parametrize("seed", sorted(TRACE_PINNED))
def test_trace_output_is_pinned(tmp_path, capsys, seed):
    path = tmp_path / "FileFSM8.fsm"
    path.write_text(serialize_fsm(replace(builtin_fsm("EvolvedFSM8"), name="FileFSM8")),
                    encoding="utf-8")
    names = [sid.name for sid in roster_default()]
    pairs = [(a, b) for a in names for b in names]
    pairs += [(f"@{path}", name) for name in names] + [(name, f"@{path}") for name in names]
    digest = hashlib.sha256()
    for a, b in pairs:
        assert main(["trace", "--a", a, "--b", b, "--turns", "30", "--seed", seed]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == TRACE_PINNED[seed]


# The small roster at 40 turns (over one block of draws) with self-matches:
# a self-match puts one Program object on both seats of a row, and
# Random vs Random puts a coin on both seats.
SELF_MATCH_PINNED = {
    "0": {
        "ranking.csv": "cca0689b99844e3074d266d570066078ad881935848dcbaf9999f20f14403f11",
        "histories.txt": "ee332db171bf76557f89fc094e79ad9495be019e88a026a79c5557395b731c8a",
        "coop.csv": "be795513bcb6cfdb7f934270b549e7cdcfb21ccfa27294df87e2b7645ec48b43",
    },
    "0.05": {
        "ranking.csv": "f9144a6d29b60d1b525b4cc0f848273c1600c8044719c50d5899ac9a0cbd1c37",
        "histories.txt": "f700c94a8d58c593c3fe286580e7d79de7441364521021f78886f437d925385c",
        "coop.csv": "08ca537028e68c52b8461a10ad5cabdbeefbd510cb60daa9c26e48066af7a9fb",
    },
}


@pytest.mark.parametrize("noise", sorted(SELF_MATCH_PINNED))
def test_self_match_tournament_artifacts_are_pinned(tmp_path, capsys, noise):
    paths = {name: tmp_path / name for name in SELF_MATCH_PINNED[noise]}
    assert main([
        "tournament", "--roster", ROSTER, "--self-matches", "--turns", "40", "--reps", "2",
        "--noise", noise, "--seed", "0",
        "--out", str(paths["ranking.csv"]),
        "--histories", str(paths["histories.txt"]),
        "--coop-report", str(paths["coop.csv"]),
    ]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == SELF_MATCH_PINNED[noise]
