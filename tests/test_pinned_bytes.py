"""Byte-exact tournament artifacts of a small roster, pinned by sha256.

The roster mixes the coin-flipping Random with three machines, so the
pins cover the stochastic path, the noise stream and the deterministic
kernel path.  Any change to match records, scoring, the history dump or
the cooperation report that moves a single byte fails here.
"""

import hashlib

import pytest

from ipdlab.cli import main

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
