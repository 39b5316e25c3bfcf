"""Pinned digests of every CLI artifact: the determinism contract end to end.

Each command runs in-process through ``cli.run`` at threads 1, 2 and the
default, over 20 row blocks (``samplers._ROW_BLOCK`` is patched small, so the
runs stay quick).  Its artifacts must be byte-identical across the three
thread counts, and each must match its pin.

Float cells and values went through numpy's ``log``, ``exp`` and ``pow``,
which may differ in the last ulp on another CPU, so every float token is
rewritten as its mantissa rounded to 40 bits and its exponent, as the float
pins in ``test_golden.py`` are; so a float's text may change where its
value, to 40 bits, does not.  Every other byte (meta lines, header,
integers, JSON keys) is hashed exactly.  A change that moves an artifact's
bytes must update its pin and say why.
"""

import hashlib
import json
import math
import re

import pytest

from ppratios import cli
from ppratios import samplers as sp

_BLOCK = 1 << 9
_TRIALS = "10100"  # 19 full row blocks and a partial one; verify needs 10^4

_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[+-]?\d+)?|\d+e[+-]?\d+"
                    r"|inf|nan|Infinity|NaN)(?![\w.])")


def _rounded(match):
    value = float(match.group())
    if not math.isfinite(value):
        return match.group()
    mantissa, exponent = math.frexp(value)
    return f"{round(math.ldexp(mantissa, 40))}p{exponent}"


def _digest(raw: bytes) -> str:
    """SHA-256 of the text with every float token rounded to a 40-bit mantissa."""
    return hashlib.sha256(_FLOAT.sub(_rounded, raw.decode()).encode()).hexdigest()


_SEEDED = ["--trials", _TRIALS, "--seed", "7"]

_COMMANDS = {
    "simulate_pareto":
        ["simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.01", "--r", "1",
         "--n", "4", "--epsilon", "0.3", *_SEEDED],
    "simulate_pareto_perturbed":
        ["simulate", "--tail", "pareto_perturbed", "--alpha", "1", "--c", "1",
         "--gamma", "1", "--t", "0.01", "--r", "1", "--n", "3", "--epsilon", "0.3",
         *_SEEDED],
    "laws_w":
        ["laws", "--law", "w", "--alpha", "2", "--r", "1", "--n", "2",
         "--grid", "0.01:0.99:9"],
    "laws_j":
        ["laws", "--law", "j", "--alpha", "1.5", "--u", "0.5", "--grid", "0.5:3:9"],
    "laws_l":
        ["laws", "--law", "l", "--alpha", "1.5", "--grid", "1:9:9"],
    "laws_k_orderstat":
        ["laws", "--law", "k_orderstat", "--alpha", "1", "--r", "1", "--n", "3",
         "--grid", "0.05:0.95:9"],
    "laws_successive":
        ["laws", "--law", "successive", "--alpha", "1", "--r", "2",
         "--grid", "0.05:0.95:9"],
    "laws_ratio_tail":
        ["laws", "--law", "ratio_tail", "--alpha", "1", "--r", "1",
         "--grid", "1.5:9:9"],
    "laws_phi":
        ["laws", "--law", "phi", "--alpha", "1", "--u", "0.5", "--grid", "0.1:10:9"],
    "laws_conditional_gamma":
        ["laws", "--law", "conditional_gamma", "--alpha", "1", "--r", "1", "--n", "2",
         "--w", "0.5", "--grid", "0.1:10:9"],
    "verify_wlaw":
        ["verify", "--target", "wlaw", "--tail", "pareto", "--alpha", "1", "--r", "1",
         "--n", "2", "--t-grid", "1e-1:1e-2:2", *_SEEDED],
    "verify_z_insensitivity":
        ["verify", "--target", "z_insensitivity", "--tail", "pareto_perturbed",
         "--alpha", "1", "--c", "1", "--gamma", "1", "--t", "0.001", "--r", "2",
         "--n", "3", *_SEEDED],
    "verify_nb_functional":
        ["verify", "--target", "nb_functional", "--alpha", "1", "--n", "2",
         "--epsilon", "0.3", "--method", "mixed_poisson", "--probe-form", "linear_ramp",
         *_SEEDED],
    "estimate":
        ["estimate", "--tail", "pareto", "--alpha", "1.5", "--t", "0.01", "--r", "2",
         *_SEEDED],
    "classify":
        ["classify", "--tail", "pareto", "--alpha", "1", "--t", "1e-4", "--r", "1",
         *_SEEDED],
}

# (command, artifact) -> SHA-256 of its text with floats rounded (``_digest``)
_PINNED = {
    ("classify", "classification.json"):
        "45c97ed51d5bda370f6eb0ad2dbc6fa4ac833e4446c1d287d0094d678dcb935b",
    ("estimate", "estimate.json"):
        "6505c699af7f0d64988a013c818e181f625f3aadc457da148da7201b75b3020e",
    ("laws_conditional_gamma", "law_table.csv"):
        "11854cfd161552cf4de57f12bcff6be2738a772e9f912d34e72053a9ec926d2e",
    ("laws_j", "law_table.csv"):
        "ffd0e33d4c9f47b78723c450710836a6d74250a35cc811c801eab1a7623310c9",
    ("laws_k_orderstat", "law_table.csv"):
        "fad3881d3a43ba807aa17fb3b3e61c24ee9be6b71e2bb466626ad3524edc6879",
    ("laws_l", "law_table.csv"):
        "418cf750a7db8640f8a503ca95257b36dab2e8453f81a99cb2c17d9a7a47571d",
    ("laws_phi", "law_table.csv"):
        "f4ae9208adcbdd147e99628df626878ba94d1fdd68c46fc14274db87e14c39fd",
    ("laws_ratio_tail", "law_table.csv"):
        "4f4c33758eae641d8c83d695f9fd2e8b3208e88adf40be5c7610d5183a56176e",
    ("laws_successive", "law_table.csv"):
        "9de0a7a5770444e9de63c1eedb4f3232f009a65710951bf3c08da153fe0f2f86",
    ("laws_w", "law_table.csv"):
        "00c6bae20c72063bd43481dea134950638d4d6714d7e2a4bb39b4569f36ad425",
    ("simulate_pareto", "trials.csv"):
        "24ef5c7c0cbb056e03019b211ef22d42992fd2c0991f9581d33acc8190a576ff",
    ("simulate_pareto_perturbed", "trials.csv"):
        "edff4d89eb4ff0fa7ffa440792845ab1112b4574191b3b5a168da3050b97d81f",
    ("verify_nb_functional", "report.json"):
        "62a439f194d53fa5d21b3e3e10f4997ed5b1c51d04ba6dd7a99f8359122b256e",
    ("verify_nb_functional", "sweep.csv"):
        "ba2c0b9874d97b8820b99244e41c76b1129111a62c1444da35ed04187663aad2",
    ("verify_wlaw", "report.json"):
        "dec3f31969763c4e42f7edb50cbc1b80afcae7e245abff247e91023eaf6ee322",
    ("verify_wlaw", "sweep.csv"):
        "994c2d6ab14b3052c24bd0a642ebbbaeb1c8aab58f712090b7c96ac9209c934b",
    ("verify_z_insensitivity", "report.json"):
        "861f7b1272c12fcd88d55159ab7f8a682a26a9f668be68d1f08ac3378c0ba4e3",
    ("verify_z_insensitivity", "sweep.csv"):
        "f504d967e486b1ccff209dd1a6a1c9066831d3abd054c38cc148f677ef0fa294",
}


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_cli_artifacts_pinned(monkeypatch, tmp_path, name):
    monkeypatch.setattr(sp, "_ROW_BLOCK", _BLOCK)
    argv = _COMMANDS[name]
    pinned = {f: digest for (command, f), digest in _PINNED.items() if command == name}
    runs = {}  # thread flag (None: the default) -> artifact bytes
    # laws samples nothing and takes no --threads
    for threads in ("1", "2", None) if argv[0] != "laws" else (None,):
        out = tmp_path / f"threads-{threads}"
        flag = [] if threads is None else ["--threads", threads]
        assert cli.run(argv + flag + ["--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(pinned)
        runs[threads] = {f: (out / f).read_bytes() for f in pinned}
    first = runs[None]
    for threads, files in runs.items():
        assert files == first, threads
    if "report.json" in first:
        # the thread count changes wall time only, so it is not echoed
        assert b"threads" not in first["report.json"]
        # the CLI's parameters are the one record of the run's inputs
        report = json.loads(first["report.json"])
        assert not {"seed", "t_grid"} & set(report)
        assert not set(report["details"]) & set(report["parameters"])
    assert {f: _digest(raw) for f, raw in first.items()} == pinned
