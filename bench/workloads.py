"""The benchmark's three workloads, each a list of operations with their gates.

An operation calls the program once and checks the result with a gate
copied unchanged from the acceptance battery (``tests/test_acceptance.py``)
or the CLI contract.  It returns whether the gate held, a one-line detail,
and the outputs that get digested.  A failed gate counts as a failed
operation; a check that no correct program can fail (a CLI config or domain
error, a wrong row count) raises :class:`DefectError` instead.

Operation seeds are hashes of a master seed and the operation's name.  A
statistical gate rejects a correct program at its stated level (about 0.4%
per C2 cell, 1% per KS coordinate), so under seeds that change from run to
run a few percent of correct runs would fail.  Gated operations therefore
draw from the fixed master seed ``GATED_SEED``, as the acceptance battery
draws from its fixed seeds, and every gate passes there; the workload seed
drives the draws of the operations that have no statistical gate
(``simulate`` and ``estimate``).  One seed always gives the same inputs.

Why each workload exists (see README.md for the measured baseline):

* ``nb_suite`` -- the C2/C3 negative-binomial path that dominates tier-1:
  ragged ``rng`` row-subset draws and ``samplers``, no tail, no CLI.  Mean
  counts 1 and 30 show chunk sizing; a probe and no probe show dead
  ``mixed_poisson`` placement; N=1e6 spans several row blocks, so threads
  show.
* ``sweep_numeric`` -- convergence sweeps whose time goes to bisection in
  ``tail_models``: one cell per numeric inversion path plus a closed-form
  control; single-threaded, one row block.
* ``cli_session`` -- the five subcommands in-process: the only workload
  that writes artifacts, with dense ``rng`` and ``verify`` at 1e6.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ppratios import cli
from ppratios import limit_laws as ll
from ppratios import samplers as sp
from ppratios import tail_models as tm
from ppratios import verify as vf

T_GRID = [10.0**-k for k in range(1, 7)]

GATED_SEED = 1  # master seed of every operation under a statistical gate


class DefectError(RuntimeError):
    """An output that is wrong whatever the random draws."""


@dataclass
class Outcome:
    ok: bool
    detail: str
    outputs: list  # arrays, strings, or a directory of artifacts


@dataclass
class Op:
    name: str
    rows: int  # Monte Carlo rows sampled
    run: Callable[[], Outcome]


def op_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def digest(outputs: list) -> str:
    h = hashlib.sha256()
    for item in outputs:
        if isinstance(item, Path):
            for path in sorted(item.iterdir()):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        elif isinstance(item, np.ndarray):
            h.update(f"{item.dtype}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(str(item).encode())
    return h.hexdigest()


# -- nb_suite ------------------------------------------------------------------


def _c2_gate(counts: np.ndarray, n: int, alpha: float, eps: float) -> tuple[bool, str]:
    """C2: void probability within 3 sigma and count-law chi-square p > 0.001."""
    trials = counts.size
    void_expected = eps ** (n * alpha)
    se = math.sqrt(void_expected * (1 - void_expected) / trials)
    sigmas = abs(float(np.mean(counts == 0)) - void_expected) / se
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    _, p, _ = vf.chi_square_counts(observed, trials * ll.nb_count_pmf(n, alpha, eps, kmax))
    return sigmas < 3.0 and p > 1e-3, f"void {sigmas:.2f} sigma, count p {p:.4f}"


def nb_suite(threads: int) -> list[Op]:
    trials = 1_000_000
    ops = []
    for n, alpha, eps in ((1, 1.0, 0.5), (3, 2.0, 0.3)):
        for method in (sp.LIMIT_RATIOS, sp.MIXED_POISSON):
            name = f"negbin_n{n}_a{alpha:g}_e{eps:g}_{method}"

            def run(n=n, alpha=alpha, eps=eps, method=method,
                    s=op_seed(GATED_SEED, name)):
                counts, _ = sp.negbin_batch(n, alpha, eps, method, trials, s,
                                            threads=threads)
                ok, detail = _c2_gate(counts, n, alpha, eps)
                return Outcome(ok, detail, [counts])

            ops.append(Op(name, trials, run))

    probe = ll.LaplaceProbe(1.0, 0.5, 1.0)
    for method in (sp.LIMIT_RATIOS, sp.MIXED_POISSON):
        name = f"nb_functional_n2_a1_{method}"

        def run(method=method, s=op_seed(GATED_SEED, name)):
            report = vf.nb_functional_check(2, 1.0, probe, probe.a, trials, method, s,
                                            threads=threads)
            rel_err = report.statistics[0]["rel_err"]
            # C3: relative error of the Laplace functional below 5e-3
            return Outcome(rel_err < 5e-3, f"rel err {rel_err:.5f}", [report.to_json()])

        ops.append(Op(name, trials, run))
    return ops


# -- sweep_numeric -------------------------------------------------------------


def sweep_numeric(threads: int) -> list[Op]:
    trials = 100_000
    noise = vf.KS_COEFF_1PCT / math.sqrt(trials)
    # (name, model, target, n, gate on the final KS)
    cells = (
        # C4 exactly: monotone within noise, final KS < 0.01, report passes
        ("pareto_perturbed_1_1_1_wlaw", tm.pareto_perturbed(1.0, 1.0, 1.0), vf.WLAW, 1, True),
        # the two pareto_log sweeps converge only logarithmically (final KS
        # about 0.038 and 0.0135 at t=1e-6), so only the monotone rule applies
        ("pareto_log_1_1_wlaw", tm.pareto_log(1.0, 1.0), vf.WLAW, 1, False),
        ("pareto_log_2_-0.5_ratio_tail_n1", tm.pareto_log(2.0, -0.5), vf.RATIO_TAIL_N1, 1, False),
        # closed-form control: exact at every t, so the report must pass
        ("pareto_1_successive_ratios_n4", tm.pareto(1.0), vf.SUCCESSIVE_RATIOS, 4, True),
    )
    ops = []
    for name, model, target, n, final_gate in cells:

        def run(model=model, target=target, n=n, final_gate=final_gate,
                s=op_seed(GATED_SEED, name)):
            report = vf.convergence_sweep(model, 1, n, T_GRID, trials, target, s,
                                          threads=threads)
            ks = [rec["ks"] for rec in report.statistics]
            ok = all(b <= a + noise for a, b in zip(ks, ks[1:]))
            if final_gate:
                final_ok = report.passed
                if model.kind == tm.PARETO_PERTURBED:
                    final_ok = final_ok and ks[-1] < 0.01
                ok = ok and final_ok
            return Outcome(ok, "KS path " + " ".join(f"{v:.4f}" for v in ks),
                           [report.to_json()])

        ops.append(Op(name, trials * len(T_GRID), run))
    return ops


# -- cli_session ---------------------------------------------------------------


def _cli_op(name: str, argv: list, out_root: Path, rows: int, check) -> Op:
    def run():
        out = out_root / name
        code = cli.run(argv + ["--out-dir", str(out)])
        if code not in (0, 1):
            raise DefectError(f"{name}: exit {code}")
        if code == 1:  # a verify threshold or the classifier's evidence failed
            return Outcome(False, "exit 1", [out])
        ok, detail = check(out)
        return Outcome(ok, detail, [out])

    return Op(name, rows, run)


def data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if not line.startswith(b"#")) - 1  # header


def _report_passes(out: Path) -> tuple[bool, str]:
    report = json.loads((out / "report.json").read_text())
    final = report["statistics"][-1]["ks"]
    return report["pass"] is True, f"pass {report['pass']}, final KS {final:.5f}"


def cli_session(seed: int, threads: int, out_root: Path) -> list[Op]:
    common = ["--threads", str(threads)]
    sim_trials = 200_000

    def trials_csv(out):
        rows = data_rows(out / "trials.csv")
        if rows != sim_trials:
            raise DefectError(f"trials.csv has {rows} rows, expected {sim_trials}")
        return True, f"{rows} rows"

    def exit_only(out):
        return True, "exit 0"

    def verdict(expected):
        def check(out):
            got = json.loads((out / "classification.json").read_text())["verdict"]
            return got == expected, f"verdict {got}"

        return check

    ops = [
        _cli_op("simulate", ["simulate", "--tail", "pareto", "--alpha", "1", "--t", "0.01",
                             "--r", "1", "--n", "4", "--epsilon", "0.1",
                             "--trials", str(sim_trials),
                             "--seed", str(op_seed(seed, "simulate"))] + common,
                out_root, sim_trials, trials_csv),
        _cli_op("verify_wlaw", ["verify", "--target", "wlaw", "--tail", "pareto",
                                "--alpha", "1", "--r", "2", "--n", "3",
                                "--t-grid", "1e-1:1e-6:6", "--trials", "1000000",
                                "--seed", str(op_seed(GATED_SEED, "verify_wlaw"))] + common,
                out_root, 6_000_000, _report_passes),
        _cli_op("estimate", ["estimate", "--tail", "pareto", "--alpha", "1", "--t", "0.01",
                             "--r", "1", "--trials", "1000000",
                             "--seed", str(op_seed(seed, "estimate"))] + common,
                out_root, 1_000_000, exit_only),
    ]
    # C7b classifier trichotomy at t = 1e-4
    for tail, expected in (("pareto", vf.REGULARLY_VARYING),
                           ("rapid_zero", vf.RAPIDLY_VARYING),
                           ("slow_zero", vf.SLOWLY_VARYING)):
        name = f"classify_{tail}"
        argv = ["classify", "--tail", tail, "--t", "1e-4", "--r", "1",
                "--trials", "100000", "--seed", str(op_seed(GATED_SEED, name))] + common
        if tail == "pareto":
            argv += ["--alpha", "1"]
        ops.append(_cli_op(name, argv, out_root, 100_000, verdict(expected)))
    for law, extra in (("w", ["--r", "1", "--n", "2"]),
                       ("conditional_gamma", ["--r", "1", "--n", "2", "--w", "0.5",
                                              "--grid", "0.1:10:99"]),
                       ("phi", ["--u", "0.5", "--grid", "0.1:10:99"])):
        name = f"laws_{law}"
        ops.append(_cli_op(name, ["laws", "--law", law, "--alpha", "1"] + extra,
                           out_root, 0, exit_only))
    return ops


def build(workload: str, seed: int, threads: int, out_root: Path) -> list[Op]:
    if workload == "nb_suite":
        return nb_suite(threads)
    if workload == "sweep_numeric":
        return sweep_numeric(threads)
    return cli_session(seed, threads, out_root)


WORKLOADS = ("nb_suite", "sweep_numeric", "cli_session")
