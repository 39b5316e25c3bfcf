"""Acceptance battery: every exit criterion at its stated tolerance.

Each criterion runs as one test and prints a single ``[ACCEPTANCE] Cn ...
PASS/FAIL`` line (visible with ``pytest -s``).  All randomness flows from
fixed master seeds, so the battery is deterministic; thresholds are the 1%
asymptotic KS critical value ``1.63/sqrt(N)`` for exact targets, 3 binomial
standard errors for proportions, ``p > 0.001`` for chi-square tests, and
the absolute bounds stated on the perturbed-tail criteria.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special as ss

from ppratios import limit_laws as ll
from ppratios import samplers as sp
from ppratios import tail_models as tm
from ppratios import verify as vf

SEED = 20_251_001
KS1 = vf.KS_COEFF_1PCT

_T0 = time.monotonic()


def _report(criterion: str, passed: bool, detail: str):
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})",
          flush=True)
    assert passed, f"{criterion}: {detail}"


# -- 1. exact-law suite -------------------------------------------------------


def test_c1_exact_law_suite():
    trials = 100_000
    crit = KS1 / math.sqrt(trials)
    worst = 0.0
    cell = 0
    for alpha in (0.5, 1.0, 2.0):
        for r in (1, 2):
            for n in (1, 2, 3):
                for t in (1.0, 1e-6):
                    w = sp.pivot_ratio_batch(
                        tm.pareto(alpha), t, r, n, trials, SEED + cell)
                    emp = vf.EmpiricalDistribution.from_samples(w)
                    ks = vf.ks_distance(
                        emp, lambda x, r=r, n=n, a=alpha: ss.betainc(
                            r, n, np.clip(x, 0, 1) ** a))
                    worst = max(worst, ks)
                    cell += 1
    _report("C1 exact-law suite (36 cells, N=1e5)", worst < crit,
            f"worst KS {worst:.5f} < {crit:.5f}")


# -- 2. negative binomial process suite ---------------------------------------


def test_c2_negbin_process_suite():
    trials = 1_000_000
    worst_void_sigmas = 0.0
    worst_p = 1.0
    cell = 0
    for n in (1, 2, 3):
        for alpha in (1.0, 2.0):
            for a in (0.3, 0.5):
                for method in sorted(sp.NB_METHODS):
                    counts, _ = sp.negbin_batch(
                        n, alpha, a, method, trials, SEED + 100 + cell)
                    void_expected = a ** (n * alpha)
                    void_emp = float(np.mean(counts == 0))
                    se = math.sqrt(void_expected * (1 - void_expected) / trials)
                    worst_void_sigmas = max(
                        worst_void_sigmas, abs(void_emp - void_expected) / se)
                    kmax = int(counts.max())
                    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
                    expected = trials * ll.nb_count_pmf(n, alpha, a, kmax)
                    _, p, _ = vf.chi_square_counts(observed, expected)
                    worst_p = min(worst_p, p)
                    cell += 1
    ok = worst_void_sigmas < 3.0 and worst_p > 1e-3
    _report("C2 negative binomial suite (12 cells x 2 methods, N=1e6)", ok,
            f"worst void deviation {worst_void_sigmas:.2f} sigma, "
            f"worst count-pmf p {worst_p:.4f}")


# -- 3. Laplace-functional agreement ------------------------------------------


def test_c3_laplace_functional_agreement():
    trials = 1_000_000
    worst_rel = 0.0
    cases = [
        (1, 1.0, ll.LaplaceProbe(1.0, 0.5, 1.0)),
        (2, 1.0, ll.LaplaceProbe(1.0, 0.5, 1.0)),
        (3, 2.0, ll.LaplaceProbe(2.0, 0.6, 0.9)),
    ]
    for i, (n, alpha, probe) in enumerate(cases):
        _, sums = sp.negbin_batch(
            n, alpha, probe.a, "limit_ratios", trials, SEED + 200 + i, probe=probe)
        emp = float(np.mean(np.exp(-sums)))
        expected = ll.nb_laplace(n, alpha, probe)
        worst_rel = max(worst_rel, abs(emp - expected) / expected)
    # factorization identity: below-1 probes make the above-1 factors exactly 1
    exact = all(
        ll.limit_laplace_full(0, n, alpha, probe) == ll.nb_laplace(n, alpha, probe)
        for n in (1, 2, 3)
        for alpha in (0.5, 1.0, 2.0)
        for probe in (ll.LaplaceProbe(1.3, 0.2, 0.9),
                      ll.LaplaceProbe(0.7, 0.1, 0.8, ll.LINEAR_RAMP))
    )
    ok = worst_rel < 5e-3 and exact
    _report("C3 Laplace functional (3 cells, N=1e6; factorization identity)", ok,
            f"worst rel err {worst_rel:.5f} < 0.005, factorization exact: {exact}")


# -- 4. convergence suite (perturbed tail) -------------------------------------


def test_c4_perturbed_convergence():
    trials = 100_000
    model = tm.pareto_perturbed(1.0, 1.0, 1.0)
    t_grid = [10.0**-k for k in range(1, 7)]
    report = vf.convergence_sweep(model, 1, 1, t_grid, trials, vf.WLAW,
                                  seed=SEED + 300)
    ks = [rec["ks"] for rec in report.statistics]
    noise = KS1 / math.sqrt(trials)
    monotone = all(b <= a + noise for a, b in zip(ks, ks[1:]))
    ok = monotone and ks[-1] < 0.01 and report.passed
    _report("C4 perturbed-tail convergence (t = 1e-1..1e-6, N=1e5)", ok,
            f"KS path {[round(v, 4) for v in ks]}, final < 0.01, "
            f"monotone within noise: {monotone}")


# -- 5. identity suite ----------------------------------------------------------


def test_c5_identity_suite():
    # (i) three independent evaluations of the pivot-ratio law agree pointwise
    w = np.linspace(0.01, 0.99, 99)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for r in (1, 2):
            for n in (1, 2, 3):
                via_beta = ll.w_law(r, n, alpha, w)[1]
                via_binom = ll.k_orderstat_cdf(r, n, alpha, w)
                via_lib = ss.betainc(r, n, w**alpha)
                worst = max(worst,
                            float(np.max(np.abs(via_beta - via_binom))),
                            float(np.max(np.abs(via_beta - via_lib))))
    pointwise_ok = worst < 1e-10
    # (ii) Monte Carlo identities at N=1e5: product, trimmed sum, conditional
    mc = vf.identity_checks(1.0, 1, 2, 100_000, seed=SEED + 400)
    mc2 = vf.identity_checks(2.0, 2, 3, 100_000, seed=SEED + 401)
    ok = pointwise_ok and mc.passed and mc2.passed
    _report("C5 identity suite (18-cell lattice pointwise; MC at N=1e5)", ok,
            f"max pointwise gap {worst:.2e} < 1e-10, MC identities pass: "
            f"{mc.passed and mc2.passed}")


# -- 6. successive-ratio independence -------------------------------------------


def test_c6_successive_ratio_independence():
    trials = 1_000_000
    worst_ks_margin = 0.0
    worst_p = 1.0
    crit = KS1 / math.sqrt(trials)
    for i, alpha in enumerate((0.5, 1.0, 2.0)):
        ratios = np.exp(sp.log_successive_ratio_batch(
            tm.pareto(alpha), 1.0, 1, 4, trials, SEED + 500 + i))
        pit = ratios ** (np.arange(1, 5) * alpha)[None, :]
        for k in range(4):
            emp = vf.EmpiricalDistribution.from_samples(ratios[:, k])
            ks = vf.ks_distance(
                emp, lambda y, k=k, a=alpha: np.clip(y, 0, 1) ** ((k + 1) * a))
            worst_ks_margin = max(worst_ks_margin, ks)
        for k in range(3):
            _, p, _ = vf.chi_square_independence(pit[:, k], pit[:, k + 1])
            worst_p = min(worst_p, p)
    ok = worst_ks_margin < crit and worst_p > 1e-3
    _report("C6 successive-ratio independence (k<=4, N=1e6)", ok,
            f"worst marginal KS {worst_ks_margin:.5f} < {crit:.5f}, "
            f"worst pairwise p {worst_p:.4f} > 0.001")


# -- 7. estimator and classifier -------------------------------------------------


def test_c7_estimator_consistency():
    trials = 1_000_000
    worst_sigmas = 0.0
    cell = 0
    for alpha in (0.5, 1.0, 2.0):
        for r in (1, 2, 3):
            ly = sp.log_trim_ratio_batch(tm.pareto(alpha), 1.0, r, trials,
                                         SEED + 600 + cell)
            alpha_hat, stderr = vf.estimate_alpha(ly, r)
            worst_sigmas = max(worst_sigmas, abs(alpha_hat - alpha) / stderr)
            cell += 1
    _report("C7a estimator (9 Pareto cells, N=1e6)", worst_sigmas < 3.0,
            f"worst deviation {worst_sigmas:.2f} sigma < 3")


def test_c7_classifier_trichotomy():
    cases = [
        (tm.pareto(0.5), vf.REGULARLY_VARYING),
        (tm.pareto(1.0), vf.REGULARLY_VARYING),
        (tm.pareto(2.0), vf.REGULARLY_VARYING),
        (tm.rapid_zero(), vf.RAPIDLY_VARYING),
        (tm.slow_zero(), vf.SLOWLY_VARYING),
    ]
    summary = []
    ok = True
    for model, expected in cases:
        correct = 0
        for run in range(100):
            try:
                verdict = vf.classify_tail(
                    model, 1e-4, 1, 10_000, seed=SEED + 700 + run).verdict
            except vf.ClassificationError:
                verdict = None
            correct += int(verdict == expected)
        summary.append(f"{model.kind}:{correct}/100")
        ok = ok and correct >= 99
    _report("C7b classifier trichotomy (100 seeded runs per model, t=1e-4)",
            ok, ", ".join(summary))


# -- 8. conditional-law proxies ---------------------------------------------------


def test_c8_conditional_law_proxies():
    trials = 1_000_000
    details = []
    ok = True
    for i, (r, n) in enumerate(((1, 1), (2, 2))):
        z_rep = vf.z_insensitivity_check(
            tm.pareto(1.0), 1e-3, r, n, trials, seed=SEED + 800 + i)
        c_rep = vf.conditional_gamma_check(
            tm.pareto(1.0), 1e-3, r, n, 0.5, 0.05, trials, seed=SEED + 810 + i)
        ok = ok and z_rep.passed and c_rep.passed
        details.append(
            f"(r={r},n={n}) z-spread {z_rep.details['ks_spread']:.5f}"
            f"<{z_rep.threshold:.5f}, cdu KS {c_rep.statistics[0]['ks']:.5f}"
            f"<{c_rep.threshold:.5f}")
    _report("C8 conditional-law proxies (N=1e6)", ok, "; ".join(details))


# -- 9. determinism and runtime ----------------------------------------------------


def test_c9_cli_determinism(tmp_path):
    # numpy's warnings fail the child as they fail this process
    args = [sys.executable, "-W", "error::RuntimeWarning", "-m", "ppratios.cli",
            "verify", "--tail", "pareto", "--alpha", "1", "--r", "1", "--n", "1",
            "--target", "wlaw", "--trials", "100000", "--seed", "7",
            "--out-dir", str(tmp_path)]
    # the child process runs this checkout's package, as the test process does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run(args, check=True, capture_output=True, env=env)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    subprocess.run(args, check=True, capture_output=True, env=env)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    identical = first == second
    report = json.loads(first["report.json"].decode())
    ok = identical and report["pass"]
    _report("C9a CLI determinism (byte-identical reruns)", ok,
            f"files {sorted(first)} identical: {identical}")


def test_c9_runtime_budget():
    elapsed = time.monotonic() - _T0
    _report("C9b acceptance runtime", elapsed < 1800.0,
            f"battery wall time {elapsed:.0f}s < 1800s")
