import inspect
import json
import math

import numpy as np
import pytest

from ppratios import limit_laws as ll
from ppratios import samplers as sp
from ppratios import tail_models as tm
from ppratios import verify as vf
from ppratios.rng import uniform_grid


# --- pinned gates -----------------------------------------------------------


def test_gate_constants_pinned():
    # the gates are module constants; changing one changes what a pass means
    assert vf.KS_COEFF_1PCT == 1.63
    assert vf.ABS_KS_BOUND == 0.01
    assert vf.P_THRESHOLD == 1e-3
    assert vf.NB_REL_ERR_THRESHOLD == 5e-3
    assert vf.MIN_EXPECTED_COUNT == 5.0
    assert vf.UNIFORMITY_BINS == 20
    assert vf.INDEPENDENCE_GRID == 10
    assert vf.SLOW_COLLAPSE_BOUNDARY == 0.05
    assert vf.IDENTITY_BIN == (0.45, 0.55)
    assert vf.Z_BINS == 4
    assert (vf.CLASSIFY_DELTA, vf.CLASSIFY_ETA) == (0.05, 0.05)
    assert (vf.CLASSIFY_BIG_M, vf.CLASSIFY_KAPPA) == (1e3, 1.5)


def test_gates_are_not_parameters():
    # every defaulted parameter of a check is `threads`, never a gate
    for fn in (vf.chi_square_counts, vf.chi_square_independence, vf.two_sample_threshold,
               vf.convergence_sweep, vf.independence_check, vf.identity_checks,
               vf.nb_functional_check, vf.z_insensitivity_check, vf.classify_tail):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] in ([], ["threads"])


# --- KS machinery -----------------------------------------------------------


def test_ks_single_atom_vs_uniform():
    emp = vf.EmpiricalDistribution.from_samples(np.full(10, 0.5))
    assert vf.ks_distance(emp, lambda x: np.clip(x, 0, 1)) == pytest.approx(0.5)


def test_ks_null_calibration():
    # drawn from the hypothesized law: statistic below the 1% critical value
    u = np.sort(uniform_grid(5150, 0, 1000, 1000).ravel())
    emp = vf.EmpiricalDistribution(u, u.size)
    assert vf.ks_distance(emp, lambda x: np.clip(x, 0, 1)) < 1.63 / math.sqrt(u.size)


def test_ks_analytic_sup_misspecified():
    # Uniform sample against cdf w^2: sup |w - w^2| = 1/4
    u = uniform_grid(62, 0, 500, 1000).ravel()
    emp = vf.EmpiricalDistribution.from_samples(u)
    stat = vf.ks_distance(emp, lambda w: np.clip(w, 0, 1) ** 2)
    assert stat == pytest.approx(0.25, abs=0.01)


def test_ks_requires_min_samples():
    with pytest.raises(ValueError):
        vf.ks_distance(vf.EmpiricalDistribution.from_samples([0.5]), lambda x: x)


def test_two_sample_ks_identical_is_zero():
    x = np.linspace(0, 1, 100)
    assert vf.two_sample_ks(x, x) == 0.0


def test_chi_square_counts_lumps_tail():
    observed = np.array([50, 30, 15, 4, 1], dtype=float)
    expected = np.array([50.0, 30.0, 15.0, 4.0, 1.0])
    stat, p, dof = vf.chi_square_counts(observed, expected)
    assert stat == pytest.approx(0.0)
    assert dof == 3  # last two cells lumped into one
    assert p == pytest.approx(1.0)


def test_chi_square_independence_null():
    u = uniform_grid(4242, 0, 50_000, 2)
    stat, p, g = vf.chi_square_independence(u[:, 0], u[:, 1])
    assert g == 10
    assert p > 0.001


def test_chi_square_independence_coarsens():
    u = uniform_grid(11, 0, 300, 2)
    _, _, g = vf.chi_square_independence(u[:, 0], u[:, 1])
    assert g < 10


# --- convergence sweeps -----------------------------------------------------


def test_sweep_exact_pareto_passes_at_both_ends():
    rep = vf.convergence_sweep(tm.pareto(1.5), 2, 3, [1.0, 1e-6], 20_000, "wlaw", seed=303)
    assert rep.passed
    for rec in rep.statistics:
        assert rec["ks"] <= rep.threshold


def test_sweep_gamma_nc_exact():
    rep = vf.convergence_sweep(tm.pareto(2.0), 1, 1, [1.0], 20_000, "gamma_nc", seed=99)
    assert rep.passed and rep.statistics[0]["ks"] <= 1.63 / math.sqrt(20_000)


def test_sweep_successive_ratios_target():
    rep = vf.convergence_sweep(tm.pareto(1.0), 1, 3, [0.5], 20_000,
                               "successive_ratios", seed=7)
    assert rep.passed
    assert len(rep.statistics[0]["ks_per_coordinate"]) == 3


def test_sweep_perturbed_bias_shrinks():
    rep = vf.convergence_sweep(
        tm.pareto_perturbed(1, 1, 1), 1, 1, [1e-1, 1e-3, 1e-6], 20_000, "wlaw", seed=5)
    ks = [rec["ks"] for rec in rep.statistics]
    assert ks[0] > 0.05  # visible bias at t = 0.1
    assert ks[-1] < 0.02
    assert rep.threshold == 0.01


def test_sweep_null_calibration_across_seeds():
    # exact target: exceedances of the 1% critical value at the nominal rate
    exceed = 0
    for seed in range(100):
        rep = vf.convergence_sweep(tm.pareto(1.0), 1, 1, [1.0], 10_000, "wlaw", seed=seed)
        exceed += int(not rep.passed)
    assert exceed <= 3


def test_sweep_perturbed_median_ks_monotone():
    # median over seeds of the KS sequence is non-increasing (one inversion allowed)
    t_grid = [1e-1, 1e-2, 1e-3, 1e-4]
    ks_by_seed = []
    for seed in range(5):
        rep = vf.convergence_sweep(tm.pareto_perturbed(1, 1, 1), 1, 1, t_grid,
                                   10_000, "wlaw", seed=1000 + seed)
        ks_by_seed.append([rec["ks"] for rec in rep.statistics])
    med = np.median(np.array(ks_by_seed), axis=0)
    inversions = int(np.sum(np.diff(med) > 0))
    assert inversions <= 1


def test_sweep_validation():
    with pytest.raises(ValueError):
        vf.convergence_sweep(tm.pareto(1.0), 1, 1, [1e-3, 1e-2], 20_000, "wlaw", 1)
    with pytest.raises(ValueError):
        vf.convergence_sweep(tm.pareto(1.0), 1, 1, [1.0], 100, "wlaw", 1)
    with pytest.raises(ValueError):
        vf.convergence_sweep(tm.pareto(1.0), 1, 1, [1.0], 20_000, "nonsense", 1)
    with pytest.raises(ValueError):
        vf.convergence_sweep(tm.rapid_zero(), 1, 1, [1.0], 20_000, "wlaw", 1)


# --- independence -----------------------------------------------------------


def test_independence_exact_pareto():
    rep = vf.independence_check(tm.pareto(1.0), 1.0, 1, 2, 100_000, seed=8)
    assert rep.passed and rep.details["min_p_value"] > 1e-3
    # marginals are exactly uniform after the PIT
    assert max(rep.details["marginal_pit_ks"]) < 1.63 / math.sqrt(100_000)


def test_independence_point_mass_verdicts():
    rep = vf.independence_check(tm.rapid_zero(), 1e-4, 1, 2, 10_000, seed=8)
    assert rep.passed and rep.details["verdict"] == "point_mass_at_1"
    rep = vf.independence_check(tm.slow_zero(), 1e-4, 1, 2, 10_000, seed=8)
    assert rep.passed and rep.details["verdict"] == "point_mass_at_0"


def test_independence_requires_n2():
    with pytest.raises(ValueError):
        vf.independence_check(tm.pareto(1.0), 1.0, 1, 1, 20_000, seed=1)


# --- identities -------------------------------------------------------------


def test_identity_checks_pass():
    rep = vf.identity_checks(1.0, 1, 2, 100_000, seed=77)
    names = {rec["name"] for rec in rep.statistics}
    assert names == {"product_of_ratio_limits", "trimmed_sum_random_walk",
                     "conditional_uniform_orderstats"}
    assert rep.passed


def test_identity_checks_n1_skips_sum_and_conditional():
    rep = vf.identity_checks(2.0, 1, 1, 100_000, seed=3)
    names = {rec["name"] for rec in rep.statistics}
    assert names == {"product_of_ratio_limits"}
    assert rep.passed


def test_identity_single_ratio_reciprocal_pareto():
    # n=2, alpha=1, r=0 case of the sum identity reduces to
    # (Gamma_1/Gamma_2)^{-1} being Pareto(1); check via the sum test internals
    rep = vf.identity_checks(1.0, 1, 2, 100_000, seed=21)
    rec = next(r for r in rep.statistics if r["name"] == "trimmed_sum_random_walk")
    assert rec["ks"] < rec["threshold"]


# --- NB functional checks ---------------------------------------------------


def test_nb_functional_zero_probe_exact():
    probe = ll.LaplaceProbe(0.0, 0.5, 1.0)
    rep = vf.nb_functional_check(2, 1.0, probe, 0.5, 50_000, "limit_ratios", seed=5)
    assert rep.statistics[0]["empirical_functional"] == 1.0
    assert rep.statistics[0]["expected_functional"] == 1.0


@pytest.mark.parametrize("method", sorted(sp.NB_METHODS))
def test_nb_functional_check_passes(method):
    probe = ll.LaplaceProbe(1.0, 0.5, 1.0)
    rep = vf.nb_functional_check(2, 1.0, probe, 0.5, 200_000, method, seed=6)
    assert rep.passed
    assert rep.statistics[0]["rel_err"] < 5e-3
    assert rep.statistics[0]["p_value"] > 1e-3
    # void probability within 3 binomial standard errors
    d = rep.details
    assert abs(d["void_empirical"] - d["void_expected"]) < 3 * d["void_se"]


def test_nb_functional_rejects_probe_outside_interval():
    probe = ll.LaplaceProbe(1.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        vf.nb_functional_check(2, 1.0, probe, 0.5, 50_000, "limit_ratios", seed=1)


# --- estimator --------------------------------------------------------------


def test_estimate_alpha_exact_mean_log():
    samples = np.full(1000, math.e)  # log = 1, r = 1 -> alpha = 1
    alpha_hat, stderr = vf.estimate_alpha(samples, 1)
    assert alpha_hat == pytest.approx(1.0)
    assert stderr == pytest.approx(1.0 / math.sqrt(1000))
    samples = np.full(1000, math.exp(1.0 / 3.0))
    alpha_hat, _ = vf.estimate_alpha(samples, 3)
    assert alpha_hat == pytest.approx(1.0)


@pytest.mark.parametrize("alpha,r", [(2.0, 1), (0.5, 3)])
def test_estimate_alpha_monte_carlo(alpha, r):
    y = np.exp(sp.log_trim_ratio_batch(tm.pareto(alpha), 1.0, r, 1_000_000, 55))
    alpha_hat, stderr = vf.estimate_alpha(y, r)
    assert abs(alpha_hat - alpha) < 3 * stderr


def test_estimate_alpha_domain_errors():
    with pytest.raises(ValueError):
        vf.estimate_alpha(np.array([0.5] * 200), 1)  # sample below 1
    with pytest.raises(ValueError):
        vf.estimate_alpha(np.array([2.0] * 50), 1)  # too few


# --- classifier --------------------------------------------------------------


@pytest.mark.parametrize("model,expected", [
    (tm.pareto(0.5), vf.REGULARLY_VARYING),
    (tm.pareto(1.0), vf.REGULARLY_VARYING),
    (tm.pareto(2.0), vf.REGULARLY_VARYING),
    (tm.pareto_log(1.0, 2.0), vf.REGULARLY_VARYING),
    (tm.pareto_perturbed(1.0, 1.0, 1.0), vf.REGULARLY_VARYING),
    (tm.rapid_zero(), vf.RAPIDLY_VARYING),
    (tm.slow_zero(), vf.SLOWLY_VARYING),
])
def test_classifier_on_shipped_models(model, expected):
    result = vf.classify_tail(model, 1e-4, 1, 10_000, seed=14)
    assert result.verdict == expected
    if expected == vf.REGULARLY_VARYING:
        assert result.alpha_hat is not None
        if model.kind in (tm.PARETO, tm.PARETO_PERTURBED):
            # the log-factor family carries O(1/log(1/t)) estimator bias
            assert result.alpha_hat == pytest.approx(model.alpha, rel=0.15)
    else:
        assert result.alpha_hat is None


def test_classifier_evidence_fields():
    result = vf.classify_tail(tm.pareto(1.0), 1e-4, 2, 10_000, seed=2)
    ev = result.evidence
    for key in ("median_ratio", "p_within_delta_of_1", "p_beyond_m",
                "median_boundary", "log_ratio_quartiles"):
        assert key in ev


def test_classifier_json_round_trip():
    result = vf.classify_tail(tm.slow_zero(), 1e-4, 1, 5_000, seed=4)
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    assert json.loads(text)["verdict"] == vf.SLOWLY_VARYING


# --- conditional-law proxies --------------------------------------------------


def test_z_insensitivity_pareto():
    rep = vf.z_insensitivity_check(tm.pareto(1.0), 1e-3, 1, 1, 100_000, seed=10)
    assert rep.passed
    assert len(rep.statistics) == 4
    assert rep.details["ks_spread"] < rep.threshold


def test_conditional_gamma_pareto():
    rep = vf.conditional_gamma_check(tm.pareto(1.0), 1e-3, 1, 1, 0.5, 0.05,
                                     100_000, seed=12)
    assert rep.passed
    assert rep.statistics[0]["bin_count"] > 1_000


def test_conditional_gamma_narrow_bin_raises():
    with pytest.raises(ValueError):
        vf.conditional_gamma_check(tm.pareto(1.0), 1e-3, 1, 1, 0.5, 1e-6,
                                   20_000, seed=12)


# --- report serialization -----------------------------------------------------


def test_report_json_and_csv_shapes():
    rep = vf.convergence_sweep(tm.pareto(1.0), 1, 1, [1.0, 0.5], 10_000, "wlaw", seed=1)
    doc = json.loads(rep.to_json())
    assert sorted(doc) == ["details", "experiment_id", "pass", "statistics", "threshold"]
    assert doc["pass"] == rep.passed
    assert [rec["t"] for rec in doc["statistics"]] == [1.0, 0.5]
    keys, columns = rep.csv_columns()
    assert "ks" in keys and len(columns) == len(keys)
    assert all(len(column) == 2 for column in columns)


def test_report_json_handles_nonfinite():
    rep = vf.VerifyReport("x", [{"ks": float("nan")}], True, 0.1)
    doc = json.loads(rep.to_json())
    assert doc["statistics"][0]["ks"] is None
