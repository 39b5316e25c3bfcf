"""Statistical harness confronting finite-time simulations with the limit laws.

Each check simulates trials with per-trial reproducible streams, computes
goodness-of-fit distances against the relevant closed-form law, and returns
a :class:`VerifyReport` that serializes to JSON/CSV.  Pass thresholds follow
one rule: targets that are exact at every t for the pure power family use
the 1% asymptotic KS critical value ``1.63/sqrt(trials)``; perturbed-tail
targets use an absolute bound at the smallest t (finite-t bias never fully
vanishes).  Every gate is a module constant; no call can change one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import chdtrc
from scipy.special import kolmogorov as _ks_sf

from . import limit_laws as ll
from . import samplers as sp
from .rng import uniform_grid
from .tail_models import PARETO, RAPID_ZERO, SLOW_ZERO, TailModel

#: 1% asymptotic critical coefficient for the Kolmogorov-Smirnov statistic.
KS_COEFF_1PCT = 1.63
#: Absolute KS bound at the smallest t for targets that are not exact at every t.
ABS_KS_BOUND = 0.01
#: Chi-square tests pass above this p-value.
P_THRESHOLD = 1e-3
#: Largest relative error of the empirical negative binomial Laplace functional.
NB_REL_ERR_THRESHOLD = 5e-3
#: Chi-square cells are lumped or coarsened until every expected count reaches this.
MIN_EXPECTED_COUNT = 5.0
#: Equiprobable bins of the PIT uniformity chi-square in sweeps.
UNIFORMITY_BINS = 20
#: Cells per axis of the independence occupancy grid before coarsening.
INDEPENDENCE_GRID = 10
#: A slowly varying tail's successive ratios have collapsed when their median is below this.
SLOW_COLLAPSE_BOUNDARY = 0.05
#: Pivot-ratio bin that conditions the order-statistics identity.
IDENTITY_BIN = (0.45, 0.55)
#: Quantile bins of the pivot time scale in the z-insensitivity check.
Z_BINS = 4
#: Classifier evidence: ratios within DELTA of 1, mass beyond BIG_M, the
#: 1 - ETA share that decides, and KAPPA of the rapid boundary 1 + KAPPA/log(1/t).
CLASSIFY_DELTA = 0.05
CLASSIFY_ETA = 0.05
CLASSIFY_BIG_M = 1e3
CLASSIFY_KAPPA = 1.5

REGULARLY_VARYING = "regularly_varying"
RAPIDLY_VARYING = "rapidly_varying"
SLOWLY_VARYING = "slowly_varying"

WLAW = "wlaw"
RATIO_TAIL_N1 = "ratio_tail_n1"
SUCCESSIVE_RATIOS = "successive_ratios"
GAMMA_NC = "gamma_nc"


class ClassificationError(RuntimeError):
    """Tail classification found conflicting evidence (t is not small enough)."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}; diagnostics: {diagnostics}")
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A sorted sample with its size; the unit the distances operate on."""

    sorted_values: np.ndarray
    n_samples: int

    @staticmethod
    def from_samples(values) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(values, dtype=float))
        return EmpiricalDistribution(sorted_values=arr, n_samples=arr.size)


@dataclass
class VerifyReport:
    """Per-experiment statistics plus the pass verdict at the final grid point.

    ``details`` holds computed values only; the run's inputs are recorded
    once, by the caller (the CLI writes them as ``parameters``).
    """

    experiment_id: str
    statistics: list
    passed: bool
    threshold: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "statistics": _jsonable(self.statistics),
            "pass": bool(self.passed),
            "threshold": self.threshold,
            "details": _jsonable(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def csv_columns(self):
        """Companion per-statistic table: (keys, one list of values per key)."""
        keys = sorted({k for rec in self.statistics for k in rec})
        return keys, [[rec.get(k, "") for rec in self.statistics] for k in keys]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class TailClassification:
    """Trichotomy verdict with the computed evidence that produced it."""

    verdict: str
    alpha_hat: Optional[float]
    evidence: dict

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "alpha_hat": self.alpha_hat,
            "evidence": _jsonable(self.evidence),
        }


# ---------------------------------------------------------------------------
# distances


def ks_distance(emp: EmpiricalDistribution, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov statistic with both one-sided corrections."""
    if emp.n_samples < 10:
        raise ValueError("need at least 10 samples")
    return _sorted_statistics(emp.sorted_values, cdf, threads=1)[0]


def _sorted_statistics(x: np.ndarray, cdf, threads: Optional[int], bins: int = 0):
    """KS distance of the sorted sample ``x`` to ``cdf``, and its PIT counts in ``bins`` bins.

    The sample is taken in contiguous chunks of ``samplers._ROW_BLOCK``
    values on ``threads`` worker threads (the batch samplers' row-block
    pool).  Each chunk evaluates ``cdf`` (elementwise) at its values, the
    two one-sided KS maxima at their global ranks ``i / n`` and
    ``i / n - 1 / n``, and, when ``bins`` > 0, how many PIT values fall in
    each of ``bins`` equal bins of [0, 1].  Maxima merge by ``max`` and
    counts by integer sums, so both are bit-identical to the one-shot
    formulas at any thread count.  Returns ``(ks, counts or None)``.
    """
    n = x.size
    step = sp._ROW_BLOCK

    def chunk(lo: int):
        f = np.asarray(cdf(x[lo:lo + step]), dtype=float)
        grid = np.arange(lo + 1, lo + f.size + 1, dtype=float)
        grid /= n
        d_plus = np.max(grid - f)
        grid -= 1.0 / n
        d_minus = np.max(f - grid)
        if not bins:
            return d_plus, d_minus, None
        idx = np.minimum((f * bins).astype(np.int64), bins - 1)
        return d_plus, d_minus, np.bincount(idx, minlength=bins)

    d_plus, d_minus, counts = zip(*sp._run_blocks(chunk, range(0, n, step), threads))
    ks = float(max(np.max(d_plus), np.max(d_minus)))
    return ks, (np.sum(counts, axis=0) if bins else None)


def ks_p_value(stat: float, n: int) -> float:
    """Asymptotic p-value of the one-sample KS statistic."""
    return float(_ks_sf(stat * math.sqrt(n)))


def two_sample_ks(x, y) -> float:
    """Two-sample KS statistic (sup-distance between the two ECDFs)."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def two_sample_threshold(n1: int, n2: int) -> float:
    return KS_COEFF_1PCT * math.sqrt((n1 + n2) / (n1 * n2))


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function (upper tail probability)."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    return float(chdtrc(dof, stat))


def chi_square_counts(observed: np.ndarray, expected: np.ndarray):
    """Chi-square GOF on count vectors, lumping tail cells until each expects MIN_EXPECTED_COUNT.

    Returns (statistic, p_value, dof).
    """
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    # lump trailing cells until every expected count is big enough
    while exp.size > 2 and exp[-1] < MIN_EXPECTED_COUNT:
        exp = np.concatenate([exp[:-2], [exp[-2] + exp[-1]]])
        obs = np.concatenate([obs[:-2], [obs[-2] + obs[-1]]])
    keep = exp >= MIN_EXPECTED_COUNT
    if not np.all(keep):
        obs, exp = obs[keep], exp[keep]
    if exp.size < 2:
        raise ValueError("too few cells with adequate expected counts")
    # renormalize the expectation to the observed total (lumping truncation)
    exp = exp * obs.sum() / exp.sum()
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = exp.size - 1
    return stat, _chi2_sf(stat, dof), dof


def chi_square_independence(u: np.ndarray, v: np.ndarray):
    """Occupancy-grid chi-square independence test on two ~Uniform(0,1) samples.

    Halves the INDEPENDENCE_GRID cells per axis while any expected cell count
    is below MIN_EXPECTED_COUNT.  Returns (statistic, p_value, grid_used).
    """
    n = u.size
    g = INDEPENDENCE_GRID
    while g > 2 and n / (g * g) < MIN_EXPECTED_COUNT:
        g //= 2
    iu = np.minimum((u * g).astype(np.int64), g - 1)
    iv = np.minimum((v * g).astype(np.int64), g - 1)
    counts = np.bincount(iu * g + iv, minlength=g * g).astype(float).reshape(g, g)
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row * col / n
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = (g - 1) * (g - 1)
    return stat, _chi2_sf(stat, dof), g


def _finite_index(model: TailModel) -> float:
    """The model's tail index; ``ValueError`` unless it is finite and positive.

    The checks that compare against a regular-variation limit law need one:
    with the index 0 or inf the law degenerates and every KS is vacuous.
    """
    alpha = model.rv_index
    if not (0 < alpha < math.inf):
        raise ValueError(f"{model.kind} has no finite positive tail index; "
                         "this check needs one")
    return alpha


def default_threshold(model: TailModel, trials: int) -> float:
    """1% KS critical value for exact (pure power) targets, ABS_KS_BOUND otherwise."""
    if model.kind == PARETO:
        return KS_COEFF_1PCT / math.sqrt(trials)
    return ABS_KS_BOUND


# ---------------------------------------------------------------------------
# verification operations


#: Sweep target -> (its samples at one t as 1-D lines, from
#: ``(model, t, r, n, trials, seed, stream_start, threads)``; the limit CDF
#: of each line, from ``(r, n, alpha)``; the report key of the per-line KS
#: list, or None for a one-line target, whose report adds the uniformity
#: chi-square of its CDF values; whether the laws read the tail index,
#: which then must be finite and positive).
_SWEEPS = {
    # the ratio sweeps sort log samples as drawn (exp is monotone) and fold
    # alpha into the argument: R**alpha = exp(alpha * log R) stays in range
    # where a ratio underflows or overflows
    # pivot ratio vs its Beta-power CDF
    WLAW: (lambda model, t, r, n, *run: [sp.log_pivot_ratio_batch(model, t, r, n, *run)],
           lambda r, n, alpha: [lambda lw: ll.w_cdf(r, n, 1.0, np.exp(alpha * lw))],
           None, True),
    # above-1 ratio vs the power tail
    RATIO_TAIL_N1: (
        lambda model, t, r, n, *run: [sp.log_trim_ratio_batch(model, t, r, *run)],
        lambda r, n, alpha: [lambda ly: 1.0 - ll.ratio_tail_n1(r, 1.0, np.exp(alpha * ly))],
        None, True),
    # successive ratios R_k, k = max(r, 1) .. max(r, 1) + n - 1
    SUCCESSIVE_RATIOS: (
        lambda model, t, r, n, *run: sp.log_successive_ratio_batch(model, t, max(r, 1), n, *run).T,
        lambda r, n, alpha: [lambda lr, k=k: ll.successive_ratio_cdf(k, 1.0, np.exp(alpha * lr))
                             for k in range(max(r, 1), max(r, 1) + n)],
        "ks_per_coordinate", True),
    # time scales t*tail(k-th point) vs Gamma(k, 1), k = max(r, 1) .. r + n
    GAMMA_NC: (
        lambda model, t, r, n, *run: sp.time_scale_batch(model, t, r + n, *run).T[max(r, 1) - 1:],
        lambda r, n, alpha: [partial(ll.time_scale_cdf, k) for k in range(max(r, 1), r + n + 1)],
        "ks_per_k", False),
}
SWEEP_TARGETS = frozenset(_SWEEPS)


def convergence_sweep(
    model: TailModel,
    r: int,
    n: int,
    t_grid: Sequence[float],
    trials: int,
    target: str,
    seed: int,
    threads: Optional[int] = None,
) -> VerifyReport:
    """KS distance to the selected limit law along a decreasing grid of t.

    Targets (``_SWEEPS``): ``wlaw`` (pivot ratio vs its Beta-power CDF),
    ``ratio_tail_n1`` (above-1 ratio vs the power tail), ``successive_ratios``
    (per-coordinate KS, statistic is the worst coordinate), ``gamma_nc``
    (time scales t*tail(k-th point) vs Gamma(k, 1), worst k in r..r+n).
    Each sample line is sorted and its statistics are taken in chunks on
    ``threads`` worker threads (:func:`_sorted_statistics`); the report does
    not depend on ``threads``.
    """
    t_arr = [float(t) for t in t_grid]
    if len(t_arr) == 0 or any(b >= a for a, b in zip(t_arr, t_arr[1:])):
        raise ValueError("t_grid must be strictly decreasing")
    if trials < 10_000:
        raise ValueError("trials must be >= 10^4")
    if target not in _SWEEPS:
        raise ValueError(f"unknown sweep target: {target!r}")
    sample, laws, per_line_key, reads_alpha = _SWEEPS[target]
    cdfs = laws(r, n, _finite_index(model) if reads_alpha else None)
    threshold = default_threshold(model, trials)

    stats = []
    for it, t in enumerate(t_arr):
        entry = {"t": t}
        per_line = []
        for line, cdf in zip(sample(model, t, r, n, trials, seed, it * trials, threads), cdfs):
            x = np.ascontiguousarray(line)
            x.sort()
            ks, counts = _sorted_statistics(x, cdf, threads,
                                            0 if per_line_key else UNIFORMITY_BINS)
            per_line.append(ks)
            del x  # one sorted copy at a time
        del line  # this t's sample goes before the next t is drawn
        entry["ks"] = max(per_line)
        if per_line_key:
            entry[per_line_key] = per_line
        else:
            entry.update(_uniformity_chi2(counts))
        entry["p_value"] = ks_p_value(entry["ks"], trials)
        stats.append(entry)

    passed = stats[-1]["ks"] <= threshold
    return VerifyReport(
        experiment_id=f"sweep_{target}_{model.kind}_r{r}_n{n}",
        statistics=stats,
        passed=bool(passed),
        threshold=float(threshold),
    )


def _uniformity_chi2(counts: np.ndarray) -> dict:
    """Chi-square of PIT values' counts in equiprobable bins against uniformity."""
    expected = np.full(counts.size, counts.sum() / counts.size)
    stat, p, _ = chi_square_counts(counts.astype(float), expected)
    return {"chi2": stat, "chi2_p_value": p}


def independence_check(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> VerifyReport:
    """Pairwise chi-square independence of successive ratios after their PIT.

    Each ratio R_k is mapped to a near-uniform through its limit CDF
    y**(k*alpha), evaluated as the law at index 1 of ``exp(alpha * log
    R_k)``, which does not underflow at small alpha; adjacent pairs are
    tested on an occupancy grid.  For the rapidly/slowly varying families
    the ratios collapse to a point mass and the check reports that verdict
    instead of a chi-square.
    """
    if n < 2:
        raise ValueError("independence check needs n >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    alpha = model.rv_index
    log_ratios = sp.log_successive_ratio_batch(model, t, r, n, trials, seed, 0, threads)

    if model.kind in (RAPID_ZERO, SLOW_ZERO):
        med = float(np.median(np.exp(log_ratios)))
        limit = 1.0 if model.kind == RAPID_ZERO else 0.0
        boundary = (1.0 - _rapid_median_allowance(t) if model.kind == RAPID_ZERO
                    else SLOW_COLLAPSE_BOUNDARY)
        collapsed = med > boundary if model.kind == RAPID_ZERO else med < boundary
        return VerifyReport(
            experiment_id=f"independence_{model.kind}_r{r}_n{n}",
            statistics=[{"t": t, "median_ratio": med, "point_mass_at": limit}],
            passed=bool(collapsed),
            threshold=boundary,
            details={"verdict": f"point_mass_at_{limit:g}"},
        )

    pit = ll.successive_ratio_cdf(np.arange(r, r + n), 1.0, np.exp(alpha * log_ratios))
    stats = []
    worst = None
    for j in range(n - 1):
        stat, p, g = chi_square_independence(pit[:, j], pit[:, j + 1])
        rec = {"pair": [r + j, r + j + 1], "chi2": stat, "p_value": p, "grid": g, "t": t}
        stats.append(rec)
        if worst is None or p < worst["p_value"]:
            worst = rec
    marginal_ks = [
        ks_distance(EmpiricalDistribution.from_samples(pit[:, j]), lambda u: np.clip(u, 0, 1))
        for j in range(n)
    ]
    passed = worst["p_value"] > P_THRESHOLD
    return VerifyReport(
        experiment_id=f"independence_{model.kind}_r{r}_n{n}",
        statistics=stats,
        passed=bool(passed),
        threshold=P_THRESHOLD,
        details={"max_chi2": worst["chi2"], "min_p_value": worst["p_value"],
                 "marginal_pit_ks": marginal_ks},
    )


def identity_checks(
    alpha: float,
    r: int,
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> VerifyReport:
    """Monte Carlo distributional identities of the limit laws (two-sample KS).

    (a) the product of independent successive-ratio limits matches the
        Beta(r, n)**(1/alpha) pivot law;
    (b) the sum of the r=0 above-1 ratios matches a sum of n-1 iid Pareto
        variables;
    (c) given the pivot value, the above-1 ratios match order statistics of
        shifted uniforms raised to -1/alpha (conditioning by binning, the
        synthetic copy conditioned at each trial's own pivot).
    """
    if trials < 100_000:
        raise ValueError("identity checks are calibrated for trials >= 10^5")
    if r < 1 or n < 1:
        raise ValueError("require r >= 1 and n >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    stats = []

    # (a) product identity
    ks_units = np.arange(r, r + n)
    u = uniform_grid(seed, 0, trials, n)
    prod = np.prod(u ** (1.0 / (ks_units * alpha))[None, :], axis=1)
    g = sp.gamma_matrix(seed, trials, r + n, stream_start=trials, threads=threads)
    w_ref = (g[:, r - 1] / g[:, r + n - 1]) ** (1.0 / alpha)
    ks_a = two_sample_ks(prod, w_ref)
    thr_ab = two_sample_threshold(trials, trials)
    stats.append({"name": "product_of_ratio_limits", "ks": ks_a, "threshold": thr_ab,
                  "pass": ks_a <= thr_ab})

    # (b) sum representation at r=0 (needs n >= 2 for a nonempty sum)
    if n >= 2:
        g0 = sp.gamma_matrix(seed, trials, n, stream_start=2 * trials, threads=threads)
        lhs = np.sum((g0[:, :-1] / g0[:, -1:]) ** (-1.0 / alpha), axis=1)
        u_p = uniform_grid(seed, 3 * trials, trials, n - 1)
        rhs = np.sum(u_p ** (-1.0 / alpha), axis=1)
        ks_b = two_sample_ks(lhs, rhs)
        stats.append({"name": "trimmed_sum_random_walk", "ks": ks_b, "threshold": thr_ab,
                      "pass": ks_b <= thr_ab})

    # (c) conditional order-statistics identity within the pivot bin
    if n >= 2:
        g = sp.gamma_matrix(seed, trials, r + n, stream_start=4 * trials, threads=threads)
        b = g[:, r - 1] / g[:, r + n - 1]
        keep = (b > IDENTITY_BIN[0]) & (b < IDENTITY_BIN[1])
        idx = np.flatnonzero(keep)
        if idx.size < 1_000:
            raise ValueError("conditioning bin too narrow for the trial budget")
        ratios = (g[idx, r : r + n - 1] / g[idx, r + n - 1 : r + n]) ** (-1.0 / alpha)
        u_c = uniform_grid(seed, 5 * trials + 0, idx.size, n - 1)
        synth = (b[idx, None] + (1.0 - b[idx, None]) * u_c) ** (-1.0 / alpha)
        synth = -np.sort(-synth, axis=1)  # decreasing order statistics
        worst = 0.0
        for j in range(n - 1):
            worst = max(worst, two_sample_ks(ratios[:, j], synth[:, j]))
        thr_c = two_sample_threshold(idx.size, idx.size)
        stats.append({"name": "conditional_uniform_orderstats", "ks": worst,
                      "threshold": thr_c, "pass": worst <= thr_c,
                      "bin": list(IDENTITY_BIN), "bin_count": int(idx.size)})

    passed = all(rec["pass"] for rec in stats)
    return VerifyReport(
        experiment_id=f"identities_a{alpha:g}_r{r}_n{n}",
        statistics=stats,
        passed=bool(passed),
        threshold=thr_ab,
    )


def nb_functional_check(
    n: int,
    alpha: float,
    probe,
    epsilon: float,
    trials: int,
    method: str,
    seed: int,
    threads: Optional[int] = None,
) -> VerifyReport:
    """Empirical Laplace functional and point-count law of the sampled limit process.

    Compares (i) the mean of exp(-sum f(points)) against the closed-form
    functional and (ii) the count of points on (epsilon, 1), the sampler's
    own interval, against ``nb_count_pmf(n, alpha, epsilon, kmax)``: the
    negative binomial pmf with success probability epsilon**alpha.
    ``probe`` is called concurrently from worker threads unless
    ``threads=1``, so it must be thread-safe.
    """
    if probe.a < epsilon or probe.b > 1.0:
        raise ValueError("probe must be supported inside (epsilon, 1)")
    counts, sums = sp.negbin_batch(
        n, alpha, epsilon, method, trials, seed, probe=probe, threads=threads
    )
    # the Laplace functional exp(-sum f), taken in place of the sums
    emp = float(np.mean(np.exp(np.negative(sums, out=sums), out=sums)))
    expected = ll.nb_laplace(n, alpha, probe)
    rel_err = abs(emp - expected) / expected if expected > 0 else math.inf

    # count law in (a, 1) with a = epsilon (counts are taken at the sampler
    # truncation, so epsilon plays the role of the interval edge)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected_counts = trials * ll.nb_count_pmf(n, alpha, epsilon, kmax)
    chi2, p_count, dof = chi_square_counts(observed, expected_counts)
    p_succ = epsilon**alpha

    void_expected = p_succ**n
    void_emp = float(np.mean(counts == 0))
    void_se = math.sqrt(void_expected * (1 - void_expected) / trials)

    passed = (rel_err <= NB_REL_ERR_THRESHOLD) and (p_count > P_THRESHOLD)
    return VerifyReport(
        experiment_id=f"nb_functional_{method}_n{n}_a{alpha:g}",
        statistics=[{
            "empirical_functional": emp, "expected_functional": expected,
            "rel_err": rel_err, "chi2": chi2, "p_value": p_count, "dof": dof,
        }],
        passed=bool(passed),
        threshold=NB_REL_ERR_THRESHOLD,
        details={"void_empirical": void_emp, "void_expected": void_expected,
                 "void_se": void_se},
    )


def estimate_alpha(log_ratios, r: int) -> tuple[float, float]:
    """Maximum-likelihood tail index from the log-ratio sample LY = log(X_r / X_{r+1}).

    The limiting tail ``x**(-r*alpha)`` makes LY exponential with rate ``r*alpha``:
    the MLE is ``1 / (r * mean(LY))`` with standard error ``alpha_hat / sqrt(n)``.
    """
    ly = np.asarray(log_ratios, dtype=float)
    if ly.size < 100:
        raise ValueError("need at least 100 samples")
    if not ly.min() >= 0.0:
        raise ValueError("log-ratio samples must all be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    mean_log = float(np.mean(ly))
    if mean_log <= 0.0:
        raise ValueError("degenerate sample: all ratios equal 1")
    alpha_hat = 1.0 / (r * mean_log)
    return alpha_hat, alpha_hat / math.sqrt(ly.size)


def _rapid_median_allowance(t: float) -> float:
    """Half-width of the collapse region around 1 at time t: CLASSIFY_KAPPA/log(1/t).

    Ratios of a rapidly varying tail approach 1 only at 1/log(1/t) speed,
    so the boundary must shrink with t rather than sit at a fixed delta.
    """
    return CLASSIFY_KAPPA / max(math.log(1.0 / t), 1.0)


def classify_tail(
    model: TailModel,
    t: float,
    r: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> TailClassification:
    """Three-way variation classifier from the above-1 ratio at one small t.

    Evidence is the log-ratio sample LY = log(r-th / (r+1)-th point):
    most mass beyond ``CLASSIFY_BIG_M`` -> slowly varying; median inside the
    shrinking collapse region ``1 + CLASSIFY_KAPPA/log(1/t)`` around 1 ->
    rapidly varying; an interior median with sane tails -> regularly
    varying with the MLE tail index.
    Conflicting evidence raises :class:`ClassificationError`.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if trials < 1_000:
        raise ValueError("classification needs at least 10^3 trials")
    ly = sp.log_trim_ratio_batch(model, t, r, trials, seed, 0, threads)
    q25, med_ly, q75 = np.quantile(ly, [0.25, 0.5, 0.75])
    p_low = float(np.mean(ly < math.log1p(CLASSIFY_DELTA)))
    p_high = float(np.mean(ly > math.log(CLASSIFY_BIG_M)))
    boundary = 1.0 + _rapid_median_allowance(t)
    median_ratio = math.exp(med_ly) if med_ly < 700.0 else math.inf
    evidence = {
        "median_ratio": median_ratio,
        "log_ratio_quartiles": [float(q25), float(med_ly), float(q75)],
        "p_within_delta_of_1": p_low,
        "p_beyond_m": p_high,
        "median_boundary": boundary,
    }
    if p_high > 1.0 - CLASSIFY_ETA:
        return TailClassification(SLOWLY_VARYING, None, evidence)
    if median_ratio > CLASSIFY_BIG_M:
        raise ClassificationError(
            "median beyond the slow-variation bound but the upper tail is "
            "not consistently heavy; t not small enough", evidence)
    if p_low > 1.0 - CLASSIFY_ETA or median_ratio < boundary:
        return TailClassification(RAPIDLY_VARYING, None, evidence)
    alpha_hat, stderr = estimate_alpha(ly, r)
    evidence["alpha_stderr"] = stderr
    return TailClassification(REGULARLY_VARYING, alpha_hat, evidence)


def z_insensitivity_check(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> VerifyReport:
    """Pivot-ratio law checked inside quantile bins of the pivot time scale.

    The limit law of the pivot ratio does not depend on the conditioning
    level z; binning trials by z = t*tail(r+n-th point) into quantile bins,
    the per-bin KS statistics against the closed-form law must agree within
    twice the per-bin KS noise level.  Each W is scored as ``W**alpha =
    exp(alpha * log W)`` against the law at index 1, as the ``wlaw`` sweep
    does, so small alpha does not underflow W to 0.
    """
    alpha = _finite_index(model)
    lw, z, _ = sp.log_pivot_ratio_with_scales_batch(model, t, r, n, trials, seed, 0, threads)
    w = np.exp(alpha * lw)
    edges = np.quantile(z, np.linspace(0, 1, Z_BINS + 1))
    cdf = partial(ll.w_cdf, r, n, 1.0)
    per_bin = []
    for b in range(Z_BINS):
        lo, hi = edges[b], edges[b + 1]
        mask = (z >= lo) & (z <= hi) if b == Z_BINS - 1 else (z >= lo) & (z < hi)
        emp = EmpiricalDistribution.from_samples(w[mask])
        per_bin.append({
            "bin": b, "z_lo": float(lo), "z_hi": float(hi),
            "count": int(emp.n_samples), "ks": ks_distance(emp, cdf),
        })
    ks_values = [rec["ks"] for rec in per_bin]
    noise = KS_COEFF_1PCT / math.sqrt(trials / Z_BINS)
    spread = max(ks_values) - min(ks_values)
    passed = spread < 2.0 * noise
    pooled = ks_distance(EmpiricalDistribution.from_samples(w), cdf)
    return VerifyReport(
        experiment_id=f"z_insensitivity_{model.kind}_r{r}_n{n}",
        statistics=per_bin,
        passed=bool(passed),
        threshold=2.0 * noise,
        details={"ks_spread": spread, "per_bin_noise": noise, "pooled_ks": pooled},
    )


def conditional_gamma_check(
    model: TailModel,
    t: float,
    r: int,
    n: int,
    w_center: float,
    half_width: float,
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> VerifyReport:
    """Conditional law of the top-point time scale given the pivot ratio.

    Selects trials with pivot ratio within ``half_width`` of ``w_center``
    and probability-integral-transforms each trial's time scale through the
    Gamma(r+n) conditional CDF at the trial's own pivot value; the PIT
    sample must be uniform (KS below the 1% critical value for the bin).
    The bin-center KS is reported as a diagnostic.
    """
    if not (0 < w_center < 1) or not (0 < half_width < min(w_center, 1 - w_center)):
        raise ValueError("conditioning window must sit strictly inside (0, 1)")
    alpha = _finite_index(model)
    lw, _, a_scale = sp.log_pivot_ratio_with_scales_batch(
        model, t, r, n, trials, seed, 0, threads
    )
    w = np.exp(lw)
    mask = np.abs(w - w_center) <= half_width
    idx = np.flatnonzero(mask)
    if idx.size < 1_000:
        raise ValueError("conditioning bin too narrow for the trial budget")
    pit = ll.time_scale_cdf(r + n, w[idx] ** -alpha * a_scale[idx])
    emp = EmpiricalDistribution.from_samples(pit)
    ks_pit = ks_distance(emp, lambda u: np.clip(u, 0.0, 1.0))
    threshold = KS_COEFF_1PCT / math.sqrt(idx.size)
    # the bin-center comparison carries O(half_width) discretization bias
    center_cdf = partial(ll.conditional_gamma_cdf, r, n, alpha, w_center)
    ks_center = ks_distance(EmpiricalDistribution.from_samples(a_scale[idx]), center_cdf)
    return VerifyReport(
        experiment_id=f"conditional_gamma_{model.kind}_r{r}_n{n}",
        statistics=[{
            "t": t, "ks": ks_pit, "p_value": ks_p_value(ks_pit, idx.size),
            "bin_count": int(idx.size),
        }],
        passed=bool(ks_pit <= threshold),
        threshold=threshold,
        details={"bin_center_ks_diagnostic": ks_center},
    )
