"""Closed-form limit laws for ratios of ordered heavy-tailed Poisson points.

Everything here is deterministic: densities, CDFs and Laplace functionals of
the small-time limits of the ratio point patterns.  Conventions used
throughout:

* ``alpha`` is the tail index; where a law degenerates at ``alpha = 0`` or
  ``alpha = inf`` the corresponding point-mass convention is applied.
* ``r`` counts deleted top points, ``n`` the rank of the normalizing point.
* The pivot ratio ``W = (r+n-th largest)/(r-th largest)`` has the
  Beta(r, n)**(1/alpha) law; below-1 ratio points follow a negative binomial
  point process with ``alpha*x**(-alpha-1)`` base density on (0, 1); above-1
  ratios follow truncated Pareto laws on (1, 1/u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad
from scipy.special import betainc, betaln, gammainc

INDICATOR_STEP = "indicator_step"
LINEAR_RAMP = "linear_ramp"
PROBE_FORMS = frozenset({INDICATOR_STEP, LINEAR_RAMP})


@dataclass(frozen=True)
class LaplaceProbe:
    """Nonnegative bounded test function: a step or ramp on an open interval.

    ``indicator_step``: f(x) = amplitude * 1_(a,b)(x)
    ``linear_ramp``:    f(x) = amplitude * x * 1_(a,b)(x)

    ``amplitude`` may be ``inf`` (void-probability probes).
    """

    amplitude: float
    a: float
    b: float
    form: str = INDICATOR_STEP

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if self.a < 0 or not self.b > self.a:
            raise ValueError("require 0 <= a < b")
        if self.form not in PROBE_FORMS:
            raise ValueError(f"unknown probe form: {self.form!r}")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr > self.a) & (arr < self.b)
        if self.form == INDICATOR_STEP:
            out = np.where(inside, self.amplitude, 0.0)
        else:
            out = np.where(inside, self.amplitude * arr, 0.0)
        return float(out) if np.ndim(x) == 0 else out


# relative tolerance (no absolute floor) and subinterval limit of the
# Laplace-functional integrals
_REL_TOL = 1e-12
_MAX_DEPTH = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _quad(fn, lo, hi, breakpoints=None) -> float:
    points = None
    if breakpoints:
        points = sorted(p for p in breakpoints if lo < p < hi)
        points = points or None
    value, err = _scipy_quad(
        fn, lo, hi, epsabs=0.0, epsrel=_REL_TOL, limit=_MAX_DEPTH, points=points
    )
    if not math.isfinite(value):
        raise QuadratureError(f"integral on ({lo}, {hi}) is not finite")
    if err > 100.0 * _REL_TOL * abs(value):
        raise QuadratureError(
            f"quadrature error {err:.3e} above tolerance on ({lo}, {hi})"
        )
    return value


def incomplete_beta(a: float, b: float, x):
    """Regularized incomplete beta B(a, b; x) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError("incomplete beta requires a > 0 and b > 0")
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("incomplete beta argument must lie in [0, 1]")
    out = betainc(a, b, arr)
    return float(out) if out.ndim == 0 else out


def _check_pivot(r: int, n: int, alpha: float) -> None:
    """The pivot-ratio parameters: r >= 1 deleted points, rank n >= 1, alpha > 0."""
    if r < 1 or n < 1:
        raise ValueError("require r >= 1 and n >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")


def w_cdf(r: int, n: int, alpha: float, w):
    """CDF ``B(r, n; w**alpha)`` of the limiting pivot ratio W, with w clipped to [0, 1].

    One array is allocated: the clipped copy of ``w``, on which the power
    and the incomplete beta are taken in place.
    """
    _check_pivot(r, n, alpha)
    x = np.array(w, dtype=float)
    np.clip(x, 0.0, 1.0, out=x)
    x **= alpha
    betainc(r, n, x, out=x)
    return float(x) if x.ndim == 0 else x


def w_law(r: int, n: int, alpha: float, w):
    """Density and CDF of the limiting pivot ratio W for ``r >= 1``.

    density = (1 - w**alpha)**(n-1) * alpha * w**(alpha*r - 1) / B(r, n)
    cdf     = B(r, n; w**alpha)  (:func:`w_cdf`)
    """
    _check_pivot(r, n, alpha)
    arr = np.asarray(w, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any((arr <= 0) | (arr >= 1)):
        raise ValueError("w must lie strictly inside (0, 1)")
    wa = arr**alpha
    density = (1.0 - wa) ** (n - 1) * alpha * arr ** (alpha * r - 1.0) / math.exp(betaln(r, n))
    cdf = w_cdf(r, n, alpha, arr)
    if scalar:
        return float(density[0]), float(cdf[0])
    return density, cdf


def j_law(u: float, alpha: float, x):
    """Density and CDF of the truncated-Pareto law J(u) on (1, 1/u)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not (0.0 < u < 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr <= 0):
        raise ValueError("x must be positive")
    norm = 1.0 - u**alpha
    inside = (arr > 1.0) & (arr < 1.0 / u)
    density = np.where(inside, alpha * arr ** (-alpha - 1.0) / norm, 0.0)
    cdf = np.clip((1.0 - arr ** -alpha) / norm, 0.0, 1.0)
    cdf[arr <= 1.0] = 0.0
    cdf[arr >= 1.0 / u] = 1.0
    if scalar:
        return float(density[0]), float(cdf[0])
    return density, cdf


def l_law(alpha: float, x):
    """Density and CDF of the Pareto(alpha) law on (1, inf) (the u -> 0 law)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr < 1.0):
        raise ValueError("x must be >= 1")
    density = alpha * arr ** (-alpha - 1.0)
    cdf = 1.0 - arr**-alpha
    if scalar:
        return float(density[0]), float(cdf[0])
    return density, cdf


def k_orderstat_cdf(r: int, n: int, alpha: float, w):
    """P(n-th largest of r+n-1 iid K's <= w) where P(K <= w) = w**alpha.

    Evaluated as the binomial sum over at-least-r successes; agrees with the
    incomplete-beta form of the pivot ratio law.  The binomial coefficients
    are floats, so r + n - 1 is at most 1029.
    """
    _check_pivot(r, n, alpha)
    m = r + n - 1
    if m > 1029:  # math.comb(1030, 515) overflows a float
        raise ValueError("the binomial form needs r + n - 1 <= 1029")
    arr = np.asarray(w, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any((arr <= 0) | (arr >= 1)):
        raise ValueError("w must lie strictly inside (0, 1)")
    p = arr**alpha
    out = np.zeros_like(arr)
    for k in range(r, m + 1):
        out += math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def successive_ratio_cdf(k: int, alpha: float, y):
    """CDF ``y**(k*alpha)`` of the limit of the k-th successive ratio.

    ``k`` may be an integer array that broadcasts against ``y``, one k per
    column.  ``alpha = 0`` and ``alpha = inf`` follow the point-mass
    conventions (mass at 0 and at 1 respectively), which the power form
    already encodes.
    """
    if np.any(np.asarray(k) < 1):
        raise ValueError("k must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative (inf allowed)")
    arr = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
    with np.errstate(invalid="ignore"):
        out = arr ** (k * alpha)
    # 0**0 and 1**inf resolve to the convention values
    out = np.where(np.isnan(out), 1.0, out)
    return float(out) if np.ndim(y) == 0 else out


def ratio_tail_n1(r: int, alpha: float, x):
    """Limiting tail P(r-th/(r+1)-th largest > x) = x**(-r*alpha) for x >= 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    arr = np.maximum(np.asarray(x, dtype=float), 1.0)
    out = arr ** (-r * alpha)
    return float(out) if np.ndim(x) == 0 else out


def nb_count_pmf(n: int, alpha: float, a: float, kmax: int) -> np.ndarray:
    """pmf of the point count in (a, 1): NegativeBinomial(n, p = a**alpha).

    Entry k is the probability of exactly k points, k = 0..kmax.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie strictly inside (0, 1)")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    p = a**alpha
    k = np.arange(kmax + 1)
    log_pmf = (
        np.array([math.lgamma(n + kk) - math.lgamma(kk + 1) for kk in k])
        - math.lgamma(n)
        + n * math.log(p)
        + k * math.log1p(-p)
    )
    return np.exp(log_pmf)


def _lambda_mass(alpha: float, lo: float, hi: float) -> float:
    """Base-measure mass alpha*x**(-alpha-1) of the interval (lo, hi)."""
    if hi <= lo:
        return 0.0
    upper = 0.0 if math.isinf(hi) else hi**-alpha
    if lo <= 0.0:
        return math.inf
    return lo**-alpha - upper


def _above_one(alpha: float, f: LaplaceProbe, lo: float, hi: float) -> float:
    """``integral of exp(-f) d(base measure)`` over (lo, hi), for lo >= 1.

    Outside the probe this is the base mass of the two side intervals; inside
    it is ``exp(-amplitude)`` times the mass for a step (or a zero ramp), and
    a quadrature of ``exp(-amplitude*x)`` for a ramp, broken at 1, 10 and 40
    decay lengths past the probe's lower edge.
    """
    inner_lo, inner_hi = max(lo, f.a), min(hi, f.b)
    outside = _lambda_mass(alpha, lo, min(hi, f.a)) + _lambda_mass(alpha, max(lo, f.b), hi)
    lam = f.amplitude
    if inner_hi <= inner_lo:
        return outside
    if f.form == INDICATOR_STEP or lam == 0.0:
        return outside + math.exp(-lam) * _lambda_mass(alpha, inner_lo, inner_hi)

    def integrand(x):
        return math.exp(-lam * x) * alpha * x ** (-alpha - 1.0)

    knots = [inner_lo + k / lam for k in (1.0, 10.0, 40.0)]
    # quad takes no breakpoints on an infinite interval: the part past the
    # last knot is a call of its own
    split = min(inner_hi, knots[-1])
    return (outside + _quad(integrand, inner_lo, split, breakpoints=knots)
            + _quad(integrand, split, inner_hi))


def nb_laplace(n: int, alpha: float, f: LaplaceProbe) -> float:
    """Laplace functional of the limiting below-1 point process at probe f.

    Returns ``(1 + integral over (0,1) of (1 - e^{-f}) alpha x^{-alpha-1} dx)**(-n)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    lo, hi, lam = f.a, min(1.0, f.b), f.amplitude
    if hi <= lo or lam == 0.0:
        return 1.0
    if f.form == INDICATOR_STEP:
        deficit = -math.expm1(-lam) * _lambda_mass(alpha, lo, hi)
    elif lo <= 0.0 and alpha >= 1.0:
        return 0.0  # the ramp decays too slowly to tame the x**(-alpha-1) pole
    else:
        deficit = _quad(lambda x: -math.expm1(-lam * x) * alpha * x ** (-alpha - 1.0), lo, hi)
    return 0.0 if math.isinf(deficit) else (1.0 + deficit) ** (-n)


def _upper_factor(r: int, n: int, alpha: float, f: LaplaceProbe) -> float:
    """Beta-mixed above-1 factor: E[(conditional Laplace of one J point)^(n-1)].

    The Beta(r, n) density's (1-s)**(n-1) cancels the conditional
    normalization, leaving a smooth outer integrand.
    """
    log_b = betaln(r, n)

    def outer(s: float) -> float:
        kernel = _above_one(alpha, f, 1.0, s ** (-1.0 / alpha))
        return s ** (r - 1.0) * kernel ** (n - 1) * math.exp(-log_b)

    # the support edge s**(-1/alpha) crossing a probe edge puts kinks in the
    # outer integrand
    kinks = [edge**-alpha for edge in (f.a, f.b) if 1.0 < edge < math.inf]
    return _quad(outer, 0.0, 1.0, breakpoints=kinks)


def limit_laplace_full(r: int, n: int, alpha: float, f: LaplaceProbe) -> float:
    """Laplace functional of the full limiting ratio point pattern.

    Product of three factors: the above-1 order-statistic block (a Beta
    mixture of truncated-Pareto points; the plain Pareto law when r = 0),
    the deterministic unit point, and the below-1 negative binomial block
    with n + r total shape.
    """
    if r < 0 or n < 1:
        raise ValueError("require r >= 0 and n >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if n == 1:
        first = 1.0
    elif r == 0:
        first = _above_one(alpha, f, 1.0, math.inf) ** (n - 1)
    else:
        first = _upper_factor(r, n, alpha, f)
    f_at_one = f(1.0)
    point = 0.0 if math.isinf(f_at_one) else math.exp(-f_at_one)
    return first * point * nb_laplace(r + n, alpha, f)


def phi_conditional(lam: float, u: float, alpha: float) -> float:
    """Conditional Laplace transform of one above-1 point given the pivot u.

    ``Phi(lam, u) = integral_1^{1/u} e^{-lam x} alpha x^{-alpha-1} dx / (1 - u**alpha)``;
    the above-1 sum of n-1 points transforms as ``Phi**(n-1)``.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not 0 < alpha < math.inf:  # at alpha = inf the density alpha * x**(-alpha-1) is nan
        raise ValueError("alpha must be positive and finite")
    if lam == 0.0:
        return 1.0
    norm = -math.expm1(alpha * math.log(u))
    ramp = LaplaceProbe(lam, 1.0, math.inf, LINEAR_RAMP)
    return _above_one(alpha, ramp, 1.0, 1.0 / u) / norm


def time_scale_cdf(k: int, z):
    """CDF of the limiting time scale t*tail(k-th largest point): Gamma(k, 1)."""
    return gammainc(k, z)


def conditional_gamma_cdf(r: int, n: int, alpha: float, w: float, z):
    """Limiting conditional CDF of the top-point time scale given the pivot ratio.

    The Gamma(r+n, 1) CDF (:func:`time_scale_cdf`) at ``w**-alpha * z``.
    """
    _check_pivot(r, n, alpha)
    if not (0.0 < w < 1.0):
        raise ValueError("w must lie strictly inside (0, 1)")
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0):
        raise ValueError("z must be nonnegative")
    try:
        # Python's float power: numpy's array power differs from it in the last
        # bit for some (w, alpha)
        scale = w**-alpha
    except OverflowError:
        raise ValueError(f"w**-alpha overflows for w={w!r}, alpha={alpha!r}") from None
    return time_scale_cdf(r + n, scale * arr)
