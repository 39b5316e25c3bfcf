import math

import numpy as np
import pytest
from scipy.integrate import quad

from ppratios import limit_laws as ll
from ppratios import samplers as sp
from ppratios.rng import uniform_grid
from ppratios.verify import EmpiricalDistribution, ks_distance, two_sample_ks


# --- pivot ratio law -------------------------------------------------------


def test_w_law_examples():
    d, c = ll.w_law(1, 1, 1, 0.3)
    assert d == pytest.approx(1.0)
    assert c == pytest.approx(0.3)
    _, c = ll.w_law(1, 1, 2, 0.5)
    assert c == pytest.approx(0.25)
    d, _ = ll.w_law(1, 2, 2, 0.5)
    assert d == pytest.approx(1.5)  # (1-0.25)*2*0.5/B(1,2)


def test_w_law_rejects_r0_and_boundary():
    with pytest.raises(ValueError):
        ll.w_law(0, 1, 1, 0.5)
    with pytest.raises(ValueError):
        ll.w_law(1, 1, 1, 1.0)


@pytest.mark.parametrize("alpha,r,n", [(1, 1, 2), (2.0, 2, 3), (0.7, 3, 1)])
def test_w_cdf_is_w_law_cdf_on_the_closed_support(alpha, r, n):
    w = np.linspace(0.001, 0.999, 999)
    cdf = ll.w_cdf(r, n, alpha, w)
    assert cdf.tobytes() == ll.w_law(r, n, alpha, w)[1].tobytes()
    assert ll.w_cdf(r, n, alpha, 0.3) == ll.w_law(r, n, alpha, 0.3)[1]
    assert isinstance(ll.w_cdf(r, n, alpha, 0.3), float)
    ends = ll.w_cdf(r, n, alpha, np.array([-2.0, 0.0, 1.0, 3.0]))
    assert ends.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert w.tolist() == np.linspace(0.001, 0.999, 999).tolist()  # input untouched


# the binomial-sum kernel against scipy's betainc, on uniform draws, 300
# decades down to 1e-300, 1e-17 to 0.1 below 1, and both ends
_KERNEL_X = np.concatenate([np.random.default_rng(24).random(2000), np.logspace(-300, 0, 301),
                            1.0 - np.logspace(-17, -1, 161), [0.0, 1.0]])
_KERNEL_RN = (1, 2, 3, 5, 8, 13, 40, 100)
_CLOSED_FORMS = {(1, 1): lambda x: x, (1, 2): lambda x: 1 - (1 - x) ** 2,
                 (2, 1): lambda x: x**2}


@pytest.mark.parametrize("r", _KERNEL_RN)
def test_w_cdf_binomial_sum_matches_betainc(r):
    from scipy.special import betainc

    for n in _KERNEL_RN:
        got = ll.w_cdf(r, n, 1.0, _KERNEL_X)
        ref = betainc(r, n, _KERNEL_X)
        assert 0.0 <= got.min() and got.max() <= 1.0, (r, n)
        assert np.max(np.abs(got - ref)) <= 2e-14, (r, n)
        big = ref >= 1e-280
        assert np.max(np.abs(got[big] - ref[big]) / ref[big]) <= 2e-13, (r, n)
        if (r, n) in _CLOSED_FORMS:
            assert np.allclose(got, _CLOSED_FORMS[r, n](_KERNEL_X), rtol=0, atol=1e-14)


@pytest.mark.parametrize("r,n,x,expected", [
    # y**r is subnormal (0.4824...**1000 is about 3e-317) or 0 (0.4648**992)
    (1000, 24, 0.4824806603866676, 4.1310375852006039e-277),
    (992, 32, 0.4648, 5.1956554750659505e-280),
], ids=["1000_24", "992_32"])
def test_w_cdf_keeps_its_bits_where_the_power_underflows(r, n, x, expected):
    # expected: B(r, n; x) from mpmath at 80 digits (scipy's betainc gives
    # 2.755e-277 for the first and 0 for the second)
    assert ll.w_cdf(r, n, 1.0, x) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r,n", [(1, 32), (1, 33), (600, 32), (600, 33),
                                 (992, 32), (993, 32), (1023, 1), (1024, 1)])
def test_w_cdf_agrees_with_betainc_on_both_sides_of_the_sum_bound(r, n):
    # n <= 32 with m = r + n - 1 <= 1023 sums; n = 33 or m = 1024 is betainc
    # itself.  The sum's rounding grows like m ulps, hence the looser bound
    # than at r, n <= 100.  Relative error is taken against the tail summed
    # from logs, since betainc reads B(600, 32; 0.295) = 5.7e-271 23% low
    from scipy.special import betainc, logsumexp

    x = np.linspace(0.0, 1.0, 2001)
    got, ref = ll.w_cdf(r, n, 1.0, x), betainc(r, n, x)
    assert 0.0 <= got.min() and got.max() <= 1.0
    if n > 32 or r + n - 1 > 1023:
        assert got.tobytes() == ref.tobytes()
        return
    assert np.max(np.abs(got - ref)) <= 1e-12
    m, k, inner = r + n - 1, np.arange(r, r + n)[:, None], x[1:-1]
    log_c = np.array([[math.log(math.comb(m, i))] for i in range(r, r + n)])
    exact = np.exp(logsumexp(log_c + k * np.log(inner) + (m - k) * np.log1p(-inner), axis=0))
    big = exact >= 1e-280
    assert np.max(np.abs(got[1:-1][big] - exact[big]) / exact[big]) <= 1e-12


@pytest.mark.parametrize("r,n", [(1.5, 2), (2, 2.5), (2.0, 3), (2, 3.0)])
def test_w_cdf_requires_integral_r_and_n(r, n):
    with pytest.raises(ValueError, match="integers"):
        ll.w_cdf(r, n, 1.0, 0.5)
    with pytest.raises(ValueError, match="integers"):
        ll.w_law(r, n, 1.0, 0.5)


@pytest.mark.parametrize("alpha,r,n", [(1, 1, 1), (2, 1, 2), (0.5, 2, 3), (1.5, 3, 1)])
def test_w_law_density_integrates_to_one(alpha, r, n):
    total, err = quad(lambda w: ll.w_law(r, n, alpha, w)[0], 0, 1, epsabs=1e-10, epsrel=1e-10)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha,r,n", [(1, 1, 2), (2, 2, 2), (0.7, 1, 3)])
def test_w_law_cdf_density_consistency(alpha, r, n):
    w = np.linspace(0.05, 0.95, 37)
    h = 1e-6
    _, hi = ll.w_law(r, n, alpha, w + h)
    _, lo = ll.w_law(r, n, alpha, w - h)
    density, _ = ll.w_law(r, n, alpha, w)
    assert np.allclose((hi - lo) / (2 * h), density, atol=1e-5)


def test_j_and_l_cdf_density_consistency():
    h = 1e-7
    x = np.linspace(1.05, 1.0 / 0.35 - 0.05, 31)
    num = (ll.j_law(0.35, 1.4, x + h)[1] - ll.j_law(0.35, 1.4, x - h)[1]) / (2 * h)
    assert np.allclose(num, ll.j_law(0.35, 1.4, x)[0], atol=1e-5)
    x = np.linspace(1.05, 8.0, 31)
    num = (ll.l_law(0.9, x + h)[1] - ll.l_law(0.9, x - h)[1]) / (2 * h)
    assert np.allclose(num, ll.l_law(0.9, x)[0], atol=1e-5)


# --- above-1 laws ----------------------------------------------------------


def test_j_law_examples():
    _, c = ll.j_law(0.5, 1, 2.0)
    assert c == pytest.approx(1.0)  # right endpoint of (1, 1/u)
    _, c = ll.j_law(0.5, 1, 1.5)
    assert c == pytest.approx(2.0 / 3.0)
    d, c = ll.j_law(0.5, 1, 0.9)
    assert d == 0.0 and c == 0.0


def test_j_law_u_to_zero_recovers_l_law():
    # the truncated law approaches the untruncated one at rate u**alpha
    x = np.linspace(1.01, 5.0, 23)
    for alpha in (0.5, 1.0, 2.0):
        _, cj = ll.j_law(1e-15, alpha, x)
        _, cl = ll.l_law(alpha, x)
        assert np.allclose(cj, cl, atol=1e-7)


def test_j_law_density_integrates_to_one():
    total, _ = quad(lambda x: ll.j_law(0.3, 1.5, x)[0], 1.0, 1.0 / 0.3,
                    epsabs=1e-10, epsrel=1e-10)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_l_law_examples():
    _, c = ll.l_law(1.0, 2.0)
    assert c == pytest.approx(0.5)
    _, c = ll.l_law(2.0, 2.0)
    assert c == pytest.approx(0.75)
    _, c = ll.l_law(3.7, 1.0)
    assert c == 0.0
    with pytest.raises(ValueError):
        ll.l_law(1.0, 0.5)


def test_l_law_density_integrates_to_one():
    total, _ = quad(lambda x: ll.l_law(0.8, x)[0], 1.0, np.inf,
                    epsabs=1e-10, epsrel=1e-10)
    assert total == pytest.approx(1.0, abs=1e-8)


# --- order statistic form of the pivot law ---------------------------------


def test_k_orderstat_examples():
    assert ll.k_orderstat_cdf(1, 1, 2.0, 0.5) == pytest.approx(0.25)  # w**alpha
    assert ll.k_orderstat_cdf(2, 1, 1.0, 0.5) == pytest.approx(0.25)
    assert ll.k_orderstat_cdf(1, 2, 1.0, 0.5) == pytest.approx(0.75)


def test_k_orderstat_brute_force_oracle():
    # P(n-th largest of m iid K <= w) by direct enumeration over subsets
    rng_w = [0.2, 0.5, 0.8]
    for r, n, alpha in [(2, 1, 1.0), (1, 2, 1.0), (2, 2, 1.5), (3, 1, 0.5)]:
        m = r + n - 1
        for w in rng_w:
            p = w**alpha
            # at least r of m below w
            brute = sum(
                math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(r, m + 1)
            )
            assert ll.k_orderstat_cdf(r, n, alpha, w) == pytest.approx(brute, abs=1e-14)


def test_k_orderstat_monte_carlo_oracle():
    # second largest of 2 iid K's (r=1, n=2): simulate directly
    u = uniform_grid(404, 0, 200_000, 2) ** (1.0 / 1.0)
    second_largest = np.min(u, axis=1)
    emp = float(np.mean(second_largest <= 0.5))
    assert ll.k_orderstat_cdf(1, 2, 1.0, 0.5) == pytest.approx(emp, abs=5e-3)


# --- successive ratios and the n=1 tail -------------------------------------


def test_successive_ratio_examples():
    assert ll.successive_ratio_cdf(1, 1.0, 0.5) == pytest.approx(0.5)
    assert ll.successive_ratio_cdf(2, 1.0, 0.5) == pytest.approx(0.25)
    assert ll.successive_ratio_cdf(3, 2.0, 0.9) == pytest.approx(0.9**6)


def test_successive_ratio_cdf_takes_one_k_per_column():
    y = uniform_grid(5, 0, 1000, 3)
    k = np.arange(2, 5)
    got = ll.successive_ratio_cdf(k, 1.5, y)
    assert got.tobytes() == (y ** (k * 1.5)[None, :]).tobytes()
    with pytest.raises(ValueError):
        ll.successive_ratio_cdf(np.arange(0, 3), 1.5, y)


def test_successive_ratio_degenerate_conventions():
    y = np.array([0.1, 0.5, 0.99])
    assert np.allclose(ll.successive_ratio_cdf(2, 0.0, y), 1.0)  # mass at 0
    assert np.allclose(ll.successive_ratio_cdf(2, math.inf, y), 0.0)  # mass at 1
    assert ll.successive_ratio_cdf(2, math.inf, 1.0) == 1.0


def test_ratio_tail_examples():
    assert ll.ratio_tail_n1(1, 1.0, 2.0) == pytest.approx(0.5)
    assert ll.ratio_tail_n1(2, 1.0, 2.0) == pytest.approx(0.25)
    assert ll.ratio_tail_n1(3, 0.7, 1.0) == 1.0


# --- Laplace functionals ----------------------------------------------------


def test_nb_laplace_zero_probe():
    probe = ll.LaplaceProbe(0.0, 0.2, 0.8)
    assert ll.nb_laplace(3, 1.0, probe) == 1.0


def test_nb_laplace_void_limit():
    probe = ll.LaplaceProbe(math.inf, 0.5, 1.0)
    assert ll.nb_laplace(2, 1.0, probe) == pytest.approx(0.25)  # a**(n*alpha)


def test_nb_laplace_indicator_closed_form():
    probe = ll.LaplaceProbe(1.0, 0.5, 1.0)
    assert ll.nb_laplace(1, 1.0, probe) == pytest.approx(0.6126998367802820, rel=1e-12)


def test_nb_laplace_ramp_quadrature():
    probe = ll.LaplaceProbe(0.5, 0.4, 0.9, ll.LINEAR_RAMP)
    # reference value from mpmath at 40 digits
    assert ll.nb_laplace(2, 1.5, probe) == pytest.approx(0.35282526460243072, rel=1e-10)


def test_nb_laplace_ramp_pole_divergence():
    # amplitude*x near 0 cannot tame the x**(-alpha-1) pole for alpha >= 1,
    # nor an infinite amplitude at any alpha (quad returned a finite value
    # for that divergent integral, and the functional left [0, 1])
    probe = ll.LaplaceProbe(1.0, 0.0, 0.5, ll.LINEAR_RAMP)
    assert ll.nb_laplace(1, 1.5, probe) == 0.0
    void = ll.LaplaceProbe(math.inf, 0.0, 0.5, ll.LINEAR_RAMP)
    assert ll.nb_laplace(1, 0.5, void) == 0.0
    assert ll.limit_laplace_full(1, 2, 0.5, void) == 0.0


# limit_laplace_full(1, 2, 0.5, linear_ramp(amplitude, a, inf)) from mpmath at
# 40 digits: the above-1 kernel as alpha lam**alpha Gamma(-alpha, lam x) terms,
# integrated over s with mpmath's quad
_RAMP_TAILS = [(0.3, 0.8, 0.32011771085149997958), (0.3, 2.0, 0.63809196709019258387),
               (1.0, 0.8, 0.044631021513603512143), (1.0, 2.0, 0.51876713091024522638),
               (5.0, 0.8, 4.822408180374862815e-6), (5.0, 2.0, 0.5000019151202328158)]


@pytest.mark.parametrize("amplitude,a,want", _RAMP_TAILS)
def test_a_negligible_quadrature_piece_does_not_fail_the_integral(amplitude, a, want):
    # the piece past 40 decay lengths is about 1e-30 and misses the relative
    # tolerance on its own; the error is checked on the whole kernel
    probe = ll.LaplaceProbe(amplitude, a, math.inf, ll.LINEAR_RAMP)
    assert ll.limit_laplace_full(1, 2, 0.5, probe) == pytest.approx(want, rel=1e-12)


def test_laplace_functionals_where_the_base_mass_exceeds_float64():
    # the base mass of (0, b), or of (a, b) with a**-alpha past float64, is
    # infinite: every point there is hit, so the functionals are 0
    for a, b in ((0.0, 1e-320), (1e-320, 1e-300)):
        probe = ll.LaplaceProbe(1.0, a, b)
        assert ll.nb_laplace(1, 1.0, probe) == 0.0
        assert ll.limit_laplace_full(0, 1, 1.0, probe) == 0.0


def test_limit_laplace_factorization_exact():
    # probe supported in (0,1): above-1 factors are exactly 1
    for probe in (ll.LaplaceProbe(1.3, 0.2, 0.9),
                  ll.LaplaceProbe(0.7, 0.1, 0.8, ll.LINEAR_RAMP)):
        for n, alpha in [(1, 1.0), (2, 0.6), (3, 2.0)]:
            full = ll.limit_laplace_full(0, n, alpha, probe)
            nb = ll.nb_laplace(n, alpha, probe)
            assert full == nb


def test_limit_laplace_n1_reduces_to_nb():
    probe = ll.LaplaceProbe(2.0, 0.5, 1.5)
    for r in (0, 1, 3):
        got = ll.limit_laplace_full(r, 1, 1.0, probe)
        want = math.exp(-probe(1.0)) * ll.nb_laplace(r + 1, 1.0, probe)
        assert got == pytest.approx(want, rel=1e-12)


def test_limit_laplace_r0_upper_factor():
    # frozen: E e^{-f(L)} with indicator 1 on (0.8, 1.5), alpha=1
    probe = ll.LaplaceProbe(1.0, 0.8, 1.5)
    got = ll.limit_laplace_full(0, 2, 1.0, probe)
    assert got == pytest.approx(0.21652304430503155, rel=1e-10)
    # probes covering the whole above-1 support, where the factor is tiny;
    # reference values from mpmath at 40 digits, at lam = 20 and 40
    for form, want in ((ll.INDICATOR_STEP, (1.0620885660120249e-18, 4.5121284696135379e-36)),
                       (ll.LINEAR_RAMP, (4.846250599327885e-20, 1.0754837257308142e-37))):
        for lam, value in zip((20.0, 40.0), want):
            got = ll.limit_laplace_full(0, 2, 1.0, ll.LaplaceProbe(lam, 0.5, math.inf, form))
            assert got == pytest.approx(value, rel=1e-10)


def test_limit_laplace_beta_mixture_frozen():
    probe = ll.LaplaceProbe(1.0, 0.5, 1.0)
    assert ll.limit_laplace_full(1, 2, 1.0, probe) == pytest.approx(
        0.23000818656437094, rel=1e-9)
    probe_above = ll.LaplaceProbe(0.8, 1.2, 1.6)
    assert ll.limit_laplace_full(1, 3, 1.0, probe_above) == pytest.approx(
        0.7097400698810118, rel=1e-9)
    # the Beta mixture at probes covering the above-1 support: a ramp once
    # gave a negative value here.  Reference values from mpmath at 40 digits.
    for form, want in ((ll.INDICATOR_STEP, (5.310442835532944e-19, 2.256064234806769e-36)),
                       (ll.LINEAR_RAMP, (4.6423467817545361e-20, 1.0509678377938392e-37))):
        for lam, value in zip((20.0, 40.0), want):
            got = ll.limit_laplace_full(1, 2, 1.0, ll.LaplaceProbe(lam, 0.5, math.inf, form))
            assert got == pytest.approx(value, rel=1e-10)


def test_limit_laplace_monte_carlo_oracle():
    # simulate the limit pattern (gamma-ratio construction) and average
    r, n, alpha = 1, 3, 1.0
    probe = ll.LaplaceProbe(0.8, 1.2, 1.6)
    trials = 200_000
    g = sp.gamma_matrix(2025, trials, r + n, stream_start=0)
    piv = g[:, r + n - 1]
    vals = np.zeros(trials)
    for j in range(1, n):
        vals += probe((g[:, r + j - 1] / piv) ** (-1.0 / alpha))
    # points below 1 lie outside this probe's support; the unit point too
    mc = float(np.mean(np.exp(-vals)))
    want = ll.limit_laplace_full(r, n, alpha, probe)
    se = float(np.std(np.exp(-vals)) / math.sqrt(trials))
    assert abs(mc - want) < 4 * se


def test_phi_conditional_values():
    assert ll.phi_conditional(0.0, 0.5, 1.0) == 1.0
    assert ll.phi_conditional(1.0, 0.5, 1.0) == pytest.approx(
        0.25945675173135364, rel=1e-10)
    assert ll.phi_conditional(0.7, 0.3, 2.0) == pytest.approx(
        0.36101988906237526, rel=1e-10)
    # u -> 1: support collapses to {1}, transform degenerates to e^{-lam}
    assert ll.phi_conditional(2.0, 1 - 1e-9, 1.0) == pytest.approx(
        math.exp(-2.0), rel=1e-6)
    # far below any absolute tolerance; reference values from mpmath's closed
    # form alpha lam**alpha [Gamma(-alpha, lam) - Gamma(-alpha, lam/u)] / (1 - u**alpha)
    for lam, want in ((50.0, 2.0345168399114043e-23), (100.0, 2.0872783349834873e-45),
                      (150.0, 2.7428445105132601e-67), (200.0, 4.0119436529519089e-89)):
        assert ll.phi_conditional(lam, 0.01, 6.0) == pytest.approx(want, rel=1e-10)
    # rejected before any quadrature, so no IntegrationWarning is issued
    for alpha in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="alpha"):
            ll.phi_conditional(0.5, 0.5, alpha)


def test_phi_matches_j_law_expectation():
    lam, u, alpha = 0.9, 0.4, 1.3
    want, _ = quad(lambda x: math.exp(-lam * x) * ll.j_law(u, alpha, x)[0],
                   1.0, 1.0 / u, epsabs=1e-12, epsrel=1e-12)
    assert ll.phi_conditional(lam, u, alpha) == pytest.approx(want, rel=1e-9)


def test_conditional_gamma_values():
    # shape 2 at w=0.5, z=1, alpha=1: P(Gamma_2 <= 2) = 1 - 3e^{-2}
    assert ll.conditional_gamma_cdf(1, 1, 1.0, 0.5, 1.0) == pytest.approx(
        1 - 3 * math.exp(-2), rel=1e-12)
    # shape 1 is the exponential CDF
    got = ll.conditional_gamma_cdf(1, 1, 1.0, 0.5, np.array([0.25]))
    # careful: r=1, n=1 has shape 2; use the dedicated shape-1 identity instead
    assert ll.conditional_gamma_cdf(1, 1, 2.0, 0.9, 1e9) == pytest.approx(1.0)
    assert got[0] == pytest.approx(1 - math.exp(-0.5) * 1.5, rel=1e-12)


@pytest.mark.parametrize("r,n,alpha,w", [(1, 1, 1.0, 0.5), (2, 3, 1.7, 0.31), (3, 1, 0.4, 0.93)])
def test_conditional_gamma_is_time_scale_cdf_at_scaled_z(r, n, alpha, w):
    z = np.linspace(0.0, 12.0, 61)
    got = ll.conditional_gamma_cdf(r, n, alpha, w, z)
    assert got.tobytes() == ll.time_scale_cdf(r + n, w**-alpha * z).tobytes()
    # shape 1 is the exponential law
    assert np.allclose(ll.time_scale_cdf(1, z), -np.expm1(-z), rtol=1e-14, atol=0)


def test_conditional_gamma_shape_one():
    # r + n = 1 is impossible (r >= 1, n >= 1), so check the exponential
    # form through the gamma identity at shape 2 minus the density term
    w, z = 0.7, 0.4
    shape2 = ll.conditional_gamma_cdf(1, 1, 1.0, w, z)
    x = z / w
    assert shape2 == pytest.approx(1 - math.exp(-x) * (1 + x), rel=1e-12)


# --- probes and quadrature specs -------------------------------------------


def test_probe_shapes():
    step = ll.LaplaceProbe(2.0, 0.25, 0.75)
    assert step(0.5) == 2.0 and step(0.25) == 0.0 and step(0.9) == 0.0
    ramp = ll.LaplaceProbe(2.0, 0.25, 0.75, ll.LINEAR_RAMP)
    assert ramp(0.5) == 1.0
    arr = ramp(np.array([0.1, 0.5, 0.7]))
    assert np.allclose(arr, [0.0, 1.0, 1.4])


def test_probe_validation():
    with pytest.raises(ValueError):
        ll.LaplaceProbe(-1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        ll.LaplaceProbe(1.0, 0.6, 0.5)
    with pytest.raises(ValueError):
        ll.LaplaceProbe(1.0, 0.1, 0.5, "spline")
    with pytest.raises(ValueError):
        ll.LaplaceProbe(math.nan, 0.1, 0.5)
    assert ll.LaplaceProbe(math.inf, 0.1, 0.5)(0.3) == math.inf


def test_law_spec_validation():
    for call in (lambda: ll.w_law(1, 1, 0.0, 0.5), lambda: ll.j_law(0.5, 0.0, 1.5),
                 lambda: ll.w_cdf(1, 1, 0.0, 0.5), lambda: ll.j_law(1.5, 1.0, 1.2),
                 lambda: ll.w_law(-1, 1, 1.0, 0.5), lambda: ll.w_cdf(-1, 1, 1.0, 0.5),
                 # nan alpha (inf is the point-mass convention)
                 lambda: ll.successive_ratio_cdf(1, math.nan, 0.5),
                 lambda: ll.ratio_tail_n1(1, math.nan, 2.0)):
        with pytest.raises(ValueError):
            call()


# --- the three-way pivot law identity ---------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r,n", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
def test_pivot_law_three_way_identity(alpha, r, n):
    import scipy.special as ss

    w = np.linspace(0.01, 0.99, 99)
    via_beta = ll.w_law(r, n, alpha, w)[1]
    via_binomial = ll.k_orderstat_cdf(r, n, alpha, w)
    via_library = ss.betainc(r, n, w**alpha)  # independent third route
    assert np.max(np.abs(via_beta - via_binomial)) < 1e-10
    assert np.max(np.abs(via_beta - via_library)) < 1e-10


def test_product_of_ratio_limits_matches_w_law():
    # product of independent Beta(k*alpha, 1) ratios vs the pivot law CDF
    alpha, r, n = 1.0, 1, 2
    trials = 1_000_000
    u = uniform_grid(777, 0, trials, n)
    prod = np.prod(u ** (1.0 / (alpha * np.arange(r, r + n)))[None, :], axis=1)
    emp = EmpiricalDistribution.from_samples(prod)
    ks = ks_distance(emp, lambda w: ll.w_cdf(r, n, alpha, w))
    assert ks < 0.003
