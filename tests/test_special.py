"""Special functions ppratios takes from scipy, checked where the package uses them.

The chi-square survival function is reached through the guarded
``verify._chi2_sf``; the incomplete gamma CDFs of the gates and the log-beta
normalisation of the pivot law are checked against closed forms.  The
incomplete beta is checked through ``limit_laws.w_cdf`` in test_limit_laws.py.
"""

import math

import numpy as np
import pytest
import scipy.special as ss

from ppratios import limit_laws as ll
from ppratios import verify as vf


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.5, 7.0, 25.0])
def test_gammainc_matches_scipy(a):
    # P(a0 + m, x) = P(a0, x) - exp(-x) * sum_{j<m} x**(a0+j) / Gamma(a0+j+1),
    # from P(1/2, x) = erf(sqrt(x)) or P(1, x) = 1 - exp(-x)
    x = np.concatenate([[0.0], np.geomspace(1e-6, 200.0, 300)])
    a0 = a - math.floor(a) or 1.0
    lower = ss.erf(np.sqrt(x)) if a0 == 0.5 else -np.expm1(-x)
    for j in range(int(a - a0)):
        with np.errstate(divide="ignore"):
            lower = lower - np.exp((a0 + j) * np.log(x) - x - math.lgamma(a0 + j + 1))
    assert np.allclose(ss.gammainc(a, x), lower, atol=5e-14)
    assert np.allclose(ss.gammaincc(a, x), 1.0 - lower, atol=5e-14)


def test_gammainc_exponential_case():
    # the conditional top-point law at r + n = 2, alpha = 1, w = 1/2:
    # P(2, 2z) = 1 - exp(-2z) * (1 + 2z)
    z = np.linspace(0, 20, 101)
    got = ll.conditional_gamma_cdf(1, 1, 1.0, 0.5, z)
    assert np.allclose(got, 1 - np.exp(-2 * z) * (1 + 2 * z), atol=1e-14)


def test_gammainc_domain():
    with pytest.raises(ValueError):
        ll.conditional_gamma_cdf(0, 1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ll.conditional_gamma_cdf(1, 1, 1.0, 0.5, -0.5)


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    for dof in (1, 5, 81, 99):
        for stat in (0.5, float(dof), 2.0 * dof):
            assert vf._chi2_sf(stat, dof) == pytest.approx(chi2.sf(stat, dof), abs=1e-12)
    with pytest.raises(ValueError):
        vf._chi2_sf(1.0, 0)


def test_log_beta():
    # the Beta(r, n) normalisation of the pivot density, alpha = 1:
    # r=1, n=1 is uniform; r=2, n=3 is 12 w (1-w)^2
    w = np.linspace(0.05, 0.95, 19)
    density, _ = ll.w_law(1, 1, 1.0, w)
    assert np.allclose(density, 1.0, rtol=1e-14)
    density, _ = ll.w_law(2, 3, 1.0, w)
    assert np.allclose(density, 12.0 * w * (1 - w) ** 2, rtol=1e-13)
