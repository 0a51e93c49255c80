"""Accuracy and contract tests for the normal-distribution kernels.

Reference values were computed once with mpmath at 40 significant digits,
evaluated at the exact binary double arguments, so the tables below test
the algorithms rather than decimal-to-binary conversion of the inputs.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccopf import kernels

# (z, Phi(z)) with Phi the standard normal CDF
CDF_TABLE = [
    (-8.0, 6.2209605742717841235e-16),
    (-5.5, 1.8989562465887719384e-08),
    (-4.0, 3.1671241833119921254e-05),
    (-2.2, 0.013903447513498604313),
    (-1.0, 0.15865525393145705141),
    (-0.3, 0.38208857781104736693),
    (0.0, 0.5),
    (0.123456789, 0.54912730507814208782),
    (0.5, 0.69146246127401310364),
    (1.0, 0.84134474606854294859),
    (1.6448536269514722, 0.94999999999999994607),
    (2.33, 0.99009692444083574979),
    (3.09, 0.99899921752338598912),
    (4.7, 0.99999869919254608272),
    (6.0, 0.99999999901341235496),
    (8.0, 0.9999999999999993779),
]

# (p, Phi^{-1}(p))
PPF_TABLE = [
    (1e-300, -37.047096299361199237),
    (1e-100, -21.273453560965324294),
    (1e-20, -9.2623400897984075796),
    (1e-12, -7.0344838253011319326),
    (1e-09, -5.9978070150076868614),
    (3.1671241833119924e-05, -3.999999999999999977),
    (0.005, -2.5758293035489007538),
    (0.01, -2.3263478740408410931),
    (0.025, -1.9599639845400542118),
    (0.05, -1.644853626951472688),
    (0.1, -1.2815515655446004353),
    (0.3, -0.52440051270804081597),
    (0.7, 0.52440051270804065631),
    (0.95, 1.6448536269514722843),
    (0.975, 1.9599639845400538556),
    (0.99, 2.3263478740408407676),
    (0.999999, 4.7534243088170877657),
    (0.99999999999, 6.7060231434147472662),
]

# (beta, Phi(-beta)), the tail masses the sampler works with
SF_TABLE = [
    (0.0, 0.5),
    (1.0, 0.15865525393145705141),
    (2.0, 0.0227501319481792072),
    (4.0, 3.1671241833119921254e-05),
    (8.0, 6.2209605742717841235e-16),
]


def test_cdf_reference_table():
    for z, want in CDF_TABLE:
        got = kernels.norm_cdf(z)
        assert got == pytest.approx(want, rel=2e-14), f"norm_cdf({z})"


def test_ppf_reference_table():
    for p, want in PPF_TABLE:
        got = kernels.norm_ppf(p)
        assert got == pytest.approx(want, rel=5e-15), f"norm_ppf({p})"
    assert kernels.norm_ppf(0.5) == 0.0


def test_sf_reference_table():
    for beta, want in SF_TABLE:
        assert kernels.norm_sf(beta) == pytest.approx(want, rel=2e-14)


def test_sf_is_cdf_reflected():
    z = np.linspace(-8.5, 8.5, 101)
    assert np.array_equal(kernels.norm_sf(z), kernels.norm_cdf(-z))


def test_isf_is_negated_ppf():
    p = np.logspace(-14, np.log10(0.5), 60)
    assert np.array_equal(kernels.norm_isf(p), -kernels.norm_ppf(p))


def test_round_trip_meets_contract():
    # documented contract: norm_sf(norm_isf(p)) recovers p to 1e-10 relative
    p = np.concatenate([np.logspace(-14, np.log10(0.5), 400), [0.5]])
    back = kernels.norm_sf(kernels.norm_isf(p))
    assert np.max(np.abs(back - p) / p) < 1e-10


def test_erfc_special_values():
    assert kernels.erfc(0.0) == pytest.approx(1.0, rel=1e-15)
    # erfc(-x) + erfc(x) = 2
    x = np.linspace(0.1, 5.0, 25)
    np.testing.assert_allclose(kernels.erfc(x) + kernels.erfc(-x), 2.0, rtol=1e-14)


def test_scalar_in_scalar_out():
    assert isinstance(kernels.norm_cdf(0.3), float)
    assert isinstance(kernels.norm_isf(0.05), float)
    out = kernels.norm_cdf(np.zeros((2, 3)))
    assert out.shape == (2, 3)
    assert np.all(out == 0.5)


@given(st.floats(min_value=1e-13, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(p: float):
    back = kernels.norm_sf(kernels.norm_isf(p))
    assert abs(back - p) <= 1e-10 * p


@given(st.floats(min_value=-8.0, max_value=8.0), st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_cdf_monotone(a: float, b: float):
    lo, hi = sorted((a, b))
    assert kernels.norm_cdf(lo) <= kernels.norm_cdf(hi)


# ---------------------------------------------------------------------------
# truncated-tail inverse transform

def test_tail_quantile_clamps_at_threshold():
    beta = 1.5
    p_tail = kernels.norm_sf(beta)
    y = kernels.tail_quantile(beta, p_tail, np.array([1.0]))
    assert y[0] == pytest.approx(beta, abs=1e-12)
    # u = 1 maps to the threshold itself; no draw may fall below it
    u = 1.0 - np.random.default_rng(3).random(5000)
    assert np.all(kernels.tail_quantile(beta, p_tail, u) >= beta - 1e-12)


def test_tail_quantile_inverts_conditional_cdf():
    # survival(y) = p_tail * u is the defining identity
    for beta in (0.0, 1.0, 3.0):
        p_tail = kernels.norm_sf(beta)
        u = np.logspace(-8, 0, 50)
        y = kernels.tail_quantile(beta, p_tail, u)
        back = kernels.norm_sf(y) / p_tail
        np.testing.assert_allclose(back, u, rtol=1e-9)


def test_tail_quantile_deep_threshold_stays_finite():
    p_tail = kernels.norm_sf(8.0)
    y = kernels.tail_quantile(8.0, p_tail, np.array([1e-6, 0.5, 1.0]))
    assert np.all(np.isfinite(y))
    assert np.all(y >= 8.0 - 1e-12)
