"""Accuracy and contract tests for the normal-distribution kernels.

Reference values were computed once with mpmath at 40 significant digits,
evaluated at the exact binary double arguments, so the tables below test
the algorithms rather than decimal-to-binary conversion of the inputs.
The sweeps further down compute theirs with mpmath as they run, and
cross-check against scipy.special, which the package itself never loads.
"""
from __future__ import annotations

import warnings

import mpmath
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


# ---------------------------------------------------------------------------
# sweeps against mpmath, and the cross-check against scipy.special

# p in [1e-300, 1): log-spaced down the lower tail, uniform across the
# middle, and log-spaced up to 1 - 1e-12 in the upper tail
SWEEP_P = np.unique(np.concatenate([
    np.logspace(-300, 0, 151)[:-1],
    np.random.default_rng(11).random(60),
    1.0 - np.logspace(-12, -0.5, 40),
]))


def mp_isf(p: float) -> mpmath.mpf:
    """Upper p quantile of the standard normal, to 40 digits."""
    with mpmath.workdps(40):
        target = mpmath.mpf(p)
        start = -float(kernels.norm_ppf(p))
        return mpmath.findroot(lambda x: mpmath.ncdf(-x) - target, start)


def max_rel_err(got, want) -> float:
    """Largest relative error; a zero reference must be met exactly."""
    return max(float(abs((mpmath.mpf(float(g)) - w) / (w or 1))) for g, w in zip(got, want))


@pytest.fixture(scope="module")
def isf_reference():
    return [mp_isf(float(p)) for p in SWEEP_P]


def test_isf_and_ppf_match_mpmath(isf_reference):
    # contract: relative error <= 1e-15 over [1e-300, 1 - 1e-12];
    # scipy.special.ndtri's is 4e-16 on the same points
    assert max_rel_err(kernels.norm_isf(SWEEP_P), isf_reference) <= 1e-15
    assert max_rel_err(kernels.norm_ppf(SWEEP_P), [-w for w in isf_reference]) <= 1e-15


def test_ppf_agrees_with_scipy_ndtri():
    special = pytest.importorskip("scipy.special")
    np.testing.assert_allclose(kernels.norm_ppf(SWEEP_P), special.ndtri(SWEEP_P), rtol=2e-15)


@pytest.mark.parametrize("beta", [0.0, 2.0, 8.0, 30.0])
def test_tail_quantile_matches_mpmath(beta):
    p_tail = kernels.norm_sf(beta)
    u = np.logspace(-250 if beta < 30.0 else -100, 0, 41)
    p = p_tail * u  # the product the kernel forms, rounded alike
    want = [max(mp_isf(float(x)), mpmath.mpf(beta)) for x in p]
    assert max_rel_err(kernels.tail_quantile(beta, p_tail, u), want) <= 1e-15


def test_cdf_and_sf_match_mpmath():
    # contract: norm_cdf to 2e-14 relative for |z| <= 8, and norm_sf to
    # 1e-12 for z up to 37, where erfc's argument z / sqrt(2), rounded to
    # a double, sets the error
    z = np.linspace(-8.0, 8.0, 161)
    with mpmath.workdps(40):
        cdf = [mpmath.ncdf(mpmath.mpf(float(x))) for x in z]
        deep = np.linspace(8.0, 37.0, 59)
        sf = [mpmath.ncdf(-mpmath.mpf(float(x))) for x in deep]
    assert max_rel_err(kernels.norm_cdf(z), cdf) <= 2e-14
    assert max_rel_err(kernels.norm_sf(deep), sf) <= 1e-12


def test_erfc_matches_mpmath():
    # math.erfc; scipy.special.erfc is up to 6e-14 off on these points
    x = np.linspace(-6.0, 26.0, 321)
    with mpmath.workdps(40):
        want = [mpmath.erfc(mpmath.mpf(float(v))) for v in x]
    assert max_rel_err(kernels.erfc(x), want) <= 1e-15


def test_cdf_agrees_with_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(-37.0, 8.0, 451)
    np.testing.assert_allclose(kernels.norm_cdf(z), special.ndtr(z), rtol=4e-13)
    x = np.linspace(-6.0, 6.0, 241)
    np.testing.assert_allclose(kernels.erfc(x), special.erfc(x), rtol=2e-13)


def test_quantile_edge_values():
    p = np.array([0.0, -0.0, 1.0, -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, np.inf, -np.inf, np.nan])
    want = [-np.inf, -np.inf, np.inf] + [np.nan] * 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division or invalid-value warning either
        got = kernels.norm_ppf(p)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(kernels.norm_isf(p), [-w for w in want])
        assert kernels.norm_ppf(0.0) == -np.inf and kernels.norm_isf(0.0) == np.inf
        assert np.isnan(kernels.norm_ppf(np.nan)) and np.isnan(kernels.norm_isf(1.5))
        # the smallest subnormal stays finite, far in the tail
        assert -39.0 < kernels.norm_ppf(5e-324) < -38.0


KERNEL_CALLS = {
    "erfc": kernels.erfc,
    "norm_cdf": kernels.norm_cdf,
    "norm_sf": kernels.norm_sf,
    "norm_ppf": lambda x: kernels.norm_ppf(np.abs(x) / 2.0),
    "norm_isf": lambda x: kernels.norm_isf(np.abs(x) / 2.0),
    "tail_quantile": lambda x: kernels.tail_quantile(1.0, 0.15, 1.0 - np.abs(x) / 2.0),
    "binom_cdf": lambda x: kernels.binom_cdf(3, 100, np.abs(x) / 2.0),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_scalars_give_floats_and_arrays_keep_their_shape(name):
    call = KERNEL_CALLS[name]
    scalar = call(0.25)
    assert isinstance(scalar, float) and np.ndim(scalar) == 0
    assert isinstance(call(np.float64(0.25)), float)
    assert isinstance(call(np.array(0.25)), float)  # a 0-d array gives a scalar too
    for shape in [(0,), (3,), (2, 3)]:
        out = call(np.full(shape, 0.25))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
        assert np.all(out == scalar)
