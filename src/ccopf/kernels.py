"""Elementwise standard-normal and binomial kernels over scipy.special.

Every normal-law number in the package comes from here: erfc, the normal
CDF/survival pair, the quantile pair, and the truncated-tail inverse
transform of the tail mixture. So does the binomial CDF behind the
exact sa-is scenario count (scenario.sample_size_exact). Each is a thin
wrapper of scipy.special's ndtr, ndtri, erfc or betaincc, so scalars
map to scalars and arrays to arrays of the same shape. BACKEND names the
source. scipy.special (about 0.3 s to import) loads on the first kernel
call, through _special, so commands that never evaluate a normal law or
a count never import it.

Accuracy contract: norm_cdf relative error <= 1e-12 for |z| <= 8,
norm_sf(norm_isf(p)) recovers p to 1e-10 relative, and binom_cdf has
relative error <= 1e-12 at the counts the package resolves.
"""
from __future__ import annotations

import functools

import numpy as np

BACKEND = "scipy"

__all__ = [
    "BACKEND",
    "binom_cdf",
    "erfc",
    "norm_cdf",
    "norm_sf",
    "norm_ppf",
    "norm_isf",
    "tail_quantile",
]


@functools.cache
def _special():
    """scipy.special, imported on the first call."""
    from scipy import special
    return special


def erfc(x):
    """Complementary error function."""
    return _special().erfc(x)


def norm_cdf(z):
    """Standard normal CDF."""
    return _special().ndtr(z)


def norm_sf(z):
    """Standard normal survival function, norm_cdf(-z)."""
    return _special().ndtr(np.negative(z))


def norm_ppf(p):
    """Standard normal quantile (inverse CDF)."""
    return _special().ndtri(p)


def norm_isf(p):
    """Inverse survival function, -norm_ppf(p); stable for small p."""
    return -_special().ndtri(p)


def tail_quantile(beta, p_tail, u):
    """Upper-tail inverse transform beyond the threshold beta.

    Maps uniforms u in (0, 1] to y with survival(y) = p_tail * u, where
    p_tail = norm_sf(beta). The clamp to y >= beta removes the last-ulp
    round-off at u = 1.
    """
    return np.maximum(-_special().ndtri(np.multiply(p_tail, u)), beta)


def binom_cdf(k, n, p):
    """P(Binomial(n, p) <= k), for whole k >= 0 and n >= k.

    The regularized upper incomplete beta function 1 - I_p(k + 1, n - k),
    which is that probability. It takes n as a float and never forms
    1 - p, where scipy.special.bdtr truncates n to a C int (nan above
    2**31 - 1) and evaluates I_{1-p}(n - k, k + 1): bdtr was 8e-12
    relative off at k = 4, n = 11,601, p = 1e-3.
    """
    n = np.asarray(n, dtype=np.float64)  # counts past the C long range too
    return _special().betaincc(np.add(k, 1.0), n - k, p)
