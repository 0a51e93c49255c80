"""Elementwise standard-normal kernels over scipy.special.

Every normal-law number in the package comes from here: erfc, the normal
CDF/survival pair, the quantile pair, and the truncated-tail inverse
transform of the tail mixture. Each is a thin wrapper of scipy.special's
ndtr, ndtri or erfc, so scalars map to scalars and arrays to arrays of
the same shape. BACKEND names the source. scipy.special (about 0.3 s
to import) loads on the first kernel call, through _special, so
commands that never evaluate a normal law never import it.

Accuracy contract: norm_cdf relative error <= 1e-12 for |z| <= 8, and
norm_sf(norm_isf(p)) recovers p to 1e-10 relative.
"""
from __future__ import annotations

import functools

import numpy as np

BACKEND = "scipy"

__all__ = [
    "BACKEND",
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
