"""Default injection uncertainty: independent per-bus fluctuations.

Deviations scale with the nominal injection magnitude, so buses with no
nominal transfer stay fixed and the slack bus never fluctuates on its
own (its response is implied by balance).
"""
from __future__ import annotations

import numpy as np

from .grid import GridCase
from .margins import GaussianSpec


def build_uncertainty(case: GridCase, sigma_frac: float) -> GaussianSpec:
    """Diagonal Gaussian with sigma_i = sigma_frac * |nominal injection|.

    Standard deviations are in p.u. on the case base. The slack bus and
    buses with zero nominal injection get exact zero variance, keeping
    the uncertainty support low-dimensional.

    Parameters
    ----------
    case : GridCase
        Grid whose nominal injections set the fluctuation scale.
    sigma_frac : float
        Relative fluctuation size, e.g. 0.07 for 7 percent.
    """
    if not 0 <= sigma_frac < np.inf:
        raise ValueError(f"sigma_frac must be finite and non-negative, got {sigma_frac}")
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        sigma = sigma_frac * np.abs(case.nominal_injection)
        sigma[case.slack_index] = 0.0
        var = sigma**2
    if not np.all(np.isfinite(var)):
        raise ValueError(f"sigma_frac {sigma_frac} is too large: the injection variances overflow")
    return GaussianSpec(cov=np.diag(var))
