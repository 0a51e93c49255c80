"""Gaussian uncertainty and per-row safety margins.

Fluctuations enter as a zero-mean Gaussian deviation xi of the injection
vector. Each polytope row picks up a margin delta_i so that a dispatch
satisfying the tightened system keeps the row's violation probability at
eta; they also hold R = W U, the one view of xi that every row reads,
and B = rank_factor(R), the rows' Gaussian law in rank R normals.
Rows invisible to the uncertainty (zero variance along the normal)
stay untouched. The inner deviation set {xi : w_i' xi <= delta_i for all i}
is what the margins cover. Its probability pi (estimate_pi, which no
code in the package calls) enters only the filtered sample size bound,
for which nsamples takes --pi from the user. An experiment's certified
sa-is count and sweep1d's come from the total tail mass S instead, by
the one count rule scenario.certified_count: no draw at S <= eta, else
the exact binomial count at eta / S.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import FeasibilityPolytope
from .kernels import norm_isf, norm_sf

# Rows whose projected standard deviation falls below this times the
# largest one are treated as deterministic.
DETERMINISTIC_CUTOFF = 1e-12

# Slack when testing xi against the inner deviation set; absorbs rounding
# on rows orthogonal to the uncertainty.
_CONTAINS_TOL = 1e-12


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean Gaussian deviation model for injections (p.u.).

    cov is the whole model; construction checks that it is square,
    finite, symmetric and positive semidefinite and builds its one
    factor, reduced_factor. compute_margins turns it into the rows' factor
    R = W U; from_reduced maps support coordinates out to the buses, and
    nothing maps back.
    """

    cov: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.cov)):
            raise ValueError("covariance must be finite")
        if self.cov.ndim != 2 or self.cov.shape[0] != self.cov.shape[1]:
            raise ValueError(f"covariance must be square, got {self.cov.shape}")
        if not np.allclose(self.cov, self.cov.T, rtol=1e-8, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        self.cov.setflags(write=False)
        self.reduced_factor  # the one eigendecomposition; raises unless PSD

    @classmethod
    def from_covariance(cls, cov: np.ndarray) -> GaussianSpec:
        """Build a spec from cov, symmetrised against rounding."""
        cov = np.asarray(cov, dtype=float)
        return cls(cov=0.5 * (cov + cov.T))

    @property
    def n(self) -> int:
        return self.cov.shape[0]

    @cached_property
    def reduced_factor(self) -> np.ndarray:
        """Factor U = V sqrt(L) (n x k) with U @ U.T == cov and full column rank.

        L holds the positive eigenvalues of cov and V their eigenvectors.
        Variances below 1e-12 times the largest count as zero; this one
        cutoff sets the support. Raises if an eigenvalue lies below
        -1e-10 times the largest magnitude: cov is then not PSD.
        """
        eigval, eigvec = np.linalg.eigh(self.cov)
        top = float(np.max(np.abs(eigval))) if eigval.size else 0.0
        if np.any(eigval < -1e-10 * top):
            raise ValueError("covariance is not positive semidefinite")
        keep = _support(eigval)
        factor = eigvec[:, keep] * np.sqrt(eigval[keep])
        factor.setflags(write=False)
        return factor

    @property
    def reduced_dim(self) -> int:
        """Dimension of the uncertainty support."""
        return self.reduced_factor.shape[1]

    def from_reduced(self, w: np.ndarray) -> np.ndarray:
        """Map support coordinates w to a full deviation vector U w."""
        return np.asarray(w, dtype=float) @ self.reduced_factor.T


def _support(eigval: np.ndarray) -> np.ndarray:
    """Mask of eigenvalues above 1e-12 times the largest magnitude."""
    top = float(np.max(np.abs(eigval))) if eigval.size else 0.0
    return eigval > 1e-12 * max(top, 1e-300)


def rank_factor(row_factor: np.ndarray) -> np.ndarray:
    """Factor B (n_rows x k, k = rank R) with B @ B.T == R @ R.T, R = row_factor.

    R z, z standard normal, depends only on z's component in R's row
    space, so B z' with k standard normals z' has the same law: a Gaussian
    draw of the rows' projections needs k normals, not R.shape[1].
    B = R V_k, where V_k holds the eigenvectors of R.T @ R whose
    eigenvalues pass the support cutoff of GaussianSpec.reduced_factor,
    so rows that are exact negatives of each other stay so. At full
    column rank B is R itself, the same array, and draws through it are
    the draws through R.
    """
    eigval, eigvec = np.linalg.eigh(row_factor.T @ row_factor)
    keep = _support(eigval)
    if np.all(keep):
        return row_factor
    return row_factor @ eigvec[:, keep]


@dataclass(frozen=True)
class MarginSet:
    """Per-row margins for a fixed polytope / uncertainty / eta.

    delta is the offset shrink in p.u.; beta = delta / sigma is the same
    margin in standard deviations of the row projection (inf on
    deterministic rows, where delta is 0). row_factor is R = W U
    (n_rows x reduced_dim): row i sees support coordinates w as R_i w.
    sigma holds its row norms, the mixture axes are R_i / sigma_i and
    every mixture projection is w @ row_factor.T. draw_factor is
    rank_factor(R) (n_rows x rank R), built with the set: the Gaussian
    draws of the solves and checks go through it, rank R normals per
    draw, and it is row_factor itself at full column rank.
    """

    delta: np.ndarray
    beta: np.ndarray
    eta: float
    row_factor: np.ndarray
    sigma: np.ndarray
    draw_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_rows = self.delta.shape[0]
        for name in ("beta", "sigma"):
            if getattr(self, name).shape != (n_rows,):
                raise ValueError(f"{name} must have shape ({n_rows},)")
        if self.row_factor.ndim != 2 or self.row_factor.shape[0] != n_rows:
            raise ValueError("row_factor needs one row per margin row")
        object.__setattr__(self, "draw_factor", rank_factor(self.row_factor))
        for arr in (self.delta, self.beta, self.row_factor, self.sigma, self.draw_factor):
            arr.setflags(write=False)

    @property
    def stochastic(self) -> np.ndarray:
        """Mask of rows that actually see the uncertainty."""
        return np.isfinite(self.beta)

    @cached_property
    def tail_probs(self) -> np.ndarray:
        """Per-row violation probability Phi(-beta); zero when deterministic.

        Computed once; the mixture weights and the tail mass S read it.
        """
        probs = np.zeros(self.beta.shape)
        probs[self.stochastic] = norm_sf(self.beta[self.stochastic])
        probs.setflags(write=False)
        return probs


@dataclass(frozen=True)
class PiEstimate:
    """Estimated probability of the inner deviation set."""

    value: float
    mode: str
    is_lower_bound: bool
    stderr: float | None = None


def compute_margins(poly: FeasibilityPolytope, g: GaussianSpec, eta: float) -> MarginSet:
    """Margins making each row's violation probability eta.

    For stochastic row i, delta_i = sigma_i * z with z the upper eta
    quantile of the standard normal and sigma_i the norm of row i of
    R = poly.normals @ g.reduced_factor, kept as row_factor. eta must lie
    in (0, 0.5].

    Parameters
    ----------
    poly : FeasibilityPolytope
        Deterministic feasibility system.
    g : GaussianSpec
        Injection deviation model; dimensions must match the polytope.
    eta : float
        Per-row violation probability target.
    """
    if not 0.0 < eta <= 0.5:
        raise ValueError(f"eta must lie in (0, 0.5], got {eta}")
    if poly.n_buses != g.n:
        raise ValueError(
            f"polytope over {poly.n_buses} buses, uncertainty over {g.n}"
        )
    row_factor = poly.normals @ g.reduced_factor
    sigma = np.linalg.norm(row_factor, axis=1)
    top = float(np.max(sigma)) if sigma.size else 0.0
    stochastic = sigma > DETERMINISTIC_CUTOFF * top

    z = float(norm_isf(eta)) + 0.0  # +0.0 normalises -0.0 at eta = 0.5
    delta = np.where(stochastic, sigma * z, 0.0)
    beta = np.where(stochastic, z, np.inf)
    return MarginSet(delta=delta, beta=beta, eta=eta, row_factor=row_factor, sigma=sigma)


def tightened_polytope(poly: FeasibilityPolytope, m: MarginSet) -> FeasibilityPolytope:
    """Shrink offsets by the margins; normals and labels are unchanged."""
    if m.delta.shape[0] != poly.n_rows:
        raise ValueError(
            f"margin set has {m.delta.shape[0]} rows, polytope {poly.n_rows}"
        )
    return FeasibilityPolytope(
        normals=poly.normals,
        offsets=poly.offsets - m.delta,
        labels=poly.labels,
    )


def contains_inner(m: MarginSet, poly: FeasibilityPolytope, xi: np.ndarray) -> bool | np.ndarray:
    """Whether deviation(s) xi lie in the inner set {w_i' xi <= delta_i}.

    Accepts a single vector or a batch with deviations along the last
    axis; returns a bool or a boolean array accordingly.
    """
    if m.delta.shape[0] != poly.n_rows:
        raise ValueError("margin set does not match the polytope")
    xi = np.asarray(xi, dtype=float)
    proj = xi @ poly.normals.T
    inside = np.all(proj <= m.delta + _CONTAINS_TOL, axis=-1)
    return bool(inside) if xi.ndim == 1 else inside


def estimate_pi(
    m: MarginSet,
    g: GaussianSpec,
    mode: str = "union-bound",
    n_samples: int = 100_000,
    seed: int | None = None,
) -> PiEstimate:
    """Probability that a deviation stays inside the inner set.

    'union-bound' returns the closed-form lower bound
    1 - sum_i Phi(-beta_i), clipped at zero; it is conservative and
    needs no sampling. 'monte-carlo' draws deviations from the model,
    projects them onto the rows through m.row_factor and counts the
    fraction inside, reporting a binomial standard error.

    Parameters
    ----------
    m : MarginSet
        Margins defining the inner set.
    g : GaussianSpec
        Deviation model used for sampling (monte-carlo mode).
    mode : str
        'union-bound' or 'monte-carlo'.
    n_samples : int
        Sample count for monte-carlo mode.
    seed : int, optional
        Seed for the sampling stream.
    """
    if mode == "union-bound":
        value = max(0.0, 1.0 - float(np.sum(m.tail_probs)))
        return PiEstimate(value=value, mode=mode, is_lower_bound=True)
    if mode == "monte-carlo":
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        rng = np.random.default_rng(seed)
        proj = rng.standard_normal((n_samples, g.reduced_dim)) @ m.row_factor.T
        inside = np.all(proj <= m.delta + _CONTAINS_TOL, axis=1)
        value = float(np.mean(inside))
        stderr = float(np.sqrt(value * (1.0 - value) / n_samples))
        return PiEstimate(value=value, mode=mode, is_lower_bound=False, stderr=stderr)
    raise ValueError(f"unknown mode {mode!r}; use 'union-bound' or 'monte-carlo'")
