"""Gaussian uncertainty and per-row safety margins.

Fluctuations enter as a zero-mean Gaussian deviation xi of the injection
vector. Each polytope row picks up a margin delta_i so that a dispatch
satisfying the tightened system keeps the row's violation probability at
eta. compute_margins forms R = W U, the one view of xi that every row
reads, and keeps its row norms sigma and B = R V_k from rank_factor(R),
the rows' law in rank R coordinates, where the Gaussian draws and the
tail mixture both live; R itself is not kept. Rows invisible to the
uncertainty (zero variance along the normal) stay untouched. A row
whose variance the draws see only in part is refused by name. The inner
deviation set {xi : w_i' xi <= delta_i for all i} is what the margins
cover. Its probability pi enters only the filtered and importance sample
size bounds, and only as the certified lower bound 1 - S (estimate_pi),
S the total tail mass; nsamples takes --pi from the user. An
experiment's certified sa-is count and sweep1d's come from S
itself, by the one count rule scenario.certified_count: no draw at
S <= eta, else the exact binomial count at eta / S.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import FeasibilityPolytope
from .kernels import norm_isf, norm_sf

# Slack when testing xi against the inner deviation set; absorbs rounding
# on rows orthogonal to the uncertainty.
_CONTAINS_TOL = 1e-12

# Slack on the length of a mixture axis B_i / sigma_i: compute_margins
# refuses a row beyond it, and MixtureSampler any axis.
_UNIT_TOL = 1e-9


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
    """Mask of variances (eigenvalues) above 1e-12 times the largest magnitude."""
    top = float(np.max(np.abs(eigval))) if eigval.size else 0.0
    return eigval > 1e-12 * max(top, 1e-300)


def rank_factor(row_factor: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Factor B (n_rows x k, k = rank R) with B @ B.T == R @ R.T, and its basis.

    R = row_factor. R z, z standard normal, depends only on z's component
    in R's row space, so B z' with k standard normals z' has the same
    law: a Gaussian draw of the rows' projections needs k normals, not
    R.shape[1]. B = R V_k, where V_k holds the eigenvectors of R.T @ R
    whose eigenvalues pass the support cutoff of
    GaussianSpec.reduced_factor, so rows that are exact negatives of
    each other stay so. Returns (B, V_k). At full column rank B is R
    itself, the same array, and V_k is None: draws through B are then
    the draws through R.
    """
    eigval, eigvec = np.linalg.eigh(row_factor.T @ row_factor)
    keep = _support(eigval)
    if np.all(keep):
        return row_factor, None
    basis = eigvec[:, keep]
    return row_factor @ basis, basis


@dataclass(frozen=True)
class MarginSet:
    """Per-row margins for a fixed polytope / uncertainty / eta.

    delta is the offset shrink in p.u.; beta = delta / sigma is the same
    margin in standard deviations of the row projection (inf on
    deterministic rows, where delta is 0). sigma holds the row norms of
    R = W U (n_rows x reduced_dim), the rows' view of the support
    coordinates, which compute_margins forms and does not keep.
    draw_factor B = R V_k (n_rows x rank R) and rank_basis V_k are
    rank_factor(R). Every draw of the solves and checks, Gaussian or
    tail mixture, holds rank R coordinates w' and reaches the rows as
    B w' = R (V_k w'); the mixture axes are B_i / sigma_i, unit vectors
    since B B' = R R'. At full column rank B is R and rank_basis is None.
    """

    delta: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    draw_factor: np.ndarray
    rank_basis: np.ndarray | None = None

    def __post_init__(self):
        n_rows = self.delta.shape[0]
        for name in ("beta", "sigma"):
            if getattr(self, name).shape != (n_rows,):
                raise ValueError(f"{name} must have shape ({n_rows},)")
        if self.draw_factor.ndim != 2 or self.draw_factor.shape[0] != n_rows:
            raise ValueError("draw_factor needs one row per margin row")
        for arr in (self.delta, self.beta, self.sigma, self.draw_factor, self.rank_basis):
            if arr is not None:
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


def compute_margins(poly: FeasibilityPolytope, g: GaussianSpec, eta: float) -> MarginSet:
    """Margins making each row's violation probability eta.

    For stochastic row i, delta_i = sigma_i * z with z the upper eta
    quantile of the standard normal and sigma_i the norm of row i of
    R = poly.normals @ g.reduced_factor, which is formed here and not
    kept. A row is stochastic when the draws move it: its variance as
    they see it, the squared norm of its row of the draw factor
    B = rank_factor(R)[0], passes the one support cut of
    GaussianSpec.reduced_factor (above 1e-12 times the largest). A
    stochastic row must also show the draws all of its spread,
    ||B_i|| = sigma_i within the unit tolerance its mixture axis
    B_i / sigma_i is held to; a row whose variance splits between kept
    and dropped directions is refused by its label. eta must lie in
    (0, 0.5].

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
    # the draws reach row i through row i of B, which rank_factor's cut
    # may zero where sigma_i is far from zero: B alone decides
    draw_factor, rank_basis = rank_factor(row_factor)
    seen = np.einsum("ij,ij->i", draw_factor, draw_factor)
    stochastic = _support(seen)
    split = np.flatnonzero(stochastic & (np.abs(np.sqrt(seen) - sigma) > _UNIT_TOL * sigma))
    if split.size:
        names = ", ".join("{} {}".format(*poly.labels[i]) for i in split)
        raise ValueError(f"rows {names} split their variance between support directions the "
                         "draws keep and ones they drop, so no draw has their law")

    z = float(norm_isf(eta)) + 0.0  # +0.0 normalises -0.0 at eta = 0.5
    delta = np.where(stochastic, sigma * z, 0.0)
    beta = np.where(stochastic, z, np.inf)
    return MarginSet(delta=delta, beta=beta, sigma=sigma, draw_factor=draw_factor,
                     rank_basis=rank_basis)


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


def estimate_pi(m: MarginSet) -> float:
    """Certified lower bound on the probability of the inner set.

    1 - S, S = sum_i Phi(-beta_i) the total tail mass, clipped at zero:
    by the union bound the inner set holds at least this mass. It is the
    certified pi that sample_size_filtered and sample_size_is may take.
    """
    return max(0.0, 1.0 - float(np.sum(m.tail_probs)))
