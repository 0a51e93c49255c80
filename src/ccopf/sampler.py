"""Importance sampling mixture over the polytope's stochastic rows.

Each stochastic row i contributes one mixture component: a standard
Gaussian conditioned on the half-space w_i' xi > delta_i. Components are
weighted proportionally to their tail probabilities p_i, so the mixture
density is q = phi |A| / S, with S = sum(p) the total tail mass and A the
set of half-spaces containing the point. The likelihood ratio phi / q =
S / |A| is therefore at most S outside the inner set, which certifies the
sa-is scenario count (scenario.sample_size_mixture). Against the plain
Gaussian conditioned on the outside of the inner set, the ratio is at
most the looser M = S / max(p). Sampling and densities run in the
reduced coordinates of the uncertainty support, so singular covariances
(fixed loads, slack bus) cost nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FeasibilityPolytope
from .kernels import norm_isf
from .margins import GaussianSpec, MarginSet

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class MixtureSampler:
    """Frozen description of the tail mixture.

    directions holds the component axes as full-space unit vectors (rows
    of the symmetric-root image of the row normals); reduced_directions
    holds the same axes in support coordinates, which is what sampling
    and density evaluation use. thresholds are the margins in standard
    deviations, weights the mixture probabilities, tail_probs the
    per-component half-space probabilities with total tail mass
    S = sum(tail_probs), and M = S / max(tail_probs) the likelihood-ratio
    bound against the nominal law conditioned on the outside of the inner
    set. The unconditioned ratio is at most S on every mixture draw (see
    importance_ratio). row_indices maps components back to polytope
    rows.
    """

    directions: np.ndarray
    reduced_directions: np.ndarray
    thresholds: np.ndarray
    weights: np.ndarray
    tail_probs: np.ndarray
    M: float
    gaussian: GaussianSpec
    row_indices: tuple[int, ...]

    def __post_init__(self):
        n_comp = self.directions.shape[0]
        if n_comp == 0:
            raise ValueError("mixture needs at least one component")
        shapes = {
            "reduced_directions": self.reduced_directions.shape[0],
            "thresholds": self.thresholds.shape[0],
            "weights": self.weights.shape[0],
            "tail_probs": self.tail_probs.shape[0],
            "row_indices": len(self.row_indices),
        }
        for name, count in shapes.items():
            if count != n_comp:
                raise ValueError(f"{name} has {count} entries for {n_comp} components")
        if np.any(self.weights < 0) or abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        if np.any(self.tail_probs <= 0) or np.any(self.tail_probs > 0.5):
            raise ValueError("tail probabilities must lie in (0, 0.5]")
        norms = np.linalg.norm(self.reduced_directions, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise ValueError("reduced directions must be unit vectors")
        for arr in (
            self.directions,
            self.reduced_directions,
            self.thresholds,
            self.weights,
            self.tail_probs,
        ):
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.directions.shape[0]

    @property
    def reduced_dim(self) -> int:
        return self.reduced_directions.shape[1]


def build_mixture(poly: FeasibilityPolytope, m: MarginSet, g: GaussianSpec) -> MixtureSampler:
    """Assemble the tail mixture for a tightened polytope.

    Weights are proportional to the per-row tail probabilities, the
    choice that minimises the largest likelihood ratio outside the inner
    set.

    Raises
    ------
    ValueError
        No stochastic rows: every row is deterministic under g, so there
        is no tail to sample.
    """
    if m.delta.shape[0] != poly.n_rows:
        raise ValueError("margin set does not match the polytope")
    stochastic = m.stochastic
    if not bool(np.any(stochastic)):
        raise ValueError(
            "all rows are deterministic under the uncertainty; "
            "the tail mixture is undefined"
        )
    rows = np.nonzero(stochastic)[0]
    normals = poly.normals[rows]
    sigma = m.sigma[rows]
    beta = m.beta[rows]

    basis, vec, _ = g._reduction
    reduced = (normals @ basis) / sigma[:, None]
    directions = reduced @ vec.T

    probs = m.tail_probs[rows]
    total = float(np.sum(probs))
    weights = probs / total
    bound = total / float(np.max(probs))

    return MixtureSampler(
        directions=directions,
        reduced_directions=reduced,
        thresholds=beta.copy(),
        weights=weights,
        tail_probs=probs,
        M=bound,
        gaussian=g,
        row_indices=tuple(int(r) for r in rows),
    )


def sample_mixture_batch(
    ms: MixtureSampler, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n mixture deviations in one shot; returns (n x buses, components).

    Each row draws a standard normal in the support and replaces its
    coordinate along its component's axis with a truncated-tail draw:
    the quantile of p_i * u, u in (0, 1], lies at or above the
    threshold, so every row lands in its component's half-space.
    The draw order is fixed (components, then normals, then tail
    uniforms) so results are reproducible for a given generator state.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    comps = rng.choice(ms.n_components, size=n, p=ms.weights)
    z = rng.standard_normal((n, ms.reduced_dim))
    u = 1.0 - rng.random(n)
    beta = ms.thresholds[comps]
    probs = ms.tail_probs[comps]
    y = np.maximum(norm_isf(probs * u), beta)
    axes = ms.reduced_directions[comps]
    w = z + axes * (y - np.einsum("ij,ij->i", axes, z))[:, None]
    return ms.gaussian.from_reduced(w), comps


def mixture_pdf(ms: MixtureSampler, xi: np.ndarray) -> float | np.ndarray:
    """Mixture density at xi, in support coordinates.

    The value is a density with respect to the reduced coordinates of the
    uncertainty support; likelihood ratios against the base Gaussian in
    the same coordinates are therefore coordinate-free. Zero inside the
    inner set (no component covers it). Raises if xi lies off the
    support.
    """
    w, scale = _coverage(ms, xi)
    values = _standard_density(w) * scale
    return values if np.asarray(xi).ndim > 1 else float(values[0])


def importance_ratio(ms: MixtureSampler, xi: np.ndarray) -> float | np.ndarray:
    """Base-Gaussian over mixture density; inf where the mixture is zero.

    The ratio is S / |A(xi)|, with S = sum(ms.tail_probs) and A(xi) the
    set of component half-spaces containing xi, so it is at most S on
    every mixture draw, with equality where exactly one half-space
    contains xi. Conditioning the base density on the outside of the
    inner set divides this by the outside probability; the bound ms.M
    applies to that conditioned ratio.
    """
    _, scale = _coverage(ms, xi)
    with np.errstate(divide="ignore"):
        values = np.where(scale > 0, 1.0 / np.where(scale > 0, scale, 1.0), np.inf)
    return values if np.asarray(xi).ndim > 1 else float(values[0])


def _coverage(ms: MixtureSampler, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced coordinates of xi, as rows, and the coverage of each row.

    The coverage sums w_i / p_i over the component half-spaces containing
    the row, so the mixture density there is the base density times it.
    """
    w = np.atleast_2d(ms.gaussian.to_reduced(xi))
    outside = w @ ms.reduced_directions.T > ms.thresholds
    return w, outside @ (ms.weights / ms.tail_probs)


def _standard_density(w: np.ndarray) -> np.ndarray:
    """Standard normal density rows of w (reduced coordinates)."""
    k = w.shape[1]
    return (2.0 * np.pi) ** (-0.5 * k) * np.exp(-0.5 * np.einsum("ij,ij->i", w, w))
