"""Importance sampling mixture over the polytope's stochastic rows.

Each stochastic row i contributes one mixture component: a standard
Gaussian conditioned on the half-space w_i' xi > delta_i. Components are
weighted proportionally to their tail probabilities p_i, so the mixture
density is q = phi |A| / S, with S = sum(p) the total tail mass and A the
set of half-spaces containing the point. The likelihood ratio phi / q =
S / |A| is therefore at most S outside the inner set, which certifies
the sa-is scenario count (scenario.certified_count, the exact binomial
count at eta / S; scenario.sample_size_mixture is its closed form).
Against the plain Gaussian conditioned on the outside of the inner set,
the ratio is at most the looser M = S / max(p). Draws, densities and ratios all live in
the support coordinates of the uncertainty, so singular covariances cost
nothing. Runs draw the mixture as sample_mixture_batch blocks of at most
scenario.CHUNK (2,048) draws from one generator, and project each onto
the rows (scenario.scenario_offsets) or map it to the buses
(from_reduced); the bundled cases' auto sa-is counts fit one block, and
above CHUNK the blocks define the stream. Their plain Gaussian draws
take rank R normals, through MarginSet.draw_factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import FeasibilityPolytope
from .kernels import norm_isf  # noqa: F401  (perfbench/test_perfbench.py reads it)
from .kernels import tail_quantile
from .margins import GaussianSpec, MarginSet

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class MixtureSampler:
    """Frozen description of the tail mixture.

    reduced_directions holds the component axes as unit vectors in the
    support coordinates of the uncertainty, which is where sampling and
    density evaluation run. thresholds are the margins in standard
    deviations, tail_probs the per-component half-space probabilities
    p_i, and row_indices maps components back to polytope rows. The
    tail probabilities define the rest: the total tail mass
    S = sum(p), the mixture weights p / S, and the bound M = S / max(p)
    on the likelihood ratio against the nominal law conditioned on the
    outside of the inner set. The mixture density is q = phi |A| / S, so
    the unconditioned ratio S / |A| is at most S on every mixture draw
    (see importance_ratio).
    """

    reduced_directions: np.ndarray
    thresholds: np.ndarray
    tail_probs: np.ndarray
    gaussian: GaussianSpec
    row_indices: tuple[int, ...]

    def __post_init__(self):
        n_comp = self.reduced_directions.shape[0]
        if n_comp == 0:
            raise ValueError("mixture needs at least one component")
        shapes = {
            "thresholds": self.thresholds.shape[0],
            "tail_probs": self.tail_probs.shape[0],
            "row_indices": len(self.row_indices),
        }
        for name, count in shapes.items():
            if count != n_comp:
                raise ValueError(f"{name} has {count} entries for {n_comp} components")
        if np.any(self.tail_probs <= 0) or np.any(self.tail_probs > 0.5):
            raise ValueError("tail probabilities must lie in (0, 0.5]")
        norms = np.linalg.norm(self.reduced_directions, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise ValueError("reduced directions must be unit vectors")
        for arr in (self.reduced_directions, self.thresholds, self.tail_probs):
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.reduced_directions.shape[0]

    @property
    def reduced_dim(self) -> int:
        return self.reduced_directions.shape[1]

    @cached_property
    def tail_mass(self) -> float:
        """Total tail mass S = sum(tail_probs)."""
        return float(np.sum(self.tail_probs))

    @cached_property
    def weights(self) -> np.ndarray:
        """Mixture probabilities p / S, read-only."""
        weights = self.tail_probs / self.tail_mass
        weights.setflags(write=False)
        return weights

    @cached_property
    def M(self) -> float:
        """Ratio bound S / max(p) against the conditioned nominal law."""
        return self.tail_mass / float(np.max(self.tail_probs))


def build_mixture(poly: FeasibilityPolytope, m: MarginSet, g: GaussianSpec) -> MixtureSampler:
    """Assemble the tail mixture for a tightened polytope.

    Component i's axis is the margins' row factor R_i over sigma_i.
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
    return MixtureSampler(
        reduced_directions=m.row_factor[rows] / m.sigma[rows][:, None],
        thresholds=m.beta[rows],
        tail_probs=m.tail_probs[rows],
        gaussian=g,
        row_indices=tuple(int(r) for r in rows),
    )


def sample_mixture_batch(
    ms: MixtureSampler, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n mixture deviations in one batch; returns (n x reduced_dim, components).

    Each row, in support coordinates (from_reduced maps it to the buses),
    draws a standard normal and replaces its coordinate along its
    component's axis with a truncated-tail draw (kernels.tail_quantile):
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
    y = tail_quantile(ms.thresholds[comps], ms.tail_probs[comps], u)
    axes = ms.reduced_directions[comps]
    w = z + axes * (y - np.einsum("ij,ij->i", axes, z))[:, None]
    return w, comps


def mixture_pdf(ms: MixtureSampler, w: np.ndarray) -> float | np.ndarray:
    """Mixture density phi |A| / S at support coordinates w.

    w holds one row or a batch of rows of ms.reduced_dim support
    coordinates, as sample_mixture_batch returns them; the density is
    with respect to those coordinates. Zero inside the inner set (no
    component covers it). Under a full-rank model a bus-space deviation
    has the same width and is silently read as support coordinates.
    """
    rows, count = _coverage(ms, w)
    values = _standard_density(rows) * count / ms.tail_mass
    return values if np.ndim(w) > 1 else float(values[0])


def importance_ratio(ms: MixtureSampler, w: np.ndarray) -> float | np.ndarray:
    """Base-Gaussian over mixture density; inf where the mixture is zero.

    The ratio is S / |A(w)|, with S = ms.tail_mass and A(w) the set of
    component half-spaces containing w, so it is at most S on every
    mixture draw, with equality where exactly one half-space contains
    w. Conditioning the base density on the outside of the inner set
    divides this by the outside probability; the bound ms.M applies to
    that conditioned ratio. w holds support coordinates, as for
    mixture_pdf; a full-rank model silently misreads a bus-space deviation.
    """
    _, count = _coverage(ms, w)
    values = np.where(count > 0, ms.tail_mass / np.maximum(count, 1), np.inf)
    return values if np.ndim(w) > 1 else float(values[0])


def _coverage(ms: MixtureSampler, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w as rows of support coordinates, and the count |A| of half-spaces holding each."""
    rows = np.atleast_2d(w)
    if rows.ndim != 2 or rows.shape[1] != ms.reduced_dim:
        raise ValueError(
            f"expected rows of {ms.reduced_dim} support coordinates, got shape {np.shape(w)}"
        )
    return rows, np.count_nonzero(rows @ ms.reduced_directions.T > ms.thresholds, axis=1)


def _standard_density(w: np.ndarray) -> np.ndarray:
    """Standard normal density rows of w (reduced coordinates)."""
    k = w.shape[1]
    return (2.0 * np.pi) ** (-0.5 * k) * np.exp(-0.5 * np.einsum("ij,ij->i", w, w))
