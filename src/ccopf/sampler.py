"""Importance sampling mixture over the polytope's stochastic rows.

Each stochastic row i contributes one mixture component: a standard
Gaussian conditioned on the half-space w_i' xi > delta_i. Components are
weighted proportionally to their tail probabilities p_i, so the mixture
density is q = phi |A| / S, with S = sum(p) the total tail mass and A the
set of half-spaces containing the point. The likelihood ratio phi / q =
S / |A| is therefore at most S outside the inner set, which certifies
the sa-is scenario count (scenario.certified_count derives it: the exact
binomial count at eta / S).
Against the plain Gaussian conditioned on the outside of the inner set,
the ratio is at most the looser M = S / max(p).

Draws, densities and ratios all live in the rows' rank coordinates,
those of the margins' draw_factor B = R V_k (margins.rank_factor), rank
R of them: a row sees a draw w' as B_i w' = R_i (V_k w'), so the mixture
built on B has the rows' law of the one built on the support coordinates
of R, and a draw takes rank R normals (7 on case57, not 41). At full
column rank B is R and these are the support coordinates. The sampler
maps its draws to the buses itself (to_buses). Runs draw the mixture as
sample_mixture_batch blocks of at most scenario.CHUNK (2,048) draws from
one generator, and project each onto the rows through draw_factor
(scenario.scenario_offsets), as they do the plain Gaussian draws, or map
it to the buses; the bundled cases' auto sa-is counts fit one block, and
above CHUNK the blocks define the stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import FeasibilityPolytope
from .kernels import norm_isf  # noqa: F401  (perfbench/test_perfbench.py reads it)
from .kernels import normal_density, tail_quantile
from .margins import GaussianSpec, MarginSet

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class MixtureSampler:
    """Frozen description of the tail mixture.

    reduced_directions holds the component axes as unit vectors in the
    coordinates where sampling and density evaluation run: the rows'
    rank coordinates when build_mixture made it. thresholds are the
    margins in standard deviations, tail_probs the per-component
    half-space probabilities p_i, and row_indices maps components back
    to polytope rows. bus_map (n_buses x reduced_dim) takes those
    coordinates to the buses (to_buses): U V_k from build_mixture, or
    U alone at full column rank. The tail probabilities define the
    rest: the total tail mass S = sum(p), the mixture weights p / S,
    their cumulative sums cdf, which pick each draw's component, and the
    bound M = S / max(p) on the likelihood ratio against the nominal law
    conditioned on the outside of the inner set. The mixture density is
    q = phi |A| / S, so the unconditioned ratio S / |A| is at most S on
    every mixture draw (see importance_ratio). With no stochastic row
    the mixture is empty: K = 0 components and S = 0, which certify
    without a draw, and which have no draw, cdf, density or M (each of
    those refuses it by name).
    """

    reduced_directions: np.ndarray
    thresholds: np.ndarray
    tail_probs: np.ndarray
    row_indices: tuple[int, ...]
    bus_map: np.ndarray

    def __post_init__(self):
        n_comp = self.reduced_directions.shape[0]
        shapes = {
            "thresholds": self.thresholds.shape[0],
            "tail_probs": self.tail_probs.shape[0],
            "row_indices": len(self.row_indices),
        }
        for name, count in shapes.items():
            if count != n_comp:
                raise ValueError(f"{name} has {count} entries for {n_comp} components")
        # each check reads "not inside", so a NaN is refused
        if not np.all((self.tail_probs > 0) & (self.tail_probs <= 0.5)):
            raise ValueError("tail probabilities must lie in (0, 0.5]")
        if not np.all(np.isfinite(self.thresholds)):
            raise ValueError("thresholds must be finite")
        norms = np.linalg.norm(self.reduced_directions, axis=1)
        if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
            raise ValueError("reduced directions must be unit vectors")
        if self.bus_map.ndim != 2 or self.bus_map.shape[1] != self.reduced_dim:
            raise ValueError(
                f"bus_map must have {self.reduced_dim} columns, got shape {self.bus_map.shape}"
            )
        for arr in (self.reduced_directions, self.thresholds, self.tail_probs, self.bus_map):
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
    def cdf(self) -> np.ndarray:
        """Cumulative weights, scaled to end at 1, read-only.

        The array Generator.choice(K, n, p=weights) forms on every call,
        built once: a component drawn as cdf.searchsorted(u, "right")
        from n uniforms u is choice's, from the same stream, bit for bit.
        """
        _require_components(self)
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def M(self) -> float:
        """Ratio bound S / max(p) against the conditioned nominal law."""
        _require_components(self)
        return self.tail_mass / float(np.max(self.tail_probs))

    def to_buses(self, w: np.ndarray) -> np.ndarray:
        """Deviation vectors bus_map w of draws w, one per row."""
        return np.asarray(w, dtype=float) @ self.bus_map.T


def _require_components(ms: MixtureSampler) -> None:
    if ms.n_components == 0:
        raise ValueError("the mixture is empty: it has no component (no stochastic row)")


def build_mixture(poly: FeasibilityPolytope, m: MarginSet, g: GaussianSpec) -> MixtureSampler:
    """Assemble the tail mixture for a tightened polytope.

    Component i's axis is the margins' draw factor B_i over sigma_i, in
    the rows' rank coordinates, and the bus map is U V_k (U alone at
    full column rank, where B is R). Weights are proportional to the
    per-row tail probabilities, the choice that minimises the largest
    likelihood ratio outside the inner set. Where every row is
    deterministic under g the mixture is empty (K = 0 components, tail
    mass S = 0).
    """
    if m.delta.shape[0] != poly.n_rows:
        raise ValueError("margin set does not match the polytope")
    rows = np.nonzero(m.stochastic)[0]
    u = g.reduced_factor
    return MixtureSampler(
        reduced_directions=m.draw_factor[rows] / m.sigma[rows][:, None],
        thresholds=m.beta[rows],
        tail_probs=m.tail_probs[rows],
        row_indices=tuple(int(r) for r in rows),
        bus_map=u if m.rank_basis is None else u @ m.rank_basis,
    )


def sample_mixture_batch(
    ms: MixtureSampler, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n mixture deviations in one batch; returns (n x reduced_dim, components).

    Each row, in the mixture's coordinates (to_buses maps it to the
    buses), picks its component from n uniforms through ms.cdf, as
    rng.choice(K, n, p=ms.weights) would, bit for bit, draws a standard
    normal and replaces its coordinate along its component's axis with a
    truncated-tail draw (kernels.tail_quantile): the quantile of
    p_i * u, u in (0, 1], lies at or above the threshold, so every row
    lands in its component's half-space. The draw order is fixed
    (components, then normals, then tail uniforms) so results are
    reproducible for a given generator state. An empty mixture (no
    stochastic row) has no cdf to draw from and is refused.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    comps = ms.cdf.searchsorted(rng.random(n), side="right")
    z = rng.standard_normal((n, ms.reduced_dim))
    u = 1.0 - rng.random(n)
    y = tail_quantile(ms.thresholds[comps], ms.tail_probs[comps], u)
    axes = ms.reduced_directions[comps]
    w = z + axes * (y - np.einsum("ij,ij->i", axes, z))[:, None]
    return w, comps


def mixture_pdf(ms: MixtureSampler, w: np.ndarray) -> float | np.ndarray:
    """Mixture density phi |A| / S at the mixture's coordinates w.

    w holds one row or a batch of rows of ms.reduced_dim coordinates, as
    sample_mixture_batch returns them; the density is with respect to
    those coordinates. Zero inside the inner set (no component covers
    it). A deviation on the buses of the same width (a full-rank model)
    is silently read as such coordinates. The empty mixture has no
    density and is refused.
    """
    rows, count = _coverage(ms, w)
    values = normal_density(rows) * count / ms.tail_mass
    return values if np.ndim(w) > 1 else float(values[0])


def importance_ratio(ms: MixtureSampler, w: np.ndarray) -> float | np.ndarray:
    """Base-Gaussian over mixture density; inf where the mixture is zero.

    The ratio is S / |A(w)|, with S = ms.tail_mass and A(w) the set of
    component half-spaces containing w, so it is at most S on every
    mixture draw, with equality where exactly one half-space contains
    w. Conditioning the base density on the outside of the inner set
    divides this by the outside probability; the bound ms.M applies to
    that conditioned ratio. w holds the mixture's coordinates, as for
    mixture_pdf, which a deviation on the buses of the same width is
    silently misread as. The empty mixture has no density to divide by
    and is refused.
    """
    _, count = _coverage(ms, w)
    values = np.where(count > 0, ms.tail_mass / np.maximum(count, 1), np.inf)
    return values if np.ndim(w) > 1 else float(values[0])


def _coverage(ms: MixtureSampler, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w as rows of the mixture's coordinates, and the count |A| of half-spaces holding each."""
    _require_components(ms)
    rows = np.atleast_2d(w)
    if rows.ndim != 2 or rows.shape[1] != ms.reduced_dim:
        raise ValueError(
            f"expected rows of {ms.reduced_dim} rank coordinates, got shape {np.shape(w)}"
        )
    return rows, np.count_nonzero(rows @ ms.reduced_directions.T > ms.thresholds, axis=1)
