"""Synthetic benchmark graph families and expected-value template models.

Four families are provided: a three-community line (g3), a six-community
asymmetric topology (g6), a four-community line with tunable central
coupling (c2), and a two-community family covering bipartite and hub
shapes (bp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, integer_vector, symmetric_matrix
from templateclust.metrics import GroundTruth
from templateclust.template import TemplateModel

# fixed 6-community template topology: a 6-path with one chord (1-3);
# brute force over all 720 vertex permutations shows its automorphism
# group is trivial (tested)
G6_TEMPLATE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (1, 3),
)


@dataclass(frozen=True, eq=False)
class CommunitySpec:
    """Planted-community description: per-community sizes and a symmetric
    matrix of pairwise connection probabilities."""

    sizes: tuple[int, ...]
    rates: np.ndarray

    def __post_init__(self) -> None:
        sizes = integer_vector(self.sizes, "community sizes")
        if sizes.min() < 1:
            raise InputError("every community needs size >= 1")
        rates = symmetric_matrix(self.rates, "rates")
        if rates.shape != (sizes.size, sizes.size):
            raise InputError(f"rates must be {sizes.size} x {sizes.size}, got {rates.shape}")
        if rates.min() < 0 or rates.max() > 1:
            raise InputError("rates must lie in [0, 1]")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "sizes", tuple(sizes.tolist()))

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)


def sample_graph(spec: CommunitySpec, rng: np.random.Generator) -> tuple[Graph, GroundTruth]:
    """Draw an unweighted graph: each cross/intra pair is an independent
    Bernoulli edge with the rate of its community pair. No self-loops."""
    labels = np.repeat(np.arange(spec.k), spec.sizes)
    n = spec.n
    pair_prob = spec.rates[labels[:, None], labels[None, :]]
    upper = np.triu(rng.random((n, n)) < pair_prob, k=1).astype(float)
    return Graph(upper + upper.T), GroundTruth(labels)


def expected_model(spec: CommunitySpec) -> TemplateModel:
    """Expected-value template: diagonal 2 R_jj s_j, off-diagonal R_jk (s_j + s_k)."""
    s = np.asarray(spec.sizes, dtype=float)
    w = spec.rates * (s[:, None] + s[None, :])
    np.fill_diagonal(w, 2.0 * np.diag(spec.rates) * s)
    return TemplateModel(w)


def _line_spec(sizes: tuple[int, ...], inter_edges: dict[tuple[int, int], float]) -> CommunitySpec:
    """Build rates from an inter-community edge map; intra rate of each
    community is the complement of its incident inter rates."""
    k = len(sizes)
    rates = np.zeros((k, k))
    for (a, b), p in inter_edges.items():
        rates[a, b] = rates[b, a] = p
    np.fill_diagonal(rates, 1.0 - rates.sum(axis=1))
    return CommunitySpec(sizes, rates)


def make_g3(size: int) -> CommunitySpec:
    """Three equal communities in a line, inter rate 0.1 on both links."""
    return _line_spec((size,) * 3, {(0, 1): 0.1, (1, 2): 0.1})


def make_g6(size: int) -> CommunitySpec:
    """Six equal communities on the fixed asymmetric topology, inter rate
    0.1 on template edges; intra rate 1 - 0.1 * (template degree)."""
    return _line_spec((size,) * 6, {e: 0.1 for e in G6_TEMPLATE_EDGES})


def make_c2(size: int, central_inter: float) -> CommunitySpec:
    """Four equal communities in a line; the central pair is coupled at
    central_inter, outer links at 0.1, intra rates are the complements."""
    if not (0 <= central_inter <= 0.9):
        raise InputError("central_inter must lie in [0, 0.9] to keep rates valid")
    return _line_spec((size,) * 4, {(0, 1): 0.1, (1, 2): central_inter, (2, 3): 0.1})


def make_bp(size: int, inter: float, intra_mode: str = "bipartite") -> CommunitySpec:
    """Two equal communities; 'bipartite' has zero intra everywhere, 'hub'
    gives the second community intra rate 0.5."""
    if intra_mode not in ("bipartite", "hub"):
        raise InputError(f"intra_mode must be 'bipartite' or 'hub', got {intra_mode!r}")
    second = 0.0 if intra_mode == "bipartite" else 0.5
    rates = np.array([[0.0, inter], [inter, second]])
    return CommunitySpec((size, size), rates)


FAMILIES = ("g3", "g6", "c2", "bp")
C2_COUPLING = 0.42  # c2's central coupling when none is given


def make_family(name: str, size: int, prob: float, intra_mode: str) -> CommunitySpec:
    """The named family at one size. `prob` is the c2 central coupling
    (C2_COUPLING when NaN) or the bp inter rate (required); g3 and g6 take
    none, so it must be NaN for them. `intra_mode` other than 'bipartite'
    applies to bp only. A flag the family does not use raises InputError."""
    if name in ("g3", "g6") and prob == prob:
        raise InputError(f"family {name} takes no coupling probability, got {prob}")
    if name in ("g3", "g6", "c2") and intra_mode != "bipartite":
        raise InputError(f"intra_mode {intra_mode!r} applies only to family bp, not {name}")
    if name == "g3":
        return make_g3(size)
    if name == "g6":
        return make_g6(size)
    if name == "c2":
        return make_c2(size, C2_COUPLING if prob != prob else prob)
    if name == "bp":
        if prob != prob:
            raise InputError("bp experiments need an inter-connection probability")
        return make_bp(size, prob, intra_mode)
    raise InputError(f"unknown synthetic family {name!r}")


def add_model_noise(
    model: TemplateModel, sigma: float, rng: np.random.Generator
) -> TemplateModel:
    """Perturb template weights with symmetric zero-mean Gaussian noise.

    Upper-triangle entries (diagonal included) get i.i.d. N(0, sigma^2)
    draws mirrored below the diagonal; weights are not clamped at zero.
    """
    if not sigma >= 0:
        raise InputError(f"sigma must be >= 0, got {sigma}")
    k = model.k
    noise = np.zeros((k, k))
    iu = np.triu_indices(k)
    noise[iu] = rng.normal(0.0, sigma, size=len(iu[0]))
    noise = noise + np.triu(noise, k=1).T
    return TemplateModel(model.weights + noise)
