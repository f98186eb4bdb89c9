"""Synthetic benchmark graph families, each one row of FAMILY_TABLE, and
expected-value template models."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, count, integer_vector, real_number, symmetric_matrix
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
    matrix of pairwise connection probabilities. `truth` labels the vertices
    community by community; every graph sampled from the spec shares it."""

    sizes: tuple[int, ...]
    rates: np.ndarray
    truth: GroundTruth = field(init=False, repr=False)

    def __post_init__(self) -> None:
        integer_vector(self.sizes, "community sizes")  # the 1-d shape; each size is then a count as given
        object.__setattr__(self, "sizes", tuple(count(size, "community size", 1) for size in self.sizes))
        rates = symmetric_matrix(self.rates, "rates")
        if rates.shape != (self.k, self.k):
            raise InputError(f"rates must be {self.k} x {self.k}, got {rates.shape}")
        if rates.min() < 0 or rates.max() > 1:
            raise InputError("rates must lie in [0, 1]")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "truth", GroundTruth(np.repeat(np.arange(self.k), self.sizes)))

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)


def sample_graph(spec: CommunitySpec, rng: np.random.Generator) -> tuple[Graph, GroundTruth]:
    """Draw an unweighted graph, returned with the spec's `truth`: each
    cross/intra pair is an independent Bernoulli edge with the rate of its
    community pair. No self-loops.

    Each ordered pair gets one uniform, in row-major order, as from one
    `rng.random((n, n))` call, and the pairs above the diagonal decide the
    edges. Each community's rows are drawn as one block and compared with
    its row of rates, so no n x n float array is built."""
    labels = spec.truth.labels
    n, start = spec.n, 0
    edges = np.empty((n, n), dtype=bool)
    for c, size in enumerate(spec.sizes):
        np.less(rng.random((size, n)), spec.rates[c][labels], out=edges[start : start + size])
        start += size
    upper = np.triu(edges, k=1)
    return Graph(upper | upper.T), spec.truth  # Graph casts the booleans to float once


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
    _check_real(central_inter, "central_inter")
    if not (0 <= central_inter <= 0.9):
        raise InputError("central_inter must lie in [0, 0.9] to keep rates valid")
    return _line_spec((size,) * 4, {(0, 1): 0.1, (1, 2): central_inter, (2, 3): 0.1})


def make_bp(size: int, inter: float, intra_mode: str | None = None) -> CommunitySpec:
    """Two equal communities; 'bipartite' (also None, no shape given) has zero
    intra everywhere, 'hub' gives the second community intra rate 0.5."""
    _check_real(inter, "inter")
    if intra_mode not in (None, *INTRA_MODES):
        raise InputError(f"intra_mode must be 'bipartite' or 'hub', got {intra_mode!r}")
    second = 0.5 if intra_mode == "hub" else 0.0
    rates = np.array([[0.0, inter], [inter, second]])
    return CommunitySpec((size, size), rates)


INTRA_MODES = ("bipartite", "hub")  # bp's shapes
C2_COUPLING = 0.42  # c2's central coupling when none is given
# Every family, defined once: its builder; the coupling it takes after the
# size, as its message names it (None: it takes none); the coupling a grid
# reads when none is given; and its shapes. A new family is appended.
FAMILY_TABLE: dict[str, tuple[Callable, str | None, float | None, tuple[str, ...]]] = {
    "g3": (make_g3, None, None, ()),
    "g6": (make_g6, None, None, ()),
    "c2": (make_c2, "a central coupling", C2_COUPLING, ()),
    "bp": (make_bp, "an inter-connection", None, INTRA_MODES),
}
FAMILIES = tuple(FAMILY_TABLE)


def make_family(name: str, size: int, prob: float | None, intra_mode: str | None) -> CommunitySpec:
    """The named family at one size. `prob` is the coupling its row names,
    required where it takes one and None where it takes none; `intra_mode`
    is a shape of a family that has them, else None (none given). A flag the
    family does not use raises InputError."""
    if not isinstance(name, str) or name not in FAMILY_TABLE:  # a list, unhashable, would raise TypeError
        raise InputError(f"unknown synthetic family {name!r}")
    build, coupling, _, shapes = FAMILY_TABLE[name]
    if coupling is None and prob is not None:
        raise InputError(f"family {name} takes no coupling probability, got {prob}")
    if intra_mode is not None and not shapes:
        raise InputError(f"intra_mode {intra_mode!r} applies only to family bp, not {name}")
    if coupling is not None and prob is None:
        raise InputError(f"{name} experiments need {coupling} probability")
    return build(size, *[arg for arg in (prob, intra_mode) if arg is not None])  # given is taken, as checked above


def _check_real(value: object, what: str) -> None:
    """InputError naming `what` unless `value` is a real number, by
    `graphs.real_number`'s rule."""
    if not real_number(value):
        raise InputError(f"{what} must be a real number, got {value!r}")


def check_sigma(sigma: float) -> None:
    """InputError unless `sigma` is a noise level: a real number, finite and >= 0."""
    _check_real(sigma, "sigma")
    if not 0 <= sigma < np.inf:
        raise InputError(f"sigma must be {'finite' if sigma == np.inf else '>= 0'}, got {sigma}")


def add_model_noise(
    model: TemplateModel, sigma: float, rng: np.random.Generator
) -> TemplateModel:
    """Perturb template weights with symmetric zero-mean Gaussian noise.

    Upper-triangle entries (diagonal included) get i.i.d. N(0, sigma^2)
    draws mirrored below the diagonal; weights are not clamped at zero.
    At sigma 0 the model itself comes back, and nothing is drawn.
    """
    check_sigma(sigma)
    if sigma == 0:
        return model
    k = model.k
    noise = np.zeros((k, k))
    iu = np.triu_indices(k)
    noise[iu] = rng.normal(0.0, sigma, size=len(iu[0]))
    noise = noise + np.triu(noise, k=1).T
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        weights = model.weights + noise
    if not np.isfinite(weights).all():
        raise InputError(f"sigma {sigma} makes the template weights non-finite")
    return TemplateModel(weights)
