import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    CommunitySpec,
    Graph,
    InputError,
    add_model_noise,
    closest_orthonormal,
    expected_model,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    model_from_ground_truth,
    sample_graph,
)
from templateclust.synth import FAMILIES, G6_TEMPLATE_EDGES, make_family

from conftest import edge_weight, traced_peak


class TestSampleGraph:
    def test_zero_rates_empty_graph(self, rng):
        spec = CommunitySpec((3, 3), np.zeros((2, 2)))
        g, gt = sample_graph(spec, rng)
        assert g.adjacency.sum() == 0
        assert np.array_equal(gt.labels, [0, 0, 0, 1, 1, 1])

    def test_samples_share_the_spec_truth(self, rng):
        spec = CommunitySpec((2, 3), np.full((2, 2), 0.5))
        assert np.array_equal(spec.truth.labels, [0, 0, 1, 1, 1])
        assert sample_graph(spec, rng)[1] is spec.truth
        assert sample_graph(spec, rng)[1] is spec.truth

    def test_unit_rates_complete_graph(self, rng):
        spec = CommunitySpec((3, 3), np.ones((2, 2)))
        g, _ = sample_graph(spec, rng)
        assert np.array_equal(g.adjacency, np.ones((6, 6)) - np.eye(6))

    def test_structural_invariants(self, rng):
        spec = make_c2(5, 0.42)
        g, gt = sample_graph(spec, rng)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}
        assert np.array_equal(np.bincount(gt.labels), spec.sizes)

    def test_edge_count_expectation(self):
        # binomial oracle: one community of 10 at rate 0.8 has
        # 45 pairs, mean 36 edges, sd sqrt(45*0.8*0.2) per sample
        spec = CommunitySpec((10,), np.array([[0.8]]))
        rng = np.random.default_rng(8)
        reps = 10_000
        counts = np.empty(reps)
        for i in range(reps):
            g, _ = sample_graph(spec, rng)
            counts[i] = edge_weight(g)
        assert abs(counts.mean() - 45 * 0.8) <= 1.0

    def test_block_densities_converge(self):
        spec = make_g3(30)
        rng = np.random.default_rng(11)
        g, gt = sample_graph(spec, rng)
        for a, b in itertools.combinations_with_replacement(range(3), 2):
            mask_a = gt.labels == a
            mask_b = gt.labels == b
            block = g.adjacency[np.ix_(mask_a, mask_b)]
            if a == b:
                pairs = 30 * 29 / 2
                observed = block.sum() / 2
            else:
                pairs = 30 * 30
                observed = block.sum()
            p = spec.rates[a, b]
            sd = np.sqrt(pairs * p * (1 - p))
            assert abs(observed - pairs * p) <= 3 * sd + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.integers(1, 40),
        coupling=st.floats(0.0, 0.9),
        hub=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_float_sum(self, family, size, coupling, hub, seed):
        # oracle: the same draw and comparison, with the upper triangle cast
        # to float and added to its transpose
        prob = coupling if family in ("c2", "bp") else None
        spec = make_family(family, size, prob, "hub" if hub and family == "bp" else None)
        g, gt = sample_graph(spec, np.random.default_rng(seed))
        labels = np.repeat(np.arange(spec.k), spec.sizes)
        rng = np.random.default_rng(seed)
        pair_prob = spec.rates[labels[:, None], labels[None, :]]
        upper = np.triu(rng.random((spec.n, spec.n)) < pair_prob, k=1).astype(float)
        expected = upper + upper.T
        assert np.array_equal(g.adjacency, expected)
        assert g.adjacency.tobytes() == expected.tobytes()
        assert np.array_equal(gt.labels, labels)

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 15), min_size=1, max_size=6),
        rates=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=21, max_size=21),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blockwise_draw_is_one_n_by_n_draw(self, sizes, rates, seed):
        """Oracle: one rng.random((n, n)) call compared with the gathered
        n x n rate matrix. Same edges bit for bit, and the generators end in
        the same state."""
        k = len(sizes)
        r = np.zeros((k, k))
        r[np.triu_indices(k)] = rates[: k * (k + 1) // 2]
        spec = CommunitySpec(tuple(sizes), r + np.triu(r, 1).T)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        g, _ = sample_graph(spec, rng)
        labels = np.repeat(np.arange(k), sizes)
        upper = np.triu(reference.random((spec.n, spec.n)) < spec.rates[labels][:, labels], 1)
        assert g.adjacency.tobytes() == (upper | upper.T).astype(float).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_peak_memory_below_one_and_a_half_adjacencies(self):
        """At g6/200's n = 1200 sampling builds no n x n float array besides
        the graph's adjacency."""
        (g, _), peak = traced_peak(lambda: sample_graph(make_g6(200), np.random.default_rng(0)))
        assert peak < 1.5 * g.adjacency.nbytes


class TestCommunitySpec:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rate_named(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            CommunitySpec((3, 3), np.array([[0.5, bad], [bad, 0.5]]))

    @pytest.mark.parametrize(
        "sizes, rates, message",
        [
            ((3, 0), np.eye(2), "every community needs size >= 1"),
            ((3, 3), np.eye(3), r"rates must be 2 x 2, got \(3, 3\)"),
            ((3, 3), np.full((2, 2), 1.5), r"rates must lie in \[0, 1\]"),
            ((3, 3), -np.eye(2), r"rates must lie in \[0, 1\]"),
        ],
        ids=["empty-community", "rates-shape", "rate-above-one", "negative-rate"],
    )
    def test_bad_sizes_or_rates_named(self, sizes, rates, message):
        with pytest.raises(InputError, match=message):
            CommunitySpec(sizes, rates)


class TestExpectedModel:
    def test_zero_rates(self):
        spec = CommunitySpec((4, 4), np.zeros((2, 2)))
        assert np.array_equal(expected_model(spec).weights, np.zeros((2, 2)))

    def test_two_community_formulas(self):
        spec = CommunitySpec((4, 4), np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.allclose(expected_model(spec).weights, [[7.2, 0.8], [0.8, 7.2]])

    def test_single_community(self):
        spec = CommunitySpec((10,), np.array([[0.5]]))
        assert expected_model(spec).weights[0, 0] == pytest.approx(10.0)


SCALE_SPECS = {
    "c2-10-0.60": make_c2(10, 0.60),
    "unequal-3-5-9": CommunitySpec((3, 5, 9), np.array([[0.7, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.5]])),
}


@pytest.mark.parametrize("name", SCALE_SPECS)
class TestTemplateScales:
    """Each template builder's scale against the compression C = P^T E[A] P,
    where E[A] is the spec's expected adjacency (zero diagonal) and P the
    truth's closest orthonormal frame, at which the planted frame has zero
    expected misfit. S is the diagonal matrix of community sizes."""

    @staticmethod
    def compression(spec: CommunitySpec) -> tuple[np.ndarray, np.ndarray]:
        labels = spec.truth.labels
        expected = spec.rates[labels][:, labels]
        np.fill_diagonal(expected, 0.0)
        p = closest_orthonormal(spec.truth).matrix
        return expected, p.T @ expected @ p

    def test_block_sums_are_the_size_weighted_compression(self, name):
        spec = SCALE_SPECS[name]
        expected, c = self.compression(spec)
        half = np.sqrt(spec.sizes)
        weights = model_from_ground_truth(Graph(expected), spec.truth).weights
        np.testing.assert_allclose(weights, half[:, None] * c * half, rtol=0, atol=1e-12)

    def test_expected_value_template_ratios(self, name):
        # off the diagonal (s_a + s_b) / sqrt(s_a s_b), on it 2 s_a / (s_a - 1):
        # 2x the compression only off the diagonal and only at equal sizes
        spec = SCALE_SPECS[name]
        _, c = self.compression(spec)
        s = np.asarray(spec.sizes, dtype=float)
        ratio = (s[:, None] + s) / np.sqrt(np.outer(s, s))
        np.fill_diagonal(ratio, 2.0 * s / (s - 1.0))
        np.testing.assert_allclose(expected_model(spec).weights, ratio * c, rtol=0, atol=1e-12)


class TestFamilies:
    def test_g3_rates(self):
        spec = make_g3(5)
        assert spec.sizes == (5, 5, 5)
        expected = np.array(
            [[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]]
        )
        assert np.allclose(spec.rates, expected)

    def test_g3_minimal(self):
        assert make_g3(1).n == 3

    def test_g3_model_diagonal(self):
        diag = np.diag(expected_model(make_g3(10)).weights)
        assert np.allclose(diag, [18.0, 16.0, 18.0])

    def test_g6_template_automorphism_free(self):
        adj = np.zeros((6, 6), dtype=int)
        for a, b in G6_TEMPLATE_EDGES:
            adj[a, b] = adj[b, a] = 1
        autos = 0
        for perm in itertools.permutations(range(6)):
            p = np.array(perm)
            if np.array_equal(adj[np.ix_(p, p)], adj):
                autos += 1
        assert autos == 1  # identity only

    def test_g6_intra_rates(self):
        spec = make_g6(5)
        adj_deg = np.zeros(6)
        for a, b in G6_TEMPLATE_EDGES:
            adj_deg[a] += 1
            adj_deg[b] += 1
        assert np.allclose(np.diag(spec.rates), 1.0 - 0.1 * adj_deg)
        # a degree-2 community has intra rate 0.8
        assert 0.8 in np.round(np.diag(spec.rates), 10)
        assert spec.n == 30

    def test_c2_complement_rule(self):
        spec = make_c2(8, 0.42)
        assert np.allclose(np.diag(spec.rates), [0.9, 0.48, 0.48, 0.9])
        spec = make_c2(8, 0.5)
        assert np.allclose(np.diag(spec.rates), [0.9, 0.4, 0.4, 0.9])
        spec = make_c2(8, 0.9)
        assert np.allclose(np.diag(spec.rates), [0.9, 0.0, 0.0, 0.9])

    def test_bp_specs(self):
        spec = make_bp(4, 1.0, "bipartite")
        g, _ = sample_graph(spec, np.random.default_rng(0))
        assert g.adjacency[:4, :4].sum() == 0
        assert g.adjacency[4:, 4:].sum() == 0
        assert g.adjacency[:4, 4:].sum() == 16
        hub = make_bp(10, 0.6, "hub")
        assert np.allclose(hub.rates, [[0.0, 0.6], [0.6, 0.5]])
        model = expected_model(make_bp(10, 0.6, "bipartite"))
        assert np.allclose(model.weights, [[0.0, 12.0], [12.0, 0.0]])

    def test_bad_intra_mode(self):
        with pytest.raises(InputError):
            make_bp(4, 0.5, "star")


class TestMakeFamily:
    @pytest.mark.parametrize(
        "name, prob, intra_mode, direct",
        [
            ("g3", None, None, make_g3(7)),
            ("g6", None, None, make_g6(7)),
            ("c2", 0.3, None, make_c2(7, 0.3)),
            # c2's default coupling is ExperimentConfig's, so make_family has none
            ("c2", None, None, pytest.raises(InputError, match="c2 experiments need a central coupling")),
            ("bp", 0.6, "bipartite", make_bp(7, 0.6, "bipartite")),
            ("bp", 0.6, "hub", make_bp(7, 0.6, "hub")),
        ],
    )
    def test_matches_make_functions(self, name, prob, intra_mode, direct):
        if not isinstance(direct, CommunitySpec):
            with direct:
                make_family(name, 7, prob, intra_mode)
            return
        spec = make_family(name, 7, prob, intra_mode)
        assert spec.sizes == direct.sizes
        assert np.array_equal(spec.rates, direct.rates)

    def test_every_family_builds(self):
        for name in FAMILIES:
            prob = None if name in ("g3", "g6") else 0.5
            assert make_family(name, 3, prob, None).sizes[0] == 3

    @pytest.mark.parametrize("name", ["g3", "g6"])
    def test_probability_rejected_where_unused(self, name):
        with pytest.raises(InputError, match=f"family {name} takes no coupling probability"):
            make_family(name, 5, 0.1, None)

    @pytest.mark.parametrize(
        "name, mode",
        [("g3", "hub"), ("g6", "hub"), ("c2", "hub"), ("g3", "bipartite"), ("g6", "bipartite"), ("c2", "bipartite")],
        ids=["g3", "g6", "c2", "g3-bipartite", "g6-bipartite", "c2-bipartite"],
    )
    def test_hub_mode_rejected_outside_bp(self, name, mode):
        # a shape given to another family, bp's default included, would be dropped
        prob = 0.3 if name == "c2" else None
        with pytest.raises(InputError, match=f"intra_mode '{mode}' applies only to family bp, not {name}"):
            make_family(name, 5, prob, mode)

    def test_bp_needs_probability(self):
        with pytest.raises(InputError, match="inter-connection probability"):
            make_family("bp", 5, None, "hub")

    def test_unknown_family(self):
        with pytest.raises(InputError, match="unknown synthetic family"):
            make_family("g4", 5, 0.5, "bipartite")


class TestModelNoise:
    def test_sigma_zero_identity(self, rng):
        model = expected_model(make_g3(5))
        state = rng.bit_generator.state
        noisy = add_model_noise(model, 0.0, rng)
        assert np.array_equal(noisy.weights, model.weights)
        assert noisy is model  # no new template, and nothing drawn
        assert rng.bit_generator.state == state

    def test_output_symmetric(self, rng):
        model = expected_model(make_g6(5))
        noisy = add_model_noise(model, 2.0, rng)
        assert np.array_equal(noisy.weights, noisy.weights.T)

    def test_empirical_std(self):
        model = expected_model(make_g3(5))
        rng = np.random.default_rng(17)
        sigma = 1.5
        draws = []
        for _ in range(10_000):
            noisy = add_model_noise(model, sigma, rng)
            diff = noisy.weights - model.weights
            draws.extend(diff[np.triu_indices(3)])
        assert abs(np.std(draws) - sigma) / sigma <= 0.05

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(InputError):
            add_model_noise(expected_model(make_g3(5)), -1.0, rng)
