import itertools

import numpy as np
import pytest

from templateclust import (
    CommunitySpec,
    InputError,
    add_model_noise,
    expected_model,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    sample_graph,
)
from templateclust.synth import FAMILIES, G6_TEMPLATE_EDGES, make_family


class TestSampleGraph:
    def test_zero_rates_empty_graph(self, rng):
        spec = CommunitySpec((3, 3), np.zeros((2, 2)))
        g, gt = sample_graph(spec, rng)
        assert g.adjacency.sum() == 0
        assert np.array_equal(gt.labels, [0, 0, 0, 1, 1, 1])

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
            counts[i] = g.total_edge_weight()
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
            ("g3", float("nan"), "bipartite", make_g3(7)),
            ("g6", 0.3, "hub", make_g6(7)),
            ("c2", 0.3, "bipartite", make_c2(7, 0.3)),
            ("c2", float("nan"), "bipartite", make_c2(7, 0.42)),
            ("bp", 0.6, "bipartite", make_bp(7, 0.6, "bipartite")),
            ("bp", 0.6, "hub", make_bp(7, 0.6, "hub")),
        ],
    )
    def test_matches_make_functions(self, name, prob, intra_mode, direct):
        spec = make_family(name, 7, prob, intra_mode)
        assert spec.sizes == direct.sizes
        assert np.array_equal(spec.rates, direct.rates)

    def test_every_family_builds(self):
        for name in FAMILIES:
            assert make_family(name, 3, 0.5, "bipartite").sizes[0] == 3

    def test_bp_needs_probability(self):
        with pytest.raises(InputError, match="inter-connection probability"):
            make_family("bp", 5, float("nan"), "hub")

    def test_unknown_family(self):
        with pytest.raises(InputError, match="unknown synthetic family"):
            make_family("g4", 5, 0.5, "bipartite")


class TestModelNoise:
    def test_sigma_zero_identity(self, rng):
        model = expected_model(make_g3(5))
        noisy = add_model_noise(model, 0.0, rng)
        assert np.array_equal(noisy.weights, model.weights)

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
