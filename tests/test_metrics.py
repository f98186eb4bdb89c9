import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    GroundTruth,
    InputError,
    StiefelPoint,
    adjusted_rand_index,
    closest_orthonormal,
    projector_distance,
    random_stiefel,
)

from conftest import LABEL_FORMS, traced_peak


def ari_pair_counting(a, b):
    """O(n^2) brute-force Rand-index oracle over all element pairs."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    tp = tn = fp = fn = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            tp += 1
        elif not same_a and not same_b:
            tn += 1
        elif same_a:
            fn += 1
        else:
            fp += 1
    total = tp + tn + fp + fn
    # chance-corrected: expected index from marginal pair counts
    sum_a = tp + fn
    sum_b = tp + fp
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        # both all-singletons or both one cluster: same partition
        return 1.0
    return (tp - expected) / (max_index - expected)


class TestARI:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == pytest.approx(1.0)

    def test_relabeled(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_crossed_pairs(self):
        expected = ari_pair_counting([0, 0, 1, 1], [0, 1, 0, 1])
        assert expected == pytest.approx(-0.5)
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(expected)

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 4, size=n)
            assert adjusted_rand_index(a, b) == pytest.approx(
                ari_pair_counting(a, b), abs=1e-12
            )

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=30),
        form_a=st.sampled_from(sorted(LABEL_FORMS)),
        form_b=st.sampled_from(sorted(LABEL_FORMS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_pair_counting_oracle(self, pairs, form_a, form_b):
        """Bit for bit, whether the labels are counted or go through np.unique:
        both build the same contingency table, and the oracle's pair counts
        are the integers its sums give."""
        a, b = (np.array(labels) for labels in zip(*pairs))
        assert adjusted_rand_index(LABEL_FORMS[form_a](a), LABEL_FORMS[form_b](b)) == ari_pair_counting(a, b)

    @pytest.mark.parametrize("form, calls", [("counted", 0), ("negative", 2), ("sparse", 2), ("int64", 2)])
    def test_labels_in_range_are_counted(self, unique_calls, form, calls):
        a = np.array([0, 0, 1, 7, 7, 7, 4, 4])  # sparse within [0, 8): counted all the same
        b = np.array([1, 1, 0, 0, 2, 2, 3, 3])
        ari = adjusted_rand_index(LABEL_FORMS[form](a), LABEL_FORMS[form](b))
        assert ari == ari_pair_counting(a, b)
        assert len(unique_calls) == calls

    def test_one_labeling_counted_and_one_not(self, unique_calls):
        a, b = np.array([2, 2, 0, 0, 1]), np.array([-1, -1, 5, 5, 5])
        assert adjusted_rand_index(a, b) == ari_pair_counting(a, b)
        assert [list(x) for x in unique_calls] == [[-1, -1, 5, 5, 5]]

    def test_degenerate_conventions(self):
        assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0  # both all-singletons
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0  # both one cluster
        # non-degenerate mix: formula applies, result 0
        assert adjusted_rand_index([0, 1, 2], [0, 0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_fewer_than_two_elements(self):
        with pytest.raises(InputError, match="need at least two elements to compare partitions"):
            adjusted_rand_index([0], [0])

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, labels):
        other = [(x * 7 + 3) % 4 for x in labels]
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(other, labels)
        )

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, labels):
        other = np.random.default_rng(0).integers(0, 3, size=len(labels))
        relabeled = [(x + 1) % 4 for x in labels]
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(relabeled, other)
        )


class TestClosestOrthonormal:
    def test_identity(self):
        p = closest_orthonormal(GroundTruth(np.array([0, 1])))
        assert np.array_equal(p.matrix, np.eye(2))

    def test_balanced_sizes(self):
        gt = GroundTruth(np.array([0, 0, 1, 1]))
        p = closest_orthonormal(gt)
        assert np.allclose(p.matrix, gt.indicator() / np.sqrt(2), atol=1e-14)

    def test_svd_polar_oracle(self):
        gt = GroundTruth(np.array([0, 1, 2, 0, 1, 0, 2]))
        u, _, vt = np.linalg.svd(gt.indicator(), full_matrices=False)
        polar = u @ vt
        p = closest_orthonormal(gt)
        assert np.linalg.norm(np.abs(p.matrix) - np.abs(polar)) <= 1e-10
        assert np.linalg.norm(p.matrix - polar) <= 1e-10

    def test_columns_exactly_orthonormal(self):
        gt = GroundTruth(np.array([0, 0, 1, 1, 1, 2]))
        p = closest_orthonormal(gt)
        gram = p.matrix.T @ p.matrix
        assert np.allclose(gram, np.eye(3), atol=1e-15)


def dense_projector_distance(p, q):
    """||P P^T - Q Q^T||^2 from the two n x n projectors."""
    diff = p.matrix @ p.matrix.T - q.matrix @ q.matrix.T
    return float(np.sum(diff * diff))


class TestProjectorDistance:
    @given(
        n=st.integers(1, 60),
        k_frac=st.floats(0.0, 1.0),
        k_other_frac=st.floats(0.0, 1.0),
        other=st.sampled_from(["random", "identical", "rotated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_projectors(self, n, k_frac, k_other_frac, other, seed):
        rng = np.random.default_rng(seed)
        k = 1 + round(k_frac * (n - 1))
        p = random_stiefel(n, k, rng)
        if other == "random":
            q = random_stiefel(n, 1 + round(k_other_frac * (n - 1)), rng)
        elif other == "identical":
            q = p
        else:
            q = StiefelPoint(p.matrix @ random_stiefel(k, k, rng).matrix)
        bound = k + q.shape[1]
        d = projector_distance(p, q)
        assert abs(d - dense_projector_distance(p, q)) <= 1e-12 * bound
        assert abs(d - projector_distance(q, p)) <= 1e-12 * bound
        assert 0.0 <= d <= bound

    def test_same_point(self, rng):
        p = random_stiefel(5, 2, rng)
        assert projector_distance(p, p) == 0.0

    def test_rotation_invariant(self, rng):
        p = random_stiefel(6, 3, rng)
        for _ in range(50):
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            q = q * np.where(np.diag(r) < 0, -1, 1)
            rotated = StiefelPoint(p.matrix @ q)
            assert projector_distance(p, rotated) <= 1e-10

    def test_orthogonal_lines(self):
        p = StiefelPoint(np.array([[1.0], [0.0]]))
        p_star = StiefelPoint(np.array([[0.0], [1.0]]))
        assert projector_distance(p, p_star) == pytest.approx(2.0)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 4))
            p = random_stiefel(8, k, rng)
            q = random_stiefel(8, k, rng)
            d = projector_distance(p, q)
            assert d == pytest.approx(projector_distance(q, p))
            assert 0 <= d <= 2 * k + 1e-12

    def test_never_forms_an_n_by_n_array(self):
        """At g6/200's n = 1200 the traced peak stays below 1% of one n x n
        float array."""
        gt = GroundTruth(np.repeat(np.arange(6), 200))
        p, truth = random_stiefel(gt.labels.size, 6, np.random.default_rng(0)), closest_orthonormal(gt)
        _, peak = traced_peak(lambda: projector_distance(p, truth))
        assert peak < 0.01 * gt.labels.size**2 * 8

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InputError):
            projector_distance(random_stiefel(5, 2, rng), random_stiefel(6, 2, rng))


class TestGroundTruth:
    def test_sizes(self):
        gt = GroundTruth(np.array([0, 0, 1, 2, 2, 2]))
        assert gt.k == 3
        assert np.array_equal(gt.sizes, [2, 1, 3])

    def test_empty_community_rejected(self):
        with pytest.raises(InputError):
            GroundTruth(np.array([0, 2, 2]))

    def test_negative_label_rejected(self):
        with pytest.raises(InputError, match="labels must cover 0..k-1"):
            GroundTruth(np.array([-1, 0, 1]))
