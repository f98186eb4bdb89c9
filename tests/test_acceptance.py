"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Real-dataset criteria need user-supplied files, pointed to by the
environment variables SCHOOL1_EDGES and SCHOOL1_LABELS; they skip otherwise.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest

from templateclust import (
    Graph,
    Partition,
    StiefelPoint,
    TemplateModel,
    adjusted_rand_index,
    build_graph,
    cnm_cluster,
    closest_orthonormal,
    euclidean_gradient,
    expected_model,
    load_edge_list,
    load_labels,
    louvain_cluster,
    make_bp,
    make_c2,
    make_g3,
    modularity,
    model_from_ground_truth,
    objective,
    projector_distance,
    random_stiefel,
    sample_graph,
    spectral_cluster,
    add_model_noise,
    steepest_descent,
    template_cluster,
)
from templateclust.harness import ExperimentConfig, run_and_write

from conftest import edge_weight, random_simple_graph, two_triangles
from test_metrics import ari_pair_counting
from test_template import finite_diff_gradient, normalized_indicator


def report(criterion: str, passed: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


def check(criterion):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                report(criterion, False)
                raise
            report(criterion, True)

        return inner

    return wrap


@check("1 gradient-correctness")
def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    start = time.time()
    for _ in range(50):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(n, 5)))
        g = random_simple_graph(n, rng)
        w = rng.random((k, k)) * 4
        model = TemplateModel(w + w.T)
        p = random_stiefel(n, k, rng)
        exact = euclidean_gradient(g.adjacency, model, p)
        approx = finite_diff_gradient(g.adjacency, model, p)
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(approx), 1e-12)
        assert rel <= 1e-5
    assert time.time() - start < 10


@check("2 manifold-integrity")
def test_criterion_2_manifold_integrity():
    # every retraction constructs a StiefelPoint, whose constructor asserts
    # ||P^T P - I|| <= 1e-10; here we additionally re-check final iterates
    # and descent monotonicity across several instances
    rng = np.random.default_rng(202)
    for trial in range(5):
        n = int(rng.integers(6, 12))
        k = int(rng.integers(2, 4))
        g = random_simple_graph(n, rng)
        w = rng.random((k, k)) * 4
        model = TemplateModel(w + w.T)
        p0 = random_stiefel(n, k, rng)
        p_opt, trace = steepest_descent(
            lambda p: objective(g.adjacency, model, p),
            lambda p: euclidean_gradient(g.adjacency, model, p),
            p0,
        )
        m = p_opt.matrix
        assert np.linalg.norm(m.T @ m - np.eye(k)) <= 1e-10
        hist = trace.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


@check("3 relaxation-dominance")
def test_criterion_3_relaxation_dominance():
    start = time.time()
    rng = np.random.default_rng(303)
    for trial in range(20):
        n = int(rng.integers(4, 9))
        g = random_simple_graph(n, rng)
        w = rng.random((2, 2)) * 4
        model = TemplateModel(w + w.T)
        best = np.inf
        for assign in itertools.product([0, 1], repeat=n):
            assign = np.array(assign)
            if assign.sum() in (0, n):
                continue  # empty column: not a valid orthonormal frame
            p_b = normalized_indicator(assign, 2)
            best = min(best, objective(g.adjacency, model, p_b))
        res = template_cluster(g, model, rng=rng)
        f_opt = objective(g.adjacency, model, res.embedding)
        assert f_opt <= best + 1e-6
    assert time.time() - start < 30


@check("4 modularity-oracle")
def test_criterion_4_modularity_oracle():
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 20:
        g = random_simple_graph(int(rng.integers(3, 12)), rng)
        if edge_weight(g) == 0:
            continue
        q = modularity(g, Partition(np.zeros(g.n, dtype=int)))
        assert q == pytest.approx(0.0, abs=1e-12)
        checked += 1
    g = two_triangles()
    truth = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(g, Partition(truth)) == pytest.approx(0.5, abs=1e-12)
    for part in (cnm_cluster(g), louvain_cluster(g, np.random.default_rng(4))):
        assert part.k_found == 2
        assert adjusted_rand_index(part.labels, truth) == 1.0


@check("5 ari-oracle")
def test_criterion_5_ari_pair_counting_oracle():
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(ari_pair_counting(a, b), abs=1e-12)


@check("6 g3-reproduction")
def test_criterion_6_g3_desk_scale():
    start = time.time()
    spec = make_g3(10)
    model = expected_model(spec)
    tb_aris, sp_aris = [], []
    for s in range(20):
        g, gt = sample_graph(spec, np.random.default_rng(600 + s))
        res = template_cluster(g, model, rng=np.random.default_rng(6600 + s))
        tb_aris.append(adjusted_rand_index(res.partition, gt.labels))
        part = spectral_cluster(g, 3, np.random.default_rng(66600 + s))
        sp_aris.append(adjusted_rand_index(part.labels, gt.labels))
    assert np.mean(tb_aris) >= 0.95
    assert np.mean(sp_aris) >= 0.95
    assert time.time() - start < 60


@check("7 bipartite-separation")
def test_criterion_7_bipartite_separation():
    start = time.time()
    spec = make_bp(20, 0.8, "bipartite")
    model = expected_model(spec)
    tb_aris, sp_aris = [], []
    for s in range(20):
        g, gt = sample_graph(spec, np.random.default_rng(700 + s))
        res = template_cluster(g, model, rng=np.random.default_rng(7700 + s))
        tb_aris.append(adjusted_rand_index(res.partition, gt.labels))
        part = spectral_cluster(g, 2, np.random.default_rng(77700 + s))
        sp_aris.append(adjusted_rand_index(part.labels, gt.labels))
    assert np.mean(tb_aris) >= 0.9
    assert np.mean(tb_aris) - np.mean(sp_aris) >= 0.3
    assert time.time() - start < 60


@check("8 c2-hardest-point")
def test_criterion_8_c2_hardest_point():
    # The hardest c2 point is a challenging case in the paper's sense: the
    # central pair has more edges between them (0.60) than inside each (0.30).
    # The rate matrix has eigenvalues 1, 0.908, 0.8 and -0.308, and the
    # -0.308 mode is the one that separates the central pair. With 40
    # vertices per community the expected Laplacian D - A puts that split at
    # about 40 * (1 + 0.308) ~ 52, the top of the spectrum; on sampled graphs
    # the bottom eigenvalues are ~0, 3.5, 7.6 and the fourth (~27.5) already
    # lies in the noise bulk (~27 to 56). Unnormalised spectral clustering on
    # the bottom four eigenvectors therefore merges communities 1 and 2, so
    # its ARI is capped by that of the merged partition (~0.71). The template
    # encodes the coupling and separates the pair.
    spec = make_c2(40, 0.60)
    model = expected_model(spec)
    tb_aris, sp_aris = [], []
    for s in range(20):
        g, gt = sample_graph(spec, np.random.default_rng(800 + s))
        res = template_cluster(g, model, rng=np.random.default_rng(8800 + s))
        tb_aris.append(adjusted_rand_index(res.partition, gt.labels))
        part = spectral_cluster(g, 4, np.random.default_rng(88800 + s))
        sp_aris.append(adjusted_rand_index(part.labels, gt.labels))
    merged = np.where(gt.labels == 2, 1, gt.labels)
    spectral_ceiling = adjusted_rand_index(merged, gt.labels)
    assert np.mean(tb_aris) >= 0.9
    assert np.mean(sp_aris) <= spectral_ceiling + 1e-12
    assert np.mean(tb_aris) - np.mean(sp_aris) >= 0.15


def _school1_paths():
    edges = os.environ.get("SCHOOL1_EDGES")
    labels = os.environ.get("SCHOOL1_LABELS")
    if not edges or not labels:
        pytest.skip("set SCHOOL1_EDGES and SCHOOL1_LABELS to run real-data criteria")
    return edges, labels


@check("9 school1-reproduction")
def test_criterion_9_school1():
    edges, labels = _school1_paths()
    start = time.time()
    g, id_map = load_edge_list(edges)
    gt = load_labels(labels, g.n, id_map)
    model = model_from_ground_truth(g, gt)
    p_star = closest_orthonormal(gt)
    tb_aris, tb_pds, sp_aris = [], [], []
    for s in range(10):
        res = template_cluster(g, model, rng=np.random.default_rng(900 + s))
        tb_aris.append(adjusted_rand_index(res.partition, gt.labels))
        tb_pds.append(projector_distance(res.embedding, p_star))
        part = spectral_cluster(g, gt.k, np.random.default_rng(9900 + s))
        sp_aris.append(adjusted_rand_index(part.labels, gt.labels))
    cnm_ari = adjusted_rand_index(cnm_cluster(g).labels, gt.labels)
    assert 0.79 <= np.mean(tb_aris) <= 0.99
    assert 2.0 <= np.mean(tb_pds) <= 2.5
    assert np.mean(tb_aris) > np.mean(sp_aris)
    assert np.mean(tb_aris) > cnm_ari
    assert time.time() - start < 600


@check("10 school1-noise-robustness")
def test_criterion_10_school1_noise():
    edges, labels = _school1_paths()
    g, id_map = load_edge_list(edges)
    gt = load_labels(labels, g.n, id_map)
    model = model_from_ground_truth(g, gt)
    nonzero = model.weights[model.weights != 0]
    sigma = 0.25 * float(np.abs(nonzero).mean())

    def mean_ari(sig):
        aris = []
        for s in range(10):
            noisy = add_model_noise(model, sig, np.random.default_rng(1000 + s))
            res = template_cluster(g, noisy, rng=np.random.default_rng(11000 + s))
            aris.append(adjusted_rand_index(res.partition, gt.labels))
        return np.mean(aris)

    clean = mean_ari(0.0)
    noisy = mean_ari(sigma)
    assert clean - noisy <= 0.2


@check("11 determinism")
def test_criterion_11_byte_identical_reruns(tmp_path):
    """Two runs of one grid in one process write the same records.csv bytes.

    The guarantee holds for the same seed and the same number of BLAS
    threads: BLAS splits its sums by thread, so with 1 and with 2 threads
    `tb` and `spectral` rows can differ in the last digits of
    `projector_distance`.
    """
    cfg = ExperimentConfig(
        kind="synth",
        dataset="c2",
        sizes=(5,),
        probs=(0.42,),
        methods=("tb", "spectral", "cnm", "louvain"),
        repetitions=3,
        base_seed=17,
    )
    run_and_write(cfg, tmp_path / "a")
    run_and_write(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "records.csv").read_bytes() == (
        tmp_path / "b" / "records.csv"
    ).read_bytes()
