"""The rounding module: `tb` and the spectral baseline both cluster their
embeddings' rows with `rounding.kmeans`, `tb` with one Lloyd run from
`pivoted_qr_seeds` on its unit rows and spectral with k-means++ seeding.

An AST guard keeps the rounding code in `rounding.py`, keeps `baselines` from
importing the template method it is compared against, and keeps `template`
calling `kmeans` as a module global, the name the traced benchmark wraps. The
package's `__init__` imports every module, so `sys.modules` cannot tell who
imports whom.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    InputError,
    NumericalError,
    Partition,
    StiefelPoint,
    closest_orthonormal,
    kmeans,
    load_edge_list,
    load_labels,
    make_g6,
    pivoted_qr_seeds,
    projector_distance,
    sample_graph,
    spectral_cluster,
)
from templateclust.baselines import spectral_embedding

from conftest import load_bench_workloads

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "templateclust"

ROUNDING = {"kmeans", "pivoted_qr_seeds", "_lloyd", "_kmeans_pp_init"}


def imported_names(node: ast.AST) -> list[tuple[str, str, str]]:
    """(module, name, bound name) for each name an import statement binds; a
    plain `import a.b` gives ("a.b", "", "a")."""
    if isinstance(node, ast.Import):
        return [(alias.name, "", alias.asname or alias.name.split(".")[0]) for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = (("templateclust." if node.level else "") + (node.module or "")).rstrip(".")
        return [(module, alias.name, alias.asname or alias.name) for alias in node.names]
    return []


def layout_faults(sources: dict[str, str]) -> list[str]:
    """Each way the package's modules, by file name, break the rounding layout."""
    faults = []
    template_imports_kmeans = False
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            defined = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            faults += [f"{name}:{node.lineno}: defines {d}" for d in defined if d in ROUNDING and name != "rounding.py"]
            for module, imported, bound in imported_names(node):
                if name == "baselines.py" and "templateclust.template" in (module, f"{module}.{imported}"):
                    faults.append(f"baselines.py:{node.lineno}: imports from templateclust.template")
                if name == "template.py" and (module, imported, bound) == ("templateclust.rounding", "kmeans", "kmeans"):
                    template_imports_kmeans = True
    if not template_imports_kmeans:
        faults.append("template.py: does not import kmeans by name from templateclust.rounding")
    return faults


def test_detector():
    # the layout before `rounding.py`: k-means in template, imported from there
    before = {
        "template.py": "def _kmeans_pp_init(p, k, rng, restarts): pass\ndef kmeans(p, k, rng): pass\n",
        "baselines.py": "from templateclust.template import kmeans\n",
    }
    assert layout_faults(before) == [
        "baselines.py:1: imports from templateclust.template",
        "template.py:1: defines _kmeans_pp_init",
        "template.py:2: defines kmeans",
        "template.py: does not import kmeans by name from templateclust.rounding",
    ]
    other_ways = {
        "baselines.py": (
            "from templateclust import template\n"
            "from .template import objective\n"
            "from templateclust.template import kmeans as km\n"
            "import templateclust.template\n"
        ),
        "graphs.py": "_lloyd = None\n",
        "template.py": "from templateclust import rounding\nfrom templateclust.rounding import kmeans as km\n",
    }
    assert layout_faults(other_ways) == [
        "baselines.py:1: imports from templateclust.template",
        "baselines.py:2: imports from templateclust.template",
        "baselines.py:3: imports from templateclust.template",
        "baselines.py:4: imports from templateclust.template",
        "graphs.py:1: defines _lloyd",
        "template.py: does not import kmeans by name from templateclust.rounding",
    ]
    assert layout_faults({"template.py": "from .rounding import kmeans\n"}) == []


def test_rounding_layout():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert layout_faults(sources) == []


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 259),
    d=st.integers(1, 44),
    k=st.integers(1, 12),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_invariant_under_column_signs(n, d, k, grid, seed):
    """Negating columns negates every coordinate, centroid and dot product
    exactly and leaves every square, so the run is the same bit for bit: the
    exact case of invariance under P -> PQ."""
    draw = np.random.default_rng(seed)
    # integer grid points bring exact ties and duplicate rows
    points = draw.integers(-2, 3, (n, d)).astype(float) if grid else draw.standard_normal((n, d))
    signs = draw.choice([-1.0, 1.0], d)
    k = min(k, n)
    rng, flipped_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    labels, inertia = kmeans(points, k, rng)
    flipped_labels, flipped_inertia = kmeans(points * signs, k, flipped_rng)
    assert np.array_equal(labels, flipped_labels)
    assert np.float64(inertia).tobytes() == np.float64(flipped_inertia).tobytes()
    assert rng.bit_generator.state == flipped_rng.bit_generator.state


def largest_entry_positive(p):
    """The sign rule `spectral_embedding` once applied: each column's
    largest-magnitude entry is made positive."""
    m = p.matrix.copy()
    for c in range(m.shape[1]):
        if m[np.argmax(np.abs(m[:, c])), c] < 0:
            m[:, c] = -m[:, c]
    return StiefelPoint(m)


@pytest.mark.parametrize("name", ["g6-40", "email"])
def test_spectral_outputs_independent_of_eigenvector_signs(name, tmp_path, monkeypatch):
    if name == "email":
        load_bench_workloads(monkeypatch).write_email_graph(0, 0, tmp_path)
        g, ids = load_edge_list(tmp_path / "edges-0.txt")
        gt = load_labels(tmp_path / "labels-0.txt", g.n, ids)
    else:
        g, gt = sample_graph(make_g6(40), np.random.default_rng(3))
    p = spectral_embedding(g, gt.k)
    fixed = largest_entry_positive(p)
    for seed in range(3):
        labels = spectral_cluster(g, gt.k, np.random.default_rng(seed)).labels
        rounded, _ = kmeans(fixed.matrix, gt.k, np.random.default_rng(seed))
        assert np.array_equal(labels, Partition(rounded).labels)
    truth = closest_orthonormal(gt)
    assert projector_distance(p, truth) == projector_distance(fixed, truth)


def round_by_pivots(points, k):
    """tb's rounding: one Lloyd run on the unit rows from their pivoted-QR seeds."""
    rows, seeds = pivoted_qr_seeds(points, k)
    labels, _ = kmeans(rows, k, np.random.default_rng(0), centroids=seeds)
    return Partition(labels).labels


def separated_frame(draw, n, k):
    """n rows near k orthonormal directions, each row scaled by a factor in
    [1/2, 2] and each direction taken by some row, and the true labels."""
    labels = np.concatenate([np.arange(k), draw.integers(0, k, n - k)])
    draw.shuffle(labels)
    directions, _ = np.linalg.qr(draw.standard_normal((k, k)))
    scale = draw.uniform(0.5, 2.0, n)[:, None]
    return directions[labels] * scale + 1e-3 * draw.standard_normal((n, k)), labels


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_pivoted_rounding_invariant_under_rotations_and_row_scaling(n, k, seed):
    """On well-separated clusters the rounding finds the clusters, and neither
    P -> PQ for an orthogonal Q nor a positive factor on each row changes the
    partition."""
    draw = np.random.default_rng(seed)
    k = min(k, n)
    points, truth = separated_frame(draw, n, k)
    partition = round_by_pivots(points, k)
    assert np.array_equal(partition, Partition(truth).labels)
    q, _ = np.linalg.qr(draw.standard_normal((k, k)))
    assert np.array_equal(round_by_pivots(points @ q, k), partition)
    factors = np.exp(draw.uniform(-5.0, 5.0, n))[:, None]
    assert np.array_equal(round_by_pivots(points * factors, k), partition)


def test_pivoted_seeds_keep_zero_rows():
    points = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, -3.0], [1.0, 1.0]])
    rows, seeds = pivoted_qr_seeds(points, 2)
    r = 1 / np.sqrt(2)
    assert np.array_equal(rows, [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0], [r, r]])
    assert seeds.shape == (2, 2) and np.isfinite(seeds).all()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    rank=st.integers(0, 6),
    extra=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivoted_seeds_name_the_rank_of_dependent_rows(n, rank, extra, seed):
    """Points with fewer than k independent rows raise NumericalError naming
    their rank. An orthonormal frame has k; a library caller's points may not.
    The rows are combinations of `rank` orthonormal vectors whose coefficient
    matrix holds the identity, so its smallest singular value is at least 1."""
    draw = np.random.default_rng(seed)
    rank = min(rank, n - 1)
    k = min(rank + extra, n)
    d = k + int(draw.integers(0, 3))
    basis, _ = np.linalg.qr(draw.standard_normal((d, d)))
    coefficients = np.vstack([np.eye(rank), draw.integers(-3, 4, (n - rank, rank))])
    # squares of entries near 1e200 overflow and near 1e-200 underflow, unless
    # the seeding scales the points first
    points = draw.permutation(coefficients @ basis[:rank]) * 10.0 ** draw.integers(-200, 200)
    with pytest.raises(NumericalError, match=f"needs k={k} independent rows, but the points have rank {rank}$"):
        pivoted_qr_seeds(points, k)


def test_pivoted_seeds_with_more_clusters_than_coordinates():
    with pytest.raises(NumericalError, match="have rank 2$"):
        pivoted_qr_seeds(np.random.default_rng(0).standard_normal((9, 2)), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pivoted_seeds_reject_non_finite_points(bad):
    points = np.eye(3)
    points[1, 2] = bad
    with pytest.raises(InputError, match="non-finite"):
        pivoted_qr_seeds(points, 2)
