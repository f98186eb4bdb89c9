"""Template-guided graph clustering toolkit.

Clusters an observation graph by matching its vertices onto a small
template of expected communities, optimizing an orthonormal embedding,
then rounding the embedding rows into clusters.  Ships spectral and
modularity baselines, evaluation metrics, synthetic graph generators,
dataset loaders and a CSV experiment harness.
"""

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import Graph, block_sums, build_graph, degree_matrix, laplacian
from templateclust.stiefel import (
    DescentTrace,
    StiefelPoint,
    project_tangent,
    random_stiefel,
    retract_qr,
    steepest_descent,
)
from templateclust.rounding import kmeans, pivoted_qr_seeds
from templateclust.template import (
    ClusteringResult,
    TemplateModel,
    eigenvector_start,
    euclidean_gradient,
    objective,
    template_cluster,
)
from templateclust.baselines import (
    cnm_cluster,
    louvain_cluster,
    modularity,
    spectral_cluster,
)
from templateclust.metrics import (
    GroundTruth,
    Partition,
    adjusted_rand_index,
    closest_orthonormal,
    projector_distance,
)
from templateclust.synth import (
    CommunitySpec,
    add_model_noise,
    expected_model,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    sample_graph,
)
from templateclust.dataio import load_edge_list, load_labels, load_template, model_from_ground_truth

__all__ = [
    "InputError",
    "NumericalError",
    "Graph",
    "build_graph",
    "block_sums",
    "degree_matrix",
    "laplacian",
    "StiefelPoint",
    "DescentTrace",
    "random_stiefel",
    "project_tangent",
    "retract_qr",
    "steepest_descent",
    "TemplateModel",
    "ClusteringResult",
    "objective",
    "euclidean_gradient",
    "eigenvector_start",
    "kmeans",
    "pivoted_qr_seeds",
    "template_cluster",
    "Partition",
    "spectral_cluster",
    "modularity",
    "cnm_cluster",
    "louvain_cluster",
    "GroundTruth",
    "adjusted_rand_index",
    "closest_orthonormal",
    "projector_distance",
    "CommunitySpec",
    "sample_graph",
    "expected_model",
    "make_g3",
    "make_g6",
    "make_c2",
    "make_bp",
    "add_model_noise",
    "load_edge_list",
    "load_labels",
    "load_template",
    "model_from_ground_truth",
]

__version__ = "0.1.0"
