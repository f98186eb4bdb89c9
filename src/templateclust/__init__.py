"""Template-guided graph clustering toolkit.

Clusters an observation graph by matching its vertices onto a small
template of expected communities, optimizing an orthonormal embedding,
then running k-means on the embedding rows.  Ships spectral and
modularity baselines, evaluation metrics, synthetic graph generators,
dataset loaders and a CSV experiment harness.
"""

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import Graph, build_graph, degree_matrix, laplacian
from templateclust.stiefel import (
    DescentConfig,
    DescentTrace,
    StiefelPoint,
    project_tangent,
    random_stiefel,
    retract_qr,
    steepest_descent,
)
from templateclust.template import (
    ClusteringResult,
    TemplateModel,
    euclidean_gradient,
    kmeans,
    objective,
    template_cluster,
)
from templateclust.baselines import (
    Partition,
    cnm_cluster,
    louvain_cluster,
    modularity,
    spectral_cluster,
)
from templateclust.metrics import (
    GroundTruth,
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
from templateclust.dataio import load_edge_list, load_labels, model_from_ground_truth

__all__ = [
    "InputError",
    "NumericalError",
    "Graph",
    "build_graph",
    "degree_matrix",
    "laplacian",
    "StiefelPoint",
    "DescentConfig",
    "DescentTrace",
    "random_stiefel",
    "project_tangent",
    "retract_qr",
    "steepest_descent",
    "TemplateModel",
    "ClusteringResult",
    "objective",
    "euclidean_gradient",
    "kmeans",
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
    "model_from_ground_truth",
]

__version__ = "0.1.0"
