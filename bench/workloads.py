"""Benchmark workloads: which CLI grids each one runs, and its input files.

Every workload is a closed loop with one caller: the benchmark runs one
`templateclust synth` or `templateclust real` grid at a time, one method per
grid (`--methods <m>`), and starts the next grid when the previous returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

METHODS = ("tb", "spectral", "cnm", "louvain")

# The grid counts below fill about this many seconds on a 2-core Xeon
# (OpenBLAS, one BLAS thread); `--seconds` scales them linearly.
REFERENCE_SECONDS = 35

# The tail rule needs at least eleven samples of template_cluster per run.
MIN_TB_REPS = 11


@dataclass(frozen=True)
class Grid:
    """One method's share of a workload: `grids` grids of `reps` repetitions
    each at the reference duration."""

    reps: int
    grids: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int  # vertices of every graph the workload clusters
    k: int  # communities, the embedding width of tb and spectral
    cli: tuple[str, ...]  # subcommand and its fixed arguments
    plan: dict[str, Grid]
    graph_files: int = 0  # planted graphs written in set-up; grid g reads number g mod this
    probe_reps: int = 0  # loops of the BLAS part of the machine-speed probe, about 8 ms
    blas_probe_reference_s: float = 0.0  # that part's time in the machine's fast state

    def grid_count(self, method: str, seconds: float) -> int:
        share = self.plan[method]
        count = max(1, round(share.grids * seconds / REFERENCE_SECONDS))
        if method == "tb":
            count = max(count, -(-MIN_TB_REPS // share.reps))
        return count

    def grid_args(self, method: str, grid: int, seed: int, inputs: Path, out: Path) -> list[str]:
        """CLI arguments of one grid; the grid's seed is derived from `seed`."""
        graph = grid % self.graph_files if self.graph_files else 0
        args = [a.format(inputs=inputs, graph=graph) for a in self.cli]
        return args + [
            "--methods", method, "--reps", str(self.plan[method].reps),
            "--seed", str(seed * 1000 + grid), "--out", str(out),
        ]


# The email-scale planted graph (42 x 24 vertices) costs about 67 s per tb
# repetition, more than a whole run may take. The file workload keeps its
# edge probabilities and plants 12 communities of 16: tb then costs about 1 s
# per repetition and, as on the full graph, often stops at the iteration cap,
# so a run holds enough repetitions for a steady mean.
EMAIL_COMMUNITIES = 12
EMAIL_COMMUNITY_SIZE = 16
EMAIL_INTRA = 0.3
EMAIL_INTER = 0.005

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c2-small",
            why="n=40, k=4 dense c2 at coupling 0.60: per-call overhead, not flops, "
            "dominates tb, so set-up added per evaluation or call shows its loss here",
            n=40,
            k=4,
            cli=("synth", "--family", "c2", "--sizes", "10", "--probs", "0.60"),
            plan={
                "tb": Grid(reps=2, grids=35),
                "spectral": Grid(reps=30, grids=8),
                "cnm": Grid(reps=50, grids=8),
                "louvain": Grid(reps=40, grids=8),
            },
            probe_reps=400,
            blas_probe_reference_s=0.0082,
        ),
        Workload(
            name="g6-mid",
            why="n=240, k=6, density 0.17: tb is almost all Armijo descent, so a "
            "line-search change shows fully; sparse storage gains little",
            n=240,
            k=6,
            cli=("synth", "--family", "g6", "--sizes", "40"),
            plan={
                "tb": Grid(reps=1, grids=19),
                "spectral": Grid(reps=8, grids=8),
                "cnm": Grid(reps=1, grids=8),
                "louvain": Grid(reps=5, grids=8),
            },
            probe_reps=160,
            blas_probe_reference_s=0.0073,
        ),
        Workload(
            name="email-file",
            why="n=192, k=12 sparse planted graphs read from edge and label files through "
            "`real`: parsing, block-sum template, density 0.03. Not yet traced: CNM's merge "
            "loop, Louvain's moving and aggregation",
            n=EMAIL_COMMUNITIES * EMAIL_COMMUNITY_SIZE,
            k=EMAIL_COMMUNITIES,
            cli=(
                "real", "--edges", "{inputs}/edges-{graph}.txt", "--labels", "{inputs}/labels-{graph}.txt",
                "--name", "email", "--sigma-list", "0",
            ),
            # cnm and spectral's embedding are deterministic on one graph, so
            # their answers vary only across graphs: few repetitions, many grids
            plan={
                "tb": Grid(reps=1, grids=20),
                "spectral": Grid(reps=3, grids=8),
                "cnm": Grid(reps=2, grids=8),
                "louvain": Grid(reps=5, grids=8),
            },
            graph_files=8,
            probe_reps=160,
            blas_probe_reference_s=0.0088,
        ),
    )
}


def write_graph_files(workload: Workload, seed: int, out: Path) -> None:
    for index in range(workload.graph_files):
        write_email_graph(seed, index, out)


def write_email_graph(seed: int, index: int, out: Path) -> None:
    """Write planted graph `index` of the file workload as edges-<index>.txt
    and labels-<index>.txt.

    Edges are written in both directions, as SNAP's email-Eu-core is, so the
    loader's symmetrize-and-dedupe path runs. Vertex ids are shuffled. A
    vertex left without edges gets one to a random member of its community,
    because the loader only knows vertices that appear in an edge.
    """
    import numpy as np

    rng = np.random.default_rng((seed, index))
    c, s = EMAIL_COMMUNITIES, EMAIL_COMMUNITY_SIZE
    n = c * s
    labels = np.repeat(np.arange(c), s)
    prob = np.where(labels[:, None] == labels[None, :], EMAIL_INTRA, EMAIL_INTER)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adj = upper | upper.T
    for v in np.flatnonzero(~adj.any(axis=1)):
        peers = np.flatnonzero((labels == labels[v]) & (np.arange(n) != v))
        u = int(rng.choice(peers))
        adj[u, v] = adj[v, u] = True
    ids = rng.permutation(n) + 1
    src, dst = np.nonzero(np.triu(adj, k=1))
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{ids[a]} {ids[b]}\n{ids[b]} {ids[a]}\n" for a, b in zip(src, dst)]
    (out / f"edges-{index}.txt").write_text("# directed, both directions\n" + "".join(lines), encoding="utf-8")
    (out / f"labels-{index}.txt").write_text(
        "".join(f"{ids[v]} {labels[v]}\n" for v in range(n)), encoding="utf-8"
    )
