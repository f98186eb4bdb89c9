"""Command-line entry points for running experiments and one-shot clustering."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from templateclust.dataio import load_edge_list, load_labels, model_from_ground_truth
from templateclust.errors import InputError
from templateclust.harness import METHODS, ExperimentConfig, run_and_write, run_method
from templateclust.metrics import adjusted_rand_index
from templateclust.synth import FAMILIES, expected_model, make_family, sample_graph
from templateclust.template import TemplateModel


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _methods(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templateclust",
        description="Template-guided graph clustering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="run a synthetic-family experiment grid")
    synth.add_argument("--family", required=True, choices=FAMILIES)
    synth.add_argument("--sizes", type=_int_list, required=True, help="comma-separated community sizes")
    synth.add_argument("--probs", type=_float_list, default=(float("nan"),),
                       help="comma-separated coupling probabilities (c2 central / bp inter)")
    synth.add_argument("--intra-mode", choices=["bipartite", "hub"], default="bipartite")
    synth.add_argument("--methods", type=_methods, default=METHODS)
    synth.add_argument("--reps", type=int, default=100)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--fixed-graph", action="store_true",
                       help="resample only the initialization, not the graph, across repetitions")
    synth.add_argument("--out", required=True, help="output directory for CSV files")

    real = sub.add_parser("real", help="run a real-dataset experiment with model noise levels")
    real.add_argument("--edges", required=True)
    real.add_argument("--labels", required=True)
    real.add_argument("--name", default="real")
    real.add_argument("--sigma-list", type=_float_list, default=(0.0,))
    real.add_argument("--methods", type=_methods, default=METHODS)
    real.add_argument("--reps", type=int, default=40)
    real.add_argument("--seed", type=int, default=0)
    real.add_argument("--out", required=True)

    single = sub.add_parser("cluster", help="cluster one graph and print labels + metrics")
    single.add_argument("--edges", help="edge-list file (with --labels for the template)")
    single.add_argument("--labels", help="ground-truth label file")
    single.add_argument("--family", choices=FAMILIES)
    single.add_argument("--size", type=int, help="community size for --family")
    single.add_argument("--prob", type=float, default=float("nan"))
    single.add_argument("--intra-mode", choices=["bipartite", "hub"], default="bipartite")
    single.add_argument("--template", help="whitespace-separated k x k template weight matrix file")
    single.add_argument("--k", type=int, help="cluster count (defaults to the template or label count)")
    single.add_argument("--method", choices=METHODS, default="tb")
    single.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        kind="synth",
        dataset=args.family,
        methods=args.methods,
        sizes=args.sizes,
        probs=args.probs,
        intra_mode=args.intra_mode,
        repetitions=args.reps,
        base_seed=args.seed,
        fixed_graph=args.fixed_graph,
    )
    records = run_and_write(cfg, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_real(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        kind="real",
        dataset=args.name,
        methods=args.methods,
        sigmas=args.sigma_list,
        repetitions=args.reps,
        base_seed=args.seed,
        edges_path=args.edges,
        labels_path=args.labels,
    )
    records = run_and_write(cfg, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    gt = None
    model = None
    if args.family:
        if args.size is None:
            raise InputError("--family needs --size")
        spec = make_family(args.family, args.size, args.prob, args.intra_mode)
        graph, gt = sample_graph(spec, np.random.default_rng(args.seed))
        model = expected_model(spec)
    elif args.edges:
        graph, id_map = load_edge_list(args.edges)
        if args.labels:
            gt = load_labels(args.labels, graph.n, id_map)
            model = model_from_ground_truth(graph, gt)
    else:
        raise InputError("provide either --family/--size or --edges")

    if args.template:
        model = TemplateModel(np.loadtxt(args.template, ndmin=2))

    k = args.k or (model.k if model is not None else None) or (gt.k if gt else None)
    labels, _, _ = run_method(args.method, graph, k, model, np.random.default_rng(args.seed))

    print("labels:", " ".join(str(int(x)) for x in labels))
    if gt is not None:
        print(f"ari: {adjusted_rand_index(labels, gt.labels):.6f}")
    print(f"k_found: {int(labels.max()) + 1}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": _cmd_synth, "real": _cmd_real, "cluster": _cmd_cluster}
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical or runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
