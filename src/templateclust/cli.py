"""Command-line entry points for running experiments and one-shot clustering."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import NoReturn

import numpy as np

from templateclust.dataio import load_edge_list, load_labels, load_template, model_from_ground_truth
from templateclust.errors import InputError
from templateclust.harness import METHODS, ExperimentConfig, run_and_write, run_method
from templateclust.metrics import adjusted_rand_index
from templateclust.synth import FAMILIES, expected_model, make_family, sample_graph


def _comma_list(text: str, convert: type, what: str) -> tuple:
    try:
        return tuple(convert(x) for x in text.split(",") if x)
    except ValueError:
        # argparse would otherwise name this module's converter function
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return _comma_list(text, int, "integers")


def _float_list(text: str) -> tuple[float, ...]:
    return _comma_list(text, float, "numbers")


def _methods(text: str) -> tuple[str, ...]:
    return tuple(x for x in text.split(",") if x)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, its subcommands' included, raise
    InputError, so `main` reports them with exit code 1."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="templateclust",
        description="Template-guided graph clustering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # synth and real name each dest after the ExperimentConfig field it sets
    synth = sub.add_parser("synth", help="run a synthetic-family experiment grid")
    synth.add_argument("--family", dest="dataset", required=True, choices=FAMILIES)
    synth.add_argument("--sizes", type=_int_list, required=True, help="comma-separated community sizes")
    synth.add_argument("--probs", type=_float_list, default=(float("nan"),),
                       help="comma-separated coupling probabilities (c2 central / bp inter)")
    synth.add_argument("--intra-mode", choices=["bipartite", "hub"], default="bipartite")
    synth.add_argument("--methods", type=_methods, default=METHODS)
    synth.add_argument("--reps", dest="repetitions", type=int, default=100)
    synth.add_argument("--seed", dest="base_seed", type=int, default=0)
    synth.add_argument("--fixed-graph", action="store_true",
                       help="resample only the initialization, not the graph, across repetitions")
    synth.add_argument("--out", required=True, help="output directory for CSV files")

    real = sub.add_parser("real", help="run a real-dataset experiment with model noise levels")
    real.add_argument("--edges", dest="edges_path", required=True)
    real.add_argument("--labels", dest="labels_path", required=True)
    real.add_argument("--name", dest="dataset", default="real")
    real.add_argument("--sigma-list", dest="sigmas", type=_float_list, default=(0.0,))
    real.add_argument("--methods", type=_methods, default=METHODS)
    real.add_argument("--reps", dest="repetitions", type=int, default=40)
    real.add_argument("--seed", dest="base_seed", type=int, default=0)
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


def _cmd_grid(args: argparse.Namespace) -> int:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig(kind=args.command, **{k: v for k, v in vars(args).items() if k in fields})
    records = run_and_write(cfg, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if args.family and args.edges:
        raise InputError("give either --family or --edges, not both")
    if args.labels and not args.edges:
        raise InputError("--labels needs --edges")
    if not args.family and (args.size is not None or args.prob == args.prob or args.intra_mode != "bipartite"):
        raise InputError("--size, --prob and --intra-mode need --family")
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
        model = load_template(args.template)

    if args.k is not None and args.k < 1:
        raise InputError(f"--k must be >= 1, got {args.k}")
    if args.method in ("cnm", "louvain") and args.k is not None:
        raise InputError(f"--k does not apply to {args.method}: it chooses the number of communities itself")
    if args.method == "tb" and model is not None and args.k not in (None, model.k):
        raise InputError(f"--k {args.k} differs from the template's k={model.k}; tb takes k from the template")
    k = args.k or (model.k if model is not None else None) or (gt.k if gt else None)
    labels, _, _ = run_method(args.method, graph, k, model, np.random.default_rng(args.seed))

    print("labels:", " ".join(str(int(x)) for x in labels))
    if gt is not None:
        print(f"ari: {adjusted_rand_index(labels, gt.labels):.6f}")
    print(f"k_found: {int(labels.max()) + 1}")
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {"synth": _cmd_grid, "real": _cmd_grid, "cluster": _cmd_cluster}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical or runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
