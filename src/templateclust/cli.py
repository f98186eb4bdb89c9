"""Command-line entry points. `synth` and `real` run a grid; `cluster` runs
repetition 0 at point 0 of the one-point grid its flags name, through `harness`."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import NoReturn

from templateclust.dataio import load_edge_list, load_template
from templateclust.errors import InputError
from templateclust.harness import METHODS, ExperimentConfig, instances, method_rng, run_and_write, run_method
from templateclust.metrics import adjusted_rand_index
from templateclust.synth import FAMILIES, INTRA_MODES

# glibc's mallopt parameters (malloc.h) and the values `main` sets. Arrays up
# to 32 MiB, glibc's largest mmap threshold on 64-bit (an n x n float64 array
# up to n = 2048), come from the heap, not from a fresh mmap, and up to
# 128 MiB of freed memory stays in the heap.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES, TRIM_THRESHOLD_BYTES = 32 << 20, 128 << 20
# glibc reads these at start-up; when either is set, its settings win
GLIBC_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _comma_list(text: str, convert: type, what: str) -> tuple:
    try:
        return tuple(convert(x) for x in text.split(",") if x)
    except ValueError:
        # argparse would otherwise name this module's converter function
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None


_int_list = functools.partial(_comma_list, convert=int, what="integers")
_float_list = functools.partial(_comma_list, convert=float, what="numbers")
_methods = functools.partial(_comma_list, convert=str, what="names")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, its subcommands' included, raise
    InputError, so `main` reports them with exit code 1."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so repeated `main` calls in one process build it once.
    Parsing leaves it unchanged; callers must not modify it."""
    parser = _Parser(
        prog="templateclust",
        description="Template-guided graph clustering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # synth and real name each dest after the ExperimentConfig field it sets
    synth = sub.add_parser("synth", help="run a synthetic-family experiment grid")
    synth.add_argument("--family", dest="dataset", required=True, choices=FAMILIES)
    synth.add_argument("--sizes", type=_int_list, required=True, help="comma-separated community sizes")
    synth.add_argument("--probs", type=_float_list, default=(None,),
                       help="comma-separated coupling probabilities (c2 central / bp inter)")
    synth.add_argument("--intra-mode", choices=INTRA_MODES)
    synth.add_argument("--methods", type=_methods, default=METHODS)
    synth.add_argument("--reps", dest="repetitions", type=int, default=100)
    synth.add_argument("--seed", dest="base_seed", type=int, default=0)
    synth.add_argument("--fixed-graph", action="store_true",
                       help="sample one graph per point; repetitions redraw only each method's stream "
                            "(Louvain's visit order, tb's random start when its frame is not certified)")
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
    single.add_argument("--prob", type=float)
    single.add_argument("--intra-mode", choices=INTRA_MODES)
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
    if not args.family and (args.size is not None or args.prob is not None or args.intra_mode is not None):
        raise InputError("--size, --prob and --intra-mode need --family")
    if args.method in ("cnm", "louvain"):
        for flag, value in (("--k", args.k), ("--template", args.template)):
            if value is not None:
                raise InputError(f"{flag} does not apply to {args.method}: it chooses the number of communities itself")
    if args.k is not None and args.k < 1:
        raise InputError(f"--k must be >= 1, got {args.k}")
    # a family, or edges with labels, name a one-point grid: run its first repetition
    if args.family:
        if args.size is None:
            raise InputError("--family needs --size")
        cfg = ExperimentConfig("synth", args.family, sizes=(args.size,), probs=(args.prob,),
                               intra_mode=args.intra_mode, repetitions=1, base_seed=args.seed)
    elif args.labels:
        cfg = ExperimentConfig("real", "real", edges_path=args.edges, labels_path=args.labels,
                               repetitions=1, base_seed=args.seed)
    elif args.edges:
        cfg, gt, model = None, None, None
        graph, _ = load_edge_list(args.edges)
    else:
        raise InputError("provide either --family/--size or --edges")
    if cfg is not None:
        *_, graph, gt, _, model = next(instances(cfg))

    if args.template:
        model = load_template(args.template)

    # tb always takes k from its template; spectral only from an explicit --template
    if (args.method == "tb" or args.template) and model is not None and args.k not in (None, model.k):
        raise InputError(f"--k {args.k} differs from the template's k={model.k}; {args.method} takes k from the template")
    k = args.k or (model.k if model is not None else None) or (gt.k if gt else None)
    partition, _, _ = run_method(args.method, graph, k, model, method_rng(args.seed, 0, 0, args.method))

    print("labels:", " ".join(str(int(x)) for x in partition.labels))
    if gt is not None:
        print(f"ari: {adjusted_rand_index(partition.labels, gt.labels):.6f}")
    print(f"k_found: {partition.k_found}")
    return 0


@functools.cache
def _keep_freed_memory() -> None:
    """Ask the C library, once per process, to keep the memory it frees.

    By default glibc serves each allocation above 128 KiB with a fresh mmap,
    or trims freed memory off the top of the heap, so every repetition's n x n
    arrays fault their pages in again: the repetitions of a g6/40 grid
    (n = 240) took 320-690 minor page faults each, most in numpy's eigh and
    Cholesky, and 0-1 under the policy. Fixed mmap and trim thresholds let
    those arrays reuse pages the process already holds. A silent no-op when
    the C library cannot be opened or has no `mallopt`, and when the user
    set either of GLIBC_MALLOC_VARS.
    """
    from ctypes import CDLL, c_int

    if any(var in os.environ for var in GLIBC_MALLOC_VARS):
        return
    try:
        mallopt = CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (c_int, c_int), c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`) and return its
    exit code: 0 on success, 1 on an input error, 2 on a numerical or
    runtime failure, each reported on stderr.

    The first call in a process applies the allocator policy of
    `_keep_freed_memory`; importing the package or calling the library
    leaves the C library's settings alone.
    """
    _keep_freed_memory()
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
