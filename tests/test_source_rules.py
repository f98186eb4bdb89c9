"""The package's source rules, checked on the syntax tree of every file.

No linter ships with the project, so these AST checks stand in for one. Each
row of RULES names a detector, the files it scans and the owners it allows:
a file owns every finding in it, and a `(file, *finding)` tuple owns that one
finding, which must occur exactly once. One parametrized test runs every row,
and each detector's reason is its docstring.
"""

import ast
import functools
import re
from collections.abc import Callable
from pathlib import Path

import pytest

import templateclust

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "templateclust"
# package files go by their file name, the rest by their path from the repo
FILES = {
    **{path.name: path for path in sorted(SOURCE.glob("*.py"))},
    **{str(path.relative_to(REPO)): path for root in ("tests", "bench") for path in sorted((REPO / root).rglob("*.py"))},
}
PACKAGE = [name for name, path in FILES.items() if path.parent == SOURCE]
TESTS = [name for name in FILES if name.startswith("tests/")]
BENCH = [name for name in FILES if name.startswith("bench/")]

SEEDERS = {"default_rng", "RandomState", "SeedSequence"}
READERS = {"loadtxt", "genfromtxt", "read_text", "read_bytes"}
CHANGERS = {"mkdir", "makedirs", "rmdir", "unlink", "rmtree", "remove", "rename", "replace", "touch", "write_text",
            "write_bytes"}
SOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}
ROUNDING = {"kmeans", "pivoted_qr_seeds", "_lloyd"}
RANDOM = {"rng", "Generator"}
SHAPES = {"bipartite", "hub"}  # bp's shapes


@functools.cache
def parsed(name: str) -> ast.Module:
    """The syntax tree of a file of the walk, parsed once."""
    return ast.parse(FILES[name].read_text(encoding="utf-8"))


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def imported_names(node: ast.AST) -> list[tuple[str, str, str]]:
    """(module, name, bound name) for each name an import statement binds; a
    plain `import a.b` gives ("a.b", "", "a")."""
    if isinstance(node, ast.Import):
        return [(alias.name, "", alias.asname or alias.name.split(".")[0]) for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = (("templateclust." if node.level else "") + (node.module or "")).rstrip(".")
        return [(module, alias.name, alias.asname or alias.name) for alias in node.names]
    return []


def random_uses(tree: ast.Module) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Seeder uses and unseeded draws, each as (line, code).

    Only `harness` seeds random streams in the package. A repetition's graph,
    template noise and method streams are seeded by where the repetition sits
    in its grid, and `harness` alone knows that layout; `cluster` takes its
    streams from there too. A module that made a generator itself would draw
    streams that no grid row reproduces, so every import, read or call of a
    name in SEEDERS outside `harness.py` is a seeder use. The package's other
    functions take a `numpy.random.Generator` from their caller.

    Every random draw comes from a generator its caller seeds.
    `np.random.default_rng()` with no seed draws fresh OS entropy, and any
    other `np.random.<fn>` call uses numpy's legacy global state; either is an
    unseeded draw, which makes a run's output depend on more than its inputs
    and seeds.
    """
    seeds, draws = [], []
    for node in ast.walk(tree):
        if any((name or module).split(".")[-1] in SEEDERS for module, name, _ in imported_names(node)):
            seeds.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and node.attr in SEEDERS or isinstance(node, ast.Name) and node.id in SEEDERS:
            seeds.append((node.lineno, ast.unparse(node)))
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).rsplit(".", 1)[0] in ("np.random", "numpy.random")
            and (node.func.attr != "default_rng" or not (node.args or node.keywords))
        ):
            draws.append((node.lineno, ast.unparse(node)))
    return sorted(seeds), sorted(draws)


def open_modes(node: ast.AST) -> set[str]:
    """The mode letters of an `open` call: those of its literal mode, "r"
    when it gives none, and every letter when its mode is not a string
    literal, which may read or write; empty for any other node."""
    if not isinstance(node, ast.Call) or ast.unparse(node.func).split(".")[-1] != "open":
        return set()
    given = [k.value for k in node.keywords if k.arg == "mode"]
    mode = node.args[1] if len(node.args) > 1 else given[0] if given else ast.Constant("r")
    return set(mode.value) if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else set("rwax+")


def file_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, call) for each call of a text parser or file reader, and each
    `open` whose mode is not a literal write, append or create mode.

    Every input file the package reads is parsed in `dataio`. Edge lists,
    label files and template files share one reader there, with one encoding,
    comment and number rule, and `dataio` makes one bulk parse call.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        modes = open_modes(node)
        if modes and (not modes & set("wax") or "+" in modes):
            found.append((node.lineno, ast.unparse(node)))
        elif ast.unparse(node.func).split(".")[-1] in READERS:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def file_changes(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, call) for each call that makes,
    writes or removes a file or directory: a call named in CHANGERS, through
    any object, and each `open` whose mode may write, append or create.

    The package writes one directory, a grid's `--out`, and only after the
    grid has run, so a failing grid leaves nothing to undo. `run_and_write`
    makes it and `_write_csv` writes its files; a second writer, or code that
    removes what a failed run made, fails until it is added as an owner. The
    rule goes by the call's name, so `str.replace` and `list.remove` count
    too: the package calls neither.
    """

    def finding(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call) and (
            open_modes(node) & set("wax+") or ast.unparse(node.func).split(".")[-1] in CHANGERS
        ):
            return ast.unparse(node)
        return None

    return scoped(tree, finding)


def bulk_parses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, "loadtxt") for each `loadtxt` call among the file reads."""
    return [(line, "loadtxt") for line, call in file_reads(tree) if "loadtxt" in call]


def scoped(tree: ast.Module, finding: Callable[[ast.AST], str | None]) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, finding) for each node that
    `finding` names a string for; a definition opens a scope and is not
    itself checked."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (name := finding(child)) is not None:
                found.append((child.lineno, scope, name))
            visit(child, inner)

    visit(tree, "")
    return found


def scoped_calls(tree: ast.Module, named: Callable[[list[str]], bool]) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, call) for each call whose
    function's dotted name, split at the dots, `named` accepts."""

    def call(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call) and named(ast.unparse(node.func).split(".")):
            return ast.unparse(node)
        return None

    return scoped(tree, call)


def eigensolver_calls(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, call) for each dense eigensolver
    call: `<...>.linalg.<solver>(...)` or a bare `<solver>(...)`.

    Each graph matrix is factored once, on the graph that owns it, so
    eigensolvers run only in `Graph.end_pairs`, the Lanczos kernel's
    tridiagonal and the k x k template factorization.
    """
    return scoped_calls(tree, lambda parts: parts[-1] in SOLVERS and (len(parts) == 1 or parts[-2] == "linalg"))


def kernel_calls(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, call) for each call of the
    Lanczos kernel `extremal_pairs`, bare or through its module.

    The graph alone chooses between the kernel and its dense factors, in
    `Graph.end_pairs`: a module that tried the kernel itself would skip the
    memoized pairs and the size rules, and would try again on a graph that
    already holds the dense factors.
    """
    return scoped_calls(tree, lambda parts: parts[-1] == "extremal_pairs")


def subset_calls(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, call) for each call of LAPACK's
    subset driver `subset_pairs`, bare or through its module.

    As with the kernel, only `Graph.end_pairs` chooses the driver, after its
    size and finiteness rules, and stores what it returns: a module that
    called the driver itself would skip the memoized pairs and solve again.
    """
    return scoped_calls(tree, lambda parts: parts[-1] == "subset_pairs")


def key_comparisons(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, comparison) for each comparison
    with the name `key` inside `Graph.end_pairs`.

    `key` names the matrix for the memo and for error messages only. Whether
    the Lanczos kernel serves a request follows from n, `bottom` and `top`,
    so every caller meets one rule: a rule that read the name once let the
    adjacency's bottom end try the kernel where the Laplacian's could not.
    """

    def comparison(node: ast.AST) -> str | None:
        if isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Name) and side.id == "key" for side in (node.left, *node.comparators)
        ):
            return ast.unparse(node)
        return None

    return [found for found in scoped(tree, comparison) if found[1].split(".")[:2] == ["Graph", "end_pairs"]]


def memo_key(node: ast.AST) -> str | None:
    """The string key a node writes to a graph's memo, if any: the first
    argument of a `.memo(...)` call or the subscript of a `_memo[...]` being
    assigned, a tuple key by its first element."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "memo" and node.args:
        key = node.args[0]
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and ast.unparse(node.value).endswith("_memo"):
        key = node.slice
    else:
        return None
    key = key.elts[0] if isinstance(key, ast.Tuple) and key.elts else key
    return key.value if isinstance(key, ast.Constant) and isinstance(key.value, str) else None


def memo_writes(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, key) for each write of a string
    key to a graph's memo.

    A graph's memo is one dict for every value derived from it, so each key
    has one owner that writes it; a second writer of a key would hand one
    method the value that another cached.
    """
    return scoped(tree, memo_key)


def unread_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that the source never reads.

    A name counts as read when the module loads it anywhere, or lists it in
    its `__all__`. `from __future__` imports are exempt.
    """
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            reads |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [
        (node.lineno, bound)
        for node in ast.walk(tree)
        if getattr(node, "module", None) != "__future__"
        for _, _, bound in imported_names(node)
        if bound not in reads
    ]


def private_accesses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, code) for each import of a private name or module, and each
    private attribute read from anything but `self` or `cls`.

    A name with one leading underscore is private to the module or class that
    defines it, so state such as a graph's memo is reached through its public
    methods.
    """
    found = []
    for node in ast.walk(tree):
        if any(private(part) for module, name, _ in imported_names(node) for part in f"{module}.{name}".split(".")):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.append((node.lineno, ast.unparse(node)))
    return found


def defined_names(node: ast.AST) -> list[str]:
    """The names a definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def unread_private_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each module-level private name that no other
    module-level statement of the source reads, so a helper left behind by a
    refactor fails."""
    return [
        (node.lineno, name)
        for node in tree.body
        for name in defined_names(node) + [bound for _, _, bound in imported_names(node)]
        if private(name)
        and not any(
            isinstance(use, ast.Name) and use.id == name and isinstance(use.ctx, ast.Load)
            for other in tree.body
            if other is not node
            for use in ast.walk(other)
        )
    ]


def dataclass_fields(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, Class.field) for each annotated field of a dataclass."""
    return [
        (stmt.lineno, f"{node.name}.{stmt.target.id}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] == "dataclass"
            for d in node.decorator_list
        )
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def read_names(tree: ast.Module) -> set[str]:
    """Every attribute name the source loads, and every string constant in
    it, which covers a `getattr` with a constant name and a column tuple
    that names a field."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unread_fields(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, Class.field) for each dataclass field that no file of the
    package, its tests or the benchmark reads, so a field that is only
    written fails."""
    return [(line, name) for line, name in dataclass_fields(tree) if name.split(".")[1] not in repo_reads()]


@functools.cache
def repo_reads() -> set[str]:
    return set().union(*(read_names(parsed(name)) for name in FILES))


def rounding_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, "defines <name>") for each definition of a name in ROUNDING.

    `tb` and the spectral baseline both round with `rounding.pivoted_qr_seeds`
    and `rounding.kmeans`, so the rounding code lives in `rounding.py` alone.
    """
    return [(node.lineno, f"defines {name}") for node in ast.walk(tree) for name in defined_names(node) if name in ROUNDING]


def template_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, fault) for each name imported from `templateclust.template`:
    the baselines do not import the template method they are compared
    against. The package's `__init__` imports every module, so `sys.modules`
    cannot tell who imports whom."""
    return [
        (node.lineno, "imports from templateclust.template")
        for node in ast.walk(tree)
        for module, name, _ in imported_names(node)
        if "templateclust.template" in (module, f"{module}.{name}")
    ]


def kmeans_import(tree: ast.Module) -> list[tuple[None, str]]:
    """A fault unless the source imports `kmeans` by name from
    `templateclust.rounding`: `template` calls it as a module global, the
    name the traced benchmark wraps."""
    bindings = [binding for node in ast.walk(tree) for binding in imported_names(node)]
    if ("templateclust.rounding", "kmeans", "kmeans") in bindings:
        return []
    return [(None, "does not import kmeans by name from templateclust.rounding")]


def rng_free_rounding(tree: ast.Module) -> list[tuple[int | None, str]]:
    """In the module that defines `kmeans`, (line, code) for each binding or
    read of a name in RANDOM or of `numpy.random`; in any other module, a
    fault unless it imports `pivoted_qr_seeds` from `templateclust.rounding`.

    Both embedding methods round the same way, by pivoted-QR seeds and one
    Lloyd run, and neither draws a random number: the rounding module takes
    no generator, and the spectral baseline seeds its Lloyd run as `tb` does.
    """
    if not any("kmeans" in defined_names(node) for node in tree.body):
        bindings = [binding[:2] for node in ast.walk(tree) for binding in imported_names(node)]
        if ("templateclust.rounding", "pivoted_qr_seeds") in bindings:
            return []
        return [(None, "does not import pivoted_qr_seeds from templateclust.rounding")]

    def random(node: ast.AST) -> bool:
        if any(
            module.split(".")[:2] == ["numpy", "random"] or (module, name) == ("numpy", "random") or bound in RANDOM
            for module, name, bound in imported_names(node)
        ):
            return True
        name = getattr(node, "id", None) or getattr(node, "arg", None) or getattr(node, "attr", None)
        numpy_random = isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.random", "numpy.random")
        return name in RANDOM or numpy_random

    return sorted({(node.lineno, ast.unparse(node)) for node in ast.walk(tree) if random(node)})


def private_rounding_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, code) for each import of a private name from
    templateclust.rounding, and each private attribute read from the module
    itself or from a name an import binds to it.

    `tests/test_rounding.py` alone reaches into rounding's private names, so
    its helpers' tests stay in one place.
    """
    found, module_names = [], {"templateclust.rounding"}
    for node in ast.walk(tree):
        for module, imported, bound in imported_names(node):
            if module == "templateclust.rounding" and private(imported):
                found.append((node.lineno, ast.unparse(node)))
            # `from templateclust import rounding` and `import templateclust.rounding as r`
            # bind the module; a plain `import templateclust.rounding` binds the package
            elif f"{module}.{imported}" == "templateclust.rounding" or (
                module == "templateclust.rounding" and not imported and bound != "templateclust"
            ):
                module_names.add(bound)
    found += [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) in module_names
    ]
    return sorted(set(found))


def self_comparisons(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, comparison) for each `==` or `!=` between a name or attribute
    and itself, such as `x != x`.

    Such a comparison is a NaN test in disguise. A value that is not given is
    None, tested with `is None`; NaN is a value like any other, and meets the
    range or finiteness check of the code that uses it.
    """
    return sorted(
        (node.lineno, f"{ast.unparse(left)} {'==' if isinstance(op, ast.Eq) else '!='} {ast.unparse(right)}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators)
        if isinstance(op, (ast.Eq, ast.NotEq))
        and isinstance(left, (ast.Name, ast.Attribute))
        and ast.unparse(left) == ast.unparse(right)
    )


def family_shapes(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, literal) for each string literal that names a bp shape,
    "bipartite" or "hub".

    bp's shapes, and the one it takes when none is given, are spelled only
    in `synth`. While the command line and `ExperimentConfig` took
    "bipartite" as the default of `--intra-mode` and `intra_mode`, bp's
    default doubled as their "not given" marker, so a shape given to g3, g6,
    c2, `cluster --edges` or a real grid was accepted and dropped. A shape
    not given is None.
    """
    return sorted(
        (node.lineno, repr(node.value))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in SHAPES
    )


def renumberings(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, call) for each call that
    renumbers values densely: `unique(..., return_inverse=...)`,
    `unique_inverse`, `unique_all` and `minimum.at`.

    A labeling is renumbered by `Partition`, which counts labels in [0, n)
    and sends any others through np.unique, and `adjusted_rand_index` scores
    two Partitions. A second copy of that rule once ranked labels by value
    inside the ARI while Partition ranked them by first appearance; each
    other renumbering, of vertex ids, community ids or groups, has one owner.
    """

    def renumbers(parts: list[str]) -> bool:
        return parts[-1] in ("unique_inverse", "unique_all") or parts[-2:] == ["minimum", "at"]

    def finding(node: ast.AST) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        parts = ast.unparse(node.func).split(".")
        inverse = parts[-1] == "unique" and any(k.arg == "return_inverse" for k in node.keywords)
        return ast.unparse(node) if inverse or renumbers(parts) else None

    return scoped(tree, finding)


def process_settings(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, enclosing class/function path, code) for each import or read
    of `ctypes` and each call of the CLI's allocator policy
    `_keep_freed_memory`.

    A setting of the whole process, such as the C library's allocator
    thresholds, belongs to the command line's entry point: importing the
    package, calling the library and the benchmark's set-up leave the process
    as they found it. So `ctypes` is reached only inside the policy helper,
    and only `main` calls that, and inside `graphs._subset_driver`, which
    binds a LAPACK routine of the OpenBLAS numpy has already loaded: it
    calls a library the process holds and changes no setting of the process.
    """

    def finding(node: ast.AST) -> str | None:
        if any(module.split(".")[0] == "ctypes" for module, _, _ in imported_names(node)):
            return ast.unparse(node)
        if isinstance(node, ast.Name) and node.id == "ctypes" or isinstance(node, ast.Attribute) and node.attr == "ctypes":
            return ast.unparse(node)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_keep_freed_memory":
            return ast.unparse(node)
        return None

    return scoped(tree, finding)


# rule: (detector, files it scans, owners it allows)
RULES = {
    "seeders": (lambda t: random_uses(t)[0], PACKAGE, {"harness.py"}),
    "unseeded_draws": (lambda t: random_uses(t)[1], PACKAGE, set()),
    "file_reads": (file_reads, PACKAGE, {"dataio.py"}),
    "file_changes": (file_changes, PACKAGE, {
        ("harness.py", "run_and_write", "out.mkdir(parents=True, exist_ok=True)"),
        ("harness.py", "_write_csv", "open(path, 'w', encoding='utf-8', newline='')"),
    }),
    "bulk_parse": (bulk_parses, PACKAGE, {("dataio.py", "loadtxt")}),
    "eigensolvers": (eigensolver_calls, PACKAGE, {
        ("graphs.py", "Graph.end_pairs", "np.linalg.eigh(m)"),
        ("graphs.py", "extremal_pairs", "np.linalg.eigh(tridiagonal)"),
        ("template.py", "eigenvector_start", "np.linalg.eigh(model.weights)"),
    }),
    "kernel_calls": (kernel_calls, PACKAGE, {
        ("graphs.py", "Graph.end_pairs", "extremal_pairs(m, bottom, top, limits)"),
    }),
    "subset_calls": (subset_calls, PACKAGE, {
        ("graphs.py", "Graph.end_pairs", "subset_pairs(m, bottom, top)"),
    }),
    "kernel_rule": (key_comparisons, PACKAGE, set()),
    # the acceptance criteria are kept as written, unused imports included
    "unused_imports": (unread_imports, PACKAGE + TESTS + BENCH, {"tests/test_acceptance.py"}),
    "private_access": (private_accesses, PACKAGE + BENCH, set()),
    "unread_private_names": (unread_private_names, PACKAGE + BENCH, set()),
    "dataclass_fields": (unread_fields, PACKAGE, set()),
    "kmeans_names": (rounding_definitions, PACKAGE, {"rounding.py"}),
    "compared_methods": (template_imports, ["baselines.py"], set()),
    "traced_kmeans": (kmeans_import, ["template.py"], set()),
    "rng_free_rounding": (rng_free_rounding, ["rounding.py", "baselines.py"], set()),
    "rounding_privates": (private_rounding_reads, PACKAGE + TESTS + BENCH, {"tests/test_rounding.py"}),
    "self_comparisons": (self_comparisons, PACKAGE, set()),
    "family_shapes": (family_shapes, PACKAGE, {"synth.py"}),
    "process_settings": (process_settings, PACKAGE, {
        ("cli.py", "_keep_freed_memory", "from ctypes import CDLL, c_int"),
        ("cli.py", "main", "_keep_freed_memory()"),
        ("graphs.py", "_subset_driver", "from ctypes import CDLL, c_char, c_double, c_int, c_int64"),
    }),
    "label_renumbering": (renumberings, PACKAGE, {
        ("metrics.py", "Partition.__post_init__", "np.minimum.at(first, raw, np.arange(n))"),
        ("metrics.py", "Partition.__post_init__", "np.unique(raw, return_index=True, return_inverse=True)"),
        ("graphs.py", "block_sums", "np.unique(labels, return_inverse=True)"),
        ("baselines.py", "louvain_cluster", "np.unique(labels, return_inverse=True)"),
        ("dataio.py", "load_edge_list", "np.unique(np.concatenate([rows['u'], rows['v']]), return_inverse=True)"),
        ("dataio.py", "load_labels", "np.unique(vertex, return_index=True, return_inverse=True)"),
        ("dataio.py", "load_labels", "np.unique(comm[first], return_inverse=True)"),
    }),
    "memo_keys": (memo_writes, PACKAGE, {
        ("baselines.py", "cnm_cluster", "cnm"),
        ("baselines.py", "louvain_cluster", "neighbour lists"),
        ("baselines.py", "spectral_cluster", "spectral"),
        ("baselines.py", "spectral_embedding", "spectral frame"),
        ("graphs.py", "Graph.end_pairs", "eigh"),
        ("graphs.py", "Graph.end_pairs", "end pairs"),
    }),
}


def offenders(rule: str, parse=parsed) -> list[str]:
    """Each finding of `rule` that no owner allows, as "file:line: finding",
    in the files `parse` gives a tree for."""
    detect, scanned, owners = RULES[rule]
    return [
        f"{name}{f':{line}' if line else ''}: {': '.join(key)}"
        for name in scanned
        if name not in owners and (source := parse(name)) is not None
        for line, *key in detect(source)
        if (name, *key) not in owners
    ]


@pytest.mark.parametrize("rule", RULES)
def test_rule(rule):
    assert offenders(rule) == []


def test_readme_lists_every_rule():
    section = (REPO / "README.md").read_text().split("\n## Install & test\n")[1].split("\n## ")[0]
    assert sorted(re.findall(r"^- `(\w+)`: ", section, flags=re.M)) == sorted(RULES)
    # each memo key the rule allows is named, quoted, on the rule's line
    memo_line = re.search(r"^- `memo_keys`: .*$", section, flags=re.M).group()
    assert [key for _, _, key in RULES["memo_keys"][2] if f'`"{key}"`' not in memo_line] == []


def test_walk_covers_every_file_and_owner():
    assert PACKAGE == sorted(path.name for path in Path(templateclust.__file__).parent.glob("*.py"))
    assert f"tests/{Path(__file__).name}" in TESTS and "bench/run.py" in BENCH
    for detect, scanned, owners in RULES.values():
        assert set(scanned) <= set(FILES)
        for owner in owners:
            if isinstance(owner, str):
                assert owner in scanned
            else:
                assert [(owner[0], *key) for _, *key in detect(parsed(owner[0]))].count(owner) == 1, owner


def test_unseeded_draw_detector():
    source = "a = np.random.default_rng()\nb = np.random.default_rng(3)\nc = numpy.random.rand(2)\nd = rng.random()\n"
    assert random_uses(ast.parse(source))[1] == [(1, "np.random.default_rng()"), (3, "numpy.random.rand(2)")]


def test_seeder_detector():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng as fresh\n"
        "def run(seed, rng: np.random.Generator):\n"
        "    a = np.random.default_rng((seed, 0))\n"
        "    b = fresh(seed)\n"
        "    c = np.random.RandomState(seed).rand()\n"
        "    return rng.random(), args.default_rng_seed, a, b, c\n"
    )
    assert random_uses(ast.parse(source))[0] == [
        (2, "from numpy.random import default_rng as fresh"),
        (4, "np.random.default_rng"),
        (6, "np.random.RandomState"),
    ]


def test_file_read_detector():
    # line 1 is how the command line once parsed --template files itself
    source = (
        "w = np.loadtxt(args.template, ndmin=2, encoding='utf-8-sig')\n"
        "t = Path(p).read_text()\n"
        "with open(path, 'w', encoding='utf-8') as fh: pass\n"
        "with open(path) as fh: pass\n"
        "with gzip.open(path, mode='rt') as fh: pass\n"
        "with open(path, 'r+') as fh: pass\n"
        "with open(path, mode) as fh: pass\n"
        "x = np.genfromtxt(p)\n"
    )
    assert file_reads(ast.parse(source)) == [
        (1, "np.loadtxt(args.template, ndmin=2, encoding='utf-8-sig')"),
        (2, "Path(p).read_text()"),
        (4, "open(path)"),
        (5, "gzip.open(path, mode='rt')"),
        (6, "open(path, 'r+')"),
        (7, "open(path, mode)"),
        (8, "np.genfromtxt(p)"),
    ]


def test_file_change_detector():
    # lines 3-12 are `run_and_write` as it was when it removed the directories
    # it made for a grid that failed
    source = (
        "import shutil\n"
        "from pathlib import Path\n"
        "def run_and_write(cfg, out_dir):\n"
        "    out = Path(out_dir)\n"
        "    made = [d for d in (out, *out.parents) if not d.exists() and d.name != '..']\n"
        "    out.mkdir(parents=True, exist_ok=True)\n"
        "    try:\n"
        "        records = run_experiment(cfg)\n"
        "    except BaseException:\n"
        "        for d in made:\n"
        "            d.rmdir()\n"
        "        raise\n"
        "class Store:\n"
        "    def save(self, path, mode):\n"
        "        os.makedirs(path); Path(path).touch(); Path(path).write_text('x')\n"
        "        shutil.rmtree(path); os.remove(path); os.replace(path, path + '~')\n"
        "        with open(path) as fh, open(path, 'rb') as raw, gzip.open(path, mode='at') as gz: pass\n"
        "        with open(path, 'r+') as fh, open(path, mode) as fh2, open(path, mode='xb') as fh3: pass\n"
        "        return Path(path).read_text(), path.exists()\n"
    )
    assert [(line, call) for line, _, call in file_changes(ast.parse(source))] == [
        (6, "out.mkdir(parents=True, exist_ok=True)"),
        (11, "d.rmdir()"),
        (15, "os.makedirs(path)"),
        (15, "Path(path).touch()"),
        (15, "Path(path).write_text('x')"),
        (16, "shutil.rmtree(path)"),
        (16, "os.remove(path)"),
        (16, "os.replace(path, path + '~')"),
        (17, "gzip.open(path, mode='at')"),
        (18, "open(path, 'r+')"),
        (18, "open(path, mode)"),
        (18, "open(path, mode='xb')"),
    ]
    assert {scope for _, scope, _ in file_changes(ast.parse(source))} == {"run_and_write", "Store.save"}


def test_rollback_of_a_failed_grid_is_flagged():
    planted = FILES["harness.py"].read_text() + (
        "def undo(made):\n"
        "    for d in made:\n"
        "        d.rmdir()\n"
    )
    trees = {"harness.py": ast.parse(planted)}
    line = len(planted.splitlines())
    assert offenders("file_changes", trees.get) == [f"harness.py:{line}: undo: d.rmdir()"]


def test_eigensolver_detector():
    source = (
        "class G:\n"
        "    def f(self):\n"
        "        return np.linalg.eigh(self.a)\n"
        "def g(x):\n"
        "    y = scipy.linalg.eigvalsh(x) + eig(x)\n"
        "    return x.eigh('adjacency', lambda: x)\n"
    )
    found = eigensolver_calls(ast.parse(source))
    assert [(scope, call) for _, scope, call in found] == [
        ("G.f", "np.linalg.eigh(self.a)"),
        ("g", "scipy.linalg.eigvalsh(x)"),
        ("g", "eig(x)"),
    ]
    assert [line for line, _, _ in found] == [3, 5, 5]


def test_kernel_call_detector():
    # bare and through the module; a call inside a lambda keeps its enclosing scope
    source = (
        "from templateclust import graphs\n"
        "from templateclust.graphs import extremal_pairs\n"
        "def eigenvector_start(g, lam):\n"
        "    pairs = graphs.extremal_pairs(g.adjacency, 0, 2, lam)\n"
        "    return pairs or extremal_pairs(g.adjacency, 0, 2)\n"
        "class Graph:\n"
        "    def end_pairs(self, key, matrix, bottom, top, limits=None):\n"
        "        return self.memo(key, lambda: extremal_pairs(matrix(), bottom, top, limits))\n"
    )
    assert kernel_calls(ast.parse(source)) == [
        (4, "eigenvector_start", "graphs.extremal_pairs(g.adjacency, 0, 2, lam)"),
        (5, "eigenvector_start", "extremal_pairs(g.adjacency, 0, 2)"),
        (8, "Graph.end_pairs", "extremal_pairs(matrix(), bottom, top, limits)"),
    ]


def test_subset_call_detector():
    # bare and through the module; the kernel's calls are not this rule's
    source = (
        "from templateclust import graphs\n"
        "def spectral_embedding(g, k):\n"
        "    return graphs.subset_pairs(laplacian(g), k, 0) or extremal_pairs(g.adjacency, k, 0)\n"
        "class Graph:\n"
        "    def end_pairs(self, key, matrix, bottom, top, limits=None):\n"
        "        return subset_pairs(matrix(), bottom, top)\n"
    )
    assert subset_calls(ast.parse(source)) == [
        (3, "spectral_embedding", "graphs.subset_pairs(laplacian(g), k, 0)"),
        (6, "Graph.end_pairs", "subset_pairs(matrix(), bottom, top)"),
    ]


def test_key_comparison_detector():
    # line 3 is the rule end_pairs once held; a comparison with `key` outside
    # end_pairs, or of another name inside it, is not flagged
    source = (
        "class Graph:\n"
        "    def end_pairs(self, key, matrix, bottom, top):\n"
        "        if key != 'laplacian' or self.n >= 240:\n"
        "            pass\n"
        "        ok = 'adjacency' == key or key in KEYS\n"
        "        return bottom == 0\n"
        "    def memo(self, key, compute):\n"
        "        return key == 'cnm'\n"
        "def f(key):\n"
        "    return key != 'laplacian'\n"
    )
    assert key_comparisons(ast.parse(source)) == [
        (3, "Graph.end_pairs", "key != 'laplacian'"),
        (5, "Graph.end_pairs", "'adjacency' == key"),
        (5, "Graph.end_pairs", "key in KEYS"),
    ]


def test_memo_key_detector():
    # reads of the memo and keys that are not string constants are not writes
    source = (
        "class Graph:\n"
        "    def memo(self, key, compute):\n"
        "        self._memo[key] = compute()\n"
        "    def eigh(self, key, matrix):\n"
        "        return self.memo(('eigh', key), lambda: matrix())\n"
        "    def end_pairs(self, key):\n"
        "        proved = self._memo.get(('end pairs', key))\n"
        "        if ('eigh', key) not in self._memo:\n"
        "            self._memo['end pairs', key] = proved\n"
        "def cnm_cluster(g):\n"
        "    return g.memo('cnm', lambda: g.memo(KEY, list))\n"
    )
    assert memo_writes(ast.parse(source)) == [
        (5, "Graph.eigh", "eigh"),
        (9, "Graph.end_pairs", "end pairs"),
        (11, "cnm_cluster", "cnm"),
    ]


def test_second_writer_of_a_memo_key_is_flagged():
    trees = {name: parsed(name) for name in ("baselines.py", "graphs.py")}
    assert offenders("memo_keys", trees.get) == []
    trees["harness.py"] = ast.parse("def run_method(g):\n    return g.memo('cnm', lambda: None)\n")
    assert offenders("memo_keys", trees.get) == ["harness.py:2: run_method: cnm"]
    planted = FILES["baselines.py"].read_text() + "def f(g):\n    return g.memo(('cnm', 1), list)\n"
    trees["baselines.py"] = ast.parse(planted)
    assert offenders("memo_keys", trees.get) == [
        f"baselines.py:{planted.count(chr(10))}: f: cnm",
        "harness.py:2: run_method: cnm",
    ]


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import numpy as np\n"
        "import os.path\n"
        "from templateclust import Graph, InputError as Bad, build_graph\n"
        "__all__ = ['build_graph']\n"
        "def f(g: Graph) -> None:\n"
        "    import json\n"
        "    return os.sep\n"
    )
    assert unread_imports(ast.parse(source)) == [(2, "itertools"), (3, "np"), (5, "Bad"), (8, "json")]


def test_self_comparison_detector():
    # lines 1 and 2 are how the command line and the harness once tested for
    # "no coupling given"; an integer test by rounding is not a self-comparison
    source = (
        "if args.prob == args.prob: pass\n"
        "key = None if value != value else value\n"
        "ok = 0 <= prob != prob\n"
        "whole = np.round(x) == x\n"
        "same = a == b != c and f(x) == f(x)\n"
    )
    assert self_comparisons(ast.parse(source)) == [
        (1, "args.prob == args.prob"),
        (2, "value != value"),
        (3, "prob != prob"),
    ]


def test_family_shape_detector():
    # lines 1 and 2 are how the command line once gave and tested bp's
    # default; a shape named inside a longer string is not a literal of it
    source = (
        "synth.add_argument('--intra-mode', choices=INTRA_MODES, default='bipartite')\n"
        "if args.intra_mode != 'bipartite': pass\n"
        "def make_bp(size, inter, intra_mode: str = 'hub'): pass\n"
        "message = f'intra_mode {mode!r} is not hub'\n"
        "ok = mode in ('hubs', 'bipartite graph') or mode is None\n"
    )
    assert family_shapes(ast.parse(source)) == [(1, "'bipartite'"), (2, "'bipartite'"), (3, "'hub'")]


def test_process_settings_detector():
    # imports at any depth, reads of the module or of an array's `.ctypes`,
    # and calls of the policy, bare or through its module
    source = (
        "import ctypes.util\n"
        "from ctypes import CDLL\n"
        "def _keep_freed_memory():\n"
        "    import ctypes\n"
        "    return ctypes.CDLL(None).mallopt\n"
        "def main():\n"
        "    _keep_freed_memory()\n"
        "def run(a):\n"
        "    cli._keep_freed_memory()\n"
        "    return a.ctypes.data\n"
    )
    assert process_settings(ast.parse(source)) == [
        (1, "", "import ctypes.util"),
        (2, "", "from ctypes import CDLL"),
        (4, "_keep_freed_memory", "import ctypes"),
        (5, "_keep_freed_memory", "ctypes"),
        (7, "main", "_keep_freed_memory()"),
        (9, "run", "cli._keep_freed_memory()"),
        (10, "run", "a.ctypes"),
    ]


def test_renumbering_detector():
    # lines 2-3 are the second copy of Partition's rule that the ARI once held
    source = (
        "def _dense_ids(x):\n"
        "    values = np.flatnonzero(np.bincount(x))\n"
        "    _, inverse = np.unique(x, return_inverse=True)\n"
        "def f(x, first):\n"
        "    values = np.unique(x)\n"
        "    np.minimum.at(first, x, np.arange(x.size))\n"
        "    np.add.at(first, x, 1)\n"
        "    return unique(x, return_index=True, return_inverse=flag), np.unique_inverse(x)\n"
    )
    assert renumberings(ast.parse(source)) == [
        (3, "_dense_ids", "np.unique(x, return_inverse=True)"),
        (6, "f", "np.minimum.at(first, x, np.arange(x.size))"),
        (8, "f", "unique(x, return_index=True, return_inverse=flag)"),
        (8, "f", "np.unique_inverse(x)"),
    ]


def test_third_copy_of_the_counting_rule_is_flagged():
    planted = FILES["metrics.py"].read_text() + (
        "def dense(x):\n"
        "    first = np.full(x.size, x.size)\n"
        "    np.minimum.at(first, x, np.arange(x.size))\n"
    )
    trees = {"metrics.py": ast.parse(planted)}
    line = len(planted.splitlines())
    assert offenders("label_renumbering", trees.get) == [
        f"metrics.py:{line}: dense: np.minimum.at(first, x, np.arange(x.size))"
    ]


def test_policy_applied_at_import_is_flagged():
    planted = FILES["cli.py"].read_text() + "_keep_freed_memory()\n"
    trees = {"cli.py": ast.parse(planted)}
    line = len(planted.splitlines())
    assert offenders("process_settings", trees.get) == [f"cli.py:{line}: : _keep_freed_memory()"]  # module scope

def test_private_access_detector():
    source = (
        "from __future__ import annotations\n"
        "from templateclust.baselines import Partition, _cnm_merges\n"
        "import templateclust._hidden\n"
        "x = g._memo['cnm'] if self._memo else cls._cache\n"
        "object.__setattr__(self, 'n', type(g).__name__)\n"
    )
    assert private_accesses(ast.parse(source)) == [
        (2, "from templateclust.baselines import Partition, _cnm_merges"),
        (3, "import templateclust._hidden"),
        (4, "g._memo"),
    ]


def test_unread_private_detector():
    source = (
        "import numpy as _np\n"
        "_ORDER = [0, 4, 2, 6]\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "_LIMIT: int = 8\n"
        "def _sum(t):\n"
        "    return _sum(t[1:]) if len(t) > _LIMIT else t.sum()\n"
        "def _order(d):\n"
        "    return _ORDER[:d]\n"
        "class _Box:\n"
        "    _slot = 1\n"
        "def public(x):\n"
        "    return _np.asarray(x)[_order(_a)]\n"
        "if __name__ == '__main__':\n"
        "    print(_Box)\n"
    )
    assert unread_private_names(ast.parse(source)) == [(3, "_b"), (5, "_sum")]


def test_field_detector():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    width: int\n"
        "    depth: int = field(init=False)\n"
        "    def grow(self):\n"
        "        self.depth = self.width + 1\n"
        "@dataclasses.dataclass\n"
        "class Tag:\n"
        "    colour: str\n"
        "    shade: str\n"
        "class Plain:\n"
        "    height: int\n"
        "COLUMNS = ('shade',)\n"
    )
    source = ast.parse(source)
    assert dataclass_fields(source) == [(5, "Box.width"), (6, "Box.depth"), (11, "Tag.colour"), (12, "Tag.shade")]
    reads = read_names(source) | read_names(ast.parse("getattr(tag, 'colour')"))
    assert [name for _, name in dataclass_fields(source) if name.split(".")[1] not in reads] == ["Box.depth"]


def layout_faults(sources: dict[str, str]) -> list[str]:
    """The rounding layout rules' offenders among package files given by name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    return [fault for rule in ("compared_methods", "kmeans_names", "traced_kmeans") for fault in offenders(rule, trees.get)]


def test_layout_detector():
    # the layout before `rounding.py`: k-means in template, imported from there
    before = {
        "template.py": "def _lloyd(p, c, max_iters): pass\ndef kmeans(p, k, rng): pass\n",
        "baselines.py": "from templateclust.template import kmeans\n",
    }
    assert layout_faults(before) == [
        "baselines.py:1: imports from templateclust.template",
        "template.py:1: defines _lloyd",
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


def test_rng_free_rounding_detector():
    # the rounding module as it was when spectral seeded k-means++ restarts
    seeded = (
        "import numpy as np\n"
        "from numpy.random import Generator\n"
        "RESTARTS = 10\n"
        "def _kmeans_pp_init(points, k, rng: np.random.Generator):\n"
        "    return points[rng.integers(len(points), size=k)]\n"
        "def kmeans(points, k, rng, centroids=None):\n"
        "    seeds = _kmeans_pp_init(points, k, rng=rng) if centroids is None else centroids\n"
        "    return np.random.default_rng(0).permutation(seeds)\n"
    )
    assert rng_free_rounding(ast.parse(seeded)) == [
        (2, "from numpy.random import Generator"),
        (4, "np.random"),
        (4, "np.random.Generator"),
        (4, "rng: np.random.Generator"),
        (5, "rng"),
        (6, "rng"),
        (7, "rng"),
        (7, "rng=rng"),
        (8, "np.random"),
    ]
    assert rng_free_rounding(ast.parse("import numpy as np\ndef kmeans(points, centroids): pass\n")) == []
    fault = [(None, "does not import pivoted_qr_seeds from templateclust.rounding")]
    assert rng_free_rounding(ast.parse("from templateclust.rounding import kmeans\n")) == fault
    assert rng_free_rounding(ast.parse("from templateclust import rounding\nrounding.pivoted_qr_seeds\n")) == fault
    assert rng_free_rounding(ast.parse("from .rounding import kmeans, pivoted_qr_seeds\n")) == []


def test_private_rounding_reads_detector():
    source = (
        "from templateclust.rounding import _kmeans_pp_init, _lloyd\n"
        "from templateclust.rounding import RESTARTS, kmeans as km\n"
        "from templateclust import rounding as r, template\n"
        "import templateclust.rounding\n"
        "import templateclust.rounding as tr\n"
        "from templateclust.baselines import _cnm_merges\n"
        "x = r._lloyd, templateclust.rounding._lloyd, tr._lloyd(km), r.kmeans, template._x, templateclust._y\n"
    )
    assert private_rounding_reads(ast.parse(source)) == [
        (1, "from templateclust.rounding import _kmeans_pp_init, _lloyd"),
        (7, "r._lloyd"),
        (7, "templateclust.rounding._lloyd"),
        (7, "tr._lloyd"),
    ]
