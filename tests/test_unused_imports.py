"""No module of the package or its tests imports a name it never reads.

No linter ships with the project, so this AST check stands in for one. A
name counts as read when the module loads it anywhere, or lists it in its
`__all__`. `from __future__` imports are exempt. `test_acceptance.py` is
exempt by name: it holds the acceptance criteria as written, unused
imports included.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXEMPT = {"test_acceptance.py"}


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that the source never reads."""
    tree = ast.parse(source)
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            reads |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [
        (node.lineno, bound)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (bound := alias.asname or alias.name.split(".")[0]) not in reads
    ]


def test_detector():
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
    assert unread_imports(source) == [(2, "itertools"), (3, "np"), (5, "Bad"), (8, "json")]


def test_no_module_imports_a_name_it_never_reads():
    unread = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for root in ("src", "tests")
        for path in sorted((REPO / root).rglob("*.py"))
        if path.name not in EXEMPT
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unread
