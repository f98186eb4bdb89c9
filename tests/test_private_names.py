"""No module of the package reaches into another's private names.

A name with one leading underscore is private to the module or class that
defines it. A module imports only public names from another and reads a
private attribute only of `self` or `cls`, so state such as a graph's memo
is reached through its public methods. And every module-level private name a
module defines is read in that module outside its own definition, so a helper
left behind by a refactor fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "templateclust"


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_accesses(source: str) -> list[tuple[int, str]]:
    """(line, code) for each import of a private name or module, and each
    private attribute read from anything but `self` or `cls`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names += [node.module or ""]
            if any(private(part) for name in names for part in name.split(".")):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "from templateclust.baselines import Partition, _cnm_merges\n"
        "import templateclust._hidden\n"
        "x = g._memo['cnm'] if self._memo else cls._cache\n"
        "object.__setattr__(self, 'n', type(g).__name__)\n"
    )
    assert private_accesses(source) == [
        (2, "from templateclust.baselines import Partition, _cnm_merges"),
        (3, "import templateclust._hidden"),
        (4, "g._memo"),
    ]


def test_package_reads_no_private_name_of_another_module():
    offenders = [
        f"{path.name}:{line}: {code}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, code in private_accesses(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return []


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) for each module-level private name that no other
    module-level statement of the source reads."""
    body = ast.parse(source).body
    return [
        (node.lineno, name)
        for node in body
        for name in defined_names(node)
        if private(name)
        and not any(
            isinstance(use, ast.Name) and use.id == name and isinstance(use.ctx, ast.Load)
            for other in body
            if other is not node
            for use in ast.walk(other)
        )
    ]


def test_unread_detector():
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
    assert unread_private_names(source) == [(3, "_b"), (5, "_sum")]


def test_package_reads_every_private_name_it_defines():
    unread = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unread_private_names(path.read_text(encoding="utf-8"))
    ]
    assert not unread
