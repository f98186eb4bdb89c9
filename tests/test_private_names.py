"""No module of the package reaches into another's private names.

A name with one leading underscore is private to the module or class that
defines it. A module imports only public names from another and reads a
private attribute only of `self` or `cls`, so state such as a graph's memo
is reached through its public methods. And every module-level private name a
module defines is read in that module outside its own definition, so a helper
left behind by a refactor fails here. Every dataclass field is read somewhere
in the package, its tests or the benchmark, so a field that is only written
fails here too.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "templateclust"


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


def dataclass_fields(source: str) -> list[tuple[int, str]]:
    """(line, Class.field) for each annotated field of a dataclass."""
    return [
        (stmt.lineno, f"{node.name}.{stmt.target.id}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] == "dataclass"
            for d in node.decorator_list
        )
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def read_names(source: str) -> set[str]:
    """Every attribute name the source loads, and every string constant in
    it, which covers a `getattr` with a constant name and a column tuple
    that names a field."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


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
    assert dataclass_fields(source) == [(5, "Box.width"), (6, "Box.depth"), (11, "Tag.colour"), (12, "Tag.shade")]
    reads = read_names(source) | read_names("getattr(tag, 'colour')")
    assert [name for _, name in dataclass_fields(source) if name.split(".")[1] not in reads] == ["Box.depth"]


def test_every_dataclass_field_is_read():
    reads = set().union(
        *(read_names(path.read_text(encoding="utf-8")) for root in ("src", "tests", "bench")
          for path in sorted((REPO / root).rglob("*.py")))
    )
    unread = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in dataclass_fields(path.read_text(encoding="utf-8"))
        if name.split(".")[1] not in reads
    ]
    assert not unread
