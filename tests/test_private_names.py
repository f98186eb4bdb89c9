"""No module of the package reaches into another's private names.

A name with one leading underscore is private to the module or class that
defines it. A module imports only public names from another and reads a
private attribute only of `self` or `cls`, so state such as a graph's memo
is reached through its public methods.
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
