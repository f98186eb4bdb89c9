"""Only `harness` seeds random streams in the package.

A repetition's graph, template noise and method streams are seeded by where
the repetition sits in its grid, and `harness` alone knows that layout;
`cluster` takes its streams from there too. A module that made a generator
itself would draw streams that no grid row reproduces, so every reference
to a seeding constructor outside `harness.py` fails here. The package's
other functions take a `numpy.random.Generator` from their caller.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "templateclust"
SEEDERS = {"default_rng", "RandomState", "SeedSequence"}
OWNER = "harness.py"


def seeder_uses(source: str) -> list[tuple[int, str]]:
    """(line, code) for each import, read or call of a name in SEEDERS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] in SEEDERS for alias in node.names):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and node.attr in SEEDERS or isinstance(node, ast.Name) and node.id in SEEDERS:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_detector():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng as fresh\n"
        "def run(seed, rng: np.random.Generator):\n"
        "    a = np.random.default_rng((seed, 0))\n"
        "    b = fresh(seed)\n"
        "    c = np.random.RandomState(seed).rand()\n"
        "    return rng.random(), args.default_rng_seed, a, b, c\n"
    )
    assert seeder_uses(source) == [
        (2, "from numpy.random import default_rng as fresh"),
        (4, "np.random.default_rng"),
        (6, "np.random.RandomState"),
    ]


def test_only_harness_seeds_streams():
    offenders = [
        f"{path.name}:{line}: {code}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != OWNER
        for line, code in seeder_uses(path.read_text(encoding="utf-8"))
    ]
    assert not offenders
