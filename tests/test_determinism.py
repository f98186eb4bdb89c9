"""Every random draw in the package comes from a generator its caller seeds.

`np.random.default_rng()` with no seed draws fresh OS entropy, and any other
`np.random.<fn>` call uses numpy's legacy global state; either makes a run's
output depend on more than its inputs and seeds.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "templateclust"


def unseeded_random_calls(source: str) -> list[tuple[int, str]]:
    """(line, call) for each unseeded or global-state `np.random` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner = node.func.value
        if not (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in ("np", "numpy")
        ):
            continue
        if node.func.attr != "default_rng" or not (node.args or node.keywords):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_detector():
    source = "a = np.random.default_rng()\nb = np.random.default_rng(3)\nc = numpy.random.rand(2)\nd = rng.random()\n"
    assert unseeded_random_calls(source) == [(1, "np.random.default_rng()"), (3, "numpy.random.rand(2)")]


def test_package_draws_only_from_seeded_generators():
    offenders = [
        f"{path.name}:{line}: {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, call in unseeded_random_calls(path.read_text(encoding="utf-8"))
    ]
    assert not offenders
