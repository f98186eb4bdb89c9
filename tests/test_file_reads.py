"""Every input file the package reads is parsed in `dataio`.

Edge lists, label files and template files share one reader there, with one
encoding, comment and number rule. An AST guard keeps file reads and text
parsers out of the rest of the package, and keeps `dataio` to one bulk parse
call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "templateclust"

READERS = {"loadtxt", "genfromtxt", "read_text", "read_bytes"}


def file_reads(source: str) -> list[tuple[int, str]]:
    """(line, call) for each call of a text parser or file reader, and each
    `open` whose mode is not a literal write, append or create mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func).split(".")[-1]
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None
            )
            # a mode that is not a string literal may read
            mode = mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "r"
            if not set(mode) & set("wax") or "+" in mode:
                found.append((node.lineno, ast.unparse(node)))
        elif name in READERS:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_detector():
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
    assert file_reads(source) == [
        (1, "np.loadtxt(args.template, ndmin=2, encoding='utf-8-sig')"),
        (2, "Path(p).read_text()"),
        (4, "open(path)"),
        (5, "gzip.open(path, mode='rt')"),
        (6, "open(path, 'r+')"),
        (7, "open(path, mode)"),
        (8, "np.genfromtxt(p)"),
    ]


def test_only_dataio_reads_files():
    offenders = [
        f"{path.name}:{line}: {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "dataio.py"
        for line, call in file_reads(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_one_bulk_parse_call():
    calls = [
        (path.name, call)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, call in file_reads(path.read_text(encoding="utf-8"))
        if "loadtxt" in call
    ]
    assert [name for name, _ in calls] == ["dataio.py"], calls
