"""The CLI's allocator policy: `cli.main` asks glibc, once per process, to
keep the memory it frees, so a repetition's n x n arrays reuse pages the
process already holds instead of faulting fresh ones in.

Tests that measure the policy run in fresh subprocesses, so the heap of the
test process does not matter; the rest replace the C library with a fake.
"""

import ctypes
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from templateclust import cli
from templateclust.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
CLUSTER = ["cluster", "--family", "g3", "--size", "4", "--method", "cnm"]


def glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_glibc = pytest.mark.skipif(
    importlib.util.find_spec("resource") is None or not glibc_mallopt(),
    reason="needs the resource module and glibc's mallopt",
)


def run_python(script: str, *args: str, src: Path = SRC) -> str:
    """Run `script` in a fresh interpreter on the package under `src` (this
    checkout's by default), with one BLAS thread and neither of glibc's
    threshold variables set; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in cli.GLIBC_MALLOC_VARS}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# minor page faults per repetition of the second of two g6 grids of one size
FAULTS = """
import contextlib, io, resource, sys
from templateclust.cli import main
methods, size, out = sys.argv[1:]
grid = ["synth", "--family", "g6", "--sizes", size, "--reps", "3", "--methods", methods]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(grid + ["--out", out + "/warm-up"]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(grid + ["--out", out + "/measured"]) == 0
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@needs_glibc
@pytest.mark.parametrize("methods", ["tb,spectral,cnm,louvain", "tb", "spectral"])
def test_repetitions_reuse_the_memory_they_free(tmp_path, methods):
    """Under glibc's default thresholds the second g6/40 grid (n = 240) took
    687 (all four methods), 320 (tb) and 527 (spectral) minor faults per
    repetition, most of them in eigh's and Cholesky's n x n arrays; under
    the policy 0 to 1."""
    assert float(run_python(FAULTS, methods, "40", str(tmp_path))) < 20


@needs_glibc
@pytest.mark.parametrize("methods", ["tb", "spectral"])
def test_arrays_above_four_mib_reuse_the_memory_they_free(tmp_path, methods):
    """g6/125 (n = 750): an n x n float64 array is 4.3 MiB, above a 4 MiB
    mmap threshold, under which the second grid took 2352 (tb) and 3127
    (spectral) minor faults per repetition; under the policy 0 to 1."""
    assert float(run_python(FAULTS, methods, "125", str(tmp_path))) < 20


@needs_glibc
@pytest.mark.parametrize("methods", ["tb", "spectral"])
@pytest.mark.parametrize("depth", [7, 33])
def test_arrays_above_four_mib_reuse_the_memory_they_free_from_other_paths(tmp_path, methods, depth):
    """The heap's layout follows the lengths of the paths the interpreter
    reads, so the test above once passed or failed by where the checkout lay:
    while a repetition's graph was still alive when the next was sampled, 16
    of 40 path lengths read 30-31 faults per repetition (tb), and so did both
    depths here under pytest's temporary directory (glibc 2.36, CPython
    3.11.7). The package copied `depth` characters deeper must pass as well."""
    src = tmp_path / ("d" * depth) / "src"
    shutil.copytree(SRC / "templateclust", src / "templateclust", ignore=shutil.ignore_patterns("__pycache__"))
    where = run_python("import templateclust; print(templateclust.__file__)", src=src)
    assert where == f"{src / 'templateclust' / '__init__.py'}\n"
    assert float(run_python(FAULTS, methods, "125", str(tmp_path), src=src)) < 20


# a grid through `main`, with the policy left on or replaced by a no-op
GRID = """
import sys
from templateclust import cli
if sys.argv[1] == "off":
    cli._keep_freed_memory = lambda: None
sys.exit(cli.main(sys.argv[2:]))
"""


@needs_glibc
def test_records_do_not_depend_on_the_policy(tmp_path):
    grid = ["synth", "--family", "g6", "--sizes", "10,40", "--reps", "2", "--seed", "3"]
    for policy in ("on", "off"):
        run_python(GRID, policy, *grid, "--out", str(tmp_path / policy))
    for name in ("records.csv", "summary.csv"):
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()


def test_import_and_library_use_leave_the_c_library_alone():
    script = (
        "import numpy as np, templateclust as tc\n"
        "from templateclust import cli\n"
        "spec = tc.make_g3(5)\n"
        "graph, _ = tc.sample_graph(spec, np.random.default_rng(0))\n"
        "tc.template_cluster(graph, tc.expected_model(spec), rng=np.random.default_rng(1))\n"
        "print(cli._keep_freed_memory.cache_info().misses)\n"
    )
    assert run_python(script) == "0\n"


class FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class FakeLibc:
    def __init__(self):
        self.mallopt = FakeMallopt()


@pytest.fixture
def fresh_policy(monkeypatch):
    """A process whose policy has not run yet, with neither of glibc's
    threshold variables set."""
    for var in cli.GLIBC_MALLOC_VARS:
        monkeypatch.delenv(var, raising=False)
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


@pytest.fixture
def libc(monkeypatch, fresh_policy):
    fake = FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
    return fake.mallopt


def test_main_sets_both_thresholds_once(libc):
    assert main(CLUSTER) == 0
    assert main(CLUSTER) == 0
    assert libc.calls == [(-3, 32 * 2**20), (-1, 128 * 2**20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert libc.argtypes == (ctypes.c_int, ctypes.c_int) and libc.restype is ctypes.c_int


@pytest.mark.parametrize("var", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
def test_glibc_settings_from_the_environment_win(libc, monkeypatch, var):
    monkeypatch.setenv(var, "131072")
    assert main(CLUSTER) == 0
    assert libc.calls == []


class NoMallopt:
    pass


def no_library(name):
    raise OSError("cannot open")


@pytest.mark.parametrize("cdll", [lambda name: NoMallopt(), no_library], ids=["no mallopt", "no library"])
def test_missing_mallopt_is_a_silent_no_op(monkeypatch, fresh_policy, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(CLUSTER) == 0
    assert capsys.readouterr().err == ""
