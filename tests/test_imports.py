import os
import subprocess
import sys
from pathlib import Path

import pytest

from templateclust import graphs

from conftest import load_bench_workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_scipy_or_networkx():
    """Importing the CLI must not load scipy or networkx.

    Each costs the benchmark's set-up at every start (2-core Xeon, one BLAS
    thread): `scipy.linalg` +0.31 s and +28 MB, `scipy.sparse` +0.25 s and
    +22 MB, `networkx` +0.18 s and +18 MB. The benchmark bounds `setup_s`
    (about 0.10 s) by 25% and `peak_rss_mb` (about 44 MB) by 5%, so any one
    of them imported at module level fails those bounds. Tests may still use
    them as oracles.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, templateclust.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.split() == []


@pytest.mark.skipif(graphs._subset_driver() is None, reason="numpy's LAPACK exports no dsyevr to bind")
def test_subset_route_loads_no_scipy_or_networkx(tmp_path, monkeypatch):
    """A `real` grid on the benchmark's email-scale files (n = 192, 12
    communities, 16 vertices per end pair) takes LAPACK's subset driver for
    tb's and spectral's one-ended requests, bound from the OpenBLAS numpy
    already loaded: the run loads no scipy or networkx either."""
    load_bench_workloads(monkeypatch).write_email_graph(0, 0, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from templateclust import graphs\n"
        "from templateclust.cli import main\n"
        "solve, runs = graphs.subset_pairs, []\n"
        "graphs.subset_pairs = lambda *args: runs.append(1) or solve(*args)\n"
        f"assert main(['real', '--edges', {str(tmp_path / 'edges-0.txt')!r}, '--labels', "
        f"{str(tmp_path / 'labels-0.txt')!r}, '--methods', 'tb,spectral', '--reps', '1', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(len(runs))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout.splitlines()
    assert out[-2:] == ["2", ""]  # one subset solve each for tb and spectral, and no module
