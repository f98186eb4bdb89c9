import os
import subprocess
import sys
from pathlib import Path

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
