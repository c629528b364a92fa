"""``tools/rows_digest.py`` pins BLAS to one thread before numpy loads."""

import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "rows_digest.py"

# run the script's main in a fresh process, stopping it where it first
# imports numpy (``_workloads``) to print what that import would see
_PROBE = """
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("rows_digest", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)

def probe():
    print("numpy" in sys.modules, *(os.environ[v] for v in module.BLAS_THREAD_VARS))
    raise SystemExit(0)

module._workloads = probe
module.main([])
"""


def test_blas_threads_pinned_before_numpy_loads():
    env = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS"), "2")}
    out = subprocess.run([sys.executable, "-c", _PROBE, str(_PATH)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["False", "1", "1", "1"]
