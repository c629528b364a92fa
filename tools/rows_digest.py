"""Print a short digest of every row the benchmark workloads return, so that
two checkouts can be compared for byte-identical rows with one ``diff``.

    python3 tools/rows_digest.py [--experiments] > rows.txt

Each line names a ``perfbench/workloads.py`` workload and gives, at seeds 42
and 7, the first 16 hex digits of the sha256 of its units' row texts joined
by newlines. With ``--experiments`` it also prints, for each harness
experiment at its default config, the same prefix of the record's
``canonical_json``. The script reads the package and the workloads of the
checkout it sits in, so a copy of it in an exported older revision digests
that revision. BLAS runs on one thread, so that a row's long reductions
round the same way on every host.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
SEEDS = (42, 7)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _workloads():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def workload_digest(workloads, name: str, seed: int) -> str:
    """Digest of one pass of a workload at a seed."""
    return digest("\n".join(unit.run()[1] for unit in workloads.build(name, seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--experiments", action="store_true",
                        help="also digest every default-config experiment record")
    args = parser.parse_args(argv)
    # before numpy loads (``_workloads`` imports it): it reads them once
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    workloads = _workloads()
    for name in workloads.SIZES:
        print(name, *(workload_digest(workloads, name, seed) for seed in SEEDS), flush=True)
    if args.experiments:
        from poissonforms.harness import EXPERIMENTS, resolve_config, run_experiment

        for name in EXPERIMENTS:
            print(name, digest(run_experiment(resolve_config(name)).canonical_json()),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
