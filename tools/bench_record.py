"""Record a ``BENCH_<k>.json``: the benchmark's end-to-end metrics on a base
revision and on this checkout, side by side.

    python3 tools/bench_record.py --out BENCH_1.json --base HEAD~1

The base revision is exported with ``git archive`` into a temporary
directory, so both sides build from their own source. For each workload of
``BENCHMARK.json`` the script runs ``PAIRS`` pairs of ``perfbench/run.py``
at its default seed and at the benchmark's ``run_seconds`` per run; the
base runs first in even pairs and the change first in odd ones, so neither
side always runs on the warmer or the cooler host. It keeps every run's
metrics and their medians. It then times every harness experiment at its
default config in ``PAIRS`` pairs, in the same alternating order, each run
in a fresh process with BLAS on one thread: the median wall time of
``run_experiment(resolve_config(name))`` and the median peak resident
memory of the process (``ru_maxrss``, import included) per side, and every
run's two values, so that a move can be read against its spread. Each
workload's ``verdict`` reads its runs against ``BENCHMARK.json``, per
end-to-end metric (see ``verdict``). The record also holds the host's CPU
count, the numpy and scipy versions and the git shas; with uncommitted
changes (``dirty``) the change side is the working tree on top of ``head``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10  # alternating base/change pairs per workload and per experiment

# one default-config experiment in a fresh process; prints its wall seconds
# and the process's peak resident memory
_EXPERIMENT = """
import json, resource, sys
sys.path.insert(0, "src")
from poissonforms.harness import resolve_config, run_experiment
rec = run_experiment(resolve_config(sys.argv[1]))
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": rec.wall_clock, "peak_rss_mb": rss, "passed": rec.passed}))
"""


def _git(*cmd: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True,
                          check=True).stdout.strip()


def _last_json(cmd: list[str], cwd: Path) -> dict:
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} failed in {cwd}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _medians(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {m: statistics.median(r["metrics"][m]["value"] for r in runs) for m in names}


def verdict(base: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (name, better, bound),
    how the change's runs compare with the base's; run i of each side is
    pair i. ``move`` is change median / base median - 1, ``better_pairs``
    the pairs in which the change was better. The status is ``unresolved``
    when the base's interquartile range over its median exceeds the bound
    (the base's own spread hides a move of that size), else ``beyond
    bound`` when |move| exceeds it (the sign of ``move`` says which way)
    and ``within bound`` when it does not."""
    out = {}
    for m in metrics:
        b = [r[m["name"]] for r in base]
        c = [r[m["name"]] for r in change]
        q1, med, q3 = statistics.quantiles(b, n=4, method="inclusive")
        move = statistics.median(c) / med - 1.0
        sign = -1.0 if m["better"] == "lower" else 1.0
        if (q3 - q1) / med > m["bound"]:
            status = "unresolved"
        else:
            status = "beyond bound" if abs(move) > m["bound"] else "within bound"
        out[m["name"]] = {
            "base_quartiles": [q1, med, q3], "base_median": med,
            "change_median": statistics.median(c), "move": move,
            "better_pairs": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "status": status,
        }
    return out


def _alternate(trees: dict[str, Path], run) -> dict[str, list[dict]]:
    """``run(tree)`` on every side, ``PAIRS`` times, the first side first in
    even pairs and last in odd ones."""
    runs: dict[str, list[dict]] = {side: [] for side in trees}
    for i in range(PAIRS):
        order = list(trees.items())
        for side, tree in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run(tree))
    return runs


def _experiments(tree: Path) -> list[str]:
    code = "import sys; sys.path.insert(0, 'src'); from poissonforms.harness import " \
           "EXPERIMENTS; print(__import__('json').dumps(list(EXPERIMENTS)))"
    return _last_json([sys.executable, "-c", code], tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--base", default="HEAD~1", help="git revision to compare against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": {"base": _git("rev-parse", args.base), "head": _git("rev-parse", "HEAD"),
                "dirty": bool(_git("status", "--porcelain"))},
        "pairs": PAIRS,
        "seconds": seconds,
        "workloads": {},
        "experiments": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        trees = {"base": base, "change": ROOT}
        for wl in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                   "--seconds", str(seconds), "--trace", "0"]
            runs = _alternate(trees, lambda tree: _last_json(cmd, tree))
            row = record["workloads"][wl] = {
                side: {"median": _medians(rs), "correct": all(r["correct"] for r in rs),
                       "runs": [{m: v["value"] for m, v in r["metrics"].items()} for r in rs]}
                for side, rs in runs.items()
            }
            row["verdict"] = verdict(row["base"]["runs"], row["change"]["runs"],
                                     spec["end_to_end"])
            print(wl, {m: v["status"] for m, v in row["verdict"].items()}, flush=True)
        names = {side: _experiments(tree) for side, tree in trees.items()}
        for name in names["change"]:
            sides = {side: tree for side, tree in trees.items() if name in names[side]}
            runs = _alternate(sides, lambda tree: _last_json(
                [sys.executable, "-c", _EXPERIMENT, name], tree))
            row = {side: {"wall_s": statistics.median(r["wall_s"] for r in rs),
                          "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rs),
                          "passed": all(r["passed"] for r in rs),
                          "runs": [{m: r[m] for m in ("wall_s", "peak_rss_mb")} for r in rs]}
                   for side, rs in runs.items()}
            record["experiments"][name] = row
            print(name, {s: {m: v[m] for m in ("wall_s", "peak_rss_mb")} for s, v in row.items()},
                  flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
