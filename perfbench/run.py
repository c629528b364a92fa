"""Benchmark entry point.

    python3 perfbench/run.py --workload mc-batch --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy, and the run exits non-zero
without a result when that directory is missing. One run is one fresh process:

* ``--trace 0`` runs passes of the workload body, all at the harness seed
  ``--seed``, until the next one would end after ``--seconds`` (at least
  ``MIN_PASSES``); every pass after the first must reproduce the first
  pass's rows byte for byte.
  The raw body time is the sum over units of each unit's fastest pass. The
  work is deterministic, so a slower repeat only adds interference: on
  shared 2-vCPU hosts a fixed 20 ms kernel switched between two speeds, 50 %
  apart, about once a second. Between units, at even intervals over the run,
  it times ``SETUP_PROBES`` fresh processes that import the package and
  build the workload's inputs; the raw set-up time is their median.
  The host's speed also drifted by up to 1.7x over minutes, which moves
  every run in that spell and no choice of pass can undo. So before each
  unit the run also times a fixed pure-Python loop (``_reference_loop``),
  and ``wall_s`` and ``setup_s`` are the raw times rescaled to a host on
  which that loop takes ``REFERENCE_S``: raw time * REFERENCE_S / the loop's
  median over the run. Raw times and the loop's median are printed too.
  ``peak_rss_mb`` is the peak resident memory of this process. BLAS runs on
  one thread.
* ``--trace 1`` runs the body twice untraced (a warm-up, then the reference),
  then twice with every public boundary in ``tracing.py`` wrapped. All four
  must return the same rows, and the traced passes the same counters. The
  spans of the first traced pass are written to ``.perfbench-out/``.

Every pass's check names must equal the workload's recorded list. A
deterministic row (``stderr == 0``: an identity checked to a fixed
tolerance) that fails makes the run incorrect. A Monte Carlo row
(``stderr > 0``, or a hypothesis-test row in ``workloads.TEST_ROWS``) that
fails its gate, or a row lost to an exception, counts in ``failed`` and is
printed by name; ``attempted`` counts the Monte Carlo rows. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 20
REFERENCE_LOOPS = 5
REFERENCE_S = 1e-3
MIN_PASSES = 2
TRACED_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _use_source_tree() -> None:
    if not (SRC / "poissonforms" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'poissonforms'}; "
                 "run from the root of a poissonforms checkout")
    sys.path.insert(0, str(SRC))


class Pass:
    """One execution of every unit of a workload, with its check rows.
    ``between`` runs before each unit, outside the unit's timing."""

    def __init__(self, units, expected: tuple[str, ...], monte_carlo, between=None):
        self.rows: list[dict] = []
        self.texts: list[str] = []
        self.errors: list[str] = []
        self.unit_walls: list[float] = []
        for unit in units:
            if between is not None:
                between()
            t0 = perf_counter()
            try:
                rows, text = unit.run()
            except Exception:  # a failing unit loses its rows; keep measuring
                traceback.print_exc()
                self.errors.append(unit.label)
                rows, text = [], f"error in {unit.label}"
            self.unit_walls.append(perf_counter() - t0)
            self.rows.extend(rows)
            self.texts.append(text)
        self.wall = sum(self.unit_walls)
        names = [row["check"] for row in self.rows]
        self.names_ok = names == list(expected)
        mc = [row for row in self.rows if monte_carlo(row)]
        lost = sorted(set(expected) - set(names))
        self.broken = [row["check"] for row in self.rows
                       if not monte_carlo(row) and not row["pass"]]
        self.failures = [row["check"] for row in mc if not row["pass"]] + lost
        self.attempted = len(mc) + len(lost)

    @property
    def canonical(self) -> str:
        return "\n".join(self.texts)


def _provenance(args, workloads) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = {"sha": "unknown", "dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*cmd: str) -> str:
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()

        git = {"sha": git_out("rev-parse", "HEAD"),
               "dirty": bool(git_out("status", "--porcelain"))}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.SIZES[args.workload],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git": git,
    }


def _setup_probe(args) -> None:
    start = perf_counter()
    import workloads

    workloads.build(args.workload, args.seed)
    print(perf_counter() - start)


def _setup_seconds(args) -> float:
    """One fresh process that imports the package and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("error: set-up probe failed")
    return float(out.stdout.split()[-1])


def _reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed."""
    t0 = perf_counter()
    x = 0.0
    for i in range(20_000):
        x += i * 0.5
    return perf_counter() - t0


def _run_timed(args, spec, workloads, expected, problems) -> tuple[dict, list[Pass], list[Pass]]:
    passes: list[Pass] = []
    probes: list[float] = []
    ref: list[float] = []
    start = perf_counter()

    def between_units() -> None:
        ref.extend(_reference_loop() for _ in range(REFERENCE_LOOPS))
        # probes are spread evenly over the run, so a slow spell on the host
        # moves few of them
        while (len(probes) < SETUP_PROBES
               and perf_counter() - start >= len(probes) * args.seconds / SETUP_PROBES):
            probes.append(_setup_seconds(args))

    while True:
        passes.append(Pass(workloads.build(args.workload, args.seed), expected,
                           workloads.monte_carlo, between=between_units))
        left = (statistics.median(p.wall for p in passes)
                + (SETUP_PROBES - len(probes)) * statistics.median(probes))
        if len(passes) >= MIN_PASSES and perf_counter() - start + left > args.seconds:
            break
    probes += [_setup_seconds(args) for _ in range(SETUP_PROBES - len(probes))]
    if any(p.canonical != passes[0].canonical for p in passes[1:]):
        problems.append("a repeat at the same seed produced different rows")
    walls = sorted(p.wall for p in passes)
    raw_wall = sum(map(min, zip(*(p.unit_walls for p in passes))))
    raw_setup = statistics.median(probes)
    scale = REFERENCE_S / statistics.median(ref)
    values = {
        "wall_s": raw_wall * scale,
        "setup_s": raw_setup * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"passes {len(walls)}: raw wall_s {raw_wall:.4f} s; whole passes: fastest "
          f"{walls[0]:.3f} s, median "
          f"{statistics.median(walls):.3f} s, slowest {walls[-1]:.3f} s; set-up probes "
          f"{len(probes)}: raw median {raw_setup:.4f} s, range "
          f"{min(probes):.3f}-{max(probes):.3f} s; reference loop {len(ref)} times: "
          f"median {statistics.median(ref) * 1e3:.4f} ms")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return metrics, passes[:1], passes


def _run_traced(args, spec, workloads, expected, problems) -> tuple[dict, list[Pass], list[Pass]]:
    from tracing import Tracer

    def one_pass():
        return Pass(workloads.build(args.workload, args.seed), expected,
                    workloads.monte_carlo)

    # the first pass warms the process; the second is the untraced reference
    cold, reference = one_pass(), one_pass()
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    traced, summaries = [], []
    try:
        for _ in range(TRACED_PASSES):
            units = workloads.build(args.workload, args.seed)
            tracer.reset()
            traced.append(Pass(units, expected, workloads.monte_carlo))
            summaries.append(tracer.summary(traced[-1].wall))
            if len(summaries) == 1:
                OUT_DIR.mkdir(exist_ok=True)
                tracer.save(str(OUT_DIR / f"{args.workload}-seed{args.seed}-trace.npz"),
                            summaries[0])
    finally:
        tracer.restore()

    if cold.canonical != reference.canonical:
        problems.append("a repeat at the same seed produced different rows")
    if any(p.canonical != reference.canonical for p in traced):
        problems.append("traced rows differ from the untraced rows")
    if any(s["counters"] != summaries[0]["counters"] for s in summaries):
        problems.append("counters differ between traced passes")
    # Self times plus the residual equal the wall by construction; what can
    # break is the nesting, which shows as a negative self time or residual.
    for s in summaries:
        if s["min_self_s"] < 0 or s["residual_s"] < 0:
            problems.append("spans overlap: a self time or the residual is negative")
    derived = {
        "trace.overhead_frac": statistics.fmean(p.wall for p in traced) / reference.wall - 1.0,
        "trace.covered_frac": statistics.fmean(s["covered_s"] / s["wall_s"] for s in summaries),
    }
    metrics = {
        m["name"]: {"value": derived[m["name"]] if m["name"] in derived
                    else tracer.metric(m["name"], summaries), "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    unhit = [b for b in tracer.names if not summaries[0]["counters"].get(b + ".calls")]
    print(f"traced walls {[round(s['wall_s'], 3) for s in summaries]} s, untraced "
          f"{reference.wall:.3f} s, spans {summaries[0]['spans']}, "
          f"residual {summaries[0]['residual_s']:.3f} s")
    print(f"boundaries not hit by {args.workload}: {', '.join(unhit) or 'none'}")
    return metrics, [reference], [cold, reference, *traced]


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: with two on this class of
    # 2-vCPU host, identical series passes varied by 10 % instead of 1 %.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    _use_source_tree()
    if args.setup_probe:
        _setup_probe(args)
        return 0

    import workloads

    expected = workloads.CHECK_NAMES[args.workload]
    problems: list[str] = []
    run = _run_traced if args.trace else _run_timed
    metrics, counted, checked = run(args, spec, workloads, expected, problems)
    for p in checked:
        if not p.names_ok:
            problems.append("check names differ from the recorded list")
        if p.errors:
            problems.append(f"units raised: {', '.join(p.errors)}")
        if p.broken:
            problems.append(f"deterministic rows failed: {', '.join(p.broken)}")
    attempted = sum(p.attempted for p in counted)
    failed = sum(len(p.failures) for p in counted)
    for p in counted:
        for name in p.failures:
            print(f"FAILED row (harness seed {args.seed}): {name}")
    print(f"rows_failed_frac {failed / attempted:.6g} ({failed}/{attempted} Monte Carlo rows)")
    for problem in dict.fromkeys(problems):
        print(f"INCORRECT: {problem}")
    print("provenance " + json.dumps(_provenance(args, workloads), sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
