import ast
import functools
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import poissonforms

# every module but ``__main__``, which runs the CLI when imported
MODULES = [
    m.name
    for m in pkgutil.iter_modules(poissonforms.__path__, "poissonforms.")
    if m.name != "poissonforms.__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *``
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _perfbench_module(monkeypatch, name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve(monkeypatch):
    # the benchmark tracer wraps these package names; deleting or renaming
    # one must fail here, not only in a traced benchmark run
    tracing = _perfbench_module(monkeypatch, "tracing")
    missing = []
    for b in tracing.BOUNDARIES:
        try:
            functools.reduce(getattr, b.attr.split("."), importlib.import_module(b.module))
        except (ImportError, AttributeError):
            missing.append(b.name)
    assert not missing


@pytest.mark.parametrize("workload", ["mc-batch", "series", "forms", "diffusion"])
def test_benchmark_workload_pass(monkeypatch, workload):
    # one pass of a benchmark workload: every argument and keyword it passes
    # to the package is still accepted, it returns its rows in order, its
    # deterministic identities hold, and a repeat reproduces it byte for byte
    workloads = _perfbench_module(monkeypatch, "workloads")

    def one_pass():
        return [unit.run() for unit in workloads.build(workload, 42)]

    first = one_pass()
    rows = [row for unit_rows, _ in first for row in unit_rows]
    assert tuple(row["check"] for row in rows) == workloads.CHECK_NAMES[workload]
    failed = [row["check"] for row in rows if not (workloads.monte_carlo(row) or row["pass"])]
    assert not failed
    assert [text for _, text in one_pass()] == [text for _, text in first]


def test_rows_digest_of_one_workload(monkeypatch):
    # tools/rows_digest.py prints these digests for two checkouts to diff:
    # a pass gives a 16-digit hex prefix that a repeat reproduces and that
    # another seed changes
    path = Path(__file__).resolve().parents[1] / "tools" / "rows_digest.py"
    spec = importlib.util.spec_from_file_location("_rows_digest", path)
    rows_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rows_digest)
    workloads = _perfbench_module(monkeypatch, "workloads")
    first = rows_digest.workload_digest(workloads, "series", 42)
    assert len(first) == 16 and set(first) <= set("0123456789abcdef")
    assert rows_digest.workload_digest(workloads, "series", 42) == first
    assert rows_digest.workload_digest(workloads, "series", 7) != first


def test_no_scipy_import_outside_the_version_record():
    # scipy.special alone adds about 25 MB of resident memory to a process;
    # the package imports scipy only to record its version
    src = Path(poissonforms.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == [("harness.py", "scipy")]


def test_diffusion_checks_do_not_load_scipy_special():
    code = """
import sys
from poissonforms.harness import resolve_config, run_experiment
from poissonforms.pointprocess import RngStream
from poissonforms.stochastic import SdeConfig, sphere_uniform_check
sphere_uniform_check(0.2, SdeConfig(0.2, 0.05), 500, RngStream(3))
run_experiment(resolve_config("semigroup-ou", overrides={"n_samples": 2000}))
print("scipy.special" in sys.modules)
"""
    src = str(Path(poissonforms.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split()[-1] == "False"
