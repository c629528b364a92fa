import functools
import importlib
import importlib.util
import pkgutil
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


def test_traced_boundaries_resolve(monkeypatch):
    # the benchmark tracer wraps these package names; deleting or renaming
    # one must fail here, not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = []
    for b in tracing.BOUNDARIES:
        try:
            functools.reduce(getattr, b.attr.split("."), importlib.import_module(b.module))
        except (ImportError, AttributeError):
            missing.append(b.name)
    assert not missing
