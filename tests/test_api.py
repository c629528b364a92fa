import importlib
import pkgutil

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
