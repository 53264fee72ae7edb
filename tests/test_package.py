import importlib
import pkgutil

import glassland

MODULES = sorted(m.name for m in pkgutil.iter_modules(glassland.__path__))


def test_docstring_names_every_module():
    # the package docstring's module table lists exactly the modules there are
    table = glassland.__doc__.split("-------\n", 1)[1]
    assert sorted(line.split()[0] for line in table.splitlines()
                  if line.strip()) == MODULES


def test_all_names_resolve():
    # a deleted name must leave __all__ with it
    for name in MODULES:
        module = importlib.import_module(f"glassland.{name}")
        missing = [attr for attr in getattr(module, "__all__", ())
                   if not hasattr(module, attr)]
        assert not missing, f"glassland.{name}.__all__ lists {missing}"
