import importlib
import pkgutil
import re
from pathlib import Path

import glassland
from glassland import errors

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


def test_every_exception_is_raised():
    # each leaf of errors.py is raised by name somewhere in the package
    bases = {"GlasslandError", "ValidationError", "NumericalError"}
    leaves = {name for name, obj in vars(errors).items()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__ == errors.__name__} - bases
    src = Path(glassland.__file__).parent
    text = "\n".join(p.read_text() for p in src.glob("*.py"))
    raised = set(re.findall(r"\braise\s+(\w+)\(", text))
    assert leaves and leaves <= raised, sorted(leaves - raised)
