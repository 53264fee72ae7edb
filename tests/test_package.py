import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import glassland
from glassland import (complexity, dyson, errors, hamiltonian, mixture,
                       presets)

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


SKEW = presets.get_preset("skew-pair")
ST = mixture.stats(SKEW)
NAN = float("nan")
# bad input must raise ValidationError, not return a number or another error
BAD_INPUT = {
    "F_extended-E": lambda: complexity.F_extended(ST, [0.1, 0.2], NAN),
    "measure-sizes": lambda: dyson.spectral_measure(ST, [0.1, 0.2],
                                                    sizes=[3.7, 5]),
    "sample-N": lambda: hamiltonian.sample(SKEW, 20.5, seed=0),
    "make_partition-N": lambda: hamiltonian.make_partition(SKEW, 20.5),
    "v_star": lambda: mixture.v_star(SKEW, [NAN, NAN]),
    "stability_matrices": lambda: dyson.stability_matrices(ST, [NAN, 0.5]),
    "feasibility": lambda: dyson.feasibility(ST, [NAN, 0.5]),
    "boundary-chi": lambda: dyson.classify_boundary_point(ST, [0.1, 0.2],
                                                          [NAN, NAN]),
}


@pytest.mark.parametrize("call", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_validation_error(call):
    with pytest.raises(errors.ValidationError):
        call()
