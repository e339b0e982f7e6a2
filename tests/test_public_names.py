import importlib
import inspect

import pytest

LAYERS = ("spectral", "spectrometer", "serrodyne", "heralded", "statistics", "losses",
          "scenarios")


def is_function_or_class(value) -> bool:
    return inspect.isfunction(value) or inspect.isclass(value)


@pytest.mark.parametrize("layer", LAYERS)
def test_all_lists_exactly_the_public_functions_and_classes(layer):
    module = importlib.import_module(f"fmux.{layer}")
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and is_function_or_class(value)
               and value.__module__ == module.__name__}
    assert len(set(module.__all__)) == len(module.__all__)
    # getattr fails on a name that lingers in __all__ after its definition is gone
    exported = {name for name in module.__all__ if is_function_or_class(getattr(module, name))}
    assert exported == defined
