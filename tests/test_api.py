import importlib
import inspect

import pytest

import cyclecones

MODULES = [
    "numtheory", "qseries", "linalg", "classes", "cones", "lattice", "cli"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_names(name):
    mod = importlib.import_module(f"cyclecones.{name}")
    for attr in mod.__all__:
        obj = getattr(mod, attr)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, attr
    if name == "cli":
        assert mod.__all__ == ["main"]
        return
    defined = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == mod.__name__
    }
    assert defined <= set(mod.__all__)


def test_package_reexports_only_listed_names():
    for attr, obj in vars(cyclecones).items():
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        mod = importlib.import_module(obj.__module__)
        assert attr in mod.__all__, (attr, mod.__name__)
