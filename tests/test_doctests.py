import doctest
import importlib
import pkgutil

import towertop

MODULES = tuple(
    importlib.import_module(f"towertop.{info.name}")
    for info in pkgutil.iter_modules(towertop.__path__)
)


def test_module_doctests():
    ran = 0
    for mod in MODULES:
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        ran += result.attempted
    assert ran > 0
