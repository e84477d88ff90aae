"""The public API: each module's `__all__` declares it, and the package re-exports it."""

import inspect

import pytest

import adaptive_pp
from adaptive_pp import audits, controller, estimator, exact, plant, polynomial, simulation

MODULES = (polynomial, plant, estimator, controller, exact, simulation, audits)


def _defined_public(module) -> set[str]:
    """Top-level functions and classes `module` defines whose names carry no underscore."""
    names = set()
    for name, obj in vars(module).items():
        target = inspect.unwrap(obj)  # an lru_cache wrapper counts as its function
        if (
            not name.startswith("_")
            and (inspect.isfunction(target) or inspect.isclass(target))
            and target.__module__ == module.__name__
        ):
            names.add(name)
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_module_all_declares_its_public_names(module):
    declared = module.__all__
    assert sorted(_defined_public(module) - set(declared)) == []
    assert [name for name in declared if not hasattr(module, name)] == []
    assert len(set(declared)) == len(declared)
    elsewhere = {name for other in MODULES if other is not module for name in other.__all__}
    assert sorted(elsewhere & set(declared)) == []
    for name in declared:
        assert getattr(adaptive_pp, name) is getattr(module, name), name


def test_package_all_is_the_version_and_the_modules_names():
    names = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert sorted(adaptive_pp.__all__) == sorted(names)
    star: dict = {}
    exec("from adaptive_pp import *", star)
    assert set(star) - {"__builtins__"} == set(names)
