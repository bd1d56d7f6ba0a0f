"""Each library module's ``__all__`` is exactly its public surface."""

import importlib
import inspect

import pytest

MODULES = ("hilbert", "model", "flow", "continuation", "oracles", "problems")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"dsmflow.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    # functions and classes defined here, not imported, whose name has no underscore
    public = {key for key, obj in vars(module).items()
              if not key.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert public - set(module.__all__) == set()


def test_oracles_export_only_the_two_oracles():
    from dsmflow import oracles

    assert sorted(oracles.__all__) == ["OracleReport", "newton_oracle", "pseudoinverse_min_norm"]
