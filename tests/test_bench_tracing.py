"""The benchmark's traced run wraps program names from outside; every name it
lists must still exist where it looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for module_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_methods_are_defined_on_their_class(tracing):
    # install() reads cls.__dict__[method]; an inherited method would raise
    for module_name, class_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        assert method in cls.__dict__, f"{class_name}.{method}"
