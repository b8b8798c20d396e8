"""Every name a module exports, and every target of the benchmark tracer, exists.

The tracer in ``perfbench/spans.py`` patches functions and methods by name;
a deleted or renamed target would otherwise surface only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("model", "em", "tuning", "metrics", "simulate", "io", "cli")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"clustreg.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_traced_functions_exist(spans):
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_traced_methods_exist(spans):
    missing = [
        f"{module}.{cls}.{method}"
        for _, module, cls, method in spans.METHODS
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), method, None))
    ]
    assert missing == []
