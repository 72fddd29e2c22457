"""The traced benchmark wraps ifsseq by name (bench/tracer.py).  A listed
method that becomes a property, or a name that is renamed away, is skipped
without notice there and zeroes its per-layer metric, so the names are
checked here.  Nothing under bench/ is written.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


@pytest.mark.parametrize("short", tracer.MODULES)
def test_traced_modules_import(short):
    importlib.import_module(f"ifsseq.{short}")


@pytest.mark.parametrize("key", sorted(tracer.METHODS), ids=lambda key: ".".join(key))
def test_methods_are_plain_functions_of_their_class(key):
    short, cls_name, method = key
    cls = getattr(importlib.import_module(f"ifsseq.{short}"), cls_name)
    assert inspect.isfunction(vars(cls).get(method))


@pytest.mark.parametrize("short, attr", tracer.FOREIGN)
def test_foreign_names_exist(short, attr):
    assert callable(getattr(importlib.import_module(f"ifsseq.{short}"), attr, None))
