"""Every library name the traced benchmark wraps still exists, so a change
that removes or renames one fails here rather than in `bench/run.py
--trace 1` or `--smoke`."""

import importlib

from conftest import import_bench_module

from lpmink.geometry import Polygon


def test_wrapped_names_exist():
    spans = import_bench_module("spans")
    missing = [f"lpmink.{layer}.{name}"
               for layer, names in spans.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"lpmink.{layer}"), name, None))]
    missing += [f"lpmink.geometry.Polygon.{name}" for name in spans.WRAPPED_METHODS
                if not callable(getattr(Polygon, name, None))]
    assert missing == []
