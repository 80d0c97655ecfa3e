"""The benchmark tracer (perfbench/tracing.py) times layers by replacing
module attributes of nanosim at run time. Every attribute it lists must
exist, or a traced benchmark run breaks."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the source without writing bytecode next to it
PATCHES = runpy.run_path(str(Path(__file__).resolve().parents[1]
                             / "perfbench" / "tracing.py"))["PATCHES"]


@pytest.mark.parametrize("module, attr", [(m, a) for m, entries in PATCHES.items()
                                          for a, _ in entries])
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"nanosim.{module}"), attr, None))
