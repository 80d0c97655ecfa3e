"""The benchmark tracer (perfbench/tracing.py) times layers by replacing
module attributes of nanosim at run time. Every attribute it lists must
exist, or a traced benchmark run breaks; and an import that a module does
not use is there only because the tracer patches it."""

import ast
import importlib
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nanosim import nr, swec
from nanosim.netlist import DcAnalysis, TranAnalysis, parse_netlist

from conftest import card, deck_text

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nanosim"
# run_path compiles the source without writing bytecode next to it
PATCHES = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["PATCHES"]


@pytest.mark.parametrize("module, attr", [(m, a) for m, entries in PATCHES.items()
                                          for a, _ in entries])
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"nanosim.{module}"), attr, None))


def unused_imports(source: str) -> set:
    """Names the module ``source`` imports and never reads; a name inside a
    string annotation counts as read."""
    nodes = list(ast.walk(ast.parse(source)))
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    annotations = [a for node in nodes for a in (getattr(node, "annotation", None),
                                                 getattr(node, "returns", None)) if a]
    strings = [ast.parse(sub.value, mode="eval") for ann in annotations
               for sub in ast.walk(ann)
               if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]
    names = nodes + [n for tree in strings for n in ast.walk(tree)]
    return imported - {n.id for n in names if isinstance(n, ast.Name)}


def test_unused_imports_finds_dead_names():
    source = ("import os, numpy as np\nfrom .mna import FlopCounter, solve\n"
              "def f(fc: 'FlopCounter | None') -> None:\n    np.zeros(1)\n")
    assert unused_imports(source) == {"os", "solve"}


# the package's __init__ re-exports what it imports
@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "__init__"))
def test_unused_imports_are_traced(module):
    unused = unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert unused <= {attr for attr, _ in PATCHES.get(module, [])}


def test_solve_calls_match_reported_counts(monkeypatch):
    """The traced run counts linear solves by wrapping ``swec.solve`` and
    ``nr.solve``: whatever ``solve`` does inside, each transient attempt,
    settle iteration and Newton iterate makes exactly one call there."""
    calls = Counter()
    for module in (swec, nr):
        def counted(sys, fc, inner=module.solve, who=module.__name__):
            calls[who] += 1
            return inner(sys, fc)
        monkeypatch.setattr(module, "solve", counted)

    net = parse_netlist(deck_text("fet_rtd_inverter.ckt"))
    series = swec.transient(net, card(net, TranAnalysis).t_stop)
    assert calls.pop("nanosim.swec") == series.n_solves == (series.steps_taken
                                                            + series.steps_rejected)
    net = parse_netlist(deck_text("rtd_divider.ckt"))
    dc = card(net, DcAnalysis)
    sweep = swec.dc_sweep(net, dc.source, dc.start, dc.stop, dc.points)
    assert calls.pop("nanosim.swec") == sweep.point_solves.sum() == sweep.n_solves
    net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
    for guess, max_iter in ((None, 100), (np.array([12.0, 3.7894736842105265]), 40)):
        rep = nr.nr_dc(net, initial_guess=guess, max_iter=max_iter)
        assert calls.pop("nanosim.nr") == rep.iterations
    assert not calls
