"""Span tracing from outside the program.

The tracer replaces, for the length of one traced pass, the functions that
``cli``, ``swec``, ``nr`` and ``stochastic`` import from other modules with
recorders, and puts the originals back afterwards; no file of the program
changes. A span records its name, start, end, parent and root (the
operation it belongs to). Span names are ``<layer>.<function>@<caller>``:
the layer is the module that defines the function, the caller the module
whose attribute was replaced, so a solve is tagged ``swec`` or ``nr``.
Calls between functions inside one module are not layer boundaries and are
not wrapped, with two exceptions: ``swec.next_step_size`` (step control,
counted in ``swec``) and ``swec.pin_source`` (a netlist copy per sweep
point, counted in ``netlist``).

Spans live in flat lists while the pass runs and are written out at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# Index of the argument whose size counts the elements a device call
# evaluates (default 1, the branch voltage); None counts one per call.
_DEVICE_ARG = {"mos_geq": 2, "mos_current": 2, "mos_didv": 2, "mos_gm": 2,
               "geq_predict": None, "device_step_bound": None}
# module -> (attribute replaced during a traced pass, layer that defines it)
PATCHES = {
    "cli": [("parse_netlist", "netlist"), ("dc_sweep", "swec"),
            ("operating_point", "swec"), ("transient", "swec"),
            ("flop_compare", "nr"), ("ensemble", "stochastic")],
    "swec": [("assemble", "mna"), ("solve", "mna"), ("rtd_geq", "devices"),
             ("rtd_dgeq_dv", "devices"), ("rtd_current", "devices"),
             ("mos_geq", "devices"), ("nanowire_geq", "devices"),
             ("nanowire_current", "devices"), ("nanowire_dgeq_dv", "devices"),
             ("geq_predict", "devices"), ("device_step_bound", "devices"),
             ("next_step_size", "swec"), ("pin_source", "netlist")],
    "nr": [("solve", "mna"), ("rtd_current", "devices"), ("rtd_didv", "devices"),
           ("nanowire_current", "devices"), ("nanowire_didv", "devices"),
           ("mos_current", "devices"), ("mos_didv", "devices"),
           ("mos_gm", "devices"), ("dc_sweep", "swec"),
           ("operating_point", "swec"), ("pin_source", "netlist"),
           ("nr_dc", "nr")],
    "stochastic": [("rtd_geq", "devices"), ("nanowire_geq", "devices"),
                   ("mos_geq", "devices")],
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.root: List[int] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.results: List[tuple] = []      # (span id, name, result summary)

    # --- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        par = self._stack[-1] if self._stack else -1
        self.span_name.append(nid)
        self.parent.append(par)
        self.root.append(self.root[par] if par >= 0 else sid)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        self.start[sid] = time.perf_counter()
        try:
            yield sid
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str,
              after: Optional[Callable] = None, before: Optional[Callable] = None):
        nid = self._name_id(name)
        start, end, stack, pc = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            ctx = before(args) if before is not None else None
            start[sid] = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = pc()
                stack.pop()
            if after is not None:
                after(sid, args, kwargs, result, ctx)
            return result
        return wrapper

    # --- installing ------------------------------------------------------------

    def install(self) -> None:
        import importlib
        for mod_name, entries in PATCHES.items():
            module = importlib.import_module(f"nanosim.{mod_name}")
            for attr, layer in entries:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}@{mod_name}"
                before, after = self._hooks(attr, layer, mod_name, name)
                setattr(module, attr, self._wrap(fn, name, after=after, before=before))
                self._patches.append((module, attr, fn))

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def _hooks(self, attr: str, layer: str, caller: str, name: str):
        counts, results = self.counts, self.results
        if layer == "devices":
            idx = _DEVICE_ARG.get(attr, 1)

            def after(sid, args, kwargs, result, ctx):
                counts[f"devices.elements@{caller}"] += 1 if idx is None else np.size(args[idx])
            return None, after
        if attr == "solve":
            def before(args):
                return args[1].total()

            def after(sid, args, kwargs, result, ctx):
                counts[f"mna.solve_flops@{caller}"] += args[1].total() - ctx
            return before, after
        if attr in ("transient", "dc_sweep", "operating_point", "nr_dc", "ensemble"):
            def after(sid, args, kwargs, result, ctx):
                results.append((sid, name, _summary(attr, args, kwargs, result)))
            return None, after
        return None, None

    # --- analysis --------------------------------------------------------------

    def arrays(self):
        """(name id per span, durations, self times, root) as arrays."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return (np.asarray(self.span_name, dtype=np.int64), dur, dur - child,
                np.asarray(self.root, dtype=np.int64))

    def select(self, ids: np.ndarray, pred: Callable[[str, str, str], bool]) -> np.ndarray:
        """Mask of spans whose (layer, layer.function, caller) satisfy ``pred``."""
        wanted = [i for i, n in enumerate(self.names)
                  if pred(n.split(".", 1)[0], n.split("@", 1)[0],
                          n.split("@", 1)[1] if "@" in n else "")]
        return np.isin(ids, wanted)

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,root\n")
            for sid, nid in enumerate(self.span_name):
                fh.write(f"{sid},{self.names[nid]},{self.start[sid] - t0!r},"
                         f"{self.end[sid] - t0!r},{self.parent[sid]},{self.root[sid]}\n")


def _summary(attr: str, args, kwargs, result) -> dict:
    if attr == "transient":
        return {"steps": result.steps_taken, "rejected": result.steps_rejected,
                "hmin_warnings": result.hmin_warnings}
    if attr == "dc_sweep":
        return {"points": len(result.biases), "solves": result.n_solves,
                "unsettled": int(np.count_nonzero(~result.settled))}
    if attr == "operating_point":
        return {"unsettled": 0 if result.settled else 1}
    if attr == "nr_dc":
        return {"iterations": result.iterations, "unconverged": 0 if result.converged else 1,
                "flops": result.flops.total()}
    paths = kwargs.get("paths", args[3] if len(args) > 3 else None)
    return {"path_steps": int(paths) * (len(result.times) - 1)}


def layer_metrics(tr: Tracer, out_bytes: int, wall_traced: float,
                  wall_untraced: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    ids, dur, self_t, _ = tr.arrays()

    def func(name: str, who: Optional[str] = None) -> np.ndarray:
        return tr.select(ids, lambda lay, f, c: f == name and (who is None or c == who))

    def of_layer(name: str, who: Optional[str] = None) -> np.ndarray:
        return tr.select(ids, lambda lay, f, c: lay == name and (who is None or c == who))

    def summed(kind: str, key: str, callers=None) -> int:
        return int(sum(s[key] for _, n, s in tr.results
                       if n.split("@")[0] == kind
                       and (callers is None or n.split("@")[1] in callers)))

    m: Dict[str, float] = {}
    m["netlist.parse_s"] = float(dur[func("netlist.parse_netlist")].sum())
    m["netlist.pin_source_calls"] = int(func("netlist.pin_source").sum())
    asm = func("mna.assemble", "swec")
    m["mna.assemble_calls.swec"] = int(asm.sum())
    m["mna.assemble_s.swec"] = float(dur[asm].sum())
    solves_all = 0
    for who in ("swec", "nr"):
        sel = func("mna.solve", who)
        calls, secs = int(sel.sum()), float(dur[sel].sum())
        solves_all += calls
        m[f"mna.solve_calls.{who}"] = calls
        m[f"mna.solve_s.{who}"] = secs
        m[f"mna.solve_us.{who}"] = 1e6 * secs / calls if calls else 0.0
        m[f"mna.solve_flops.{who}"] = int(tr.counts.get(f"mna.solve_flops@{who}", 0))
    dev = of_layer("devices")
    calls, secs = int(dev.sum()), float(dur[dev].sum())
    m["devices.calls"] = calls
    m["devices.elements"] = int(sum(v for k, v in tr.counts.items()
                                    if k.startswith("devices.elements@")))
    m["devices.s"] = secs
    m["devices.us_per_call"] = 1e6 * secs / calls if calls else 0.0
    m["devices.calls_per_solve"] = calls / solves_all if solves_all else 0.0
    steps = summed("swec.transient", "steps")
    rejected = summed("swec.transient", "rejected")
    m["swec.steps"] = steps
    m["swec.rejected"] = rejected
    m["swec.accept_ratio"] = steps / (steps + rejected) if steps + rejected else 0.0
    m["swec.hmin_warnings"] = summed("swec.transient", "hmin_warnings")
    m["swec.step_size_calls"] = int(func("swec.next_step_size").sum())
    m["swec.self_s"] = float(self_t[of_layer("swec")].sum())
    m["swec.sweeps"] = int(func("swec.dc_sweep").sum())
    m["swec.sweeps.nr"] = int(func("swec.dc_sweep", "nr").sum())
    points = summed("swec.dc_sweep", "points")
    m["swec.solves_per_point"] = summed("swec.dc_sweep", "solves") / points if points else 0.0
    m["swec.unsettled_points"] = (summed("swec.dc_sweep", "unsettled", {"cli"})
                                  + summed("swec.operating_point", "unsettled", {"cli"}))
    nr_sel = func("nr.nr_dc")
    m["nr.calls"] = int(nr_sel.sum())
    m["nr.iterations"] = summed("nr.nr_dc", "iterations")
    m["nr.unconverged"] = summed("nr.nr_dc", "unconverged")
    m["nr.flops"] = summed("nr.nr_dc", "flops")
    m["nr.s"] = float(dur[nr_sel].sum())
    ens_s = float(dur[func("stochastic.ensemble")].sum())
    path_steps = summed("stochastic.ensemble", "path_steps")
    m["stochastic.s"] = ens_s
    m["stochastic.path_steps"] = path_steps
    m["stochastic.path_steps_per_s"] = path_steps / ens_s if ens_s else 0.0
    m["stochastic.device_s"] = float(dur[of_layer("devices", "stochastic")].sum())
    m["stochastic.self_s"] = float(self_t[of_layer("stochastic")].sum())
    m["cli.self_s"] = float(self_t[of_layer("cli")].sum())
    m["cli.out_bytes"] = int(out_bytes)
    m["trace.overhead_s"] = wall_traced - wall_untraced
    return m


def layer_self_times(tr: Tracer) -> Dict[str, float]:
    ids, _, self_t, _ = tr.arrays()
    per_name = np.bincount(ids, weights=self_t, minlength=len(tr.names))
    out: Dict[str, float] = defaultdict(float)
    for name, s in zip(tr.names, per_name):
        out[name.split(".", 1)[0]] += float(s)
    return dict(out)


def solves_per_root(tr: Tracer, caller: str = "swec") -> Dict[int, int]:
    """Linear solves tagged ``caller`` inside each operation's root span."""
    ids, _, _, root = tr.arrays()
    sel = tr.select(ids, lambda lay, f, c: f == "mna.solve" and c == caller)
    roots, counts = np.unique(root[sel], return_counts=True)
    return {int(i): int(c) for i, c in zip(roots, counts)}
