"""Modified nodal analysis: dense assembly and an instrumented LU solver.

The conductance matrix carries one row per non-ground node plus one
auxiliary row per voltage source. Capacitors enter through backward-Euler
companion stamps (g = C/h into the matrix, i = (C/h)*v_prev into the right
hand side); with h = +inf they vanish, which is the resistive DC assembly.

A deck is compiled once into a :class:`Circuit`, which the SWEC engine,
the DC sweep and the Newton baseline share. :func:`assemble` copies its
static G (resistor stamps in element order, source incidence) and stamps
the floored device conductances in element order, then the capacitor
companions, then the source values at ``t``. A float sum depends on its
order, so this equals stamping every element in deck order bit for bit
when, at every node, the deck lists resistors before devices and devices
before capacitors, as every shipped deck does; a resistor after a device,
or a capacitor before a device, at one node may change the last bit of G.

Arithmetic inside :func:`solve` is tallied into a :class:`FlopCounter` so
analyses can be compared by operation count. Device-model evaluations count
their own operations (see ``devices``); matrix stamping and bookkeeping are
not billed. exp/ln/atan calls are reported as separate "transcendental"
units rather than being converted to some flop equivalent.

:func:`solve` is a dense LU with partial pivoting. The elimination runs on
Python floats (``G.tolist()``), because on the small systems the engines
solve once per step the per-call cost of numpy slicing outweighs the
arithmetic. Measured per solve against the same elimination on numpy rows
(2-core VM, Python 3.11, numpy 2.4.6): 3 unknowns 30 vs 71 us, 5 unknowns
58 vs 132 us, 10 unknowns 161 vs 259 us, 20 unknowns about equal, 30
unknowns 1377 vs 866 us. The crossover is about 15-20 unknowns; every
shipped deck has at most 5. There is one code path for all sizes. The
forward and back substitutions stay numpy dot products: BLAS sums a row in
its own order, which a Python loop does not reproduce, and keeping it keeps
every solution bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from .devices import G_FLOOR
from .netlist import (NONLINEAR_KINDS, Element, ElementKind, Netlist, Waveform,
                      eval_waveform)

_PIVOT_RTOL = 1e-14


class MnaError(RuntimeError):
    """Assembly failed (e.g. missing device conductance)."""


class SingularSystemError(MnaError):
    """The assembled matrix is numerically singular."""


@dataclass
class FlopCounter:
    """Running tally of arithmetic operations, by category."""

    adds: int = 0
    muls: int = 0
    divs: int = 0
    transcendentals: int = 0

    def count(self, adds: int = 0, muls: int = 0, divs: int = 0,
              transcendentals: int = 0) -> None:
        self.adds += adds
        self.muls += muls
        self.divs += divs
        self.transcendentals += transcendentals

    def total(self) -> int:
        return self.adds + self.muls + self.divs + self.transcendentals

    def copy(self) -> "FlopCounter":
        return FlopCounter(self.adds, self.muls, self.divs, self.transcendentals)

    def __sub__(self, other: "FlopCounter") -> "FlopCounter":
        return FlopCounter(self.adds - other.adds, self.muls - other.muls,
                           self.divs - other.divs,
                           self.transcendentals - other.transcendentals)


@dataclass
class MnaSystem:
    """Assembled dense system G x = rhs with its node/source index maps."""

    n: int
    m: int
    G: np.ndarray
    rhs: np.ndarray
    node_index: Dict[str, int]
    source_index: Dict[str, int]

    @property
    def size(self) -> int:
        return self.n + self.m


class Branch(NamedTuple):
    """An element with its stamped branch (``Element.branch``) as dense node
    indices, -1 for ground; ``gate`` is a MOSFET's gate node (-1 otherwise)."""

    el: Element
    a: int
    b: int
    gate: int


def vnode(x: np.ndarray, i: int) -> float:
    """Voltage of dense node index ``i`` in ``x``; -1 is ground (0 V)."""
    return 0.0 if i < 0 else float(x[i])


def stamp_conductance(G: np.ndarray, a: int, b: int, g: float) -> None:
    """Symmetric two-terminal conductance stamp; index -1 means ground."""
    if a >= 0:
        G[a, a] += g
    if b >= 0:
        G[b, b] += g
    if a >= 0 and b >= 0:
        G[a, b] -= g
        G[b, a] -= g


class Circuit:
    """A netlist compiled once: index maps, the static G and its node
    diagonal, grounded capacitance per node, :class:`Branch` lists, and one
    waveform per source row, which callers may replace between assemblies."""

    def __init__(self, net: Netlist):
        self.nodes = list(net.nodes)
        self.n = n = len(self.nodes)
        self.node_index = {name: i for i, name in enumerate(self.nodes)}

        def idx(node: str) -> int:
            return -1 if node == "0" else self.node_index[node]

        self.branches = [Branch(el, *map(idx, el.branch),
                                idx(el.nodes[1]) if el.kind is ElementKind.MOSFET else -1)
                         for el in net.elements]
        self.sources = self._of(ElementKind.VSOURCE)
        self.capacitors = self._of(ElementKind.CAPACITOR)
        self.devices = self._of(*NONLINEAR_KINDS)
        self.m = len(self.sources)
        self.source_index = {br.el.name: n + i for i, br in enumerate(self.sources)}
        self.waveforms = [br.el.waveform for br in self.sources]

        self.G = np.zeros((self.size, self.size))
        for br in self._of(ElementKind.RESISTOR):
            stamp_conductance(self.G, br.a, br.b, 1.0 / br.el.value)
        for row, br in enumerate(self.sources, start=n):
            if br.a >= 0:
                self.G[row, br.a] = self.G[br.a, row] = 1.0
            if br.b >= 0:
                self.G[row, br.b] = self.G[br.b, row] = -1.0
        self.gsum_static = self.G.diagonal()[:n].copy()
        self.grounded_cap = np.zeros(n)
        for br in self.capacitors:
            if br.b < 0 <= br.a:
                self.grounded_cap[br.a] += br.el.value
            elif br.a < 0 <= br.b:
                self.grounded_cap[br.b] += br.el.value

    @property
    def size(self) -> int:
        return self.n + self.m

    def _of(self, *kinds: ElementKind) -> List[Branch]:
        return [br for br in self.branches if br.el.kind in kinds]

    def set_source(self, name: str, waveform: Waveform) -> None:
        self.waveforms[self.source_index[name] - self.n] = waveform

    def source_levels(self, t: float) -> List[float]:
        return [eval_waveform(w, t) for w in self.waveforms]

    def system(self, t: float) -> MnaSystem:
        """A fresh system: a copy of the static G, the source values at
        time ``t`` on the right-hand side."""
        rhs = np.zeros(self.size)
        rhs[self.n:] = self.source_levels(t)
        return MnaSystem(self.n, self.m, self.G.copy(), rhs, self.node_index,
                         self.source_index)


def assemble(circuit: Circuit, geq: Mapping[str, float],
             vstate: Optional[np.ndarray] = None, h: float = math.inf,
             t: float = 0.0) -> MnaSystem:
    """The MNA system of ``circuit`` at time ``t``.

    On a copy of the static G this stamps the floored conductances ``geq``
    (one per nonlinear element, by name) in element order, then the
    capacitor companions of the step ``h`` from the previous node voltages
    ``vstate`` (none when ``h`` is +inf, the DC assembly); the right-hand
    side carries the companion currents and the source values at ``t``.
    Noise sources stamp nothing here.
    """
    sys = circuit.system(t)
    G, rhs = sys.G, sys.rhs
    for br in circuit.devices:
        try:
            g = geq[br.el.name]
        except KeyError:
            raise MnaError(f"no equivalent conductance supplied for '{br.el.name}'")
        stamp_conductance(G, br.a, br.b, max(g, G_FLOOR))
    if math.isfinite(h):
        if vstate is None:
            vstate = np.zeros(circuit.n)
        for br in circuit.capacitors:
            g = br.el.value / h
            i_eq = g * (vnode(vstate, br.a) - vnode(vstate, br.b))
            stamp_conductance(G, br.a, br.b, g)
            if br.a >= 0:
                rhs[br.a] += i_eq
            if br.b >= 0:
                rhs[br.b] -= i_eq
    return sys


def solve(sys: MnaSystem, fc: FlopCounter) -> np.ndarray:
    """LU factorization with partial pivoting; returns node voltages followed
    by source branch currents. Raises :class:`SingularSystemError` when a
    pivot falls below 1e-14 of its row scale. The module docstring says
    why the elimination runs on Python lists."""
    size = sys.size
    a = sys.G.tolist()
    row_scale = [max(map(abs, row)) for row in a]
    if 0.0 in row_scale:
        raise SingularSystemError("structurally singular system (empty row)")

    perm = list(range(size))
    for k in range(size - 1):
        # partial pivoting: the first row holding the largest |a_ik|
        p, big = k, abs(a[k][k])
        for i in range(k + 1, size):
            if abs(a[i][k]) > big:
                p, big = i, abs(a[i][k])
        if big <= _PIVOT_RTOL * row_scale[perm[p]]:
            raise SingularSystemError(f"singular pivot at column {k}")
        if p != k:
            a[k], a[p] = a[p], a[k]
            perm[k], perm[p] = perm[p], perm[k]
        rk = a[k]
        pivot = rk[k]
        for ri in a[k + 1:]:
            lik = ri[k] = ri[k] / pivot
            for j in range(k + 1, size):
                ri[j] -= lik * rk[j]
        c = size - k - 1
        fc.count(adds=c * c, muls=c * c, divs=c)
    if abs(a[size - 1][size - 1]) <= _PIVOT_RTOL * row_scale[perm[size - 1]]:
        raise SingularSystemError("singular pivot at last column")

    A = np.array(a)
    x = sys.rhs[perm]
    # forward substitution (unit lower triangle)
    for k in range(1, size):
        x[k] -= A[k, :k] @ x[:k]
    # back substitution
    for k in range(size - 1, -1, -1):
        if k < size - 1:
            x[k] -= A[k, k + 1:] @ x[k + 1:]
        x[k] /= A[k, k]
    tri = size * (size - 1) // 2
    fc.count(adds=2 * tri, muls=2 * tri, divs=size)
    return x
