"""Modified nodal analysis: dense assembly and an instrumented LU solver.

The conductance matrix carries one row per non-ground node plus one
auxiliary row per voltage source. Capacitors enter through backward-Euler
companion stamps (g = C/h into the matrix, i = (C/h)*v_prev into the right
hand side); with h = +inf they vanish, which is the resistive DC assembly.

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
from typing import Dict, Mapping, Optional

import numpy as np

from .devices import G_FLOOR
from .netlist import ElementKind, Netlist, eval_waveform

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


def node_order(net: Netlist) -> Dict[str, int]:
    """Dense node indices in first-appearance order, ground excluded."""
    return {name: i for i, name in enumerate(net.nodes)}


def _idx(node_index: Mapping[str, int], node: str) -> int:
    return -1 if node == "0" else node_index[node]


def stamp_conductance(G: np.ndarray, a: int, b: int, g: float) -> None:
    """Symmetric two-terminal conductance stamp; index -1 means ground."""
    if a >= 0:
        G[a, a] += g
    if b >= 0:
        G[b, b] += g
    if a >= 0 and b >= 0:
        G[a, b] -= g
        G[b, a] -= g


def assemble(net: Netlist, geq: Mapping[str, float],
             vstate: Optional[np.ndarray] = None, h: float = math.inf,
             t: float = 0.0) -> MnaSystem:
    """Stamp the netlist into a dense MNA system at time ``t``.

    ``geq`` must supply an equivalent conductance for every nonlinear
    element (RTD, nanowire, MOSFET). ``vstate`` holds the previous node
    voltages used by the capacitor companion stamps; ``h`` is the backward
    Euler step (+inf for DC). Noise sources stamp nothing here.
    """
    node_index = node_order(net)
    n = len(node_index)
    sources = [el for el in net.elements if el.kind is ElementKind.VSOURCE]
    m = len(sources)
    source_index = {el.name: n + i for i, el in enumerate(sources)}
    size = n + m
    G = np.zeros((size, size))
    rhs = np.zeros(size)
    if vstate is None:
        vstate = np.zeros(n)

    def vprev(i: int) -> float:
        return 0.0 if i < 0 else float(vstate[i])

    for el in net.elements:
        kind = el.kind
        if kind is ElementKind.NOISE or (kind is ElementKind.CAPACITOR
                                         and not math.isfinite(h)):
            continue
        a, b = (_idx(node_index, nd) for nd in el.branch)
        if kind is ElementKind.RESISTOR:
            stamp_conductance(G, a, b, 1.0 / el.value)
        elif kind is ElementKind.CAPACITOR:
            g = el.value / h
            i_eq = g * (vprev(a) - vprev(b))
            stamp_conductance(G, a, b, g)
            if a >= 0:
                rhs[a] += i_eq
            if b >= 0:
                rhs[b] -= i_eq
        elif kind is ElementKind.VSOURCE:
            row = source_index[el.name]
            if a >= 0:
                G[row, a] = G[a, row] = 1.0
            if b >= 0:
                G[row, b] = G[b, row] = -1.0
            rhs[row] = eval_waveform(el.waveform, t)
        else:
            try:
                g = geq[el.name]
            except KeyError:
                raise MnaError(f"no equivalent conductance supplied for '{el.name}'")
            stamp_conductance(G, a, b, max(g, G_FLOOR))

    return MnaSystem(n=n, m=m, G=G, rhs=rhs, node_index=node_index,
                     source_index=source_index)


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
