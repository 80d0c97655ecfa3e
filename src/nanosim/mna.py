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
    pivot falls below 1e-14 of its row scale."""
    A = sys.G.copy()
    x = sys.rhs.copy()
    size = sys.size
    row_scale = np.max(np.abs(A), axis=1)
    if np.any(row_scale == 0.0):
        raise SingularSystemError("structurally singular system (empty row)")

    perm = np.arange(size)
    for k in range(size - 1):
        col = np.abs(A[k:, k])
        p = k + int(np.argmax(col))
        if abs(A[p, k]) <= _PIVOT_RTOL * row_scale[perm[p]]:
            raise SingularSystemError(f"singular pivot at column {k}")
        if p != k:
            A[[k, p]] = A[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        c = size - k - 1
        if c:
            A[k + 1:, k] /= A[k, k]
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
            fc.count(adds=c * c, muls=c * c, divs=c)
    if abs(A[size - 1, size - 1]) <= _PIVOT_RTOL * row_scale[perm[size - 1]]:
        raise SingularSystemError("singular pivot at last column")

    x = x[perm]
    # forward substitution (unit lower triangle)
    for k in range(1, size):
        x[k] -= A[k, :k] @ x[:k]
        fc.count(adds=k, muls=k)
    # back substitution
    for k in range(size - 1, -1, -1):
        if k < size - 1:
            x[k] -= A[k, k + 1:] @ x[k + 1:]
            fc.count(adds=size - k - 1, muls=size - k - 1)
        x[k] /= A[k, k]
        fc.count(divs=1)
    return x
