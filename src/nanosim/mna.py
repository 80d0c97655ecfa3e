"""Modified nodal analysis: dense assembly and an instrumented LU solver.

The conductance matrix carries one row per non-ground node plus one
auxiliary row per voltage source. Capacitors enter through companion stamps
of a step h from a history voltage v_hist (g = C/h into the matrix,
i = (C/h)*v_hist into the right-hand side): backward Euler with the
previous solution as v_hist, and variable-step BDF2 with its effective step
and history voltage in their place (see ``swec``); with h = +inf they
vanish, which is the resistive DC assembly.

A deck is compiled once into a :class:`Circuit`, which the SWEC engine,
the DC sweep, the Newton baseline and the stochastic engine share; the
stochastic engine takes its state-space G and C from the circuit's static
G and dense node capacitance matrix ``C``. :func:`assemble` copies its
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

:func:`solve` condenses out the nodes that grounded sources fix (last
paragraph) and runs a dense LU with partial pivoting on the rest. An assembled
:class:`MnaSystem` holds only what :func:`solve` reads: G as Python row
lists, the right-hand side as a list and the partition (last paragraph);
the maps from node and source names to unknowns stay on the circuit. The
elimination and both substitutions run on the lists, because on the small
systems the engines solve once per step the per-call cost of numpy slicing
outweighs the arithmetic. Measured per solve of a dense system against the
same LU on numpy rows (2-core VM, Python 3.11, numpy 2.4.6): 3 unknowns 19
vs 50 us, 5 unknowns 40 vs 85 us, 10 unknowns 114 vs 195 us, 20 unknowns
457 vs 542 us, 30 unknowns 1230 vs 545 us. The crossover is about 20
unknowns; every shipped deck has at most 5, and 1 after the condensation.
There is one code path for all sizes.

Each substitution row subtracts a dot product, and its rounding is kept
bit for bit equal to numpy's ``A[k, :k] @ x[:k]``. A Python sum does not
reproduce that: numpy runs the short product as a chain of fused
multiply-adds, which differs from a plain sum in the last bit for about a
quarter of random length-2 rows. So :func:`_subtract_dot` forms the
products in Python and, when at most one is nonzero, subtracts that one
directly: a rounded product plus exact zeros has the same value under any
summation order, FMA included. A product counts as nonzero by its value,
so ``0 * inf = nan`` counts; a product that underflows to zero is not an
exact zero and counts too. Rows with two or more nonzero products go to
``np.matmul``, as does a -0.0 entry whose products are all zero (the sign
of its result depends on the sign of the zero the dot returns). MNA rows
are sparse: on the full 5-unknown ``fet_rtd_inverter`` system about 1 row
in 8 needs the matmul (its condensed one-unknown LU has no such row).

A voltage source with one terminal at ground fixes that node's voltage, so
the circuit records it once as a :class:`Pin` (source row, node, sign of
the incidence) and every system it builds carries the partition. Such a
system is solved condensed: each pinned node is set to +-its level
exactly, the pinned columns of the other rows move to the right-hand side,
the LU runs on the remaining rows only (free node voltages and the
currents of floating sources), and each pinned source's current is read
back from its node's KCL row. Every shipped deck has one free node, so
every shipped solve is a one-unknown LU. A deck with no grounded source, a
deck with a node pinned by two sources (singular), and a hand-built
system carry no partition and take the full LU, as does a system whose
right-hand side is nonzero but entirely subnormal. Moving a coefficient and
summing one in the KCL read-back each bill one add and one multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .devices import G_FLOOR, mos_bias
from .netlist import (NONLINEAR_KINDS, Element, ElementKind, Netlist, Waveform,
                      eval_waveform)

_PIVOT_RTOL = 1e-14
# the smallest normal double: below it a value loses significant bits
_NORMAL_MIN = float(np.finfo(float).tiny)
_MOSFET = ElementKind.MOSFET


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


class Pin(NamedTuple):
    """A voltage source with one terminal at ground: its source row, the
    node it fixes, and the sign of its incidence there (+1.0 when the node
    is its plus terminal, else -1.0): the node sits at sign * level."""

    row: int
    node: int
    sign: float


class Partition(NamedTuple):
    """The unknowns :func:`solve` condenses out (``pins``) and the ones its
    LU runs on (``free``, in system order)."""

    pins: Tuple[Pin, ...]
    free: Tuple[int, ...]


@dataclass
class MnaSystem:
    """Assembled dense system G x = rhs as :func:`solve` reads it: G as
    Python row lists (``rows``), the right-hand side as a list (``b``) and
    the ``partition`` to condense (None: the full LU). ``G`` and ``rhs``
    give numpy copies; the index maps stay on the :class:`Circuit`."""

    rows: List[List[float]]
    b: List[float]
    partition: Optional[Partition] = None

    @property
    def size(self) -> int:
        return len(self.b)

    @property
    def G(self) -> np.ndarray:
        return np.array(self.rows, dtype=float).reshape(self.size, self.size)

    @property
    def rhs(self) -> np.ndarray:
        return np.array(self.b, dtype=float)


class Branch(NamedTuple):
    """An element with its stamped branch (``Element.branch``) as dense node
    indices, -1 for ground; ``gate`` is a MOSFET's gate node (-1 otherwise)."""

    el: Element
    a: int
    b: int
    gate: int


def stamp_conductance(G, a: int, b: int, g: float) -> None:
    """Symmetric two-terminal conductance stamp into a 2-d array or a list
    of row lists; index -1 means ground."""
    if a >= 0:
        G[a][a] += g
    if b >= 0:
        G[b][b] += g
    if a >= 0 and b >= 0:
        G[a][b] -= g
        G[b][a] -= g


class Circuit:
    """A netlist compiled once: index maps, the static G (also as row
    lists, ``G_rows``), the node capacitance matrix ``C`` (every capacitor
    stamped like a conductance, in element order), :class:`Branch` lists,
    device ``models``, one waveform per source row, which callers may
    replace between assemblies, and the :class:`Partition` its systems
    carry (None without a grounded source or with a node pinned twice)."""

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
        self.models = [net.model_of(br.el) for br in self.devices]
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
        self.G_rows = self.G.tolist()
        self.C = np.zeros((n, n))
        for br in self.capacitors:
            stamp_conductance(self.C, br.a, br.b, br.el.value)
        pins = [Pin(row, br.a, 1.0) if br.b < 0 else Pin(row, br.b, -1.0)
                for row, br in enumerate(self.sources, start=n)
                if (br.a < 0) != (br.b < 0)]
        pinned = {p.node for p in pins}
        self.partition = None
        if pins and len(pinned) == len(pins):
            fixed = pinned | {p.row for p in pins}
            self.partition = Partition(tuple(pins), tuple(
                j for j in range(self.size) if j not in fixed))

    @property
    def size(self) -> int:
        return self.n + self.m

    def _of(self, *kinds: ElementKind) -> List[Branch]:
        return [br for br in self.branches if br.el.kind in kinds]

    def set_source(self, name: str, waveform: Waveform) -> None:
        self.waveforms[self.source_index[name] - self.n] = waveform

    def source_levels(self, t: float) -> List[float]:
        return [eval_waveform(w, t) for w in self.waveforms]

    def biases(self, x) -> List[tuple]:
        """Each device's (branch, controlling, reversed) bias at node voltages ``x``,
        a list of floats or an array of one row per node (ground reads zeros):
        ``mos_bias``'s (vds, vgs, reversed) for a MOSFET, else (v, v, False)."""
        zero = 0.0 if isinstance(x, list) else np.zeros(x.shape[1:])
        out = []
        for el, a, b, gate in self.devices:
            va, vb = x[a] if a >= 0 else zero, x[b] if b >= 0 else zero
            if el.kind is _MOSFET:
                vgs, v, rev = mos_bias(va, x[gate] if gate >= 0 else zero, vb)
                out.append((v, vgs, rev))
            else:
                out.append((va - vb, va - vb, False))
        return out

    def system(self, t: float) -> MnaSystem:
        """A fresh system: a copy of the static G, the source values at
        time ``t`` on the right-hand side."""
        return MnaSystem([row.copy() for row in self.G_rows],
                         [0.0] * self.n + self.source_levels(t), self.partition)


def _max_abs(values) -> float:
    """The largest |v|, NaN if any v is NaN (as ``np.max(np.abs(v))``), 0
    for no values."""
    worst = 0.0
    for v in values:
        v = abs(v)
        if v > worst or v != v:
            worst = v
    return worst


def assemble(circuit: Circuit, geq: Sequence[float],
             vstate: Optional[Sequence[float]] = None, h: float = math.inf,
             t: float = 0.0) -> MnaSystem:
    """The MNA system of ``circuit`` at time ``t``.

    On a copy of the static G this stamps the floored conductances ``geq``
    (one per nonlinear element, in ``circuit.devices`` order) in element
    order, then the capacitor companions of the step ``h`` from the history
    node voltages ``vstate``, which a finite ``h`` requires (``h`` = +inf is
    the DC assembly, with no companions); the right-hand side carries the
    companion currents and the source values at ``t``. Noise sources stamp
    nothing here.
    """
    if len(geq) != len(circuit.devices):
        names = ", ".join(f"'{br.el.name}'" for br in circuit.devices)
        raise MnaError(f"{len(geq)} equivalent conductances supplied for "
                       f"the {len(circuit.devices)} devices ({names})")
    sys = circuit.system(t)
    G, rhs = sys.rows, sys.b
    for br, g in zip(circuit.devices, geq):
        stamp_conductance(G, br.a, br.b, G_FLOOR if g < G_FLOOR else g)
    if math.isfinite(h):
        for br in circuit.capacitors:
            a, b = br.a, br.b
            va = vstate[a] if a >= 0 else 0.0
            vb = vstate[b] if b >= 0 else 0.0
            g = br.el.value / h
            i_eq = g * (va - vb)
            stamp_conductance(G, a, b, g)
            if a >= 0:
                rhs[a] += i_eq
            if b >= 0:
                rhs[b] -= i_eq
    return sys


def _subtract_dot(xk: float, coeffs: List[float], xs: List[float]) -> float:
    """``xk - coeffs . xs``, rounded as ``xk - A[k, :k] @ x[:k]`` is on
    numpy arrays (the module docstring says why and how)."""
    # zero coefficients against finite x give exact zero products; most
    # MNA rows are all zero, so they skip the loop
    if any(coeffs) or not math.isfinite(sum(xs)):
        only = None
        for c, xj in zip(coeffs, xs):
            p = c * xj
            if p != 0.0 or (c != 0.0 and xj != 0.0):
                if only is not None or p == 0.0:
                    return xk - float(np.matmul(coeffs, xs))
                only = p
        if only is not None:
            return xk - only
    # every product is an exact zero: xk - (+-0) is xk, except for a -0.0
    # xk, whose sign then depends on the sign of the zero the dot returns
    if xk == 0.0 and math.copysign(1.0, xk) < 0.0:
        return xk - float(np.matmul(coeffs, xs))
    return xk


def solve(sys: MnaSystem, fc: FlopCounter) -> List[float]:
    """The solution of ``sys`` as a list of floats: node voltages followed
    by source branch currents. A system with a partition is condensed first (module
    docstring), unless its right-hand side is nonzero but entirely
    subnormal: subnormals carry too few bits for the condensed and the full
    elimination to agree to rounding, so such a system keeps the full LU.
    The LU raises :class:`SingularSystemError` when a pivot falls below
    1e-14 of its row scale. ``sys`` is left as it was."""
    part = sys.partition
    if part is None or 0.0 < max(map(abs, sys.b)) < _NORMAL_MIN:
        part = Partition((), tuple(range(sys.size)))
    rows, b = sys.rows, sys.b
    pins, free = part.pins, part.free
    x = [0.0] * sys.size
    for pin in pins:
        x[pin.node] = pin.sign * b[pin.row]
    billed = 0
    a, rhs = [], []
    for i in free:
        row, bi = rows[i], b[i]
        for pin in pins:
            g = row[pin.node]
            if g != 0.0:
                bi -= g * x[pin.node]
                billed += 1
        a.append([row[j] for j in free])
        rhs.append(bi)
    fc.count(billed, billed)
    for j, xj in zip(free, _lu(a, rhs, fc)):
        x[j] = xj
    # KCL at a pinned node: sum_j G[p][j] x_j + sign * i_source = b[p]
    billed = 0
    for pin in pins:
        acc = b[pin.node]
        for j, g in enumerate(rows[pin.node]):
            if g != 0.0 and j != pin.row:
                acc -= g * x[j]
                billed += 1
        x[pin.row] = pin.sign * acc
    fc.count(billed, billed)
    return list(map(float, x))


def _lu(a: List[List[float]], b: List[float], fc: FlopCounter) -> List[float]:
    """LU factorization with partial pivoting of the rows ``a`` (eliminated
    in place) against the right-hand side ``b``. Raises
    :class:`SingularSystemError` when a pivot falls below 1e-14 of its row
    scale. The module docstring says why the elimination runs on Python
    lists and how the substitutions keep numpy's rounding."""
    size = len(a)
    if not size:
        return []
    row_scale = [max(map(abs, row)) for row in a]
    if 0.0 in row_scale:
        raise SingularSystemError("structurally singular system (empty row)")

    perm = list(range(size))
    elim = divs = 0         # elimination flops, billed at the end or on failure
    for k in range(size - 1):
        # partial pivoting: the first row holding the largest |a_ik|
        p, big = k, abs(a[k][k])
        for i in range(k + 1, size):
            if abs(a[i][k]) > big:
                p, big = i, abs(a[i][k])
        if big <= _PIVOT_RTOL * row_scale[perm[p]]:
            fc.count(elim, elim, divs)
            raise SingularSystemError(f"singular pivot at column {k}")
        if p != k:
            a[k], a[p] = a[p], a[k]
            perm[k], perm[p] = perm[p], perm[k]
        rk = a[k]
        pivot = rk[k]
        cols = range(k + 1, size)
        for ri in a[k + 1:]:
            lik = ri[k] = ri[k] / pivot
            for j in cols:
                ri[j] -= lik * rk[j]
        c = size - k - 1
        elim += c * c
        divs += c
    if abs(a[size - 1][size - 1]) <= _PIVOT_RTOL * row_scale[perm[size - 1]]:
        fc.count(elim, elim, divs)
        raise SingularSystemError("singular pivot at last column")

    x = [b[i] for i in perm]
    # forward substitution (unit lower triangle)
    for k in range(1, size):
        x[k] = _subtract_dot(x[k], a[k][:k], x[:k])
    # back substitution
    for k in range(size - 1, -1, -1):
        if k < size - 1:
            x[k] = _subtract_dot(x[k], a[k][k + 1:], x[k + 1:])
        x[k] /= a[k][k]
    tri = size * (size - 1) // 2
    fc.count(elim + 2 * tri, elim + 2 * tri, divs + size)
    return x
