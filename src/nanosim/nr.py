"""Newton-Raphson baseline solver and brute-force DC oracles.

The Newton solver here is deliberately naive: each nonlinear device is
linearized by its differential conductance dI/dV (the slope that goes
negative inside an NDR region) with full steps and no source stepping,
Gmin stepping or damping. On non-monotonic devices it reproduces the
classic failure mode where iterates bounce between two points without
converging; a 2-cycle detector flags that explicitly. It exists to
validate the conductance-stepping engine and to compare operation counts.

Every device has one linearized form, SPICE's MOSFET companion (Nagel,
UCB ERL-M520, 1975): a branch current i from a node ``d`` to a node ``s``
with slope gds against v = v_d - v_s and gm against the gate bias vgs. A
MOSFET's ``s`` is its lower terminal, as the one bias rule,
:meth:`~nanosim.mna.Circuit.biases`, picks it; an RTD or nanowire is the
case with no gate and gm = 0. :func:`linearize` records these terms at an
iterate, and :func:`jacobian` stamps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .devices import (RtdModel, mos_current, mos_didv, mos_gm, nanowire_current,
                      nanowire_didv, rtd_current, rtd_didv)
from .mna import Circuit, FlopCounter, MnaSystem, SingularSystemError, _max_abs, solve
from .netlist import NONLINEAR_KINDS, Dc, ElementKind, Netlist
# the benchmark tracer patches dc_sweep, operating_point and pin_source here
from .swec import DcSweep, OperatingPoint, dc_sweep, operating_point, pin_source  # noqa: F401

# Iterates closer than this are "the same point" for 2-cycle detection, while
# still moving by more than the voltage tolerance below between iterations.
_OSC_ATOL = 1e-9
_OSC_VTOL = 1e-6
_OSC_RUNS = 5
# Converged: the largest nodal KCL residual (amps) is at most this.
_KCL_ATOL = 1e-9
# Source branch equations are satisfied exactly after any solve; this only
# guards against declaring an unsolved initial guess converged.
_SRC_VTOL = 1e-9
_RESISTOR, _VSOURCE, _MOSFET, _RTD = (ElementKind.RESISTOR, ElementKind.VSOURCE,
                                      ElementKind.MOSFET, ElementKind.RTD)


@dataclass
class NrReport:
    converged: bool
    iterations: int
    oscillation_detected: bool
    flops: FlopCounter
    residual: float         # the largest nodal KCL imbalance (A)
    source_error: float     # the largest source-equation error (V)
    x: np.ndarray
    nodes: List[str]


@dataclass
class FlopCompare:
    swec_flops: int
    nr_flops: int
    speedup: float
    unconverged: int        # Newton solves that ended unconverged


def linearize(circuit: Circuit, x: List[float], levels: List[float],
              fc: FlopCounter) -> Tuple[List[float], float, list]:
    """At ``x`` (node voltages, then source currents), with the sources at
    ``levels``: every node's KCL residual (the true current into it), the
    largest source-equation error, and one record per device for
    :func:`jacobian`: (kind, model, d, s, gate, v, vgs, current)."""
    n = circuit.n
    xv = x + [0.0]              # node -1, ground, reads 0 V
    r = [0.0] * (n + 1)         # and takes any current
    src = 0.0
    devs = []
    devices = zip(circuit.models, circuit.biases(x))
    for br in circuit.branches:
        el, a, b = br.el, br.a, br.b
        kind = el.kind
        if kind is _RESISTOR:
            i = (xv[a] - xv[b]) / el.value
            fc.count(1, 0, 1)
        elif kind is _VSOURCE:
            k = circuit.source_index[el.name]
            i = xv[k]
            src = max(src, abs(xv[a] - xv[b] - levels[k - n]))
        elif kind in NONLINEAR_KINDS:
            mdl, (v, vgs, rev) = next(devices)
            a, b = (b, a) if rev else (a, b)
            if kind is _MOSFET:
                i = mos_current(mdl, vgs, v, fc)
            else:
                kernel = rtd_current if kind is _RTD else nanowire_current
                i = kernel(mdl, v, fc)
            devs.append((kind, mdl, a, b, br.gate, v, vgs, i))
        else:
            continue
        r[a] -= i
        r[b] += i
    r.pop()
    return r, src, devs


def jacobian(circuit: Circuit, devs: list, fc: FlopCounter) -> MnaSystem:
    """The Newton system at the iterate where :func:`linearize` recorded
    ``devs``: every device's linearized form stamped on the static G and the
    t = 0 source values, capacitors open; its node rows are -d(residual)/dx."""
    sys = circuit.system(0.0)
    G, rhs = sys.rows, sys.b
    for kind, mdl, d, s, g, v, vgs, i0 in devs:
        if kind is _MOSFET:
            gds, gm = mos_didv(mdl, vgs, v), mos_gm(mdl, vgs, v)
            fc.count(4, 4)
        else:
            didv = rtd_didv if kind is _RTD else nanowire_didv
            gds, gm = didv(mdl, v, fc), 0.0
            fc.count(1, 1)
        # linearized branch current: i0 + gds*dv + gm*dvgs
        ieq = i0 - gds * v - gm * vgs
        if d >= 0:
            G[d][d] += gds
            if s >= 0:
                G[d][s] -= gds + gm
            if g >= 0:
                G[d][g] += gm
            rhs[d] -= ieq
        if s >= 0:
            G[s][s] += gds + gm
            if d >= 0:
                G[s][d] -= gds
            if g >= 0:
                G[s][g] -= gm
            rhs[s] += ieq
    return sys


def nr_dc(net: Union[Netlist, Circuit], initial_guess: Optional[np.ndarray] = None,
          max_iter: int = 100) -> NrReport:
    """Plain Newton-Raphson DC solve on the nonlinear nodal equations.

    ``net`` may be a compiled :class:`Circuit`. Capacitors are open
    circuits; noise sources are rejected. Each iteration walks the iterate
    with :func:`linearize` and, unless it stops there, solves the system
    :func:`jacobian` stamps from the walk's records (no slope is billed at
    the last iterate). Converged means the largest nodal KCL residual
    (``residual``) is at most ``_KCL_ATOL`` amps and the largest
    source-equation error (``source_error``) at most ``_SRC_VTOL`` volts.
    A detected 2-cycle sets ``oscillation_detected`` (iteration continues
    to ``max_iter`` so failed runs carry their full cost). A singular
    Jacobian, or an iterate or guess that is not finite, stops the run at
    the last finite iterate (residuals NaN if none).
    """
    circuit = net if isinstance(net, Circuit) else Circuit(net)
    if any(br.el.kind is ElementKind.NOISE for br in circuit.branches):
        raise ValueError("nr_dc does not handle noise sources")
    fc, levels = FlopCounter(), circuit.source_levels(0.0)

    x = [] if initial_guess is None else list(map(float, initial_guess))
    if len(x) > circuit.size:
        raise ValueError(f"initial guess of {len(x)} values for {circuit.size} unknowns")
    x += [0.0] * (circuit.size - len(x))

    older, prev = None, x       # the two iterates before the next x (2-cycle test)
    oscillation = converged = False
    osc_run = iters = 0
    residual = src = math.nan   # until a finite iterate is walked
    while math.isfinite(_max_abs(x)):
        r, src, devs = linearize(circuit, x, levels, fc)
        residual = _max_abs(r)
        if residual <= _KCL_ATOL and src <= _SRC_VTOL:
            converged = True
            break
        if iters >= max_iter:
            break
        iters += 1
        sys = jacobian(circuit, devs, fc)
        older, prev = prev, x
        try:
            x = solve(sys, fc)
        except SingularSystemError:
            break
        if older is not None:
            two_cycle = _max_abs([a - b for a, b in zip(x, older)])
            moved = _max_abs([a - b for a, b in zip(x, prev)])
            osc_run = osc_run + 1 if two_cycle <= _OSC_ATOL and moved > _OSC_VTOL else 0
            oscillation = oscillation or osc_run >= _OSC_RUNS
    else:                       # x is not finite: report the last one walked
        x = prev
    return NrReport(converged=converged, iterations=iters,
                    oscillation_detected=oscillation and not converged, flops=fc,
                    residual=residual, source_error=src, x=np.array(x),
                    nodes=list(circuit.nodes))


def brute_force_dc(rtd: RtdModel, r: float, vbias: float,
                   grid: int = 100_000) -> List[Tuple[float, bool]]:
    """All load-line intersections of a series resistor + RTD divider.

    Scans f(v) = (vbias - v)/r - J(v) on a uniform grid over [0, vbias] for
    sign changes, bisects each bracket to 1e-9 V, and classifies stability
    by the sign of the total small-signal conductance dJ/dV + 1/r.
    """
    if grid < 10_000:
        raise ValueError("brute_force_dc requires grid >= 10^4")
    if vbias == 0.0:
        return [(0.0, rtd_didv(rtd, 0.0) + 1.0 / r > 0.0)]

    def f(v):
        return (vbias - v) / r - rtd_current(rtd, v)

    vs = np.linspace(0.0, vbias, grid)
    fs = f(vs)
    roots: List[Tuple[float, bool]] = []
    sign = np.sign(fs)
    flip = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    exact = np.nonzero(fs == 0.0)[0]
    candidates = [(float(vs[i]), float(vs[i + 1])) for i in flip]
    for i in exact:
        roots.append((float(vs[i]), bool(rtd_didv(rtd, float(vs[i])) + 1.0 / r > 0.0)))
    for lo, hi in candidates:
        flo = f(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo <= 1e-9:
                break
        v = 0.5 * (lo + hi)
        roots.append((v, bool(rtd_didv(rtd, v) + 1.0 / r > 0.0)))
    roots.sort(key=lambda t: t[0])
    return roots


def flop_compare(net: Netlist, result: Union[OperatingPoint, DcSweep]) -> FlopCompare:
    """Operation-count comparison: conductance-stepping engine vs naive NR.

    ``result`` is the engine's :class:`OperatingPoint` or :class:`DcSweep` of
    ``net`` and is billed as run. The NR side solves the same problem: an
    operating point from zero, or a sweep of ``result.source`` over
    ``result.biases``, walked as Python floats as :func:`dc_sweep` walks
    them, by the classic continuation strategy (each point starts from the
    previous point's final iterate). Each Newton solve is billed as it ran;
    ``unconverged`` counts those that stopped without converging, at the
    iteration limit or on a singular Jacobian.
    """
    if isinstance(result, DcSweep):
        circuit = Circuit(net)
        reports = []
        guess = None
        for bias in result.biases.tolist():
            circuit.set_source(result.source, Dc(bias))
            reports.append(nr_dc(circuit, initial_guess=guess))
            guess = reports[-1].x
    else:
        reports = [nr_dc(net)]
    nr_total = sum(rep.flops.total() for rep in reports)
    swec_total = result.flops.total()
    speedup = nr_total / swec_total if swec_total else math.inf
    return FlopCompare(swec_flops=swec_total, nr_flops=nr_total, speedup=speedup,
                       unconverged=sum(not rep.converged for rep in reports))
