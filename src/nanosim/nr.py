"""Newton-Raphson baseline solver and brute-force DC oracles.

The Newton solver here is deliberately naive: each nonlinear device is
linearized by its differential conductance dI/dV (the slope that goes
negative inside an NDR region) with full steps and no source stepping,
Gmin stepping or damping. On non-monotonic devices it reproduces the
classic failure mode where iterates bounce between two points without
converging; a 2-cycle detector flags that explicitly. It exists to
validate the conductance-stepping engine and to compare operation counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .devices import (RtdModel, mos_bias, mos_current, mos_didv, mos_gm,
                      nanowire_current, nanowire_didv, rtd_current, rtd_didv)
from .mna import (Branch, Circuit, FlopCounter, SingularSystemError, solve,
                  stamp_conductance)
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


@dataclass
class NrReport:
    converged: bool
    iterations: int
    oscillation_detected: bool
    flops: FlopCounter
    residual: float
    x: np.ndarray
    nodes: List[str]


@dataclass
class FlopCompare:
    swec_flops: int
    nr_flops: int
    speedup: float


def _mos_terminals(br: Branch, x: List[float]) -> Tuple[float, float, int, int]:
    """Bias (vgs, vds) and the nodes acting as drain and source."""
    a, g, b = br.a, br.gate, br.b
    vgs, vds, rev = mos_bias(x[a] if a >= 0 else 0.0, x[g] if g >= 0 else 0.0,
                             x[b] if b >= 0 else 0.0)
    return (vgs, vds, b, a) if rev else (vgs, vds, a, b)


def _max_abs(values) -> float:
    """The largest |v|, NaN if any v is NaN (as ``np.max(np.abs(v))``), 0
    for no values."""
    worst = 0.0
    for v in values:
        v = abs(v)
        if v > worst or v != v:
            worst = v
    return worst


def nr_dc(net: Union[Netlist, Circuit], initial_guess: Optional[np.ndarray] = None,
          max_iter: int = 100) -> NrReport:
    """Plain Newton-Raphson DC solve on the nonlinear nodal equations.

    ``net`` may be a compiled :class:`Circuit`. Capacitors are open
    circuits; noise sources are rejected. Each iteration starts from the
    circuit's static G and source values and stamps the device Jacobians on
    top. Converged means the largest nodal KCL residual is at most
    ``_KCL_ATOL`` amps. A detected 2-cycle sets ``oscillation_detected``
    (iteration continues to ``max_iter`` so failed runs carry their full
    cost). The iterates are Python lists; the report's ``x`` is an array.
    """
    circuit = net if isinstance(net, Circuit) else Circuit(net)
    if any(br.el.kind is ElementKind.NOISE for br in circuit.branches):
        raise ValueError("nr_dc does not handle noise sources")
    n = circuit.n
    fc = FlopCounter()

    x = np.zeros(circuit.size)
    if initial_guess is not None:
        x[:len(initial_guess)] = initial_guess
    x = x.tolist()

    models = {br.el.name: m for br, m in zip(circuit.devices, circuit.models)}
    levels = circuit.source_levels(0.0)

    def kcl_residual(xv: List[float]) -> Tuple[float, List[float]]:
        """Largest net nodal current imbalance with true device currents,
        and those currents in ``circuit.devices`` order."""
        r = [0.0] * n
        currents = []
        for br in circuit.branches:
            el, a, b = br.el, br.a, br.b
            if el.kind is ElementKind.RESISTOR:
                i = ((xv[a] if a >= 0 else 0.0) - (xv[b] if b >= 0 else 0.0)) / el.value
                fc.count(adds=1, divs=1)
            elif el.kind is ElementKind.VSOURCE:
                i = xv[circuit.source_index[el.name]]
            elif el.kind is ElementKind.MOSFET:
                vgs, vds, a, b = _mos_terminals(br, xv)
                i = float(mos_current(models[el.name], vgs, vds, fc))
            elif el.kind in NONLINEAR_KINDS:
                vbr = (xv[a] if a >= 0 else 0.0) - (xv[b] if b >= 0 else 0.0)
                mdl = models[el.name]
                if el.kind is ElementKind.RTD:
                    i = float(rtd_current(mdl, vbr, fc))
                else:
                    i = float(nanowire_current(mdl, vbr, fc))
            else:
                continue
            if el.kind in NONLINEAR_KINDS:
                currents.append(i)
            if a >= 0:
                r[a] -= i
            if b >= 0:
                r[b] += i
        return _max_abs(r), currents

    def source_violation(xv: List[float]) -> float:
        worst = 0.0
        for br, level in zip(circuit.sources, levels):
            a, b = br.a, br.b
            worst = max(worst, abs((xv[a] if a >= 0 else 0.0)
                                   - (xv[b] if b >= 0 else 0.0) - level))
        return worst

    older = prev = None         # the two iterates before x (2-cycle test)
    oscillation = False
    osc_run = 0
    converged = False
    # the residual's device currents at x serve the next Jacobian stamp
    residual, currents = kcl_residual(x)
    iters = 0

    for k in range(1, max_iter + 1):
        if residual <= _KCL_ATOL and source_violation(x) <= _SRC_VTOL:
            converged = True
            break
        iters = k
        sys = circuit.system(0.0)
        G, rhs = sys.rows, sys.b
        for br, i0 in zip(circuit.devices, currents):
            mdl = models[br.el.name]
            if br.el.kind is ElementKind.MOSFET:
                vgs, vds, d_node, s_node = _mos_terminals(br, x)
                g_node = br.gate
                gds = mos_didv(mdl, vgs, vds)
                gm = mos_gm(mdl, vgs, vds)
                fc.count(adds=4, muls=4)
                # linearized drain current: i0 + gds*dvds + gm*dvgs
                ieq = i0 - gds * vds - gm * vgs
                if d_node >= 0:
                    G[d_node][d_node] += gds
                    if s_node >= 0:
                        G[d_node][s_node] -= gds + gm
                    if g_node >= 0:
                        G[d_node][g_node] += gm
                    rhs[d_node] -= ieq
                if s_node >= 0:
                    G[s_node][s_node] += gds + gm
                    if d_node >= 0:
                        G[s_node][d_node] -= gds
                    if g_node >= 0:
                        G[s_node][g_node] -= gm
                    rhs[s_node] += ieq
            else:
                a, b = br.a, br.b
                vbr = (x[a] if a >= 0 else 0.0) - (x[b] if b >= 0 else 0.0)
                didv = rtd_didv if br.el.kind is ElementKind.RTD else nanowire_didv
                gd = float(didv(mdl, vbr, fc))
                stamp_conductance(G, br.a, br.b, gd)
                ieq = i0 - gd * vbr
                fc.count(adds=1, muls=1)
                if br.a >= 0:
                    rhs[br.a] -= ieq
                if br.b >= 0:
                    rhs[br.b] += ieq
        older, prev = prev, x
        try:
            x = solve(sys, fc).tolist()
        except SingularSystemError:
            break
        residual, currents = kcl_residual(x)
        if older is not None:
            two_cycle = _max_abs([a - b for a, b in zip(x, older)])
            moved = _max_abs([a - b for a, b in zip(x, prev)])
            if two_cycle <= _OSC_ATOL and moved > _OSC_VTOL:
                osc_run += 1
                if osc_run >= _OSC_RUNS:
                    oscillation = True
            else:
                osc_run = 0
    if not converged and residual <= _KCL_ATOL and source_violation(x) <= _SRC_VTOL:
        converged = True
    return NrReport(converged=converged, iterations=iters,
                    oscillation_detected=oscillation and not converged, flops=fc,
                    residual=residual, x=np.array(x), nodes=list(circuit.nodes))


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

    ``result`` is the engine's :class:`OperatingPoint` or :class:`DcSweep`
    of ``net`` and is billed as run. The NR side solves the same problem:
    an operating point from zero, or a sweep of ``result.source`` over
    ``result.biases`` by the classic continuation strategy (each point
    starts from the previous point's final iterate); non-converged points
    run to ``nr_dc``'s iteration limit and are billed at that full cost.
    """
    if isinstance(result, DcSweep):
        circuit = Circuit(net)
        nr_total = 0
        guess = None
        for bias in result.biases:
            circuit.set_source(result.source, Dc(bias))
            rep = nr_dc(circuit, initial_guess=guess)
            nr_total += rep.flops.total()
            guess = rep.x
    else:
        nr_total = nr_dc(net).flops.total()
    swec_total = result.flops.total()
    speedup = nr_total / swec_total if swec_total else math.inf
    return FlopCompare(swec_flops=swec_total, nr_flops=nr_total, speedup=speedup)
