"""Transient, operating-point and DC-sweep analyses without Newton iterations.

Every nonlinear device is replaced, one step at a time, by a constant
equivalent conductance (predicted by a half-step Taylor extrapolation of the
chord conductance), so each backward-Euler step attempt costs exactly one
linear solve. An attempt of step h is rejected if backward Euler's
truncation error on a capacitive node j,

    lte_j = h**2 / (h + h_prev) * |dx_j / h - dx_j,prev / h_prev|

from the last three accepted points, exceeds lte_tol = ``_LTE_VOLTS * eps``
volts times min(1, the largest source level the run reaches), or times 1 if
that level is 0 (Nagel, UCB ERL-M520, 1975), or if the chord lag ``err``
exceeds eps. The lag is the worst mismatch, at device terminals, between the
solved voltage change and the change dv_act the re-evaluated conductance
implies, over max(|dv_act|, lte_tol): relative for a move above the
truncation budget, in volts against that budget below it, and continuous in
the move. Both read each node's full capacitance. Below the floor the lag is
an absolute mismatch that grows at least as h**2, so both terms propose a
step from a square root (Hairer, Norsett & Wanner, Solving ODEs I, II.4):
the next step or retry is h * min(2, 0.9 sqrt(lte_tol / lte),
0.9 sqrt(eps / err)), clamped to [h_min, h_max] and cut at source
breakpoints. ``WaveformSeries.limited_by`` counts the accepted steps by what
set h. At eps = 0.01, ``fet_rtd_inverter`` takes 1369 solves and no step
under 1 ps (2503 and 913 with a lag skipped below 1 nV and relative above).

Operating points iterate the DC system (capacitors open) with each
device's chord conductance at the last iterate, one solve per iteration.
Where an NDR slope makes the iteration overshoot (successive moves reverse
by more than ``_DAMP_BELOW``), kappa * G_jj joins each node diagonal and
kappa * G_jj * x_j the right-hand side (pseudo-transient continuation;
Kelley & Keyes, SIAM J. Numer. Anal. 35(2), 1998). A damped step scales
the error by r = (r0 + kappa) / (1 + kappa), so kappa is set to -r0 from
the observed move ratio, but falls no faster than the moves shrink. While
the iteration is undamped and a move u is r times the one before, with
``_DAMP_BELOW`` <= r < ``_AITKEN_BELOW``, the iterate jumps to the limit of
those geometric moves, x + u * r / (1 - r) (Aitken's step, the one-vector
form of Anderson acceleration; Walker & Ni, SIAM J. Numer. Anal. 49(4),
2011), and the devices are re-evaluated there. The next ratio comes from
two fresh moves, a jump whose next move is no shorter than the move it
extrapolated ends jumping for that settle, and only solved moves are
tested for the stop. DC sweeps chain points by continuation (hysteresis is
expected, not hidden): each point from the third on starts from the secant
prediction through the previous two. The 500-point ``rtd_divider`` sweep
takes 1697 solves, 3.4 per point (5279 with previous-point starts and no
jumps).

The analyses take explicit values and read no analysis card:
``transient(net, t_stop, eps)`` with h_max = t_stop/50,
``operating_point(net)`` and ``dc_sweep(net, source, start, stop, points)``.
Only the command-line front end merges a deck's ``.tran``/``.dc`` card with
its flags. The engine settings are the fixed module constants below.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# device_step_bound is not called; the benchmark tracer patches it here
from .devices import (DeviceState, G_FLOOR, V_EPS, device_step_bound, geq_predict,  # noqa: F401
                      mos_bias, mos_geq, nanowire_current, nanowire_dgeq_dv,
                      nanowire_geq, rtd_current, rtd_dgeq_dv, rtd_geq)
from .mna import Circuit, FlopCounter, assemble, solve
from .netlist import (Dc, ElementKind, Netlist, Pwl, eval_waveform,
                      waveform_breakpoints)


class SimulationError(RuntimeError):
    pass


# h_min and the step budget of a transient; a settle's source ramp (10
# iterations of pseudo-time _OP_RAMP / 10), iteration budget, and the move
# ratio that engages damping (a 2-cycle is -1; shipped sweeps stay > -0.42)
_H_MIN = 1e-15
_MAX_STEPS = 200_000
_OP_RAMP = 1e-9
_SETTLE_ITERS = 1000
_DAMP_BELOW = -0.5
# undamped move ratios r from _DAMP_BELOW up to this take an Aitken jump
_AITKEN_BELOW = 0.85
# a transient step's truncation error budget per unit eps (volts)
_LTE_VOLTS = 0.03
# what can set a transient step (WaveformSeries.limited_by)
_LIMITERS = ("lte", "lag", "growth", "h_max", "breakpoint", "first")


@dataclass
class WaveformSeries:
    """Adaptive-grid simulation output plus run counters."""

    times: np.ndarray
    voltages: np.ndarray           # len(times) x n_nodes
    nodes: List[str]
    steps_taken: int = 0
    steps_rejected: int = 0
    n_solves: int = 0
    hmin_warnings: int = 0
    flops: FlopCounter = field(default_factory=FlopCounter)
    # accepted steps by what set h, one key per _LIMITERS entry (transient)
    limited_by: Dict[str, int] = field(default_factory=dict)

    def v(self, node: str) -> np.ndarray:
        return self.voltages[:, self.nodes.index(node)]


@dataclass
class OperatingPoint:
    voltages: np.ndarray
    nodes: List[str]
    settled: bool
    n_solves: int
    flops: FlopCounter

    def v(self, node: str) -> float:
        return float(self.voltages[self.nodes.index(node)])


@dataclass
class DcSweep:
    source: str                    # the swept source, as the deck names it
    biases: np.ndarray
    voltages: np.ndarray           # points x n_nodes
    currents: Dict[str, np.ndarray]
    settled: np.ndarray
    nodes: List[str]
    flops: FlopCounter
    point_solves: np.ndarray       # settle solves at each bias

    @property
    def n_solves(self) -> int:
        return int(self.point_solves.sum())


def next_step_size(h: float, lte: float, lte_tol: float, err: float, eps: float,
                   h_min: float, h_max: float) -> float:
    """The step after step ``h`` with truncation error ``lte`` (budget
    ``lte_tol``) and chord lag ``err`` (budget ``eps``), both taken to grow
    as h**2: 0.9 of the step both estimates allow, at most 2h, clamped to
    [h_min, h_max]. A zero estimate bounds nothing, a NaN one gives h_min."""
    if not (lte >= 0.0 and err >= 0.0):
        return h_min
    f = 2.0
    if lte > 0.0:
        f = min(f, 0.9 * math.sqrt(lte_tol / lte))
    if err > 0.0:
        f = min(f, 0.9 * math.sqrt(eps / err))
    return min(max(f * h, h_min), h_max)


def _limiter(h: float, h_next: float, lte: float, lte_tol: float, err: float,
             eps: float, h_max: float) -> str:
    """Which bound of :func:`next_step_size` gave ``h_next`` after step ``h``
    (a step clamped up to h_min counts for the estimate that asked for less)."""
    if h_next >= h_max:
        return "h_max"
    if h_next >= 2.0 * h:
        return "growth"
    # both terms scale as sqrt(budget / estimate): the larger ratio binds
    return "lag" if err * lte_tol > lte * eps else "lte"


# --- engine internals ---------------------------------------------------------

_MOSFET, _RTD = ElementKind.MOSFET, ElementKind.RTD


class _Engine:
    """One compiled circuit and the history of each nonlinear device.

    Per-device data are lists index-aligned with ``circuit.devices``: kind,
    model, :class:`DeviceState`, terminal indices, and the terminals the
    local error test reads (source-held nodes left out once, here). A step
    attempt works on Python floats and lists from start to finish: the
    solution of :func:`solve` becomes one list, each device is evaluated
    once at it, and the conductances are lists in device order.
    Device kernels, :func:`assemble` and :func:`solve` are called through
    this module's globals, once per device or attempt, so a tracer that
    replaces them sees every call.
    """

    def __init__(self, net: Netlist):
        if net.elements_of(ElementKind.NOISE):
            raise SimulationError("deck contains noise sources; use the stochastic engine")
        self.circuit = circuit = Circuit(net)
        self.fc = FlopCounter()
        self.n = circuit.n
        self.nodes = circuit.nodes
        self.devices = circuit.devices
        self.kinds = [br.el.kind for br in self.devices]
        self.models = circuit.models
        self.dev_states = [DeviceState() for _ in self.devices]
        self.terminals = [(br.a, br.b, br.gate) for br in self.devices]
        # nodes held by a source cannot respond to a conductance change or
        # carry a truncation error: both error tests skip them
        held = {i for br in circuit.sources for i in (br.a, br.b) if i >= 0}
        cap = circuit.C.diagonal().tolist()
        self.state_nodes = [j for j in range(self.n) if cap[j] > 0.0 and j not in held]
        self.error_terminals = [
            [(j, other, cap[j]) for j, other in ((a, b), (b, a))
             if j >= 0 and j not in held]
            for a, b, _ in self.terminals]

    def evaluate(self, x: List[float]
                 ) -> Tuple[List[Tuple[float, float]], List[float]]:
        """Every device's bias at solution x, (branch voltage, controlling
        voltage): (vds, vgs) for a MOSFET, the terminal voltage twice
        otherwise; and its conductance at that bias, floored at G_FLOOR."""
        fc, biases, geqs = self.fc, [], []
        for kind, m, (a, b, gate) in zip(self.kinds, self.models, self.terminals):
            va = x[a] if a >= 0 else 0.0
            vb = x[b] if b >= 0 else 0.0
            if kind is _MOSFET:
                vgs, v, _ = mos_bias(va, x[gate] if gate >= 0 else 0.0, vb)
                g = mos_geq(m, vgs, v, fc)
                biases.append((v, vgs))
            else:
                v = va - vb
                g = rtd_geq(m, v, fc) if kind is _RTD else nanowire_geq(m, v, fc)
                biases.append((v, v))
            geqs.append(G_FLOOR if g < G_FLOOR else g)
        return biases, geqs

    def step_geq(self, h: float) -> List[float]:
        """The floored conductance each device is stamped with for a step
        ``h`` from the committed solution: the half-step Taylor prediction
        (MOSFETs: the conductance at the half-step extrapolated bias)."""
        fc, out = self.fc, []
        for kind, m, st in zip(self.kinds, self.models, self.dev_states):
            if st.h_prev <= 0.0 or (kind is not _MOSFET and abs(st.v_now) < V_EPS):
                # the starting point, or a two-terminal device near v = 0
                # (undefined conductance slope): the committed conductance
                g = st.geq_now
            elif kind is _MOSFET:
                # stepwise-constant prediction at half-step extrapolated bias
                vgs = st.ctrl_now + 0.5 * h * st.ctrl_slew()
                vds = st.v_now + 0.5 * h * st.slew()
                g = mos_geq(m, vgs, 0.0 if vds < 0.0 else vds, fc)
            else:
                if kind is _RTD:
                    dg = rtd_dgeq_dv(m, st.v_now, fc)
                else:
                    dg = nanowire_dgeq_dv(m, st.v_now, fc)
                g = geq_predict(st, dg, h, fc)
            out.append(G_FLOOR if g < G_FLOOR else g)
        return out

    def local_error(self, g_pred: List[float], g_act: List[float],
                    x_old: List[float], x_new: List[float], h: float,
                    floor: float) -> float:
        """Worst mismatch, over the devices' terminals, between the solved
        voltage change and the change dv_act the re-evaluated conductance
        implies with the rest of the circuit frozen, relative to
        max(|dv_act|, ``floor``)."""
        err = 0.0
        for pairs, gp, ga in zip(self.error_terminals, g_pred, g_act):
            for j, other, cap in pairs:
                vj_old, vj_new = x_old[j], x_new[j]
                vo_new = x_new[other] if other >= 0 else 0.0
                cjh = cap / h
                i_other = cjh * (vj_new - vj_old) + gp * (vj_new - vo_new)
                v_act = (i_other + cjh * vj_old + ga * vo_new) / (cjh + ga)
                dv_act = v_act - vj_old
                e = abs(dv_act - (vj_new - vj_old)) / max(abs(dv_act), floor)
                if e > err:
                    err = e
        return err

    def commit_states(self, biases: List[Tuple[float, float]], g_act: List[float],
                      h: float) -> None:
        """Record the accepted solution's biases, its conductances and the
        step ``h`` in every device history."""
        for st, (v, ctrl), g in zip(self.dev_states, biases, g_act):
            st.v_prev, st.v_now = st.v_now, v
            st.ctrl_prev, st.ctrl_now = st.ctrl_now, ctrl
            st.h_prev = h
            st.geq_now = g

    def run(self, t_stop: float, eps: float) -> WaveformSeries:
        """Transient from zero node voltages to ``t_stop`` with error budget
        ``eps`` and the step capped at t_stop/50. The first step is
        eps * t_stop/50; :func:`next_step_size` sets each later one."""
        h_max = t_stop / 50.0
        n, state_nodes = self.n, self.state_nodes
        x = [0.0] * self.circuit.size
        # the starting point is committed with no step behind it (h_prev 0)
        self.commit_states(*self.evaluate(x), 0.0)
        waveforms = self.circuit.waveforms
        breakpoints = sorted({bp for w in waveforms
                              for bp in waveform_breakpoints(w, t_stop)})
        # the sources are piecewise linear: they peak at an end or a breakpoint
        peak = max((abs(eval_waveform(w, t)) for w in waveforms
                    for t in (0.0, t_stop, *breakpoints)), default=0.0)
        lte_tol = _LTE_VOLTS * eps * (min(1.0, peak) if peak > 0.0 else 1.0)
        # accepted times and node voltages, packed as doubles
        times = array("d", [0.0])
        trace = array("d", x[:n])
        steps = rejected = warnings = solves = 0
        limited_by = dict.fromkeys(_LIMITERS, 0)
        t = 0.0
        h_next, why = eps * h_max, "first"
        h_prev = 0.0                # the last accepted step (0: none yet)
        slopes_prev: List[float] = []
        while t < t_stop * (1.0 - 1e-12):
            if steps + rejected >= _MAX_STEPS:
                raise SimulationError(f"step budget exceeded ({_MAX_STEPS})")
            h = min(h_next, t_stop - t)
            if h < h_next:
                why = "breakpoint"          # the cut at t_stop
            for bp in breakpoints:
                if t < bp * (1.0 - 1e-12) and t + h > bp:
                    h, why = bp - t, "breakpoint"
                    break
            while True:
                g_pred = self.step_geq(h)
                sys = assemble(self.circuit, g_pred, vstate=x, h=h, t=t + h)
                x_new = solve(sys, self.fc).tolist()
                solves += 1
                biases, g_act = self.evaluate(x_new)
                err = self.local_error(g_pred, g_act, x, x_new, h, lte_tol)
                # backward Euler's truncation error from the divided
                # difference of the last three accepted points
                slopes = [(x_new[j] - x[j]) / h for j in state_nodes]
                lte = 0.0
                if h_prev > 0.0:
                    for s, s_prev in zip(slopes, slopes_prev):
                        d = abs(s - s_prev)
                        if d > lte or d != d:       # a NaN sticks
                            lte = d
                    lte *= h * h / (h + h_prev)
                # also the retry step of a rejected attempt: it shrinks
                h_next = next_step_size(h, lte, lte_tol, err, eps, _H_MIN, h_max)
                why_next = _limiter(h, h_next, lte, lte_tol, err, eps, h_max)
                if err <= eps and lte <= lte_tol:
                    break
                if h <= _H_MIN * (1.0 + 1e-12):
                    warnings += 1
                    break
                rejected += 1
                h, why = h_next, why_next
            self.commit_states(biases, g_act, h)
            x = x_new
            t += h
            h_prev, slopes_prev = h, slopes
            steps += 1
            limited_by[why] += 1
            why = why_next
            times.append(t)
            trace.extend(x[:n])
        return WaveformSeries(times=np.array(times),
                              voltages=np.array(trace).reshape(len(times), n),
                              nodes=self.nodes, steps_taken=steps,
                              steps_rejected=rejected, n_solves=solves,
                              hmin_warnings=warnings, flops=self.fc,
                              limited_by=limited_by)

    def settle(self, tol: float, x: Optional[List[float]] = None
               ) -> Tuple[List[float], bool, int]:
        """(solution, settled, solves) of the module docstring's iteration.
        Without ``x`` it starts from zero and ramps the sources; devices
        start from their conductance at the starting point. It stops once
        every node's move times 1 + kappa (the undamped move) is below
        ``tol`` * h, h = ``_OP_RAMP`` / 10."""
        circuit, n, fc = self.circuit, self.n, self.fc
        if not self.devices:
            return solve(assemble(circuit, [], t=0.0), fc).tolist(), True, 1
        h = _OP_RAMP / 10.0
        held = circuit.waveforms
        t_on = 0.0
        if x is None:
            x = [0.0] * circuit.size
            circuit.waveforms = [Pwl(((0.0, 0.0), (_OP_RAMP, v)))
                                 for v in circuit.source_levels(0.0)]
            t_on = _OP_RAMP
        g = self.evaluate(x)[1]
        kappa = kappa_prev = 0.0
        u_prev = None
        aitken, jumped = True, False
        settled = False
        solves = 0
        t = 0.0
        try:
            while solves < _SETTLE_ITERS:
                t += h
                sys = assemble(circuit, g, t=t)
                if kappa > 0.0:
                    rows, b = sys.rows, sys.b
                    for j in range(n):
                        c = kappa * rows[j][j]
                        rows[j][j] += c
                        b[j] += c * x[j]
                x_new = solve(sys, fc).tolist()
                solves += 1
                u = [(a - b) * (1.0 + kappa) for a, b in zip(x_new[:n], x)]
                x = x_new
                if t >= t_on:
                    # compared as numpy's max would: a NaN move never settles
                    if all(abs(uj) / h < tol for uj in u):
                        settled = True
                        break
                    if u_prev is not None:
                        uu = sum(b * b for b in u_prev)
                        if jumped:
                            # a jump that did not shrink the move ends jumping
                            aitken = aitken and sum(a * a for a in u) < uu
                            jumped = False
                        else:
                            # the damped factor of the step between the moves
                            r = sum(a * b for a, b in zip(u, u_prev)) / uu
                            if kappa > 0.0 or r < _DAMP_BELOW:
                                r0 = r * (1.0 + kappa_prev) - kappa_prev
                                kappa_prev, kappa = kappa, max(0.0, -r0, kappa * abs(r))
                            elif aitken and r < _AITKEN_BELOW:
                                # undamped moves shrinking by r: jump to
                                # their limit (Aitken)
                                f = r / (1.0 - r)
                                x[:n] = [a + f * b for a, b in zip(x[:n], u)]
                                jumped = True
                    u_prev = u
                g = self.evaluate(x)[1]
        finally:
            circuit.waveforms = held
        return x, settled, solves


def transient(net: Netlist, t_stop: float, eps: float = 0.01) -> WaveformSeries:
    """Adaptive conductance-stepping transient from zero node voltages at
    t = 0 to ``t_stop``, with error budget ``eps`` (module docstring) and
    the step capped at t_stop/50."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not t_stop > 0.0:
        raise ValueError("t_stop must be positive")
    return _Engine(net).run(t_stop, eps)


def pin_source(net: Netlist, source: str, level: float) -> Netlist:
    elements = []
    for el in net.elements:
        if el.kind is ElementKind.VSOURCE and el.name.lower() == source.lower():
            elements.append(replace(el, waveform=Dc(level)))
        else:
            elements.append(el)
    return replace(net, elements=tuple(elements))


def _settle_tol(levels: Sequence[float]) -> float:
    return max([1.0] + [abs(v) for v in levels])


def operating_point(net: Netlist) -> OperatingPoint:
    """DC solution from zero (see :meth:`_Engine.settle`)."""
    eng = _Engine(net)
    x, settled, solves = eng.settle(_settle_tol(eng.circuit.source_levels(0.0)))
    return OperatingPoint(voltages=np.array(x[:eng.n]), nodes=eng.nodes,
                          settled=settled, n_solves=solves, flops=eng.fc)


def dc_sweep(net: Netlist, source: str, start: float, stop: float,
             points: int) -> DcSweep:
    """Swept operating points with secant continuation.

    The first bias is solved like :func:`operating_point`. The second
    starts from the first solution, and each later bias from the secant
    prediction through the previous two (a deck without nonlinear devices
    takes one resistive solve per bias); a repeated bias repeats the
    previous point without a solve. One compiled
    circuit serves every point: only the swept source's level changes, and
    every other source holds its t = 0 level. RTD and nanowire terminal
    currents are recorded per point.
    """
    if points < 2:
        raise ValueError("dc_sweep requires at least 2 points")
    try:
        src = net.element(source)
    except KeyError:
        raise ValueError(f"no element named '{source}' in the deck")
    if src.kind is not ElementKind.VSOURCE:
        raise ValueError(f"'{source}' is not a voltage source")
    biases = np.linspace(start, stop, points)
    eng = _Engine(net)
    circuit, n = eng.circuit, eng.n
    levels = circuit.source_levels(0.0)
    circuit.waveforms = [Dc(v) for v in levels]
    tol = _settle_tol(levels)
    volts = np.zeros((points, n))
    settled = np.zeros(points, dtype=bool)
    point_solves = np.zeros(points, dtype=np.int64)
    x = x_prev = None
    for k, bias in enumerate(biases):
        if k and bias == biases[k - 1]:
            # a repeated bias repeats its point
            volts[k], settled[k] = volts[k - 1], settled[k - 1]
            continue
        circuit.set_source(src.name, Dc(bias))
        if x is None:
            x, ok, solves = eng.settle(_settle_tol(circuit.source_levels(0.0)))
        else:
            guess = x
            step = biases[k - 1] - biases[k - 2] if k > 1 else 0.0
            if step != 0.0:
                # secant prediction through the last two points
                f = (bias - biases[k - 1]) / step
                guess = [a + f * (a - b) for a, b in zip(x, x_prev)]
            x_prev = x
            x, ok, solves = eng.settle(tol, guess)
        volts[k], settled[k], point_solves[k] = x[:n], ok, solves

    currents: Dict[str, np.ndarray] = {}
    for br, m in zip(eng.devices, eng.models):
        if br.el.kind is ElementKind.MOSFET:
            continue
        va, vb = (volts[:, i] if i >= 0 else np.zeros(points) for i in (br.a, br.b))
        vbr = va - vb
        if br.el.kind is ElementKind.RTD:
            currents[br.el.name] = np.asarray(rtd_current(m, vbr))
        else:
            currents[br.el.name] = np.asarray(nanowire_current(m, vbr))
    return DcSweep(source=src.name, biases=biases, voltages=volts,
                   currents=currents, settled=settled, nodes=eng.nodes,
                   flops=eng.fc, point_solves=point_solves)
