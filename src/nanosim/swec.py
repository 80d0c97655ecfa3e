"""Transient, operating-point and DC-sweep analyses without Newton iterations.

Every nonlinear device is replaced, one step at a time, by a constant
equivalent conductance (its chord conductance at its bias extrapolated to
the step's end through the last three accepted points), so each step
attempt costs exactly one linear solve. Transients integrate with
variable-step BDF2 (Brayton, Gustavson & Hachtel, Proc. IEEE 60(1), 1972).
With w = h / h_prev, the step from x_n is

    (1+2w)/(1+w) x_n+1 - (1+w) x_n + w**2/(1+w) x_n-1 = h dx/dt(t_n+1),

which is backward Euler's companion with step h_eff = h (1+w)/(1+2w) from
the history voltage x_n + w**2/(1+2w) (x_n - x_n-1), so the MNA assembly
takes it unchanged. The first step, and the first step from each source
breakpoint, is backward Euler: a multistep formula across a slope kink is
inconsistent.

An attempt of step h is rejected if the truncation error on a capacitive
node j exceeds lte_tol = ``_LTE_VOLTS * eps`` volts times min(1, the
largest source level the run reaches), or times 1 if that level is 0
(Nagel, UCB ERL-M520, 1975). For BDF2 it is

    lte_j = h_eff * h * (h + h_prev) * |x_j[t_n+1, t_n, t_n-1, t_n-2]|,

the error constant h_eff h (h + h_prev) / 6 (2/9 h**3 at w = 1) times the
third derivative, taken as 6 times the third divided difference over the
last four accepted points. For a backward-Euler step it is
h**2 |x_j[t_n+1, t_n, t_n-1]|. The second step of a run, a BDF2 step with
only three points, has no estimate. The differences reach back across
breakpoints, where a slope kink inflates them and shortens the steps after
it. An attempt is also rejected if the
chord lag ``err`` exceeds eps. The lag is the worst mismatch, at device
terminals, between the solved move from the history voltage and the move
dv_act the re-evaluated conductance implies, over max(|dv_act|, lte_tol):
relative for a move above the truncation budget, in volts against that
budget below it, and continuous in the move. Both read each node's full
capacitance. Below the floor the lag is an absolute mismatch that grows at
least as h**2, so it sizes the step from a square root, and the truncation
error from the root of the step's order plus one (Hairer, Norsett &
Wanner, Solving ODEs I, II.4): after a BDF2 step the next step or retry is
h * min(2, 0.9 (lte_tol / lte)**(1/3), 0.9 sqrt(eps / err)), after a
backward-Euler step the lte term is a square root; clamped to [h_min,
h_max]. :func:`next_step_size` applies that one rule and names what set
the step: "h_max", "growth" (the 2x cap), or "lag" or "lte" for the
estimate that allowed less. A step cut at a source breakpoint or at t_stop
is "breakpoint", the first step "first", and ``WaveformSeries.limited_by``
counts the accepted steps by label. At eps = 0.01, ``fet_rtd_inverter``
takes 245 solves and no step under 1 ps.

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
tested for the stop: every node's undamped move below 1e-10 V times the
larger of 1 and the largest |source level| the settle ramps to from zero.
DC sweeps chain points by continuation (hysteresis is expected, not
hidden): each point from the third on starts from the secant prediction
through the previous two, and every point keeps the first point's stop
scale. The 500-point ``rtd_divider`` sweep
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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

# device_step_bound, geq_predict, rtd_dgeq_dv and nanowire_dgeq_dv are not
# called; the benchmark tracer patches them here
from .devices import (G_FLOOR, device_step_bound, geq_predict,  # noqa: F401
                      mos_geq, nanowire_current, nanowire_dgeq_dv,
                      nanowire_geq, rtd_current, rtd_dgeq_dv, rtd_geq)
from .mna import Circuit, FlopCounter, _max_abs, assemble, solve
from .netlist import Dc, ElementKind, Netlist, eval_waveform, waveform_breakpoints


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
                   h_min: float, h_max: float, order: int) -> Tuple[float, str]:
    """The step after step ``h`` of order ``order`` with truncation error
    ``lte`` (budget ``lte_tol``) and chord lag ``err`` (budget ``eps``),
    by the module docstring's rule (an estimate of zero bounds nothing),
    and what set it: "h_max", "growth" (the 2x cap), or "lag" or "lte" for
    the estimate that allowed less, also where h_min clamps the step up; a
    tie is "lte". A NaN estimate gives (h_min, "lte")."""
    if not (lte >= 0.0 and err >= 0.0):
        return h_min, "lte"
    f_lte = 0.9 * (lte_tol / lte) ** (1.0 / (order + 1)) if lte > 0.0 else math.inf
    f_lag = 0.9 * math.sqrt(eps / err) if err > 0.0 else math.inf
    h_next = min(max(min(2.0, f_lte, f_lag) * h, h_min), h_max)
    if h_next >= h_max:
        return h_next, "h_max"
    if h_next >= 2.0 * h:
        return h_next, "growth"
    return h_next, "lag" if f_lag < f_lte else "lte"


# --- engine internals ---------------------------------------------------------

_MOSFET, _RTD = ElementKind.MOSFET, ElementKind.RTD


def _budgeted(times: Iterable[float], every: bool = False) -> Iterator[float]:
    """The increasing breakpoints ``times``, refusing the run once more lie
    1e-12 (relative) apart than it has steps: one must end at or below each.
    With ``every`` each one counts, so a walk that stalls (a PULSE near 1e10 s) ends."""
    apart, last = 0, -math.inf
    for t in times:
        if every or t * (1.0 - 1e-12) > last:
            apart, last = apart + 1, t
            if apart > _MAX_STEPS:
                raise SimulationError(f"step budget exceeded ({_MAX_STEPS})")
        yield t


class _Engine:
    """One compiled circuit and the history of each nonlinear device.

    Per-device data are lists index-aligned with ``circuit.devices``: kind,
    model, the terminals the local error test reads (source-held nodes left
    out once, here), the (branch, controlling) biases at the last three
    accepted points, newest first, and the conductances at the last. A step
    attempt works on Python floats and lists from start to finish, and
    evaluates each device once at the solution, at the bias
    :meth:`Circuit.biases` reads. Device kernels, :func:`assemble` and
    :func:`solve` are called through this module's globals, once per
    device or attempt, so a tracer that replaces them sees every call.
    """

    def __init__(self, net: Netlist):
        if net.elements_of(ElementKind.NOISE):
            raise ValueError("deck contains noise sources; use the stochastic engine")
        self.circuit = circuit = Circuit(net)
        self.fc = FlopCounter()
        self.n = circuit.n
        self.nodes = circuit.nodes
        self.devices = circuit.devices
        self.kinds = [br.el.kind for br in self.devices]
        self.models = circuit.models
        self.history = [[(0.0, 0.0)] * len(self.devices)] * 3
        self.geq = [G_FLOOR] * len(self.devices)
        # the settle's stop scale, set by each settle from zero
        self.tol = 1.0
        # the nodes grounded sources pin (the unknowns solve condenses out)
        # cannot respond to a conductance change or carry a truncation
        # error: both error tests skip them
        part = circuit.partition
        held = {pin.node for pin in part.pins} if part is not None else set()
        cap = circuit.C.diagonal().tolist()
        self.state_nodes = [j for j in range(self.n) if cap[j] > 0.0 and j not in held]
        self.error_terminals = [
            [(j, other, cap[j]) for j, other in ((a, b), (b, a))
             if j >= 0 and j not in held]
            for _, a, b, _ in self.devices]

    def conductances(self, biases: List[Tuple[float, float]]) -> List[float]:
        """Every device's conductance at its (branch, controlling) bias,
        floored at G_FLOOR; a MOSFET's branch voltage is taken at 0 or
        above."""
        fc, out = self.fc, []
        for kind, m, (v, ctrl) in zip(self.kinds, self.models, biases):
            if kind is _MOSFET:
                g = mos_geq(m, ctrl, 0.0 if v < 0.0 else v, fc)
            elif kind is _RTD:
                g = rtd_geq(m, v, fc)
            else:
                g = nanowire_geq(m, v, fc)
            out.append(G_FLOOR if g < G_FLOOR else g)
        return out

    def evaluate(self, x: List[float]
                 ) -> Tuple[List[Tuple[float, float]], List[float]]:
        """Every device's (branch, controlling) bias at solution x, by
        :meth:`Circuit.biases`, and its conductance there."""
        biases = [(v, ctrl) for v, ctrl, _ in self.circuit.biases(x)]
        return biases, self.conductances(biases)

    def step_geq(self, h: float, h_prev: float, h_prev2: float) -> List[float]:
        """The conductance each device is stamped with for a step ``h``
        from the committed solution: at its bias extrapolated to the step's
        end through the last three accepted points, ``h_prev`` and
        ``h_prev2`` apart (a line through two while ``h_prev2`` is 0; the
        committed conductance with no step behind)."""
        if h_prev <= 0.0:
            return self.geq
        # v(t + h) = v_now + c0 (v_now - v_prev) + c1 (v_prev - v_prev2),
        # the Newton form of the interpolating polynomial
        c0, c1 = h / h_prev, 0.0
        if h_prev2 > 0.0:
            k = h * (h + h_prev) / (h_prev + h_prev2)
            c0, c1 = (h + k) / h_prev, -k / h_prev2
        return self.conductances([
            (v + c0 * (v - vp) + c1 * (vp - vpp), c + c0 * (c - cp) + c1 * (cp - cpp))
            for (v, c), (vp, cp), (vpp, cpp) in zip(*self.history)])

    def local_error(self, g_pred: List[float], g_act: List[float],
                    x_old: List[float], x_new: List[float], h: float,
                    floor: float) -> float:
        """Worst mismatch, over the devices' terminals, between the solved
        move from ``x_old`` to ``x_new`` and the move dv_act the
        re-evaluated conductance implies with the rest of the circuit
        frozen, relative to max(|dv_act|, ``floor``). ``x_old`` and ``h``
        are the companion's history voltage and step, as assembled."""
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

    def commit_states(self, biases: List[Tuple[float, float]],
                      g_act: List[float]) -> None:
        """Record the accepted solution's biases and conductances."""
        self.history = [biases, *self.history[:2]]
        self.geq = g_act

    def run(self, t_stop: float, eps: float) -> WaveformSeries:
        """Transient from zero node voltages to ``t_stop`` with error budget
        ``eps`` and the step capped at t_stop/50. The first step is
        eps * t_stop/50; :func:`next_step_size` sets each later one."""
        h_max = t_stop / 50.0
        n, state_nodes = self.n, self.state_nodes
        x = [0.0] * self.circuit.size
        x_prev = x[:n]
        # the starting point is committed with no step behind it (h_prev 0)
        self.commit_states(*self.evaluate(x))
        waveforms = self.circuit.waveforms
        breakpoints = list(_budgeted(sorted({bp for w in waveforms for bp in _budgeted(
            waveform_breakpoints(w, t_stop), every=True)})))
        # the sources are piecewise linear: they peak at an end or a breakpoint
        peak = max((abs(eval_waveform(w, t)) for w in waveforms
                    for t in (0.0, t_stop, *breakpoints)), default=0.0)
        lte_tol = _LTE_VOLTS * eps * (min(1.0, peak) if peak > 0.0 else 1.0)
        # accepted times and node voltages, packed as doubles
        times = array("d", [0.0])
        trace = array("d", x[:n])
        steps = rejected = warnings = 0
        limited_by = dict.fromkeys(_LIMITERS, 0)
        t = 0.0
        h_next, why = eps * h_max, "first"
        # the last two accepted steps (0: none yet), the first and second
        # divided differences of the last (empty: too few points), and the
        # index of the next breakpoint
        h_prev = h_prev2 = 0.0
        dd1_prev: List[float] = []
        dd2_prev: List[float] = []
        k_bp = 0
        restart = True              # the next step is backward Euler
        while t < t_stop * (1.0 - 1e-12):
            if steps + rejected >= _MAX_STEPS:
                raise SimulationError(f"step budget exceeded ({_MAX_STEPS})")
            h = min(h_next, t_stop - t)
            if h < h_next:
                why = "breakpoint"          # the cut at t_stop
            if k_bp < len(breakpoints) and t + h > breakpoints[k_bp]:
                h, why = breakpoints[k_bp] - t, "breakpoint"
            order = 1 if restart else 2
            while True:
                if restart:
                    h_eff, hist = h, x
                else:
                    # BDF2 as a backward-Euler companion: step h_eff from
                    # the history voltage hist
                    w = h / h_prev
                    h_eff = h * (1.0 + w) / (1.0 + 2.0 * w)
                    beta = w * w / (1.0 + 2.0 * w)
                    hist = [p + beta * (p - q) for p, q in zip(x, x_prev)]
                g_pred = self.step_geq(h, h_prev, h_prev2)
                sys = assemble(self.circuit, g_pred, vstate=hist, h=h_eff, t=t + h)
                x_new = solve(sys, self.fc)
                biases, g_act = self.evaluate(x_new)
                err = self.local_error(g_pred, g_act, hist, x_new, h_eff, lte_tol)
                # the truncation error from the divided differences of the
                # last three (backward Euler) or four (BDF2) accepted points;
                # a difference without enough points is an empty list
                dd1 = [(x_new[j] - x[j]) / h for j in state_nodes]
                dd2 = [(a - b) / (h + h_prev) for a, b in zip(dd1, dd1_prev)]
                if restart:
                    dd, c = dd2, h * h
                else:
                    span = h + h_prev + h_prev2
                    dd = [(a - b) / span for a, b in zip(dd2, dd2_prev)]
                    c = h_eff * h * (h + h_prev)
                lte = _max_abs(dd) * c
                # also the retry step of a rejected attempt: it shrinks
                h_next, why_next = next_step_size(h, lte, lte_tol, err, eps,
                                                  _H_MIN, h_max, order)
                if err <= eps and lte <= lte_tol:
                    break
                if h <= _H_MIN * (1.0 + 1e-12):
                    warnings += 1
                    break
                rejected += 1
                h, why = h_next, why_next
            self.commit_states(biases, g_act)
            x_prev, x = x[:n], x_new
            t += h
            h_prev2, h_prev = h_prev, h
            dd1_prev, dd2_prev = dd1, dd2
            # a multistep formula across a source's slope kink is
            # inconsistent: the step from a breakpoint is backward Euler
            restart = False
            while k_bp < len(breakpoints) and t >= breakpoints[k_bp] * (1.0 - 1e-12):
                k_bp += 1
                restart = True
            steps += 1
            limited_by[why] += 1
            why = why_next
            times.append(t)
            trace.extend(x[:n])
        return WaveformSeries(times=np.array(times),
                              voltages=np.array(trace).reshape(len(times), n),
                              nodes=self.nodes, steps_taken=steps,
                              steps_rejected=rejected, n_solves=steps + rejected,
                              hmin_warnings=warnings, flops=self.fc,
                              limited_by=limited_by)

    def settle(self, x: Optional[List[float]] = None) -> Tuple[List[float], bool, int]:
        """(solution, settled, solves) of the module docstring's iteration
        with the sources at their t = 0 levels. Without ``x`` it starts from
        zero, ramps the sources from 0 over pseudo-time ``_OP_RAMP`` and
        sets the stop scale ``tol`` to the larger of 1 and the largest
        |source level|; a continuation from ``x`` keeps the ``tol`` of the
        settle it continues. Devices start from their conductance at the
        starting point. It stops once every node's move times 1 + kappa
        (the undamped move) is below ``tol`` * h, h = ``_OP_RAMP`` / 10."""
        circuit, n, fc = self.circuit, self.n, self.fc
        if not self.devices:
            return solve(assemble(circuit, [], t=0.0), fc), True, 1
        h = _OP_RAMP / 10.0
        t_on = 0.0
        if x is None:
            x = [0.0] * circuit.size
            t_on = _OP_RAMP
            self.tol = max(1.0, _max_abs(circuit.source_levels(0.0)))
        g = self.evaluate(x)[1]
        kappa = kappa_prev = 0.0
        u_prev = None
        aitken, jumped = True, False
        settled = False
        solves = 0
        t = 0.0
        while solves < _SETTLE_ITERS:
            t += h
            sys = assemble(circuit, g, t=0.0)
            if t < t_on:
                # the ramp from 0 to each level, as a PWL evaluates it
                sys.b[n:] = [0.0 + v * t / _OP_RAMP for v in sys.b[n:]]
            if kappa > 0.0:
                rows, b = sys.rows, sys.b
                for j in range(n):
                    c = kappa * rows[j][j]
                    rows[j][j] += c
                    b[j] += c * x[j]
            x_new = solve(sys, fc)
            solves += 1
            u = [(a - b) * (1.0 + kappa) for a, b in zip(x_new[:n], x)]
            x = x_new
            if t >= t_on:
                # a NaN move never settles
                if _max_abs(u) / h < self.tol:
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
        return x, settled, solves


def transient(net: Netlist, t_stop: float, eps: float = 0.01) -> WaveformSeries:
    """Adaptive conductance-stepping transient from zero node voltages at
    t = 0 to ``t_stop``, with error budget ``eps`` (module docstring) and
    the step capped at t_stop/50."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not t_stop > 0.0:
        raise ValueError("t_stop must be positive")
    if eps * (t_stop / 50.0) == 0.0:
        raise ValueError("the first step, eps * t_stop/50, underflows to 0")
    return _Engine(net).run(t_stop, eps)


def pin_source(net: Netlist, source: str, level: float) -> Netlist:
    elements = []
    for el in net.elements:
        if el.kind is ElementKind.VSOURCE and el.name.lower() == source.lower():
            elements.append(replace(el, waveform=Dc(level)))
        else:
            elements.append(el)
    return replace(net, elements=tuple(elements))


def operating_point(net: Netlist) -> OperatingPoint:
    """DC solution from zero (see :meth:`_Engine.settle`)."""
    eng = _Engine(net)
    x, settled, solves = eng.settle()
    return OperatingPoint(voltages=np.array(x[:eng.n]), nodes=eng.nodes,
                          settled=settled, n_solves=solves, flops=eng.fc)


def dc_sweep(net: Netlist, source: str, start: float, stop: float,
             points: int) -> DcSweep:
    """Swept operating points with secant continuation.

    The first bias is solved like :func:`operating_point`, and its stop
    scale serves every point. The second starts from the first solution, and
    each later bias from the secant prediction through the previous two (a
    deck without nonlinear devices takes one resistive solve per bias); a
    repeated bias repeats the previous point without a solve. One compiled
    circuit serves every point: only the swept source's level changes, and
    every other source holds its t = 0 level. The biases are walked as
    Python floats: numpy scalars would slow every solve. RTD and nanowire
    terminal currents are recorded per point.
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
    volts = np.zeros((points, n))
    settled = np.zeros(points, dtype=bool)
    point_solves = np.zeros(points, dtype=np.int64)
    x = x_prev = None
    levels = biases.tolist()
    for k, bias in enumerate(levels):
        if k and bias == levels[k - 1]:
            # a repeated bias repeats its point
            volts[k], settled[k] = volts[k - 1], settled[k - 1]
            continue
        circuit.set_source(src.name, Dc(bias))
        if x is None:
            x, ok, solves = eng.settle()
        else:
            guess = x
            step = levels[k - 1] - levels[k - 2] if k > 1 else 0.0
            if step != 0.0:
                # secant prediction through the last two points
                f = (bias - levels[k - 1]) / step
                guess = [a + f * (a - b) for a, b in zip(x, x_prev)]
            x_prev = x
            x, ok, solves = eng.settle(guess)
        volts[k], settled[k], point_solves[k] = x[:n], ok, solves

    currents: Dict[str, np.ndarray] = {}
    for kind, br, m, (v, _, _) in zip(eng.kinds, eng.devices, eng.models,
                                      circuit.biases(volts.T)):
        if kind is not _MOSFET:
            currents[br.el.name] = (rtd_current if kind is _RTD else nanowire_current)(m, v)
    return DcSweep(source=src.name, biases=biases, voltages=volts,
                   currents=currents, settled=settled, nodes=eng.nodes,
                   flops=eng.fc, point_solves=point_solves)
