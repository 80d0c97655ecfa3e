"""Transient, operating-point and DC-sweep analyses without Newton iterations.

Every nonlinear device is replaced, one step at a time, by a constant
equivalent conductance (predicted by a half-step Taylor extrapolation of the
chord conductance), so each step costs exactly one linear solve. The step
size follows the adaptive rule

    h = eps * min( C_j / sum_k G_jk  over capacitive nodes j,
                   2|Vgs - Vth| / |dVgs/dt|  over conducting MOSFETs,
                   2|v| / |dv/dt|  over RTD / nanowire branches )

clamped to [h_min, h_max], and a relative local-error estimate compares the
step the predicted conductance produced against the step the re-evaluated
conductance would have produced; offending steps are rejected and halved.

Operating points are found pseudo-transiently: sources ramp linearly from
zero and the integration runs until the node voltages stop moving. DC sweeps
chain operating points with previous-point continuation, so sweep direction
matters for multistable circuits (hysteresis is expected, not hidden).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .devices import (DeviceState, G_FLOOR, V_EPS, device_step_bound, geq_predict,
                      mos_bias, mos_geq, nanowire_current, nanowire_dgeq_dv,
                      nanowire_geq, rtd_current, rtd_dgeq_dv, rtd_geq)
from .mna import Branch, Circuit, FlopCounter, assemble, solve, vnode
from .netlist import (NONLINEAR_KINDS, Dc, ElementKind, Netlist, Pwl, TranAnalysis,
                      waveform_breakpoints)

# Nodes whose computed voltage change is below this are skipped by the local
# error test (the relative measure is meaningless at quiescent nodes).
_DV_FLOOR = 1e-9


class SimulationError(RuntimeError):
    pass


@dataclass
class SimConfig:
    """Engine knobs. ``h_max`` defaults to t_stop/50 when left unset."""

    eps: float = 0.01
    h_min: float = 1e-15
    h_max: Optional[float] = None
    t_stop: Optional[float] = None
    op_ramp: float = 1e-9
    max_steps: int = 200_000
    start_from_op: bool = False

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.h_min <= 0.0:
            raise ValueError("h_min must be positive")
        if self.h_max is not None and self.h_max <= self.h_min:
            raise ValueError("h_max must exceed h_min")


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

    def v(self, node: str) -> np.ndarray:
        return self.voltages[:, self.nodes.index(node)]


@dataclass
class OperatingPoint:
    voltages: np.ndarray
    nodes: List[str]
    settled: bool
    series: WaveformSeries

    def v(self, node: str) -> float:
        return float(self.voltages[self.nodes.index(node)])


@dataclass
class DcSweep:
    biases: np.ndarray
    voltages: np.ndarray           # points x n_nodes
    currents: Dict[str, np.ndarray]
    settled: np.ndarray
    nodes: List[str]
    flops: FlopCounter
    n_solves: int = 0


def next_step_size(node_caps: Sequence[float], node_gsums: Sequence[float],
                   device_bounds: Sequence[float], eps: float,
                   h_min: float, h_max: float) -> float:
    """Adaptive step: eps times the minimum of the node RC terms and the
    device slew terms, clamped to [h_min, h_max]. Nodes without grounded
    capacitance contribute no term."""
    best = math.inf
    for c, g in zip(node_caps, node_gsums):
        if c > 0.0 and g > 0.0:
            best = min(best, c / g)
    for b in device_bounds:
        best = min(best, b)
    if not math.isfinite(best):
        return h_max
    return min(max(eps * best, h_min), h_max)


# --- engine internals ---------------------------------------------------------

class _Engine:
    def __init__(self, net: Netlist, cfg: SimConfig, fc: Optional[FlopCounter] = None):
        if net.elements_of(ElementKind.NOISE):
            raise SimulationError("deck contains noise sources; use the stochastic engine")
        self.circuit = Circuit(net)
        self.cfg = cfg
        self.fc = fc if fc is not None else FlopCounter()
        self.n = self.circuit.n
        self.nodes = self.circuit.nodes
        self.devices = self.circuit.devices
        self.models = {br.el.name: net.model_of(br.el) for br in self.devices}
        self.states: Dict[str, DeviceState] = {br.el.name: DeviceState()
                                               for br in self.devices}
        # nodes held by a source cannot respond to a conductance change, so
        # the local error test is meaningless there
        self.source_nodes = {i for br in self.circuit.sources
                             for i in (br.a, br.b) if i >= 0}

    def bias(self, br: Branch, x: np.ndarray) -> Tuple[float, float]:
        """(branch voltage, controlling voltage) of a device at solution x:
        (vds, vgs) for a MOSFET, the terminal voltage twice otherwise."""
        va, vb = vnode(x, br.a), vnode(x, br.b)
        if br.el.kind is ElementKind.MOSFET:
            vgs, vds, _ = mos_bias(va, vnode(x, br.gate), vb)
            return float(vds), float(vgs)
        return va - vb, va - vb

    def direct_geq(self, br: Branch, x: np.ndarray) -> float:
        m = self.models[br.el.name]
        v, ctrl = self.bias(br, x)
        if br.el.kind is ElementKind.RTD:
            return float(rtd_geq(m, v, self.fc))
        if br.el.kind is ElementKind.NANOWIRE:
            return float(nanowire_geq(m, v, self.fc))
        return float(mos_geq(m, ctrl, v, self.fc))

    def predicted_geq(self, br: Branch, x: np.ndarray, h: float) -> float:
        st = self.states[br.el.name]
        m = self.models[br.el.name]
        if st.h_prev <= 0.0:
            return self.direct_geq(br, x)
        if br.el.kind is ElementKind.MOSFET:
            # stepwise-constant prediction at half-step extrapolated bias
            vgs = st.ctrl_now + 0.5 * h * st.ctrl_slew()
            vds = max(st.v_now + 0.5 * h * st.slew(), 0.0)
            return float(mos_geq(m, vgs, vds, self.fc))
        if abs(st.v_now) < V_EPS:
            return self.direct_geq(br, x)
        if br.el.kind is ElementKind.RTD:
            dg = float(rtd_dgeq_dv(m, st.v_now, self.fc))
        else:
            dg = float(nanowire_dgeq_dv(m, st.v_now, self.fc))
        return geq_predict(st, dg, h, self.fc)

    def gsum_now(self) -> np.ndarray:
        g = self.circuit.gsum_static.copy()
        for br in self.devices:
            geq = self.states[br.el.name].geq_now
            for i in (br.a, br.b):
                if i >= 0:
                    g[i] += geq
        return g

    def step_size(self, h_max: float, with_device_bounds: bool = True) -> float:
        bounds = [device_step_bound(self.states[br.el.name],
                                    br.el.kind is ElementKind.MOSFET)
                  for br in self.devices] if with_device_bounds else []
        return next_step_size(self.circuit.grounded_cap, self.gsum_now(), bounds,
                              self.cfg.eps, self.cfg.h_min, h_max)

    def local_error(self, br: Branch, g_pred: float, g_act: float,
                    x_old: np.ndarray, x_new: np.ndarray, h: float) -> float:
        """Worst relative mismatch, over the device's terminals, between the
        solved voltage change and the change the re-evaluated conductance
        implies with the rest of the circuit frozen."""
        err = 0.0
        for j, other in ((br.a, br.b), (br.b, br.a)):
            if j < 0 or j in self.source_nodes:
                continue
            vj_old, vj_new = float(x_old[j]), float(x_new[j])
            vo_new = vnode(x_new, other)
            cjh = self.circuit.grounded_cap[j] / h
            i_other = cjh * (vj_new - vj_old) + g_pred * (vj_new - vo_new)
            v_act = (i_other + cjh * vj_old + g_act * vo_new) / (cjh + g_act)
            dv_act = v_act - vj_old
            if abs(dv_act) < _DV_FLOOR:
                continue
            err = max(err, abs(dv_act - (vj_new - vj_old)) / abs(dv_act))
        return err

    def commit_states(self, x_new: np.ndarray, g_act: Dict[str, float], h: float):
        """Record the accepted solution, its conductances and the step ``h``
        in every device history; ``h = 0`` starts a history with no slew."""
        for br in self.devices:
            st = self.states[br.el.name]
            v, ctrl = self.bias(br, x_new)
            st.v_prev, st.v_now = (st.v_now if h > 0.0 else v), v
            st.ctrl_prev, st.ctrl_now = (st.ctrl_now if h > 0.0 else ctrl), ctrl
            if br.el.kind is ElementKind.MOSFET:
                st.overdrive = ctrl - self.models[br.el.name].vth
            st.h_prev = h
            st.geq_now = max(g_act[br.el.name], G_FLOOR)

    def seed_states(self, x: np.ndarray):
        """Initialize device histories at the starting solution (no slew)."""
        self.commit_states(x, {br.el.name: self.direct_geq(br, x)
                               for br in self.devices}, 0.0)

    def run(self, t_stop: float, h_max: float, x0: Optional[np.ndarray] = None,
            settle_after: Optional[float] = None, settle_tol: float = 0.0,
            error_control: bool = True) -> Tuple[WaveformSeries, np.ndarray, bool]:
        # Settle-mode runs (error_control=False) look for a stationary point:
        # the artificial time axis carries no accuracy meaning there, so the
        # conductance is evaluated directly each step and the slew-based
        # device bounds (which would choke on a bouncing iterate) are skipped.
        predictive = error_control
        x = np.zeros(self.circuit.size) if x0 is None else x0.copy()
        breakpoints = sorted({bp for w in self.circuit.waveforms
                              for bp in waveform_breakpoints(w, t_stop)})
        times = [0.0]
        trace = [x[:self.n].copy()]
        steps = rejected = warnings = solves = 0
        settled = False
        t = 0.0
        h_last = math.inf
        while t < t_stop * (1.0 - 1e-12):
            if steps + rejected >= self.cfg.max_steps:
                raise SimulationError(f"step budget exceeded ({self.cfg.max_steps})")
            # growth limiter: after an error-forced reduction, recover
            # geometrically instead of re-probing the full step every step
            h = min(self.step_size(h_max, with_device_bounds=predictive),
                    2.0 * h_last)
            h = min(h, t_stop - t)
            for bp in breakpoints:
                if t < bp * (1.0 - 1e-12) and t + h > bp:
                    h = bp - t
                    break
            while True:
                if predictive:
                    g_pred = {br.el.name: max(self.predicted_geq(br, x, h), G_FLOOR)
                              for br in self.devices}
                else:
                    # committed geq_now is the direct evaluation at the
                    # current state, so no fresh device call is needed
                    g_pred = {br.el.name: (self.states[br.el.name].geq_now
                                           if self.states[br.el.name].h_prev > 0.0
                                           else max(self.direct_geq(br, x), G_FLOOR))
                              for br in self.devices}
                sys = assemble(self.circuit, g_pred, vstate=x[:self.n], h=h, t=t + h)
                x_new = solve(sys, self.fc)
                solves += 1
                g_act = {br.el.name: max(self.direct_geq(br, x_new), G_FLOOR)
                         for br in self.devices}
                if not error_control:
                    break
                err = 0.0
                for br in self.devices:
                    err = max(err, self.local_error(br, g_pred[br.el.name],
                                                    g_act[br.el.name], x, x_new, h))
                if err <= self.cfg.eps:
                    break
                if h <= self.cfg.h_min * (1.0 + 1e-12):
                    warnings += 1
                    break
                rejected += 1
                h = max(0.5 * h, self.cfg.h_min)
            self.commit_states(x_new, g_act, h)
            dx = np.max(np.abs(x_new[:self.n] - x[:self.n])) if self.n else 0.0
            x = x_new
            t += h
            h_last = h
            steps += 1
            times.append(t)
            trace.append(x[:self.n].copy())
            if settle_after is not None and t >= settle_after and dx / h < settle_tol:
                settled = True
                break
        series = WaveformSeries(times=np.array(times), voltages=np.array(trace),
                                nodes=self.nodes, steps_taken=steps,
                                steps_rejected=rejected, n_solves=solves,
                                hmin_warnings=warnings, flops=self.fc)
        return series, x, settled


def _resolved_h_max(cfg: SimConfig, t_stop: float) -> float:
    return cfg.h_max if cfg.h_max is not None else t_stop / 50.0


def transient(net: Netlist, cfg: SimConfig,
              fc: Optional[FlopCounter] = None) -> WaveformSeries:
    """Adaptive conductance-stepping transient from t = 0 to cfg.t_stop.

    Initial node voltages are zero unless ``cfg.start_from_op`` asks for the
    operating point as the starting state.
    """
    t_stop = cfg.t_stop
    if t_stop is None:
        tran = [a for a in net.analyses if isinstance(a, TranAnalysis)]
        if not tran:
            raise SimulationError("no t_stop configured and no .tran card in deck")
        t_stop = tran[0].t_stop
        if tran[0].eps is not None:
            cfg = replace(cfg, eps=tran[0].eps)
    x0 = None
    eng = _Engine(net, cfg, fc)
    if cfg.start_from_op:
        x0 = np.zeros(eng.circuit.size)
        x0[:eng.n] = _settle(eng).voltages
        eng.seed_states(x0)
    series, _, _ = eng.run(t_stop, _resolved_h_max(cfg, t_stop), x0=x0)
    return series


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


def _linear_op(circuit: Circuit, fc: FlopCounter) -> OperatingPoint:
    """A circuit without nonlinear devices needs exactly one DC solve."""
    x = solve(assemble(circuit, {}, h=math.inf, t=0.0), fc)
    n = circuit.n
    series = WaveformSeries(times=np.array([0.0]), voltages=x[:n].reshape(1, -1),
                            nodes=circuit.nodes, steps_taken=1, n_solves=1,
                            flops=fc)
    return OperatingPoint(voltages=x[:n].copy(), nodes=circuit.nodes,
                          settled=True, series=series)


def _settle(eng: _Engine) -> OperatingPoint:
    """Pseudo-transient DC solution on the engine's circuit: ramp every
    source from 0 to its t = 0 level over ``op_ramp``, then integrate until
    node voltages stop moving (or 100 ramps elapse). A circuit without
    nonlinear devices takes a single resistive solve."""
    circuit, ramp = eng.circuit, eng.cfg.op_ramp
    if not circuit.devices:
        return _linear_op(circuit, eng.fc)
    levels = circuit.source_levels(0.0)
    held = circuit.waveforms
    circuit.waveforms = [Pwl(((0.0, 0.0), (ramp, v))) for v in levels]
    try:
        series, x, settled = eng.run(
            t_stop=100.0 * ramp, h_max=ramp / 10.0, settle_after=ramp,
            settle_tol=_settle_tol(levels), error_control=False)
    finally:
        circuit.waveforms = held
    return OperatingPoint(voltages=x[:eng.n].copy(), nodes=eng.nodes,
                          settled=settled, series=series)


def operating_point(net: Netlist, cfg: SimConfig,
                    fc: Optional[FlopCounter] = None) -> OperatingPoint:
    """Pseudo-transient DC solution (see :func:`_settle`)."""
    return _settle(_Engine(net, cfg, fc))


def dc_sweep(net: Netlist, source: str, start: float, stop: float, points: int,
             cfg: SimConfig, fc: Optional[FlopCounter] = None) -> DcSweep:
    """Swept operating points with previous-point continuation.

    The first bias is solved by a full source ramp; each later bias starts
    from the previous solution and settles in place. One compiled circuit
    serves every point: only the swept source's level changes. RTD and
    nanowire terminal currents are recorded per point.
    """
    if points < 2:
        raise ValueError("dc_sweep requires at least 2 points")
    try:
        src = net.element(source)
    except KeyError:
        raise ValueError(f"no element named '{source}' in the deck")
    if src.kind is not ElementKind.VSOURCE:
        raise ValueError(f"'{source}' is not a voltage source")
    fc = fc if fc is not None else FlopCounter()
    biases = np.linspace(start, stop, points)
    if not net.elements_of(*NONLINEAR_KINDS):
        circuit = Circuit(net)
        volts = np.zeros((points, circuit.n))
        for k, b in enumerate(biases):
            circuit.set_source(src.name, Dc(b))
            volts[k] = _linear_op(circuit, fc).voltages
        return DcSweep(biases=biases, voltages=volts, currents={},
                       settled=np.ones(points, dtype=bool),
                       nodes=circuit.nodes, flops=fc, n_solves=points)
    eng = _Engine(net, cfg, fc)
    circuit, n = eng.circuit, eng.n
    # points after the first settle against the deck's own source levels
    tol = _settle_tol(circuit.source_levels(0.0))
    volts = np.zeros((points, n))
    settled = np.zeros(points, dtype=bool)
    n_solves = 0
    # the unknown vector and device states carry over from point to point
    x = np.zeros(circuit.size)
    for k, bias in enumerate(biases):
        circuit.set_source(src.name, Dc(bias))
        if k == 0:
            op = _settle(eng)
            series, x[:n], ok = op.series, op.voltages, op.settled
            eng.seed_states(x)
        else:
            series, x, ok = eng.run(t_stop=100.0 * cfg.op_ramp,
                                    h_max=cfg.op_ramp / 10.0, x0=x,
                                    settle_after=0.0, settle_tol=tol,
                                    error_control=False)
        volts[k], settled[k] = x[:n], ok
        n_solves += series.n_solves

    currents: Dict[str, np.ndarray] = {}
    for br in eng.devices:
        if br.el.kind is ElementKind.MOSFET:
            continue
        m = eng.models[br.el.name]
        va, vb = (volts[:, i] if i >= 0 else np.zeros(points) for i in (br.a, br.b))
        vbr = va - vb
        if br.el.kind is ElementKind.RTD:
            currents[br.el.name] = np.asarray(rtd_current(m, vbr))
        else:
            currents[br.el.name] = np.asarray(nanowire_current(m, vbr))
    return DcSweep(biases=biases, voltages=volts, currents=currents,
                   settled=settled, nodes=eng.nodes, flops=fc, n_solves=n_solves)
