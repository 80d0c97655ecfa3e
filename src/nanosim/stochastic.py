"""Stochastic transient engine: white-noise inputs via Euler-Maruyama.

Noise cards inject white-noise currents into their nodes. With the state
vector x holding the voltages of nodes not pinned by a source, the circuit
obeys the SDE

    C dx = (b(t) - G(t) x) dt + B dW

and the left-endpoint (Ito) discretization advances

    X_j = X_{j-1} + dt * C^-1 (b(t_{j-1}) - G(t_{j-1}) X_{j-1}) + C^-1 B dW_j

with G(t_{j-1}) including the equivalent conductances of any nonlinear
devices evaluated at X_{j-1}. The grid is uniform (no adaptive stepping
here), and with zero noise the recurrence is exactly forward Euler.

Paths are reproducible: path k of a run with seed s draws its increments
from an independent substream keyed by (s, k), so results are bit-identical
across runs.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .devices import G_FLOOR, mos_bias, mos_geq, nanowire_geq, rtd_geq
from .mna import FlopCounter
from .netlist import NONLINEAR_KINDS, Element, ElementKind, Netlist, eval_waveform
from .swec import SimulationError, WaveformSeries

_CHUNK = 256          # paths per vectorized block, fixed for determinism
_MAX_STORE = 2 * 10**8   # refuse ensembles that would not fit in memory


class StochasticError(RuntimeError):
    pass


@dataclass
class WienerPath:
    """Discretized Wiener process: i.i.d. N(0, dt) increments from a seed."""

    dt: float
    increments: np.ndarray
    seed: int

    def values(self) -> np.ndarray:
        """W at the grid points, starting from W(0) = 0."""
        w = np.empty(len(self.increments) + 1)
        w[0] = 0.0
        np.cumsum(self.increments, out=w[1:])
        return w


@dataclass
class EnsembleStats:
    times: np.ndarray
    nodes: List[str]
    mean: np.ndarray                     # times x nodes
    variance: np.ndarray                 # times x nodes (sample variance)
    quantiles: Dict[float, np.ndarray]   # q -> times x nodes
    window: Tuple[float, float]
    peak_mean: np.ndarray                # per node
    peak_quantiles: Dict[float, np.ndarray]
    paths: int
    seed: int


def _rng_for_path(seed: int, path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(path)]))


def wiener_increments(n: int, dt: float, seed: int = 0) -> WienerPath:
    """n i.i.d. Gaussian increments with mean 0 and variance dt.

    Deterministic for a given seed; independent paths should use distinct
    seeds or the per-path substreams the ensemble machinery provides.
    """
    if n < 1:
        raise ValueError("need at least one increment")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rng = _rng_for_path(seed, 0)
    inc = rng.standard_normal(n) * math.sqrt(dt)
    return WienerPath(dt=dt, increments=inc, seed=seed)


def ito_sum(h_samples: Sequence[float], path: WienerPath) -> float:
    """Left-endpoint stochastic sum: sum_j h(t_j) * (W(t_{j+1}) - W(t_j)).

    The integrand is sampled at the left endpoint of each interval, never
    the midpoint; the two rules differ even in the zero-step limit.
    """
    h = np.asarray(h_samples, dtype=float)
    if h.shape != path.increments.shape:
        raise ValueError("integrand samples and increments differ in length")
    return float(np.dot(h, path.increments))


# --- circuit -> state-space assembly -------------------------------------------

@dataclass
class _StateSystem:
    net: Netlist
    state_nodes: List[str]
    pinned: Dict[str, Element]            # node -> source pinning it
    cap: np.ndarray                       # dense C over state nodes
    cap_diag: Optional[np.ndarray]        # fast path when C is diagonal
    cap_inv: Optional[np.ndarray]
    g_static: np.ndarray                  # resistor block over state nodes
    drive_static: List[Tuple[int, Element, float]]   # (state idx, source el, g)
    noise_cols: np.ndarray                # state x noise sources
    nonlinear: List[Element]
    out_nodes: List[str]

    def index(self, node: str) -> int:
        return self.state_nodes.index(node)


def _build_state_system(net: Netlist) -> _StateSystem:
    noise = net.elements_of(ElementKind.NOISE)
    if not noise:
        raise StochasticError("stochastic run requires at least one noise source")
    pinned: Dict[str, Element] = {}
    for el in net.elements_of(ElementKind.VSOURCE):
        a, b = el.nodes
        if b == "0" and a != "0":
            node = a
        elif a == "0" and b != "0":
            raise StochasticError(
                f"source '{el.name}' must have its negative terminal at ground")
        else:
            raise StochasticError(
                f"source '{el.name}' must be grounded for the stochastic engine")
        if node in pinned:
            raise StochasticError(f"node '{node}' pinned by two sources")
        pinned[node] = el

    state_nodes = [nd for nd in net.nodes if nd not in pinned]
    ns = len(state_nodes)
    if ns == 0:
        raise StochasticError("no state nodes: every node is source-pinned")
    sidx = {nd: i for i, nd in enumerate(state_nodes)}

    cap = np.zeros((ns, ns))
    grounded = np.zeros(ns)
    for el in net.elements_of(ElementKind.CAPACITOR):
        a, b = el.nodes
        if (a != "0" and a in pinned) or (b != "0" and b in pinned):
            raise StochasticError(
                f"capacitor '{el.name}' may not couple to a source-pinned node")
        ia = sidx[a] if a != "0" else None
        ib = sidx[b] if b != "0" else None
        if ia is not None:
            cap[ia, ia] += el.value
        if ib is not None:
            cap[ib, ib] += el.value
        if ia is not None and ib is not None:
            cap[ia, ib] -= el.value
            cap[ib, ia] -= el.value
        if ia is not None and ib is None:
            grounded[ia] += el.value
        if ib is not None and ia is None:
            grounded[ib] += el.value

    for i, nd in enumerate(state_nodes):
        if grounded[i] <= 0.0:
            raise StochasticError(
                f"state node '{nd}' has no grounded capacitance; C is singular")

    g_static = np.zeros((ns, ns))
    drive_static: List[Tuple[int, Element, float]] = []
    for el in net.elements_of(ElementKind.RESISTOR):
        a, b = el.nodes
        g = 1.0 / el.value
        for me, other in ((a, b), (b, a)):
            if me == "0" or me in pinned:
                continue
            i = sidx[me]
            g_static[i, i] += g
            if other == "0":
                continue
            if other in pinned:
                drive_static.append((i, pinned[other], g))
            else:
                g_static[i, sidx[other]] -= g

    noise_cols = np.zeros((ns, len(noise)))
    for j, el in enumerate(noise):
        a, b = el.nodes
        for nd in (a, b):
            if nd != "0" and nd in pinned:
                raise StochasticError(
                    f"noise source '{el.name}' drives a source-pinned node")
        if a != "0":
            noise_cols[sidx[a], j] += el.value
        if b != "0":
            noise_cols[sidx[b], j] -= el.value

    off_diag = cap - np.diag(np.diag(cap))
    if not off_diag.any():
        cap_diag = np.diag(cap).copy()
        cap_inv = None
    else:
        cap_diag = None
        cap_inv = np.linalg.inv(cap)

    nonlinear = net.elements_of(*NONLINEAR_KINDS)
    return _StateSystem(net=net, state_nodes=state_nodes, pinned=pinned, cap=cap,
                        cap_diag=cap_diag, cap_inv=cap_inv, g_static=g_static,
                        drive_static=drive_static, noise_cols=noise_cols,
                        nonlinear=nonlinear, out_nodes=list(net.nodes))


def _fastest_time_constant(ss: _StateSystem) -> float:
    tau = math.inf
    for i in range(len(ss.state_nodes)):
        # the diagonal already holds every resistor at the node, including
        # those to a source-pinned node
        g = ss.g_static[i, i]
        c = ss.cap[i, i]
        if g > 0.0:
            tau = min(tau, c / g)
    return tau


@contextlib.contextmanager
def _explicit_drift(ss: _StateSystem, dt: float):
    """Run Euler-Maruyama paths at step ``dt``.

    Warns when dt is not small against the fastest RC time constant, and
    turns a state that overflows (floating-point overflow or invalid
    operation while stepping) into a :class:`SimulationError` naming dt and
    that time constant instead of a numpy warning.
    """
    tau = _fastest_time_constant(ss)
    if math.isfinite(tau):
        limit = f"fastest time constant {tau:g}"
        if dt >= 0.5 * tau:
            warnings.warn(f"dt={dt:g} is not small vs {limit}; "
                          "the explicit drift may be unstable", RuntimeWarning)
    else:
        limit = "no static RC time constant"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError:
        raise SimulationError(f"stochastic state diverged: dt={dt:g} is too large "
                              f"for the explicit drift ({limit})") from None


def _path_voltage(ss: _StateSystem, x: np.ndarray, node: str, t: float):
    """Voltage of ``node`` given state matrix x (paths x ns); ground is 0."""
    if node == "0":
        return 0.0
    if node in ss.pinned:
        return eval_waveform(ss.pinned[node].waveform, t)
    return x[:, ss.index(node)]


def _drift(ss: _StateSystem, x: np.ndarray, t: float,
           fc: Optional[FlopCounter] = None) -> np.ndarray:
    """b(t) - G(t) x for every path row of x, with chord conductances of the
    nonlinear devices evaluated at the path's own state."""
    paths, ns = x.shape
    drift = np.zeros_like(x)
    # linear conductance block; explicit column loop keeps accumulation order
    # independent of path-chunk geometry
    for i in range(ns):
        acc = np.zeros(paths)
        row = ss.g_static[i]
        for j in range(ns):
            gij = row[j]
            if gij != 0.0:
                acc += gij * x[:, j]
        drift[:, i] = -acc
    for i, src, g in ss.drive_static:
        drift[:, i] += g * eval_waveform(src.waveform, t)
    for el in ss.nonlinear:
        m = ss.net.model_of(el)
        a_name, b_name = el.branch
        va = _path_voltage(ss, x, a_name, t)
        vb = _path_voltage(ss, x, b_name, t)
        if el.kind is ElementKind.MOSFET:
            vg = _path_voltage(ss, x, el.nodes[1], t)
            vgs, vds, _ = mos_bias(va, vg, vb)
            geq = mos_geq(m, vgs, vds, fc)
        elif el.kind is ElementKind.RTD:
            geq = rtd_geq(m, va - vb, fc)
        else:
            geq = nanowire_geq(m, va - vb, fc)
        i_dev = np.maximum(geq, G_FLOOR) * (va - vb)
        if a_name != "0" and a_name not in ss.pinned:
            drift[:, ss.index(a_name)] -= i_dev
        if b_name != "0" and b_name not in ss.pinned:
            drift[:, ss.index(b_name)] += i_dev
    return drift


def _apply_cinv(ss: _StateSystem, rhs: np.ndarray) -> np.ndarray:
    if ss.cap_diag is not None:
        return rhs / ss.cap_diag
    return rhs @ ss.cap_inv.T


def _run_paths(ss: _StateSystem, dt: float, steps: int, seed: int,
               path_lo: int, path_hi: int, x0: np.ndarray,
               out: np.ndarray, fc: Optional[FlopCounter] = None) -> None:
    """Integrate paths [path_lo, path_hi) and write voltages into ``out``."""
    npaths = path_hi - path_lo
    ns = len(ss.state_nodes)
    nnoise = ss.noise_cols.shape[1]
    dws = np.empty((npaths, steps, nnoise))
    for p in range(npaths):
        rng = _rng_for_path(seed, path_lo + p)
        dws[p] = rng.standard_normal((steps, nnoise)) * math.sqrt(dt)
    x = np.tile(x0, (npaths, 1))
    if ss.cap_diag is not None:
        cinv_b = (ss.noise_cols / ss.cap_diag[:, None]).T    # nnoise x ns
    else:
        cinv_b = (ss.cap_inv @ ss.noise_cols).T
    col = {nd: i for i, nd in enumerate(ss.out_nodes)}
    _write_out(ss, out, 0, path_lo, x, 0.0, col)
    for j in range(1, steps + 1):
        t_prev = (j - 1) * dt
        drift = _drift(ss, x, t_prev, fc)
        x = x + dt * _apply_cinv(ss, drift) + dws[:, j - 1, :] @ cinv_b
        _write_out(ss, out, j, path_lo, x, j * dt, col)


def _write_out(ss: _StateSystem, out: np.ndarray, j: int, path_lo: int,
               x: np.ndarray, t: float, col: Dict[str, int]) -> None:
    for nd in ss.out_nodes:
        c = col[nd]
        if nd in ss.pinned:
            out[path_lo:path_lo + x.shape[0], j, c] = eval_waveform(
                ss.pinned[nd].waveform, t)
        else:
            out[path_lo:path_lo + x.shape[0], j, c] = x[:, ss.index(nd)]


def em_transient(net: Netlist, dt: float, t_stop: float, seed: int = 0,
                 x0: Optional[np.ndarray] = None) -> WaveformSeries:
    """Single Euler-Maruyama sample path on a fixed grid.

    ``x0`` optionally sets initial state-node voltages (zeros by default).
    Warns when dt is not small against the fastest RC time constant and
    raises :class:`SimulationError` if the state diverges.
    """
    ss = _build_state_system(net)
    steps = _step_count(dt, t_stop)
    x_init = _initial_state(ss, x0)
    out = np.empty((1, steps + 1, len(ss.out_nodes)))
    fc = FlopCounter()
    with _explicit_drift(ss, dt):
        _run_paths(ss, dt, steps, seed, 0, 1, x_init, out, fc)
    times = np.arange(steps + 1) * dt
    return WaveformSeries(times=times, voltages=out[0], nodes=list(ss.out_nodes),
                          steps_taken=steps, n_solves=0, flops=fc)


def _step_count(dt: float, t_stop: float) -> int:
    if dt <= 0.0 or t_stop <= 0.0:
        raise ValueError("dt and t_stop must be positive")
    steps = int(round(t_stop / dt))
    if steps < 1:
        raise ValueError("t_stop shorter than one step")
    return steps


def _initial_state(ss: _StateSystem, x0: Optional[np.ndarray]) -> np.ndarray:
    ns = len(ss.state_nodes)
    if x0 is None:
        return np.zeros(ns)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (ns,):
        raise ValueError(f"x0 must have shape ({ns},) over state nodes "
                         f"{ss.state_nodes}")
    return x0.copy()


def ensemble(net: Netlist, dt: float, t_stop: float, paths: int, seed: int = 0,
             window: Optional[Tuple[float, float]] = None,
             x0: Optional[np.ndarray] = None,
             quantile_levels: Sequence[float] = (0.05, 0.5, 0.95)) -> EnsembleStats:
    """Monte-Carlo ensemble of EM paths with pointwise and window-peak stats.

    Paths run in fixed-size vectorized chunks, one after another; every path
    draws from its own (seed, path-index) substream. The step-size warning
    and the divergence error are those of :func:`em_transient`.
    """
    if paths < 2:
        raise ValueError("ensemble requires at least 2 paths")
    ss = _build_state_system(net)
    steps = _step_count(dt, t_stop)
    if window is None:
        window = (0.0, t_stop)
    t_a, t_b = window
    if not (0.0 <= t_a < t_b <= t_stop * (1 + 1e-12)):
        raise ValueError("window must satisfy 0 <= t_a < t_b <= t_stop")
    n_out = len(ss.out_nodes)
    if paths * (steps + 1) * n_out > _MAX_STORE:
        raise StochasticError("ensemble too large to hold in memory; "
                              "reduce paths or increase dt")
    out = np.empty((paths, steps + 1, n_out))
    x_init = _initial_state(ss, x0)

    with _explicit_drift(ss, dt):
        for lo in range(0, paths, _CHUNK):
            _run_paths(ss, dt, steps, seed, lo, min(lo + _CHUNK, paths), x_init, out)

    times = np.arange(steps + 1) * dt
    mean = out.mean(axis=0)
    variance = out.var(axis=0, ddof=1)
    quantiles = {q: np.quantile(out, q, axis=0) for q in quantile_levels}
    in_win = (times >= t_a) & (times <= t_b)
    peaks = out[:, in_win, :].max(axis=1)        # paths x nodes
    peak_mean = peaks.mean(axis=0)
    peak_quantiles = {q: np.quantile(peaks, q, axis=0) for q in quantile_levels}
    return EnsembleStats(times=times, nodes=list(ss.out_nodes), mean=mean,
                         variance=variance, quantiles=quantiles, window=window,
                         peak_mean=peak_mean, peak_quantiles=peak_quantiles,
                         paths=paths, seed=seed)
