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

The state space comes from the compiled :class:`~nanosim.mna.Circuit`
the other analyses use. G and C over the state nodes are the non-pinned
rows and columns of the circuit's static G (resistors) and of its node
capacitance matrix ``C``; b(t) is the pinned-node columns of G times the
source levels at t, one term per source; B has one column per noise
source, stamped from its terminals. Sources must be grounded at their
negative terminal and may pin a node only once, C over the state nodes
must be positive definite, and no capacitor or noise source may touch a
pinned node. All paths advance in lockstep, a block of steps at a time,
through one buffer of node voltages (the state and the source levels):
each step's drift reads the device terminals from the previous row, and
a block is reduced or copied out before the next one overwrites it.

Paths are reproducible: path k of a run with seed s draws its increments
from an independent substream keyed by (s, k), so results are bit-identical
across runs and block sizes.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .devices import G_FLOOR, mos_bias, mos_geq, nanowire_geq, rtd_geq
from .mna import Branch, Circuit, FlopCounter
from .netlist import ElementKind, ModelCard, Netlist
from .swec import SimulationError, WaveformSeries

# doubles of state rows and noise increments per block of lockstep steps;
# sets the block length, never a result
_BLOCK_DOUBLES = 2**20
# levels of the pointwise and window-peak quantiles an ensemble reports
_QUANTILES = (0.05, 0.5, 0.95)


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
    circuit: Circuit
    state: np.ndarray                     # node column of each state row
    pinned: np.ndarray                    # node column of each source, in source order
    cap: np.ndarray                       # dense C over state nodes
    cap_diag: Optional[np.ndarray]        # fast path when C is diagonal
    cap_inv: Optional[np.ndarray]
    g_static: np.ndarray                  # static G over state nodes
    g_drive: np.ndarray                   # -G from state rows to pinned columns
    noise_cols: np.ndarray                # state x noise sources
    # nonlinear branch, its model, the state rows of its a and b terminals
    # (-1 for ground or a pinned node); only devices with a state row
    devices: List[Tuple[Branch, ModelCard, int, int]]


def _build_state_system(net: Netlist) -> _StateSystem:
    circuit = Circuit(net)
    noise = [br for br in circuit.branches if br.el.kind is ElementKind.NOISE]
    if not noise:
        raise StochasticError("stochastic run requires at least one noise source")
    pinned: List[int] = []
    for br in circuit.sources:
        if br.a < 0 <= br.b:
            raise StochasticError(
                f"source '{br.el.name}' must have its negative terminal at ground")
        if not br.b < 0 <= br.a:
            raise StochasticError(
                f"source '{br.el.name}' must be grounded for the stochastic engine")
        if br.a in pinned:
            raise StochasticError(f"node '{circuit.nodes[br.a]}' pinned by two sources")
        pinned.append(br.a)

    state = [i for i in range(circuit.n) if i not in pinned]
    if not state:
        raise StochasticError("no state nodes: every node is source-pinned")
    row = {i: r for r, i in enumerate(state)}     # node column -> state row

    for br in circuit.capacitors:
        if br.a in pinned or br.b in pinned:
            raise StochasticError(
                f"capacitor '{br.el.name}' may not couple to a source-pinned node")

    noise_cols = np.zeros((len(state), len(noise)))
    for j, br in enumerate(noise):
        if br.a in pinned or br.b in pinned:
            raise StochasticError(
                f"noise source '{br.el.name}' drives a source-pinned node")
        if br.a >= 0:
            noise_cols[row[br.a], j] += br.el.value
        if br.b >= 0:
            noise_cols[row[br.b], j] -= br.el.value

    cap = circuit.C[np.ix_(state, state)]
    try:
        np.linalg.cholesky(cap)
    except np.linalg.LinAlgError:
        raise StochasticError("state capacitance matrix is not positive definite: "
                              "every state node needs a capacitive path to ground") from None
    diagonal = not (cap - np.diag(np.diag(cap))).any()

    # a device whose current reaches no state row (both branch terminals
    # pinned or ground) changes no drift, so it is not evaluated at all
    devices = [(br, m, row.get(br.a, -1), row.get(br.b, -1))
               for br, m in zip(circuit.devices, circuit.models)
               if br.a in row or br.b in row]
    return _StateSystem(circuit=circuit, state=np.array(state),
                        pinned=np.array(pinned, dtype=int), cap=cap,
                        cap_diag=np.diag(cap).copy() if diagonal else None,
                        cap_inv=None if diagonal else np.linalg.inv(cap),
                        g_static=circuit.G[np.ix_(state, state)],
                        g_drive=-circuit.G[np.ix_(state, pinned)],
                        noise_cols=noise_cols, devices=devices)


@contextlib.contextmanager
def _explicit_drift(ss: _StateSystem, dt: float):
    """Run Euler-Maruyama paths at step ``dt``.

    Warns when dt is not small against the fastest RC time constant, and
    turns a state that overflows (floating-point overflow or invalid
    operation while stepping) into a :class:`SimulationError` naming dt and
    that time constant instead of a numpy warning.

    The fastest time constant is 1 / max eig(C^-1 G) over the state nodes,
    G being the static (resistor) block, which holds the resistors to
    source-pinned nodes on its diagonal. Forward Euler on the linear part is
    stable only for dt < 2 / max eig. With C = L L^T (C is positive
    definite, G symmetric), C^-1 G has the eigenvalues of the symmetric
    L^-1 G L^-T, which are real.
    """
    low = np.linalg.cholesky(ss.cap)
    half = np.linalg.solve(low, ss.g_static)
    rates = np.linalg.eigvalsh(np.linalg.solve(low, half.T))
    fastest = float(np.max(rates, initial=0.0))
    tau = 1.0 / fastest if fastest > 0.0 else math.inf
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


def _drift(ss: _StateSystem, v: np.ndarray,
           fc: Optional[FlopCounter] = None) -> np.ndarray:
    """b(t) - G(t) x for every path row of ``v``, the node voltages of one
    output row (paths x nodes, pinned columns holding the source levels),
    with chord conductances of the nonlinear devices evaluated at the path's
    own voltages."""
    paths = v.shape[0]
    drift = np.empty((paths, len(ss.state)))
    # linear conductance block; explicit column loop keeps accumulation order
    # independent of the number of paths
    for i in range(len(ss.state)):
        acc = np.zeros(paths)
        for gij, col in zip(ss.g_static[i], ss.state):
            if gij != 0.0:
                acc += gij * v[:, col]
        drift[:, i] = -acc
        for g, col in zip(ss.g_drive[i], ss.pinned):
            if g != 0.0:
                drift[:, i] += g * v[:, col]
    for br, m, row_a, row_b in ss.devices:
        va = v[:, br.a] if br.a >= 0 else 0.0
        vb = v[:, br.b] if br.b >= 0 else 0.0
        if br.el.kind is ElementKind.MOSFET:
            vg = v[:, br.gate] if br.gate >= 0 else 0.0
            vgs, vds, _ = mos_bias(va, vg, vb)
            geq = mos_geq(m, vgs, vds, fc)
        elif br.el.kind is ElementKind.RTD:
            geq = rtd_geq(m, va - vb, fc)
        else:
            geq = nanowire_geq(m, va - vb, fc)
        i_dev = np.maximum(geq, G_FLOOR) * (va - vb)
        if row_a >= 0:
            drift[:, row_a] -= i_dev
        if row_b >= 0:
            drift[:, row_b] += i_dev
    return drift


def _apply_cinv(ss: _StateSystem, rhs: np.ndarray) -> np.ndarray:
    if ss.cap_diag is not None:
        return rhs / ss.cap_diag
    return rhs @ ss.cap_inv.T


def _lockstep(ss: _StateSystem, dt: float, steps: int, seed: int, paths: int,
              x0: np.ndarray, fc: Optional[FlopCounter] = None):
    """Advance ``paths`` paths together, a block of steps at a time, and
    yield ``(j0, rows)``, the node voltages (paths x rows x nodes) of grid
    points j0, j0 + 1, ...: at least two rows, the first being the last row
    of the block before. Reduce or copy ``rows`` before the next block."""
    n, nnoise = ss.circuit.n, ss.noise_cols.shape[1]
    block = max(1, min(steps, _BLOCK_DOUBLES // (paths * (n + nnoise))))
    buf = np.empty((paths, block + 1, n))
    rngs = [_rng_for_path(seed, p) for p in range(paths)]
    cinv_b = _apply_cinv(ss, ss.noise_cols.T)                 # nnoise x ns
    x = np.tile(x0, (paths, 1))
    buf[:, 0, ss.state] = x
    buf[:, 0, ss.pinned] = ss.circuit.source_levels(0.0)
    for j0 in range(0, steps, block):
        b = min(block, steps - j0)
        dws = np.empty((paths, b, nnoise))
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=dws[p])
        dws *= math.sqrt(dt)
        for k in range(1, b + 1):
            drift = _drift(ss, buf[:, k - 1], fc)
            x = x + dt * _apply_cinv(ss, drift) + dws[:, k - 1, :] @ cinv_b
            buf[:, k, ss.state] = x
            buf[:, k, ss.pinned] = ss.circuit.source_levels((j0 + k) * dt)
        yield j0, buf[:, :b + 1]
        buf[:, 0] = buf[:, b]


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
    voltages = np.empty((steps + 1, ss.circuit.n))
    fc = FlopCounter()
    with _explicit_drift(ss, dt):
        for j0, rows in _lockstep(ss, dt, steps, seed, 1, x_init, fc):
            voltages[j0:j0 + rows.shape[1]] = rows[0]
    times = np.arange(steps + 1) * dt
    return WaveformSeries(times=times, voltages=voltages, nodes=list(ss.circuit.nodes),
                          steps_taken=steps, n_solves=0, flops=fc)


def _step_count(dt: float, t_stop: float) -> int:
    if dt <= 0.0 or t_stop <= 0.0:
        raise ValueError("dt and t_stop must be positive")
    steps = int(round(t_stop / dt))
    if steps < 1:
        raise ValueError("t_stop shorter than one step")
    return steps


def _initial_state(ss: _StateSystem, x0: Optional[np.ndarray]) -> np.ndarray:
    ns = len(ss.state)
    if x0 is None:
        return np.zeros(ns)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (ns,):
        raise ValueError(f"x0 must have shape ({ns},) over state nodes "
                         f"{[ss.circuit.nodes[i] for i in ss.state]}")
    return x0.copy()


def ensemble(net: Netlist, dt: float, t_stop: float, paths: int, seed: int = 0,
             window: Optional[Tuple[float, float]] = None,
             x0: Optional[np.ndarray] = None) -> EnsembleStats:
    """Monte-Carlo ensemble of EM paths with pointwise and window-peak stats.

    All paths advance together, a block of steps at a time; every path
    draws from its own (seed, path-index) substream. Each block is reduced
    over the path axis before the next one overwrites it, so memory does
    not grow with the step count. The step-size warning and the divergence
    error are those of :func:`em_transient`.
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
    times = np.arange(steps + 1) * dt
    in_win = (times >= t_a) & (times <= t_b)
    if not in_win.any():
        raise ValueError("window holds no time step")
    x_init = _initial_state(ss, x0)

    n_out = ss.circuit.n
    mean, variance = np.empty((2, steps + 1, n_out))
    quantiles = np.empty((len(_QUANTILES), steps + 1, n_out))
    peaks = np.full((paths, n_out), -np.inf)
    with _explicit_drift(ss, dt):
        for j0, rows in _lockstep(ss, dt, steps, seed, paths, x_init):
            # each statistic reduces the path axis alone, over two or more rows
            # (numpy sums a lone row pairwise), so no row depends on its block
            at = slice(j0, j0 + rows.shape[1])
            mean[at] = rows.mean(axis=0)
            variance[at] = rows.var(axis=0, ddof=1)
            quantiles[:, at] = np.quantile(rows, _QUANTILES, axis=0)
            if in_win[at].any():
                np.maximum(peaks, rows[:, in_win[at]].max(axis=1), out=peaks)
    peak_mean = peaks.mean(axis=0)
    peak_quantiles = np.quantile(peaks, _QUANTILES, axis=0)
    return EnsembleStats(times=times, nodes=list(ss.circuit.nodes), mean=mean,
                         variance=variance, quantiles=dict(zip(_QUANTILES, quantiles)),
                         window=window, peak_mean=peak_mean,
                         peak_quantiles=dict(zip(_QUANTILES, peak_quantiles)),
                         paths=paths, seed=seed)
