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
pinned node. All paths advance in lockstep, a block of steps at a time:
one work array holds every path's state and is advanced in place, each
step's state is copied into a buffer of state rows, and the source
levels, the same on every path, go into a row array of their own. The
devices of one kind and model are evaluated in one kernel call per step
(terminals on a pinned node read its level), and their currents summed
into the drift in circuit order. A block is reduced (its quantiles read
from one sorted copy) or copied out before the next one overwrites it.

A run with seed s draws its increments from one stream, keyed (s, 0), step
by step, each step's paths in order and each path's noise sources in card
order. Results are bit-identical across runs and block sizes; a path's
increments depend on the path count.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .devices import G_FLOOR, DeviceModel, mos_bias, mos_geq, nanowire_geq, rtd_geq
from .mna import Circuit, FlopCounter
from .netlist import ElementKind, Netlist
from .swec import SimulationError, WaveformSeries

# doubles per block of lockstep steps, counting every per-block array: the
# state rows, their paths-last copy for the quantiles, the noise increments
# and their step-major image C^-1 B dW; sets the block length, never a result
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

    Deterministic for a given seed; a one-path run with one noise source
    draws the same stream.
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
    # per state row, the nonzero (conductance, state column) terms of
    # g_static and the nonzero (conductance, source index) terms of g_drive
    static_terms: List[List[Tuple[float, int]]]
    drive_terms: List[List[Tuple[float, int]]]
    # devices with a state row by kind and model: members' a, b, gate terminals
    groups: List[Tuple[ElementKind, DeviceModel, List[int], List[int], List[int]]]
    # per such device in circuit order: group, member row, a and b terminals
    scatter: List[Tuple[int, int, int, int]]


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

    def terminal(i: int) -> int:
        # the state row, -2 - source index for a pinned node, -1 for ground
        if i in row:
            return row[i]
        return -2 - pinned.index(i) if i >= 0 else -1

    # a device whose current reaches no state row (both branch terminals
    # pinned or ground) changes no drift, so it is not evaluated at all
    groups, scatter, index = [], [], {}    # index: (kind, id(model)) -> group
    for br, m in zip(circuit.devices, circuit.models):
        if br.a in row or br.b in row:
            g = index.setdefault((br.el.kind, id(m)), len(groups))
            if g == len(groups):
                groups.append((br.el.kind, m, [], [], []))
            terms = terminal(br.a), terminal(br.b), terminal(br.gate)
            for member, t in zip(groups[g][2:], terms):
                member.append(t)
            scatter.append((g, len(groups[g][2]) - 1) + terms[:2])
    g_static = circuit.G[np.ix_(state, state)]
    g_drive = -circuit.G[np.ix_(state, pinned)]
    return _StateSystem(circuit=circuit, state=np.array(state),
                        pinned=np.array(pinned, dtype=int), cap=cap,
                        cap_diag=np.diag(cap).copy() if diagonal else None,
                        cap_inv=None if diagonal else np.linalg.inv(cap),
                        g_static=g_static, g_drive=g_drive, noise_cols=noise_cols,
                        static_terms=_nonzero_terms(g_static),
                        drive_terms=_nonzero_terms(g_drive), groups=groups,
                        scatter=scatter)


def _nonzero_terms(g: np.ndarray) -> List[List[Tuple[float, int]]]:
    return [[(float(gij), j) for j, gij in enumerate(g_row) if gij != 0.0] for g_row in g]


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


def _terminals(x: np.ndarray, levels: Sequence[float], ts: Sequence[int]):
    """Voltages of drift terminals ``ts`` (members x paths): a state column
    of ``x``, a source level or ground; a lone level stays a float."""
    if len(ts) == 1:
        t = ts[0]
        return x[None, :, t] if t >= 0 else levels[-2 - t] if t < -1 else 0.0
    v = np.empty((len(ts), x.shape[0]))
    for r, t in enumerate(ts):
        v[r] = x[:, t] if t >= 0 else levels[-2 - t] if t < -1 else 0.0
    return v


def _drift(ss: _StateSystem, x: np.ndarray, levels: Sequence[float],
           fc: Optional[FlopCounter] = None,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """b(t) - G(t) x for every path row of the state ``x`` (paths x state
    rows), ``levels`` being the source levels at t, with chord conductances
    of the nonlinear devices evaluated at the path's own voltages. Written
    into ``out`` when given."""
    paths = x.shape[0]
    drift = np.empty((paths, len(ss.state))) if out is None else out
    term = np.empty(paths)
    # linear conductance block; explicit column loop keeps accumulation order
    # independent of the number of paths
    for i, (static, drive) in enumerate(zip(ss.static_terms, ss.drive_terms)):
        acc = drift[:, i]
        acc.fill(0.0)
        for gij, col in static:
            acc += np.multiply(x[:, col], gij, out=term)
        np.negative(acc, out=acc)
        for g, k in drive:
            acc += g * levels[k]
    currents = []
    for kind, m, ta, tb, tg in ss.groups:
        va = _terminals(x, levels, ta)
        vb = _terminals(x, levels, tb)
        v = va - vb
        if kind is ElementKind.MOSFET:
            vgs, vds, _ = mos_bias(va, _terminals(x, levels, tg), vb)
            geq = mos_geq(m, vgs, vds, fc)
        elif kind is ElementKind.RTD:
            geq = rtd_geq(m, v, fc)
        else:
            geq = nanowire_geq(m, v, fc)
        currents.append(np.maximum(geq, G_FLOOR) * v)
    # each column sums its device currents in circuit order
    for g, r, ta, tb in ss.scatter:
        if ta >= 0:
            drift[:, ta] -= currents[g][r]
        if tb >= 0:
            drift[:, tb] += currents[g][r]
    return drift


def _apply_cinv(ss: _StateSystem, rhs: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    if ss.cap_diag is not None:
        return np.divide(rhs, ss.cap_diag, out=out)
    return np.matmul(rhs, ss.cap_inv.T, out=out)


def _noise_image(dws: np.ndarray, cinv_b: np.ndarray, out: np.ndarray) -> None:
    """C^-1 B dW of a block's increments (steps x paths x sources) into
    ``out``; a lone source's products differ from a matmul's at most in a zero's sign."""
    if cinv_b.shape[0] == 1:
        np.multiply(dws, cinv_b[0], out=out)
    else:
        np.matmul(dws, cinv_b, out=out)


def _lockstep(ss: _StateSystem, dt: float, steps: int, seed: int, paths: int,
              x0: np.ndarray, fc: Optional[FlopCounter] = None):
    """Advance ``paths`` paths together, a block of steps at a time, and
    yield ``(j0, rows, levels)`` for grid points j0, j0 + 1, ...: the state
    (paths x rows x state nodes) and the source levels (rows x sources), at
    least two rows, the first being the last row of the block before.
    Reduce or copy them before the next block."""
    ns, nnoise = len(ss.state), ss.noise_cols.shape[1]
    # per path and step: a state row and its quantile copy, a noise row and
    # its image C^-1 B dW, both stored step-major
    block = max(1, min(steps, _BLOCK_DOUBLES // (paths * (3 * ns + nnoise))))
    rows = np.empty((paths, block + 1, ns))
    levels = np.empty((block + 1, len(ss.pinned)))
    dws = np.empty((block, paths, nnoise))
    noise = np.empty((block, paths, ns))
    # the stream fills a buffer in order, so a block boundary moves no draw
    draw = _rng_for_path(seed, 0).standard_normal
    cinv_b = _apply_cinv(ss, ss.noise_cols.T)                 # nnoise x ns
    sqrt_dt = math.sqrt(dt)
    x = np.tile(x0, (paths, 1))
    drift, step = np.empty((2, paths, ns))
    rows[:, 0] = x
    level = ss.circuit.source_levels(0.0)
    levels[0] = level
    for j0 in range(0, steps, block):
        b = min(block, steps - j0)
        draw(out=dws[:b])
        dws[:b] *= sqrt_dt
        _noise_image(dws[:b], cinv_b, noise[:b])
        for k in range(1, b + 1):
            # X_k = (X_{k-1} + dt C^-1 drift) + C^-1 B dW_k, in place
            _drift(ss, x, level, fc, out=drift)
            np.multiply(_apply_cinv(ss, drift, out=step), dt, out=step)
            np.add(x, step, out=x)
            np.add(x, noise[k - 1], out=x)
            rows[:, k] = x
            level = ss.circuit.source_levels((j0 + k) * dt)
            levels[k] = level
        yield j0, rows[:, :b + 1], levels[:b + 1]
        rows[:, 0] = rows[:, b]
        levels[0] = levels[b]


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
        for j0, rows, levels in _lockstep(ss, dt, steps, seed, 1, x_init, fc):
            at = slice(j0, j0 + rows.shape[1])
            voltages[at, ss.state] = rows[0]
            voltages[at, ss.pinned] = levels
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


def _path_quantiles(rows: np.ndarray) -> np.ndarray:
    """``np.quantile(rows, _QUANTILES, axis=0)`` from a paths-last copy sorted
    in place, with numpy's "linear" index (n - 1) q (< n - 1) and lerp."""
    ordered = rows.transpose(1, 2, 0).copy()
    ordered.sort(axis=-1)
    n = ordered.shape[-1]
    out = np.empty((len(_QUANTILES),) + ordered.shape[:-1])
    for level, q in zip(out, _QUANTILES):
        at = (n - 1) * q
        lo = math.floor(at)
        g = at - lo
        a, b = ordered[..., lo], ordered[..., lo + 1]
        diff = b - a
        if g >= 0.5:
            np.subtract(b, diff * (1.0 - g), out=level)
        else:
            np.add(a, diff * g, out=level)
    return out


def ensemble(net: Netlist, dt: float, t_stop: float, paths: int, seed: int = 0,
             window: Optional[Tuple[float, float]] = None,
             x0: Optional[np.ndarray] = None) -> EnsembleStats:
    """Monte-Carlo ensemble of EM paths with pointwise and window-peak stats.

    All paths advance together, a block of steps at a time, drawing from
    the run's one stream. Each block is reduced over the path axis before
    the next one overwrites it, so memory does not grow with the step
    count. The step-size warning and the divergence error are those of
    :func:`em_transient`.
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
    # the grid points in the window, one contiguous run lo..hi-1
    lo, hi = np.searchsorted(times, t_a), np.searchsorted(times, t_b, side="right")
    if lo >= hi:
        raise ValueError("window holds no time step")
    x_init = _initial_state(ss, x0)

    n_out, state, pinned = ss.circuit.n, ss.state, ss.pinned
    mean, variance = np.empty((2, steps + 1, n_out))
    quantiles = np.empty((len(_QUANTILES), steps + 1, n_out))
    # a source-pinned node holds its level on every path: its statistics are
    # that level, variance 0 and the level's window maximum, exactly
    variance[:, pinned] = 0.0
    peaks = np.full((paths, len(state)), -np.inf)
    pin_peaks = np.full(len(pinned), -np.inf)
    with _explicit_drift(ss, dt):
        for j0, rows, levels in _lockstep(ss, dt, steps, seed, paths, x_init):
            # each statistic reduces the path axis alone, over two or more rows
            # (numpy sums a lone row pairwise), so no row depends on its block
            at = slice(j0, j0 + rows.shape[1])
            mean[at, state] = rows.mean(axis=0)
            variance[at, state] = rows.var(axis=0, ddof=1)
            quantiles[:, at, state] = _path_quantiles(rows)
            mean[at, pinned] = levels
            quantiles[:, at, pinned] = levels
            win = slice(max(lo - j0, 0), min(hi - j0, rows.shape[1]))
            if win.start < win.stop:
                np.maximum(peaks, rows[:, win].max(axis=1), out=peaks)
                np.maximum(pin_peaks, levels[win].max(axis=0), out=pin_peaks)
    # the path mean over every node column, as a paths x nodes array reduces it
    all_peaks = np.zeros((paths, n_out))
    all_peaks[:, state] = peaks
    peak_mean = all_peaks.mean(axis=0)
    peak_mean[pinned] = pin_peaks
    peak_quantiles = np.empty((len(_QUANTILES), n_out))
    peak_quantiles[:, state] = np.quantile(peaks, _QUANTILES, axis=0)
    peak_quantiles[:, pinned] = pin_peaks
    return EnsembleStats(times=times, nodes=list(ss.circuit.nodes), mean=mean,
                         variance=variance, quantiles=dict(zip(_QUANTILES, quantiles)),
                         window=window, peak_mean=peak_mean,
                         peak_quantiles=dict(zip(_QUANTILES, peak_quantiles)),
                         paths=paths, seed=seed)
