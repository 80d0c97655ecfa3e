"""Independent oracles for every operation the benchmark runs.

Each check compares what the ``nanosim`` command wrote (CSV or stdout) with
an answer computed another way, at a stated tolerance:

* transients: max |v - v_ref| over the solved (not source-pinned) nodes on
  a uniform 11001-point grid, against the analytic step response for
  ``rc_lowpass`` and a stored eps=1.25e-3 run for the other decks;
  tolerance ``eps * V_scale``, with the eps the run used and V_scale the
  largest voltage any source of the deck applies (the circuit's scale).
* operating points: closed forms for ``divider`` and ``mos_divider``,
  ``brute_force_dc`` load-line roots for the RTD divider; tolerance
  ``DC_TOL + 5e-6 |v|`` because the CLI prints six significant digits.
* sweeps: ``brute_force_dc`` at every RTD point, load-line bisection on the
  public ``nanowire_current`` at every nanowire point; tolerance ``DC_TOL``.
* OU ensembles: mean and sample variance at t = tau, 2.5 tau and 5 tau
  against the closed-form moments of the Euler-Maruyama recurrence, within
  ``N_SE`` standard errors.
* the noisy inverter ensemble: the mean output on the three input plateaus
  against the stored deterministic reference, within ``N_SE`` standard
  errors plus ``PLATEAU_TOL``.

A verdict is ``ok`` when the answer meets its oracle; ``flagged`` when the
program itself reported the operation as failed (unsettled points, h_min
warnings, non-zero exit).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import harness

REF_DECKS = ("fet_rtd_inverter", "rtd_divider_tran")
REF_EPS = 1.25e-3
GRID_POINTS = 11001
DC_TOL = 1e-6          # V, sweep and op points against their load-line root
N_SE = 5.0             # standard errors allowed on ensemble moments
PLATEAU_TOL = 0.01     # V, noise-induced shift of the inverter's mean output
PLATEAU_TIMES = (28e-9, 62e-9, 108e-9)


@dataclass
class Verdict:
    """Oracle outcome for a group of ``count`` operations (one transient,
    op point or ensemble, or every point of one sweep)."""

    label: str
    count: int
    misses: int = 0          # operations outside their oracle tolerance
    flagged: int = 0         # operations the program itself reported as failed
    raised: bool = False
    detail: str = ""
    values: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Failures by the benchmark's definition: raised, flagged by the
        program, or outside the oracle tolerance."""
        if self.raised:
            return self.count
        return min(self.count, max(self.misses, self.flagged))

    @property
    def silent(self) -> int:
        """Operations that raised or gave a wrong answer the program did not
        flag: these make the run incorrect."""
        if self.raised:
            return self.count
        return max(0, self.misses - self.flagged)


# --- stored references ---------------------------------------------------------

def deck_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def solved_nodes(net) -> List[str]:
    """Nodes the engine solves for: every node not pinned to ground by a
    voltage source (a pinned node only echoes its source waveform)."""
    from nanosim.netlist import ElementKind
    pinned = set()
    for el in net.elements_of(ElementKind.VSOURCE):
        a, b = el.nodes
        if b == "0":
            pinned.add(a)
        elif a == "0":
            pinned.add(b)
    return [n for n in net.nodes if n not in pinned]


def uniform_grid(t0: float, t1: float) -> np.ndarray:
    return np.linspace(t0, t1, GRID_POINTS)


def load_reference(name: str) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """(grid, values, nodes) of a stored reference, refusing one built from
    a different deck text."""
    manifest_path = harness.REFS / "manifest.json"
    ref_path = harness.REFS / f"{name}.npz"
    if not manifest_path.is_file() or not ref_path.is_file():
        raise harness.BenchSetupError(f"stored reference for {name} missing; "
                                      "run perfbench/make_refs.py")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        entry = json.load(fh)["decks"][name]
    if entry["deck_sha256"] != deck_sha256(harness.deck(name)):
        raise harness.BenchSetupError(f"deck {name} changed since its reference "
                                      "was built; run perfbench/make_refs.py")
    with np.load(ref_path) as z:
        return z["t"], z["v"], [str(n) for n in z["nodes"]]


# --- transients ------------------------------------------------------------------

def source_scale(net) -> float:
    """Largest |voltage| any source of the deck applies."""
    from nanosim.netlist import Dc, ElementKind, Pulse
    scale = 0.0
    for el in net.elements_of(ElementKind.VSOURCE):
        w = el.waveform
        levels = ([w.level] if isinstance(w, Dc) else [w.v1, w.v2] if isinstance(w, Pulse)
                  else [v for _, v in w.points])
        scale = max(scale, max(abs(x) for x in levels))
    return scale


def tran_error(name: str, net, header: List[str], rows: np.ndarray,
               eps: float) -> Tuple[float, float, float]:
    """(err_v, time of the worst error, tolerance) of one transient CSV."""
    from nanosim.netlist import ElementKind
    t_run = rows[:, 0]
    if name == "rc_lowpass":
        r = net.elements_of(ElementKind.RESISTOR)[0].value
        c = net.elements_of(ElementKind.CAPACITOR)[0].value
        vin = net.elements_of(ElementKind.VSOURCE)[0].waveform.level
        nodes = solved_nodes(net)
        grid = uniform_grid(t_run[0], t_run[-1])
        ref = np.column_stack([vin * -np.expm1(-grid / (r * c)) for _ in nodes])
    else:
        grid, ref, nodes = load_reference(name)
    got = np.column_stack([np.interp(grid, t_run, rows[:, header.index(f"v({n})")])
                           for n in nodes])
    dev = np.abs(got - ref)
    k = int(np.argmax(np.max(dev, axis=1)))
    return float(dev.max()), float(grid[k]), eps * source_scale(net)


# --- DC ----------------------------------------------------------------------------

def dc_tol_printed(v: float) -> float:
    return DC_TOL + 5e-6 * abs(v)


def rtd_miss(model, r: float, bias: float, v: float) -> float:
    """Distance from ``v`` to the nearest stable load-line root (brute force)."""
    from nanosim.nr import brute_force_dc
    stable = [root for root, ok in brute_force_dc(model, r, float(bias)) if ok]
    return min(abs(v - root) for root in stable) if stable else math.inf


def nanowire_roots(model, r: float, biases: np.ndarray) -> np.ndarray:
    """Load-line roots of bias -> R -> nanowire -> ground by vectorised
    bisection on the public ``nanowire_current`` (monotone in v)."""
    from nanosim.devices import nanowire_current
    lo = np.minimum(biases, 0.0)
    hi = np.maximum(biases, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = (biases - mid) / r - np.asarray(nanowire_current(model, mid))
        lo = np.where(f > 0.0, mid, lo)
        hi = np.where(f > 0.0, hi, mid)
        if float(np.max(hi - lo)) <= 1e-13:
            break
    return 0.5 * (lo + hi)


def mos_divider_vd(vdd: float, vg: float, r: float, model) -> float:
    """Closed-form drain voltage of a square-law NMOS with a resistive load."""
    vov = vg - model.vth
    if vov <= 0.0:
        return vdd
    beta = model.beta
    vd = vdd - r * 0.5 * beta * vov * vov
    if vd >= vov:
        return vd
    # triode: vd = vdd - r*beta*(vov*vd - vd^2/2), the root below vov
    a, b, c = 0.5 * r * beta, -(1.0 + r * beta * vov), vdd
    return (-b - math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def unsettled_count(stderr: str) -> int:
    m = re.search(r"(\d+) sweep points failed to settle", stderr)
    return int(m.group(1)) if m else 0


def printed_op(stdout: str) -> Dict[str, float]:
    return {m.group(1): float(m.group(2))
            for m in re.finditer(r"^v\(([^)]+)\) = (\S+)$", stdout, re.M)}


def nr_flops(stdout: str) -> Optional[Tuple[int, int]]:
    m = re.search(r"flops: swec=(\d+) nr=(\d+)", stdout)
    return (int(m.group(1)), int(m.group(2))) if m else None


# --- ensembles ---------------------------------------------------------------------

def ou_moments(vin: float, r: float, c: float, sigma: float, dt: float,
               j: int) -> Tuple[float, float]:
    """Mean and variance after j Euler-Maruyama steps of
    C dx = (vin - x)/R dt + sigma dW from x(0) = 0."""
    q = 1.0 - dt / (r * c)
    s2 = (sigma / c) ** 2 * dt
    return vin * (1.0 - q ** j), s2 * (1.0 - q ** (2 * j)) / (1.0 - q * q)


def ou_continuous(vin: float, r: float, c: float, sigma: float,
                  t: float) -> Tuple[float, float]:
    tau = r * c
    return (vin * -math.expm1(-t / tau),
            (sigma / c) ** 2 * tau / 2.0 * -math.expm1(-2.0 * t / tau))


def ensemble_sane(header: Sequence[str], rows: np.ndarray) -> str:
    """Empty string when the ensemble table is finite, has non-negative
    variances and ordered quantiles; otherwise the first problem found."""
    if not np.all(np.isfinite(rows)):
        return "non-finite values"
    for i, name in enumerate(header):
        if name.startswith("var(") and np.any(rows[:, i] < 0.0):
            return f"negative {name}"
        if name.startswith("q05("):
            node = name[4:-1]
            q05, q50, q95 = (rows[:, header.index(f"q{q}({node})")]
                             for q in ("05", "50", "95"))
            if np.any(q05 > q50) or np.any(q50 > q95):
                return f"unordered quantiles at {node}"
    return ""
