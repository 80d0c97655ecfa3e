"""Nonlinear device models: currents, equivalent conductances, derivatives.

The equivalent conductance of a device is the chord conductance I(V)/V,
which is strictly positive for these devices even inside a negative
differential resistance region. That positivity is what lets the transient
engine replace every nonlinear element by a time-varying conductor and take
one linear solve per step, with no Newton iterations.

All evaluation functions accept scalars or numpy arrays for the voltage
argument and an optional flop counter used by the performance comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .mna import FlopCounter

# Physical constants (2019 SI exact values)
Q_ELECTRON = 1.602176634e-19   # C
K_BOLTZMANN = 1.380649e-23     # J/K

# Chord conductance J(V)/V is 0/0 at the origin; below V_EPS the small-signal
# slope at V=0 is used instead.
V_EPS = 1e-9
# Floor applied to every conductance stamped into the nodal matrix. Keeps the
# matrix nonsingular and preserves the positive-conductance guarantee after
# Taylor prediction.
G_FLOOR = 1e-12
# Finite-difference step for the V=0 slope of the RTD curve.
_FD_STEP = 1e-6
# Exponent clamp for the valley-current exponential; keeps exp() finite for
# absurd voltages without disturbing any realistic operating range.
_EXP_CLAMP = 700.0


class DeviceError(ValueError):
    """Invalid model parameters or evaluation arguments."""


@dataclass(frozen=True)
class RtdModel:
    """Resonant tunneling diode parameters (Schulman-form I-V).

    ``cp`` is the peak-alignment voltage parameter; ``area`` is a
    dimensionless scale on the terminal current.
    """

    a: float
    b: float
    cp: float
    d: float
    h: float
    n1: float
    n2: float
    temp: float = 300.0
    area: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.h > 0 and self.d > 0):
            raise DeviceError("RTD parameters A, H, D must be positive")
        if not (self.n1 > 0 and self.n2 > 0):
            raise DeviceError("RTD parameters n1, n2 must be positive")
        if not (self.temp > 0 and self.area > 0):
            raise DeviceError("RTD temperature and area must be positive")

    @property
    def thermal_exponent(self) -> float:
        """q/kT in 1/V."""
        return Q_ELECTRON / (K_BOLTZMANN * self.temp)


@dataclass(frozen=True)
class MosModel:
    """Square-law NMOS parameters."""

    k: float
    w: float
    l: float
    vth: float

    def __post_init__(self):
        if not (self.k > 0 and self.w > 0 and self.l > 0):
            raise DeviceError("MOS parameters k, W, L must be positive")

    @property
    def beta(self) -> float:
        return self.k * self.w / self.l


@dataclass(frozen=True)
class NanowireModel:
    """Staircase-conductance nanowire: a sum of smoothed unit steps.

    G(v) = g0 * sum_i sigmoid((|v| - i*vstep) / smooth), i = 1..nsteps.
    """

    g0: float
    vstep: float
    nsteps: int
    smooth: float

    def __post_init__(self):
        if not (self.g0 > 0 and self.vstep > 0 and self.smooth > 0):
            raise DeviceError("nanowire g0, vstep, smooth must be positive")
        if self.nsteps < 1:
            raise DeviceError("nanowire nsteps must be >= 1")


DeviceModel = Union[RtdModel, MosModel, NanowireModel]


@dataclass
class DeviceState:
    """Per-device history owned by the engine, mutated between steps.

    ``v_now``/``v_prev`` track the stamped branch voltage (terminal voltage
    for two-poles, Vds for a MOSFET); ``ctrl_*`` track the controlling
    voltage used by the slew-based step bound (Vgs for a MOSFET, the branch
    voltage otherwise). ``overdrive`` is Vgs - Vth for MOSFETs.
    """

    v_now: float = 0.0
    v_prev: float = 0.0
    h_prev: float = 0.0
    geq_now: float = G_FLOOR
    ctrl_now: float = 0.0
    ctrl_prev: float = 0.0
    overdrive: float = 0.0

    def slew(self) -> float:
        """Backward-difference dV/dt of the branch voltage; 0 without history."""
        if self.h_prev <= 0.0:
            return 0.0
        return (self.v_now - self.v_prev) / self.h_prev

    def ctrl_slew(self) -> float:
        if self.h_prev <= 0.0:
            return 0.0
        return (self.ctrl_now - self.ctrl_prev) / self.h_prev


def _as_array(v):
    arr = np.asarray(v, dtype=float)
    return arr.ndim == 0, np.atleast_1d(arr)


def _restore(scalar: bool, arr: np.ndarray):
    return float(arr[0]) if scalar else arr


def _log1pexp(x: np.ndarray) -> np.ndarray:
    """Overflow-safe ln(1 + e^x): evaluated as x + ln(1 + e^-x) for large x."""
    out = np.empty_like(x)
    big = x > 30.0
    out[big] = x[big] + np.log1p(np.exp(-x[big]))
    small = ~big
    out[small] = np.log1p(np.exp(x[small]))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_finite(v: np.ndarray):
    if not np.all(np.isfinite(v)):
        raise DeviceError("device voltage must be finite")


def _count(fc: "FlopCounter | None", n: int, adds=0, muls=0, divs=0, transcendentals=0):
    if fc is not None:
        fc.count(adds=adds * n, muls=muls * n, divs=divs * n,
                 transcendentals=transcendentals * n)


def rtd_current(m: RtdModel, v, fc: "FlopCounter | None" = None):
    """Terminal current of the RTD at voltage ``v`` (amps).

    Sum of the resonance term (log-ratio times the atan window) and the
    exponential valley term, scaled by ``area``. Exactly zero at v = 0.
    """
    scalar, va = _as_array(v)
    _check_finite(va)
    u = m.thermal_exponent
    n1v = m.n1 * va
    x1 = (m.b - m.cp + n1v) * u
    x2 = (m.b - m.cp - n1v) * u
    log_ratio = _log1pexp(x1) - _log1pexp(x2)
    window = 0.5 * math.pi + np.arctan((m.cp - n1v) / m.d)
    j1 = m.a * log_ratio * window
    j2 = m.h * np.expm1(np.clip(m.n2 * u * va, -_EXP_CLAMP, _EXP_CLAMP))
    _count(fc, va.size, adds=8, muls=9, divs=2, transcendentals=6)
    return _restore(scalar, m.area * (j1 + j2))


def rtd_didv(m: RtdModel, v, fc: "FlopCounter | None" = None):
    """Differential conductance dJ/dV (the slope a Newton solver stamps)."""
    scalar, va = _as_array(v)
    _check_finite(va)
    u = m.thermal_exponent
    n1v = m.n1 * va
    x1 = (m.b - m.cp + n1v) * u
    x2 = (m.b - m.cp - n1v) * u
    log_ratio = _log1pexp(x1) - _log1pexp(x2)
    w = m.cp - n1v
    window = 0.5 * math.pi + np.arctan(w / m.d)
    d_log = m.n1 * u * (_sigmoid(x1) + _sigmoid(x2))
    d_window = -m.n1 * m.d / (m.d * m.d + w * w)
    dj1 = m.a * (d_log * window + log_ratio * d_window)
    dj2 = m.h * m.n2 * u * np.exp(np.clip(m.n2 * u * va, -_EXP_CLAMP, _EXP_CLAMP))
    _count(fc, va.size, adds=10, muls=16, divs=4, transcendentals=8)
    return _restore(scalar, m.area * (dj1 + dj2))


def rtd_geq(m: RtdModel, v, fc: "FlopCounter | None" = None):
    """Chord (equivalent) conductance J(V)/V, finite and positive everywhere.

    Below ``V_EPS`` the 0/0 limit is replaced by the small-signal slope at
    the origin, evaluated by a central difference of :func:`rtd_current`.
    """
    scalar, va = _as_array(v)
    _check_finite(va)
    out = np.empty_like(va)
    tiny = np.abs(va) < V_EPS
    if np.any(tiny):
        g0 = (rtd_current(m, _FD_STEP, fc) - rtd_current(m, -_FD_STEP, fc)) / (2.0 * _FD_STEP)
        out[tiny] = g0
    big = ~tiny
    if np.any(big):
        out[big] = rtd_current(m, va[big], fc) / va[big]
        _count(fc, int(np.count_nonzero(big)), divs=1)
    return _restore(scalar, out)


def rtd_dgeq_dv(m: RtdModel, v, fc: "FlopCounter | None" = None):
    """Closed-form derivative of the chord conductance with respect to V.

    Only defined away from the origin; callers must fall back to direct
    conductance evaluation when |v| < V_EPS.
    """
    scalar, va = _as_array(v)
    _check_finite(va)
    if np.any(np.abs(va) < V_EPS):
        raise DeviceError("rtd_dgeq_dv undefined for |v| < V_EPS; evaluate directly")
    u = m.thermal_exponent
    n1v = m.n1 * va
    x1 = (m.b - m.cp + n1v) * u
    x2 = (m.b - m.cp - n1v) * u
    log_ratio = _log1pexp(x1) - _log1pexp(x2)
    w = m.cp - n1v
    window = 0.5 * math.pi + np.arctan(w / m.d)
    ey = np.exp(np.clip(m.n2 * u * va, -_EXP_CLAMP, _EXP_CLAMP))
    term1 = (m.n1 * u * m.a) * (_sigmoid(x1) + _sigmoid(x2)) * window
    term2 = m.a * log_ratio * (-m.d * m.n1) / (m.d * m.d + w * w)
    term3 = u * m.h * m.n2 * ey
    j = m.a * log_ratio * window + m.h * (ey - 1.0)
    _count(fc, va.size, adds=12, muls=18, divs=6, transcendentals=8)
    return _restore(scalar, m.area * ((term1 + term2 + term3) / va - j / (va * va)))


def geq_predict(state: DeviceState, dgeq_dv: float, h: float,
                fc: "FlopCounter | None" = None) -> float:
    """Half-step Taylor prediction of the equivalent conductance.

    G(n+1) = G(n) + (h/2) * dG/dV * dV/dt, with dV/dt taken as the backward
    difference of the committed branch voltages. Clamped below at G_FLOOR.
    """
    if state.h_prev <= 0.0:
        raise DeviceError("geq_predict requires a committed previous step")
    if h <= 0.0:
        raise DeviceError("prediction step must be positive")
    dvdt = (state.v_now - state.v_prev) / state.h_prev
    g = state.geq_now + 0.5 * h * dgeq_dv * dvdt
    _count(fc, 1, adds=2, muls=3, divs=1)
    return max(g, G_FLOOR)


def mos_current(m: MosModel, vgs: float, vds, fc: "FlopCounter | None" = None):
    """Square-law NMOS drain current; requires vds >= 0 (callers normalize)."""
    scalar, vda = _as_array(vds)
    _check_finite(vda)
    if np.any(vda < 0.0):
        raise DeviceError("mos_current requires vds >= 0")
    vov = vgs - m.vth
    if vov <= 0.0:
        _count(fc, vda.size, adds=1)
        return _restore(scalar, np.zeros_like(vda))
    beta = m.beta
    triode = beta * (vov * vda - 0.5 * vda * vda)
    sat = 0.5 * beta * vov * vov
    _count(fc, vda.size, adds=2, muls=4, divs=1)
    return _restore(scalar, np.where(vda < vov, triode, sat))


def mos_geq(m: MosModel, vgs, vds, fc: "FlopCounter | None" = None):
    """Equivalent drain-source conductance I_DS/V_DS; zero in cutoff.

    As vds -> 0 the ratio tends to the finite triode limit beta*(vgs - vth),
    which is returned below V_EPS. ``vgs`` and ``vds`` are each a scalar or
    an array of one common shape.
    """
    scalar, vda = _as_array(vds)
    _check_finite(vda)
    if np.any(vda < 0.0):
        raise DeviceError("mos_geq requires vds >= 0")
    vov = np.subtract(vgs, m.vth)
    scalar = scalar and vov.ndim == 0
    if vov.size != vda.size:
        vov, vda = np.broadcast_arrays(vov, vda)
    cut = vov <= 0.0
    n_cut = int(np.count_nonzero(cut))
    _count(fc, n_cut, adds=1)
    _count(fc, vda.size - n_cut, adds=2, muls=3, divs=1)
    if n_cut == vda.size:
        return _restore(scalar, np.zeros_like(vda))
    beta = m.beta
    out = np.where(vda < V_EPS, beta * vov,
                   np.where(vda < vov, beta * (vov - 0.5 * vda),
                            0.5 * beta * vov * vov / np.maximum(vda, V_EPS)))
    out[cut] = 0.0
    return _restore(scalar, out)


def mos_bias(vd, vg, vs):
    """Normalised MOSFET bias ``(vgs, vds, reversed)`` from terminal voltages.

    The channel is symmetric, so the lower of drain and source acts as the
    source and ``vds >= 0``; ``reversed`` is true where that is the drain
    terminal. Takes floats or arrays.
    """
    return vg - np.minimum(vd, vs), abs(vd - vs), vd < vs


def mos_didv(m: MosModel, vgs: float, vds: float) -> float:
    """Branch derivative dI_D/dV_DS at fixed vgs (triode slope, 0 in saturation)."""
    if vds < 0.0:
        raise DeviceError("mos_didv requires vds >= 0")
    vov = vgs - m.vth
    if vov <= 0.0:
        return 0.0
    if vds < vov:
        return m.beta * (vov - vds)
    return 0.0


def mos_gm(m: MosModel, vgs: float, vds: float) -> float:
    """Transconductance dI_D/dV_GS at fixed vds."""
    if vds < 0.0:
        raise DeviceError("mos_gm requires vds >= 0")
    vov = vgs - m.vth
    if vov <= 0.0:
        return 0.0
    if vds < vov:
        return m.beta * vds
    return m.beta * vov


def nanowire_geq(m: NanowireModel, v, fc: "FlopCounter | None" = None):
    """Staircase conductance: monotone nondecreasing in |v|, symmetric in sign."""
    scalar, va = _as_array(v)
    _check_finite(va)
    av = np.abs(va)
    steps = np.arange(1, m.nsteps + 1) * m.vstep
    g = m.g0 * np.sum(_sigmoid((av[..., None] - steps) / m.smooth), axis=-1)
    _count(fc, va.size, adds=2 * m.nsteps, muls=m.nsteps + 1,
           divs=m.nsteps, transcendentals=m.nsteps)
    return _restore(scalar, g)


def nanowire_current(m: NanowireModel, v, fc: "FlopCounter | None" = None):
    """Terminal current G(v) * v of the staircase nanowire."""
    scalar, va = _as_array(v)
    g = nanowire_geq(m, va, fc)
    _count(fc, va.size, muls=1)
    return _restore(scalar, g * va)


def nanowire_dgeq_dv(m: NanowireModel, v, fc: "FlopCounter | None" = None):
    """dG/dV of the staircase conductance (odd in v)."""
    scalar, va = _as_array(v)
    _check_finite(va)
    av = np.abs(va)
    steps = np.arange(1, m.nsteps + 1) * m.vstep
    s = _sigmoid((av[..., None] - steps) / m.smooth)
    dg = (m.g0 / m.smooth) * np.sum(s * (1.0 - s), axis=-1) * np.sign(va)
    _count(fc, va.size, adds=2 * m.nsteps, muls=2 * m.nsteps + 2,
           divs=1, transcendentals=m.nsteps)
    return _restore(scalar, dg)


def nanowire_didv(m: NanowireModel, v) -> float:
    """Differential conductance d(G(v)*v)/dv for the Newton baseline."""
    return float(nanowire_geq(m, v) + v * nanowire_dgeq_dv(m, v))


def device_step_bound(state: DeviceState, mosfet: bool) -> float:
    """Per-device term of the adaptive step-size minimum (seconds).

    MOSFET: 2|Vgs - Vth| / |dVgs/dt|; off devices and zero slew contribute
    no constraint. Two-terminal devices: 2|v| / |dv/dt| with the backward
    difference slew. The caller multiplies the overall minimum by the error
    budget.
    """
    if state.h_prev <= 0.0:
        return math.inf
    if mosfet:
        if state.overdrive <= 0.0:
            return math.inf
        alpha = state.ctrl_slew()
        if alpha == 0.0:
            return math.inf
        return 2.0 * abs(state.overdrive) / abs(alpha)
    dvdt = state.slew()
    if dvdt == 0.0:
        return math.inf
    return 2.0 * abs(state.v_now) / abs(dvdt)
