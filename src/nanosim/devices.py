"""Nonlinear device models: currents, equivalent conductances, derivatives.

The equivalent conductance of a device is the chord conductance I(V)/V,
which is strictly positive for these devices even inside a negative
differential resistance region. That positivity is what lets the transient
engine replace every nonlinear element by a time-varying conductor and take
one linear solve per step, with no Newton iterations.

All evaluation functions accept scalars or numpy arrays for the voltage
argument and an optional flop counter used by the performance comparisons.

Each kernel has one body for floats and arrays. Its entry step,
:func:`_voltage`, checks the voltage finite and picks the path from the
argument type alone. The per-step engines evaluate one bias point at a
time, so a Python float (``np.float64`` included; a MOSFET kernel needs
both voltages floats) takes a scalar path: the arithmetic stays on Python
floats and a float comes back, with no array, mask or ``np.where``.
Anything else, such as the ensemble drift or the swept currents, takes the
array path. Each RTD and nanowire kernel is its formula under one entry,
:func:`_kernel`, which checks the voltage, bills the kernel's flop tally
per element and returns the argument's form; composites call a kernel's
unbilled ``.body``. ``rtd_geq`` keeps its own entry (it bills the origin
slope once per call), as do the MOSFET kernels, :func:`_mos_region` (two
voltages, billed by region). The terms the RTD kernels share come from one
:func:`_rtd_resonance` for either path. Where the control flow really
differs (the MOSFET regions, the nanowire step sums, ``_log1pexp``'s
``np.where`` against :func:`_log1pexp_sigmoid`'s one exponential) both
branches stay inside the one helper.

Both paths give the same bits and bill the same flops. That is why the
scalar path still calls the numpy ufuncs (``np.exp``, ``np.arctan``, ...)
on its floats: ``math.exp`` and ``math.expm1`` round differently from
numpy's kernels in the last bit for a few per cent of arguments, while a
ufunc on a float runs the same kernel as on an array. The model-only
subexpressions of the RTD kernels are computed once per model
(``RtdModel.consts``), and scalar sums over nanowire steps follow numpy's
order (:func:`_np_sum`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Union

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
# prediction.
G_FLOOR = 1e-12
# Finite-difference step for the V=0 slope of the RTD curve.
_FD_STEP = 1e-6
# Exponent clamp for the valley-current exponential; keeps exp() finite for
# absurd voltages without disturbing any realistic operating range.
_EXP_CLAMP = 700.0
# Most nanowire steps: an array kernel holds nsteps doubles per voltage.
MAX_NANOWIRE_STEPS = 1000


class DeviceError(ValueError):
    """Invalid model parameters or evaluation arguments."""


class RtdConsts(NamedTuple):
    """Subexpressions of the RTD kernels that depend on the model alone,
    each in the association the kernels use."""

    u: float        # q/kT
    b_cp: float     # b - cp
    n2u: float      # n2*u
    n1ua: float     # n1*u*a
    neg_dn1: float  # -d*n1
    dd: float       # d*d
    uhn2: float     # u*h*n2


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

    @functools.cached_property
    def consts(self) -> RtdConsts:
        """The model-only subexpressions of the RTD kernels, computed once."""
        u = self.thermal_exponent
        return RtdConsts(u=u, b_cp=self.b - self.cp, n2u=self.n2 * u,
                         n1ua=self.n1 * u * self.a, neg_dn1=-self.d * self.n1,
                         dd=self.d * self.d, uhn2=u * self.h * self.n2)


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

    @functools.cached_property
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
        if not 1 <= self.nsteps <= MAX_NANOWIRE_STEPS:
            raise DeviceError(f"nanowire nsteps must be in 1..{MAX_NANOWIRE_STEPS}")

    @functools.cached_property
    def step_voltages(self) -> list:
        """The step positions i*vstep, i = 1..nsteps, as floats."""
        return (np.arange(1, self.nsteps + 1) * self.vstep).tolist()


DeviceModel = Union[RtdModel, MosModel, NanowireModel]


@dataclass
class DeviceState:
    """One device's recent history, the input of :func:`geq_predict` and
    :func:`device_step_bound` (the transient engine keeps its own).

    ``v_now`` and ``v_prev`` are the stamped branch voltage (terminal
    voltage for two-poles, Vds for a MOSFET) at the last two accepted
    points and ``ctrl_now`` and ``ctrl_prev`` the controlling voltage there
    (Vgs for a MOSFET, the branch voltage otherwise). ``h_prev`` is the
    step between them (0 before the first), ``geq_now`` the conductance at
    the last point, and ``overdrive`` Vgs - Vth for MOSFETs.
    """

    v_now: float = 0.0
    v_prev: float = 0.0
    h_prev: float = 0.0
    geq_now: float = G_FLOOR
    ctrl_now: float = 0.0
    ctrl_prev: float = 0.0
    overdrive: float = 0.0


def _as_array(v):
    arr = np.asarray(v, dtype=float)
    return (True, arr.reshape(1)) if arr.ndim == 0 else (False, arr)


def _voltage(v, floats: bool = True):
    """A kernel's voltage argument as ``(scalar, va, n)``; raises unless it
    is finite. A Python float (``np.float64`` included) takes the scalar
    path: ``va`` is that float and ``scalar`` None. Anything else, and a
    float when ``floats`` is false, takes the array path through
    :func:`_as_array`, with ``scalar`` true for a 0-d argument. ``n`` is
    the number of elements the kernel bills."""
    if floats and isinstance(v, float):
        if math.isfinite(v):
            return None, float(v), 1
    else:
        scalar, va = _as_array(v)
        if np.isfinite(va).all():
            return scalar, va, va.size
    raise DeviceError("device voltage must be finite")


def _restore(scalar, out):
    """A kernel's result in the form of its argument: a float for a 0-d one."""
    return float(out[0]) if scalar else out


def _kernel(tally):
    """The entry of a kernel whose formula is ``body(m, v)`` at a finite
    float or array (module docstring). ``tally`` is (adds, muls, divs,
    transcendentals) per element, or a function of ``m.nsteps`` giving it."""
    fixed = isinstance(tally, tuple)

    def entry(body):
        def kernel(m, v, fc: "FlopCounter | None" = None):
            scalar, va, n = _voltage(v)
            out = body(m, va)
            if fc is not None:
                adds, muls, divs, trans = tally if fixed else tally(m.nsteps)
                fc.count(adds * n, muls * n, divs * n, trans * n)
            return _restore(scalar, out)
        kernel.__name__ = kernel.__qualname__ = body.__name__
        kernel.__doc__ = body.__doc__
        kernel.body = body
        return kernel
    return entry


def _clamped(f, x):
    """``f`` (``np.exp`` or ``np.expm1``) of ``x`` clamped to +-_EXP_CLAMP."""
    if isinstance(x, float):
        # conditionals, not min/max: on floats those cost about as much as the ufunc
        if x > _EXP_CLAMP:
            x = _EXP_CLAMP
        elif x < -_EXP_CLAMP:
            x = -_EXP_CLAMP
        return float(f(x))
    # np.clip's bits at a fraction of its call overhead
    return f(np.minimum(np.maximum(x, -_EXP_CLAMP), _EXP_CLAMP))


def _log1pexp(x: np.ndarray) -> np.ndarray:
    """Overflow-safe ln(1 + e^x): evaluated as x + ln(1 + e^-x) for large x.
    :func:`_log1pexp_sigmoid` is its float twin. Each side is evaluated on
    values clamped to it, with no one-sided shortcut: most arrays straddle 30."""
    y = np.maximum(x, 30.0)
    return np.where(x > 30.0, y + np.log1p(np.exp(-y)), np.log1p(np.exp(np.minimum(x, 30.0))))


def _log1pexp_sigmoid(x: float, sigmoid: bool):
    """``(_log1pexp(x), _sigmoid(x))`` at a float, the second 0.0 unless
    ``sigmoid``; where both need the same exponential it is computed once."""
    if x > 30.0:
        en = np.exp(-x)
        return x + float(np.log1p(en)), 1.0 / (1.0 + float(en)) if sigmoid else 0.0
    e = np.exp(x)
    lg = float(np.log1p(e))
    if not sigmoid:
        return lg, 0.0
    if x < 0.0:
        e = float(e)
        return lg, e / (1.0 + e)
    return lg, 1.0 / (1.0 + float(np.exp(-x)))


def _sigmoid(x):
    """Overflow-safe logistic function."""
    if isinstance(x, float):
        if x >= 0.0:
            return 1.0 / (1.0 + float(np.exp(-x)))
        ex = float(np.exp(x))
        return ex / (1.0 + ex)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _np_sum(terms):
    """Sum over the last axis in ``np.sum``'s order. A list of floats is
    summed left to right below eight terms; from eight on numpy's pairwise
    sum splits the row over eight accumulators, so numpy itself sums it."""
    if not isinstance(terms, list):
        return np.sum(terms, axis=-1)
    if len(terms) < 8:
        total = 0.0
        for t in terms:
            total += t
        return total
    return float(np.sum(terms))


_HALF_PI = 0.5 * math.pi


def _rtd_resonance(m: RtdModel, v, sigmoids: bool):
    """Terms shared by the RTD kernels at finite ``v``, as (log ratio, w,
    window, s): the log ratio ln(1 + e^x1) - ln(1 + e^x2) of the Fermi
    arguments x1, x2 = (b - cp +- n1*v) * q/kT, w = cp - n1*v, the window
    pi/2 + atan(w/d), and s = sigmoid(x1) + sigmoid(x2) if ``sigmoids``,
    else 0. Floats for a float, arrays for an array."""
    c = m.consts
    n1v = m.n1 * v
    x1 = (c.b_cp + n1v) * c.u
    x2 = (c.b_cp - n1v) * c.u
    w = m.cp - n1v
    atan = np.arctan(w / m.d)
    if isinstance(v, float):
        l1, s1 = _log1pexp_sigmoid(x1, sigmoids)
        l2, s2 = _log1pexp_sigmoid(x2, sigmoids)
        return l1 - l2, w, _HALF_PI + float(atan), s1 + s2
    s = _sigmoid(x1) + _sigmoid(x2) if sigmoids else 0.0
    l1, l2 = _log1pexp(np.array((x1, x2)))
    return l1 - l2, w, _HALF_PI + atan, s


@_kernel((8, 9, 2, 6))
def rtd_current(m: RtdModel, v):
    """Terminal current of the RTD at voltage ``v`` (amps).

    Sum of the resonance term (log-ratio times the atan window) and the
    exponential valley term, scaled by ``area``. Exactly zero at v = 0.
    """
    log_ratio, _, window, _ = _rtd_resonance(m, v, False)
    return m.area * (m.a * log_ratio * window
                     + m.h * _clamped(np.expm1, m.consts.n2u * v))


@_kernel((10, 16, 4, 8))
def rtd_didv(m: RtdModel, v):
    """Differential conductance dJ/dV (the slope a Newton solver stamps)."""
    u = m.consts.u
    log_ratio, w, window, sig = _rtd_resonance(m, v, True)
    d_log = m.n1 * u * sig
    d_window = -m.n1 * m.d / (m.d * m.d + w * w)
    dj1 = m.a * (d_log * window + log_ratio * d_window)
    dj2 = m.h * m.n2 * u * _clamped(np.exp, m.n2 * u * v)
    return m.area * (dj1 + dj2)


def _rtd_slope_at_origin(m: RtdModel, fc: "FlopCounter | None") -> float:
    return (rtd_current(m, _FD_STEP, fc) - rtd_current(m, -_FD_STEP, fc)) / (2.0 * _FD_STEP)


# own entry: it bills elements off the origin, plus the origin slope once per call
def rtd_geq(m: RtdModel, v, fc: "FlopCounter | None" = None):
    """Chord (equivalent) conductance J(V)/V, finite and positive everywhere.

    Below ``V_EPS`` the 0/0 limit is replaced by the small-signal slope at
    the origin, evaluated by a central difference of :func:`rtd_current`.
    """
    scalar, va, n = _voltage(v)
    tiny = abs(va) < V_EPS
    if scalar is None and tiny:
        return _rtd_slope_at_origin(m, fc)
    if scalar is None or not tiny.any():
        # no voltage near the origin: the whole argument, same elements as masked
        out = rtd_current.body(m, va) / va
    else:
        out = np.empty_like(va)
        out[tiny] = _rtd_slope_at_origin(m, fc)
        big = ~tiny
        n = int(np.count_nonzero(big))
        out[big] = rtd_current.body(m, va[big]) / va[big]
    if fc is not None:
        fc.count(8 * n, 9 * n, 3 * n, 6 * n)
    return _restore(scalar, out)


@_kernel((12, 18, 6, 8))
def rtd_dgeq_dv(m: RtdModel, v):
    """Closed-form derivative of the chord conductance with respect to V.

    Only defined away from the origin; callers must fall back to direct
    conductance evaluation when |v| < V_EPS.
    """
    near_origin = abs(v) < V_EPS
    if near_origin if isinstance(v, float) else near_origin.any():
        raise DeviceError("rtd_dgeq_dv undefined for |v| < V_EPS; evaluate directly")
    c = m.consts
    log_ratio, w, window, sig = _rtd_resonance(m, v, True)
    ey = _clamped(np.exp, c.n2u * v)
    a_log = m.a * log_ratio
    term1 = c.n1ua * sig * window
    term2 = a_log * c.neg_dn1 / (c.dd + w * w)
    term3 = c.uhn2 * ey
    j = a_log * window + m.h * (ey - 1.0)
    return m.area * ((term1 + term2 + term3) / v - j / (v * v))


def geq_predict(state: DeviceState, dgeq_dv: float, h: float,
                fc: "FlopCounter | None" = None) -> float:
    """Taylor prediction of the equivalent conductance at the step's end.

    G(n+1) = G(n) + h * dG/dV * dV/dt, with dV/dt the backward difference
    of the committed branch voltages: backward Euler stamps g * V(t + h),
    so g predicts G(V(t + h)). Clamped below at G_FLOOR.
    """
    if state.h_prev <= 0.0:
        raise DeviceError("geq_predict requires a committed previous step")
    if h <= 0.0:
        raise DeviceError("prediction step must be positive")
    dvdt = (state.v_now - state.v_prev) / state.h_prev
    g = state.geq_now + h * dgeq_dv * dvdt
    if fc is not None:
        fc.count(2, 2, 1)
    return G_FLOOR if g < G_FLOOR else g


def mos_bias(vd, vg, vs):
    """Normalised MOSFET bias ``(vgs, vds, reversed)`` from terminal voltages.

    The channel is symmetric, so the lower of drain and source acts as the
    source and ``vds >= 0``; ``reversed`` is true where that is the drain
    terminal. Takes floats or arrays; on floats the lower terminal is
    picked as ``np.minimum`` picks it (NaN wins, a tie gives ``vs``).
    """
    if isinstance(vd, float) and isinstance(vs, float):
        low = vd if vd < vs or vd != vd else vs
        return vg - low, abs(vd - vs), vd < vs
    return vg - np.minimum(vd, vs), abs(vd - vs), vd < vs


# the MOSFET entry, apart from _kernel's: it takes two voltages and bills by region
def _mos_region(kernel: str, m: MosModel, vgs, vds, fc, tally, triode, saturation,
                v_eps: float = 0.0):
    """The square-law regions that every MOSFET kernel shares. With
    vov = vgs - vth an element is cut off (0.0) where vov <= 0; otherwise
    the kernel's ``triode`` formula of ``(beta, vov, vds)`` gives it where
    vds < vov and its ``saturation`` formula elsewhere, and a vds below
    ``v_eps`` is a triode point at vds = 0.0. Two floats give a float;
    otherwise ``vgs`` and ``vds`` broadcast and both formulas run on every
    element, the saturation one on vds raised to at least ``v_eps``. The
    bill is one add per cut-off element and ``tally`` (adds, muls, divs)
    per conducting one."""
    scalar, x, n = _voltage(vds, isinstance(vgs, float))
    if x < 0.0 if scalar is None else (x < 0.0).any():
        raise DeviceError(f"{kernel} requires vds >= 0")
    if scalar is None:
        vov = float(vgs) - m.vth
        n_cut = 1 if vov <= 0.0 else 0
        x = 0.0 if x < v_eps else x
        # a vds below v_eps is a triode point, even where vov is NaN
        triodic = x < vov or x < v_eps
        out = 0.0 if n_cut else (triode if triodic else saturation)(m.beta, vov, x)
    else:
        vov = np.subtract(vgs, m.vth)
        scalar = scalar and vov.ndim == 0
        if vov.shape != x.shape:
            vov, x = np.broadcast_arrays(vov, x)
            n = x.size
        cut = vov <= 0.0
        n_cut = int(np.count_nonzero(cut))
        if n_cut == n:
            out = np.zeros_like(x)
        else:
            xs = np.maximum(x, v_eps)
            x = np.where(x < v_eps, 0.0, x)
            out = np.where(x < vov, triode(m.beta, vov, x), saturation(m.beta, vov, xs))
            out[cut] = 0.0
    if fc is not None:
        on = n - n_cut
        fc.count(n_cut + tally[0] * on, tally[1] * on, tally[2] * on)
    return _restore(scalar, out)


def mos_current(m: MosModel, vgs, vds, fc: "FlopCounter | None" = None):
    """Square-law NMOS drain current; requires vds >= 0 (callers normalize)."""
    return _mos_region("mos_current", m, vgs, vds, fc, (2, 4, 1),
                       lambda b, vov, v: b * (vov * v - 0.5 * v * v),
                       lambda b, vov, v: 0.5 * b * vov * vov)


def mos_geq(m: MosModel, vgs, vds, fc: "FlopCounter | None" = None):
    """Equivalent drain-source conductance I_DS/V_DS; zero in cutoff.

    As vds -> 0 the ratio tends to the finite triode limit beta*(vgs - vth),
    which is returned below V_EPS: the triode formula at vds = 0.
    """
    return _mos_region("mos_geq", m, vgs, vds, fc, (2, 3, 1),
                       lambda b, vov, v: b * (vov - 0.5 * v),
                       lambda b, vov, v: 0.5 * b * vov * vov / v, V_EPS)


def mos_didv(m: MosModel, vgs, vds):
    """Branch derivative dI_D/dV_DS at fixed vgs (triode slope, 0 in
    saturation); unbilled, as the Newton stamp bills it."""
    return _mos_region("mos_didv", m, vgs, vds, None, None,
                       lambda b, vov, v: b * (vov - v), lambda b, vov, v: 0.0)


def mos_gm(m: MosModel, vgs, vds):
    """Transconductance dI_D/dV_GS at fixed vds; unbilled, as the Newton
    stamp bills it."""
    return _mos_region("mos_gm", m, vgs, vds, None, None,
                       lambda b, vov, v: b * v, lambda b, vov, v: b * vov)


def _nanowire_steps(m: NanowireModel, v):
    """The logistic step terms sigmoid((|v| - i*vstep) / smooth) at finite
    ``v``: a list of floats for a float, else an array with the steps on a
    trailing axis."""
    if isinstance(v, float):
        av = abs(v)
        return [_sigmoid((av - step) / m.smooth) for step in m.step_voltages]
    return _sigmoid((np.abs(v)[..., None] - m.step_voltages) / m.smooth)


@_kernel(lambda k: (2 * k, k + 1, k, k))
def nanowire_geq(m: NanowireModel, v):
    """Staircase conductance: monotone nondecreasing in |v|, symmetric in sign."""
    return m.g0 * _np_sum(_nanowire_steps(m, v))


@_kernel(lambda k: (2 * k, k + 2, k, k))   # nanowire_geq's tally and one multiply
def nanowire_current(m: NanowireModel, v):
    """Terminal current G(v) * v of the staircase nanowire."""
    return nanowire_geq.body(m, v) * v


@_kernel(lambda k: (2 * k, 2 * k + 2, 1, k))
def nanowire_dgeq_dv(m: NanowireModel, v):
    """dG/dV of the staircase conductance (odd in v)."""
    s = _nanowire_steps(m, v)
    if isinstance(v, float):
        terms = [x * (1.0 - x) for x in s]
        sign = 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0
    else:
        terms, sign = s * (1.0 - s), np.sign(v)
    return (m.g0 / m.smooth) * _np_sum(terms) * sign


# nanowire_geq's and nanowire_dgeq_dv's tallies, one add, one multiply
@_kernel(lambda k: (4 * k + 1, 3 * k + 4, k + 1, 2 * k))
def nanowire_didv(m: NanowireModel, v):
    """Differential conductance d(G(v)*v)/dv for the Newton baseline."""
    return nanowire_geq.body(m, v) + v * nanowire_dgeq_dv.body(m, v)


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
        alpha = (state.ctrl_now - state.ctrl_prev) / state.h_prev
        if alpha == 0.0:
            return math.inf
        return 2.0 * abs(state.overdrive) / abs(alpha)
    dvdt = (state.v_now - state.v_prev) / state.h_prev
    if dvdt == 0.0:
        return math.inf
    return 2.0 * abs(state.v_now) / abs(dvdt)
