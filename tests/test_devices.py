"""Device model tests: currents, chord conductances, derivatives, bounds."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim import devices
from nanosim.devices import (DeviceError, DeviceState, G_FLOOR, MosModel,
                             NanowireModel, RtdModel, V_EPS, device_step_bound,
                             geq_predict, mos_bias, mos_current, mos_didv,
                             mos_geq, mos_gm, nanowire_current, nanowire_dgeq_dv,
                             nanowire_didv, nanowire_geq, rtd_current, rtd_didv, rtd_dgeq_dv,
                             rtd_geq)
from nanosim.mna import FlopCounter

# High-precision reference values for the experiment parameter set (50-digit
# evaluation of the device equations, rounded to double).
GOLD_J_05 = 0.0039518308263854042
GOLD_GEQ_2 = 0.0064586207842560889
GOLD_DGEQ_1 = -0.00021215272598915885
GOLD_SLOPE_0 = 0.0079720734721945149
GOLD_PEAK_V = 3.3133         # from a 1e5-point scan of the current
GOLD_VALLEY_V = 13.51


class TestRtdCurrent:
    def test_zero_exact(self, rtd):
        assert rtd_current(rtd, 0.0) == 0.0

    def test_golden_point(self, rtd):
        assert rtd_current(rtd, 0.5) == pytest.approx(GOLD_J_05, rel=1e-12)

    def test_ndr_region_exists(self, rtd):
        v = np.linspace(0.0, 4.5, 2000)
        j = rtd_current(rtd, v)
        slope_sign = np.sign(np.diff(j))
        assert np.any(slope_sign < 0) and np.any(slope_sign > 0)

    def test_peak_and_valley(self, rtd):
        v = np.linspace(1e-3, 16.0, 100_000)
        j = rtd_current(rtd, v)
        peak = v[np.argmax(j)]
        valley = v[np.argmax(j) + np.argmin(j[np.argmax(j):])]
        assert peak == pytest.approx(GOLD_PEAK_V, abs=2e-3)
        assert valley == pytest.approx(GOLD_VALLEY_V, abs=2e-2)

    def test_sign_matches_voltage(self, rtd):
        v = np.array([-3.0, -0.5, 0.5, 3.0])
        assert np.all(np.sign(rtd_current(rtd, v)) == np.sign(v))

    def test_nonfinite_rejected(self, rtd):
        with pytest.raises(DeviceError):
            rtd_current(rtd, float("nan"))

    def test_area_scales_current(self, rtd):
        big = RtdModel(a=rtd.a, b=rtd.b, cp=rtd.cp, d=rtd.d, h=rtd.h,
                       n1=rtd.n1, n2=rtd.n2, area=2.0)
        assert rtd_current(big, 1.7) == pytest.approx(2 * rtd_current(rtd, 1.7))


class TestRtdGeq:
    def test_origin_limit_is_slope(self, rtd):
        assert rtd_geq(rtd, 0.0) == pytest.approx(GOLD_SLOPE_0, rel=1e-5)
        assert rtd_geq(rtd, 1e-12) == rtd_geq(rtd, 0.0)

    def test_golden_point(self, rtd):
        assert rtd_geq(rtd, 2.0) == pytest.approx(GOLD_GEQ_2, rel=1e-12)

    def test_positive_across_sweep(self, rtd):
        v = np.linspace(1e-6, 4.5, 5000)
        g = rtd_geq(rtd, v)
        assert np.all(np.isfinite(g))
        assert g.min() > 0.0

    def test_consistency_with_current(self, rtd):
        v = np.linspace(1e-3, 4.5, 500)
        lhs = rtd_geq(rtd, v) * v
        rhs = rtd_current(rtd, v)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-12

    def test_randomized_positivity(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            m = RtdModel(a=10 ** rng.uniform(-6, -2),
                         b=rng.uniform(0.5, 3.0),
                         cp=rng.uniform(0.5, 3.0),
                         d=rng.uniform(0.05, 1.0),
                         h=10 ** rng.uniform(-10, -6),
                         n1=rng.uniform(0.05, 1.0),
                         n2=rng.uniform(0.005, 0.1),
                         temp=rng.uniform(250.0, 400.0))
            v = rng.uniform(1e-4, 4.5, 50)
            g = rtd_geq(m, v)
            assert np.all(np.isfinite(g)) and np.all(g > 0.0)


class TestRtdDerivatives:
    def test_matches_finite_difference(self, rtd):
        for v in (1.0, 3.0):
            d = 1e-6
            fd = (rtd_geq(rtd, v + d) - rtd_geq(rtd, v - d)) / (2 * d)
            assert rtd_dgeq_dv(rtd, v) == pytest.approx(fd, rel=1e-5)

    def test_golden_point(self, rtd):
        assert rtd_dgeq_dv(rtd, 1.0) == pytest.approx(GOLD_DGEQ_1, rel=1e-10)

    def test_rejects_origin(self, rtd):
        with pytest.raises(DeviceError):
            rtd_dgeq_dv(rtd, 1e-10)

    def test_sign_change_brackets_geq_extremum(self, rtd):
        # the chord conductance has a minimum just short of the valley
        v = np.linspace(0.5, 16.0, 20000)
        g = rtd_geq(rtd, v)
        ext = [i for i in range(1, len(g) - 1)
               if (g[i] - g[i - 1]) * (g[i + 1] - g[i]) < 0]
        assert ext
        for i in ext:
            assert rtd_dgeq_dv(rtd, v[i - 1]) * rtd_dgeq_dv(rtd, v[i + 1]) < 0

    def test_didv_matches_current_slope(self, rtd):
        for v in (0.4, 2.0, 3.31, 5.0, 14.0):
            d = 1e-6
            fd = (rtd_current(rtd, v + d) - rtd_current(rtd, v - d)) / (2 * d)
            assert rtd_didv(rtd, v) == pytest.approx(fd, rel=1e-6)


# Voltages over every branch of the RTD kernels: the working range, the
# |v| < V_EPS fallback and its edge, the exp clamp (n2*q/kT*|v| > 700: above
# 1.05 kV for the first model, 1.2 V for the second), signed zeros and
# non-finite input.
_RTD_V = st.one_of(st.floats(-20.0, 20.0), st.floats(-2 * V_EPS, 2 * V_EPS),
                   st.floats(1e3, 1e6), st.floats(-1e6, -1e3),
                   st.sampled_from([0.0, -0.0, V_EPS, -V_EPS, 1e-6, 1052.0,
                                    math.inf, -math.inf, math.nan]))
_RTD_MODELS = [RtdModel(a=1e-4, b=2.0, cp=1.5, d=0.3, h=1.43e-8, n1=0.35,
                        n2=0.0172, area=2.0),
               RtdModel(a=3e-3, b=0.1, cp=0.2, d=0.05, h=1e-6, n1=1.2, n2=4.0,
                        temp=77.0)]


def _no_array_path():
    """Fail any call that converts its argument to an array."""
    return mock.patch.object(devices, "_as_array",
                             side_effect=AssertionError("float took the array path"))


def _outcome(f, m, v):
    """Result (or DeviceError text) and flop bill of one kernel call; with
    ``m`` None, ``f`` is called as ``f(v, fc)``."""
    fc = FlopCounter()
    try:
        return (f(v, fc) if m is None else f(m, v, fc)), fc
    except DeviceError as exc:
        return f"DeviceError: {exc}", fc


class TestRtdFloatPath:
    @settings(max_examples=300, deadline=None)
    @given(_RTD_V, st.sampled_from(_RTD_MODELS),
           st.sampled_from([rtd_current, rtd_geq, rtd_dgeq_dv, rtd_didv]))
    def test_float_matches_one_element_array(self, v, m, f):
        arr, fc_arr = _outcome(f, m, np.array([v]))
        for arg in (v, np.float64(v)):
            with _no_array_path():
                got, fc = _outcome(f, m, arg)
            if isinstance(arr, str):
                assert got == arr
            else:
                assert type(got) is float
                assert np.array([got]).tobytes() == arr.tobytes()
            assert fc == fc_arr

    def test_float_helpers_match_array_kernels(self):
        # a dense grid: math.exp differs from np.exp for ~5 % of arguments,
        # but only ~0.06 % of them survive into the logistic function
        x = np.concatenate([np.random.default_rng(5).uniform(-40.0, 40.0, 20000),
                            np.linspace(-800.0, 800.0, 2001)])
        for helper in (devices._sigmoid,
                       functools.partial(devices._clamped, np.exp),
                       functools.partial(devices._clamped, np.expm1)):
            scalars = [helper(v) for v in x.tolist()]
            assert all(type(g) is float for g in scalars)
            assert np.array(scalars).tobytes() == helper(x).tobytes()
        # the float twin of _log1pexp, with or without the logistic term
        for sigmoid in (True, False):
            pairs = [devices._log1pexp_sigmoid(v, sigmoid) for v in x.tolist()]
            assert all(type(a) is float and type(b) is float for a, b in pairs)
            logs, sigs = (np.array(col) for col in zip(*pairs))
            assert logs.tobytes() == devices._log1pexp(x).tobytes()
            assert sigs.tobytes() == (devices._sigmoid(x) if sigmoid
                                      else np.zeros_like(x)).tobytes()


# the three kinds of array element the kernels split on: |v| < V_EPS (RTD
# slope at the origin), ordinary, and a Fermi argument x > 30 (_log1pexp's
# large branch; |v| >= 1 V on both _RTD_MODELS)
_RTD_PIECE_V = {
    "tiny": st.sampled_from([0.0, -0.0, 0.5 * V_EPS, -0.999 * V_EPS]),
    "ordinary": st.floats(1e-6, 0.2).flatmap(lambda a: st.sampled_from([a, -a])),
    "large": st.floats(1.0, 30.0).flatmap(lambda a: st.sampled_from([a, -a]))}
_LOG1PEXP_PIECE_X = {"ordinary": st.floats(-60.0, 30.0), "large": st.floats(30.0, 700.0,
                                                                          exclude_min=True)}


@st.composite
def _mixed_pieces(draw, kinds):
    """Two to five pieces, each of one kind of element and the first two of
    different kinds: every piece takes a kernel's uniform (whole-array)
    path, their concatenation its masked path."""
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=2, max_size=5)
                 .filter(lambda ks: ks[0] != ks[1]))
    return [np.array(draw(st.lists(kinds[k], min_size=1, max_size=6))) for k in names]


def _mixed(mask: np.ndarray) -> bool:
    return bool(mask.any() and not mask.all())


class TestArrayFastPaths:
    """A kernel evaluates an array whose masks are uniform without them;
    elementwise that gives the bytes of the masked evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(_mixed_pieces(_RTD_PIECE_V), st.sampled_from(_RTD_MODELS),
           st.sampled_from([rtd_geq, rtd_current, rtd_didv]))
    def test_rtd_kernels_whole_equals_pieces(self, pieces, m, f):
        whole = np.concatenate(pieces)
        masks = (lambda v: np.abs(v) < V_EPS, lambda v: np.abs(v) >= 1.0)
        assert not any(_mixed(mask(piece)) for piece in pieces for mask in masks)
        assert any(_mixed(mask(whole)) for mask in masks)
        fc_whole, fc_pieces = FlopCounter(), FlopCounter()
        got = f(m, whole, fc_whole)
        want = np.concatenate([f(m, piece, fc_pieces) for piece in pieces])
        assert got.tobytes() == want.tobytes()
        # rtd_geq bills the slope at the origin once per call, not per piece
        if f is not rtd_geq:
            assert fc_whole == fc_pieces

    @settings(max_examples=200, deadline=None)
    @given(_mixed_pieces(_LOG1PEXP_PIECE_X))
    def test_log1pexp_whole_equals_pieces(self, pieces):
        assert not any(_mixed(piece > 30.0) for piece in pieces)
        assert _mixed(np.concatenate(pieces) > 30.0)
        got = devices._log1pexp(np.concatenate(pieces))
        want = np.concatenate([devices._log1pexp(piece) for piece in pieces])
        assert got.tobytes() == want.tobytes()


def _log1pexp_masked(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x) by boolean index: each side of x > 30 in its own form."""
    out = np.empty_like(x)
    big = x > 30.0
    out[big] = x[big] + np.log1p(np.exp(-x[big]))
    out[~big] = np.log1p(np.exp(x[~big]))
    return out


_LOG1PEXP_X = (st.floats(-1e6, 1e6) | st.floats(20.0, 40.0)
               | st.sampled_from([30.0, math.nextafter(30.0, 31.0), math.nextafter(30.0, 29.0),
                                  0.0, -0.0, -745.2, 709.8]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LOG1PEXP_X, min_size=1, max_size=64), st.booleans())
def test_mixed_log1pexp_equals_masked(xs, rows):
    # every array, straddling 30 or on one side of it, takes the one
    # mask-free path: each form sees only arguments clamped to its own side,
    # so nothing overflows under the ensemble's error state, and picks the
    # same elements
    x = np.array(xs)
    if rows:
        x = np.stack((x, x[::-1]))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert devices._log1pexp(x).tobytes() == _log1pexp_masked(x).tobytes()


def _same_outcome(got, arr):
    """A scalar-path result matches the one-element array path: the same
    error text, or a Python float with the same bits."""
    if isinstance(arr, str):
        assert got == arr
    else:
        assert type(got) is float
        assert np.array([got]).tobytes() == np.asarray(arr, dtype=float).reshape(1).tobytes()


_NANOWIRE_MODELS = [NanowireModel(g0=2e-5, vstep=0.5, nsteps=5, smooth=0.05),
                    NanowireModel(g0=1e-4, vstep=0.25, nsteps=12, smooth=0.02)]


def _nanowire_grid(m):
    """Voltages over every branch of the nanowire kernels: the step
    positions and their neighbours, |v| < V_EPS, signed zeros, far beyond
    the last step, both signs, random points, and non-finite input."""
    steps = [i * m.vstep for i in range(1, m.nsteps + 1)]
    v = [s + d for s in steps for d in (0.0, -1e-9, 1e-9, -m.smooth, m.smooth)]
    v += [0.0, V_EPS, 0.5 * V_EPS, 1e-12, 0.1, 7.3, 40.0, 1e3]
    v += np.random.default_rng(m.nsteps).uniform(0.0, 1.2 * steps[-1], 100).tolist()
    return v + [-x for x in v] + [math.inf, -math.inf, math.nan]


class TestNanowireFloatPath:
    @pytest.mark.parametrize("m", _NANOWIRE_MODELS, ids=["nsteps5", "nsteps12"])
    @pytest.mark.parametrize("f", [nanowire_geq, nanowire_current, nanowire_dgeq_dv,
                                   nanowire_didv])
    def test_float_matches_one_element_array(self, m, f):
        for v in _nanowire_grid(m):
            arr, fc_arr = _outcome(f, m, np.array([v]))
            for arg in (v, np.float64(v)):
                with _no_array_path():
                    got, fc = _outcome(f, m, arg)
                _same_outcome(got, arr)
                assert fc == fc_arr

    @pytest.mark.parametrize("m", _NANOWIRE_MODELS, ids=["nsteps5", "nsteps12"])
    @pytest.mark.parametrize("f", [nanowire_geq, nanowire_current, nanowire_dgeq_dv,
                                   nanowire_didv])
    def test_array_matches_float_loop(self, m, f):
        v = [x for x in _nanowire_grid(m) if math.isfinite(x)]
        fc_arr, fc_loop = FlopCounter(), FlopCounter()
        arr = f(m, np.array(v), fc_arr)
        assert np.array([f(m, x, fc_loop) for x in v]).tobytes() == arr.tobytes()
        assert fc_arr == fc_loop


def _tally_cases():
    """Each billed two-terminal kernel with a model and its (adds, muls,
    divs, transcendentals) per element away from the origin."""
    rtd = {rtd_current: (8, 9, 2, 6), rtd_geq: (8, 9, 3, 6), rtd_didv: (10, 16, 4, 8),
           rtd_dgeq_dv: (12, 18, 6, 8)}
    cases = [pytest.param(f, _RTD_MODELS[0], t, id=f.__name__) for f, t in rtd.items()]
    for m in _NANOWIRE_MODELS:
        k = m.nsteps
        nanowire = {nanowire_geq: (2 * k, k + 1, k, k), nanowire_current: (2 * k, k + 2, k, k),
                    nanowire_dgeq_dv: (2 * k, 2 * k + 2, 1, k),
                    nanowire_didv: (4 * k + 1, 3 * k + 4, k + 1, 2 * k)}
        cases += [pytest.param(f, m, t, id=f"{f.__name__}-nsteps{k}")
                  for f, t in nanowire.items()]
    return cases


@pytest.mark.parametrize("f, m, tally", _tally_cases())
def test_kernel_bills_its_tally_per_element(f, m, tally):
    # the float-vs-array tests compare the two paths with each other only
    for v, n in ((0.7, 1), (np.array([0.7, -1.3, 2.5]), 3)):
        fc = FlopCounter()
        f(m, v, fc)
        assert fc == FlopCounter(*(n * t for t in tally))


_MOS_KERNELS = [mos_current, mos_geq, mos_didv, mos_gm]


def _mos_call(f, m, vgs, vds, fc):
    """One MOSFET kernel call; ``mos_didv`` and ``mos_gm`` are unbilled."""
    return f(m, vgs, vds, fc) if f in (mos_current, mos_geq) else f(m, vgs, vds)


class TestMosFloatPath:
    m = MosModel(k=1e-4, w=2e-6, l=1e-6, vth=1.0)
    vgs = [-1.0, 0.0, 0.999, 1.0, 1.0 + 1e-12, 1.5, 3.0, 5.0, math.nan]
    vds = [0.0, -0.0, 1e-12, V_EPS, 0.3, 0.5, 0.5 + 1e-15, 2.0, 4.0, 1e3, -1e-9,
           math.inf, math.nan]

    @pytest.mark.parametrize("f", _MOS_KERNELS, ids=lambda f: f.__name__)
    def test_float_matches_one_element_array(self, f):
        for vgs in self.vgs + [1.7, 2.3, 3.9]:
            # vds == vgs - vth sits on the triode/saturation boundary
            for vds in self.vds + [vgs - self.m.vth]:
                arr, fc_arr = _outcome(functools.partial(_mos_call, f, self.m, vgs),
                                       None, np.array([vds]))
                for args in ((vgs, vds), (np.float64(vgs), np.float64(vds))):
                    with _no_array_path():
                        got, fc = _outcome(functools.partial(_mos_call, f, self.m, args[0]),
                                           None, args[1])
                    _same_outcome(got, arr)
                    assert fc == fc_arr

    def test_bias_matches_array_path(self):
        # np.minimum semantics on floats: NaN wins, a tie of signed zeros
        # gives vs
        vals = [0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan]
        with np.errstate(invalid="ignore"):
            for vd in vals:
                for vs in vals:
                    for vg in (0.0, -0.0, 1.5, math.nan):
                        got = mos_bias(vd, vg, vs)
                        arr = mos_bias(np.array([vd]), np.array([vg]), np.array([vs]))
                        _same_outcome(got[0], arr[0])
                        _same_outcome(got[1], arr[1])
                        assert got[2] == bool(arr[2][0])


class TestGeqPredict:
    def test_zero_slew_keeps_value(self):
        st = DeviceState(v_now=1.0, v_prev=1.0, h_prev=1e-12, geq_now=1e-3)
        assert geq_predict(st, 2e-3, 1e-12) == 1e-3

    def test_hand_value(self):
        # the step's end: 1e-3 + 1e-12 * 2e-3 * 1e9 = 1.002e-3
        st = DeviceState(v_now=1.0, v_prev=1.0 - 1e-3, h_prev=1e-12, geq_now=1e-3)
        assert geq_predict(st, 2e-3, 1e-12) == pytest.approx(1.002e-3, rel=1e-12)

    def test_floor_clamp(self):
        st = DeviceState(v_now=0.0, v_prev=1.0, h_prev=1e-12, geq_now=1e-9)
        assert geq_predict(st, 1.0, 1e-9) == G_FLOOR

    def test_requires_history(self):
        with pytest.raises(DeviceError):
            geq_predict(DeviceState(), 1.0, 1e-12)


class TestMos:
    m = MosModel(k=1e-4, w=2e-6, l=1e-6, vth=1.0)

    def test_cutoff(self):
        assert mos_current(self.m, 1.0, 2.0) == 0.0
        assert mos_geq(self.m, 0.5, 2.0) == 0.0

    def test_triode_hand_value(self):
        # beta = 2e-4, vov = 2, vds = 1: i = 2e-4*(2 - 0.5) = 3e-4
        assert mos_current(self.m, 3.0, 1.0) == pytest.approx(3e-4)
        assert mos_geq(self.m, 3.0, 1.0) == pytest.approx(3e-4)

    def test_boundary_continuity(self):
        vov = 2.0
        below = mos_current(self.m, 3.0, vov - 1e-13)
        above = mos_current(self.m, 3.0, vov + 1e-13)
        sat = 0.5 * self.m.beta * vov * vov
        assert abs(below - sat) <= 1e-12 * sat
        assert abs(above - sat) <= 1e-12 * sat
        g_below = mos_geq(self.m, 3.0, vov - 1e-13)
        g_above = mos_geq(self.m, 3.0, vov + 1e-13)
        assert abs(g_below - g_above) <= 1e-12 * g_below

    def test_vds_zero_limit(self):
        assert mos_geq(self.m, 3.0, 0.0) == pytest.approx(4e-4)

    def test_saturation_branch(self):
        assert mos_current(self.m, 3.0, 4.0) == pytest.approx(4e-4)
        assert mos_geq(self.m, 3.0, 4.0) == pytest.approx(1e-4)

    def test_didv_branches(self):
        assert mos_didv(self.m, 3.0, 4.0) == 0.0
        assert mos_didv(self.m, 3.0, 1.0) == pytest.approx(2e-4)

    def test_negative_vds_rejected(self):
        # the vds >= 0 contract of every MOSFET kernel, on floats and arrays
        for f in _MOS_KERNELS:
            for vds in (-0.1, -1e-300, np.array([0.5, -1e-9]),
                        np.array([[1.0, 2.0], [-2.0, 0.0]])):
                with pytest.raises(DeviceError, match=f"{f.__name__} requires vds >= 0"):
                    f(self.m, 3.0, vds)
                with pytest.raises(DeviceError, match=f"{f.__name__} requires vds >= 0"):
                    f(self.m, np.full(np.shape(vds), 3.0), vds)


# Bias points over every MOS region for vth = 1: cutoff (vgs <= 1), triode,
# saturation, the vds < V_EPS limit and the exact region boundaries.
_VGS = st.one_of(st.floats(-3.0, 6.0), st.sampled_from([1.0, 1.0 + 1e-12, 3.0]))
_VDS = st.one_of(st.floats(0.0, 6.0), st.floats(0.0, V_EPS),
                 st.sampled_from([0.0, V_EPS, 2.0]))
_V = st.floats(-6.0, 6.0)


def _mos_geq_ref(m, vgs, vds, fc):
    """Square-law chord conductance of one bias point in plain floats, with
    the operation order and flop billing of the model."""
    vov = vgs - m.vth
    if vov <= 0.0:
        fc.count(adds=1)
        return 0.0
    fc.count(adds=2, muls=3, divs=1)
    if vds < V_EPS:
        return m.beta * vov
    if vds < vov:
        return m.beta * (vov - 0.5 * vds)
    return 0.5 * m.beta * vov * vov / max(vds, V_EPS)


@st.composite
def _mos_arrays(draw, *voltages):
    """One array per strategy in ``voltages``, all of one shape: a row of
    bias points or a members x paths grid of them."""
    points = draw(st.lists(st.tuples(*voltages), min_size=1, max_size=40))
    rows = draw(st.sampled_from([1, 2, 3]))
    shape = (len(points),) if rows > len(points) else (rows, len(points) // rows)
    points = points[:math.prod(shape)]
    return tuple(np.array(col).reshape(shape) for col in zip(*points))


# the ensemble's error state: the array path evaluates both region formulas
# on every element, so mos_geq's saturation division must stay guarded at vds = 0
_RAISE = dict(over="raise", invalid="raise", divide="raise")


class TestMosArrays:
    m = MosModel(k=1e-4, w=2e-6, l=1e-6, vth=1.0)

    def _float_loop(self, f, vgs, vds, fc):
        with _no_array_path():
            scalars = [_mos_call(f, self.m, g, d, fc) for g, d in zip(vgs, vds)]
        assert all(type(g) is float for g in scalars)
        return np.array(scalars)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_MOS_KERNELS), _mos_arrays(_VGS, _VDS))
    def test_array_matches_float_loop(self, f, arrays):
        vgs, vds = arrays
        fc_arr, fc_loop, fc_ref = FlopCounter(), FlopCounter(), FlopCounter()
        with np.errstate(**_RAISE):
            arr = _mos_call(f, self.m, vgs, vds, fc_arr)
        loop = self._float_loop(f, vgs.ravel().tolist(), vds.ravel().tolist(), fc_loop)
        assert arr.shape == vgs.shape
        assert arr.tobytes() == loop.tobytes()
        assert fc_arr == fc_loop
        if f is mos_geq:
            ref = np.array([_mos_geq_ref(self.m, g, d, fc_ref)
                            for g, d in zip(vgs.ravel().tolist(), vds.ravel().tolist())])
            assert arr.tobytes() == ref.tobytes()
            assert fc_arr == fc_ref

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_MOS_KERNELS), _VGS, _mos_arrays(_VDS))
    def test_scalar_vgs_broadcasts(self, f, vgs, arrays):
        vds, = arrays
        fc_arr, fc_loop = FlopCounter(), FlopCounter()
        with np.errstate(**_RAISE):
            arr = _mos_call(f, self.m, vgs, vds, fc_arr)
        loop = self._float_loop(f, [vgs] * vds.size, vds.ravel().tolist(), fc_loop)
        assert arr.shape == vds.shape
        assert arr.tobytes() == loop.tobytes()
        assert fc_arr == fc_loop

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_V, _V, _V), min_size=1, max_size=40))
    def test_bias_symmetric_in_drain_and_source(self, terms):
        vd, vg, vs = (np.array(col) for col in zip(*terms))
        vgs, vds, rev = mos_bias(vd, vg, vs)
        vgs_sw, vds_sw, rev_sw = mos_bias(vs, vg, vd)
        assert np.array_equal(vgs, vgs_sw) and np.array_equal(vds, vds_sw)
        assert np.array_equal(rev, vd < vs) and not np.any(rev & rev_sw)
        for k, (d, g, s) in enumerate(terms):
            assert (vgs[k], vds[k]) == (g - min(d, s), abs(d - s))
            assert tuple(mos_bias(d, g, s)) == (vgs[k], vds[k], rev[k])


class TestNanowire:
    m = NanowireModel(g0=2e-5, vstep=0.5, nsteps=5, smooth=0.025)

    def test_near_zero(self):
        g = nanowire_geq(self.m, 0.0)
        bound = self.m.nsteps * self.m.g0 / (1 + math.exp(self.m.vstep / self.m.smooth))
        assert 0.0 <= g <= bound * (1 + 1e-9)
        assert g < 1e-2 * self.m.g0

    def test_plateau_values(self):
        for p in (1, 2, 3, 4):
            v = (p + 0.5) * self.m.vstep
            assert nanowire_geq(self.m, v) == pytest.approx(p * self.m.g0, rel=0.01)

    def test_symmetry(self):
        v = np.linspace(0.0, 4.0, 200)
        assert np.allclose(nanowire_geq(self.m, v), nanowire_geq(self.m, -v),
                           rtol=0, atol=0)

    def test_monotone_in_magnitude(self):
        v = np.linspace(0.0, 5.0, 4000)
        g = nanowire_geq(self.m, v)
        assert np.all(np.diff(g) >= -1e-18)

    def test_current_and_slope(self):
        for v in (0.3, 0.75, 1.6):
            assert nanowire_current(self.m, v) == pytest.approx(
                nanowire_geq(self.m, v) * v)
            d = 1e-7
            fd = (nanowire_geq(self.m, v + d) - nanowire_geq(self.m, v - d)) / (2 * d)
            assert nanowire_dgeq_dv(self.m, v) == pytest.approx(fd, rel=1e-4)


class TestStepBound:
    def test_static_device_unconstrained(self):
        st = DeviceState(v_now=2.0, v_prev=2.0, h_prev=1e-12)
        assert device_step_bound(st, mosfet=False) == math.inf

    def test_mos_hand_value(self):
        # overdrive 1 V slewing at 1e9 V/s -> 2e-9 s
        st = DeviceState(ctrl_now=2.0, ctrl_prev=2.0 - 1e-3, h_prev=1e-12,
                         overdrive=1.0)
        assert device_step_bound(st, mosfet=True) == pytest.approx(2e-9)

    def test_rtd_hand_value(self):
        # v = 2 V slewing at 4e9 V/s -> 1e-9 s
        st = DeviceState(v_now=2.0, v_prev=2.0 - 4e-3, h_prev=1e-12)
        assert device_step_bound(st, mosfet=False) == pytest.approx(1e-9)

    def test_off_mosfet_unconstrained(self):
        st = DeviceState(ctrl_now=0.5, ctrl_prev=0.0, h_prev=1e-12, overdrive=-0.5)
        assert device_step_bound(st, mosfet=True) == math.inf


class TestModelValidation:
    def test_rtd_invariants(self):
        with pytest.raises(DeviceError):
            RtdModel(a=-1e-4, b=2.0, cp=1.5, d=0.3, h=1.43e-8, n1=0.35, n2=0.0172)
        with pytest.raises(DeviceError):
            RtdModel(a=1e-4, b=2.0, cp=1.5, d=0.3, h=1.43e-8, n1=0.35, n2=-0.1)

    def test_mos_invariants(self):
        with pytest.raises(DeviceError):
            MosModel(k=0.0, w=1e-6, l=1e-6, vth=1.0)

    def test_nanowire_invariants(self):
        with pytest.raises(DeviceError):
            NanowireModel(g0=1e-5, vstep=0.5, nsteps=0, smooth=0.02)

    def test_nanowire_step_bound(self):
        # an array kernel holds nsteps doubles per voltage: a billion-step
        # staircase is refused before any step table is built
        m = NanowireModel(g0=1e-5, vstep=0.5, nsteps=1000, smooth=0.02)
        assert len(m.step_voltages) == 1000
        for nsteps in (1001, 10**9):
            with pytest.raises(DeviceError, match=r"nsteps must be in 1\.\.1000"):
                NanowireModel(g0=1e-5, vstep=0.5, nsteps=nsteps, smooth=0.02)
