"""Device model tests: currents, chord conductances, derivatives, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim.devices import (DeviceError, DeviceState, G_FLOOR, MosModel,
                             NanowireModel, RtdModel, V_EPS, device_step_bound,
                             geq_predict, mos_bias, mos_current, mos_didv,
                             mos_geq, nanowire_current, nanowire_dgeq_dv,
                             nanowire_geq, rtd_current, rtd_didv, rtd_dgeq_dv,
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


class TestGeqPredict:
    def test_zero_slew_keeps_value(self):
        st = DeviceState(v_now=1.0, v_prev=1.0, h_prev=1e-12, geq_now=1e-3)
        assert geq_predict(st, 2e-3, 1e-12) == 1e-3

    def test_hand_value(self):
        # 1e-3 + 0.5 * 1e-12 * 2e-3 * 1e9 = 1.001e-3
        st = DeviceState(v_now=1.0, v_prev=1.0 - 1e-3, h_prev=1e-12, geq_now=1e-3)
        assert geq_predict(st, 2e-3, 1e-12) == pytest.approx(1.001e-3, rel=1e-12)

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
        with pytest.raises(DeviceError):
            mos_current(self.m, 3.0, -0.1)


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


class TestMosArrays:
    m = MosModel(k=1e-4, w=2e-6, l=1e-6, vth=1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_VGS, _VDS), min_size=1, max_size=40))
    def test_array_geq_matches_scalar_loop(self, bias):
        fc_arr, fc_loop, fc_ref = FlopCounter(), FlopCounter(), FlopCounter()
        arr = mos_geq(self.m, np.array([g for g, _ in bias]),
                      np.array([d for _, d in bias]), fc_arr)
        loop = np.array([mos_geq(self.m, g, d, fc_loop) for g, d in bias])
        ref = np.array([_mos_geq_ref(self.m, g, d, fc_ref) for g, d in bias])
        assert arr.tobytes() == loop.tobytes() == ref.tobytes()
        assert fc_arr == fc_loop == fc_ref

    @settings(max_examples=100, deadline=None)
    @given(_VGS, st.lists(_VDS, min_size=1, max_size=20))
    def test_scalar_vgs_broadcasts(self, vgs, vds):
        fc_arr, fc_loop = FlopCounter(), FlopCounter()
        arr = mos_geq(self.m, vgs, np.array(vds), fc_arr)
        loop = np.array([mos_geq(self.m, vgs, d, fc_loop) for d in vds])
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
