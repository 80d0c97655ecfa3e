"""Engine tests: adaptive stepping, operating points, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim.devices import G_FLOOR, rtd_current
from nanosim.netlist import ElementKind, TranAnalysis, parse_netlist
from nanosim.nr import brute_force_dc
from nanosim.swec import (_H_MIN, _LIMITERS, _LTE_VOLTS, SimulationError, _Engine,
                          _limiter, dc_sweep, next_step_size, operating_point,
                          pin_source, transient)

from conftest import card, deck_text, integrator_replay

_RTD_CARD = ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)"


def _rtd_divider(r, vin=0.0):
    """V1 -- R1 -- node 2 -- XRTD1 -- ground, with the ``rtd`` fixture's RTD."""
    return parse_netlist(f"V1 1 0 DC {vin!r}\nR1 1 2 {r!r}\nXRTD1 2 0 M1\n"
                         f"{_RTD_CARD}\n.end\n")


class TestNextStepSize:
    def test_truncation_error_term(self):
        # lte four times its budget allows half a backward-Euler step (lte
        # grows as h**2)
        h = next_step_size(1e-12, lte=4e-4, lte_tol=1e-4, err=0.0, eps=0.01,
                           h_min=1e-15, h_max=1.0, order=1)
        assert h == pytest.approx(0.9 * 0.5e-12)

    def test_cube_root_truncation_error_term(self):
        # lte eight times its budget allows half a BDF2 step (lte grows as h**3)
        h = next_step_size(1e-12, lte=8e-4, lte_tol=1e-4, err=0.0, eps=0.01,
                           h_min=1e-15, h_max=1.0, order=2)
        assert h == pytest.approx(0.9 * 0.5e-12)
        # lte a 64th of its budget allows 0.9 * 4 h: the 2x growth cap binds
        h = next_step_size(1e-12, lte=1e-4 / 64, lte_tol=1e-4, err=0.0, eps=0.01,
                           h_min=1e-15, h_max=1.0, order=2)
        assert h == 2e-12
        assert _limiter(1e-12, h, 1e-4 / 64, 1e-4, 0.0, 0.01, 1.0, 2) == "growth"
        # a quarter of its budget allows 0.9 * 4 ** (1/3) = 1.43 h
        h = next_step_size(1e-12, 1e-4 / 4, 1e-4, 0.0, 0.01, 1e-15, 1.0, 2)
        assert h == pytest.approx(0.9 * 4.0 ** (1.0 / 3.0) * 1e-12)
        assert _limiter(1e-12, h, 1e-4 / 4, 1e-4, 0.0, 0.01, 1.0, 2) == "lte"

    def test_chord_lag_term(self):
        # a lag of four times eps allows half the step (the lag is taken to
        # grow as h**2 whatever the order)
        for order in (1, 2):
            h = next_step_size(1e-12, 0.0, 1e-4, err=0.04, eps=0.01, h_min=1e-15,
                               h_max=1.0, order=order)
            assert h == pytest.approx(0.9 * 0.5e-12)

    def test_smaller_term_wins(self):
        h = next_step_size(1e-12, lte=1e-4 / 16, lte_tol=1e-4, err=0.04, eps=0.01,
                           h_min=1e-15, h_max=1.0, order=1)
        assert h == pytest.approx(0.9 * 0.5e-12)
        h = next_step_size(1e-12, lte=1e-4, lte_tol=1e-4, err=0.001, eps=0.01,
                           h_min=1e-15, h_max=1.0, order=1)
        assert h == pytest.approx(0.9e-12)

    def test_cube_root_term_is_attributed(self):
        # lte 8x its budget and a lag 5x eps: a BDF2 step's lte allows
        # 0.9 * 0.5 h and the lag 0.9 * sqrt(1/5) h = 0.9 * 0.447 h, so the lag
        # binds; read as a square root (backward Euler) the lte would allow
        # only 0.9 * 0.354 h and bind instead
        args = dict(lte=8e-4, lte_tol=1e-4, err=0.05, eps=0.01)
        h2 = next_step_size(1e-12, **args, h_min=1e-15, h_max=1.0, order=2)
        assert h2 == pytest.approx(0.9 * math.sqrt(0.2) * 1e-12)
        assert _limiter(1e-12, h2, **args, h_max=1.0, order=2) == "lag"
        h1 = next_step_size(1e-12, **args, h_min=1e-15, h_max=1.0, order=1)
        assert h1 == pytest.approx(0.9 * math.sqrt(0.125) * 1e-12)
        assert _limiter(1e-12, h1, **args, h_max=1.0, order=1) == "lte"
        # a lag 3x eps allows 0.9 * 0.577 h: the BDF2 step's lte binds
        args["err"] = 0.03
        h2 = next_step_size(1e-12, **args, h_min=1e-15, h_max=1.0, order=2)
        assert h2 == pytest.approx(0.9 * 0.5e-12)
        assert _limiter(1e-12, h2, **args, h_max=1.0, order=2) == "lte"

    def test_no_terms_gives_h_max(self):
        assert next_step_size(1.5, 0.0, 1e-4, 0.0, 0.01, 1e-15, 2.0, 2) == 2.0

    def test_clamps(self):
        # growth at most 2x, however small the estimates
        for order in (1, 2):
            assert next_step_size(1e-12, 1e-30, 1e-4, 1e-30, 0.01, 1e-15, 1.0, order) == 2e-12
            assert next_step_size(1e-12, 0.0, 1e-4, 0.0, 0.01, 1e-15, 1.0, order) == 2e-12
            assert next_step_size(1e-12, 1e6, 1e-4, 0.0, 0.01, 1e-15, 1.0, order) == 1e-15
            assert next_step_size(1e-12, 0.0, 1e-4, 1e6, 0.01, 1e-15, 1.0, order) == 1e-15
            assert next_step_size(1e-6, 0.0, 1e-4, 0.001, 0.01, 1e-15, 1e-6, order) == 1e-6

    def test_nan_estimate_gives_h_min(self):
        for order in (1, 2):
            assert next_step_size(1e-12, math.nan, 1e-4, 0.0, 0.01, 1e-15, 1.0,
                                  order) == 1e-15
            assert next_step_size(1e-12, 0.0, 1e-4, math.nan, 0.01, 1e-15, 1.0,
                                  order) == 1e-15


class TestLocalError:
    """The chord lag at the capacitive RTD node of ``rtd_divider_tran``:
    with the node at v0 before the step, a solved move dv and stamped
    conductances gp (predicted) and ga (re-evaluated), the move the
    re-evaluated conductance implies is ((cjh + gp) dv - (ga - gp) v0) /
    (cjh + ga), cjh = C / h."""

    FLOOR = _LTE_VOLTS * 0.01
    H, GP, GA = 1e-12, 0.5, 1.0

    @pytest.fixture(scope="class")
    def engine(self):
        return _Engine(parse_netlist(deck_text("rtd_divider_tran.ckt")))

    def lag(self, engine, v0, dv):
        j = engine.nodes.index("2")
        x_old = [0.0] * engine.circuit.size
        x_old[j] = v0
        x_new = list(x_old)
        x_new[j] = v0 + dv
        return engine.local_error([self.GP], [self.GA], x_old, x_new, self.H, self.FLOOR)

    def test_continuous_across_the_floor(self, engine):
        cjh = engine.circuit.C.diagonal()[engine.nodes.index("2")] / self.H
        ratio = (cjh + self.GA) / (cjh + self.GP)
        # solved moves whose implied move is the floor times 1 +- 1e-6
        above, below = (self.lag(engine, 0.0, self.FLOOR * (1.0 + d) * ratio)
                        for d in (1e-6, -1e-6))
        assert above == pytest.approx(ratio - 1.0, rel=1e-9)
        assert below == pytest.approx(above * (1.0 - 1e-6), rel=1e-9)

    def test_zero_move_is_judged_against_the_floor(self, engine):
        cjh = engine.circuit.C.diagonal()[engine.nodes.index("2")] / self.H
        v0 = 0.5
        # the solved move for which the implied move is zero
        m = (self.GA - self.GP) * v0 / (cjh + self.GP)
        assert self.lag(engine, v0, m) == pytest.approx(m / self.FLOOR, rel=1e-9)


class TestLinearTransient:
    def test_rc_matches_analytic(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        series = transient(net, 5e-9)
        tau = 1e-9
        exact = 1.0 - np.exp(-series.times / tau)
        err = np.max(np.abs(series.v("out") - exact))
        assert err <= 0.01 * 1.0
        assert series.steps_rejected == 0
        assert series.hmin_warnings == 0

    def test_sub_volt_rc_step_within_eps(self):
        # the truncation-error budget scales down with a drive below 1 V
        net = parse_netlist("V1 in 0 DC 0.1\nR1 in out 1k\nC1 out 0 1p\n.end\n")
        series = transient(net, 5e-9)
        exact = 0.1 * -np.expm1(-series.times / 1e-9)
        assert np.max(np.abs(series.v("out") - exact)) <= 0.01 * 0.1

    def test_rc_matches_bdf2_replay(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        series = transient(net, 5e-9)
        # independent dense replay of the recurrence on the accepted times
        replay = integrator_replay(series.times, 1e-3, 1e-12, lambda t: [1e-3])[:, 0]
        got = series.v("out")
        scale = np.max(np.abs(replay))
        assert np.max(np.abs(got - replay)) <= 1e-10 * scale

    def test_solve_count_identity(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        series = transient(net, 5e-9)
        assert series.n_solves == series.steps_taken + series.steps_rejected

    def test_rc_ladder_matches_bdf2_replay(self):
        deck = ("V1 in 0 DC 2\nR1 in a 1k\nC1 a 0 2p\nR2 a b 3k\nC2 b 0 1p\n"
                "R3 b 0 5k\n.tran 20n\n.end\n")
        series = transient(parse_netlist(deck), 20e-9)
        # independent two-state replay on the same accepted times
        g1, g2, g3 = 1e-3, 1.0 / 3e3, 2e-4
        G = np.array([[g1 + g2, -g2], [-g2, g2 + g3]])
        C = np.diag([2e-12, 1e-12])
        replay = integrator_replay(series.times, G, C, lambda t: np.array([g1 * 2.0, 0.0]))
        got = np.column_stack([series.v("a"), series.v("b")])
        assert np.max(np.abs(got - replay)) <= 1e-10 * np.max(np.abs(replay))

    def test_pwl_rc_matches_bdf2_replay(self):
        # a PWL drive: each step from a source breakpoint is backward Euler
        corners = ((0.0, 0.0), (1e-9, 1.0), (3e-9, 1.0), (3.5e-9, 0.2), (6e-9, 0.5))
        pwl = " ".join(f"{t!r} {v!r}" for t, v in corners)
        series = transient(parse_netlist(f"V1 in 0 PWL({pwl})\nR1 in out 1k\n"
                                         "C1 out 0 1p\n.end\n"), 8e-9)
        bps = [t for t, _ in corners[1:]]
        assert all(np.min(np.abs(series.times - bp)) <= 1e-12 * bp for bp in bps)
        ts, vs = zip(*corners)

        def drive(t):
            return [np.interp(t, ts, vs) * 1e-3]

        replay = integrator_replay(series.times, 1e-3, 1e-12, drive, bps)[:, 0]
        got = series.v("out")
        assert np.max(np.abs(got - replay)) <= 1e-10 * np.max(np.abs(replay))
        # the restarts matter: BDF2 straight across the corners is another answer
        straight = integrator_replay(series.times, 1e-3, 1e-12, drive)[:, 0]
        assert np.max(np.abs(got - straight)) > 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.floats(100.0, 1e5), st.floats(0.1e-12, 10e-12),
           st.sampled_from([0.04, 0.02, 0.01]))
    def test_rc_step_within_eps(self, r, c, eps):
        tau = r * c
        net = parse_netlist(f"V1 in 0 DC 1\nR1 in out {r!r}\nC1 out 0 {c!r}\n.end\n")
        series = transient(net, 5.0 * tau, eps)
        assert series.n_solves == series.steps_taken + series.steps_rejected
        # against the analytic response on a dense grid, interpolation included
        grid = np.linspace(0.0, 5.0 * tau, 5001)
        got = np.interp(grid, series.times, series.v("out"))
        assert np.max(np.abs(got + np.expm1(-grid / tau))) <= eps * 1.0
        # against the recurrence replayed on the accepted times
        replay = integrator_replay(series.times, 1.0 / r, c, lambda t: [1.0 / r])[:, 0]
        assert np.max(np.abs(series.v("out") - replay)) <= 1e-10

    def test_noise_sources_rejected(self):
        net = parse_netlist(deck_text("ou_step.ckt"))
        with pytest.raises(SimulationError):
            transient(net, 1e-6)


class TestOperatingPoint:
    def test_divider(self):
        net = parse_netlist(deck_text("divider.ckt"))
        op = operating_point(net)
        assert op.settled
        assert op.v("2") == pytest.approx(2.5, abs=1e-3)

    def test_series_rtd_consistency(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        op = operating_point(net)
        assert op.settled
        v2 = op.v("2")
        i_r = (op.v("1") - v2) / 1000.0
        i_d = rtd_current(rtd, v2)
        assert abs(i_r - i_d) <= 1e-6 * max(abs(i_r), abs(i_d))

    def test_bistable_point_is_a_stable_root(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        op = operating_point(net)
        roots = brute_force_dc(rtd, 1000.0, 12.0)
        assert len(roots) == 3
        stable = [v for v, s in roots if s]
        assert min(abs(op.v("2") - v) for v in stable) <= 1e-3

    def test_geq_floor_respected(self, monkeypatch):
        # every conductance the settle stamps, start and jumps included
        import nanosim.swec as swec
        real, stamped = swec.assemble, []

        def recording(circuit, g, **kw):
            stamped.extend(g)
            return real(circuit, g, **kw)
        monkeypatch.setattr(swec, "assemble", recording)
        op = swec.operating_point(parse_netlist(deck_text("rtd_divider_bistable.ckt")))
        assert op.settled and stamped
        assert min(stamped) >= G_FLOOR

    def test_steep_pdr2_point_settles(self, rtd):
        # the undamped chord iteration 2-cycles here (contraction factor
        # below -1 on the steep PDR2 branch); the damped one settles
        op = operating_point(_rtd_divider(200.0, 25.0))
        assert op.settled
        (root,) = [v for v, s in brute_force_dc(rtd, 200.0, 25.0) if s]
        assert abs(op.v("2") - root) <= 1e-6


class TestDcSweep:
    def test_resistor_sweep_is_linear(self):
        net = parse_netlist("V1 1 0 DC 0\nR1 1 2 2k\nR2 2 0 2k\n.dc V1 0 10 20\n.end\n")
        sweep = dc_sweep(net, "V1", 0.0, 10.0, 20)
        v2 = sweep.voltages[:, 1]
        i = (sweep.biases - v2) / 2000.0
        coef = np.polyfit(sweep.biases, i, 1)
        fit = np.polyval(coef, sweep.biases)
        ss_res = np.sum((i - fit) ** 2)
        ss_tot = np.sum((i - np.mean(i)) ** 2)
        assert 1.0 - ss_res / ss_tot >= 1.0 - 1e-12

    def test_rtd_sweep_residuals_and_roots(self, rtd):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        sweep = dc_sweep(net, "V1", 0.0, 16.0, 15)
        assert bool(np.all(sweep.settled))
        i_scale = np.max(np.abs(sweep.currents["XRTD1"]))
        for k, bias in enumerate(sweep.biases):
            v2 = sweep.voltages[k, 1]
            res = abs((bias - v2) / 100.0 - rtd_current(rtd, v2))
            assert res <= 1e-6 * i_scale
            stable = [v for v, s in brute_force_dc(rtd, 100.0, bias) if s]
            assert min(abs(v2 - v) for v in stable) <= 1e-3

    def test_swept_curve_shows_three_regions(self):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        sweep = dc_sweep(net, "V1", 0.0, 16.0, 60)
        i = sweep.currents["XRTD1"]
        slope = np.diff(i)
        signs = np.sign(slope[slope != 0.0])
        assert int(np.count_nonzero(signs[:-1] != signs[1:])) == 2

    def test_sweep_direction_continuation(self, rtd):
        # downward sweep works too; hysteresis is allowed, stability required
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        sweep = dc_sweep(net, "V1", 16.0, 0.0, 9)
        assert bool(np.all(sweep.settled))

    def test_degenerate_sweeps_settle(self):
        # a start == stop sweep gives the secant predictor a 0/0 ratio
        net = _rtd_divider(10.0)
        for lo, hi, points in ((0.0, 0.0, 3), (2.0, 7.0, 2), (16.0, 0.0, 9),
                               (5.0, 5.0, 4)):
            sweep = dc_sweep(net, "V1", lo, hi, points)
            assert sweep.settled.all()
            assert np.all(np.isfinite(sweep.voltages))
            if lo == hi:
                assert len({v.tobytes() for v in sweep.voltages}) == 1

    def test_point_solves(self):
        sweep = dc_sweep(parse_netlist(deck_text("rtd_divider.ckt")), "V1", 0.0, 16.0,
                         500)
        assert sweep.point_solves.shape == (500,)
        assert sweep.point_solves.dtype.kind == "i"
        assert int(sweep.point_solves.sum()) == sweep.n_solves
        assert sweep.n_solves / 500 < 6.0

    def test_linear_sweep_is_one_solve_per_point(self):
        net = parse_netlist("V1 1 0 DC 0\nR1 1 2 2k\nR2 2 0 3k\n.end\n")
        sweep = dc_sweep(net, "V1", 0.0, 10.0, 20)
        assert sweep.n_solves == 20
        for bias, v in zip(sweep.biases, sweep.voltages):
            assert v.tobytes() == operating_point(pin_source(net, "V1", bias)).voltages.tobytes()

    def test_non_swept_sources_hold_their_t0_level(self):
        # a PULSE on V2 must not switch while a point settles: the sweep is
        # the one of the deck with V2 written as its t = 0 level
        body = ("R2 in g 1k\nR1 vdd d 2k\nM1 d g 0 0 MFET\nXRTD1 d 0 M1\n"
                "Cg g 0 1p\nC1 d 0 2p\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".model MFET NMOS (k=1e-3 W=4u L=1u Vth=1)\n.end\n")
        pulsed, held = (dc_sweep(parse_netlist(f"V1 vdd 0 DC 5\nV2 in 0 {wave}\n" + body),
                                 "V1", 0.0, 5.0, 7)
                        for wave in ("PULSE(0 5 2n 1n 1n 5n 20n)", "DC 0"))
        assert pulsed.settled.all()
        assert pulsed.n_solves == held.n_solves == 30
        assert pulsed.voltages.tobytes() == held.voltages.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.0, 4.0), st.floats(0.0, 30.0), st.floats(0.0, 30.0),
           st.integers(2, 30))
    def test_sweeps_settle_on_stable_roots(self, rtd, log_r, start, stop, points):
        # R from 10 ohm to 10 kohm, log-uniform: the steep PDR2 points that
        # a bare chord iteration 2-cycles on sit behind R below about 1 kohm
        r = 10.0 ** log_r
        net = _rtd_divider(r)
        stable = {}
        for lo, hi in ((start, stop), (stop, start)):
            sweep = dc_sweep(net, "V1", lo, hi, points)
            assert sweep.settled.all()
            for bias, v2 in zip(sweep.biases.tolist(), sweep.voltages[:, 1]):
                if bias not in stable:
                    stable[bias] = [v for v, s in brute_force_dc(rtd, r, bias, grid=10_000)
                                    if s]
                assert min(abs(v2 - v) for v in stable[bias]) <= 1e-6

    def test_source_must_exist(self):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        with pytest.raises(ValueError):
            dc_sweep(net, "VX", 0, 1, 5)
        with pytest.raises(ValueError):
            dc_sweep(net, "R1", 0, 1, 5)
        with pytest.raises(ValueError):
            dc_sweep(net, "V1", 0, 1, 1)


class TestNonlinearTransient:
    def test_rtd_step_lands_on_root(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        series = transient(net, 20e-9)
        v_end = series.v("2")[-1]
        stable = [v for v, s in brute_force_dc(rtd, 1000.0, 12.0) if s]
        assert min(abs(v_end - v) for v in stable) <= 1e-3
        assert series.n_solves == series.steps_taken + series.steps_rejected

    def test_refinement_convergence(self):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        ref = transient(net, 20e-9, eps=0.00125)
        grid = np.linspace(1e-10, 20e-9, 400)
        ref_v = np.interp(grid, ref.times, ref.v("2"))
        devs = []
        for eps in (0.04, 0.02, 0.01):
            s = transient(net, 20e-9, eps=eps)
            devs.append(np.max(np.abs(np.interp(grid, s.times, s.v("2")) - ref_v)))
        assert devs[0] > devs[1] > devs[2]

    def test_floating_capacitor_deck(self):
        # a nanowire between two capacitive nodes coupled by floating C3:
        # both error tests must see C3
        net = parse_netlist(
            "V1 1 0 PWL(0 0 5n 3)\nR1 1 2 2k\nR2 3 0 500\nXNW1 2 3 NWM\n"
            "C1 2 0 1p\nC2 3 0 1p\nC3 2 3 0.5p\n"
            ".model NWM NW (g0=2e-5 vstep=0.5 nsteps=5 smooth=0.05)\n.end\n")
        series = transient(net, 20e-9)
        assert series.steps_rejected < 0.1 * series.n_solves
        assert series.hmin_warnings == 0
        ref = transient(net, 20e-9, eps=0.00125)
        for node in ("2", "3"):
            got = np.interp(ref.times, series.times, series.v(node))
            assert np.max(np.abs(got - ref.v(node))) <= 0.01 * 3.0

    @pytest.mark.parametrize("deck", ["fet_rtd_inverter.ckt", "rtd_dff.ckt"])
    def test_no_sub_picosecond_steps(self, deck):
        # a lag judged in volts below the truncation budget leaves no cliff
        # for a growing step to fall off
        net = parse_netlist(deck_text(deck))
        series = transient(net, card(net, TranAnalysis).t_stop)
        assert np.min(np.diff(series.times)) >= 1e-12

    def test_one_device_evaluation_per_solution(self, monkeypatch):
        # every RTD is evaluated at the starting point, at each solution and
        # at its predicted bias for each attempt after the first step; the
        # first step (accepted at its first attempt) reads the committed
        # conductance, not a call
        import nanosim.swec as swec
        real, calls = swec.rtd_geq, []

        def counted(m, v, fc=None):
            calls.append(v)
            return real(m, v, fc)

        monkeypatch.setattr(swec, "rtd_geq", counted)
        net = parse_netlist(deck_text("rtd_dff.ckt"))
        series = transient(net, card(net, TranAnalysis).t_stop)
        rtds = len(net.elements_of(ElementKind.RTD))
        assert len(calls) == rtds * (1 + series.n_solves + (series.n_solves - 1))

    @pytest.mark.parametrize("deck", ["rc_lowpass.ckt", "rtd_divider_tran.ckt",
                                      "fet_rtd_inverter.ckt"])
    def test_limiter_counts_sum_to_steps(self, deck):
        net = parse_netlist(deck_text(deck))
        series = transient(net, card(net, TranAnalysis).t_stop)
        assert tuple(series.limited_by) == _LIMITERS
        assert sum(series.limited_by.values()) == series.steps_taken
        assert series.limited_by["first"] == 1

    def test_bdf2_budget(self):
        # second-order steps and bias predictions keep the flip-flop under
        # 700 solves
        net = parse_netlist(deck_text("rtd_dff.ckt"))
        series = transient(net, card(net, TranAnalysis).t_stop)
        assert series.n_solves <= 700
        assert series.hmin_warnings == 0

    def test_bdf2_work_and_precision(self):
        # the inverter at eps = 0.01 takes at most 300 solves and stays
        # within 5 mV of its own run at eps = 1e-4, at its accepted points
        net = parse_netlist(deck_text("fet_rtd_inverter.ckt"))
        t_stop = card(net, TranAnalysis).t_stop
        series = transient(net, t_stop, 0.01)
        assert series.n_solves <= 300
        ref = transient(net, t_stop, 1e-4)
        got = np.interp(series.times, ref.times, ref.v("out"))
        assert np.max(np.abs(series.v("out") - got)) <= 0.005

    def test_truncation_error_sets_most_steps(self):
        # with conductances predicted at the step's end the truncation
        # error, not the chord lag, sets most of the inverter's steps
        net = parse_netlist(deck_text("fet_rtd_inverter.ckt"))
        series = transient(net, card(net, TranAnalysis).t_stop)
        assert series.limited_by["lag"] < series.limited_by["lte"]

    def test_rejection_chains_bounded(self):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        series = transient(net, 20e-9)
        bound = math.log2((20e-9 / 50.0) / _H_MIN) + 1
        assert series.steps_rejected <= series.steps_taken * bound

    def test_series_time_axis_strictly_increasing(self):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        series = transient(net, 20e-9)
        assert np.all(np.diff(series.times) > 0)
        assert series.voltages.shape[0] == len(series.times)

    def test_unsettled_op_reports_last_state(self, monkeypatch):
        # a budget of 2 iterations ends the settle inside the source ramp
        monkeypatch.setattr("nanosim.swec._SETTLE_ITERS", 2)
        op = operating_point(_rtd_divider(200.0, 25.0))
        assert not op.settled
        assert op.n_solves == 2
        assert np.all(np.isfinite(op.voltages))

    def test_config_validation(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        with pytest.raises(ValueError):
            transient(net, 5e-9, eps=0.0)
        with pytest.raises(ValueError):
            transient(net, 5e-9, eps=1.5)
        for t_stop in (0.0, -5e-9):
            with pytest.raises(ValueError):
                transient(net, t_stop)


class TestWorkCounters:
    """The engines' work on shipped decks, pinned exactly: a change that
    claims to keep behaviour (a faster kernel, a new data layout) must
    leave every step, rejection, solve and billed flop where it was."""

    @pytest.mark.parametrize("deck, steps, rejected, flops", [
        pytest.param("fet_rtd_inverter.ckt", 211, 34, 28813, id="fet_rtd_inverter"),
        pytest.param("rtd_divider_tran.ckt", 86, 1, 5157, id="rtd_divider_tran"),
        pytest.param("rc_lowpass.ckt", 56, 0, 392, id="rc_lowpass"),
    ])
    def test_transient(self, deck, steps, rejected, flops):
        net = parse_netlist(deck_text(deck))
        series = transient(net, card(net, TranAnalysis).t_stop)
        assert (series.steps_taken, series.steps_rejected, series.n_solves,
                series.flops.total()) == (steps, rejected, steps + rejected, flops)
        assert series.hmin_warnings == 0

    def test_rtd_sweep(self):
        sweep = dc_sweep(parse_netlist(deck_text("rtd_divider.ckt")), "V1", 0.0, 16.0,
                         500)
        assert (sweep.n_solves, sweep.flops.total()) == (1697, 56289)
        assert sweep.settled.all()

    def test_steep_rtd_sweep(self):
        # the benchmark's stress divider: its PDR2 points need the damping
        sweep = dc_sweep(_rtd_divider(200.3), "V1", 0.0, 30.0, 100)
        assert (sweep.n_solves, sweep.flops.total()) == (550, 18438)
        assert sweep.settled.all()
