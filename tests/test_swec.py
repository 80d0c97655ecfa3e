"""Engine tests: adaptive stepping, operating points, sweeps."""

import math

import numpy as np
import pytest

from nanosim.devices import G_FLOOR, rtd_current
from nanosim.netlist import parse_netlist
from nanosim.nr import brute_force_dc
from nanosim.swec import (SimConfig, SimulationError, dc_sweep, next_step_size,
                          operating_point, transient)

from conftest import deck_text


class TestNextStepSize:
    def test_single_rc_node(self):
        # C = 1 pF into 1 mS with a 1% budget -> 10 ps
        h = next_step_size([1e-12], [1e-3], [], eps=0.01, h_min=1e-15, h_max=1.0)
        assert h == pytest.approx(1e-11)

    def test_device_bounds_infinite(self):
        h = next_step_size([1e-12], [1e-3], [math.inf, math.inf],
                           eps=0.01, h_min=1e-15, h_max=1.0)
        assert h == pytest.approx(1e-11)

    def test_no_terms_gives_h_max(self):
        assert next_step_size([0.0], [1e-3], [], 0.01, 1e-15, 2.0) == 2.0

    def test_clamps(self):
        assert next_step_size([1e-12], [1e-3], [], 0.01, 1e-10, 1.0) == 1e-10
        assert next_step_size([1e-3], [1e-9], [], 0.5, 1e-15, 1e-6) == 1e-6


class TestLinearTransient:
    def test_rc_matches_analytic(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        series = transient(net, SimConfig(t_stop=5e-9))
        tau = 1e-9
        exact = 1.0 - np.exp(-series.times / tau)
        err = np.max(np.abs(series.v("out") - exact))
        assert err <= 0.01 * 1.0
        assert series.steps_rejected == 0
        assert series.hmin_warnings == 0

    def test_rc_matches_backward_euler_replay(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        series = transient(net, SimConfig(t_stop=5e-9))
        # independent dense backward-Euler replay on the identical step sequence
        r, c = 1e3, 1e-12
        v = 0.0
        replay = [v]
        for t0, t1 in zip(series.times, series.times[1:]):
            h = t1 - t0
            g = c / h
            v = (1.0 / r + g * v) / (1.0 / r + g)
            replay.append(v)
        replay = np.array(replay)
        got = series.v("out")
        scale = np.max(np.abs(replay))
        assert np.max(np.abs(got - replay)) <= 1e-10 * scale

    def test_solve_count_identity(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        series = transient(net, SimConfig(t_stop=5e-9))
        assert series.n_solves == series.steps_taken + series.steps_rejected

    def test_rc_ladder_matches_backward_euler_replay(self):
        deck = ("V1 in 0 DC 2\nR1 in a 1k\nC1 a 0 2p\nR2 a b 3k\nC2 b 0 1p\n"
                "R3 b 0 5k\n.tran 20n\n.end\n")
        series = transient(parse_netlist(deck), SimConfig(t_stop=20e-9))
        # independent two-state backward-Euler replay on the same step sequence
        g1, g2, g3 = 1e-3, 1.0 / 3e3, 2e-4
        c = np.array([2e-12, 1e-12])
        G = np.array([[g1 + g2, -g2], [-g2, g2 + g3]])
        b = np.array([g1 * 2.0, 0.0])
        v = np.zeros(2)
        replay = [v.copy()]
        for t0, t1 in zip(series.times, series.times[1:]):
            A = G + np.diag(c / (t1 - t0))
            v = np.linalg.solve(A, b + (c / (t1 - t0)) * v)
            replay.append(v.copy())
        replay = np.array(replay)
        got = np.column_stack([series.v("a"), series.v("b")])
        assert np.max(np.abs(got - replay)) <= 1e-10 * np.max(np.abs(replay))

    def test_noise_sources_rejected(self):
        net = parse_netlist(deck_text("ou_step.ckt"))
        with pytest.raises(SimulationError):
            transient(net, SimConfig(t_stop=1e-6))


class TestOperatingPoint:
    def test_divider(self):
        net = parse_netlist(deck_text("divider.ckt"))
        op = operating_point(net, SimConfig())
        assert op.settled
        assert op.v("2") == pytest.approx(2.5, abs=1e-3)

    def test_series_rtd_consistency(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        op = operating_point(net, SimConfig())
        assert op.settled
        v2 = op.v("2")
        i_r = (op.v("1") - v2) / 1000.0
        i_d = rtd_current(rtd, v2)
        assert abs(i_r - i_d) <= 1e-6 * max(abs(i_r), abs(i_d))

    def test_bistable_point_is_a_stable_root(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        op = operating_point(net, SimConfig())
        roots = brute_force_dc(rtd, 1000.0, 12.0)
        assert len(roots) == 3
        stable = [v for v, s in roots if s]
        assert min(abs(op.v("2") - v) for v in stable) <= 1e-3

    def test_geq_floor_respected(self):
        from nanosim.netlist import Pwl
        from nanosim.swec import _Engine
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        cfg = SimConfig()
        eng = _Engine(net, cfg)
        eng.circuit.set_source("V1", Pwl(((0.0, 0.0), (cfg.op_ramp, 12.0))))
        eng.run(t_stop=100 * cfg.op_ramp, h_max=cfg.op_ramp / 10,
                settle_after=cfg.op_ramp, settle_tol=12.0, error_control=False)
        assert all(st.geq_now >= G_FLOOR for st in eng.states.values())


class TestDcSweep:
    def test_resistor_sweep_is_linear(self):
        net = parse_netlist("V1 1 0 DC 0\nR1 1 2 2k\nR2 2 0 2k\n.dc V1 0 10 20\n.end\n")
        sweep = dc_sweep(net, "V1", 0.0, 10.0, 20, SimConfig())
        v2 = sweep.voltages[:, 1]
        i = (sweep.biases - v2) / 2000.0
        coef = np.polyfit(sweep.biases, i, 1)
        fit = np.polyval(coef, sweep.biases)
        ss_res = np.sum((i - fit) ** 2)
        ss_tot = np.sum((i - np.mean(i)) ** 2)
        assert 1.0 - ss_res / ss_tot >= 1.0 - 1e-12

    def test_rtd_sweep_residuals_and_roots(self, rtd):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        sweep = dc_sweep(net, "V1", 0.0, 16.0, 15, SimConfig())
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
        sweep = dc_sweep(net, "V1", 0.0, 16.0, 60, SimConfig())
        i = sweep.currents["XRTD1"]
        slope = np.diff(i)
        signs = np.sign(slope[slope != 0.0])
        assert int(np.count_nonzero(signs[:-1] != signs[1:])) == 2

    def test_sweep_direction_continuation(self, rtd):
        # downward sweep works too; hysteresis is allowed, stability required
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        sweep = dc_sweep(net, "V1", 16.0, 0.0, 9, SimConfig())
        assert bool(np.all(sweep.settled))

    def test_source_must_exist(self):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        with pytest.raises(ValueError):
            dc_sweep(net, "VX", 0, 1, 5, SimConfig())
        with pytest.raises(ValueError):
            dc_sweep(net, "R1", 0, 1, 5, SimConfig())
        with pytest.raises(ValueError):
            dc_sweep(net, "V1", 0, 1, 1, SimConfig())


class TestNonlinearTransient:
    def test_rtd_step_lands_on_root(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        series = transient(net, SimConfig(t_stop=20e-9))
        v_end = series.v("2")[-1]
        stable = [v for v, s in brute_force_dc(rtd, 1000.0, 12.0) if s]
        assert min(abs(v_end - v) for v in stable) <= 1e-3
        assert series.n_solves == series.steps_taken + series.steps_rejected

    def test_refinement_convergence(self):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        ref = transient(net, SimConfig(t_stop=20e-9, eps=0.00125))
        grid = np.linspace(1e-10, 20e-9, 400)
        ref_v = np.interp(grid, ref.times, ref.v("2"))
        devs = []
        for eps in (0.04, 0.02, 0.01):
            s = transient(net, SimConfig(t_stop=20e-9, eps=eps))
            devs.append(np.max(np.abs(np.interp(grid, s.times, s.v("2")) - ref_v)))
        assert devs[0] > devs[1] > devs[2]

    def test_rejection_chains_bounded(self):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        cfg = SimConfig(t_stop=20e-9)
        series = transient(net, cfg)
        bound = math.log2((20e-9 / 50.0) / cfg.h_min) + 1
        assert series.steps_rejected <= series.steps_taken * bound

    def test_series_time_axis_strictly_increasing(self):
        net = parse_netlist(deck_text("rtd_divider_tran.ckt"))
        series = transient(net, SimConfig(t_stop=20e-9))
        assert np.all(np.diff(series.times) > 0)
        assert series.voltages.shape[0] == len(series.times)

    def test_unsettled_op_reports_last_state(self):
        deck = ("V1 1 0 DC 25\nR1 1 2 200\nXRTD1 2 0 M1\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 "
                "n2=0.0172)\n.op\n.end\n")
        op = operating_point(parse_netlist(deck), SimConfig())
        assert not op.settled
        assert np.all(np.isfinite(op.voltages))

    def test_start_from_op_holds_steady(self):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        series = transient(net, SimConfig(t_stop=5e-9, start_from_op=True))
        v = series.v("2")
        assert v[0] == pytest.approx(1.3903, abs=1e-3)
        assert abs(v[-1] - v[0]) <= 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(eps=0.0)
        with pytest.raises(ValueError):
            SimConfig(eps=1.5)
        with pytest.raises(ValueError):
            SimConfig(h_min=1e-12, h_max=1e-13)
