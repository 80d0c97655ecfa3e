"""Newton baseline and brute-force oracle tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim import nr
from nanosim.devices import nanowire_dgeq_dv, nanowire_geq
from nanosim.mna import Circuit, FlopCounter
from nanosim.netlist import Dc, DcAnalysis, ElementKind, parse_netlist
from nanosim.nr import brute_force_dc, flop_compare, nr_dc
from nanosim.swec import dc_sweep, operating_point, pin_source

from conftest import card, deck_text


class TestNrDc:
    def test_linear_divider_one_iteration(self):
        net = parse_netlist(deck_text("divider.ckt"))
        rep = nr_dc(net)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.x[rep.nodes.index("2")] == pytest.approx(2.5)

    def test_true_solution_start_is_cheap(self, rtd):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        roots = brute_force_dc(rtd, 1000.0, 12.0)
        v_root = roots[0][0]
        guess = np.array([12.0, v_root])
        rep = nr_dc(net, initial_guess=guess)
        assert rep.converged
        assert rep.iterations <= 3

    def test_converged_residual_bound(self):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        rep = nr_dc(net)
        assert rep.converged
        assert rep.residual <= 1e-9

    def test_guess_grid_has_a_failure(self):
        """Far initial guesses in the NDR region break plain Newton while the
        conductance-stepping engine settles from a zero start."""
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        outcomes = []
        for g in np.linspace(0.0, 12.0, 20):
            rep = nr_dc(net, initial_guess=np.array([12.0, g]), max_iter=100)
            outcomes.append(rep.converged and not rep.oscillation_detected)
        assert not all(outcomes)
        op = operating_point(net)
        assert op.settled

    def test_oscillation_detector_locks_on_two_cycle(self):
        net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
        rep = nr_dc(net, initial_guess=np.array([12.0, 3.7894736842105265]),
                    max_iter=600)
        assert rep.oscillation_detected
        assert not rep.converged

    def test_mos_divider_agrees_with_engine(self):
        net = parse_netlist(deck_text("mos_divider.ckt"))
        rep = nr_dc(net)
        assert rep.converged
        op = operating_point(net)
        assert op.settled
        i_d = rep.nodes.index("d")
        assert abs(rep.x[i_d] - op.v("d")) <= 1e-3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6))
    def test_largest_term_is_numpys(self, values):
        # the KCL residual and the 2-cycle tests take the largest |v| of a
        # list; a NaN must stick, as under np.max
        got, want = nr._max_abs(values), float(np.max(np.abs(values)))
        assert got == want or (got != got and want != want)

    def test_noise_rejected(self):
        net = parse_netlist(deck_text("ou_step.ckt"))
        with pytest.raises(ValueError):
            nr_dc(net)


class TestBruteForce:
    def test_low_bias_single_stable_root(self, rtd):
        roots = brute_force_dc(rtd, 1000.0, 2.0)
        assert len(roots) == 1
        assert roots[0][1] is True

    def test_bistable_pattern(self, rtd):
        roots = brute_force_dc(rtd, 1000.0, 12.0)
        assert [s for _, s in roots] == [True, False, True]
        assert roots[0][0] == pytest.approx(1.3903, abs=1e-3)
        assert roots[1][0] == pytest.approx(5.1860, abs=1e-3)
        assert roots[2][0] == pytest.approx(9.6049, abs=1e-3)

    def test_small_resistance_limit(self, rtd):
        roots = brute_force_dc(rtd, 1e-6, 3.0)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(3.0, abs=1e-4)

    def test_roots_satisfy_load_line(self, rtd):
        from nanosim.devices import rtd_current
        for v, _ in brute_force_dc(rtd, 500.0, 9.0):
            assert abs((9.0 - v) / 500.0 - rtd_current(rtd, v)) <= 1e-8

    def test_grid_minimum(self, rtd):
        with pytest.raises(ValueError):
            brute_force_dc(rtd, 1000.0, 12.0, grid=100)


class TestFlopCompare:
    def test_linear_op_is_comparable(self):
        net = parse_netlist(deck_text("divider.ckt"))
        cmp_ = flop_compare(net, operating_point(net))
        # both sides do one solve plus bookkeeping
        assert 0.2 <= cmp_.speedup <= 5.0

    def test_dc_compare_reports_totals(self):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        cmp_ = flop_compare(net, dc_sweep(net, "V1", 0.0, 16.0, 10))
        assert cmp_.swec_flops > 0
        assert cmp_.nr_flops > 0
        assert cmp_.speedup == pytest.approx(cmp_.nr_flops / cmp_.swec_flops)

    def test_nanowire_derivative_flops_billed(self, monkeypatch):
        net = pin_source(parse_netlist(deck_text("nanowire_divider.ckt")), "V1", 2.0)
        model = net.model_of(net.elements_of(ElementKind.NANOWIRE)[0])
        didv = nr.nanowire_didv
        calls = []

        def counted(m, v, fc=None):
            calls.append(v)
            return didv(m, v, fc)

        monkeypatch.setattr(nr, "nanowire_didv", counted)
        billed = nr_dc(net).flops
        monkeypatch.setattr(nr, "nanowire_didv", lambda m, v, fc=None: didv(m, v))
        unbilled = nr_dc(net).flops
        # per derivative call: the geq and dgeq_dv tallies plus G + v*dG/dv
        one = FlopCounter(adds=1, muls=1)
        nanowire_geq(model, 1.0, one)
        nanowire_dgeq_dv(model, 1.0, one)
        n = len(calls)
        assert n > 1
        assert billed - unbilled == FlopCounter(n * one.adds, n * one.muls,
                                                n * one.divs, n * one.transcendentals)

    @pytest.mark.parametrize("deck, swec, newton", [
        pytest.param("rtd_divider.ckt", 8967, 12128, id="rtd_divider"),         # 60 points
        pytest.param("nanowire_divider.ckt", 6072, 9526, id="nanowire_divider"),  # 40 points
    ])
    def test_deck_sweep_totals(self, deck, swec, newton):
        net = parse_netlist(deck_text(deck))
        dc = card(net, DcAnalysis)
        cmp_ = flop_compare(net, dc_sweep(net, dc.source, dc.start, dc.stop, dc.points))
        assert (cmp_.swec_flops, cmp_.nr_flops) == (swec, newton)

    @pytest.mark.parametrize("source, start, stop", [
        ("V1", 16.0, 0.0),          # descending
        ("V1", 5.0, 5.0),           # one bias repeated
        ("v1", 0.0, 16.0),          # named in another case than the deck's V1
    ])
    def test_newton_side_continues_over_the_sweep_biases(self, source, start, stop):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        sweep = dc_sweep(net, source, start, stop, 7)
        assert sweep.source == "V1"
        circuit, guess, newton = Circuit(net), None, 0
        for bias in sweep.biases:
            circuit.set_source("V1", Dc(bias))
            rep = nr_dc(circuit, initial_guess=guess)
            newton, guess = newton + rep.flops.total(), rep.x
        cmp_ = flop_compare(net, sweep)
        assert (cmp_.swec_flops, cmp_.nr_flops) == (sweep.flops.total(), newton)
