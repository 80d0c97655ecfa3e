"""Newton baseline and brute-force oracle tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nanosim import nr, swec
from nanosim.devices import nanowire_dgeq_dv, nanowire_geq
from nanosim.mna import Circuit, FlopCounter, _max_abs
from nanosim.netlist import Dc, DcAnalysis, ElementKind, parse_netlist
from nanosim.nr import brute_force_dc, flop_compare, nr_dc
from nanosim.swec import dc_sweep, operating_point, pin_source

from conftest import MULTI_NODE_DECK, card, deck_text

# a cut-off drain whose capacitor Newton leaves open empties the out row of
# the Jacobian
_CUT_OFF_DRAIN = ("* cut-off drain\nV1 in 0 DC 1\nR1 in 0 1k\nM1 out 0 0 0 MF\nC1 out 0 1p\n"
                  ".model MF NMOS (k=1e-3 W=4u L=1u Vth=1)\n.end\n")


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

    def test_mos_divider_cost(self):
        rep = nr_dc(parse_netlist(deck_text("mos_divider.ckt")))
        assert rep.converged
        assert rep.iterations == 2
        assert rep.flops == FlopCounter(adds=23, muls=23, divs=7, transcendentals=0)

    def test_mos_terminals_swapped_on_the_card(self):
        # the channel is symmetric: with drain and source swapped, the lower
        # terminal still acts as the source, so every iterate stamps the
        # same branch through the reversed terminals
        text = deck_text("mos_divider.ckt")
        swapped = text.replace("M1 d g 0 0", "M1 0 g d 0")
        assert swapped != text
        want, got = (nr_dc(parse_netlist(t)) for t in (text, swapped))
        assert got.nodes == want.nodes
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.converged, got.iterations, got.oscillation_detected, got.flops,
                repr(got.residual)) == (want.converged, want.iterations,
                                        want.oscillation_detected, want.flops,
                                        repr(want.residual))

    def test_singular_jacobian_stops_unconverged(self):
        # Newton stops at its first solve and reports no convergence, while
        # the engine's floored chord stamp settles out at 0 V
        net = parse_netlist(_CUT_OFF_DRAIN)
        rep = nr_dc(net)
        assert (rep.converged, rep.iterations, rep.oscillation_detected) == (False, 1, False)
        # KCL holds at the zero start; the source equation misses by the 1 V
        assert (rep.residual, rep.source_error) == (0.0, 1.0)
        op = operating_point(net)
        assert op.settled
        assert (op.v("in"), op.v("out")) == (1.0, 0.0)

    def test_iterate_beyond_the_float_range_stops_unconverged(self):
        # a 1e200 V gate overflows the drain current, the next iterate is
        # not finite, and Newton stops at the last finite one
        net = parse_netlist("V1 1 0 DC 1e200\nR1 1 2 1k\nM1 2 1 0 0 MF\n"
                            ".model MF NMOS (k=1e-3 W=4u L=1u Vth=1)\n.end\n")
        rep = nr_dc(net)
        assert not rep.converged and rep.iterations >= 1
        assert np.isfinite(rep.x).all() and math.isinf(rep.residual)
        # a guess that is not finite is never walked
        for bad in (math.inf, math.nan):
            rep = nr_dc(net, initial_guess=np.array([bad, 0.0]))
            assert (rep.converged, rep.iterations) == (False, 0)
            assert math.isnan(rep.residual) and math.isnan(rep.source_error)
        assert flop_compare(net, operating_point(net)).unconverged == 1

    @pytest.mark.parametrize("vin", ["0", "1.5", "2", "3", "5"])
    def test_inverter_agrees_with_engine(self, vin):
        # the inverter at DC: an RTD with neither terminal on ground, a
        # capacitor the Newton baseline leaves open, and at vin = 5 V the
        # MOSFET in triode
        text = deck_text("fet_rtd_inverter.ckt")
        for card_, dc in (("V1 vdd 0 PWL(0 0 5n 5)", "V1 vdd 0 DC 5"),
                          ("V2 in 0 PULSE(0 5 30n 2n 2n 32n 80n)", f"V2 in 0 DC {vin}")):
            assert card_ in text
            text = text.replace(card_, dc)
        net = parse_netlist(text)
        rep = nr_dc(net)
        assert rep.converged and not rep.oscillation_detected
        op = operating_point(net)
        assert op.settled
        for node in op.nodes:
            assert abs(rep.x[rep.nodes.index(node)] - op.v(node)) <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6))
    def test_largest_term_is_numpys(self, values):
        # Newton's residual and 2-cycle tests, the transient's truncation
        # error and the settle's stop test take the largest |v| of a list;
        # a NaN must stick, as under np.max
        got, want = _max_abs(values), float(np.max(np.abs(values)))
        assert got == want or (got != got and want != want)

    def test_noise_rejected(self):
        net = parse_netlist(deck_text("ou_step.ckt"))
        with pytest.raises(ValueError):
            nr_dc(net)

    def test_initial_guess_contract(self):
        # a short guess is padded with zeros, a list guess is taken as an
        # array one is, and a guess longer than the system is refused
        circuit = Circuit(parse_netlist(deck_text("rtd_divider_bistable.ckt")))
        assert circuit.size == 3

        def report(guess):
            rep = nr_dc(circuit, initial_guess=guess, max_iter=40)
            return (rep.x.tobytes(), rep.converged, rep.iterations,
                    rep.oscillation_detected, rep.flops, repr(rep.residual),
                    repr(rep.source_error))

        for guess in ([12.0, 3.7894736842105265], [12.0], [12.0, 4.5, -1e-3]):
            padded = report(guess + [0.0] * (3 - len(guess)))
            assert report(guess) == report(np.array(guess)) == padded
        with pytest.raises(ValueError):
            nr_dc(circuit, initial_guess=[12.0, 4.5, 0.0, 1.0])
        with pytest.raises(ValueError):
            nr_dc(circuit, initial_guess=np.zeros(4))


# every shipped deck that Newton takes (no noise source)
_NEWTON_DECKS = ("divider", "fet_rtd_inverter", "mos_divider", "nanowire_divider",
                 "rc_lowpass", "rtd_dff", "rtd_divider", "rtd_divider_bistable",
                 "rtd_divider_tran")


class TestJacobian:
    """On the node rows, the system :func:`nr.jacobian` stamps from
    :func:`nr.linearize`'s records is minus the derivative of its residual
    vector, by central differences, wherever every MOSFET is at least 1 mV
    from a region edge (vov = 0, vds = vov, vd = vs), where the slope jumps."""

    @staticmethod
    def _check(circuit, data):
        n = circuit.n
        x = (data.draw(st.lists(st.floats(-2.0, 8.0), min_size=n, max_size=n))
             + data.draw(st.lists(st.floats(-1e-2, 1e-2), min_size=circuit.m,
                                  max_size=circuit.m)))
        for br, m, (vds, vgs, _) in zip(circuit.devices, circuit.models,
                                        circuit.biases(x)):
            if br.el.kind is ElementKind.MOSFET:
                assume(min(abs(vgs - m.vth), abs(vds - vgs + m.vth), vds) >= 1e-3)
        levels, fc = circuit.source_levels(0.0), FlopCounter()
        G = nr.jacobian(circuit, nr.linearize(circuit, x, levels, fc)[2], fc).rows
        scale = max(abs(g) for row in G[:n] for g in row[:n])
        for j, xj in enumerate(x):
            hi, lo = list(x), list(x)
            hi[j] += 1e-6 * max(1.0, abs(xj))
            lo[j] -= 1e-6 * max(1.0, abs(xj))
            r_hi, r_lo = (nr.linearize(circuit, v, levels, fc)[0] for v in (hi, lo))
            for i in range(n):
                slope = -(r_hi[i] - r_lo[i]) / (hi[j] - lo[j])
                assert abs(G[i][j] - slope) <= 1e-6 * scale, (i, j, G[i][j], slope)

    @pytest.mark.parametrize("deck", _NEWTON_DECKS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_shipped_decks(self, deck, data):
        self._check(Circuit(parse_netlist(deck_text(f"{deck}.ckt"))), data)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_free_gate_and_source(self, data):
        # the rows and columns of free MOSFET sources and gates, and a
        # floating source's current, which no shipped deck has
        self._check(Circuit(parse_netlist(MULTI_NODE_DECK)), data)


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
        unbilled.count(n * one.adds, n * one.muls, n * one.divs, n * one.transcendentals)
        assert billed == unbilled

    @pytest.mark.parametrize("deck, swec, newton", [
        pytest.param("rtd_divider.ckt", 8967, 12128, id="rtd_divider"),         # 60 points
        pytest.param("nanowire_divider.ckt", 6072, 9526, id="nanowire_divider"),  # 40 points
    ])
    def test_deck_sweep_totals(self, deck, swec, newton):
        net = parse_netlist(deck_text(deck))
        dc = card(net, DcAnalysis)
        cmp_ = flop_compare(net, dc_sweep(net, dc.source, dc.start, dc.stop, dc.points))
        assert (cmp_.swec_flops, cmp_.nr_flops, cmp_.unconverged) == (swec, newton, 0)

    def test_dc_solves_stay_on_python_floats(self, monkeypatch):
        # numpy scalars in a system would slow every solve's arithmetic: the
        # swept levels reach the settle and Newton systems as Python floats
        seen = []
        for module in (swec, nr):
            def typed(sys, fc, inner=module.solve):
                x = inner(sys, fc)
                seen.append({type(v) for v in sys.b + x})
                return x
            monkeypatch.setattr(module, "solve", typed)
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        dc = card(net, DcAnalysis)
        flop_compare(net, dc_sweep(net, dc.source, dc.start, dc.stop, dc.points))
        assert len(seen) > dc.points
        assert all(types == {float} for types in seen)

    def test_unconverged_newton_solves_are_counted(self):
        # Newton stops unconverged on a singular Jacobian, short of its
        # iteration limit, wherever V1 is nonzero
        net = parse_netlist(_CUT_OFF_DRAIN)
        assert flop_compare(net, operating_point(net)).unconverged == 1
        assert flop_compare(net, dc_sweep(net, "V1", 0.0, 1.0, 3)).unconverged == 2

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
