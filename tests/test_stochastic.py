"""Stochastic engine tests: Wiener paths, Ito sums, EM integration."""

import math
import tracemalloc
import warnings
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim import stochastic
from nanosim.devices import G_FLOOR, mos_bias, mos_geq, nanowire_geq, rtd_geq
from nanosim.mna import FlopCounter
from nanosim.netlist import (NONLINEAR_KINDS, Element, ElementKind, Netlist,
                             eval_waveform, parse_netlist)
from nanosim.stochastic import (StochasticError, _build_state_system, _drift,
                                em_transient, ensemble, ito_sum,
                                wiener_increments)
from nanosim.swec import SimulationError

from conftest import deck_text

# OU parameters implied by the ou decks: lambda = 1/(RC), sigma = intensity/C
LAM = 1.0 / (1e3 * 1e-9)
SIGMA = 1e-7 / 1e-9
STAT_VAR = SIGMA ** 2 / (2 * LAM)


# a source-driven RC node: tau = 1k * 5p = 5 ns
_RC_5NS = ("V1 1 0 DC 1\nR1 1 2 1k\nC1 2 0 5p\nN1 2 0 1e-9\n"
           ".stoch 1e-7 1e-9 4\n.end\n")


# three noise sources, coupled capacitors, an RTD and a MOSFET
_COUPLED = ("V1 vdd 0 DC 1.2\nV2 in 0 PWL(0 0 2n 2)\nR1 vdd a 1k\nC1 a 0 1p\n"
            "C2 a b 0.5p\nC3 b 0 2p\nR2 b c 2k\nC4 c 0 1p\nC5 b c 0.3p\n"
            "XRTD1 a b M1\nM1 c in 0 0 MFET\nN1 a 0 1e-8\nN2 b c 2e-8\nN3 c 0 5e-9\n"
            ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
            ".model MFET NMOS (k=1e-4 W=2u L=1u Vth=1)\n.end\n")


def _noisy_inverter():
    """The shipped FET-RTD inverter with a noise current at ``out``: both
    RTDs and the MOSFET's gate touch source-pinned nodes."""
    body = [ln for ln in deck_text("fet_rtd_inverter.ckt").splitlines()
            if not ln.lower().startswith((".tran", ".end"))]
    return "\n".join(body + ["N1 out 0 1e-8", ".end"]) + "\n"


def _ou_free(intensity="1e-7"):
    return parse_netlist(f"R1 1 0 1k\nC1 1 0 1n\nN1 1 0 {intensity}\n"
                         ".stoch 5e-6 1e-8 100\n.end\n")


class TestWiener:
    def test_starts_at_zero(self):
        path = wiener_increments(100, 1e-3, seed=1)
        assert path.values()[0] == 0.0
        assert len(path.values()) == 101

    def test_increment_statistics(self):
        path = wiener_increments(100_000, 1e-3, seed=12345)
        inc = path.increments
        n = len(inc)
        sigma = math.sqrt(1e-3)
        assert abs(inc.mean()) <= 4 * sigma / math.sqrt(n)
        assert abs(inc.var() / 1e-3 - 1.0) <= 0.05

    def test_block_independence(self):
        inc = wiener_increments(100_000, 1e-3, seed=12345).increments
        blocks = inc.reshape(-1, 10).sum(axis=1)
        rho = np.corrcoef(blocks[:-1], blocks[1:])[0, 1]
        assert abs(rho) <= 0.02

    def test_deterministic_per_seed(self):
        a = wiener_increments(1000, 1e-6, seed=3).increments
        b = wiener_increments(1000, 1e-6, seed=3).increments
        c = wiener_increments(1000, 1e-6, seed=4).increments
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            wiener_increments(0, 1e-3)
        with pytest.raises(ValueError):
            wiener_increments(10, 0.0)


class TestItoSum:
    def test_zero_integrand(self):
        path = wiener_increments(500, 1e-3, seed=2)
        assert ito_sum(np.zeros(500), path) == 0.0

    def test_telescoping(self):
        path = wiener_increments(500, 1e-3, seed=2)
        assert ito_sum(np.ones(500), path) == pytest.approx(path.values()[-1],
                                                            rel=1e-10)

    def test_length_mismatch(self):
        path = wiener_increments(10, 1e-3, seed=2)
        with pytest.raises(ValueError):
            ito_sum(np.ones(9), path)

    def test_left_endpoint_discipline(self):
        # E[sum W dW] = 0 for the Ito rule; the midpoint rule gives T/2
        n, dt, paths = 256, 1.0 / 256, 4000
        sums = np.empty(paths)
        for k in range(paths):
            path = wiener_increments(n, dt, seed=k)
            w = path.values()
            sums[k] = ito_sum(w[:-1], path)
        se = sums.std(ddof=1) / math.sqrt(paths)
        assert abs(sums.mean()) <= 3 * se
        assert abs(sums.mean() - 0.5) >= 5 * se


class TestEmTransient:
    def test_zero_noise_is_forward_euler(self):
        # a DC source, then a ramp: the drift of step j reads the source at
        # t_{j-1}, and the pinned column records the source at t_j
        for wave in ("DC 1", "PWL(0 0 1u 1)"):
            net = parse_netlist(f"V1 in 0 {wave}\nR1 in out 1k\nC1 out 0 1n\n"
                                "N1 out 0 0\n.stoch 2e-6 1e-8 4\n.end\n")
            series = em_transient(net, 1e-8, 2e-6, seed=3)
            g, c, dt = 1e-3, 1e-9, 1e-8
            level = [eval_waveform(net.element("V1").waveform, j * dt)
                     for j in range(201)]
            x = 0.0
            ref = [x]
            for j in range(200):
                acc = 0.0
                acc += g * x
                drift = -acc
                drift += g * level[j]
                x = x + dt * (drift / c)
                ref.append(x)
            assert np.array_equal(series.v("out"), np.array(ref))
            assert np.array_equal(series.v("in"), np.array(level))

    def test_floating_capacitor_is_forward_euler(self):
        # c's only capacitor floats to b; C over (b, c) is [[2p, -1p],
        # [-1p, 1p]], positive definite, so the deck runs
        net = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1p\nC2 b c 1p\n"
                            "R2 c 0 1k\nN1 b 0 0\n.end\n")
        dt, steps = 1e-11, 3000
        series = em_transient(net, dt, steps * dt)
        cap = np.array([[2e-12, -1e-12], [-1e-12, 1e-12]])
        g = np.array([[1e-3, 0.0], [0.0, 1e-3]])
        drive = np.array([1e-3, 0.0])
        x, ref = np.zeros(2), [np.zeros(2)]
        for _ in range(steps):
            x = x + dt * np.linalg.solve(cap, drive - g @ x)
            ref.append(x)
        ref = np.array(ref)
        got = np.column_stack([series.v("b"), series.v("c")])
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert got[-1, 0] > 0.99 and abs(got[-1, 1]) < 0.01

    def test_decays_not_explodes(self):
        series = em_transient(_ou_free("0"), 1e-8, 5e-6, x0=np.array([1.0]))
        v = series.v("1")
        assert v[0] == 1.0
        assert abs(v[-1]) < 0.01
        assert np.all(np.abs(v) <= 1.0)

    def test_stability_warning(self):
        with pytest.warns(RuntimeWarning):
            em_transient(_ou_free(), 9e-7, 9e-6)

    def test_time_constant_counts_each_resistor_once(self):
        # no warning below dt = tau / 2 = 2.5 ns, one above
        net = parse_netlist(_RC_5NS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            em_transient(net, 2e-9, 1e-7)
            ensemble(net, 2e-9, 1e-7, paths=4)
        for run in (em_transient, ensemble):
            with pytest.warns(RuntimeWarning, match="time constant 5e-09"):
                run(net, 3e-9, 1e-7, **({"paths": 4} if run is ensemble else {}))

    def test_time_constant_sees_coupled_modes(self):
        # C1 is small, but b also couples to c through C2: the diagonal
        # ratios C/G are 1.01 ns and 1 ns, while C^-1 G has a mode at
        # 1 / 2.005e11 s = 4.99 ps
        net = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 0.01p\nC2 b c 1p\n"
                            "R2 c 0 1k\nN1 b 0 1e-9\n.end\n")
        with pytest.warns(RuntimeWarning) as rec, pytest.raises(SimulationError):
            ensemble(net, 1e-10, 5e-8, paths=8)
        tau = float(str(rec[0].message).split("time constant ")[1].split(";")[0])
        assert tau == pytest.approx(4.9875e-12, rel=1e-4)

    def test_device_without_state_row_is_not_evaluated(self):
        # XRTD1 sits between two source-pinned nodes: its current reaches no
        # state row, so it bills nothing and changes no voltage
        rest = ("R1 2 3 1k\nC1 3 0 1p\nN1 3 0 1e-9\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".end\n")
        with_rtd = em_transient(parse_netlist("V1 1 0 DC 2\nV2 2 0 PWL(0 0 5n 1)\n"
                                              "XRTD1 1 2 M1\n" + rest), 5e-11, 2e-8, seed=3)
        without = em_transient(parse_netlist("V1 1 0 DC 2\nV2 2 0 PWL(0 0 5n 1)\n" + rest),
                               5e-11, 2e-8, seed=3)
        assert with_rtd.flops.total() == 0
        assert with_rtd.nodes == without.nodes
        assert with_rtd.voltages.tobytes() == without.voltages.tobytes()

    def test_divergence_names_dt_and_tau(self):
        with pytest.warns(RuntimeWarning) as rec, \
                pytest.raises(SimulationError, match=r"diverged: dt=2e-08 .*"
                                                     r"fastest time constant 5e-09"):
            ensemble(parse_netlist(_RC_5NS), 2e-8, 2e-5, paths=4)
        assert all("not small vs fastest time constant" in str(w.message) for w in rec)

    def test_validation(self):
        net = parse_netlist(deck_text("rc_lowpass.ckt"))
        with pytest.raises(StochasticError):
            em_transient(net, 1e-12, 1e-9)
        floating = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nN1 b 0 1e-9\n"
                                 "R2 b 0 1k\n.stoch 1u 1n 10\n.end\n")
        with pytest.raises(StochasticError, match="capacitance"):
            em_transient(floating, 1e-9, 1e-6)
        flipped = parse_netlist("V1 0 a DC 1\nR1 a b 1k\nC1 b 0 1n\n"
                                "N1 b 0 1e-9\n.stoch 1u 1n 10\n.end\n")
        with pytest.raises(StochasticError, match="ground"):
            em_transient(flipped, 1e-9, 1e-6)
        for deck, message in [
                ("V1 a 0 DC 1\nR1 a b 1k\nC1 a b 1p\nC2 b 0 1p\nN1 b 0 1e-9\n",
                 "capacitor 'C1' may not couple to a source-pinned node"),
                ("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1p\nN1 a 0 1e-9\n",
                 "noise source 'N1' drives a source-pinned node"),
                ("V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a b 1k\nC1 b 0 1p\nN1 b 0 1e-9\n",
                 "node 'a' pinned by two sources"),
                ("V1 a b DC 1\nR1 a 0 1k\nR2 b 0 1k\nC1 a 0 1p\nC2 b 0 1p\n"
                 "N1 b 0 1e-9\n", "source 'V1' must be grounded"),
                ("V1 a 0 DC 1\nR1 a 0 1k\nN1 a 0 1e-9\n",
                 "no state nodes: every node is source-pinned"),
                ("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1p\nR2 b c 1k\nR3 c 0 1k\n"
                 "N1 b 0 1e-9\n", "state capacitance matrix is not positive definite"),
                ("V1 a 0 DC 1\nR1 a b 1k\nC1 b c 1p\nR2 c 0 1k\nN1 b 0 1e-9\n",
                 "state capacitance matrix is not positive definite")]:
            with pytest.raises(StochasticError, match=message):
                em_transient(parse_netlist(deck + ".end\n"), 1e-12, 1e-10)


class TestEnsemble:
    def test_zero_noise_degenerate(self):
        net = parse_netlist("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n"
                            "N1 out 0 0\n.stoch 2e-6 1e-8 4\n.end\n")
        stats = ensemble(net, 1e-8, 2e-6, paths=2, seed=1)
        out_col = stats.nodes.index("out")
        assert np.all(stats.variance[:, out_col] == 0.0)
        assert stats.peak_mean[out_col] == pytest.approx(stats.mean[:, out_col].max())

    def test_ou_mean_and_variance(self):
        stats = ensemble(_ou_free(), 1e-8, 5e-6, paths=2000, seed=5,
                         x0=np.array([1.0]))
        i1 = stats.nodes.index("1")
        # mean decay at a few checkpoints, 4 standard errors
        for frac in (0.1, 0.3, 0.6):
            i = int(frac * (len(stats.times) - 1))
            t = stats.times[i]
            se = math.sqrt(stats.variance[i, i1] / stats.paths)
            assert abs(stats.mean[i, i1] - math.exp(-LAM * t)) <= 4 * se + 1e-12
        tail = stats.times >= 3e-6
        tail_var = stats.variance[tail, i1].mean()
        assert abs(tail_var / STAT_VAR - 1.0) <= 0.10

    def test_gaussian_quantile_at_stationarity(self):
        stats = ensemble(_ou_free(), 1e-8, 5e-6, paths=4000, seed=9)
        i1 = stats.nodes.index("1")
        tail = stats.times >= 3e-6
        q95 = stats.quantiles[0.95][tail, i1].mean()
        mean = stats.mean[tail, i1].mean()
        std = np.sqrt(stats.variance[tail, i1]).mean()
        assert abs((q95 - mean) / (1.645 * std) - 1.0) <= 0.10

    def test_noise_scaling_linearity(self):
        a = ensemble(_ou_free("1e-7"), 1e-8, 1e-6, paths=500, seed=3)
        b = ensemble(_ou_free("2e-7"), 1e-8, 1e-6, paths=500, seed=3)
        i1 = a.nodes.index("1")
        sa = np.sqrt(a.variance[20:, i1])
        sb = np.sqrt(b.variance[20:, i1])
        assert np.max(np.abs(sb / sa - 2.0)) <= 0.05

    def test_monte_carlo_error_scaling(self):
        # standard error of the terminal mean halves from 1k to 4k paths, at
        # any t. Over 50 seeds the log of the ratio has a standard deviation
        # of about 0.14, so the tolerance below fails a correct engine about
        # 1 run in 100 (over 12 seeds it was 0.30 and 1 in 6)
        def spread(paths):
            finals = []
            for s in range(50):
                stats = ensemble(_ou_free(), 1e-8, 2e-7, paths=paths, seed=100 + s)
                finals.append(stats.mean[-1, stats.nodes.index("1")])
            return np.std(finals, ddof=1)

        ratio = spread(4000) / spread(1000)
        assert abs(ratio - 0.5) <= 0.2 * 0.5 + 0.1

    def test_window_peaks(self):
        stats = ensemble(_ou_free(), 1e-8, 2e-6, paths=100, seed=2,
                         window=(1e-6, 2e-6))
        assert stats.window == (1e-6, 2e-6)
        i1 = stats.nodes.index("1")
        assert stats.peak_quantiles[0.95][i1] >= stats.peak_quantiles[0.5][i1]

    def test_quantiles_monotone_in_level(self):
        stats = ensemble(_ou_free(), 1e-8, 2e-6, paths=400, seed=8)
        i1 = stats.nodes.index("1")
        q05 = stats.quantiles[0.05][:, i1]
        q50 = stats.quantiles[0.5][:, i1]
        q95 = stats.quantiles[0.95][:, i1]
        assert np.all(q05 <= q50) and np.all(q50 <= q95)
        assert np.all(stats.variance >= 0.0)

    @pytest.mark.parametrize("deck, dt, window", [
        (deck_text("ou_step.ckt"), 1e-8, (0.33e-6, 1.01e-6)),
        (deck_text("ou_free.ckt"), 1e-8, (0.33e-6, 1.01e-6)),
        (_COUPLED, 2e-11, (0.5e-9, 3.3e-9)),
        (_noisy_inverter(), 1e-10, (3e-9, 15.05e-9))],
        ids=["ou_step", "ou_free", "coupled", "inverter"])
    def test_block_geometry_leaves_results_unchanged(self, monkeypatch, deck, dt, window):
        # one step per block, then 7 steps per block with an uneven last
        # block of 4 (200 steps): every number keeps its bits. On one node
        # (ou_free) numpy sums a single-row block pairwise, not path by
        # path, so each block must hold at least two rows
        net = parse_netlist(deck)
        ss = _build_state_system(net)
        # doubles per path and step: a state row, its quantile copy and the
        # noise image C^-1 B dW (one per state node), and the noise draws
        per_step = 3 * len(ss.state) + ss.noise_cols.shape[1]

        def run():
            stats = ensemble(net, dt, 200 * dt, paths=37, seed=4, window=window)
            path = em_transient(net, dt, 200 * dt, seed=4)
            return [stats.mean, stats.variance, stats.peak_mean, path.voltages,
                    *stats.quantiles.values(), *stats.peak_quantiles.values()]

        want = run()
        blocks = []        # (paths, steps) of every block the runs take
        lockstep = stochastic._lockstep

        def recording(ss, dt, steps, seed, paths, *rest):
            for j0, rows, levels in lockstep(ss, dt, steps, seed, paths, *rest):
                blocks.append((paths, rows.shape[1] - 1))
                yield j0, rows, levels

        monkeypatch.setattr(stochastic, "_lockstep", recording)
        for steps_per_block in (1, 7):
            for paths in (37, 1):                       # ensemble, em_transient
                monkeypatch.setattr(stochastic, "_BLOCK_DOUBLES",
                                    steps_per_block * paths * per_step)
                blocks.clear()
                got = run()
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                full, last = divmod(200, steps_per_block)
                assert ([n for p, n in blocks if p == paths]
                        == [steps_per_block] * full + [last] * (last > 0))

    def test_source_pinned_columns_are_exact(self):
        # a pinned node holds its level on every path: mean = level, variance
        # 0, every quantile = level, window peak = the level's maximum
        net = parse_netlist("V1 in 0 PWL(0 0 0.3u 1.7 0.6u 0.3)\nR1 in out 1k\n"
                            "C1 out 0 1n\nN1 out 0 1e-7\n.end\n")
        dt, window = 1e-8, (0.2e-6, 0.9e-6)
        stats = ensemble(net, dt, 1e-6, paths=128, seed=6, window=window)
        i = stats.nodes.index("in")
        (src,) = net.elements_of(ElementKind.VSOURCE)
        levels = np.array([eval_waveform(src.waveform, j * dt)
                           for j in range(len(stats.times))])
        assert stats.mean[:, i].tobytes() == levels.tobytes()
        assert stats.variance[:, i].tobytes() == np.zeros_like(levels).tobytes()
        for q in stats.quantiles.values():
            assert q[:, i].tobytes() == levels.tobytes()
        in_win = (stats.times >= window[0]) & (stats.times <= window[1])
        peak = levels[in_win].max()
        assert [stats.peak_mean[i], *(q[i] for q in stats.peak_quantiles.values())] \
            == [peak] * 4

    def test_peak_memory_of_a_wide_ensemble(self):
        # an all-nodes block buffer sized from state rows and noise alone
        # peaked at 22.092-22.094 MB traced (numpy 2.4.6); the state-only
        # buffer, with every per-block array in the budget, takes 16.9 MB
        net = parse_netlist(deck_text("ou_step.ckt"))
        ensemble(net, 1e-8, 2e-8, paths=2, seed=0)      # lazy imports, untraced
        tracemalloc.start()
        try:
            ensemble(net, 1e-8, 100 * 1e-8, paths=8192, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22.094e6

    def test_memory_does_not_grow_with_steps(self):
        # storing every path x step x node would take 78 MB more at 40000
        # steps than at 2000
        peaks = []
        for steps in (2000, 40000):
            tracemalloc.start()
            try:
                ensemble(_ou_free(), 1e-8, steps * 1e-8, paths=256, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4e6

    def test_validation(self):
        with pytest.raises(ValueError):
            ensemble(_ou_free(), 1e-8, 1e-6, paths=1)
        with pytest.raises(ValueError):
            ensemble(_ou_free(), 1e-8, 1e-6, paths=10, window=(2e-6, 1e-6))
        with pytest.raises(ValueError, match="window holds no time step"):
            ensemble(_ou_free(), 1e-8, 1e-6, paths=10, window=(1.5e-8, 1.7e-8))


class TestPathStreams:
    # a drift-free node: C1 integrates N1's current, so each state row is a
    # running sum of the increments the run draws
    SIGMA, CAP = 1e-8, 2e-9

    def _net(self):
        return parse_netlist(f"C1 1 0 {self.CAP!r}\nN1 1 0 {self.SIGMA!r}\n.end\n")

    @pytest.mark.parametrize("steps_per_block", [7, 40])
    def test_one_stream_step_major(self, monkeypatch, steps_per_block):
        # step j's increments for paths 0 .. P - 1 follow step j - 1's in
        # the stream of (seed, 0), across block boundaries
        seed, steps, paths, dt = 11, 40, 5, 1e-9
        ss = _build_state_system(self._net())
        monkeypatch.setattr(stochastic, "_BLOCK_DOUBLES", steps_per_block * paths * 4)
        got = np.zeros((paths, steps + 1))
        for j0, rows, _ in stochastic._lockstep(ss, dt, steps, seed, paths, np.zeros(1)):
            got[:, j0:j0 + rows.shape[1]] = rows[:, :, 0]
        z = np.random.default_rng(np.random.SeedSequence([seed, 0])).standard_normal(
            (steps, paths, 1))
        want = np.zeros((paths, steps + 1))
        for j, inc in enumerate((z[:, :, 0] * math.sqrt(dt)) * (self.SIGMA / self.CAP)):
            want[:, j + 1] = want[:, j] + inc
        assert got.tobytes() == want.tobytes()

    def test_one_path_draws_the_wiener_increments(self):
        seed, steps, dt = 3, 50, 1e-9
        path = em_transient(self._net(), dt, steps * dt, seed=seed)
        inc = wiener_increments(steps, dt, seed).increments * (self.SIGMA / self.CAP)
        want = np.concatenate([[0.0], np.cumsum(inc)])
        assert path.voltages[:, path.nodes.index("1")].tobytes() == want.tobytes()

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            stochastic._rng_for_path(-1, 0)


class TestWeakOrder:
    def test_em_weak_order_one(self):
        # small noise isolates the O(dt) drift bias of the mean
        net = parse_netlist("R1 1 0 1k\nC1 1 0 1n\nN1 1 0 1e-9\n"
                            ".stoch 2e-6 1e-8 100\n.end\n")
        t_end = 2e-6
        errs, dts = [], [4e-8, 2e-8, 1e-8]
        for dt in dts:
            stats = ensemble(net, dt, t_end, paths=1500, seed=21,
                             x0=np.array([1.0]))
            i1 = stats.nodes.index("1")
            errs.append(abs(stats.mean[-1, i1] - math.exp(-LAM * t_end)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2


# --- reference state-space build ---------------------------------------------
# The state system and drift as the engine computed them before they were
# derived from mna.Circuit: stamped from the netlist by node name.

@dataclass
class _RefState:
    net: Netlist
    state_nodes: List[str]
    pinned: Dict[str, Element]
    cap: np.ndarray
    g_static: np.ndarray
    drive_static: List[Tuple[int, Element, float]]
    noise_cols: np.ndarray
    nonlinear: List[Element]

    def index(self, node):
        return self.state_nodes.index(node)


def _state_ref(net):
    noise = net.elements_of(ElementKind.NOISE)
    if not noise:
        raise StochasticError("stochastic run requires at least one noise source")
    pinned = {}
    for el in net.elements_of(ElementKind.VSOURCE):
        a, b = el.nodes
        if b == "0" and a != "0":
            node = a
        elif a == "0" and b != "0":
            raise StochasticError(
                f"source '{el.name}' must have its negative terminal at ground")
        else:
            raise StochasticError(
                f"source '{el.name}' must be grounded for the stochastic engine")
        if node in pinned:
            raise StochasticError(f"node '{node}' pinned by two sources")
        pinned[node] = el

    state_nodes = [nd for nd in net.nodes if nd not in pinned]
    ns = len(state_nodes)
    if ns == 0:
        raise StochasticError("no state nodes: every node is source-pinned")
    sidx = {nd: i for i, nd in enumerate(state_nodes)}

    cap = np.zeros((ns, ns))
    grounded = np.zeros(ns)
    for el in net.elements_of(ElementKind.CAPACITOR):
        a, b = el.nodes
        if (a != "0" and a in pinned) or (b != "0" and b in pinned):
            raise StochasticError(
                f"capacitor '{el.name}' may not couple to a source-pinned node")
        ia = sidx[a] if a != "0" else None
        ib = sidx[b] if b != "0" else None
        if ia is not None:
            cap[ia, ia] += el.value
        if ib is not None:
            cap[ib, ib] += el.value
        if ia is not None and ib is not None:
            cap[ia, ib] -= el.value
            cap[ib, ia] -= el.value
        if ia is not None and ib is None:
            grounded[ia] += el.value
        if ib is not None and ia is None:
            grounded[ib] += el.value

    for i, nd in enumerate(state_nodes):
        if grounded[i] <= 0.0:
            raise StochasticError(
                f"state node '{nd}' has no grounded capacitance; C is singular")

    g_static = np.zeros((ns, ns))
    drive_static = []
    for el in net.elements_of(ElementKind.RESISTOR):
        a, b = el.nodes
        g = 1.0 / el.value
        for me, other in ((a, b), (b, a)):
            if me == "0" or me in pinned:
                continue
            i = sidx[me]
            g_static[i, i] += g
            if other == "0":
                continue
            if other in pinned:
                drive_static.append((i, pinned[other], g))
            else:
                g_static[i, sidx[other]] -= g

    noise_cols = np.zeros((ns, len(noise)))
    for j, el in enumerate(noise):
        a, b = el.nodes
        for nd in (a, b):
            if nd != "0" and nd in pinned:
                raise StochasticError(
                    f"noise source '{el.name}' drives a source-pinned node")
        if a != "0":
            noise_cols[sidx[a], j] += el.value
        if b != "0":
            noise_cols[sidx[b], j] -= el.value

    return _RefState(net=net, state_nodes=state_nodes, pinned=pinned, cap=cap,
                     g_static=g_static, drive_static=drive_static,
                     noise_cols=noise_cols,
                     nonlinear=net.elements_of(*NONLINEAR_KINDS))


def _path_voltage_ref(ss, x, node, t):
    if node == "0":
        return 0.0
    if node in ss.pinned:
        return eval_waveform(ss.pinned[node].waveform, t)
    return x[:, ss.index(node)]


def _drift_ref(ss, x, t, fc=None):
    paths, ns = x.shape
    drift = np.zeros_like(x)
    for i in range(ns):
        acc = np.zeros(paths)
        row = ss.g_static[i]
        for j in range(ns):
            gij = row[j]
            if gij != 0.0:
                acc += gij * x[:, j]
        drift[:, i] = -acc
    for i, src, g in ss.drive_static:
        drift[:, i] += g * eval_waveform(src.waveform, t)
    for el in ss.nonlinear:
        m = ss.net.model_of(el)
        a_name, b_name = el.branch
        if all(nd == "0" or nd in ss.pinned for nd in el.branch):
            continue        # its current reaches no state row
        va = _path_voltage_ref(ss, x, a_name, t)
        vb = _path_voltage_ref(ss, x, b_name, t)
        if el.kind is ElementKind.MOSFET:
            vg = _path_voltage_ref(ss, x, el.nodes[1], t)
            vgs, vds, _ = mos_bias(va, vg, vb)
            geq = mos_geq(m, vgs, vds, fc)
        elif el.kind is ElementKind.RTD:
            geq = rtd_geq(m, va - vb, fc)
        else:
            geq = nanowire_geq(m, va - vb, fc)
        i_dev = np.maximum(geq, G_FLOOR) * (va - vb)
        if a_name != "0" and a_name not in ss.pinned:
            drift[:, ss.index(a_name)] -= i_dev
        if b_name != "0" and b_name not in ss.pinned:
            drift[:, ss.index(b_name)] += i_dev
    return drift


_STOCH_MODELS = (
    "\n.model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172 area=2)"
    "\n.model MFET NMOS (k=5e-3 W=4.4u L=1u Vth=1)"
    "\n.model NWM NW (g0=2e-5 vstep=0.5 nsteps=5 smooth=0.05)\n.end\n")


@st.composite
def _stoch_decks(draw):
    """Random decks the stochastic engine accepts, on 1-5 nodes, in random
    element order: grounded DC/PWL sources pinning some nodes, a grounded C
    at every other (state) node, floating C between state nodes, resistors
    and RTD/nanowire/MOS devices between any two nodes (gates anywhere),
    and noise sources on state nodes. Returns the deck, the number of
    paths, a seed for the state voltages, and t."""
    k = draw(st.integers(1, 5))
    nodes = draw(st.permutations([f"n{i}" for i in range(1, k + 1)]))
    pinned = nodes[:draw(st.integers(0, k - 1))]
    state = [nd for nd in nodes if nd not in pinned]
    anywhere = ["0"] + nodes
    cap = st.floats(1e-13, 1e-11)

    def pair(pool):
        a = draw(st.sampled_from(pool))
        return a, draw(st.sampled_from(pool).filter(lambda b: b != a))

    lines = []
    for i, nd in enumerate(pinned):
        level = draw(st.floats(-3.0, 3.0))
        wave = (f"DC {level!r}" if draw(st.booleans())
                else f"PWL(0 0 1n {level!r} 3n {-level!r})")
        lines.append(f"V{i} {nd} 0 {wave}")
    lines += [f"Cg{nd} {nd} 0 {draw(cap)!r}" for nd in state]
    if len(state) > 1:
        lines += [f"Cf{i} {' '.join(pair(state))} {draw(cap)!r}"
                  for i in range(draw(st.integers(0, 2)))]
    lines += [f"R{i} {' '.join(pair(anywhere))} {draw(st.floats(100.0, 1e5))!r}"
              for i in range(draw(st.integers(0, 6)))]
    lines += [f"N{i} {' '.join(pair(['0'] + state))} {draw(st.floats(0.0, 1e-7))!r}"
              for i in range(draw(st.integers(1, 3)))]
    for i in range(draw(st.integers(0, 3))):
        a, b = pair(anywhere)
        kind = draw(st.sampled_from(["rtd", "nw", "mos"]))
        lines.append({"rtd": f"XRTD{i} {a} {b} M1", "nw": f"XNW{i} {a} {b} NWM",
                      "mos": f"M{i} {a} {draw(st.sampled_from(anywhere))} {b} 0 MFET"}
                     [kind])
    deck = "* random deck\n" + "\n".join(draw(st.permutations(lines))) + _STOCH_MODELS
    return (deck, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)),
            draw(st.floats(0.0, 4e-9)))


def _drive_in_source_order(net):
    """Whether every state node has at most one resistor to each pinned
    node and the deck lists its resistors to pinned nodes in the order of
    their sources: then the drive sums its terms in the reference's order."""
    rank = {el.nodes[0]: k for k, el in enumerate(net.elements_of(ElementKind.VSOURCE))}
    seen = {}
    for el in net.elements_of(ElementKind.RESISTOR):
        for me, other in (el.nodes, el.nodes[::-1]):
            if me != "0" and me not in rank and other in rank:
                seen.setdefault(me, []).append(rank[other])
    return all(r == sorted(set(r)) for r in seen.values())


class TestStateSystemMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_stoch_decks())
    def test_matches_reference(self, case):
        deck, paths, seed, t = case
        net = parse_netlist(deck)
        ss, ref = _build_state_system(net), _state_ref(net)
        assert [ss.circuit.nodes[i] for i in ss.state] == ref.state_nodes
        assert ss.g_static.tobytes() == ref.g_static.tobytes()
        assert ss.cap.tobytes() == ref.cap.tobytes()
        assert ss.noise_cols.tobytes() == ref.noise_cols.tobytes()

        x = np.random.default_rng(seed).uniform(-1.0, 4.0, (paths, len(ss.state)))
        levels = ss.circuit.source_levels(t)
        fc, fc_ref = FlopCounter(), FlopCounter()
        got = _drift(ss, x, levels, fc)
        want = _drift_ref(ref, x, t, fc_ref)
        if _drive_in_source_order(net):
            assert got.tobytes() == want.tobytes()
        else:
            # the same terms summed in another order
            scale = (np.abs(x) @ np.abs(ss.g_static).T
                     + np.abs(levels) @ np.abs(ss.g_drive).T)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert fc == fc_ref
