"""Stochastic engine tests: Wiener paths, Ito sums, EM integration."""

import math

import numpy as np
import pytest

from nanosim.netlist import parse_netlist
from nanosim.stochastic import (StochasticError, em_transient, ensemble,
                                ito_sum, wiener_increments)

from conftest import deck_text

# OU parameters implied by the ou decks: lambda = 1/(RC), sigma = intensity/C
LAM = 1.0 / (1e3 * 1e-9)
SIGMA = 1e-7 / 1e-9
STAT_VAR = SIGMA ** 2 / (2 * LAM)


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
        net = parse_netlist("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n"
                            "N1 out 0 0\n.stoch 2e-6 1e-8 4\n.end\n")
        series = em_transient(net, 1e-8, 2e-6, seed=3)
        g, c, dt = 1e-3, 1e-9, 1e-8
        x = 0.0
        ref = [x]
        for _ in range(200):
            acc = 0.0
            acc += g * x
            drift = -acc
            drift += g * 1.0
            x = x + dt * (drift / c)
            ref.append(x)
        assert np.array_equal(series.v("out"), np.array(ref))

    def test_decays_not_explodes(self):
        series = em_transient(_ou_free("0"), 1e-8, 5e-6, x0=np.array([1.0]))
        v = series.v("1")
        assert v[0] == 1.0
        assert abs(v[-1]) < 0.01
        assert np.all(np.abs(v) <= 1.0)

    def test_stability_warning(self):
        with pytest.warns(RuntimeWarning):
            em_transient(_ou_free(), 9e-7, 9e-6)

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
        # standard error of the terminal mean halves from 1k to 4k paths
        def spread(paths):
            finals = []
            for s in range(12):
                stats = ensemble(_ou_free(), 1e-8, 1e-6, paths=paths, seed=100 + s)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            ensemble(_ou_free(), 1e-8, 1e-6, paths=1)
        with pytest.raises(ValueError):
            ensemble(_ou_free(), 1e-8, 1e-6, paths=10, window=(2e-6, 1e-6))


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
