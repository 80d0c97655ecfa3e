"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 asserts the operation-count speedup floor against the
naive Newton baseline; it is evaluated honestly from fresh counters.
"""

import math
import os
import time

import numpy as np
import pytest

from nanosim.cli import main as cli_main
from nanosim.devices import (MosModel, RtdModel, mos_current, rtd_current,
                             rtd_dgeq_dv, rtd_geq)
from nanosim.netlist import TranAnalysis, parse_netlist
from nanosim.nr import brute_force_dc, flop_compare, nr_dc
from nanosim.stochastic import em_transient, ensemble, ito_sum, wiener_increments
from nanosim.swec import dc_sweep, operating_point, transient

from conftest import card, deck_path, deck_text

RTD = RtdModel(a=1e-4, b=2.0, cp=1.5, d=0.3, h=1.43e-8, n1=0.35, n2=0.0172)
SCAN_MAX = 16.0          # covers peak (~3.31 V) and valley (~13.5 V)
OU_LAMBDA = 1e6          # 1/(R C) of the ou decks
OU_SIGMA = 1e-7 / 1e-9   # intensity / C


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _slope_sign_changes(j: np.ndarray) -> int:
    slope = np.diff(j)
    signs = np.sign(slope[slope != 0.0])
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def test_c01_rtd_curve_shape():
    t0 = time.perf_counter()
    v500 = np.linspace(0.0, SCAN_MAX, 500)
    j500 = rtd_current(RTD, v500)
    changes = _slope_sign_changes(j500)

    v_fine = np.linspace(0.0, SCAN_MAX, 100_000)
    j_fine = rtd_current(RTD, v_fine)
    peak_ref = v_fine[np.argmax(j_fine)]
    ipk = int(np.argmax(j_fine))
    valley_ref = v_fine[ipk + int(np.argmin(j_fine[ipk:]))]

    slope = np.diff(j500)
    peak_500 = v500[int(np.argmax(j500))]
    after_peak = int(np.argmax(j500))
    valley_500 = v500[after_peak + int(np.argmin(j500[after_peak:]))]
    cell = v500[1] - v500[0]
    wall = time.perf_counter() - t0
    ok = (changes == 2 and abs(peak_500 - peak_ref) <= cell
          and abs(valley_500 - valley_ref) <= cell and wall < 1.0)
    assert report(1, ok, f"two slope sign changes={changes == 2}, "
                         f"peak {peak_500:.3f} vs {peak_ref:.3f}, "
                         f"valley {valley_500:.2f} vs {valley_ref:.2f}, "
                         f"{wall * 1e3:.0f} ms")
    assert changes == 2
    assert abs(peak_500 - peak_ref) <= cell
    assert abs(valley_500 - valley_ref) <= cell
    assert wall < 1.0


def test_c02_conductance_positivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    n_models, n_volt = 10_000, 100
    worst = np.inf
    for _ in range(n_models):
        m = RtdModel(a=10 ** rng.uniform(-6, -2),
                     b=rng.uniform(0.5, 3.0),
                     cp=rng.uniform(0.5, 3.0),
                     d=rng.uniform(0.05, 1.0),
                     h=10 ** rng.uniform(-10, -6),
                     n1=rng.uniform(0.05, 1.0),
                     n2=rng.uniform(0.005, 0.1),
                     temp=rng.uniform(250.0, 400.0))
        g = rtd_geq(m, rng.uniform(1e-6, 4.5, n_volt))
        if not np.all(np.isfinite(g)):
            worst = np.nan
            break
        worst = min(worst, float(g.min()))
    wall = time.perf_counter() - t0
    ok = np.isfinite(worst) and worst > 0.0 and wall < 10.0
    assert report(2, ok, f"{n_models}x{n_volt} samples, min geq = {worst:.3e} S, "
                         f"{wall:.1f} s")


def test_c03_analytic_derivative():
    v = np.linspace(1e-3, 4.5, 1000)
    d = 1e-4
    fd = (rtd_geq(RTD, v + d) - rtd_geq(RTD, v - d)) / (2 * d)
    an = rtd_dgeq_dv(RTD, v)
    rel = np.max(np.abs(an - fd) / np.abs(fd))
    ok = rel <= 1e-5
    assert report(3, ok, f"max relative error {rel:.3e} over 1000-point grid")


def test_c04_linear_circuit_exactness():
    net = parse_netlist(deck_text("rc_lowpass.ckt"))
    series = transient(net, 5e-9)
    exact = 1.0 - np.exp(-series.times / 1e-9)
    analytic_err = float(np.max(np.abs(series.v("out") - exact)))

    v = 0.0
    replay = [v]
    for t0, t1 in zip(series.times, series.times[1:]):
        g = 1e-12 / (t1 - t0)
        v = (1e-3 + g * v) / (1e-3 + g)
        replay.append(v)
    replay_err = float(np.max(np.abs(series.v("out") - np.array(replay))))
    ok = analytic_err <= 0.01 and replay_err <= 1e-10
    assert report(4, ok, f"analytic error {analytic_err:.2e} (<= 1e-2), "
                         f"backward-Euler replay error {replay_err:.2e} (<= 1e-10)")


def test_c05_dc_sweep_correctness():
    net = parse_netlist(deck_text("rtd_divider.ckt"))
    sweep = dc_sweep(net, "V1", 0.0, SCAN_MAX, 60)
    i_scale = float(np.max(np.abs(sweep.currents["XRTD1"])))
    worst_res = worst_root = 0.0
    for k, bias in enumerate(sweep.biases):
        v2 = sweep.voltages[k, 1]
        worst_res = max(worst_res,
                        abs((bias - v2) / 100.0 - rtd_current(RTD, v2)))
        stable = [v for v, s in brute_force_dc(RTD, 100.0, bias) if s]
        worst_root = max(worst_root, min(abs(v2 - v) for v in stable))
    ok = (bool(np.all(sweep.settled)) and worst_res <= 1e-6 * i_scale
          and worst_root <= 1e-3)
    assert report(5, ok, f"60 points settled, worst KCL residual {worst_res:.2e} "
                         f"(<= {1e-6 * i_scale:.2e}), worst stable-root distance "
                         f"{worst_root:.2e} V (<= 1e-3)")


def test_c06_ndr_failure_demonstration():
    net = parse_netlist(deck_text("rtd_divider_bistable.ckt"))
    failures = 0
    for g in np.linspace(0.0, 12.0, 20):
        rep = nr_dc(net, initial_guess=np.array([12.0, g]), max_iter=100)
        if not rep.converged or rep.oscillation_detected:
            failures += 1
    op = operating_point(net)
    v2 = op.v("2")
    residual = abs((12.0 - v2) / 1000.0 - rtd_current(RTD, v2))
    swec_ok = op.settled and residual <= 1e-8
    ok = failures >= 1 and swec_ok
    assert report(6, ok, f"naive NR failed at {failures}/20 guesses; "
                         f"engine settled from zero start to v = {v2:.4f} V")


def test_c07_no_iteration_property():
    mos_tran = ("V1 vdd 0 DC 5\nV2 g 0 PULSE(0 3 2n 1n 1n 6n 20n)\n"
                "R1 vdd d 1k\nM1 d g 0 0 MFET\nC1 d 0 2p\n"
                ".model MFET NMOS (k=1e-4 W=2u L=1u Vth=1)\n.tran 15n\n.end\n")
    nw_tran = ("V1 1 0 PWL(0 0 2n 3)\nR1 1 2 2k\nXNW1 2 0 NWM\nC1 2 0 2p\n"
               ".model NWM NW (g0=2e-5 vstep=0.5 nsteps=5 smooth=0.05)\n"
               ".tran 10n\n.end\n")
    decks = [deck_text("rc_lowpass.ckt"), deck_text("rtd_divider_tran.ckt"),
             deck_text("fet_rtd_inverter.ckt"), mos_tran, nw_tran]
    counts = []
    for text in decks:
        net = parse_netlist(text)
        series = transient(net, card(net, TranAnalysis).t_stop)
        counts.append((series.n_solves, series.steps_taken, series.steps_rejected))
        assert series.n_solves == series.steps_taken + series.steps_rejected
    detail = "; ".join(f"{s}=={t}+{r}" for s, t, r in counts)
    assert report(7, True, f"solves == taken + rejected on 5 decks: {detail}")


def test_c08_speedup_trend():
    t0 = time.perf_counter()
    net = parse_netlist(deck_text("rtd_divider.ckt"))
    c60 = flop_compare(net, dc_sweep(net, "V1", 0.0, SCAN_MAX, 60))
    c500 = flop_compare(net, dc_sweep(net, "V1", 0.0, SCAN_MAX, 500))
    wall = time.perf_counter() - t0
    ok = (c60.speedup > 5.0 and c500.speedup > 5.0
          and c500.speedup >= 0.8 * c60.speedup and wall < 30.0)
    report(8, ok, f"speedup 60pt = {c60.speedup:.2f} "
                  f"(swec {c60.swec_flops} vs nr {c60.nr_flops}), "
                  f"500pt = {c500.speedup:.2f} "
                  f"(swec {c500.swec_flops} vs nr {c500.nr_flops}), {wall:.1f} s")
    assert wall < 30.0
    assert c500.speedup >= 0.8 * c60.speedup
    assert c60.speedup > 5.0 and c500.speedup > 5.0, (
        "converged-per-point sweeps cannot beat a healthy quadratic Newton "
        "baseline by 5x on this device; see the project notes for the "
        f"measured ratios ({c60.speedup:.2f}, {c500.speedup:.2f})")


def test_c09_wiener_statistics():
    n, dt = 100_000, 1e-3
    inc = wiener_increments(n, dt, seed=12345).increments
    sigma = math.sqrt(dt)
    mean_ok = abs(inc.mean()) <= 4 * sigma / math.sqrt(n)
    var_rel = abs(inc.var() / dt - 1.0)
    blocks = inc.reshape(-1, 10).sum(axis=1)
    rho = float(np.corrcoef(blocks[:-1], blocks[1:])[0, 1])
    ok = mean_ok and var_rel <= 0.05 and abs(rho) <= 0.02
    assert report(9, ok, f"|mean| <= 4 sigma/sqrt(n): {mean_ok}, "
                         f"var error {var_rel:.3%} (<= 5%), block corr "
                         f"{rho:+.4f} (|rho| <= 0.02)")


def test_c10_ito_discipline():
    n, dt, paths = 256, 1.0 / 256, 10_000
    sums = np.empty(paths)
    for k in range(paths):
        path = wiener_increments(n, dt, seed=k)
        w = path.values()
        sums[k] = ito_sum(w[:-1], path)
    se = sums.std(ddof=1) / math.sqrt(paths)
    mean = sums.mean()
    ok = abs(mean) <= 3 * se and abs(mean - 0.5) >= 5 * se
    assert report(10, ok, f"mean {mean:+.4f} within 3 SE of 0 (SE {se:.4f}) and "
                          f"{abs(mean - 0.5) / se:.0f} SE away from T/2")


def test_c11_em_correctness():
    t0 = time.perf_counter()
    net = parse_netlist(deck_text("ou_free.ckt"))
    dt, t_stop, paths = 5e-9, 5e-6, 10_000
    stats = ensemble(net, dt, t_stop, paths=paths, seed=6, x0=np.array([1.0]))
    i1 = stats.nodes.index("1")
    checkpoints = np.linspace(0.1, 1.0, 10) * t_stop
    mean_ok = True
    for tc in checkpoints:
        i = int(round(tc / dt))
        se = math.sqrt(stats.variance[i, i1] / paths)
        if abs(stats.mean[i, i1] - math.exp(-OU_LAMBDA * stats.times[i])) > 3 * se:
            mean_ok = False
    tail = stats.times >= 3e-6
    tail_var = float(stats.variance[tail, i1].mean())
    stat_var = OU_SIGMA ** 2 / (2 * OU_LAMBDA)
    var_rel = abs(tail_var / stat_var - 1.0)

    quiet = parse_netlist("R1 1 0 1k\nC1 1 0 1n\nN1 1 0 1e-9\n"
                          ".stoch 2e-6 1e-8 100\n.end\n")
    errs, dts = [], [4e-8, 2e-8, 1e-8]
    for d in dts:
        s = ensemble(quiet, d, 2e-6, paths=1500, seed=21, x0=np.array([1.0]))
        errs.append(abs(s.mean[-1, s.nodes.index("1")]
                        - math.exp(-OU_LAMBDA * 2e-6)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    wall = time.perf_counter() - t0
    ok = mean_ok and var_rel <= 0.10 and 0.8 <= slope <= 1.2 and wall < 60.0
    assert report(11, ok, f"mean within 3 SE at 10 checkpoints: {mean_ok}, "
                          f"stationary variance error {var_rel:.2%} (<= 10%), "
                          f"weak-order slope {slope:.2f} in [0.8, 1.2], "
                          f"{wall:.1f} s")


def test_c12_deterministic_degeneration():
    net = parse_netlist("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\nN1 out 0 0\n"
                        ".stoch 2e-6 1e-8 4\n.end\n")
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
    identical = bool(np.array_equal(series.v("out"), np.array(ref)))
    assert report(12, identical,
                  "zero-intensity path equals forward Euler bit-for-bit")


@pytest.fixture(scope="module")
def inverter_series():
    net = parse_netlist(deck_text("fet_rtd_inverter.ckt"))
    return transient(net, 110e-9)


def _window_level(series, node, t_lo, t_hi):
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    return float(np.mean(series.v(node)[mask]))


def test_c13_fet_rtd_inverter(inverter_series):
    series = inverter_series
    mos = MosModel(k=5e-3, w=4.4e-6, l=1e-6, vth=1.0)
    rtd2 = RtdModel(a=1e-4, b=2.0, cp=1.5, d=0.3, h=1.43e-8, n1=0.35,
                    n2=0.0172, area=2.0)

    def composite_roots(vin):
        v = np.linspace(1e-4, 5.0 - 1e-4, 200_001)
        f = rtd_current(rtd2, 5.0 - v) - rtd_current(rtd2, v) \
            - mos_current(mos, vin, v)
        idx = np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
        roots = 0.5 * (v[idx] + v[idx + 1])
        slopes = (f[idx + 1] - f[idx]) / (v[idx + 1] - v[idx])
        return [r for r, s in zip(roots, slopes) if s < 0]   # stable crossings

    high_root = min(composite_roots(0.0), key=lambda r: abs(r - 2.5))
    low_root = min(composite_roots(5.0))
    lvl_high1 = _window_level(series, "out", 26e-9, 30e-9)
    lvl_low = _window_level(series, "out", 56e-9, 62e-9)
    lvl_high2 = _window_level(series, "out", 104e-9, 110e-9)

    distinct = abs(lvl_high1 - lvl_low) > 1.0
    near = (abs(lvl_high1 - high_root) <= 0.05 and abs(lvl_low - low_root) <= 0.05
            and abs(lvl_high2 - high_root) <= 0.05)
    switched = lvl_low < 1.0 < lvl_high1 and lvl_low < 1.0 < lvl_high2
    ok = distinct and near and switched
    assert report(13, ok, f"levels {lvl_high1:.3f} / {lvl_low:.3f} / "
                          f"{lvl_high2:.3f} V vs stable roots "
                          f"{high_root:.3f} / {low_root:.3f} V")


def test_c14_reproducibility(tmp_path, capsys, monkeypatch):
    def run(out, threads):
        monkeypatch.setenv("NANOSIM_THREADS", str(threads))
        code = cli_main(["stoch", deck_path("ou_step.ckt"), "--paths", "400",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        with open(out, "rb") as fh:
            return fh.read()

    a = run(tmp_path / "a.csv", 1)
    b = run(tmp_path / "b.csv", 1)
    c = run(tmp_path / "c.csv", 4)

    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    assert cli_main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(t1)]) == 0
    assert cli_main(["tran", deck_path("rc_lowpass.ckt"), "--out", str(t2)]) == 0
    tran_same = t1.read_bytes() == t2.read_bytes()
    ok = a == b == c and tran_same
    assert report(14, ok, "stoch CSV byte-identical across runs and thread "
                          "counts; tran CSV byte-identical across runs")
