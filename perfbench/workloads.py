"""The benchmark's three workloads and the oracle check of each operation.

Every command is one ``nanosim <analysis> <deck> ...`` invocation. The seed
sets the ensemble seed and the values of the generated decks; shipped decks
run as shipped.

* ``tran-inverter``: the shipped transient decks (``rtd_dff`` is left out:
  44 s and illustrative only). Per-step Python overhead dominates: scalar
  device calls and a 5x5 assemble/solve per step.
* ``dc-sweep``: the shipped ``op`` decks, ``nanowire_divider`` at 400
  points, ``rtd_divider`` at 500 points with the Newton comparison, and a
  generated R~200 ohm RTD divider swept 0-30 V that hits the chord
  iteration's 2-cycle (settle mode, engine rebuilt per point, Newton).
* ``stoch-ensemble``: ``ou_step`` at 8192 paths, ``ou_free`` as shipped and
  a generated noisy FET-RTD inverter (128 paths x 1100 steps through the
  per-path MOS loop): EM drift, RNG substreams, storage and reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import harness
import oracles
from oracles import Verdict

WORKLOADS = ("tran-inverter", "dc-sweep", "stoch-ensemble")

RTD_MODEL_CARD = ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)"
STRESS_POINTS = 100
INVERTER_PATHS = 128
OU_STEP_PATHS = 8192
RTD_SWEEP_POINTS = 500
NANOWIRE_POINTS = 400


@dataclass
class Op:
    """One ``nanosim`` command and the oracle that judges its output."""

    label: str
    argv: List[str]
    count: int                      # operations it stands for
    check: Callable[["harness.CliRun", Optional[tuple]], Verdict]
    out: Optional[Path] = None      # CSV the command writes

    @property
    def deck(self) -> str:
        return self.argv[1]


def stress_deck(r: float) -> str:
    return (f"* generated rtd divider, chord 2-cycle stress\n"
            f"V1 1 0 DC 0\nR1 1 2 {r!r}\nXRTD1 2 0 M1\n{RTD_MODEL_CARD}\n"
            f".dc V1 0 30 {STRESS_POINTS}\n.end\n")


def noisy_inverter_deck(sigma: float, seed: int) -> str:
    """The shipped FET-RTD inverter with a white-noise current at ``out``."""
    with open(harness.deck("fet_rtd_inverter"), "r", encoding="utf-8") as fh:
        body = [ln for ln in fh.read().splitlines()
                if not ln.lower().startswith((".tran", ".end"))]
    body[0] = "* generated noisy fet-rtd inverter"
    return "\n".join(body + [f"N1 out 0 {sigma!r}",
                             f".stoch 110n 0.1n {INVERTER_PATHS} seed={seed}",
                             ".end"]) + "\n"


def generated_values(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"stress_r": 200.0 + float(rng.uniform(-1.0, 1.0)),
            "noise_sigma": 1e-8 * (1.0 + float(rng.uniform(-0.1, 0.1)))}


def build(name: str, seed: int, workdir: Path) -> List[Op]:
    """The operations of workload ``name``; generated decks go to ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    values = generated_values(seed)
    if name == "tran-inverter":
        return [_tran(d, workdir) for d in ("fet_rtd_inverter", "rtd_divider_tran",
                                            "rc_lowpass")]
    if name == "dc-sweep":
        stress = workdir / "rtd_divider_stress.ckt"
        stress.write_text(stress_deck(values["stress_r"]), encoding="utf-8")
        return [_op("divider"), _op("mos_divider"), _op("rtd_divider_bistable"),
                _sweep("nanowire_divider", harness.deck("nanowire_divider"), workdir,
                       ["--points", str(NANOWIRE_POINTS)], NANOWIRE_POINTS),
                _sweep("rtd_divider", harness.deck("rtd_divider"), workdir,
                       ["--points", str(RTD_SWEEP_POINTS), "--compare-nr"],
                       RTD_SWEEP_POINTS),
                _sweep("rtd_divider_stress", str(stress), workdir, [], STRESS_POINTS)]
    if name == "stoch-ensemble":
        inv = workdir / "fet_rtd_inverter_noisy.ckt"
        inv.write_text(noisy_inverter_deck(values["noise_sigma"], seed), encoding="utf-8")
        return [_stoch("ou_step", harness.deck("ou_step"), workdir, seed,
                       ["--paths", str(OU_STEP_PATHS)], _check_ou),
                _stoch("ou_free", harness.deck("ou_free"), workdir, seed, [], _check_ou),
                _stoch("fet_rtd_inverter_noisy", str(inv), workdir, seed, [],
                       _check_inverter)]
    raise ValueError(f"unknown workload {name!r}")


def _parse(path: str):
    from nanosim.netlist import parse_netlist_file
    return parse_netlist_file(path)


# --- transients ------------------------------------------------------------------

def _tran(name: str, workdir: Path) -> Op:
    out = workdir / f"{name}_tran.csv"

    def check(run, table) -> Verdict:
        v = Verdict(f"tran {name}", 1)
        if run.error is not None:
            v.raised, v.detail = True, f"raised {run.error!r}"
            return v
        from nanosim.netlist import TranAnalysis
        net = _parse(run.argv[1])
        card = next(a for a in net.analyses if isinstance(a, TranAnalysis))
        eps = card.eps if card.eps is not None else 0.01
        _, header, rows = table
        err, at, tol = oracles.tran_error(name, net, header, rows, eps)
        rep = run.report
        v.misses = int(not err <= tol)
        v.flagged = int(run.exit_code != 0)
        v.values = {"err_v": err, "steps": rep.steps, "rejections": rep.rejections,
                    "solves": rep.steps + rep.rejections, "flops": rep.flops}
        v.detail = (f"{rep.steps} steps, {rep.rejections} rejected, exit {run.exit_code}; "
                    f"err_v {err:.4g} V at t={at:.3g} s (tol {tol:.3g} V)")
        return v
    return Op(f"tran {name}", ["tran", harness.deck(name), "--out", str(out)], 1, check, out)


# --- operating points and sweeps ---------------------------------------------------

def _op(name: str) -> Op:
    def check(run, table) -> Verdict:
        v = Verdict(f"op {name}", 1)
        if run.error is not None:
            v.raised, v.detail = True, f"raised {run.error!r}"
            return v
        from nanosim.netlist import ElementKind
        net = _parse(run.argv[1])
        got = oracles.printed_op(run.stdout)
        el = {e.name.upper(): e for e in net.elements}
        if name == "divider":
            vin = el["V1"].waveform.level
            node, want = "2", vin * el["R2"].value / (el["R1"].value + el["R2"].value)
            miss = abs(got.get(node, np.nan) - want)
        elif name == "mos_divider":
            node = "d"
            want = oracles.mos_divider_vd(el["V1"].waveform.level, el["V2"].waveform.level,
                                          el["R1"].value, net.model_of(el["M1"]))
            miss = abs(got.get(node, np.nan) - want)
        else:
            rtd = net.elements_of(ElementKind.RTD)[0]
            node = rtd.nodes[0]
            want = got.get(node, np.nan)
            miss = oracles.rtd_miss(net.model_of(rtd), el["R1"].value,
                                    el["V1"].waveform.level, want)
        tol = oracles.dc_tol_printed(got.get(node, 0.0))
        v.misses = int(not miss <= tol)
        v.flagged = int(run.exit_code != 0)
        v.values = {"flops": run.report.flops}
        v.detail = f"v({node}) = {got.get(node)}: off by {miss:.3g} V (tol {tol:.3g} V)"
        return v
    return Op(f"op {name}", ["op", harness.deck(name)], 1, check)


def _sweep(name: str, deck: str, workdir: Path, extra: List[str], points: int) -> Op:
    out = workdir / f"{name}_dc.csv"

    def check(run, table) -> Verdict:
        v = Verdict(f"dc {name}", points)
        if run.error is not None:
            v.raised, v.detail = True, f"raised {run.error!r}"
            return v
        from nanosim.netlist import ElementKind
        net = _parse(run.argv[1])
        _, header, rows = table
        r = net.elements_of(ElementKind.RESISTOR)[0].value
        dev = net.elements_of(ElementKind.RTD, ElementKind.NANOWIRE)[0]
        model = net.model_of(dev)
        biases, vout = rows[:, 0], rows[:, header.index(f"v({dev.nodes[0]})")]
        if dev.kind is ElementKind.NANOWIRE:
            dist = np.abs(vout - oracles.nanowire_roots(model, r, biases))
        else:
            dist = np.array([oracles.rtd_miss(model, r, b, x)
                             for b, x in zip(biases, vout)])
        v.misses = int(np.count_nonzero(~(dist <= oracles.DC_TOL)))
        v.flagged = oracles.unsettled_count(run.stderr)
        settled_err = dist[dist <= oracles.DC_TOL]
        v.values = {"flops": run.report.flops}
        v.detail = (f"{len(biases)} points, {v.misses} off their load-line root by more "
                    f"than {oracles.DC_TOL:g} V, {v.flagged} reported unsettled; "
                    f"worst passing point {settled_err.max() if settled_err.size else 0.0:.3g} V")
        if "--compare-nr" in run.argv:
            flops = oracles.nr_flops(run.stdout)
            if flops is None:
                v.raised, v.detail = True, "no Newton comparison printed"
                return v
            swec, nr = flops
            v.values["nr_flop_ratio"] = nr / swec
            v.detail += f"; Newton flops {nr} / SWEC {swec} = {nr / swec:.4f}"
        return v
    return Op(f"dc {name}", ["dc", deck, "--out", str(out)] + extra, points, check, out)


# --- ensembles ---------------------------------------------------------------------

def _stoch(name: str, deck: str, workdir: Path, seed: int, extra: List[str],
           oracle: Callable) -> Op:
    out = workdir / f"{name}_stoch.csv"

    def check(run, table) -> Verdict:
        v = Verdict(f"stoch {name}", 1)
        if run.error is not None:
            v.raised, v.detail = True, f"raised {run.error!r}"
            return v
        _, header, rows = table
        problem = oracles.ensemble_sane(header, rows)
        if problem:
            v.misses, v.detail = 1, problem
        else:
            v.misses, v.detail = oracle(_parse(run.argv[1]), run.argv, header, rows)
        v.flagged = int(run.exit_code != 0)
        return v
    argv = ["stoch", deck, "--seed", str(seed), "--out", str(out)] + extra
    return Op(f"stoch {name}", argv, 1, check, out)


def _paths(argv: List[str], card) -> int:
    return int(argv[argv.index("--paths") + 1]) if "--paths" in argv else card.paths


def _check_ou(net, argv, header, rows):
    from nanosim.netlist import ElementKind, StochAnalysis
    card = next(a for a in net.analyses if isinstance(a, StochAnalysis))
    paths = _paths(argv, card)
    noise = net.elements_of(ElementKind.NOISE)[0]
    node = noise.nodes[0]
    r = net.elements_of(ElementKind.RESISTOR)[0].value
    c = net.elements_of(ElementKind.CAPACITOR)[0].value
    srcs = net.elements_of(ElementKind.VSOURCE)
    vin = srcs[0].waveform.level if srcs else 0.0
    dt, tau = card.dt, r * c
    mean, var = rows[:, header.index(f"mean({node})")], rows[:, header.index(f"var({node})")]
    worst, gap, misses = 0.0, 0.0, 0
    for t in (tau, 2.5 * tau, card.t_stop):
        j = int(round(t / dt))
        m_ref, v_ref = oracles.ou_moments(vin, r, c, noise.value, dt, j)
        se_m = np.sqrt(v_ref / paths)
        se_v = v_ref * np.sqrt(2.0 / (paths - 1))
        z = max(abs(mean[j] - m_ref) / se_m, abs(var[j] - v_ref) / se_v)
        worst = max(worst, z)
        misses += int(not z <= oracles.N_SE)
        m_c, _ = oracles.ou_continuous(vin, r, c, noise.value, j * dt)
        gap = max(gap, abs(m_ref - m_c))
    return int(misses > 0), (f"{paths} paths: worst moment {worst:.2f} SE from the EM "
                             f"closed form (limit {oracles.N_SE:g}); EM mean bias vs "
                             f"continuous OU {gap:.2g} V")


def _check_inverter(net, argv, header, rows):
    from nanosim.netlist import StochAnalysis
    card = next(a for a in net.analyses if isinstance(a, StochAnalysis))
    paths = _paths(argv, card)
    grid, ref, nodes = oracles.load_reference("fet_rtd_inverter")
    k = nodes.index("out")
    mean, var = rows[:, header.index("mean(out)")], rows[:, header.index("var(out)")]
    worst, misses = 0.0, 0
    for t in oracles.PLATEAU_TIMES:
        j = int(round(t / card.dt))
        want = float(np.interp(t, grid, ref[:, k]))
        tol = oracles.N_SE * np.sqrt(var[j] / paths) + oracles.PLATEAU_TOL
        worst = max(worst, abs(mean[j] - want) / tol)
        misses += int(not abs(mean[j] - want) <= tol)
    return int(misses > 0), (f"{paths} paths: plateau means within {worst:.2f} of their "
                             f"tolerance ({oracles.N_SE:g} SE + {oracles.PLATEAU_TOL:g} V) "
                             "of the deterministic reference")
