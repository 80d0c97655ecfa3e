"""nanosim benchmark.

    python3 perfbench/run.py --workload tran-inverter|dc-sweep|stoch-ensemble|all
                             [--seed N] [--seconds S] [--trace 0|1]

Runs every operation of the workload in-process, through the same path as
``nanosim <analysis> <deck> --out <csv>``, one after another on one thread,
and checks every output against an independent oracle (see ``oracles.py``).

``--trace 0`` measures with tracing off: it times fresh interpreters for
``setup_s``, then repeats whole passes over the workload until ``--seconds``
have elapsed (at least one) and reports medians. ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer figures
(``tracing.py``); the spans go to ``.perfbench_out/spans-<workload>.csv``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations that raised or gave a wrong answer the
program did not flag) and ``metrics``. The lines before it are the report:
each operation's oracle verdict and the workload's end-to-end figures.
``--workload all`` runs the three workloads one after another, each in its
own process, and relays their reports.
"""

from __future__ import annotations

import harness  # noqa: I001  (pins threads before numpy loads)

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import tracing
import workloads

SETUP_REPEATS = 7
_SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import nanosim\n"
    "from nanosim.netlist import parse_netlist\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_netlist(fh.read())\n"
)


def measure_setup(decks: List[str]) -> float:
    """Median wall time of a fresh interpreter importing nanosim and parsing
    the workload's decks."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(harness.SRC), *decks],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _signature(op: workloads.Op, run: harness.CliRun) -> tuple:
    """What must repeat exactly between passes: exit code, work counters
    and the bytes written."""
    if op.out is not None and op.out.is_file():
        digest = hashlib.sha256(op.out.read_bytes()).hexdigest()
    else:
        digest = hashlib.sha256(run.stdout.encode()).hexdigest()
    rep = run.report
    counters = (rep.steps, rep.rejections, rep.flops) if rep is not None else None
    return run.exit_code, counters, digest


def run_pass(cli, ops: List[workloads.Op], tracer: Optional[tracing.Tracer] = None):
    """One pass over the workload: (runs, signatures, wall seconds)."""
    runs, sigs = [], []
    for op in ops:
        span = tracer.span(f"cli.{op.argv[0]}@perfbench") if tracer is not None else None
        run = harness.run_cli(cli, op.argv, span)
        runs.append(run)
        sigs.append(_signature(op, run))
    return runs, sigs, sum(r.seconds for r in runs)


def judge(ops: List[workloads.Op], runs: List[harness.CliRun]):
    verdicts = []
    for op, run in zip(ops, runs):
        table = harness.read_csv(op.out) if (op.out is not None and run.error is None
                                              and op.out.is_file()) else None
        verdicts.append(op.check(run, table))
    return verdicts


def headline(verdicts) -> Dict[str, Optional[float]]:
    """The workload's end-to-end counters; None where one does not apply."""
    def collect(key):
        return [v.values[key] for v in verdicts if key in v.values]
    count = sum(v.count for v in verdicts)
    solves, flops, err, ratio = (collect(k) for k in ("solves", "flops", "err_v",
                                                      "nr_flop_ratio"))
    return {
        "fail_frac": sum(v.failed for v in verdicts) / count,
        "solves": sum(solves) if solves else None,
        "flops": sum(flops) if flops and any(flops) else None,
        "err_v": max(err) if err else None,
        "nr_flop_ratio": ratio[0] if ratio else None,
    }


def print_report(name: str, seed: int, verdicts, figures: List[Tuple[str, object, str]]):
    print(f"== {name} (seed {seed})")
    for v in verdicts:
        state = "FAIL" if v.failed else "ok"
        print(f"  [{state:4}] {v.label:32} {v.count:4d} op(s), {v.failed} failed: {v.detail}")
    for key, value, unit in figures:
        text = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"  {key:26} {text:>14} {unit}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = harness.import_cli()
    workdir = harness.OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(name, seed, workdir)
    problems: List[str] = []
    try:
        if trace:
            result = _measure_traced(cli, name, seed, ops, problems)
        else:
            result = _measure_untraced(cli, name, seed, seconds, ops, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"  problem: {p}")
    result["correct"] = result["correct"] and not problems
    return result


def _measure_untraced(cli, name, seed, seconds, ops, problems) -> dict:
    decks = sorted({op.deck for op in ops})
    setup_s = measure_setup(decks)
    walls, first = [], None
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        runs, sigs, wall = run_pass(cli, ops)
        walls.append(wall)
        if first is None:
            first = (runs, sigs)
        elif sigs != first[1]:
            problems.append(f"pass {len(walls)} differs from pass 1")
    peak = _rss_mb()
    verdicts = judge(ops, first[0])
    h = headline(verdicts)
    count = sum(v.count for v in verdicts)
    silent = sum(v.silent for v in verdicts)
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (peak, "MB"), "pass_frac": (1.0 - h["fail_frac"], "ratio")}
    print_report(name, seed, verdicts, [
        ("setup_s", setup_s, f"s (median of {SETUP_REPEATS} fresh interpreters)"),
        ("wall_s", metrics["wall_s"][0],
         "s (median of passes " + ", ".join(f"{w:.3f}" for w in walls) + ")"),
        ("peak_rss_mb", peak, "MB"),
        ("fail_frac", h["fail_frac"], f"ratio ({sum(v.failed for v in verdicts)} of {count})"),
        ("solves", h["solves"], "count"),
        ("flops", h["flops"], "count"),
        ("err_v", h["err_v"], "V"),
        ("nr_flop_ratio", h["nr_flop_ratio"], "ratio"),
        ("pass_frac", metrics["pass_frac"][0], "ratio"),
    ])
    return {"correct": silent == 0, "attempted": count * len(walls),
            "failed": silent * len(walls),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


@dataclass
class TracedPass:
    """An untraced pass and a traced pass over the same operations."""

    ops: List[workloads.Op]
    runs: List[harness.CliRun]
    sigs: list
    wall: float
    runs_t: List[harness.CliRun]
    sigs_t: list
    wall_t: float
    tracer: tracing.Tracer

    @property
    def roots(self) -> List[int]:
        """Root span id of each operation, in order."""
        return [sid for sid, par in enumerate(self.tracer.parent) if par < 0]


def traced_pass(cli, ops: List[workloads.Op]) -> TracedPass:
    runs, sigs, wall = run_pass(cli, ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runs_t, sigs_t, wall_t = run_pass(cli, ops, tracer)
    finally:
        tracer.restore()
    return TracedPass(ops, runs, sigs, wall, runs_t, sigs_t, wall_t, tracer)


def trace_problems(tp: TracedPass) -> List[str]:
    """Checks a traced pass must meet: identical counters and outputs with
    tracing on and off, layer self times within the wall time, and one
    linear solve per transient step attempt (steps + rejected)."""
    problems = []
    if tp.sigs_t != tp.sigs:
        problems.append("traced pass differs from untraced pass")
    self_total = sum(tracing.layer_self_times(tp.tracer).values())
    if self_total > tp.wall_t:
        problems.append(f"layer self times {self_total} s exceed wall {tp.wall_t} s")
    solves = tracing.solves_per_root(tp.tracer)
    for op, run, run_t, root in zip(tp.ops, tp.runs, tp.runs_t, tp.roots):
        if op.argv[0] == "tran" and run.report is not None and run_t.report is not None:
            want = run.report.steps + run.report.rejections
            got = (solves.get(root, 0), run_t.report.steps + run_t.report.rejections)
            if got != (want, want):
                problems.append(f"{op.label}: traced solves {got[0]}, traced steps+rejected "
                                f"{got[1]}, report {want}")
    return problems


def _measure_traced(cli, name, seed, ops, problems) -> dict:
    tp = traced_pass(cli, ops)
    problems.extend(trace_problems(tp))
    out_bytes = sum(op.out.stat().st_size for op in ops
                    if op.out is not None and op.out.is_file())
    layers = tracing.layer_metrics(tp.tracer, out_bytes, tp.wall_t, tp.wall)
    self_times = tracing.layer_self_times(tp.tracer)
    tp.tracer.write(harness.OUT / f"spans-{name}.csv")
    verdicts = judge(ops, tp.runs)
    h = headline(verdicts)
    count = sum(v.count for v in verdicts)
    silent = sum(v.silent for v in verdicts)
    per_layer = dict(layers)
    per_layer.update({k: (0.0 if v is None else v) for k, v in h.items()})
    units = per_layer_units()
    print_report(name, seed, verdicts,
                 [(k, v, units[k]) for k, v in per_layer.items()]
                 + [(f"self_s[{k}]", v, "s") for k, v in sorted(self_times.items())]
                 + [("wall_s traced / untraced", f"{tp.wall_t:.4f} / {tp.wall:.4f}", "s")])
    return {"correct": silent == 0, "attempted": 2 * count, "failed": 2 * silent,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}}


def per_layer_units() -> Dict[str, str]:
    with open(harness.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                    "--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)])
            code = code or child.returncode
        return code
    try:
        harness.OUT.mkdir(exist_ok=True)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (harness.BenchSetupError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
