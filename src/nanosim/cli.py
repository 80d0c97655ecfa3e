"""Command-line front end: nanosim op|dc|tran|stoch <deck.ckt> [flags].

Exit codes: 0 success, 1 input error, 2 numerical failure (settle failure,
singular system, a device driven to a non-finite voltage, a stochastic
state that diverged, a run that does not fit in memory), 3 success with
warnings (e.g. the transient hit its minimum step with the error budget
still exceeded, or a stochastic dt is not small against the fastest RC
time constant), each warning printed as one "warning: ..." line on stderr.
Waveforms go to CSV with full round-trip precision; --plot writes a
gnuplot script alongside the data; tran --stats adds one stderr line of work
counters and of what set each step. Deck directives provide the defaults;
command-line flags win on conflict. This module is the only reader of the
analysis cards: the library analyses take explicit values.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .devices import DeviceError
from .mna import MnaError
from .netlist import (DcAnalysis, Netlist, NetlistError, StochAnalysis,
                      TranAnalysis, parse_count, parse_netlist, parse_value)
from .nr import flop_compare
from .stochastic import StochasticError, ensemble
from .swec import (SimulationError, WaveformSeries, dc_sweep, operating_point,
                   transient)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_WARN = 3


@dataclass
class RunReport:
    steps: int = 0
    rejections: int = 0
    flops: int = 0
    exit_code: int = EXIT_OK


def _fmt(x: float) -> str:
    return repr(float(x))


def _load(path: str) -> Netlist:
    if not os.path.exists(path):
        raise NetlistError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def _value_flag(text: str, parse=parse_value):
    # argparse turns this into its one-line usage error (exit 1 in main)
    try:
        return parse(text)
    except NetlistError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _count_flag(text: str) -> int:
    # the deck cards' count rule
    return _value_flag(text, lambda t: parse_count(t, f"'{t}'"))


def _settings(args: argparse.Namespace, net: Netlist, analysis: type,
              missing: str) -> dict:
    """Each field of the ``analysis`` card type from its flag, else from the
    deck's card. A field neither gives is left out, so the analysis
    function's default applies; one without a default raises ``missing``."""
    card = next((a for a in net.analyses if isinstance(a, analysis)), None)
    setting = {}
    for f in fields(analysis):
        value = getattr(args, f.name)
        if value is None and card is not None:
            value = getattr(card, f.name)
        if value is not None:
            setting[f.name] = value
        elif f.default is MISSING:
            raise NetlistError(missing)
    return setting


def _write_csv(path: str, header: Sequence[str], rows: np.ndarray,
               comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\r\n")
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\r\n")


def _write_plot(path: str, csv_path: str, title: str, ylabel: str,
                columns: Sequence[str]) -> None:
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set xlabel 'column 1'",
        f"set ylabel '{ylabel}'",
        "set key autotitle columnhead",
        "plot " + ", ".join(f"'{csv_path}' using 1:{i + 2} with lines"
                            for i in range(len(columns) - 1)),
        "pause -1",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_path(deck: str, suffix: str, flag: Optional[str]) -> str:
    if flag:
        return flag
    base = os.path.splitext(os.path.basename(deck))[0]
    return f"{base}_{suffix}.csv"


def _plot_path(out: str) -> str:
    """The gnuplot script's path beside the data file ``out`` (x.csv -> x.gp)."""
    gp = os.path.splitext(out)[0] + ".gp"
    if gp == out:
        raise NetlistError(f"--plot would overwrite the data file {out}")
    return gp


def _resample(series: WaveformSeries, n: int) -> np.ndarray:
    grid = np.linspace(series.times[0], series.times[-1], n)
    cols = [grid] + [np.interp(grid, series.times, series.voltages[:, i])
                     for i in range(series.voltages.shape[1])]
    return np.column_stack(cols)


def cmd_op(args: argparse.Namespace) -> RunReport:
    report = RunReport()
    net = _load(args.deck)
    op = operating_point(net)
    report.steps = op.n_solves
    report.flops = op.flops.total()
    for node in op.nodes:
        print(f"v({node}) = {op.v(node):.6g}")
    if not op.settled:
        print("warning: operating point failed to settle", file=sys.stderr)
        report.exit_code = EXIT_NUMERIC
        return report
    if args.compare_nr:
        cmp_ = flop_compare(net, op)
        print(f"flops: swec={cmp_.swec_flops} nr={cmp_.nr_flops} "
              f"speedup={cmp_.speedup:.2f}")
    return report


def cmd_dc(args: argparse.Namespace) -> RunReport:
    report = RunReport()
    net = _load(args.deck)
    setting = _settings(args, net, DcAnalysis, "dc sweep needs --source/--from/--to/"
                        "--points or a .dc card in the deck")
    if setting["points"] < 2:
        raise NetlistError("--points must be at least 2")
    out = _out_path(args.deck, "dc", args.out)
    gp = _plot_path(out) if args.plot else None
    sweep = dc_sweep(net, **setting)
    report.flops = sweep.flops.total()

    header = ["bias"] + [f"i({name})" for name in sweep.currents] \
        + [f"v({n})" for n in sweep.nodes]
    cols = [sweep.biases] + list(sweep.currents.values()) \
        + [sweep.voltages[:, i] for i in range(len(sweep.nodes))]
    rows = np.column_stack(cols)
    _write_csv(out, header, rows)
    print(f"wrote {out} ({len(sweep.biases)} points)")
    if gp:
        _write_plot(gp, out, "DC sweep", "current / voltage", header)
    if args.compare_nr:
        cmp_ = flop_compare(net, sweep)
        print(f"flops: swec={cmp_.swec_flops} nr={cmp_.nr_flops} "
              f"speedup={cmp_.speedup:.2f}")
    if not bool(np.all(sweep.settled)):
        bad = int(np.count_nonzero(~sweep.settled))
        print(f"warning: {bad} sweep points failed to settle", file=sys.stderr)
        report.exit_code = EXIT_NUMERIC
    return report


def cmd_tran(args: argparse.Namespace) -> RunReport:
    report = RunReport()
    net = _load(args.deck)
    setting = _settings(args, net, TranAnalysis,
                        "transient needs --tstop or a .tran card in the deck")
    if args.resample is not None and args.resample < 1:
        raise NetlistError("--resample must be at least 1")
    out = _out_path(args.deck, "tran", args.out)
    gp = _plot_path(out) if args.plot else None
    series = transient(net, **setting)
    report.steps = series.steps_taken
    report.rejections = series.steps_rejected
    report.flops = series.flops.total()

    header = ["t"] + [f"v({n})" for n in series.nodes]
    if args.resample:
        rows = _resample(series, args.resample)
    else:
        rows = np.column_stack([series.times] + [series.voltages[:, i]
                                                 for i in range(len(series.nodes))])
    _write_csv(out, header, rows)
    print(f"wrote {out} ({series.steps_taken} steps, "
          f"{series.steps_rejected} rejected)")
    if args.stats:
        limits = " ".join(f"{k}={v}" for k, v in series.limited_by.items())
        print(f"stats: steps={series.steps_taken} rejected={series.steps_rejected} "
              f"solves={series.n_solves} flops={report.flops} {limits}", file=sys.stderr)
    if gp:
        _write_plot(gp, out, "Transient", "node voltage (V)", header)
    if series.hmin_warnings:
        print(f"warning: {series.hmin_warnings} steps hit h_min with the local "
              "error budget still exceeded", file=sys.stderr)
        report.exit_code = EXIT_WARN
    return report


def cmd_stoch(args: argparse.Namespace) -> RunReport:
    report = RunReport()
    net = _load(args.deck)
    setting = _settings(args, net, StochAnalysis, "stochastic run needs --tstop/--dt/"
                        "--paths or a .stoch card in the deck")
    window = tuple(args.window) if args.window else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stats = ensemble(net, **setting, window=window)
        finally:
            # the step-size warning, also ahead of a divergence failure
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)

    header = ["t"]
    cols = [stats.times]
    for i, node in enumerate(stats.nodes):
        header += [f"mean({node})", f"var({node})"]
        cols += [stats.mean[:, i], stats.variance[:, i]]
        for q in sorted(stats.quantiles):
            header.append(f"q{int(round(q * 100)):02d}({node})")
            cols.append(stats.quantiles[q][:, i])
    rows = np.column_stack(cols)
    out = _out_path(args.deck, "stoch", args.out)
    comments = [f"seed={stats.seed} paths={stats.paths} dt={_fmt(setting['dt'])} "
                f"window=[{_fmt(stats.window[0])},{_fmt(stats.window[1])}]"]
    peak_bits = []
    for i, node in enumerate(stats.nodes):
        qtxt = " ".join(f"q{int(round(q * 100)):02d}={_fmt(stats.peak_quantiles[q][i])}"
                        for q in sorted(stats.peak_quantiles))
        peak_bits.append(f"peak({node}): mean={_fmt(stats.peak_mean[i])} {qtxt}")
    comments.extend(peak_bits)
    _write_csv(out, header, rows, comments=comments)
    print(f"wrote {out} ({stats.paths} paths)")
    for line in peak_bits:
        print(line)
    if caught:
        report.exit_code = EXIT_WARN
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (each build left memory behind);
    callers must not modify it."""
    ap = argparse.ArgumentParser(prog="nanosim",
                                 description="nanodevice circuit simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p_op = sub.add_parser("op", help="operating point")
    p_op.add_argument("deck")
    p_op.add_argument("--compare-nr", action="store_true",
                      help="also run the Newton baseline and report flop counts")
    p_op.set_defaults(func=cmd_op)

    p_dc = sub.add_parser("dc", help="DC sweep")
    p_dc.add_argument("deck")
    p_dc.add_argument("--source")
    p_dc.add_argument("--from", dest="start", type=_value_flag)
    p_dc.add_argument("--to", dest="stop", type=_value_flag)
    p_dc.add_argument("--points", type=_count_flag)
    p_dc.add_argument("--out")
    p_dc.add_argument("--plot", action="store_true")
    p_dc.add_argument("--compare-nr", action="store_true")
    p_dc.set_defaults(func=cmd_dc)

    p_tr = sub.add_parser("tran", help="adaptive transient")
    p_tr.add_argument("deck")
    p_tr.add_argument("--tstop", dest="t_stop", metavar="TSTOP", type=_value_flag)
    p_tr.add_argument("--eps", type=_value_flag)
    p_tr.add_argument("--resample", type=_count_flag,
                      help="emit n uniformly spaced samples instead of the "
                           "adaptive grid")
    p_tr.add_argument("--out")
    p_tr.add_argument("--plot", action="store_true")
    p_tr.add_argument("--stats", action="store_true",
                      help="print the work counters and what set each step "
                           "on stderr")
    p_tr.set_defaults(func=cmd_tran)

    p_st = sub.add_parser("stoch", help="stochastic ensemble transient")
    p_st.add_argument("deck")
    p_st.add_argument("--tstop", dest="t_stop", metavar="TSTOP", type=_value_flag)
    p_st.add_argument("--dt", type=_value_flag)
    p_st.add_argument("--paths", type=_count_flag)
    p_st.add_argument("--seed", type=_count_flag)
    p_st.add_argument("--window", nargs=2, type=_value_flag,
                      metavar=("T_A", "T_B"))
    p_st.add_argument("--out")
    p_st.set_defaults(func=cmd_stoch)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        report = args.func(args)
    except (SimulationError, MnaError, DeviceError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NetlistError, StochasticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
