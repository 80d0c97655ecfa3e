"""Command-line front end: nanosim op|dc|tran|stoch <deck.ckt> [flags].

Exit codes: 0 success, 1 input error (also a value beyond the float range,
or an output file that cannot be written once the analysis has run), 2
numerical failure (settle failure, singular system, a device driven to a
non-finite voltage, a stochastic state that diverged, a run that does not
fit in memory), 3 success with warnings (e.g. the transient hit its minimum
step with the error budget still exceeded, a stochastic dt is not small
against the fastest RC time constant, or the Newton baseline of
--compare-nr did not converge at some point), each warning printed as one
"warning: ..." line on stderr.
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
from typing import Optional, Sequence, Tuple

import numpy as np

from .devices import DeviceError
from .mna import MnaError
from .netlist import (DcAnalysis, Netlist, NetlistError, StochAnalysis,
                      TranAnalysis, _fmt, parse_count, parse_netlist, parse_value,
                      read_deck)
from .nr import flop_compare
from .stochastic import StochasticError, ensemble
from .swec import SimulationError, dc_sweep, operating_point, transient

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


def _outputs(args: argparse.Namespace, suffix: str) -> Tuple[str, Optional[str]]:
    """The data file (``--out``, else ``<deck>_<suffix>.csv``) and, with
    ``--plot``, the gnuplot script beside it (x.csv -> x.gp)."""
    out = args.out or f"{os.path.splitext(os.path.basename(args.deck))[0]}_{suffix}.csv"
    gp = os.path.splitext(out)[0] + ".gp" if args.plot else None
    if gp == out:
        raise NetlistError(f"--plot would overwrite the data file {out}")
    return out, gp


def _write(paths: Tuple[str, Optional[str]], header: Sequence[str],
           columns: Sequence[np.ndarray], comments: Sequence[str] = (),
           title: str = "", ylabel: str = "") -> None:
    """The comment lines, the header and the columns to the data file, then
    the gnuplot script (if any) that plots every column against the first; a
    file that cannot be written raises a one-line :class:`NetlistError`."""
    out, gp = paths
    path = out
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(f"# {c}\r\n" for c in comments)
            fh.write(",".join(header) + "\r\n")
            for row in np.column_stack(columns):
                fh.write(",".join(map(repr, row.tolist())) + "\r\n")
        if gp:
            path = gp
            plots = ", ".join(f"'{out}' using 1:{i} with lines"
                              for i in range(2, len(header) + 1))
            with open(gp, "w", encoding="utf-8") as fh:
                fh.write(f"set datafile separator ','\nset title '{title}'\n"
                         f"set xlabel 'column 1'\nset ylabel '{ylabel}'\n"
                         f"set key autotitle columnhead\nplot {plots}\npause -1\n")
    except OSError as exc:
        raise NetlistError(f"cannot write {path}: {exc.strerror or exc}") from None


def _compare_nr(net: Netlist, result, points: int) -> int:
    """Prints the flop comparison; EXIT_WARN, with a warning, where the
    Newton baseline did not converge at some of its ``points`` solves."""
    cmp_ = flop_compare(net, result)
    print(f"flops: swec={cmp_.swec_flops} nr={cmp_.nr_flops} speedup={cmp_.speedup:.2f}")
    if not cmp_.unconverged:
        return EXIT_OK
    print(f"warning: Newton baseline did not converge at {cmp_.unconverged} of {points} "
          "points", file=sys.stderr)
    return EXIT_WARN


def cmd_op(args: argparse.Namespace) -> RunReport:
    net = parse_netlist(read_deck(args.deck))
    op = operating_point(net)
    for node in op.nodes:
        print(f"v({node}) = {op.v(node):.6g}")
    code = EXIT_OK if op.settled else EXIT_NUMERIC
    if not op.settled:
        print("warning: operating point failed to settle", file=sys.stderr)
    elif args.compare_nr:
        code = _compare_nr(net, op, 1)
    return RunReport(steps=op.n_solves, flops=op.flops.total(), exit_code=code)


def cmd_dc(args: argparse.Namespace) -> RunReport:
    net = parse_netlist(read_deck(args.deck))
    setting = _settings(args, net, DcAnalysis, "dc sweep needs --source/--from/--to/"
                        "--points or a .dc card in the deck")
    if setting["points"] < 2:
        raise NetlistError("--points must be at least 2")
    paths = _outputs(args, "dc")
    sweep = dc_sweep(net, **setting)
    _write(paths, ["bias"] + [f"i({name})" for name in sweep.currents]
           + [f"v({n})" for n in sweep.nodes],
           [sweep.biases, *sweep.currents.values(), sweep.voltages],
           title="DC sweep", ylabel="current / voltage")
    print(f"wrote {paths[0]} ({len(sweep.biases)} points)")
    code = _compare_nr(net, sweep, len(sweep.biases)) if args.compare_nr else EXIT_OK
    bad = int(np.count_nonzero(~sweep.settled))
    if bad:
        print(f"warning: {bad} sweep points failed to settle", file=sys.stderr)
    return RunReport(flops=sweep.flops.total(), exit_code=EXIT_NUMERIC if bad else code)


def cmd_tran(args: argparse.Namespace) -> RunReport:
    net = parse_netlist(read_deck(args.deck))
    setting = _settings(args, net, TranAnalysis,
                        "transient needs --tstop or a .tran card in the deck")
    if args.resample is not None and args.resample < 1:
        raise NetlistError("--resample must be at least 1")
    paths = _outputs(args, "tran")
    series = transient(net, **setting)
    times = series.times
    columns = [times, series.voltages]
    if args.resample:
        grid = np.linspace(times[0], times[-1], args.resample)
        columns = [grid, *(np.interp(grid, times, v) for v in series.voltages.T)]
    _write(paths, ["t"] + [f"v({n})" for n in series.nodes], columns,
           title="Transient", ylabel="node voltage (V)")
    print(f"wrote {paths[0]} ({series.steps_taken} steps, "
          f"{series.steps_rejected} rejected)")
    report = RunReport(steps=series.steps_taken, rejections=series.steps_rejected,
                       flops=series.flops.total(),
                       exit_code=EXIT_WARN if series.hmin_warnings else EXIT_OK)
    if args.stats:
        limits = " ".join(f"{k}={v}" for k, v in series.limited_by.items())
        print(f"stats: steps={report.steps} rejected={report.rejections} "
              f"solves={series.n_solves} flops={report.flops} {limits}", file=sys.stderr)
    if series.hmin_warnings:
        print(f"warning: {series.hmin_warnings} steps hit h_min with the local "
              "error budget still exceeded", file=sys.stderr)
    return report


def cmd_stoch(args: argparse.Namespace) -> RunReport:
    net = parse_netlist(read_deck(args.deck))
    setting = _settings(args, net, StochAnalysis, "stochastic run needs --tstop/--dt/"
                        "--paths or a .stoch card in the deck")
    paths = _outputs(args, "stoch")
    window = tuple(args.window) if args.window else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stats = ensemble(net, **setting, window=window)
        finally:
            # the step-size warning, also ahead of a divergence failure
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)

    # the pointwise and the peak quantiles share their levels
    levels = [(q, f"q{int(round(q * 100)):02d}") for q in sorted(stats.quantiles)]
    header, columns, peaks = ["t"], [stats.times], []
    for i, node in enumerate(stats.nodes):
        header += [f"mean({node})", f"var({node})"]
        columns += [stats.mean[:, i], stats.variance[:, i]]
        for q, name in levels:
            header.append(f"{name}({node})")
            columns.append(stats.quantiles[q][:, i])
        qtxt = " ".join(f"{name}={_fmt(stats.peak_quantiles[q][i])}" for q, name in levels)
        peaks.append(f"peak({node}): mean={_fmt(stats.peak_mean[i])} {qtxt}")
    run = (f"seed={stats.seed} paths={stats.paths} dt={_fmt(setting['dt'])} "
           f"window=[{_fmt(stats.window[0])},{_fmt(stats.window[1])}]")
    _write(paths, header, columns, [run] + peaks)
    print(f"wrote {paths[0]} ({stats.paths} paths)")
    for line in peaks:
        print(line)
    return RunReport(exit_code=EXIT_WARN if caught else EXIT_OK)


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
    p_st.set_defaults(func=cmd_stoch, plot=False)
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
