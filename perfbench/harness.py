"""Shared plumbing for the nanosim benchmark: paths, thread pins, and running
one ``nanosim`` command in-process exactly as the console script would
(``build_parser().parse_args(argv)`` then ``args.func(args)``).

Import this module before numpy: it pins the BLAS pools and the stochastic
engine to one thread so that every figure comes from a single core.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DECKS = ROOT / "decks"
REFS = BENCH_DIR / "refs"
OUT = ROOT / ".perfbench_out"

THREAD_ENV = {
    "NANOSIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)


class BenchSetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs (no sources,
    decks or stored references)."""


def import_cli():
    """Import ``nanosim.cli`` from the checkout's ``src`` tree."""
    if not (SRC / "nanosim" / "__init__.py").is_file():
        raise BenchSetupError(f"no nanosim sources under {SRC}")
    if not DECKS.is_dir():
        raise BenchSetupError(f"no decks directory at {DECKS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from nanosim import cli
    return cli


def deck(name: str) -> str:
    return str(DECKS / f"{name}.ckt")


@dataclass
class CliRun:
    """One in-process ``nanosim`` command: its report, captured streams,
    the exception it raised (if any) and its wall time."""

    argv: List[str]
    seconds: float
    report: object = None
    stdout: str = ""
    stderr: str = ""
    error: Optional[BaseException] = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return -1
        return self.report.exit_code


def run_cli(cli, argv: List[str], span=None) -> CliRun:
    """Run one command the way ``nanosim`` does. ``span`` optionally wraps
    the timed region (the tracer's root span for this operation)."""
    out, err = io.StringIO(), io.StringIO()
    report = error = None
    span = span if span is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with span:
            try:
                args = cli.build_parser().parse_args(argv)
                report = args.func(args)
            except Exception as exc:   # an operation failure, judged by the caller
                error = exc
    seconds = time.perf_counter() - t0
    return CliRun(argv=list(argv), seconds=seconds, report=report,
                  stdout=out.getvalue(), stderr=err.getvalue(), error=error)


def read_csv(path) -> tuple:
    """(comment lines, header names, float matrix) of a CSV the CLI wrote."""
    import numpy as np
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows, dtype=float).reshape(len(rows), len(header))
