"""Tests of the benchmark itself (about 40 s on a 2-core Xeon):

    python3 -m pytest -q perfbench/bench_tests.py

They pin the paper's invariant (one linear solve per transient step attempt)
through the trace, check that tracing changes no counter or output and that
layer self times fit in the wall time, and pin the work counters to the
baseline the benchmark was defined against.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import harness  # noqa: I001  (pins threads before numpy loads)
import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


@pytest.fixture(scope="module")
def tran(cli):
    """Untraced and traced pass over the whole tran-inverter workload."""
    ops = workloads.build("tran-inverter", 0, harness.OUT / "test-tran")
    tp = run.traced_pass(cli, ops)
    yield tp
    shutil.rmtree(harness.OUT / "test-tran", ignore_errors=True)


@pytest.fixture(scope="module")
def rtd_sweep(cli):
    """The 500-point rtd_divider sweep with the Newton comparison."""
    ops = [op for op in workloads.build("dc-sweep", 0, harness.OUT / "test-dc")
           if op.label == "dc rtd_divider"]
    tp = run.traced_pass(cli, ops)
    yield tp
    shutil.rmtree(harness.OUT / "test-dc", ignore_errors=True)


def test_one_solve_per_step_attempt(tran):
    solves = tracing.solves_per_root(tran.tracer)
    for run_u, run_t, root in zip(tran.runs, tran.runs_t, tran.roots):
        rep = run_u.report
        assert solves[root] == run_t.report.steps + run_t.report.rejections
        assert solves[root] == rep.steps + rep.rejections


@pytest.mark.parametrize("which", ["tran", "rtd_sweep"])
def test_layer_self_times_fit_in_wall(which, request):
    tp = request.getfixturevalue(which)
    self_times = tracing.layer_self_times(tp.tracer)
    assert all(s >= 0.0 for s in self_times.values())
    assert sum(self_times.values()) <= tp.wall_t


@pytest.mark.parametrize("which", ["tran", "rtd_sweep"])
def test_tracing_changes_no_counter_or_output(which, request):
    tp = request.getfixturevalue(which)
    assert tp.sigs_t == tp.sigs
    assert run.trace_problems(tp) == []


def test_fet_rtd_inverter_baseline(tran):
    rep = tran.runs[0].report
    assert tran.ops[0].label == "tran fet_rtd_inverter"
    assert (rep.steps, rep.rejections, rep.steps + rep.rejections) == (12583, 1571, 14154)


def test_rtd_sweep_baseline(rtd_sweep):
    tr = rtd_sweep.tracer
    (own,) = [s for _, name, s in tr.results if name == "swec.dc_sweep@cli"]
    assert (own["points"], own["solves"]) == (500, 5279)
    assert rtd_sweep.runs[0].report.flops == 285480
    (verdict,) = run.judge(rtd_sweep.ops, rtd_sweep.runs)
    assert verdict.failed == 0
    assert round(verdict.values["nr_flop_ratio"], 3) == 0.478
    layers = tracing.layer_metrics(tr, 0, rtd_sweep.wall_t, rtd_sweep.wall)
    # --compare-nr sweeps a second time inside flop_compare
    assert (layers["swec.sweeps"], layers["swec.sweeps.nr"]) == (2, 1)
    assert layers["mna.solve_calls.swec"] == 2 * 5279


def test_tran_oracles_pass(tran):
    verdicts = run.judge(tran.ops, tran.runs)
    assert [v.failed for v in verdicts] == [0, 0, 0]
    assert 0.0 < verdicts[0].values["err_v"] < 0.05


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    with tr.span("cli.x@t"):
        with tr.span("swec.y@cli"):
            time.sleep(0.02)
        time.sleep(0.01)
    _, dur, self_t, _ = tr.arrays()
    assert self_t[1] == pytest.approx(dur[1])
    assert self_t[0] == pytest.approx(dur[0] - dur[1])
    assert tracing.layer_self_times(tr)["swec"] == pytest.approx(dur[1])


def test_generated_inputs_follow_the_seed():
    assert workloads.generated_values(3) == workloads.generated_values(3)
    assert workloads.generated_values(3) != workloads.generated_values(4)


def test_wrappers_are_removed(cli, tran):
    import nanosim.swec
    assert not hasattr(nanosim.swec.solve, "__wrapped__")
    assert not hasattr(cli.transient, "__wrapped__")


def test_refuses_to_run_without_the_program():
    bare = harness.OUT / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    with open(bare / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    try:
        proc = subprocess.run([sys.executable] + command[1:] +
                              ["--workload", "dc-sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
