"""Build the stored transient references that ``err_v`` is measured against.

Runs ``nanosim tran <deck> --eps 1.25e-3`` in-process for every transient
deck whose reference is not analytic, resamples the solved node voltages
onto the uniform grid the benchmark compares on, and writes
``refs/<deck>.npz`` plus ``refs/manifest.json`` (commit, eps, deck hash,
step counts). The timed benchmark only reads these files; rebuild them with

    python3 perfbench/make_refs.py

whenever a shipped transient deck changes (about 80 s for
``fet_rtd_inverter``, 100623 steps on a 2-core Xeon).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import harness  # noqa: F401  (pins threads before numpy loads)
import numpy as np

from oracles import REF_DECKS, REF_EPS, deck_sha256, solved_nodes, uniform_grid


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "decks"],
                               cwd=harness.ROOT, capture_output=True, text=True,
                               check=True).stdout.strip()
        return out.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    cli = harness.import_cli()
    from nanosim.netlist import parse_netlist_file
    harness.REFS.mkdir(exist_ok=True)
    harness.OUT.mkdir(exist_ok=True)
    manifest = {"eps": REF_EPS, "commit": _commit(), "decks": {}}
    for name in REF_DECKS:
        path = harness.deck(name)
        csv = harness.OUT / f"ref_{name}.csv"
        t0 = time.perf_counter()
        run = harness.run_cli(cli, ["tran", path, "--eps", repr(REF_EPS), "--out", str(csv)])
        if run.exit_code != 0:
            print(f"{name}: reference run failed: {run.error or run.stderr}",
                  file=sys.stderr)
            return 1
        _, header, rows = harness.read_csv(csv)
        nodes = solved_nodes(parse_netlist_file(path))
        grid = uniform_grid(rows[0, 0], rows[-1, 0])
        values = np.column_stack([np.interp(grid, rows[:, 0], rows[:, header.index(f"v({n})")])
                                  for n in nodes])
        np.savez_compressed(harness.REFS / f"{name}.npz", t=grid, v=values,
                            nodes=np.array(nodes))
        csv.unlink()
        manifest["decks"][name] = {
            "deck_sha256": deck_sha256(path),
            "steps": run.report.steps,
            "rejections": run.report.rejections,
            "nodes": nodes,
            "grid_points": len(grid),
        }
        print(f"{name}: {run.report.steps} steps, {run.report.rejections} rejected, "
              f"{time.perf_counter() - t0:.1f} s")
    with open(harness.REFS / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
