"""Fingerprint what every nanosim command of a checkout prints and writes.

    python tools/same_outputs.py [TREE]

TREE is a checkout of this repository; it defaults to the one that holds
this script. In one fresh temporary directory, and in-process through that
tree's ``nanosim.cli.main``, the script runs

* ``op --compare-nr``, ``dc --compare-nr --plot``, ``tran --stats --plot``
  and ``stoch`` on every shipped deck, each from a directory of its own;
* on every shipped deck without a ``.dc`` card, ``dc --compare-nr`` of
  each voltage source in 5 points from its t = 0 level to 1 V above it,
  with every other source at its t = 0 level;
* ``tran --stats --plot`` on a generated deck whose source is a PWL of
  2000 breakpoints (:func:`pwl_deck`);
* ``op --compare-nr`` and the 5-point ``dc --compare-nr`` of each source
  on a generated deck of five free nodes (:func:`multi_node_deck`), whose
  Newton solves are not one-unknown LUs;
* ``op``, ``op --compare-nr`` and a 3-point ``dc --compare-nr`` on a deck
  whose free node only capacitors reach (:func:`capacitor_only_deck`), so
  its DC system has an empty row;
* every operation of ``perfbench/workloads.build(W, seed)`` for the three
  benchmark workloads at seeds 0 and 1.

For each command it prints one line: the argv (shipped decks relative to
TREE, generated decks and written files relative to the temporary
directory), the exit code,
and the sha256 of stdout, of stderr and of each file the command wrote. A
refactor that must not change behaviour keeps every line:

    python tools/same_outputs.py /path/to/parent > before.txt
    python tools/same_outputs.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ANALYSES = (["op", "--compare-nr"], ["dc", "--compare-nr", "--plot"],
            ["tran", "--stats", "--plot"], ["stoch"])
SEEDS = (0, 1)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> set:
    return {p for p in root.rglob("*") if p.is_file()}


def pwl_deck(knots: int = 2000) -> str:
    """An RC low-pass driven by a PWL of ``knots`` breakpoints 1 ns apart,
    at levels that cycle through 0 to 4 V in 0.5 V steps."""
    pairs = " ".join(f"{k}n {k * 7 % 9 * 0.5!r}" for k in range(knots))
    return (f"* {knots}-knot PWL\nV1 in 0 PWL({pairs})\nR1 in out 1k\nC1 out 0 1n\n"
            f".tran {knots}n\n.end\n")


def multi_node_deck() -> str:
    """Two RTDs in series between free nodes, a MOSFET whose gate a
    floating source holds 1 V above their midpoint and whose source is a
    free node, and a reversed MOSFET between the RTDs' ends, with a free
    gate: after condensing the one grounded source, five free nodes and
    the floating source's current remain."""
    return ("* five free nodes\nV1 vdd 0 DC 3\nR1 vdd a 1k\nXRTD1 a b M1\nXRTD2 b 0 M1\n"
            "V2 g b DC 1\nR2 vdd d 2k\nM1 d g s 0 MF\nR3 s 0 500\nM2 b d a 0 MF\n"
            ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
            ".model MF NMOS (k=1e-3 W=4u L=1u Vth=1)\n.end\n")


def capacitor_only_deck() -> str:
    """A node reached only through capacitors: open at DC, its row of the
    condensed one-unknown system is empty."""
    return "* capacitor-only node\nV1 1 0 DC 1\nR1 1 0 1k\nC1 1 2 1p\nC2 2 0 1p\n.end\n"


def run(cli, argv, tree: Path, root: Path) -> str:
    """One command's line: argv, exit code and the digests of its streams
    and of the files under ``root`` that it created."""
    before = _files(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = [next((os.path.relpath(a, d) for d in (tree, root)
                   if a.startswith(f"{d}{os.sep}")), a) for a in argv]
    written = sorted(_files(root) - before)
    files = " ".join(f"{p.relative_to(root)}={_digest(p.read_bytes())}" for p in written)
    return (f"{' '.join(shown)} | exit {code} | stdout={_digest(out.getvalue().encode())} "
            f"stderr={_digest(err.getvalue().encode())} | {files}")


def main() -> int:
    tree = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    sys.path.insert(0, str(tree / "perfbench"))
    import harness  # noqa: I001  (pins threads before numpy loads)
    cli = harness.import_cli()
    import workloads

    from nanosim.netlist import DcAnalysis, ElementKind, eval_waveform, parse_netlist

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        multi = root / "multinode.ckt"
        multi.write_text(multi_node_deck(), encoding="utf-8")
        decks = [(stem, harness.deck(stem), ANALYSES)
                 for stem in sorted(p.stem for p in harness.DECKS.glob("*.ckt"))]
        try:
            for deck, path, analyses in [*decks, ("multinode", str(multi), ANALYSES[:1])]:
                argvs = {analysis[0]: [analysis[0], path, *analysis[1:]]
                         for analysis in analyses}
                net = parse_netlist(Path(path).read_text(encoding="utf-8"))
                if not any(isinstance(a, DcAnalysis) for a in net.analyses):
                    # from the t = 0 level, so the first point settles as `op` does
                    for el in net.elements_of(ElementKind.VSOURCE):
                        level = eval_waveform(el.waveform, 0.0)
                        argvs[f"dc-{el.name}"] = [
                            "dc", path, "--compare-nr", "--source", el.name,
                            f"--from={level!r}", f"--to={level + 1.0!r}", "--points", "5"]
                for label, argv in argvs.items():
                    cwd = root / f"{deck}-{label}"
                    cwd.mkdir()
                    os.chdir(cwd)
                    print(run(cli, argv, tree, root), flush=True)
            os.chdir(root)
            Path("pwl2000.ckt").write_text(pwl_deck(), encoding="utf-8")
            print(run(cli, ["tran", "pwl2000.ckt", "--stats", "--plot"], tree, root), flush=True)
            Path("caponly.ckt").write_text(capacitor_only_deck(), encoding="utf-8")
            for argv in (["op", "caponly.ckt"], ["op", "caponly.ckt", "--compare-nr"],
                         ["dc", "caponly.ckt", "--compare-nr", "--source", "V1",
                          "--from=1.0", "--to=2.0", "--points", "3"]):
                print(run(cli, argv, tree, root), flush=True)
            for name in workloads.WORKLOADS:
                for seed in SEEDS:
                    for op in workloads.build(name, seed, Path(f"{name}-seed{seed}")):
                        print(run(cli, op.argv, tree, root), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
