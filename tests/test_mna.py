"""Nodal assembly and instrumented LU solver tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim.devices import G_FLOOR
from nanosim.mna import (_PIVOT_RTOL, FlopCounter, MnaError, MnaSystem,
                         SingularSystemError, assemble, solve)
from nanosim.netlist import parse_netlist


def _solve_net(deck, geq=None, vstate=None, h=math.inf, t=0.0):
    net = parse_netlist(deck)
    sys = assemble(net, geq or {}, vstate=vstate, h=h, t=t)
    fc = FlopCounter()
    return sys, solve(sys, fc), fc


class TestAssemble:
    def test_ideal_source(self):
        _, x, _ = _solve_net("V1 1 0 DC 5\nR1 1 0 1k\n.op\n.end\n")
        assert x[0] == pytest.approx(5.0)

    def test_divider(self):
        sys, x, _ = _solve_net("V1 1 0 DC 5\nR1 1 2 1k\nR2 2 0 1k\n.op\n.end\n")
        assert x[sys.node_index["1"]] == pytest.approx(5.0)
        assert x[sys.node_index["2"]] == pytest.approx(2.5)

    def test_capacitor_companion_stamp(self):
        net = parse_netlist("V1 1 0 DC 1\nC1 2 0 1p\nR1 1 2 1k\n.end\n")
        sys = assemble(net, {}, vstate=np.array([0.0, 1.0]), h=1e-12, t=0.0)
        i2 = sys.node_index["2"]
        # g = C/h = 1.0 S plus the 1 mS resistor; companion current 1.0 A
        assert sys.G[i2, i2] == pytest.approx(1.0 + 1e-3)
        assert sys.rhs[i2] == pytest.approx(1.0)

    def test_dc_assembly_ignores_capacitors(self):
        net = parse_netlist("V1 1 0 DC 1\nC1 2 0 1p\nR1 1 2 1k\n.end\n")
        sys = assemble(net, {}, vstate=np.array([0.0, 1.0]), h=math.inf)
        i2 = sys.node_index["2"]
        assert sys.G[i2, i2] == pytest.approx(1e-3)
        assert sys.rhs[i2] == 0.0

    def test_device_floor(self):
        deck = ("V1 1 0 DC 1\nR1 1 2 1k\nXRTD1 2 0 M1\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".end\n")
        net = parse_netlist(deck)
        sys = assemble(net, {"XRTD1": 0.0})
        i2 = sys.node_index["2"]
        assert sys.G[i2, i2] >= 1e-3 + G_FLOOR

    def test_missing_geq(self):
        deck = ("V1 1 0 DC 1\nR1 1 2 1k\nXRTD1 2 0 M1\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".end\n")
        net = parse_netlist(deck)
        with pytest.raises(MnaError, match="XRTD1"):
            assemble(net, {})

    def test_stamp_linearity(self):
        base = "V1 1 0 DC 5\nRt1 1 0 1e12\nRt2 2 0 1e12\nRt3 1 2 1e12\n"
        part_a = "R1 1 2 1k\n"
        part_b = "R2 2 0 500\n"
        g_base = assemble(parse_netlist(base + ".end\n"), {}).G
        g_a = assemble(parse_netlist(base + part_a + ".end\n"), {}).G
        g_b = assemble(parse_netlist(base + part_b + ".end\n"), {}).G
        g_ab = assemble(parse_netlist(base + part_a + part_b + ".end\n"), {}).G
        assert np.allclose(g_a + g_b - g_base, g_ab, rtol=0, atol=1e-16)


class TestSolve:
    def test_identity(self):
        size = 4
        for k in range(size):
            rhs = np.zeros(size)
            rhs[k] = 1.0
            sys = MnaSystem(n=size, m=0, G=np.eye(size), rhs=rhs,
                            node_index={}, source_index={})
            x = solve(sys, FlopCounter())
            assert np.allclose(x, rhs)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(17)
        n = 10
        A = rng.uniform(-1, 1, (n, n))
        A = A @ A.T + n * np.eye(n)
        rhs = rng.uniform(-1, 1, n)
        sys = MnaSystem(n=n, m=0, G=A, rhs=rhs, node_index={}, source_index={})
        x = solve(sys, FlopCounter())
        assert np.max(np.abs(A @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_singular_detected(self):
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        sys = MnaSystem(n=2, m=0, G=G, rhs=np.array([1.0, 0.0]),
                        node_index={}, source_index={})
        with pytest.raises(SingularSystemError):
            solve(sys, FlopCounter())

    def test_flop_growth_cubic(self):
        rng = np.random.default_rng(3)
        sizes = [10, 20, 40, 80]
        totals = []
        for n in sizes:
            A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
            sys = MnaSystem(n=n, m=0, G=A, rhs=rng.uniform(-1, 1, n),
                            node_index={}, source_index={})
            fc = FlopCounter()
            solve(sys, fc)
            totals.append(fc.total())
        slope = np.polyfit(np.log(sizes), np.log(totals), 1)[0]
        assert 2.7 <= slope <= 3.2


def _solve_ref(sys, fc):
    """Reference LU: the elimination on numpy rows that ``solve`` replaced,
    with the same pivoting, singularity tests, update order and billing."""
    A = sys.G.copy()
    x = sys.rhs.copy()
    size = sys.size
    row_scale = np.max(np.abs(A), axis=1)
    if np.any(row_scale == 0.0):
        raise SingularSystemError("structurally singular system (empty row)")
    perm = np.arange(size)
    for k in range(size - 1):
        col = np.abs(A[k:, k])
        p = k + int(np.argmax(col))
        if abs(A[p, k]) <= _PIVOT_RTOL * row_scale[perm[p]]:
            raise SingularSystemError(f"singular pivot at column {k}")
        if p != k:
            A[[k, p]] = A[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        c = size - k - 1
        if c:
            A[k + 1:, k] /= A[k, k]
            A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
            fc.count(adds=c * c, muls=c * c, divs=c)
    if abs(A[size - 1, size - 1]) <= _PIVOT_RTOL * row_scale[perm[size - 1]]:
        raise SingularSystemError("singular pivot at last column")
    x = x[perm]
    for k in range(1, size):
        x[k] -= A[k, :k] @ x[:k]
        fc.count(adds=k, muls=k)
    for k in range(size - 1, -1, -1):
        if k < size - 1:
            x[k] -= A[k, k + 1:] @ x[k + 1:]
            fc.count(adds=size - k - 1, muls=size - k - 1)
        x[k] /= A[k, k]
        fc.count(divs=1)
    return x


def _outcome(solver, G, rhs):
    fc = FlopCounter()
    sys = MnaSystem(n=len(rhs), m=0, G=G, rhs=rhs, node_index={}, source_index={})
    try:
        return solver(sys, fc).tobytes(), fc
    except SingularSystemError as exc:
        return f"SingularSystemError: {exc}", fc


@st.composite
def _systems(draw):
    """Dense systems of 1-12 unknowns: random, small-integer entries (ties
    between pivot candidates, exact cancellation), rows shuffled away from
    a dominant diagonal (row swaps at every column), rows of very different
    scale, and singular ones."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "integer", "shuffled", "scaled",
                                 "zero_col", "empty_row", "dependent"]))
    if kind == "integer":
        G = rng.integers(-2, 3, (n, n)).astype(float)
    else:
        G = rng.uniform(-1.0, 1.0, (n, n))
        G[rng.uniform(size=(n, n)) < 0.3] = 0.0
    if kind == "shuffled":
        G = (G + n * np.eye(n))[rng.permutation(n)]
    elif kind == "scaled":
        G *= 10.0 ** rng.uniform(-12.0, 12.0, (n, 1))
    elif kind == "zero_col":
        G[:, rng.integers(n)] = 0.0
    elif kind == "empty_row":
        G[rng.integers(n)] = 0.0
    elif kind == "dependent":
        G[-1] = G[0] - 2.0 * G[rng.integers(n)]
    return G, rng.uniform(-1.0, 1.0, n)


class TestSolveMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_systems())
    def test_bit_identical_to_numpy_lu(self, system):
        G, rhs = system
        assert _outcome(solve, G, rhs) == _outcome(_solve_ref, G, rhs)

    @pytest.mark.parametrize("G, message", [
        ([[1.0, 2.0], [0.0, 0.0]], "structurally singular system (empty row)"),
        ([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 1.0, 1.0]],
         "singular pivot at column 0"),
        ([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 0.0, 1.0]],
         "singular pivot at column 1"),
        ([[1.0, 2.0], [2.0, 4.0]], "singular pivot at last column"),
        # the pivot is judged by the scale of its original row (1e10), not
        # of the row it was swapped with
        ([[0.0, 1e-6, 1e10], [0.0, 1e-7, 1.0], [1.0, 0.0, 0.0]],
         "singular pivot at column 1"),
        # a pivot exactly at the 1e-14 threshold is singular
        ([[1.0, 0.0], [1.0, 1e-14]], "singular pivot at last column"),
    ])
    def test_singular_messages(self, G, message):
        G = np.array(G)
        rhs = np.ones(len(G))
        got = _outcome(solve, G, rhs)
        assert got == _outcome(_solve_ref, G, rhs)
        assert got[0] == f"SingularSystemError: {message}"


class TestKcl:
    def test_conservation_random_ladders(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            lines = ["V1 n0 0 DC 5"]
            for i in range(n):
                lines.append(f"R{i + 1} n{i} n{i + 1} {rng.uniform(100, 10_000):.3f}")
            lines.append(f"Rload n{n} 0 {rng.uniform(100, 10_000):.3f}")
            for i in rng.choice(n, size=2, replace=False):
                lines.append(f"Rg{i} n{i} 0 {rng.uniform(1000, 100_000):.3f}")
            net = parse_netlist("\n".join(lines) + "\n.end\n")
            sys = assemble(net, {})
            x = solve(sys, FlopCounter())

            def v(node):
                return 0.0 if node == "0" else x[sys.node_index[node]]

            resid = {nd: 0.0 for nd in net.nodes}
            for el in net.elements:
                if el.kind.value == "resistor":
                    i_r = (v(el.nodes[0]) - v(el.nodes[1])) / el.value
                    if el.nodes[0] != "0":
                        resid[el.nodes[0]] -= i_r
                    if el.nodes[1] != "0":
                        resid[el.nodes[1]] += i_r
                elif el.kind.value == "vsource":
                    cur = x[sys.source_index[el.name]]
                    if el.nodes[0] != "0":
                        resid[el.nodes[0]] -= cur
                    if el.nodes[1] != "0":
                        resid[el.nodes[1]] += cur
            assert max(abs(r) for r in resid.values()) <= 1e-10


class TestFlopCounter:
    def test_monotone_and_total(self):
        fc = FlopCounter()
        fc.count(adds=2, muls=3, divs=1, transcendentals=4)
        assert fc.total() == 10
        fc.count(adds=1)
        assert fc.total() == 11

    def test_difference(self):
        a = FlopCounter(5, 5, 5, 5)
        b = FlopCounter(1, 2, 3, 4)
        d = a - b
        assert (d.adds, d.muls, d.divs, d.transcendentals) == (4, 3, 2, 1)
