"""Nodal assembly and instrumented LU solver tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim.cli import main
from nanosim.devices import G_FLOOR, mos_bias
from nanosim.mna import (_PIVOT_RTOL, Circuit, FlopCounter, MnaError, MnaSystem,
                         Partition, Pin, SingularSystemError, assemble, solve,
                         stamp_conductance)
from nanosim.netlist import ElementKind, eval_waveform, parse_netlist

from conftest import MULTI_NODE_DECK


def _solve_net(deck):
    circuit = Circuit(parse_netlist(deck))
    sys = assemble(circuit, [])
    fc = FlopCounter()
    return circuit, sys, solve(sys, fc), fc


def _full_lu(sys):
    """``sys`` solved by the LU over every unknown, without condensing the
    grounded sources out."""
    return solve(dataclasses.replace(sys, partition=None), FlopCounter())


class TestAssemble:
    def test_ideal_source(self):
        for deck, node, level in [
            ("V1 1 0 DC 5\nR1 1 0 1k\n", "1", 5.0),
            # the plus terminal at ground: the node sits at minus the level
            ("V1 0 n DC 5\nR1 n 0 1k\n", "n", -5.0),
            # every node pinned: no unknown is left for the LU
            ("V1 1 0 DC 5\nV2 0 2 DC 3\nR1 1 2 1k\n", "2", -3.0),
            # subnormal levels only: the rounding of the condensed solve
            # would show at this tolerance, so the system keeps the full LU
            ("Rg1 1 0 100\nRg2 2 0 100\nRg3 3 0 100\nR0 1 2 100\n"
             "V0 3 2 DC 2.2250738585e-313\nV1 1 0 DC 0\n", "1", 0.0),
        ]:
            circuit, sys, x, _ = _solve_net(deck + ".op\n.end\n")
            assert sys.partition is not None
            assert x[circuit.node_index[node]] == level
            # the source currents, read back from KCL, agree with the full LU
            np.testing.assert_allclose(x, _full_lu(sys), rtol=1e-12, atol=0.0)

    def test_divider(self):
        for deck, flops in [
            ("V1 1 0 DC 5\nR1 1 2 1k\nR2 2 0 1k\n", FlopCounter(3, 3, 1)),
            # a floating 0 V source (an ammeter) beside the grounded one
            ("V1 1 0 DC 5\nR1 1 2 1k\nVm 2 3 DC 0\nR2 3 0 1k\n",
             FlopCounter(14, 14, 6)),
        ]:
            circuit, sys, x, fc = _solve_net(deck + ".op\n.end\n")
            assert x[circuit.node_index["1"]] == pytest.approx(5.0)
            assert x[circuit.node_index["2"]] == pytest.approx(2.5)
            np.testing.assert_allclose(x, _full_lu(sys), rtol=1e-12, atol=0.0)
            # one add and one multiply per coefficient moved to the right-hand
            # side or summed in the KCL read-back, plus the reduced LU's bill
            assert fc == flops

    def test_partition(self):
        circuit = Circuit(parse_netlist(
            "V1 0 a DC 1\nV2 b a DC 2\nV3 c 0 DC 3\nR1 b 0 1k\nR2 c d 1k\n"
            "R3 d 0 1k\n.end\n"))
        assert circuit.partition == Partition(pins=(Pin(4, 0, -1.0), Pin(6, 2, 1.0)),
                                              free=(1, 3, 5))
        # no grounded source, or a node pinned twice (a singular deck): the
        # systems keep every unknown
        for deck in ("V1 1 2 DC 1\nR1 1 0 1k\nR2 2 0 1k\n",
                     "V1 1 0 DC 1\nV2 0 1 DC 2\nR1 1 0 1k\n"):
            circuit = Circuit(parse_netlist(deck + ".end\n"))
            assert circuit.partition is None
            assert assemble(circuit, []).partition is None

    def test_capacitor_companion_stamp(self):
        net = parse_netlist("V1 1 0 DC 1\nC1 2 0 1p\nR1 1 2 1k\n.end\n")
        circuit = Circuit(net)
        sys = assemble(circuit, [], vstate=np.array([0.0, 1.0]), h=1e-12, t=0.0)
        i2 = circuit.node_index["2"]
        # g = C/h = 1.0 S plus the 1 mS resistor; companion current 1.0 A
        assert sys.G[i2, i2] == pytest.approx(1.0 + 1e-3)
        assert sys.rhs[i2] == pytest.approx(1.0)

    def test_dc_assembly_ignores_capacitors(self):
        net = parse_netlist("V1 1 0 DC 1\nC1 2 0 1p\nR1 1 2 1k\n.end\n")
        circuit = Circuit(net)
        sys = assemble(circuit, [], vstate=np.array([0.0, 1.0]), h=math.inf)
        i2 = circuit.node_index["2"]
        assert sys.G[i2, i2] == pytest.approx(1e-3)
        assert sys.rhs[i2] == 0.0

    def test_device_floor(self):
        deck = ("V1 1 0 DC 1\nR1 1 2 1k\nXRTD1 2 0 M1\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".end\n")
        circuit = Circuit(parse_netlist(deck))
        sys = assemble(circuit, [0.0])
        i2 = circuit.node_index["2"]
        assert sys.G[i2, i2] >= 1e-3 + G_FLOOR

    def test_missing_geq(self):
        deck = ("V1 1 0 DC 1\nR1 1 2 1k\nXRTD1 2 0 M1\n"
                ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
                ".end\n")
        net = parse_netlist(deck)
        with pytest.raises(MnaError, match="XRTD1"):
            assemble(Circuit(net), [])

    def test_stamp_linearity(self):
        base = "V1 1 0 DC 5\nRt1 1 0 1e12\nRt2 2 0 1e12\nRt3 1 2 1e12\n"
        part_a = "R1 1 2 1k\n"
        part_b = "R2 2 0 500\n"
        g_base = assemble(Circuit(parse_netlist(base + ".end\n")), []).G
        g_a = assemble(Circuit(parse_netlist(base + part_a + ".end\n")), []).G
        g_b = assemble(Circuit(parse_netlist(base + part_b + ".end\n")), []).G
        g_ab = assemble(Circuit(parse_netlist(base + part_a + part_b + ".end\n")), []).G
        assert np.allclose(g_a + g_b - g_base, g_ab, rtol=0, atol=1e-16)


def _in_device_order(circuit, geq):
    """The conductances ``geq`` (a dict by element name) as the list in
    ``circuit.devices`` order that :func:`assemble` takes."""
    return [geq[br.el.name] for br in circuit.devices]


def _index_ref(net):
    """Reference index maps: node names, then source names, to unknowns."""
    node_index = {name: i for i, name in enumerate(net.nodes)}
    n = len(node_index)
    sources = [el for el in net.elements if el.kind is ElementKind.VSOURCE]
    return node_index, {el.name: n + i for i, el in enumerate(sources)}


def _assemble_ref(net, geq, vstate=None, h=math.inf, t=0.0):
    """Reference assembly: the per-call stamping in element order, with the
    index maps rebuilt on every call, that the compiled ``Circuit`` replaced."""
    node_index, source_index = _index_ref(net)
    size = len(node_index) + len(source_index)
    G = np.zeros((size, size))
    rhs = np.zeros(size)

    def vprev(i):
        return 0.0 if i < 0 else float(vstate[i])

    for el in net.elements:
        kind = el.kind
        if kind is ElementKind.NOISE or (kind is ElementKind.CAPACITOR
                                         and not math.isfinite(h)):
            continue
        a, b = (-1 if nd == "0" else node_index[nd] for nd in el.branch)
        if kind is ElementKind.RESISTOR:
            stamp_conductance(G, a, b, 1.0 / el.value)
        elif kind is ElementKind.CAPACITOR:
            g = el.value / h
            i_eq = g * (vprev(a) - vprev(b))
            stamp_conductance(G, a, b, g)
            if a >= 0:
                rhs[a] += i_eq
            if b >= 0:
                rhs[b] -= i_eq
        elif kind is ElementKind.VSOURCE:
            row = source_index[el.name]
            if a >= 0:
                G[row, a] = G[a, row] = 1.0
            if b >= 0:
                G[row, b] = G[b, row] = -1.0
            rhs[row] = eval_waveform(el.waveform, t)
        else:
            try:
                g = geq[el.name]
            except KeyError:
                raise MnaError(f"no equivalent conductance supplied for '{el.name}'")
            stamp_conductance(G, a, b, max(g, G_FLOOR))
    return MnaSystem(G.tolist(), rhs.tolist())


def _cap_matrix_ref(net):
    """Reference node capacitance matrix: every capacitor stamped like a
    conductance, in element order."""
    node_index = {name: i for i, name in enumerate(net.nodes)}
    cap = np.zeros((len(net.nodes), len(net.nodes)))
    for el in net.elements:
        if el.kind is ElementKind.CAPACITOR:
            a, b = (node_index.get(nd, -1) for nd in el.nodes)
            for i, j, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                if i >= 0 and j >= 0:
                    cap[i, j] += sign * el.value
    return cap


_MODELS = ("\n.model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)"
           "\n.model MFET NMOS (k=1e-4 W=2u L=1u Vth=1)\n.end\n")


@st.composite
def _decks(draw):
    """Random R/C/V/RTD/MOS decks on 1-5 nodes in three groups: resistors
    and sources (interleaved), then devices, then capacitors. Every node has
    a resistor to ground and is the plus node of at most one source, so the
    system is regular. Returns the groups, a conductance per device (0 hits
    the floor), node voltages for the capacitor companions, h and t."""
    k = draw(st.integers(1, 5))
    nodes = [str(i) for i in range(1, k + 1)]
    any_node = st.sampled_from(["0"] + nodes)
    res = st.floats(100.0, 1e4)

    def pair():
        a = draw(any_node)
        return a, draw(any_node.filter(lambda b: b != a))

    static = [f"Rg{nd} {nd} 0 {draw(res)!r}" for nd in nodes]
    static += [f"R{i} {' '.join(pair())} {draw(res)!r}"
               for i in range(draw(st.integers(0, 5)))]
    for i, nd in enumerate(draw(st.lists(st.sampled_from(nodes), max_size=2,
                                         unique=True))):
        # the minus node is ground or a lower-numbered node: no source loop
        minus = draw(st.sampled_from(["0"] + nodes[:int(nd) - 1]))
        level = draw(st.floats(-5.0, 5.0))
        wave = (f"DC {level!r}" if draw(st.booleans())
                else f"PWL(0 0 1n {level!r} 3n {-level!r})")
        static.append(f"V{i} {nd} {minus} {wave}")
    static = draw(st.permutations(static))
    devices, geq = [], {}
    for i in range(draw(st.integers(0, 3))):
        a, b = pair()
        if draw(st.booleans()):
            name, line = f"XRTD{i}", f"{a} {b} M1"
        else:
            name, line = f"M{i}", f"{a} {draw(any_node)} {b} 0 MFET"
        devices.append(f"{name} {line}")
        geq[name] = draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 1e-2]))
    caps = [f"C{i} {' '.join(pair())} {draw(st.floats(1e-12, 1e-11))!r}"
            for i in range(draw(st.integers(0, 4)))]
    vstate = np.array([draw(st.floats(-5.0, 5.0)) for _ in nodes])
    h = draw(st.sampled_from([math.inf, 1e-9, 1e-10]))
    t = draw(st.floats(0.0, 4e-9))
    return [static, draw(st.permutations(devices)), caps], geq, vstate, h, t


def _net(lines):
    return parse_netlist("* random deck\n" + "\n".join(lines) + _MODELS)


class TestAssembleMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_decks())
    def test_deck_order_is_bit_identical(self, deck):
        groups, geq, vstate, h, t = deck
        net = _net(sum(groups, []))
        vstate = vstate[[int(nd) - 1 for nd in net.nodes]]
        circuit = Circuit(net)
        got = assemble(circuit, _in_device_order(circuit, geq), vstate=vstate, h=h, t=t)
        ref = _assemble_ref(net, geq, vstate=vstate, h=h, t=t)
        assert got.G.tobytes() == ref.G.tobytes()
        assert got.rhs.tobytes() == ref.rhs.tobytes()
        assert (circuit.node_index, circuit.source_index) == _index_ref(net)
        assert circuit.C.tobytes() == _cap_matrix_ref(net).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_decks(), st.randoms(use_true_random=False))
    def test_any_order_solves_alike(self, deck, rnd):
        groups, geq, vstate, h, t = deck
        lines = sum(groups, [])
        rnd.shuffle(lines)
        net = _net(lines)
        vstate = vstate[[int(nd) - 1 for nd in net.nodes]]
        circuit = Circuit(net)
        geq_list = _in_device_order(circuit, geq)
        x = np.asarray(solve(assemble(circuit, geq_list, vstate=vstate, h=h, t=t),
                             FlopCounter()))
        x_ref = np.asarray(solve(_assemble_ref(net, geq, vstate=vstate, h=h, t=t),
                                 FlopCounter()))
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    def test_missing_conductance_names_the_device(self):
        net = _net(["V1 1 0 DC 1", "R1 1 2 1k", "XRTD1 2 0 M1", "M1 2 1 0 0 MFET"])
        with pytest.raises(MnaError, match="'M1'"):
            assemble(Circuit(net), [1e-3])
        with pytest.raises(MnaError, match="'M1'"):
            _assemble_ref(net, {"XRTD1": 1e-3})


class TestSolve:
    def test_identity(self):
        size = 4
        for k in range(size):
            rhs = np.zeros(size)
            rhs[k] = 1.0
            sys = MnaSystem(np.eye(size).tolist(), rhs.tolist())
            x = solve(sys, FlopCounter())
            assert np.allclose(x, rhs)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(17)
        n = 10
        A = rng.uniform(-1, 1, (n, n))
        A = A @ A.T + n * np.eye(n)
        rhs = rng.uniform(-1, 1, n)
        sys = MnaSystem(A.tolist(), rhs.tolist())
        x = solve(sys, FlopCounter())
        assert np.max(np.abs(A @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_negative_zero_survives_substitution(self):
        # every product in x[1]'s forward-substitution row is an exact zero,
        # so the sign of its -0.0 is the sign numpy's dot gives it
        sys = MnaSystem(np.eye(2).tolist(), [1.0, -0.0])
        x = solve(sys, FlopCounter())
        assert math.copysign(1.0, x[1]) == -1.0
        assert np.asarray(x).tobytes() == _solve_ref(sys, FlopCounter()).tobytes()

    def test_singular_detected(self):
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        sys = MnaSystem(G.tolist(), [1.0, 0.0])
        with pytest.raises(SingularSystemError):
            solve(sys, FlopCounter())

    def test_flop_growth_cubic(self):
        rng = np.random.default_rng(3)
        sizes = [10, 20, 40, 80]
        totals = []
        for n in sizes:
            A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
            sys = MnaSystem(A.tolist(), rng.uniform(-1, 1, n).tolist())
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
    sys = MnaSystem(G.tolist(), rhs.tolist())
    try:
        return np.asarray(solver(sys, fc)).tobytes(), fc
    except SingularSystemError as exc:
        return f"SingularSystemError: {exc}", fc


def _mna_shaped(rng, size):
    """An MNA-shaped system: sparse symmetric node conductances from 1e-12
    to 1e3 S, up to two voltage sources as +-1 incidence rows and columns
    with a zero diagonal (a row swap, and columns that stay zero below the
    pivot), a sparse right-hand side, and sometimes one non-finite entry in
    it, whose 0 * inf = nan products reach the substitutions."""
    m = int(rng.integers(0, min(2, size // 2) + 1))
    n = size - m
    G = np.zeros((size, size))
    for i in range(n):
        G[i, i] += 10.0 ** rng.uniform(-12.0, 0.0)
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        a, b = rng.choice(np.arange(-1, n), 2, replace=False)
        stamp_conductance(G, a, b, 10.0 ** rng.uniform(-12.0, 3.0))
    for j, a in enumerate(rng.choice(n, m, replace=False)):
        G[n + j, a] = G[a, n + j] = 1.0
        b = int(rng.integers(-1, n))
        if b >= 0 and b != a:
            G[n + j, b] = G[b, n + j] = -1.0
    rhs = np.where(rng.uniform(size=size) < 0.5, 0.0, rng.uniform(-5.0, 5.0, size))
    if rng.uniform() < 0.4:
        rhs[rng.integers(size)] = rng.choice([np.inf, -np.inf, np.nan])
    return G, rhs


@st.composite
def _systems(draw):
    """Dense systems of 1-12 unknowns: random, small-integer entries (ties
    between pivot candidates, exact cancellation), rows shuffled away from
    a dominant diagonal (row swaps at every column), rows of very different
    scale, singular ones, and MNA-shaped ones (:func:`_mna_shaped`)."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "integer", "shuffled", "scaled",
                                 "zero_col", "empty_row", "dependent", "mna"]))
    if kind == "mna":
        return _mna_shaped(rng, n)
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
        # the non-finite right-hand sides of _mna_shaped are intended: both
        # solvers must carry their 0 * inf = nan products through the
        # substitutions bit for bit, and numpy's dot flags each as invalid
        with np.errstate(invalid="ignore"):
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
            circuit = Circuit(net)
            sys = assemble(circuit, [])
            assert sys.partition is not None
            # condensed (V1 pins n0) and over every unknown
            for x in (solve(sys, FlopCounter()), _full_lu(sys)):

                def v(node):
                    return 0.0 if node == "0" else x[circuit.node_index[node]]

                resid = {nd: 0.0 for nd in net.nodes}
                for el in net.elements:
                    if el.kind.value == "resistor":
                        i_r = (v(el.nodes[0]) - v(el.nodes[1])) / el.value
                        if el.nodes[0] != "0":
                            resid[el.nodes[0]] -= i_r
                        if el.nodes[1] != "0":
                            resid[el.nodes[1]] += i_r
                    elif el.kind.value == "vsource":
                        cur = x[circuit.source_index[el.name]]
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


# an RTD with both terminals on ground, MOSFETs with a grounded drain, gate
# or source, and a nanowire between two free nodes
_GROUNDED_TERMINALS = (
    "* grounded terminals\nV1 1 0 DC 1\nR1 1 2 1k\nXRTD1 0 0 M1\nXRTD2 2 0 M1\n"
    "M1 0 2 1 0 MF\nM2 2 0 1 0 MF\nM3 1 2 0 0 MF\nXNW1 1 2 NWM\n"
    ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
    ".model MF NMOS (k=1e-3 W=4u L=1u Vth=1)\n"
    ".model NWM NW (g0=2e-5 vstep=0.5 nsteps=5 smooth=0.05)\n.end\n")


class TestBiases:
    """``Circuit.biases``, the one rule by which every device walk reads
    its devices' biases."""

    @staticmethod
    def _expected(circuit, x, ground):
        """mos_bias's (vds, vgs, reversed) or (v, v, False), read by hand."""
        def at(i):
            return x[i] if i >= 0 else ground
        out = []
        for br in circuit.devices:
            if br.el.kind is ElementKind.MOSFET:
                vgs, vds, rev = mos_bias(at(br.a), at(br.gate), at(br.b))
                out.append((vds, vgs, rev))
            else:
                v = at(br.a) - at(br.b)
                out.append((v, v, False))
        return out

    @pytest.mark.parametrize("deck", [MULTI_NODE_DECK, _GROUNDED_TERMINALS],
                             ids=["multi-node", "grounded-terminals"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_floats_and_arrays_read_mos_bias_and_differences(self, deck, data):
        circuit = Circuit(parse_netlist(deck))
        volts = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-10.0, 10.0)
        points = data.draw(st.integers(1, 4))
        rows = [data.draw(st.lists(volts, min_size=points, max_size=points))
                for _ in range(circuit.n)]
        # floats: the solution list a solve returns, source currents after
        x = [row[0] for row in rows] + [0.5] * circuit.m
        got = list(circuit.biases(x))
        assert repr(got) == repr(self._expected(circuit, x, 0.0))
        assert all(type(v) is float and type(c) is float for v, c, _ in got)
        # arrays: one row per node, every bias an array of the row's shape
        arr = np.array(rows).reshape(circuit.n, points)
        got = list(circuit.biases(arr))
        want = self._expected(circuit, list(arr), np.zeros(points))
        for (v, c, rev), (wv, wc, wrev) in zip(got, want):
            assert np.shape(v) == np.shape(c) == (points,)
            assert (v.tobytes(), c.tobytes()) == (wv.tobytes(), wc.tobytes())
            assert np.array_equal(rev, wrev)

    def test_sweep_of_a_device_between_grounds_writes_zeros(self, tmp_path):
        # both terminals on ground: the dc current column is still one zero
        # per point
        deck = tmp_path / "grounded.ckt"
        deck.write_text(_GROUNDED_TERMINALS.replace(".end", ".dc V1 0 1 5\n.end"))
        out = tmp_path / "grounded.csv"
        assert main(["dc", str(deck), "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        col = header.split(",").index("i(XRTD1)")
        assert [row.split(",")[col] for row in rows] == ["0.0"] * 5
