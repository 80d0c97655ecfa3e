"""Parser, waveform and validation tests."""

import dataclasses
import glob
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanosim import netlist
from nanosim.netlist import (_CARDS, _MODEL_TYPES, Dc, ElementKind, NetlistError,
                             Pulse, Pwl, StochAnalysis, TranAnalysis, DcAnalysis,
                             eval_waveform, parse_netlist, parse_value,
                             pretty_print, waveform_breakpoints)

from conftest import DECKS, deck_text

RTD_KEYS = "A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172"


class TestParseValue:
    def test_plain_numbers(self):
        assert parse_value("100") == 100.0
        assert parse_value("-3.5") == -3.5
        assert parse_value("1e-9") == 1e-9
        assert parse_value("2.5E+3") == 2500.0

    def test_suffixes(self):
        assert parse_value("1k") == pytest.approx(1e3)
        assert parse_value("1K") == pytest.approx(1e3)
        assert parse_value("2.5u") == pytest.approx(2.5e-6)
        assert parse_value("100n") == pytest.approx(100e-9)
        assert parse_value("10p") == pytest.approx(10e-12)
        assert parse_value("3f") == pytest.approx(3e-15)
        assert parse_value("1.5meg") == pytest.approx(1.5e6)
        assert parse_value("2g") == pytest.approx(2e9)
        assert parse_value("4m") == pytest.approx(4e-3)

    def test_bad_values(self):
        for bad in ("abc", "", "1x", "1kk", "--3"):
            with pytest.raises(NetlistError):
                parse_value(bad)


class TestCards:
    def test_single_resistor(self):
        net = parse_netlist("R1 1 0 1k\n.end\n")
        el = net.elements[0]
        assert el.kind is ElementKind.RESISTOR
        assert el.nodes == ("1", "0")
        assert el.value == 1000.0
        assert net.nodes == ("1",)

    def test_rtd_divider_model_values(self):
        net = parse_netlist(deck_text("rtd_divider.ckt"))
        m = net.models["m1"]
        assert m.a == 1e-4
        assert m.b == 2.0
        assert m.cp == 1.5
        assert m.d == 0.3
        assert m.h == 1.43e-8
        assert m.n1 == 0.35
        assert m.n2 == 0.0172
        assert m.temp == 300.0      # default when the card omits T
        assert m.area == 1.0
        kinds = [el.kind for el in net.elements]
        assert kinds == [ElementKind.VSOURCE, ElementKind.RESISTOR, ElementKind.RTD]

    def test_negative_resistance_rejected(self):
        with pytest.raises(NetlistError, match="positive"):
            parse_netlist("R1 1 0 -5\n.end\n")

    def test_mosfet_four_terminals(self):
        net = parse_netlist(
            "M1 d g s b MFET\nR1 d 0 1k\nR2 g 0 1k\nR3 s 0 1k\nR4 b 0 1k\n"
            ".model MFET NMOS (k=1e-4 W=1u L=1u Vth=1)\n.end\n")
        el = net.element("M1")
        assert el.nodes == ("d", "g", "s", "b")
        with pytest.raises(NetlistError):
            parse_netlist("M1 d g s MFET\n"
                          ".model MFET NMOS (k=1e-4 W=1u L=1u Vth=1)\n.end\n")

    def test_noise_intensity_nonnegative(self):
        with pytest.raises(NetlistError, match="nonnegative"):
            parse_netlist("N1 1 0 -1e-9\nR1 1 0 1k\n.end\n")

    def test_continuation_and_comments(self):
        net = parse_netlist("* title line\nR1 1\n+ 0\n+ 2k\n.end\n")
        assert net.title == "title line"
        assert net.elements[0].value == 2000.0


class TestErrors:
    def test_unknown_model_names_line(self):
        with pytest.raises(NetlistError, match="line 1"):
            parse_netlist("XRTD1 1 0 NOPE\nR1 1 0 1k\n.end\n")

    def test_wrong_model_kind(self):
        deck = ("XRTD1 1 0 FET\nR1 1 0 1k\n"
                ".model FET NMOS (k=1e-4 W=1u L=1u Vth=1)\n.end\n")
        with pytest.raises(NetlistError, match="wrong kind"):
            parse_netlist(deck)

    def test_duplicate_name_case_insensitive(self):
        with pytest.raises(NetlistError, match="duplicate"):
            parse_netlist("R1 1 0 1k\nr1 1 0 2k\n.end\n")

    def test_missing_end(self):
        with pytest.raises(NetlistError, match=r"\.end"):
            parse_netlist("R1 1 0 1k\n")

    def test_dangling_node(self):
        with pytest.raises(NetlistError, match="dangling"):
            parse_netlist("R1 1 0 1k\nR2 2 3 1k\n.end\n")

    def test_no_ground(self):
        with pytest.raises(NetlistError, match="ground"):
            parse_netlist("R1 1 2 1k\n.end\n")

    def test_unknown_card(self):
        with pytest.raises(NetlistError, match="line 2"):
            parse_netlist("R1 1 0 1k\nQ1 1 0 2\n.end\n")


class TestWaveforms:
    def test_dc(self):
        assert eval_waveform(Dc(5.0), 1e-9) == 5.0

    def test_pwl_interpolation(self):
        w = Pwl(((0.0, 0.0), (1e-9, 5.0)))
        assert eval_waveform(w, 0.5e-9) == pytest.approx(2.5)
        assert eval_waveform(w, -1.0) == 0.0
        assert eval_waveform(w, 2e-9) == 5.0

    def test_pulse_plateau(self):
        # hand evaluation: 5 ns sits inside the 10 ns-wide high plateau
        w = Pulse(0.0, 5.0, 0.0, 1e-9, 1e-9, 10e-9, 30e-9)
        assert eval_waveform(w, 5e-9) == 5.0
        assert eval_waveform(w, 0.5e-9) == pytest.approx(2.5)
        assert eval_waveform(w, 11.5e-9) == pytest.approx(2.5)
        assert eval_waveform(w, 20e-9) == 0.0

    def test_pulse_periodicity(self):
        w = Pulse(0.0, 5.0, 2e-9, 1e-9, 1e-9, 10e-9, 30e-9)
        for t in (5e-9, 0.3e-9, 11.7e-9):
            assert eval_waveform(w, t + 2e-9) == pytest.approx(
                eval_waveform(w, t + 2e-9 + 30e-9))

    def test_pulse_invariants(self):
        with pytest.raises(NetlistError):
            Pulse(0.0, 5.0, 0.0, 0.0, 1e-9, 10e-9, 30e-9)
        with pytest.raises(NetlistError):
            Pulse(0.0, 5.0, 0.0, 1e-9, 1e-9, 30e-9, 30e-9)

    def test_pwl_strictly_increasing(self):
        with pytest.raises(NetlistError):
            Pwl(((0.0, 0.0), (0.0, 5.0)))

    def test_pwl_continuity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 8)
            times = np.sort(rng.uniform(0, 1e-6, n))
            times += np.arange(n) * 1e-9      # enforce strict increase
            vals = rng.uniform(-5, 5, n)
            w = Pwl(tuple(zip(times, vals)))
            slope = np.max(np.abs(np.diff(vals) / np.diff(times)))
            t = rng.uniform(0, times[-1])
            delta = 1e-12
            dv = abs(eval_waveform(w, t + delta) - eval_waveform(w, t))
            assert dv <= slope * delta * (1 + 1e-9) + 1e-15

    def test_breakpoints(self):
        w = Pulse(0.0, 5.0, 2e-9, 1e-9, 1e-9, 10e-9, 30e-9)
        bps = waveform_breakpoints(w, 40e-9)

        def has(t):
            return any(abs(b - t) < 1e-18 for b in bps)

        assert has(2e-9) and has(3e-9) and has(13e-9) and has(14e-9) and has(32e-9)
        assert all(0.0 < b < 40e-9 for b in bps)


class TestAnalyses:
    def test_directives(self):
        net = parse_netlist(
            "V1 1 0 DC 1\nR1 1 0 1k\nN1 1 0 1e-9\nC1 1 0 1p\n"
            ".op\n.dc V1 0 4.5 60\n.tran 10n eps=0.02\n"
            ".stoch 1u 1n 500 seed=9\n.end\n")
        op, dc, tran, stoch = net.analyses
        assert isinstance(dc, DcAnalysis)
        assert (dc.source, dc.start, dc.stop, dc.points) == ("V1", 0.0, 4.5, 60)
        assert isinstance(tran, TranAnalysis)
        assert tran.t_stop == 10e-9 and tran.eps == 0.02
        assert isinstance(stoch, StochAnalysis)
        assert (stoch.t_stop, stoch.dt, stoch.paths, stoch.seed) == (1e-6, 1e-9, 500, 9)

    def test_dc_needs_two_points(self):
        with pytest.raises(NetlistError):
            parse_netlist("V1 1 0 DC 1\nR1 1 0 1k\n.dc V1 0 1 1\n.end\n")


class TestRoundTrip:
    @pytest.mark.parametrize("deck", sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(DECKS, "*.ckt"))))
    def test_corpus_parses_and_round_trips(self, deck):
        net = parse_netlist(deck_text(deck))
        again = parse_netlist(pretty_print(net))
        assert again == net


class TestModelBody:
    def model(self, body: str, mtype: str = "RTD"):
        net = parse_netlist(f"R1 1 0 1k\n.model M1 {mtype} {body}\n.end\n")
        return net.models["m1"]

    @pytest.mark.parametrize("body", [
        f"({RTD_KEYS} garbage)",
        f"(A=1e-4 garbage B=2 {RTD_KEYS[11:]})",
        f"({RTD_KEYS}",                         # unbalanced
        f"({RTD_KEYS} (T=300))",
        f"({RTD_KEYS} =5)",
        f"({RTD_KEYS} area 2)",
    ])
    def test_stray_text_rejected(self, body):
        with pytest.raises(NetlistError, match="unexpected text") as exc:
            self.model(body)
        assert str(exc.value).startswith("line 2: ")

    @pytest.mark.parametrize("extra", ["A=5", "a=5", "T=300 t=200"])
    def test_repeated_key_rejected(self, extra):
        with pytest.raises(NetlistError, match="given twice"):
            self.model(f"({RTD_KEYS} {extra})")

    @pytest.mark.parametrize("mtype, body, missing", [
        ("RTD", "(A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35)", "n2"),
        ("RTD", "(B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 T=300)", "A, n2"),
        ("NW", "(g0=2e-5 smooth=0.05)", "vstep, nsteps"),
    ])
    def test_missing_keys_named(self, mtype, body, missing):
        with pytest.raises(NetlistError, match=re.escape(
                f"model 'M1' is missing required parameters: {missing}\n")):
            self.model(body, mtype)

    @pytest.mark.parametrize("body", [
        f"({RTD_KEYS})",
        RTD_KEYS,
        "(a = 1e-4, b=2,c=1.5 D=0.3 h=1.43e-8 N1=0.35 n2=0.0172)",
        f"( {RTD_KEYS} T=300 )",
    ])
    def test_accepted_forms(self, body):
        m = self.model(body)
        assert (m.a, m.b, m.cp, m.d, m.h, m.n1, m.n2, m.temp, m.area) == (
            1e-4, 2.0, 1.5, 0.3, 1.43e-8, 0.35, 0.0172, 300.0, 1.0)


class TestCounts:
    @pytest.mark.parametrize("line, what", [
        (".dc V1 0 1 2.9", ".dc points"),
        (".dc V1 0 1 1.5", ".dc points"),
        (".stoch 1u 1n 10.5 seed=3", ".stoch paths"),
        (".stoch 1u 1n 10 seed=3.7", ".stoch seed"),
        (".model W NW (g0=2e-5 vstep=0.5 nsteps=2.7 smooth=0.05)", "model key 'nsteps'"),
    ])
    def test_fractions_rejected(self, line, what):
        with pytest.raises(NetlistError, match=re.escape(f"{what} must be an integer")):
            parse_netlist(f"V1 1 0 DC 1\nR1 1 0 1k\n{line}\n.end\n")

    def test_whole_numbers_in_any_notation(self):
        net = parse_netlist("V1 1 0 DC 1\nR1 1 0 1k\n.dc V1 0 1 1k\n"
                            ".stoch 1u 1n 2e3 seed=4.0\n"
                            ".model W NW (g0=2e-5 vstep=0.5 nsteps=5.0 smooth=0.05)\n.end\n")
        dc, stoch = net.analyses
        counts = (dc.points, stoch.paths, stoch.seed, net.models["w"].nsteps)
        assert counts == (1000, 2000, 4, 5)
        assert all(type(c) is int for c in counts)


    def test_integer_literal_exact(self):
        # 2**53 + 1 has no double: a count must not pass through one
        net = parse_netlist("V1 1 0 DC 1\nR1 1 0 1k\n"
                            ".stoch 1u 1n 4 seed=9007199254740993\n.end\n")
        assert net.analyses[0].seed == 9007199254740993


class TestAnalysisCards:
    BODY = "V1 1 0 DC 1\nR1 1 0 1k\n"

    @pytest.mark.parametrize("cards, message", [
        (".op foo bar\n", "line 3: unknown .op option 'foo'"),
        (".dc V1 0 1 3 4\n", "line 3: unknown .dc option '4'"),
        (".tran 1n eps=0.1 eps=0.2\n", "line 3: .tran option 'eps' given twice"),
        (".stoch 1u 1n 4 seed=1 SEED=2\n", "line 3: .stoch option 'seed' given twice"),
        (".tran 1n\n.op\n.TRAN 2n eps=0.1\n",
         "line 5: second .tran card (the first is on line 3)"),
        (".dc V1 0 1 3\n.dc V1 0 2 5\n", "line 4: second .dc card (the first is on line 3)"),
        (".stoch 1u 1n 4\n* comment\n.stoch 2u 1n 4\n",
         "line 5: second .stoch card (the first is on line 3)"),
    ])
    def test_rejected(self, cards, message):
        with pytest.raises(NetlistError, match=re.escape(message + "\n")):
            parse_netlist(f"{self.BODY}{cards}.end\n")

    def test_nothing_after_end(self):
        with pytest.raises(NetlistError, match=re.escape(
                "line 4: unexpected text 'now' after .END\n")):
            parse_netlist(f"{self.BODY}.op\n.END now\n")

    def test_one_card_of_each(self):
        net = parse_netlist(f"{self.BODY}.op\n.dc V1 0 1 3\n.tran 1n eps=0.1\n"
                            ".stoch 1u 1n 4 seed=2\n.end\n")
        assert len(net.analyses) == 4


def _dialect_lines(text: str) -> list:
    """The card lines of the first code block after the README's
    "Netlist dialect" heading, whitespace collapsed."""
    block = text.split("## Netlist dialect", 1)[1].split("```")[1]
    return [" ".join(line.split()) for line in block.splitlines() if line.strip()]


def _docstring_lines(text: str) -> list:
    """The indented card lines of the module docstring, ahead of its example."""
    return [" ".join(line.split()) for line in text.split("Example:")[0].splitlines()
            if line.startswith("    ")]


class TestDialectDocs:
    """The README's dialect block and the module docstring list exactly the
    tables' cards and keys."""

    README = os.path.join(DECKS, os.pardir, "README.md")

    @pytest.fixture(params=["README", "docstring"])
    def lines(self, request):
        if request.param == "docstring":
            return _docstring_lines(netlist.__doc__)
        with open(self.README, encoding="utf-8") as fh:
            return _dialect_lines(fh.read())

    def test_model_lines_name_the_table_keys(self, lines):
        listed = {}
        for line in lines:
            m = re.match(r"\.model <name> (\w+) \((.*)\)", line)
            if m:
                listed[m.group(1)] = re.findall(r"(\[?)(\w+)=([^\s\]]*)", m.group(2))
        assert set(listed) == set(_MODEL_TYPES)
        for name, mtype in _MODEL_TYPES.items():
            assert [key for _, key, _ in listed[name]] == [key for key, _ in mtype.keys]
            defaults = {f.name: f.default for f in dataclasses.fields(mtype.cls)}
            for (bracket, key, default), (_, field) in zip(listed[name], mtype.keys):
                # a key is optional exactly when its field has a default
                assert bool(bracket) == (defaults[field] is not dataclasses.MISSING)
                if bracket:
                    assert float(default) == defaults[field]

    def test_element_lines_give_the_table_forms(self, lines):
        cards = [line for line in lines if not line.startswith(".")]
        heads = {line.split()[0] for line in cards}
        assert heads == {card.usage.split()[0] for card in _CARDS.values()}
        for card in _CARDS.values():
            (line,) = [ln for ln in cards if ln.split()[0] == card.usage.split()[0]]
            # the source's form abbreviates its waveforms
            assert line.startswith(card.usage.split(" | ")[0])


# --- generated decks ----------------------------------------------------------

_NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=4)
_POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def _number(draw, values=_POSITIVE):
    """A value as deck text: plain, or with an engineering suffix."""
    x = draw(values)
    suffix = draw(st.sampled_from(["", "f", "p", "n", "u", "m", "k", "meg", "g"]))
    mult = 10.0 ** netlist.SUFFIX_EXPONENTS.get(suffix, 0)
    return f"{x / mult!r}{suffix}" if suffix else repr(x)


@st.composite
def _waveform(draw):
    form = draw(st.sampled_from(["DC", "PWL", "PULSE"]))
    if form == "DC":
        return f"DC {draw(_number(st.floats(-10, 10)))}"
    if form == "PWL":
        steps = draw(st.lists(_POSITIVE, min_size=1, max_size=4))
        times = np.cumsum(steps).tolist()
        levels = draw(st.lists(st.floats(-5, 5), min_size=len(times),
                               max_size=len(times)))
        return "PWL(" + " ".join(f"{t!r} {v!r}" for t, v in zip(times, levels)) + ")"
    v1, v2, delay = (draw(st.floats(-5, 5)) for _ in range(3))
    rise, fall, width = (draw(_POSITIVE) for _ in range(3))
    period = (rise + fall + width) * draw(st.floats(1.01, 3.0))
    return "PULSE(" + " ".join(repr(x) for x in (v1, v2, delay, rise, fall, width,
                                                    period)) + ")"


@st.composite
def _model(draw, name: str, mtype: str):
    """A .model card with every required key, a random subset of the
    optional ones, in random order and case."""
    spec = _MODEL_TYPES[mtype]
    defaults = {f.name: f.default for f in dataclasses.fields(spec.cls)}
    pairs = []
    for key, field in spec.keys:
        if defaults[field] is not dataclasses.MISSING and not draw(st.booleans()):
            continue
        value = (str(draw(st.integers(1, 50))) if field in spec.counts
                 else draw(_number()))
        pairs.append(f"{draw(st.sampled_from([key, key.upper(), key.lower()]))}={value}")
    pairs = draw(st.permutations(pairs))
    sep = draw(st.sampled_from([" ", ", ", "\n+ "]))
    return f".model {name} {mtype} (" + sep.join(pairs) + ")"


@st.composite
def _deck(draw):
    nodes = draw(st.lists(_NAMES.filter(lambda n: n != "0"), min_size=1, max_size=3,
                          unique=True))
    lines = [f"* {draw(st.text('abc XYZ', max_size=6))}"]
    lines += [f"RG{i} {nd} 0 1k" for i, nd in enumerate(nodes)]   # a path to ground
    model_of = {t.kind: f"m{i}" for i, t in enumerate(_MODEL_TYPES.values())}
    for i, (prefix, card) in enumerate(_CARDS.items()):
        head = draw(st.sampled_from([prefix, prefix.upper()])) + str(i)
        terminals = [draw(st.sampled_from(nodes + ["0"]))
                     for _ in range(len(card.usage.split()) - 2)]
        if card.kind is ElementKind.VSOURCE:
            terminals, last, source = terminals[:2], draw(_waveform()), head
        elif card.rule is None:
            last = draw(st.sampled_from([model_of[card.kind], model_of[card.kind].upper()]))
        else:
            last = draw(_number(st.floats(0.0 if card.rule(0.0) else 1e-3, 1e3)))
        lines.append(" ".join([head] + terminals + [last]))
    lines += [draw(_model(model_of[t.kind], name)) for name, t in _MODEL_TYPES.items()]
    lines.append(".op")
    lines.append(f".dc {source.upper()} {draw(_number())} {draw(_number())} "
                 f"{draw(st.integers(2, 500))}")
    eps = f" eps={draw(st.floats(1e-4, 0.5))!r}" if draw(st.booleans()) else ""
    lines.append(f".tran {draw(_number())}{eps}")
    seeds = st.integers(0, 3) | st.integers(0, 2**31)      # 0 must come up
    seed = f" SEED={draw(seeds)}" if draw(st.booleans()) else ""
    lines.append(f".stoch {draw(_number())} {draw(_number())} "
                 f"{draw(st.integers(1, 10**4))}{seed}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


class TestGeneratedRoundTrip:
    # each deck holds every card, model type and analysis card; drawing one
    # takes about 30 ms, so 60 decks keep this test near 2 s
    @settings(max_examples=60, deadline=None)
    @given(_deck())
    def test_parse_print_fixed_point(self, deck):
        net = parse_netlist(deck)
        assert {el.kind for el in net.elements} == set(ElementKind)
        text = pretty_print(net)
        again = parse_netlist(text)
        assert again == net
        assert pretty_print(again) == text
