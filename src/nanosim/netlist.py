"""SPICE-subset netlist parser for the nanodevice simulator.

One card per line, ``*`` comment lines, ``+`` continuation lines. Supported
cards (the element cards are ``_CARDS``, the model types ``_MODEL_TYPES``):

    R<name> n1 n2 <ohms>
    C<name> n1 n2 <farads>
    V<name> n+ n- DC <v> | PWL(t1 v1 t2 v2 ...) | PULSE(v1 v2 td tr tf pw per)
    XRTD<name> n1 n2 <model>
    XNW<name> n1 n2 <model>
    M<name> nd ng ns nb <model>      (bulk terminal parsed and ignored)
    N<name> n+ n- <intensity>        (white-noise current injection)
    .model <name> RTD (A= B= C= D= H= n1= n2= [T=300] [area=1])
    .model <name> NMOS (k= W= L= Vth=)
    .model <name> NW (g0= vstep= nsteps= smooth=)
    .op
    .dc <source> <start> <stop> <points>
    .tran <tstop> [eps=<e>]
    .stoch <tstop> <dt> <paths> [seed=<s>]
    .end

Values accept engineering suffixes f/p/n/u/m/k/meg/g. Counts (``points``,
``paths``, ``seed``, ``nsteps``) must be integers (:func:`parse_count`):
``2.9`` is rejected, ``1k`` is 1000, an integer literal is taken exactly.
Model keys are case-insensitive, each given at most once; keys in brackets
are optional. Each analysis card is given at most once, and each of its
options too; ``.op`` and ``.end`` take nothing after them. Node names are
arbitrary identifiers; ``0`` is ground.

Example:
    >>> net = parse_netlist('''* divider
    ... V1 in 0 DC 5
    ... R1 in out 1k
    ... R2 out 0 1k
    ... .op
    ... .end
    ... ''')
    >>> net.nodes
    ('in', 'out')
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Tuple, Union

from .devices import DeviceError, DeviceModel, MosModel, NanowireModel, RtdModel

SUFFIX_EXPONENTS = {
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
    "k": 3,
    "meg": 6,
    "g": 9,
}

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INTEGER_RE = re.compile(r"[+-]?\d+")


class NetlistError(Exception):
    """Parse or validation failure with the offending line attached."""

    def __init__(self, message: str, line_number: Optional[int] = None,
                 line_text: Optional[str] = None):
        self.line_number = line_number
        self.line_text = line_text
        if line_number is not None:
            message = f"line {line_number}: {message}"
            if line_text:
                message += f"\n  >> {line_text}"
        super().__init__(message)


def parse_value(text: str, line_number: Optional[int] = None,
                line_text: Optional[str] = None) -> float:
    """Parse a number with an optional engineering suffix.

    >>> parse_value('1k')
    1000.0
    >>> parse_value('2.5u')
    2.5e-06
    """
    s = text.strip().lower()
    if not s:
        raise NetlistError("empty value", line_number, line_text)
    if _NUMBER_RE.match(s):
        return float(s)
    for suffix in ("meg",) + tuple(k for k in SUFFIX_EXPONENTS if k != "meg"):
        if s.endswith(suffix):
            number = _NUMBER_RE.match(s[: -len(suffix)])
            if number:
                # one literal, so the value rounds once
                exponent = int((number.group(2) or "e0")[1:]) + SUFFIX_EXPONENTS[suffix]
                return float(f"{s[:number.end(1)]}e{exponent}")
    raise NetlistError(f"cannot parse value '{text}'", line_number, line_text)


def parse_count(text: str, what: str, line_number: Optional[int] = None,
                line_text: Optional[str] = None) -> int:
    """Parse a count: an integer literal exactly, any other value
    (:func:`parse_value`) if it is a whole number (``1k`` is 1000, ``2.5``
    an error naming the count ``what``)."""
    if _INTEGER_RE.fullmatch(text.strip()):
        return int(text)
    v = parse_value(text, line_number, line_text)
    if not v.is_integer():
        raise NetlistError(f"{what} must be an integer", line_number, line_text)
    return int(v)


# --- waveforms ---------------------------------------------------------------

@dataclass(frozen=True)
class Dc:
    level: float


@dataclass(frozen=True)
class Pwl:
    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        times = [t for t, _ in self.points]
        if not self.points:
            raise NetlistError("PWL requires at least one breakpoint")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise NetlistError("PWL breakpoint times must be strictly increasing")


@dataclass(frozen=True)
class Pulse:
    v1: float
    v2: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self):
        if self.rise <= 0 or self.fall <= 0:
            raise NetlistError("PULSE rise and fall must be positive")
        if self.period <= self.rise + self.width + self.fall:
            raise NetlistError("PULSE period must exceed rise + width + fall")


Waveform = Union[Dc, Pwl, Pulse]


def eval_waveform(w: Waveform, t: float) -> float:
    """Deterministic source value at time ``t`` (seconds).

    PWL interpolates linearly and clamps outside its breakpoints; PULSE is
    periodic after its delay.
    """
    if isinstance(w, Dc):
        return w.level
    if isinstance(w, Pwl):
        pts = w.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[-1][1]
    if isinstance(w, Pulse):
        if t < w.delay:
            return w.v1
        tau = math.fmod(t - w.delay, w.period)
        if tau < w.rise:
            return w.v1 + (w.v2 - w.v1) * tau / w.rise
        if tau < w.rise + w.width:
            return w.v2
        if tau < w.rise + w.width + w.fall:
            return w.v2 + (w.v1 - w.v2) * (tau - w.rise - w.width) / w.fall
        return w.v1
    raise TypeError(f"not a waveform: {w!r}")


def waveform_breakpoints(w: Waveform, t_stop: float) -> List[float]:
    """Times in (0, t_stop) where the waveform has a slope discontinuity.

    Transient stepping lands on these exactly so that edges are never
    straddled by a large step.
    """
    out: List[float] = []
    if isinstance(w, Pwl):
        out = [t for t, _ in w.points if 0.0 < t < t_stop]
    elif isinstance(w, Pulse):
        k = 0
        while True:
            base = w.delay + k * w.period
            if base >= t_stop:
                break
            for off in (0.0, w.rise, w.rise + w.width, w.rise + w.width + w.fall):
                t = base + off
                if 0.0 < t < t_stop:
                    out.append(t)
            k += 1
    return out


# --- circuit data model -------------------------------------------------------

class ElementKind(Enum):
    RESISTOR = "resistor"
    CAPACITOR = "capacitor"
    VSOURCE = "vsource"
    RTD = "rtd"
    MOSFET = "mosfet"
    NANOWIRE = "nanowire"
    NOISE = "noise"


NONLINEAR_KINDS = (ElementKind.RTD, ElementKind.MOSFET, ElementKind.NANOWIRE)


@dataclass(frozen=True)
class Element:
    name: str
    kind: ElementKind
    nodes: Tuple[str, ...]
    value: Optional[float] = None
    model: Optional[str] = None
    waveform: Optional[Waveform] = None

    @cached_property
    def branch(self) -> Tuple[str, str]:
        """The two nodes the element is stamped between: drain and source
        for a MOSFET, the two terminals otherwise."""
        if self.kind is ElementKind.MOSFET:
            return self.nodes[0], self.nodes[2]
        return self.nodes[0], self.nodes[1]


@dataclass(frozen=True)
class OpAnalysis:
    pass


@dataclass(frozen=True)
class DcAnalysis:
    source: str
    start: float
    stop: float
    points: int


@dataclass(frozen=True)
class TranAnalysis:
    t_stop: float
    eps: Optional[float] = None


@dataclass(frozen=True)
class StochAnalysis:
    t_stop: float
    dt: float
    paths: int
    seed: Optional[int] = None


Analysis = Union[OpAnalysis, DcAnalysis, TranAnalysis, StochAnalysis]

@dataclass(frozen=True)
class Netlist:
    title: str
    nodes: Tuple[str, ...]
    elements: Tuple[Element, ...]
    models: Dict[str, DeviceModel]
    analyses: Tuple[Analysis, ...]

    def elements_of(self, *kinds: ElementKind) -> List[Element]:
        return [el for el in self.elements if el.kind in kinds]

    def element(self, name: str) -> Element:
        for el in self.elements:
            if el.name.lower() == name.lower():
                return el
        raise KeyError(name)

    def model_of(self, el: Element) -> DeviceModel:
        return self.models[el.model.lower()]


class _Card(NamedTuple):
    """An element card: its name in messages, its form (one word per token),
    its kind and, where its last token is a value rather than a model name,
    the rule the value must meet and the message when it does not."""

    label: str
    usage: str
    kind: ElementKind
    rule: Optional[Callable[[float], bool]] = None
    message: str = ""


# by card prefix; a voltage source's tail is a waveform (``_Parser.vsource``)
_CARDS = {
    "r": _Card("resistor", "R<name> n1 n2 <ohms>", ElementKind.RESISTOR,
               lambda v: v > 0, "resistance must be positive"),
    "c": _Card("capacitor", "C<name> n1 n2 <farads>", ElementKind.CAPACITOR,
               lambda v: v > 0, "capacitance must be positive"),
    "v": _Card("source", "V<name> n+ n- DC <v> | PWL(...) | PULSE(...)",
               ElementKind.VSOURCE),
    "xrtd": _Card("XRTD", "XRTD<name> n1 n2 <model>", ElementKind.RTD),
    "xnw": _Card("XNW", "XNW<name> n1 n2 <model>", ElementKind.NANOWIRE),
    "m": _Card("MOSFET", "M<name> nd ng ns nb <model>", ElementKind.MOSFET),
    "n": _Card("noise", "N<name> n+ n- <intensity>", ElementKind.NOISE,
               lambda v: v >= 0, "noise intensity must be nonnegative"),
}


class _ModelType(NamedTuple):
    """A ``.model`` type: the class it builds, the element kind it serves
    and its card keys in print order, each with the field it sets."""

    cls: type
    kind: ElementKind
    keys: Tuple[Tuple[str, str], ...]

    @property
    def counts(self) -> Tuple[str, ...]:
        """The fields that hold counts (annotated ``int``)."""
        return tuple(f.name for f in fields(self.cls) if f.type in (int, "int"))


_MODEL_TYPES = {
    "RTD": _ModelType(RtdModel, ElementKind.RTD, (
        ("A", "a"), ("B", "b"), ("C", "cp"), ("D", "d"), ("H", "h"),
        ("n1", "n1"), ("n2", "n2"), ("T", "temp"), ("area", "area"))),
    "NMOS": _ModelType(MosModel, ElementKind.MOSFET, (
        ("k", "k"), ("W", "w"), ("L", "l"), ("Vth", "vth"))),
    "NW": _ModelType(NanowireModel, ElementKind.NANOWIRE, (
        ("g0", "g0"), ("vstep", "vstep"), ("nsteps", "nsteps"), ("smooth", "smooth"))),
}

# one <key>=<value> of a .model body
_PAIR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^\s(),]+)")

# analysis cards by name: the class each builds and its form. The fields
# without a default are the card's values in order, those with one its
# <field>=<value> options; a value is parsed by its field's annotation
# (a str as written, a float as a value, an int as a count).
_ANALYSES = {
    ".op": (OpAnalysis, ".op"),
    ".dc": (DcAnalysis, ".dc <source> <start> <stop> <points>"),
    ".tran": (TranAnalysis, ".tran <tstop> [eps=<e>]"),
    ".stoch": (StochAnalysis, ".stoch <tstop> <dt> <paths> [seed=<s>]"),
}


def _type_of(card: DeviceModel) -> Tuple[str, _ModelType]:
    return next((name, t) for name, t in _MODEL_TYPES.items() if isinstance(card, t.cls))


class _Parser:
    def __init__(self, source: str):
        self.lines = source.splitlines()
        self.title = ""
        self.elements: List[Element] = []
        self.models: Dict[str, DeviceModel] = {}
        self.analyses: List[Analysis] = []
        self._analysis_lines: Dict[str, int] = {}
        self.node_seen: List[str] = []
        self.saw_end = False
        self._names_ci: Dict[str, int] = {}

    # -- helpers --

    def fail(self, msg: str, lineno: int) -> NoReturn:
        text = self.lines[lineno - 1] if 0 < lineno <= len(self.lines) else None
        raise NetlistError(msg, lineno, text)

    def value(self, tok: str, lineno: int) -> float:
        return parse_value(tok, lineno, self.lines[lineno - 1])

    def count(self, tok: str, what: str, lineno: int) -> int:
        return parse_count(tok, what, lineno, self.lines[lineno - 1])

    def add_node(self, name: str):
        if name != "0" and name not in self.node_seen:
            self.node_seen.append(name)

    def add_element(self, el: Element, lineno: int):
        key = el.name.lower()
        if key in self._names_ci:
            self.fail(f"duplicate element name '{el.name}' "
                      f"(first declared on line {self._names_ci[key]})", lineno)
        self._names_ci[key] = lineno
        for nd in el.nodes:
            self.add_node(nd)
        self.elements.append(el)

    # -- card handlers --

    def parse(self) -> Netlist:
        logical: List[Tuple[int, str]] = []
        for i, raw in enumerate(self.lines, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("*"):
                if i == 1:
                    self.title = stripped[1:].strip()
                continue
            if stripped.startswith("+"):
                if not logical:
                    self.fail("continuation line with nothing to continue", i)
                lineno, text = logical[-1]
                logical[-1] = (lineno, text + " " + stripped[1:].strip())
                continue
            logical.append((i, stripped))

        for lineno, text in logical:
            if self.saw_end:
                self.fail("card after .end", lineno)
            self.dispatch(lineno, text)

        if not self.saw_end:
            raise NetlistError("missing .end card", len(self.lines) or 1,
                               self.lines[-1] if self.lines else "")
        self.validate()
        return Netlist(title=self.title, nodes=tuple(self.node_seen),
                       elements=tuple(self.elements), models=dict(self.models),
                       analyses=tuple(self.analyses))

    def dispatch(self, lineno: int, text: str):
        tokens = text.split()
        head = tokens[0].lower()
        if head.startswith("."):
            return self.directive(lineno, tokens)
        card = next((c for prefix, c in _CARDS.items() if head.startswith(prefix)), None)
        if card is None:
            self.fail(f"unknown card '{tokens[0]}'", lineno)
        if card.kind is ElementKind.VSOURCE:
            return self.vsource(lineno, tokens, card)
        self.element_card(lineno, tokens, card)

    def element_card(self, lineno: int, tokens: List[str], card: _Card):
        if len(tokens) != len(card.usage.split()):
            self.fail(f"{card.label} card requires: {card.usage}", lineno)
        name, *nodes, last = tokens
        value, model = None, last
        if card.rule is not None:
            value, model = self.value(last, lineno), None
            if not card.rule(value):
                self.fail(card.message, lineno)
        self.add_element(Element(name, card.kind, tuple(nodes), value, model), lineno)

    def vsource(self, lineno: int, tokens: List[str], card: _Card):
        if len(tokens) < 4:
            self.fail(f"{card.label} card requires: {card.usage}", lineno)
        spec = " ".join(tokens[3:])
        sl = spec.lower()
        try:
            if sl.startswith("dc"):
                rest = spec[2:].strip()
                wave: Waveform = Dc(self.value(rest, lineno))
            elif sl.startswith("pwl"):
                nums = self._paren_values(spec[3:], lineno)
                if len(nums) < 2 or len(nums) % 2:
                    self.fail("PWL requires an even number of values (t v pairs)", lineno)
                wave = Pwl(tuple(zip(nums[0::2], nums[1::2])))
            elif sl.startswith("pulse"):
                nums = self._paren_values(spec[5:], lineno)
                if len(nums) != 7:
                    self.fail("PULSE requires exactly 7 values (v1 v2 td tr tf pw per)",
                              lineno)
                wave = Pulse(*nums)
            else:
                self.fail("source must specify DC, PWL(...) or PULSE(...)", lineno)
        except NetlistError as exc:
            if exc.line_number is None:
                self.fail(str(exc), lineno)
            raise
        self.add_element(Element(tokens[0], ElementKind.VSOURCE,
                                 (tokens[1], tokens[2]), waveform=wave), lineno)

    def _paren_values(self, body: str, lineno: int) -> List[float]:
        body = body.strip()
        if not (body.startswith("(") and body.endswith(")")):
            self.fail("expected parenthesized value list", lineno)
        inner = body[1:-1].replace(",", " ")
        return [self.value(tok, lineno) for tok in inner.split()]

    # -- directives --

    def directive(self, lineno: int, tokens: List[str]):
        name = tokens[0].lower()
        if name == ".model":
            return self.model_card(lineno, tokens)
        if name == ".end":
            if len(tokens) > 1:
                self.fail(f"unexpected text '{tokens[1]}' after {tokens[0]}", lineno)
            self.saw_end = True
            return
        if name not in _ANALYSES:
            self.fail(f"unknown directive '{tokens[0]}'", lineno)
        first = self._analysis_lines.setdefault(name, lineno)
        if first != lineno:
            self.fail(f"second {name} card (the first is on line {first})", lineno)
        cls, usage = _ANALYSES[name]
        values = [f for f in fields(cls) if f.default is MISSING]
        options = {f.name: f for f in fields(cls) if f.default is not MISSING}
        if len(tokens) <= len(values):
            self.fail(f"{name} requires: {usage}", lineno)

        def parse(f, tok):
            if "int" in f.type:
                return self.count(tok, f"{name} {f.name}", lineno)
            return self.value(tok, lineno) if "float" in f.type else tok
        setting = {f.name: parse(f, tok) for f, tok in zip(values, tokens[1:])}
        for tok in tokens[len(values) + 1:]:
            key, eq, text = tok.partition("=")
            key = key.lower()
            if not eq or key not in options:
                self.fail(f"unknown {name} option '{tok}'", lineno)
            if key in setting:
                self.fail(f"{name} option '{key}' given twice", lineno)
            setting[key] = parse(options[key], text)
        if name == ".dc" and setting["points"] < 2:
            self.fail(".dc requires at least 2 points", lineno)
        self.analyses.append(cls(**setting))

    def model_card(self, lineno: int, tokens: List[str]):
        if len(tokens) < 3:
            self.fail(f".model requires: .model <name> {'|'.join(_MODEL_TYPES)} "
                      "(<key>=<val> ...)", lineno)
        mname = tokens[1].lower()
        if mname in self.models:
            self.fail(f"duplicate model name '{tokens[1]}'", lineno)
        body = " ".join(tokens[3:]).strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        pairs = [(m.group(1).lower(), m.group(2), self.value(m.group(2), lineno))
                 for m in _PAIR_RE.finditer(body)]
        stray = _PAIR_RE.sub(" ", body).replace(",", " ").split()
        if stray:
            self.fail(f"unexpected text '{stray[0]}' in the .model body", lineno)
        mtype = _MODEL_TYPES.get(tokens[2].upper())
        if mtype is None:
            *others, last = _MODEL_TYPES
            self.fail(f"unknown model type '{tokens[2]}' (want {', '.join(others)} "
                      f"or {last})", lineno)
        field_of = {key.lower(): field for key, field in mtype.keys}
        kwargs = {}
        for key, text, val in pairs:
            field = field_of.get(key)
            if field is None:
                self.fail(f"unknown model key '{key}'", lineno)
            if field in kwargs:
                self.fail(f"model key '{key}' given twice", lineno)
            if field in mtype.counts:
                val = self.count(text, f"model key '{key}'", lineno)
            kwargs[field] = val
        required = {f.name for f in fields(mtype.cls) if f.default is MISSING}
        missing = [key for key, field in mtype.keys if field in required - kwargs.keys()]
        if missing:
            self.fail(f"model '{tokens[1]}' is missing required parameters: "
                      f"{', '.join(missing)}", lineno)
        try:
            self.models[mname] = mtype.cls(**kwargs)
        except DeviceError as exc:
            self.fail(f"invalid model parameters: {exc}", lineno)

    # -- post-parse validation --

    def validate(self):
        by_line = {el.name.lower(): self._names_ci[el.name.lower()]
                   for el in self.elements}
        touches_ground = False
        for el in self.elements:
            lineno = by_line[el.name.lower()]
            if "0" in el.nodes:
                touches_ground = True
            if el.model is not None:
                card = self.models.get(el.model.lower())
                if card is None:
                    self.fail(f"unknown model '{el.model}' referenced by '{el.name}'",
                              lineno)
                if _type_of(card)[1].kind is not el.kind:
                    self.fail(f"model '{el.model}' has the wrong kind for '{el.name}'",
                              lineno)
        if self.elements and not touches_ground:
            raise NetlistError("no element connects to ground node '0'",
                               len(self.lines), self.lines[-1] if self.lines else "")
        self._check_connectivity(by_line)

    def _check_connectivity(self, by_line: Dict[str, int]):
        """Every node must reach ground through element connectivity."""
        reach = {"0"}
        frontier = True
        while frontier:
            frontier = False
            for el in self.elements:
                nds = set(el.nodes)
                if nds & reach and not nds <= reach:
                    reach |= nds
                    frontier = True
        for el in self.elements:
            for nd in el.nodes:
                if nd not in reach:
                    self.fail(f"node '{nd}' has no path to ground (dangling)",
                              by_line[el.name.lower()])


def parse_netlist(source: str) -> Netlist:
    """Parse and validate a netlist; raises :class:`NetlistError` with the
    offending line on failure."""
    return _Parser(source).parse()


def parse_netlist_file(path: str) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


# --- pretty printing ----------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_wave(w: Waveform) -> str:
    if isinstance(w, Dc):
        return f"DC {_fmt(w.level)}"
    if isinstance(w, Pwl):
        inner = " ".join(f"{_fmt(t)} {_fmt(v)}" for t, v in w.points)
        return f"PWL({inner})"
    return ("PULSE(" + " ".join(_fmt(x) for x in
                                (w.v1, w.v2, w.delay, w.rise, w.fall, w.width, w.period))
            + ")")


def _fmt_model(name: str, card: DeviceModel) -> str:
    tname, mtype = _type_of(card)
    body = " ".join(f"{key}={getattr(card, field)}" if field in mtype.counts
                    else f"{key}={_fmt(getattr(card, field))}"
                    for key, field in mtype.keys)
    return f".model {name} {tname} ({body})"


def pretty_print(net: Netlist) -> str:
    """Regenerate deck text that reparses to a structurally equal netlist."""
    lines = [f"* {net.title}" if net.title else "*"]
    for el in net.elements:
        if el.waveform is not None:
            last = _fmt_wave(el.waveform)
        else:
            last = el.model if el.model is not None else _fmt(el.value)
        lines.append(f"{el.name} {' '.join(el.nodes)} {last}")
    for name, card in net.models.items():
        lines.append(_fmt_model(name, card))
    for an in net.analyses:
        words = [next(name for name, (cls, _) in _ANALYSES.items() if isinstance(an, cls))]
        for f in fields(an):
            v = getattr(an, f.name)
            if v is not None:
                text = _fmt(v) if "float" in f.type else str(v)
                words.append(text if f.default is MISSING else f"{f.name}={text}")
        lines.append(" ".join(words))
    lines.append(".end")
    return "\n".join(lines) + "\n"
