"""SPICE-subset netlist parser for the nanodevice simulator.

One card per line, ``*`` comment lines, ``+`` continuation lines. Supported
cards:

    R<name> n1 n2 <ohms>
    C<name> n1 n2 <farads>
    V<name> n+ n- DC <volts> | PWL(t1 v1 t2 v2 ...) | PULSE(v1 v2 td tr tf pw per)
    XRTD<name> n1 n2 <model>
    XNW<name>  n1 n2 <model>
    M<name> nd ng ns nb <model>      (bulk terminal parsed and ignored)
    N<name> n+ n- <intensity>        (white-noise current injection)
    .model <name> RTD|NMOS|NW (<key>=<val> ...)
    .op
    .dc <source> <start> <stop> <points>
    .tran <tstop> [eps=<e>]
    .stoch <tstop> <dt> <paths> [seed=<s>]
    .end

Values accept engineering suffixes f/p/n/u/m/k/meg/g. Node names are
arbitrary identifiers; ``0`` is ground. Model cards for RTDs take keys
A B C D H n1 n2 T area; NMOS takes k W L Vth; NW takes g0 vstep nsteps
smooth.

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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, List, NoReturn, Optional, Tuple, Union

from .devices import DeviceError, MosModel, NanowireModel, RtdModel

SUFFIX_MULTIPLIERS = {
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "k": 1e3,
    "meg": 1e6,
    "g": 1e9,
}

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


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
    for suffix in ("meg",) + tuple(k for k in SUFFIX_MULTIPLIERS if k != "meg"):
        if s.endswith(suffix):
            body = s[: -len(suffix)]
            if _NUMBER_RE.match(body):
                return float(body) * SUFFIX_MULTIPLIERS[suffix]
    raise NetlistError(f"cannot parse value '{text}'", line_number, line_text)


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
    seed: int = 0


Analysis = Union[OpAnalysis, DcAnalysis, TranAnalysis, StochAnalysis]

ModelCard = Union[RtdModel, MosModel, NanowireModel]


@dataclass(frozen=True)
class Netlist:
    title: str
    nodes: Tuple[str, ...]
    elements: Tuple[Element, ...]
    models: Dict[str, ModelCard]
    analyses: Tuple[Analysis, ...]

    def elements_of(self, *kinds: ElementKind) -> List[Element]:
        return [el for el in self.elements if el.kind in kinds]

    def element(self, name: str) -> Element:
        for el in self.elements:
            if el.name.lower() == name.lower():
                return el
        raise KeyError(name)

    def model_of(self, el: Element) -> ModelCard:
        return self.models[el.model.lower()]


_MODEL_KINDS = {
    ElementKind.RTD: RtdModel,
    ElementKind.MOSFET: MosModel,
    ElementKind.NANOWIRE: NanowireModel,
}

_RTD_KEYS = {"a": "a", "b": "b", "c": "cp", "d": "d", "h": "h",
             "n1": "n1", "n2": "n2", "t": "temp", "area": "area"}
_NMOS_KEYS = {"k": "k", "w": "w", "l": "l", "vth": "vth"}
_NW_KEYS = {"g0": "g0", "vstep": "vstep", "nsteps": "nsteps", "smooth": "smooth"}


class _Parser:
    def __init__(self, source: str):
        self.lines = source.splitlines()
        self.title = ""
        self.elements: List[Element] = []
        self.models: Dict[str, ModelCard] = {}
        self.analyses: List[Analysis] = []
        self.node_seen: List[str] = []
        self.saw_end = False
        self._names_ci: Dict[str, int] = {}

    # -- helpers --

    def fail(self, msg: str, lineno: int) -> NoReturn:
        text = self.lines[lineno - 1] if 0 < lineno <= len(self.lines) else None
        raise NetlistError(msg, lineno, text)

    def value(self, tok: str, lineno: int) -> float:
        return parse_value(tok, lineno, self.lines[lineno - 1])

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
        head = tokens[0]
        hl = head.lower()
        if hl.startswith("."):
            self.directive(lineno, tokens)
        elif hl.startswith("xrtd"):
            self.two_terminal_device(lineno, tokens, ElementKind.RTD)
        elif hl.startswith("xnw"):
            self.two_terminal_device(lineno, tokens, ElementKind.NANOWIRE)
        elif hl.startswith("r"):
            self.resistor(lineno, tokens)
        elif hl.startswith("c"):
            self.capacitor(lineno, tokens)
        elif hl.startswith("v"):
            self.vsource(lineno, tokens, text)
        elif hl.startswith("m"):
            self.mosfet(lineno, tokens)
        elif hl.startswith("n"):
            self.noise(lineno, tokens)
        else:
            self.fail(f"unknown card '{head}'", lineno)

    def resistor(self, lineno: int, tokens: List[str]):
        if len(tokens) != 4:
            self.fail("resistor card requires: R<name> n1 n2 <ohms>", lineno)
        r = self.value(tokens[3], lineno)
        if r <= 0:
            self.fail("resistance must be positive", lineno)
        self.add_element(Element(tokens[0], ElementKind.RESISTOR,
                                 (tokens[1], tokens[2]), value=r), lineno)

    def capacitor(self, lineno: int, tokens: List[str]):
        if len(tokens) != 4:
            self.fail("capacitor card requires: C<name> n1 n2 <farads>", lineno)
        c = self.value(tokens[3], lineno)
        if c <= 0:
            self.fail("capacitance must be positive", lineno)
        self.add_element(Element(tokens[0], ElementKind.CAPACITOR,
                                 (tokens[1], tokens[2]), value=c), lineno)

    def vsource(self, lineno: int, tokens: List[str], text: str):
        if len(tokens) < 4:
            self.fail("source card requires: V<name> n+ n- DC <v> | PWL(...) | PULSE(...)",
                      lineno)
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

    def two_terminal_device(self, lineno: int, tokens: List[str], kind: ElementKind):
        card = "XRTD" if kind is ElementKind.RTD else "XNW"
        if len(tokens) != 4:
            self.fail(f"{card} card requires: {card}<name> n1 n2 <model>", lineno)
        self.add_element(Element(tokens[0], kind, (tokens[1], tokens[2]),
                                 model=tokens[3]), lineno)

    def mosfet(self, lineno: int, tokens: List[str]):
        if len(tokens) != 6:
            self.fail("MOSFET card requires: M<name> nd ng ns nb <model>", lineno)
        # bulk terminal (tokens[4]) is parsed but ignored by the model
        self.add_element(Element(tokens[0], ElementKind.MOSFET,
                                 (tokens[1], tokens[2], tokens[3], tokens[4]),
                                 model=tokens[5]), lineno)

    def noise(self, lineno: int, tokens: List[str]):
        if len(tokens) != 4:
            self.fail("noise card requires: N<name> n+ n- <intensity>", lineno)
        intensity = self.value(tokens[3], lineno)
        if intensity < 0:
            self.fail("noise intensity must be nonnegative", lineno)
        self.add_element(Element(tokens[0], ElementKind.NOISE,
                                 (tokens[1], tokens[2]), value=intensity), lineno)

    # -- directives --

    def directive(self, lineno: int, tokens: List[str]):
        name = tokens[0].lower()
        if name == ".end":
            self.saw_end = True
        elif name == ".model":
            self.model_card(lineno, tokens)
        elif name == ".op":
            self.analyses.append(OpAnalysis())
        elif name == ".dc":
            if len(tokens) != 5:
                self.fail(".dc requires: .dc <source> <start> <stop> <points>", lineno)
            pts = int(self.value(tokens[4], lineno))
            if pts < 2:
                self.fail(".dc requires at least 2 points", lineno)
            self.analyses.append(DcAnalysis(tokens[1], self.value(tokens[2], lineno),
                                            self.value(tokens[3], lineno), pts))
        elif name == ".tran":
            if len(tokens) < 2:
                self.fail(".tran requires: .tran <tstop> [eps=<e>]", lineno)
            eps = None
            for tok in tokens[2:]:
                if tok.lower().startswith("eps="):
                    eps = self.value(tok[4:], lineno)
                else:
                    self.fail(f"unknown .tran option '{tok}'", lineno)
            self.analyses.append(TranAnalysis(self.value(tokens[1], lineno), eps))
        elif name == ".stoch":
            if len(tokens) < 4:
                self.fail(".stoch requires: .stoch <tstop> <dt> <paths> [seed=<s>]",
                          lineno)
            seed = 0
            for tok in tokens[4:]:
                if tok.lower().startswith("seed="):
                    seed = int(self.value(tok[5:], lineno))
                else:
                    self.fail(f"unknown .stoch option '{tok}'", lineno)
            self.analyses.append(StochAnalysis(self.value(tokens[1], lineno),
                                               self.value(tokens[2], lineno),
                                               int(self.value(tokens[3], lineno)),
                                               seed))
        else:
            self.fail(f"unknown directive '{tokens[0]}'", lineno)

    def model_card(self, lineno: int, tokens: List[str]):
        if len(tokens) < 3:
            self.fail(".model requires: .model <name> RTD|NMOS|NW (<key>=<val> ...)",
                      lineno)
        mname = tokens[1].lower()
        mtype = tokens[2].upper()
        if mname in self.models:
            self.fail(f"duplicate model name '{tokens[1]}'", lineno)
        body = " ".join(tokens[3:]).strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        params: Dict[str, float] = {}
        for match in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^\s(),]+)", body):
            params[match.group(1).lower()] = self.value(match.group(2), lineno)
        try:
            if mtype == "RTD":
                kwargs = self._map_keys(params, _RTD_KEYS, lineno)
                self.models[mname] = RtdModel(**kwargs)
            elif mtype == "NMOS":
                kwargs = self._map_keys(params, _NMOS_KEYS, lineno)
                self.models[mname] = MosModel(**kwargs)
            elif mtype == "NW":
                kwargs = self._map_keys(params, _NW_KEYS, lineno)
                if "nsteps" in kwargs:
                    kwargs["nsteps"] = int(kwargs["nsteps"])
                self.models[mname] = NanowireModel(**kwargs)
            else:
                self.fail(f"unknown model type '{tokens[2]}' (want RTD, NMOS or NW)",
                          lineno)
        except DeviceError as exc:
            self.fail(f"invalid model parameters: {exc}", lineno)
        except TypeError:
            self.fail(f"model '{tokens[1]}' is missing required parameters", lineno)

    def _map_keys(self, params: Dict[str, float], table: Dict[str, str],
                  lineno: int) -> Dict[str, float]:
        out = {}
        for key, val in params.items():
            if key not in table:
                self.fail(f"unknown model key '{key}'", lineno)
            out[table[key]] = val
        return out

    # -- post-parse validation --

    def validate(self):
        by_line = {el.name.lower(): self._names_ci[el.name.lower()]
                   for el in self.elements}
        touches_ground = False
        for el in self.elements:
            lineno = by_line[el.name.lower()]
            if "0" in el.nodes:
                touches_ground = True
            if el.kind in _MODEL_KINDS:
                want = _MODEL_KINDS[el.kind]
                card = self.models.get(el.model.lower())
                if card is None:
                    self.fail(f"unknown model '{el.model}' referenced by '{el.name}'",
                              lineno)
                if not isinstance(card, want):
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


def _fmt_model(name: str, card: ModelCard) -> str:
    if isinstance(card, RtdModel):
        body = (f"A={_fmt(card.a)} B={_fmt(card.b)} C={_fmt(card.cp)} "
                f"D={_fmt(card.d)} H={_fmt(card.h)} n1={_fmt(card.n1)} "
                f"n2={_fmt(card.n2)} T={_fmt(card.temp)} area={_fmt(card.area)}")
        return f".model {name} RTD ({body})"
    if isinstance(card, MosModel):
        return (f".model {name} NMOS (k={_fmt(card.k)} W={_fmt(card.w)} "
                f"L={_fmt(card.l)} Vth={_fmt(card.vth)})")
    return (f".model {name} NW (g0={_fmt(card.g0)} vstep={_fmt(card.vstep)} "
            f"nsteps={card.nsteps} smooth={_fmt(card.smooth)})")


def pretty_print(net: Netlist) -> str:
    """Regenerate deck text that reparses to a structurally equal netlist."""
    lines = [f"* {net.title}" if net.title else "*"]
    for el in net.elements:
        nds = " ".join(el.nodes)
        if el.kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR):
            lines.append(f"{el.name} {nds} {_fmt(el.value)}")
        elif el.kind is ElementKind.VSOURCE:
            lines.append(f"{el.name} {nds} {_fmt_wave(el.waveform)}")
        elif el.kind is ElementKind.NOISE:
            lines.append(f"{el.name} {nds} {_fmt(el.value)}")
        else:
            lines.append(f"{el.name} {nds} {el.model}")
    for name, card in net.models.items():
        lines.append(_fmt_model(name, card))
    for an in net.analyses:
        if isinstance(an, OpAnalysis):
            lines.append(".op")
        elif isinstance(an, DcAnalysis):
            lines.append(f".dc {an.source} {_fmt(an.start)} {_fmt(an.stop)} {an.points}")
        elif isinstance(an, TranAnalysis):
            tail = f" eps={_fmt(an.eps)}" if an.eps is not None else ""
            lines.append(f".tran {_fmt(an.t_stop)}{tail}")
        elif isinstance(an, StochAnalysis):
            lines.append(f".stoch {_fmt(an.t_stop)} {_fmt(an.dt)} {an.paths} "
                         f"seed={an.seed}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
