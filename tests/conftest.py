import os

import numpy as np
import pytest

from nanosim.devices import RtdModel

DECKS = os.path.join(os.path.dirname(__file__), os.pardir, "decks")


# five free nodes after the grounded V1 is condensed out: RTDs between free
# nodes, a MOSFET whose gate a floating source holds above the RTDs'
# midpoint and whose source is free, and a reversed MOSFET with a free gate
MULTI_NODE_DECK = (
    "* five free nodes\nV1 vdd 0 DC 3\nR1 vdd a 1k\nXRTD1 a b M1\nXRTD2 b 0 M1\n"
    "V2 g b DC 1\nR2 vdd d 2k\nM1 d g s 0 MF\nR3 s 0 500\nM2 b d a 0 MF\n"
    ".model M1 RTD (A=1e-4 B=2 C=1.5 D=0.3 H=1.43e-8 n1=0.35 n2=0.0172)\n"
    ".model MF NMOS (k=1e-3 W=4u L=1u Vth=1)\n.end\n")


def deck_path(name: str) -> str:
    return os.path.abspath(os.path.join(DECKS, name))


def deck_text(name: str) -> str:
    with open(deck_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def card(net, kind):
    """The deck's one analysis card of type ``kind``; the library analyses
    read no cards, so tests pass its values explicitly."""
    (found,) = [a for a in net.analyses if isinstance(a, kind)]
    return found


@pytest.fixture(scope="session")
def rtd():
    """The RTD parameter set used throughout the experiments."""
    return RtdModel(a=1e-4, b=2.0, cp=1.5, d=0.3, h=1.43e-8, n1=0.35, n2=0.0172)


def integrator_replay(times, G, C, b, breakpoints=()):
    """Node voltages of the linear system C dv/dt + G v = b(t), from v = 0,
    on the accepted ``times`` of a transient: a dense, independent replay of
    the engine's recurrence. The first step, and each step that starts at a
    source breakpoint (the first accepted time at or past it, to 1e-12
    relative), is backward Euler, C (v1 - v0) / h = b - G v1. Every other
    step is variable-step BDF2 with w = h / h_prev (Brayton, Gustavson &
    Hachtel, Proc. IEEE 60(1), 1972):
    C ((1+2w)/(1+w) v1 - (1+w) v0 + w^2/(1+w) v_prev) / h = b - G v1."""
    G, C = np.atleast_2d(G), np.atleast_2d(C)
    reached = [sum(bp * (1.0 - 1e-12) <= t for bp in breakpoints) for t in times]
    v = [np.zeros(len(G))]
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        if k == 0 or reached[k] > reached[k - 1]:
            a0, rest = 1.0, v[k]
        else:
            w = h / (times[k] - times[k - 1])
            a0 = (1.0 + 2.0 * w) / (1.0 + w)
            rest = (1.0 + w) * v[k] - w * w / (1.0 + w) * v[k - 1]
        v.append(np.linalg.solve(G + C * (a0 / h), b(times[k + 1]) + C @ rest / h))
    return np.array(v)
