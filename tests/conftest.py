import os

import pytest

from nanosim.devices import RtdModel

DECKS = os.path.join(os.path.dirname(__file__), os.pardir, "decks")


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
