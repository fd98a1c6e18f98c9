import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import semitop.spaces as spaces_mod
from oracles import random_space
from semitop.catalog import _classes, enumerate_topologies, named_space
from semitop.semi import SemiAnalysis


@pytest.fixture(scope="session")
def e1():
    return named_space("e1")


@pytest.fixture(scope="session")
def e33():
    return named_space("e33")


@pytest.fixture(scope="session")
def e3a():
    return named_space("e3a")


@pytest.fixture(scope="session")
def sierpinski():
    return named_space("sierpinski")


@pytest.fixture(scope="session")
def e1_an(e1):
    return SemiAnalysis(e1)


@pytest.fixture(scope="session")
def e33_an(e33):
    return SemiAnalysis(e33)


@pytest.fixture
def tiny_budget(monkeypatch):
    """`CANONICAL_BUDGET` patched to 1, with `_classes` computed afresh
    under it and again after it."""
    monkeypatch.setattr(spaces_mod, "CANONICAL_BUDGET", 1)
    _classes.cache_clear()
    yield
    _classes.cache_clear()


@pytest.fixture(scope="session")
def spaces3():
    return list(enumerate_topologies(3))


@pytest.fixture(scope="session")
def spaces4():
    return list(enumerate_topologies(4))


@pytest.fixture(scope="session")
def upto4_and_random():
    """Every topology on 1..4 points, then three seeded random ones on
    each of 6..9 points."""
    rng = random.Random(1506)
    return [s for n in range(1, 5) for s in enumerate_topologies(n)] + \
        [random_space(rng, n) for n in range(6, 10) for _ in range(3)]
