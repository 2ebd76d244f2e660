from fractions import Fraction

import pytest

from qkzkit.families import build_rational, build_trigonometric
from qkzkit.qdet import normalize

D = 4


@pytest.fixture(scope="session")
def rat2():
    return build_rational(2, D)


@pytest.fixture(scope="session")
def rat3():
    return build_rational(3, D)


@pytest.fixture(scope="session")
def rat4():
    return build_rational(4, D)


@pytest.fixture(scope="session")
def trig():
    return build_trigonometric(2, D)


@pytest.fixture(scope="session")
def nf_rat2(rat2):
    return normalize(rat2)


@pytest.fixture(scope="session")
def nf_rat3(rat3):
    return normalize(rat3)


@pytest.fixture(scope="session")
def nf_trig(trig):
    return normalize(trig)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QKZ_CACHE_DIR", str(tmp_path / "cache"))
