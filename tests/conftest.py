import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import capsieve as cs
from capsieve import sieve

settings.register_profile(
    "ci", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# (alpha, beta) pairs of the five families at small admissible dimension
FAMILY_SPACE_IDS = ("s2", "rp2", "cp4", "hp8", "cay16")


@pytest.fixture(autouse=True)
def cold_rows():
    """Each test starts with an empty row cache, so call counts do not depend on test order."""
    sieve._rows_cache.clear()


@pytest.fixture(scope="session")
def family_spaces():
    return [cs.space_from_id(sid) for sid in FAMILY_SPACE_IDS]


@pytest.fixture(scope="session")
def s2():
    return cs.space_from_id("s2")


@pytest.fixture(scope="session")
def rp2():
    return cs.space_from_id("rp2")


@pytest.fixture(scope="session")
def pole():
    return np.array([0.0, 0.0, 1.0])
