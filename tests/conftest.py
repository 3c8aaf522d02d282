import os

import pytest
from hypothesis import settings

from fatpoints.config import FIXTURE_SPECS, PointConfiguration, neg_from_nodal
from fatpoints.lattice import E

# CI runs with HYPOTHESIS_PROFILE=ci: fixed examples, no per-example deadline
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def distinct_case(name):
    return PointConfiguration.from_distinct(FIXTURE_SPECS[name])


@pytest.fixture(scope="session")
def case_iv():
    return distinct_case("iv")


@pytest.fixture(scope="session")
def general():
    return distinct_case("general")


@pytest.fixture(scope="session")
def a1_vertical_neg():
    return neg_from_nodal((E[1] - E[2],))
