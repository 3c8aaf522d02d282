import os

import numpy as np
import pytest
from hypothesis import settings

from fatpoints.config import (FIXTURE_SPECS, NegSet, PointConfiguration, dynkin_catalog,
                              neg_from_nodal)
from fatpoints.lattice import E, DivisorClass
from fatpoints.murank import _transport, exceptional_configuration

# CI runs with HYPOTHESIS_PROFILE=ci: fixed examples, no per-example deadline
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def distinct_case(name):
    return PointConfiguration.from_distinct(FIXTURE_SPECS[name])


#: The six distinct fixtures and the 20 catalog types.
WALK_NEGS = tuple(
    [distinct_case(c).neg for c in ("i", "ii", "iii", "iv", "general", "conic")]
    + [PointConfiguration.from_dynkin(n).neg for n in sorted(dynkin_catalog())])


def change_of_marking(neg, h):
    """NEG of the configuration in the coordinates of marking h: the
    exceptional configuration of h as one marking matrix, and NEG moved
    under it as ``murank.verify_all_markings`` moves it.  No class is
    reduced."""
    marking = np.array(exceptional_configuration(h, neg), dtype=np.int64)
    return NegSet(tuple(map(DivisorClass, _transport(neg, marking[None])[0].tolist())))


def relabelled(neg, perm):
    """NEG with point i renamed perm[i - 1]."""
    return NegSet(tuple(DivisorClass((c[0],) + tuple(c[perm[i]] for i in range(6)))
                        for c in neg))


@pytest.fixture(scope="session")
def case_iv():
    return distinct_case("iv")


@pytest.fixture(scope="session")
def general():
    return distinct_case("general")


@pytest.fixture(scope="session")
def a1_vertical_neg():
    return neg_from_nodal((E[1] - E[2],))
