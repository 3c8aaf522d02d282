import itertools

import pytest
from hypothesis import given, strategies as st

from fatpoints.lattice import E, E0, K, MINUS_K, DivisorClass
from fatpoints.weyl import all_roots, exceptional_classes, orbit, reflect

classes = st.builds(DivisorClass, st.tuples(*[st.integers(-40, 40)] * 7))

#: The six simple roots E0-E1-E2-E3, E1-E2, ..., E5-E6, in reflection order.
SIMPLE_ROOTS = (DivisorClass((1, 1, 1, 1, 0, 0, 0)),) + tuple(
    E[i] - E[i + 1] for i in range(1, 6))


def test_simple_roots():
    r = SIMPLE_ROOTS
    assert all(x.dot(x) == -2 for x in r)
    assert all(K.dot(x) == 0 for x in r)
    # reflect(x, i) is the reflection through the i-th simple root
    for x in (E0, E[1], E[4] - E[5], DivisorClass((7, 3, -1, 2, 0, 5, 1))):
        for i in range(6):
            assert reflect(x, i) == x + x.dot(r[i]) * r[i]


def test_reflect_examples():
    assert reflect(E[1], 0) == E0 - E[2] - E[3]
    assert reflect(reflect(E[3] - E[4], 0), 3) == DivisorClass((1, 1, 1, 1, 0, 0, 0))
    for i in range(6):
        assert reflect(K, i) == K
    with pytest.raises(IndexError):
        reflect(E0, 6)


def _shape_count(degree, mult_pattern):
    """Number of coefficient rearrangements of a multiplicity pattern."""
    seen = set()
    for p in itertools.permutations(mult_pattern):
        seen.add(p)
    return len(seen)


def test_orbit_of_e0_census():
    # independent census: the five multiplicity shapes and their counts
    shapes = [
        (1, (0, 0, 0, 0, 0, 0)),
        (2, (1, 1, 1, 0, 0, 0)),
        (3, (2, 1, 1, 1, 1, 0)),
        (4, (2, 2, 2, 1, 1, 1)),
        (5, (2, 2, 2, 2, 2, 2)),
    ]
    expected = set()
    for d, pattern in shapes:
        for p in set(itertools.permutations(pattern)):
            expected.add(DivisorClass((d,) + p))
    assert sum(_shape_count(d, m) for d, m in shapes) == 72
    orb = orbit(E0)
    assert len(orb) == 72
    assert orb.elements == expected
    assert E0 in orb


def test_orbit_of_ruling_census():
    shapes = [
        (1, (1, 0, 0, 0, 0, 0)),
        (2, (1, 1, 1, 1, 0, 0)),
        (3, (2, 1, 1, 1, 1, 1)),
    ]
    expected = set()
    for d, pattern in shapes:
        for p in set(itertools.permutations(pattern)):
            expected.add(DivisorClass((d,) + p))
    orb = orbit(E0 - E[1])
    assert len(orb) == 27
    assert orb.elements == expected


def test_orbit_of_anticanonical_is_fixed():
    assert orbit(MINUS_K).elements == {MINUS_K}


def test_all_roots():
    roots = all_roots()
    assert len(roots) == 72
    assert all(c.dot(c) == -2 and K.dot(c) == 0 for c in roots)
    assert set(roots) == orbit(SIMPLE_ROOTS[0]).elements
    # 36 roots are nonnegative combinations of the simple roots (coefficients
    # up to 3 suffice); the other 36 are their negatives
    combos = {sum((n * r for n, r in zip(coeffs, SIMPLE_ROOTS)), DivisorClass((0,) * 7))
              for coeffs in itertools.product(range(4), repeat=6)}
    pos = set(roots) & combos
    assert len(pos) == 36 and set(roots) == pos | {-c for c in pos}


def test_exceptional_classes():
    exc = exceptional_classes()
    assert len(exc) == 27
    assert DivisorClass((1, 1, 1, 0, 0, 0, 0)) in exc
    assert all(c.dot(c) == -1 and K.dot(c) == -1 for c in exc)
    assert all(MINUS_K.dot(c) == 1 for c in exc)
    assert set(exc) == orbit(E[1]).elements


@given(classes, st.integers(0, 5))
def test_reflection_involution(x, i):
    assert reflect(reflect(x, i), i) == x


@given(classes, classes, st.integers(0, 5))
def test_reflection_isometry(x, y, i):
    assert reflect(x, i).dot(reflect(y, i)) == x.dot(y)


def test_orbit_invariants():
    for seed in (E0, E0 - E[1], DivisorClass((2, 1, 1, 0, 0, 0, 0))):
        orb = orbit(seed)
        sq = seed.dot(seed)
        kp = K.dot(seed)
        assert all(c.dot(c) == sq and K.dot(c) == kp for c in orb.elements)


def test_orbit_sorted_deterministic():
    a = orbit(E0).sorted()
    b = orbit(E0).sorted()
    assert a == b
    assert list(a) == sorted(a)


def test_orbit_is_cached_for_the_generator_seeds():
    from fatpoints.cones import GENERATOR_SEEDS
    assert orbit.cache_info().maxsize == len(GENERATOR_SEEDS)
    first = [orbit(seed) for seed in GENERATOR_SEEDS]
    again = [orbit(seed) for seed in GENERATOR_SEEDS]
    assert again == first
    assert all(a is b for a, b in zip(again, first))
    assert [len(o) for o in first] == [72, 27, 216, 720, 216, 27, 1]
