import pytest
from hypothesis import given, strategies as st

from fatpoints.lattice import E, E0, K, MINUS_K, ZERO, DivisorClass, arithmetic_genus, chi

classes = st.builds(DivisorClass, st.tuples(*[st.integers(-60, 60)] * 7))


def test_intersection_examples():
    assert E0.dot(E0) == 1
    assert MINUS_K.dot(MINUS_K) == 3
    a = DivisorClass((3, 1, 0, 2, 1, 1, 0))   # 3E0-E1-2E3-E4-E5
    b = DivisorClass((1, 1, 1, 1, 0, 0, 0))   # E0-E1-E2-E3
    assert a.dot(b) == 0


def test_canonical_class():
    assert K == -MINUS_K
    assert MINUS_K.dot(E0) == 3
    assert K.dot(K) == 3
    assert MINUS_K.dot(E[1]) == 1


def test_chi_examples():
    assert chi(ZERO) == 1
    assert chi(E0) == 3
    assert chi(MINUS_K) == 4


def test_degree_examples():
    assert E0.degree == 1
    assert DivisorClass((7, 2, 2, 6, 2, 2, 2)).degree == 7
    assert E[1].degree == 0


def test_display_round_trip():
    f = DivisorClass((3, 1, 0, 2, 1, 1, 0))
    assert f.display_row() == (3, -1, 0, -2, -1, -1, 0)
    assert DivisorClass.from_display_row(f.display_row()) == f
    assert E[1] == DivisorClass((0, -1, 0, 0, 0, 0, 0))
    assert E[1].display_row() == (0, 1, 0, 0, 0, 0, 0)


def test_basis_orthogonality():
    for i in range(7):
        for j in range(7):
            want = 0 if i != j else (1 if i == 0 else -1)
            assert E[i].dot(E[j]) == want


def test_bad_input():
    with pytest.raises(ValueError):
        DivisorClass((1, 2, 3))
    with pytest.raises(TypeError):
        DivisorClass((1.0, 0, 0, 0, 0, 0, 0))


@given(classes, classes)
def test_symmetry(a, b):
    assert a.dot(b) == b.dot(a)


@given(classes, classes, classes)
def test_bilinearity(a, b, c):
    assert (a + b).dot(c) == a.dot(c) + b.dot(c)


@given(classes)
def test_chi_step_identity(f):
    # forced by the quadratic Riemann-Roch formula
    assert chi(f + E0) - chi(f) == f.dot(E0) + 2


@given(classes, st.integers(-9, 9))
def test_scaling(f, n):
    assert (n * f).dot(f) == n * f.dot(f)


def test_genus_examples():
    assert arithmetic_genus(E0) == 0
    assert arithmetic_genus(MINUS_K) == 1
    assert arithmetic_genus(2 * E0) == 0
