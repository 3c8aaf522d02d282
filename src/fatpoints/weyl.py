"""The reflection group W(E6) acting on the class lattice.

Six simple reflections generate a finite group of order 51,840 preserving
the intersection form and the canonical class.  Orbits are enumerated by
breadth-first closure under the six reflections; the group elements are
never materialised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lattice import K, DivisorClass, E

_R0 = DivisorClass((1, 1, 1, 1, 0, 0, 0))
_SIMPLE = (_R0,) + tuple(E[i] - E[i + 1] for i in range(1, 6))


def simple_roots() -> tuple:
    """The six simple roots (E0-E1-E2-E3, E1-E2, ..., E5-E6), in that order."""
    return _SIMPLE


def reflect(x: DivisorClass, i: int) -> DivisorClass:
    """Reflection of x through the i-th simple root: x + (x.r_i) r_i."""
    if not 0 <= i <= 5:
        raise IndexError(f"simple root index {i} out of range 0..5")
    r = _SIMPLE[i]
    c = x.dot(r)
    return DivisorClass((
        x[0] + c * r[0], x[1] + c * r[1], x[2] + c * r[2], x[3] + c * r[3],
        x[4] + c * r[4], x[5] + c * r[5], x[6] + c * r[6]))


@dataclass(frozen=True)
class OrbitSet:
    """A full reflection orbit: the seed plus its closure under s_0..s_5."""

    seed: DivisorClass
    elements: frozenset

    def sorted(self) -> tuple:
        """Elements in lexicographic order of stored coefficients."""
        return tuple(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements


def orbit(seed: DivisorClass) -> OrbitSet:
    """Breadth-first orbit of seed under the six simple reflections.

    The orbit of any class has at most |W(E6)| = 51840 elements, so the
    search always ends; a seed with trivial stabiliser, such as
    (100; 1, 2, 3, 4, 5, 6), reaches that bound in about a second.
    """
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(6):
                y = reflect(x, i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return OrbitSet(seed=seed, elements=frozenset(seen))


def _root_basis_coordinates(c: DivisorClass):
    """Coordinates of c in the simple-root basis of the K-orthogonal sublattice.

    Returns None when c is not in that sublattice.  The simple roots form an
    integral basis, so the coordinates are integers whenever they exist; the
    linear system is solved by hand against the fixed basis.
    """
    if K.dot(c) != 0:
        return None
    # Solve c = sum n_i r_i.  Pair with the dual data: write c = (a0, a1..a6)
    # in stored form; r0 contributes (1,1,1,1,0,0,0), r_i swaps slots.
    # Back-substitution from the last coordinate:
    #   a0 = n0
    #   a1 = n0 - n1, a2 = n0 + n1 - n2, a3 = n0 + n2 - n3,
    #   a4 = n3 - n4, a5 = n4 - n5, a6 = n5
    n0 = c[0]
    n5 = c[6]
    n4 = c[5] + n5
    n3 = c[4] + n4
    n2 = c[3] + n3 - n0
    n1 = c[2] + n2 - n0
    if c[1] != n0 - n1:
        return None
    return (n0, n1, n2, n3, n4, n5)


def is_positive_root(c: DivisorClass) -> bool:
    """True when c is a nonnegative integer combination of the simple roots."""
    coords = _root_basis_coordinates(c)
    return coords is not None and all(n >= 0 for n in coords)


def all_roots() -> tuple:
    """All 72 classes with C^2 = -2 and C.K = 0, lexicographically sorted.

    Exactly half are positive roots (:func:`is_positive_root`); the rest are
    their negatives.  Equals the reflection orbit of any simple root.
    """
    roots = []
    idx = range(1, 7)
    for i, j in itertools.combinations(idx, 2):
        roots.append(E[i] - E[j])
        roots.append(E[j] - E[i])
    for sign in (1, -1):
        for i, j, k in itertools.combinations(idx, 3):
            v = [sign] + [0] * 6
            for t in (i, j, k):
                v[t] = sign
            roots.append(DivisorClass(v))
        roots.append(DivisorClass([2 * sign] + [sign] * 6))
    return tuple(sorted(roots))


def positive_roots() -> tuple:
    """The 36 positive roots."""
    return tuple(c for c in all_roots() if is_positive_root(c))


def exceptional_classes() -> tuple:
    """All 27 classes with C^2 = -1 and C.K = -1, lexicographically sorted.

    These are the six basis classes Ei, the fifteen E0-Ei-Ej, and the six
    2E0 minus five distinct Ei.
    """
    out = list(E[1:])
    idx = range(1, 7)
    for i, j in itertools.combinations(idx, 2):
        v = [1] + [0] * 6
        v[i] = 1
        v[j] = 1
        out.append(DivisorClass(v))
    for t in itertools.combinations(idx, 5):
        v = [2] + [0] * 6
        for i in t:
            v[i] = 1
        out.append(DivisorClass(v))
    return tuple(sorted(out))
