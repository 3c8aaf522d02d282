"""The reflection group W(E6) acting on the class lattice.

Six simple reflections generate a finite group of order 51,840 preserving
the intersection form and the canonical class.  Orbits are enumerated by
breadth-first closure under the six reflections; the group elements are
never materialised.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .lattice import DivisorClass, E, through

_R0 = through(1, (1, 2, 3))
_SIMPLE = (_R0,) + tuple(E[i] - E[i + 1] for i in range(1, 6))


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


@functools.lru_cache(maxsize=7)
def orbit(seed: DivisorClass) -> OrbitSet:
    """Breadth-first orbit of seed under the six simple reflections.

    The orbit of any class has at most |W(E6)| = 51840 elements, so the
    search always ends; a seed with trivial stabiliser, such as
    (100; 1, 2, 3, 4, 5, 6), reaches that bound in about a second.  The
    last seven orbits, one per seed of ``cones.GENERATOR_SEEDS``, are kept.
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


@functools.lru_cache(maxsize=1)
def all_roots() -> tuple:
    """All 72 classes with C^2 = -2 and C.K = 0, lexicographically sorted.

    The 36 positive roots (nonnegative combinations of the simple roots)
    are the fifteen Ei - Ej with i < j, the twenty E0 - Ei - Ej - Ek and
    2E0 - E1 - ... - E6; the other 36 are their negatives.  Equals the
    reflection orbit of any simple root.  Cached.
    """
    idx = range(1, 7)
    pos = [E[i] - E[j] for i, j in itertools.combinations(idx, 2)]
    pos += (through(1, t) for t in itertools.combinations(idx, 3))
    pos.append(through(2, idx))
    return tuple(sorted(pos + [-c for c in pos]))


@functools.lru_cache(maxsize=1)
def exceptional_classes() -> tuple:
    """All 27 classes with C^2 = -1 and C.K = -1, lexicographically sorted.

    These are the six basis classes Ei, the fifteen E0-Ei-Ej, and the six
    2E0 minus five distinct Ei.  Cached.
    """
    idx = range(1, 7)
    out = list(E[1:])
    out += (through(1, t) for t in itertools.combinations(idx, 2))
    out += (through(2, t) for t in itertools.combinations(idx, 5))
    return tuple(sorted(out))
