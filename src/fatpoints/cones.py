"""Nefness, fixed-part reduction, cohomology dimensions, nef cone generators.

A class is nef exactly when it meets every negative curve nonnegatively.
Any class is reduced by repeatedly subtracting a negative curve it meets
negatively: each subtraction removes a forced fixed component and leaves
the space of global sections unchanged, so the loop either certifies the
class ineffective (degree drops below zero) or lands on a nef class whose
section count is its Euler characteristic.  One step subtracts at once
the whole multiple of a curve that the running class forces, so most
reductions take a handful of steps however large the multiplicities;
chains of -2 curves that pass a multiple back and forth still take more
steps as the multiplicities grow.

When -K is nef, the nef cone is generated as a semigroup by the nef
members of the union of seven fixed reflection orbits (1279 classes in
all); paring away classes that are sums of two others leaves a small
generating set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import weyl
from .config import NegSet, anticanonical_nef
from .lattice import ZERO, DivisorClass, E, chi

#: Orbit seeds whose union of reflection orbits spans the nef-cone search
#: space: E0, E0-E1, 2E0-E1-E2, and 3E0 minus three to six basis classes.
GENERATOR_SEEDS = (
    DivisorClass((1, 0, 0, 0, 0, 0, 0)),
    DivisorClass((1, 1, 0, 0, 0, 0, 0)),
    DivisorClass((2, 1, 1, 0, 0, 0, 0)),
    DivisorClass((3, 1, 1, 1, 0, 0, 0)),
    DivisorClass((3, 1, 1, 1, 1, 0, 0)),
    DivisorClass((3, 1, 1, 1, 1, 1, 0)),
    DivisorClass((3, 1, 1, 1, 1, 1, 1)),
)

@functools.lru_cache(maxsize=1)
def seed_orbit_union() -> frozenset:
    """The 1279-element union of the reflection orbits of the seven seeds."""
    out = set()
    for seed in GENERATOR_SEEDS:
        out |= weyl.orbit(seed).elements
    return frozenset(out)


def is_nef(f: DivisorClass, neg: NegSet) -> bool:
    """True when f meets every negative curve nonnegatively."""
    return all(f.dot(c) >= 0 for c in neg.classes)


@dataclass(frozen=True)
class Reduction:
    """Outcome of fixed-part extraction.

    When ``effective`` the original class equals ``nef_part`` plus the sum
    of ``fixed_part`` (a multiset of negative curves with multiplicities);
    otherwise some intermediate class had negative degree, there are no
    sections, and ``nef_part`` is that class (not nef in general).  In
    both cases the original class is ``nef_part`` plus the sum of
    ``trace``, whose entries are the multiples n*C subtracted in each
    step, in order.
    """

    effective: bool
    nef_part: DivisorClass
    fixed_part: tuple  # ((DivisorClass, multiplicity), ...)
    trace: tuple  # n*C subtracted per step, in order

    def fixed_sum(self) -> DivisorClass:
        total = ZERO
        for c, m in self.fixed_part:
            total = total + m * c
        return total


def reduce(f: DivisorClass, neg: NegSet, order=None) -> Reduction:
    """Strip negative curves off f until it is nef or visibly ineffective.

    Scans the classes of ``order`` (default: the sorted NEG classes)
    cyclically.  A class C met negatively by the running class F is
    subtracted n = ceil(-F.C / -C^2) times in one step; each copy would
    still meet F negatively, so the per-copy loop reaches the same result.
    The next scan starts after C; a full pass without a hit ends the loop.
    The nef part and fixed multiset do not depend on the order; tests
    assert this.

    Termination: each step lowers ``TERMINATION_WEIGHT``.F by at least 1
    and starts at degree >= 0.  For the ``reduction_candidates`` shapes no
    stored multiplicity exceeds A = max(0, initial ones) (Ei lifts a
    negative entry to 0, Ei - Ej stays within the old range, lines and
    conics only lower entries), so the pairing stays >= -21*A.
    """
    classes = tuple(order) if order is not None else neg.classes
    cur = f
    trace = []
    counts: dict = {}
    while cur[0] >= 0:
        for c in classes:
            d = cur.dot(c)
            if d < 0:
                break
        else:
            break
        n = -(d // -c.dot(c))
        step = c if n == 1 else n * c
        cur = cur - step
        trace.append(step)
        counts[c] = counts.get(c, 0) + n
        p = classes.index(c) + 1
        classes = classes[p:] + classes[:p]
    return Reduction(effective=cur[0] >= 0, nef_part=cur,
                     fixed_part=tuple(sorted(counts.items())),
                     trace=tuple(trace))


def h0(f: DivisorClass, neg: NegSet) -> int:
    """Number of independent global sections of f."""
    cache = neg._cache.setdefault("h0", {})
    got = cache.get(f)
    if got is None:
        red = reduce(f, neg)
        got = chi(red.nef_part) if red.effective else 0
        cache[f] = got
    return got


def h1(f: DivisorClass, neg: NegSet) -> int:
    """First cohomology of f, valid for degree >= -2 (so that h2 vanishes)."""
    if f[0] < -2:
        raise ValueError(f"h1 undefined here for degree {f[0]} < -2")
    v = h0(f, neg) - chi(f)
    if v < 0:
        raise ArithmeticError(f"negative h1 for {f!r}; section count corrupted")
    return v


@dataclass(frozen=True)
class GeneratorSet:
    """Nef-cone generators: the raw orbit survivors and the pared subset."""

    raw: tuple
    pared: tuple


def _pare(classes) -> tuple:
    """Drop classes that are sums of two others, repeating until stable.

    Each pass tests sums against the set entering that pass and removes all
    hits at once.
    """
    cur = set(classes)
    while True:
        members = sorted(cur)
        sums = set()
        for i, a in enumerate(members):
            for b in members[i:]:
                s = a + b
                if s in cur:
                    sums.add(s)
        if not sums:
            return tuple(members)
        cur -= sums


def nef_generators(neg: NegSet) -> GeneratorSet:
    """Generators of the nef cone semigroup; requires -K nef."""
    if not anticanonical_nef(neg):
        raise ValueError("nef-cone generators require a nef anticanonical class")
    cache = neg._cache.get("gens")
    if cache is not None:
        return cache
    raw = tuple(sorted(f for f in seed_orbit_union() if is_nef(f, neg)))
    gens = GeneratorSet(raw=raw, pared=_pare(raw))
    neg._cache["gens"] = gens
    return gens


def gamma(neg: NegSet, gens: GeneratorSet | None = None) -> tuple:
    """Nef classes that are not the sum of two nonzero nef classes.

    A pared generator decomposes as such a sum exactly when subtracting
    some pared generator leaves a nonzero nef class, so the test is exact
    with no search bound.
    """
    if gens is None:
        gens = nef_generators(neg)
    out = []
    for f in gens.pared:
        decomposable = False
        for p in gens.pared:
            r = f - p
            if r != ZERO and r[0] >= 0 and is_nef(r, neg):
                decomposable = True
                break
        if not decomposable:
            out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# Termination certificate for the reduction loop

#: Weight vector pairing strictly positively with every subtractable class.
TERMINATION_WEIGHT = DivisorClass((19, 6, 5, 4, 3, 2, 1))


def reduction_candidates() -> tuple:
    """Every class shape NEG can contain within this package's scope.

    Basis classes Ei; differences Ei-Ej (the only vertical shape compatible
    with a nef -K); line classes through 2..4 of the points (5+ collinear
    is rejected at configuration time); conic classes through 5 or 6.
    """
    out = list(E[1:])
    idx = range(1, 7)
    for i, j in itertools.combinations(idx, 2):
        out.append(E[i] - E[j])
    for r in (2, 3, 4):
        for s in itertools.combinations(idx, r):
            v = [1] + [0] * 6
            for i in s:
                v[i] = 1
            out.append(DivisorClass(v))
    for r in (5, 6):
        for s in itertools.combinations(idx, r):
            v = [2] + [0] * 6
            for i in s:
                v[i] = 1
            out.append(DivisorClass(v))
    return tuple(out)


def check_termination_measure() -> bool:
    """Verify the weight vector drops by at least 1 on every candidate."""
    return all(TERMINATION_WEIGHT.dot(c) >= 1 for c in reduction_candidates())
