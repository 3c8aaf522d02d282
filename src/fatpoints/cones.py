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

``h0_rows`` runs the same reduction on a whole array of classes at once:
each round pairs every unfinished row with the NEG Gram block in one
matrix product, and each row takes the step ``reduce`` would take next.
Rows are int64 while every entry is below
``INT64_ENTRY_BOUND`` in absolute value, so that every pairing and the
self-intersection of every nef row fit; otherwise the same code runs on
``dtype=object`` arrays of Python ints.  The scalar ``reduce`` and ``h0``
stay for single classes, where one numpy call per class would cost more
than the reduction.

When -K is nef, the nef cone is generated as a semigroup by the nef
members of the union of seven fixed reflection orbits (1279 classes in
all); paring away classes that are sums of two others leaves a small
generating set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

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


#: Rows whose entries all lie strictly inside +-2**28 are reduced in int64.
INT64_ENTRY_BOUND = 2 ** 28

#: Signs of the intersection form: F.C = F @ (C * _FORM).
_FORM = np.array((1, -1, -1, -1, -1, -1, -1), dtype=np.int64)


def int_rows(rows) -> np.ndarray:
    """An n x 7 array of classes: int64 inside the entry bound, else Python ints."""
    a = np.asarray(rows)
    if a.size == 0:
        return a.astype(np.int64).reshape(0, 7)
    if a.dtype == object:
        small = all(-INT64_ENTRY_BOUND < x < INT64_ENTRY_BOUND for x in a.flat)
    else:
        small = -INT64_ENTRY_BOUND < a.min() and a.max() < INT64_ENTRY_BOUND
    return a.astype(np.int64 if small else object).reshape(-1, 7)


def chi_rows(f: np.ndarray) -> np.ndarray:
    """``lattice.chi`` of every row, parity check included."""
    f0, fi = f[:, 0], f[:, 1:]
    n = f0 * f0 - (fi * fi).sum(1) + 3 * f0 - fi.sum(1)  # F.F - K.F
    if (n % 2 != 0).any():
        bad = DivisorClass(f[(n % 2 != 0).argmax()].tolist())
        raise ArithmeticError(f"parity violation in chi({bad!r})")
    return n // 2 + 1


def h0_rows(f, neg: NegSet) -> np.ndarray:
    """``h0`` of every row of an n x 7 integer array, in one batched reduction.

    Each round computes the pairings of the unfinished rows with every NEG
    class, and each row with a negative pairing subtracts
    ceil(-F.C / -C^2) copies of the first such C at or after the class
    following its previous hit, in cyclic order: the scan ``reduce`` makes,
    so a row takes exactly the steps ``reduce`` takes.  A row retires with
    h0 = 0 once its degree is negative and with h0 = chi once it is nef,
    so every row gets the value the scalar ``h0`` gives.
    """
    cur = int_rows(f)
    out = np.zeros(len(cur), dtype=cur.dtype)
    curves = np.array(neg.classes, dtype=cur.dtype).reshape(-1, 7)
    gram = (curves * _FORM).T
    minus_sq = -(curves * curves * _FORM).sum(1)
    columns = np.arange(len(curves))
    idx = np.flatnonzero(cur[:, 0] >= 0)
    cur, start = cur[idx], np.zeros(len(idx), dtype=np.int64)
    while len(idx):
        met = cur @ gram < 0
        hit = met.any(1)
        out[idx[~hit]] = chi_rows(cur[~hit])
        idx, cur, met, start = idx[hit], cur[hit], met[hit], start[hit]
        later = met & (columns >= start[:, None])
        col = np.where(later.any(1), later.argmax(1), met.argmax(1))
        c = curves[col]
        d = (cur * c * _FORM).sum(1)
        cur = cur - (-(d // minus_sq[col]))[:, None] * c
        start = col + 1
        keep = cur[:, 0] >= 0
        idx, cur, start = idx[keep], cur[keep], start[keep]
    return out


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
    hits at once.  Members are sorted, so degrees ascend and the inner loop
    stops once a sum's degree passes the largest degree in the set.
    """
    cur = set(classes)
    while True:
        members = sorted(cur)
        top = members[-1][0] if members else 0
        sums = set()
        for i, a in enumerate(members):
            for b in members[i:]:
                if a[0] + b[0] > top:
                    break
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
