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
steps as the multiplicities grow.  A class falling down a pencil, a few
units of degree per round, is stopped by a nef witness (``_nef_witness``).
The loop carries the pairings of the running class with NEG (``_strip``):
they are dot products once, and a step of n copies of C_j lowers them by n
times row j of the NEG Gram table, so a step costs one Gram-row update.

``h0_rows`` reduces a whole array of classes at once: each round pairs
every unfinished row with the NEG Gram block in one matrix product and
subtracts from each row the forced multiple of every NEG class it meets
negatively, exact since distinct irreducible curves meet nonnegatively and
finite since ``reduce``'s weight drops every round.  A row that meets none
(``nef_rows``) retires and takes h0 = chi, from one ``chi_rows`` call at
the end; the unfinished rows are copied out only in a round where some row
retires.  Every row evolves on its own, so a stack of arrays takes the
rounds of its slowest part, not their sum.  Rows are int64 while every
entry is below ``INT64_ENTRY_BOUND`` in absolute value, so that every
pairing and the self-intersection of every nef row fit; otherwise the same
loop runs on ``dtype=object`` arrays of Python ints.  The scalar ``reduce``
and ``h0`` stay for single classes, where a numpy call costs more.

When -K is nef, the nef cone is generated as a semigroup by the nef
members of the union of seven fixed reflection orbits (1279 classes in
all); paring away classes that are sums of two others leaves a small
generating set.  The nef filter is one product of the union's int64 array
with the NEG Gram block.  Paring packs each class into one int64 key
(``pack_keys``: offset digits in a fixed base, so keys sort as the
classes do and the key of a sum is the sum of the keys less a constant)
and tests pair sums a block of rows at a time by binary search in the
sorted keys.  The orbit union's entries lie in 0..9, far inside
``PACK_ENTRY_BOUND``; a set with an entry outside it is rejected with
``ValueError``.  ``gamma`` is the pared set: no pared generator of a
supported surface is the sum of two nonzero nef classes.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import weyl
from .config import NegSet, anticanonical_nef, per_surface
from .lattice import MINUS_K, DivisorClass, chi

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


@functools.lru_cache(maxsize=1)
def _sorted_union() -> tuple:
    """``seed_orbit_union`` sorted, and as a read-only n x 7 int64 array."""
    classes = tuple(sorted(seed_orbit_union()))
    rows = np.array(classes, dtype=np.int64)
    rows.flags.writeable = False
    return classes, rows


def is_nef(f: DivisorClass, neg: NegSet) -> bool:
    """True when f meets every negative curve nonnegatively."""
    return all(f.dot(c) >= 0 for c in neg.classes)


@dataclass(frozen=True)
class Reduction:
    """Outcome of fixed-part extraction.

    The original class is ``nef_part`` plus the sum of ``trace``, whose
    entries are the multiples n*C of negative curves subtracted in each
    step, in order; when ``effective`` that sum is the fixed part.
    Otherwise some intermediate class had negative degree or met a nef
    class negatively, there are no sections, and ``nef_part`` is that
    class (not nef in general).
    """

    effective: bool
    nef_part: DivisorClass
    trace: tuple  # n*C subtracted per step, in order


def reduce(f: DivisorClass, neg: NegSet) -> Reduction:
    """Strip negative curves off f until it is nef or visibly ineffective.

    Scans the sorted NEG classes cyclically.  A class C met negatively by
    the running class F is subtracted n = ceil(-F.C / -C^2) times in one
    step; each copy would still meet F negatively, so the per-copy loop
    reaches the same result.  The next scan starts after C; a full pass
    without a hit ends the loop.  The nef part and the multiset of curves
    subtracted do not depend on the scan order; tests assert this against
    an in-test reference that takes an explicit order.

    Termination: the weight W = (19; 6, 5, 4, 3, 2, 1), its point weights
    reordered so that wi > wj for every member Ei - Ej (``NegSet`` rejects
    their cycles), pairs to at least 1 with every shape of an accepted NEG
    (Ei, Ei - Ej, lines through two to four points, conics through five or
    six), so each step lowers W.F by at least 1.  The loop runs only at
    degree >= 0, and no stored multiplicity exceeds A = max(0, initial ones)
    (Ei lifts a negative entry to 0, Ei - Ej stays within the old range,
    lines and conics only lower entries), so W.F stays >= -21*A.
    ``tests/test_cones.py`` checks the weight on every such shape.  That
    bound grows with the entries, so every ``WITNESS_STEPS`` steps the loop
    also stops at a nef witness, which an effective class never has.
    """
    classes = neg.classes
    effective, cur, _, steps = _strip(f, [f.dot(c) for c in classes], neg)
    return Reduction(effective=effective, nef_part=DivisorClass(cur) if steps else f,
                     trace=tuple(classes[j] if n == 1 else n * classes[j]
                                 for j, n in steps))


def _strip(cur, d: list, neg: NegSet) -> tuple:
    """``reduce``'s loop on a class given with its pairings d[j] = F.C_j.

    cur is the class as a sequence of 7 ints and d its pairings with the
    sorted NEG classes.  A step of n copies of C_j subtracts n*C_j from cur
    and n times row j of the Gram table (``_gram``) from d, so no step
    makes a dot product.  Returns (effective, cur, d, steps): the class
    where the loop stopped, as a list unless no step was taken, its
    pairings, and the (j, n) of each step in order.
    """
    classes, gram = neg.classes, _gram(neg)
    k = len(classes)
    steps = []
    start = 0
    while cur[0] >= 0:
        if steps and len(steps) % WITNESS_STEPS == 0 and _nef_witness(int_rows([cur]), neg)[0]:
            return False, cur, d, steps
        for j in itertools.chain(range(start, k), range(start)):
            if d[j] < 0:
                break
        else:
            return True, cur, d, steps
        c, row = classes[j], gram[j]
        n = -(d[j] // -row[j])
        if n > 1:
            c, row = [n * x for x in c], [n * x for x in row]
        cur = list(map(operator.sub, cur, c))
        d = list(map(operator.sub, d, row))
        steps.append((j, n))
        start = j + 1
    return False, cur, d, steps


def h0(f: DivisorClass, neg: NegSet) -> int:
    """Number of independent global sections of f."""
    red = reduce(f, neg)
    return chi(red.nef_part) if red.effective else 0


#: Rows whose entries all lie strictly inside +-2**28 are reduced in int64.
INT64_ENTRY_BOUND = 2 ** 28

#: Signs of the intersection form: F.C = F @ (C * _FORM).
_FORM = np.array((1, -1, -1, -1, -1, -1, -1), dtype=np.int64)

#: ``reduce`` and ``h0_rows`` look for a nef witness once per this many steps.
WITNESS_STEPS = 32


@per_surface
def _neg_blocks(neg: NegSet, dtype) -> tuple:
    """NEG as rows of ``dtype``, the block with F.C = (F @ block)[C], and -C^2."""
    curves = np.array(neg.classes, dtype=dtype).reshape(-1, 7)
    got = curves, (curves * _FORM).T, -(curves * curves) @ _FORM
    for a in got:
        a.flags.writeable = False
    return got


@per_surface
def _gram(neg: NegSet) -> list:
    """The NEG Gram table as lists of Python ints, row j the pairings of
    C_j with the sorted NEG classes: one product of the int64 blocks."""
    curves, block, _ = _neg_blocks(neg, np.dtype(np.int64))
    return (curves @ block).tolist()


def nef_rows(f: np.ndarray, neg: NegSet) -> np.ndarray:
    """Which rows of an integer array are nef of degree >= 0: one product
    with the NEG Gram block, the test ``h0_rows`` applies in its first round."""
    return (f[:, 0] >= 0) & (f @ _neg_blocks(neg, f.dtype)[1] >= 0).all(1)


@functools.lru_cache(maxsize=None)
def orbit_rows(seed: DivisorClass) -> tuple:
    """The reflection orbit of seed sorted, and as a read-only int64 array."""
    classes = tuple(sorted(weyl.orbit(seed).elements))
    rows = np.array(classes, dtype=np.int64)
    rows.flags.writeable = False
    return classes, rows


def _nef_witness(cur: np.ndarray, neg: NegSet) -> np.ndarray:
    """Which rows of cur meet some nef conic-bundle class negatively.

    Such a row is not effective, since an effective class meets every nef
    class nonnegatively.  A class falling down a pencil subtracts, round
    after round, a multiple of the class of its fibres, which meets every
    curve of the round in 0 and so is nef with square 0: a conic-bundle
    class, which the running class keeps meeting negatively.
    """
    _, rows = orbit_rows(GENERATOR_SEEDS[1])  # the 27 conic-bundle classes
    nef = rows[nef_rows(rows, neg)]
    return (cur @ (nef * _FORM).T.astype(cur.dtype) < 0).any(1)


def int_rows(rows) -> np.ndarray:
    """An n x 7 array of classes: int64 inside the entry bound, else Python
    ints.  Floats, bools and other non-``int`` entries raise ``TypeError``."""
    a = np.asarray(rows)
    if a.size == 0:
        return a.astype(np.int64).reshape(0, 7)
    if a.dtype == object:
        for x in a.flat:
            if type(x) is not int:
                raise TypeError(f"non-integer coefficient {x!r}")
        small = all(-INT64_ENTRY_BOUND < x < INT64_ENTRY_BOUND for x in a.flat)
    elif a.dtype.kind in "iu":
        small = -INT64_ENTRY_BOUND < a.min() and a.max() < INT64_ENTRY_BOUND
    else:
        raise TypeError(f"non-integer coefficients of dtype {a.dtype}")
    return a.astype(np.int64 if small else object).reshape(-1, 7)


def chi_rows(f: np.ndarray) -> np.ndarray:
    """``lattice.chi`` of every row from F.(F - K), parity check included."""
    n = (f * (f + MINUS_K)) @ _FORM
    if (n & 1).any():
        bad = DivisorClass(f[(n & 1).argmax()].tolist())
        raise ArithmeticError(f"parity violation in chi({bad!r})")
    return (n >> 1) + 1


def h0_rows(f, neg: NegSet) -> np.ndarray:
    """``h0`` of every row of an n x 7 integer array, in one batched reduction.

    Each round pairs the unfinished rows with every NEG class at once; the
    rows that meet none negatively retire, their chi taken by one
    ``chi_rows`` call when the loop ends, and each other row subtracts
    ceil(-F.C / -C^2) copies of every C it meets negatively.  Two distinct
    irreducible curves meet nonnegatively, so every copy taken in a round
    is still forced: a round is a run of ``reduce`` steps, h0 is unchanged
    for an effective row and stays 0 for an ineffective one, and entries
    stay within the row's initial ones while its degree is >= 0 (a round
    that ends below degree 0 may overshoot, in int64 by less than 2**38).
    ``reduce``'s weight W (its point weights ordered along the Ei - Ej) drops
    by at least 1 per round, and after k rounds a row has subtracted at least
    what ``reduce`` takes in k steps, so a call ends within its rows' longest
    ``reduce`` trace plus one round.  A row retires with h0 = 0 once its degree
    is negative or, checked every ``WITNESS_STEPS`` rounds, it has a nef
    witness, and with h0 = chi once it is nef, as the scalar ``h0`` does.  A
    row's result and the round it retires in do not depend on the other rows.
    """
    cur = int_rows(f)
    out = np.zeros(len(cur), dtype=cur.dtype)
    curves, gram, minus_sq = _neg_blocks(neg, cur.dtype)
    idx = np.flatnonzero(cur[:, 0] >= 0)
    cur = cur[idx]
    nef_idx, nef_cur = [], []
    rounds = 0
    while len(idx):
        met = cur @ gram
        hit = np.minimum(met, 0, out=met).any(1)
        met //= minus_sq
        cur += met @ curves  # a nef row meets nothing negatively: it adds 0
        keep = hit & (cur[:, 0] >= 0)
        rounds += 1
        if rounds % WITNESS_STEPS == 0:
            keep &= ~_nef_witness(cur, neg)
        if not keep.all():
            nef_idx.append(idx[~hit])
            nef_cur.append(cur[~hit])
            idx, cur = idx[keep], cur[keep]
    if nef_idx:
        out[np.concatenate(nef_idx)] = chi_rows(np.concatenate(nef_cur))
    return out


@dataclass(frozen=True)
class GeneratorSet:
    """Nef-cone generators: the raw orbit survivors and the pared subset."""

    raw: tuple
    pared: tuple


#: Classes whose entries all lie strictly inside +-PACK_ENTRY_BOUND pack
#: into one int64 key each, and so do sums of two of them.
PACK_ENTRY_BOUND = 2 ** 6

#: Digit i of a key is entry i + 2*PACK_ENTRY_BOUND; E0's digit leads.
_PACK_WEIGHTS = (4 * PACK_ENTRY_BOUND) ** np.arange(6, -1, -1, dtype=np.int64)

#: Pair sums ``_pare`` tests per numpy round.
PARE_CHUNK = 2 ** 14


def packable(rows: np.ndarray) -> bool:
    """Whether every entry lies strictly inside +-PACK_ENTRY_BOUND."""
    return rows.size == 0 or bool(
        -PACK_ENTRY_BOUND < rows.min() and rows.max() < PACK_ENTRY_BOUND)


def pack_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per class along the last axis of a ``packable`` array.

    The digits are the entries offset by 2*PACK_ENTRY_BOUND in base
    4*PACK_ENTRY_BOUND, so keys sort as the classes sort, and the sum of
    two packable classes has the key key(a) + key(b) - key(ZERO), its
    digits again inside the base (keys stay below 2**57).
    """
    return (rows.astype(np.int64) + 2 * PACK_ENTRY_BOUND) @ _PACK_WEIGHTS


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """The classes of ``pack_keys`` keys, along a new last axis of 7."""
    return keys[..., None] // _PACK_WEIGHTS % (4 * PACK_ENTRY_BOUND) - 2 * PACK_ENTRY_BOUND


def _pare(rows: np.ndarray) -> np.ndarray:
    """Which rows of an ascending array of distinct classes are no sum of two.

    One pass suffices: a sum of two survivors is a sum of two members of
    the whole set, so the pass has dropped it already.  Degrees ascend, so
    a row is only paired with the rows from itself up to the largest degree
    a sum can still have.  Rows are packed into sorted int64 keys
    (``pack_keys``); a block of rows, about ``PARE_CHUNK`` sums, is added
    to its columns in one step and each sum is looked up by binary search
    in the keys.  The only caller passes nef rows of the sorted orbit-union
    array, whose entries lie in 0..9; an entry outside ``PACK_ENTRY_BOUND``
    raises ``ValueError``.
    """
    if not packable(rows):
        raise ValueError("classes have entries outside the packing range")
    keys = pack_keys(rows)
    deg = rows[:, 0]
    n = len(keys)
    top = deg[-1] if n else 0
    shifted = keys - pack_keys(np.zeros(7, dtype=np.int64))
    hit = np.zeros(n, dtype=bool)
    i = 0
    while i < n:
        stop = np.searchsorted(deg, top - deg[i], side="right")
        if stop <= i:
            break
        end = min(n, i + max(1, PARE_CHUNK // (stop - i)))
        sums = keys[i:end, None] + shifted[None, i:stop]
        pos = np.minimum(np.searchsorted(keys, sums), n - 1)
        hit[pos[keys[pos] == sums]] = True
        i = end
    return ~hit


@per_surface
def nef_generators(neg: NegSet) -> GeneratorSet:
    """Generators of the nef cone semigroup; requires -K nef.  The nef rows
    of the sorted orbit-union array go to ``_pare`` as they are."""
    if not anticanonical_nef(neg):
        raise ValueError("nef-cone generators require a nef anticanonical class")
    classes, rows = _sorted_union()
    nef = nef_rows(rows, neg)
    raw = tuple(itertools.compress(classes, nef.tolist()))
    return GeneratorSet(raw=raw, pared=tuple(itertools.compress(raw, _pare(rows[nef]).tolist())))


def gamma(neg: NegSet) -> tuple:
    """Nef classes that are not the sum of two nonzero nef classes.

    These are the pared generators: a pared f is such a sum exactly when
    f - p is nef and nonzero for a pared p, and no such pair occurs on any
    of the 21 root types of E6 with -K nef in any marking (the census test
    in ``tests/test_murank.py`` runs the pairwise test on all of them).
    """
    return nef_generators(neg).pared
