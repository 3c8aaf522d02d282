"""Maximal-rank certificates for the degree-raising multiplication maps.

For a nef class F the multiplication map from (sections of F) x (linear
forms) to sections of F+E0 is the object of study.  Four section counts
give two-sided bounds on its kernel and cokernel:

    q  = h0(F - Ej),        q* = h1(F - Ej),
    l  = h0(F - (E0-Ej)),   l* = h1(F - (E0-Ej)),

where j is a valid reindexing (largest multiplicity, least index on ties):
the kernel dimension lies in [l, l+q], and when h1(F) = 0 the cokernel is
at most q* + l*.  So q* + l* = 0 certifies surjectivity and q = l = 0
certifies injectivity.  The bounds kernel stores each nef class's direct
certificate once: conic support (six points on a conic: every map is
surjective), else these two rules; :func:`certify` searches only past them.

Classes where neither fires are organised into a chain of levels, each
built as one sorted int64 array and kept as one: the nef-cone generators
that fail the criteria (level 1), then sums of a failing class with a
level-1 class that fail again, and so on.  Most sums are never reduced;
h1 persistence along a rational level-1 class proves them good (see
:func:`s_chain`).  Once the levels repeat along rays F + i*C (searched for
on packed keys), every ray tail is certified in closed form, either by
induction along a rational curve (surjectivity persists) or by a pairing
argument forcing q = l = 0 forever (injectivity persists).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import weyl
from .config import _CONIC6, NegSet, anticanonical_nef, per_surface
from .cones import (_FORM, _neg_blocks, chi_rows, gamma, h0_rows, int_rows, is_nef,
                    nef_generators, nef_rows, orbit_rows, pack_keys, packable, reduce,
                    unpack_keys, h0)  # h0 is not called; perfbench's tracer test wraps it
from .lattice import E0, MINUS_K, DivisorClass, E, arithmetic_genus


class Status(str, Enum):
    SURJECTIVE = "surjective"
    INJECTIVE = "injective"
    INCONCLUSIVE = "inconclusive"


class Rule(Enum):
    """A certificate's rule and the status it proves; the value is its printed name."""

    def __new__(cls, name: str, status: Status):
        rule = object.__new__(cls)
        rule._value_, rule.status = name, status
        return rule

    CONIC_SUPPORT = "conic-support", Status.SURJECTIVE
    SURJECTIVE_BOUNDS = "qstar+lstar=0", Status.SURJECTIVE
    INJECTIVE_BOUNDS = "q=l=0", Status.INJECTIVE
    RATIONAL_CURVE_STEP = "rational-curve-step", Status.SURJECTIVE
    KERNEL_TRANSFER = "kernel-transfer", Status.INJECTIVE
    NO_GENERATOR_SET = "no generator set available", Status.INCONCLUSIVE
    NO_CRITERION = "no criterion applied", Status.INCONCLUSIVE


@dataclass(frozen=True)
class Certificate:
    """A rule and, for a rational-curve step or a kernel transfer, its curve C."""

    rule: Rule
    witness: DivisorClass | None = None

    @property
    def status(self) -> Status:
        return self.rule.status


_CONIC = Certificate(Rule.CONIC_SUPPORT)
_SURJECTIVE_RULE = Certificate(Rule.SURJECTIVE_BOUNDS)
_INJECTIVE_RULE = Certificate(Rule.INJECTIVE_BOUNDS)


@dataclass(frozen=True)
class MuBounds:
    """Kernel/cokernel bounds for the multiplication map out of one class."""

    q: int
    l: int
    q_star: int
    l_star: int
    h: int
    h_next: int
    index: int


@per_surface
def effective_roots(neg: NegSet) -> frozenset:
    """The effective members of the 72 roots of ``weyl.all_roots``.

    One ``h0_rows`` call decides all 72, once per NegSet.  h0 > 0 is
    the same test as ``reduce(r, neg).effective``: an effective class
    reduces to a nef part N with h0 = chi(N) = (N.N - K.N)/2 + 1, and a nef
    N meets itself and the effective -K (six points impose at most six
    conditions on the ten cubics) nonnegatively, so chi(N) >= 1.
    """
    roots = weyl.all_roots()
    effective = h0_rows(np.array(roots, dtype=np.int64), neg) > 0
    return frozenset(itertools.compress(roots, effective.tolist()))


@per_surface
def plane_point_indices(neg: NegSet) -> tuple:
    """Indices j whose point sits in the plane itself.

    A point is only infinitely near another when some difference Ei - Ej
    is effective; those j are unusable as the auxiliary index in the
    kernel/cokernel machinery.  Each Ei - Ej is a root, looked up in
    :func:`effective_roots`.
    """
    roots = effective_roots(neg)
    out = tuple(j for j in range(1, 7)
                if all(E[i] - E[j] not in roots for i in range(1, 7) if i != j))
    if not out:
        raise ValueError("no usable point index; malformed negative-curve set")
    return out


@per_surface
def _bounds_and_certs(neg: NegSet) -> tuple:
    """The ``MuBounds`` and the certificates of classes, two dicts that
    :func:`_deficient_rows` and :func:`certify` fill in place."""
    return {}, {}


def ql_bounds(f: DivisorClass, neg: NegSet) -> MuBounds:
    """The four section counts bounding kernel and cokernel, plus h-values.

    The pivot j is the least usable index (:func:`plane_point_indices`)
    with the largest multiplicity of f.  A class missing from the table
    runs through the one kernel, :func:`_deficient_rows`, as a one-row
    array, which raises ``ValueError`` if f is not effective.
    """
    bounds = _bounds_and_certs(neg)[0]
    got = bounds.get(f)
    if got is None:
        _deficient_rows(np.array([f], dtype=object), neg, cache_all=True)
        got = bounds[f]
    return got


def deficient(f: DivisorClass, neg: NegSet) -> bool:
    """True when the bounds fail to make f a usable good summand.

    A nef class with q > 0, l > 0 and q* = l* = 0 forces surjectivity for
    everything it is added to; the chain levels collect the classes where
    one of those four conditions fails.
    """
    b = ql_bounds(f, neg)
    return b.q == 0 or b.l == 0 or b.q_star > 0 or b.l_star > 0


def _deficient_rows(f: np.ndarray, neg: NegSet, cache_all: bool = False) -> np.ndarray:
    """``deficient`` for every row of an n x 7 array, decided for all rows at once.

    The one kernel of the q/l bounds; :func:`ql_bounds` reads the tables it
    fills.  The pivot of a row is the one :func:`_pivots` gives.  Nef rows
    (``cones.nef_rows``) take h0 = chi(F) and h0(F + E0) = chi(F) + deg F + 2
    by Riemann-Roch; other rows (from :func:`ql_bounds`) are reduced.  f - Ej,
    f - (E0 - Ej) and those rows' F and F + E0 go through one ``h0_rows``
    call, whose rounds are those of its slowest row, and the chi of the two
    twists through one ``chi_rows`` call.  The ``MuBounds`` of every row
    (``cache_all``) or of the deficient rows go into the tables, with the
    direct certificate of each such nef row, written nowhere else: conic
    support on a conic surface, else :func:`_rules`.  Raises ``ValueError``
    on an ineffective row, else ``ArithmeticError``.
    """
    f = int_rows(f)
    n = len(f)
    pivot = _pivots(f, neg)
    nef = nef_rows(f, neg)
    other = f[~nef]
    # f - Ej and f - (E0 - Ej) (Ej is stored as -1 at j), then other and other + E0
    twists = np.concatenate((f, f, other, other + E0))
    twists[np.arange(n), pivot] += 1
    twists[np.arange(n, 2 * n), pivot] -= 1
    twists[n:2 * n, 0] -= 1
    q, l, h_other, h_next_other = np.split(h0_rows(twists, neg),
                                           [n, 2 * n, 2 * n + len(other)])
    chi_q, chi_l = np.split(chi_rows(twists[:2 * n]), 2)
    h = chi_rows(f)
    h_next = h + f[:, 0] + 2
    h[~nef], h_next[~nef] = h_other, h_next_other
    if (h == 0).any():
        raise ValueError(f"{DivisorClass(f[(h == 0).argmax()].tolist())!r} is not effective")
    q_star = q - chi_q
    l_star = l - chi_l
    bad = (q_star < 0) | (l_star < 0)
    if bad.any():
        raise ArithmeticError(
            f"negative h1 in bounds for {DivisorClass(f[bad.argmax()].tolist())!r}")
    mask = (q == 0) | (l == 0) | (q_star > 0) | (l_star > 0)
    keep = slice(None) if cache_all else mask
    (bounds, certs), conic = _bounds_and_certs(neg), on_conic(neg)
    cols = (f, nef, q, l, q_star, l_star, h, h_next, pivot)
    for row, is_nef_row, *values in zip(*(x[keep].tolist() for x in cols)):
        c = DivisorClass(row)
        b = bounds.setdefault(c, MuBounds(*values))
        if is_nef_row:
            certs.setdefault(c, _CONIC if conic else _rules(b))
    return mask


def _pivots(f: np.ndarray, neg: NegSet) -> np.ndarray:
    """The pivot of each row: the first usable index carrying its largest
    multiplicity."""
    usable = np.array(plane_point_indices(neg))
    return usable[f[:, usable].argmax(1)]


def on_conic(neg: NegSet) -> bool:
    """Whether 2E0-E1-...-E6 is effective (all six points on some conic): a
    root, looked up in :func:`effective_roots`."""
    return _CONIC6 in effective_roots(neg)


# ---------------------------------------------------------------------------
# Rational-curve step


def step_allows(c: DivisorClass, target: DivisorClass, neg: NegSet) -> bool:
    """Surjectivity transfers from target-c to target across the curve c.

    c must be a candidate of :func:`_rational_curve_candidates`, the class
    of an irreducible rational curve.  For c of degree <= 2 the restriction
    of the lines to c is a complete series (h0(E0 - c) = 2 - deg c on every
    supported surface, by the census test), so nonnegative pairing with the
    target suffices; a candidate of higher degree is a nef generator and
    needs the stronger bound max(c.Ej, c.(E0 - Ej)) for some usable index j.
    """
    if c.degree <= 2:
        return target.dot(c) >= 0
    return target.dot(c) >= min(
        max(c.dot(E[j]), c.dot(E0 - E[j])) for j in plane_point_indices(neg))


@per_surface
def _rational_curve_candidates(neg: NegSet) -> tuple:
    """Classes of irreducible rational curves usable as induction steps: NEG
    (irreducible by definition), then the genus-0 pared generators (base
    point free, with irreducible general member).  The nef classes of the
    orbits of E0 and E0 - E1 are pared on every supported surface (the
    census test in ``tests/test_murank.py``), so they add no candidate."""
    return neg.classes + tuple(c for c in nef_generators(neg).pared
                               if arithmetic_genus(c) == 0)


# ---------------------------------------------------------------------------
# certify


def certify(f: DivisorClass, neg: NegSet) -> Certificate:
    """Try to certify maximal rank for the multiplication map out of f.

    The direct rules first, as the bounds kernel stored them (:func:`_known`);
    where neither fired, the one-level search (:func:`_search`).
    A smaller class the search reads unsettled is settled first, on a stack,
    so the answer depends on f and the surface only; every answer, also an
    inconclusive one, is stored and final.  The stack is finite: an ample H
    meets every curve positively, so each class pushed has a smaller
    H-degree, and only finitely many nef classes lie below f.
    """
    certs = _bounds_and_certs(neg)[1]
    if f not in certs and not is_nef(f, neg):
        raise ValueError(f"{f!r} is not nef on this configuration")
    stack = [f]
    while stack:
        got = _known(stack[-1], neg) or _search(stack[-1], neg)
        if isinstance(got, Certificate):
            certs[stack.pop()] = got
        else:
            stack.append(got)
    return certs[f]


def certified(cert: Certificate, want: Status, f: DivisorClass, neg: NegSet) -> bool:
    """Whether cert shows the map out of f to be ``want``, directly or by the count.

    A certificate of the other status counts when the map is bijective: an
    injective map is onto as soon as three times the source section count
    reaches the target's, and a surjective map is one-to-one as soon as the
    target's count reaches three times the source's.
    """
    if cert.status is Status.INCONCLUSIVE:
        return False
    if cert.status is want:
        return True
    b = ql_bounds(f, neg)
    return b.h_next <= 3 * b.h if want is Status.SURJECTIVE else b.h_next >= 3 * b.h


def _rules(b: MuBounds) -> Certificate | None:
    """The q/l rules on the bounds b of a nef class, None when neither fires:
    q* + l* = 0 certifies surjectivity and q = l = 0 injectivity
    (Fitchett-Harbourne-Holay, J. Algebra 244, 2001)."""
    if b.q_star + b.l_star == 0:
        return _SURJECTIVE_RULE
    return _INJECTIVE_RULE if b.q == 0 and b.l == 0 else None


def _known(f, neg) -> Certificate | None:
    """The stored certificate of a nef class after :func:`ql_bounds`: the
    final answer of :func:`certify`, else the direct rules', else None."""
    ql_bounds(f, neg)
    return _bounds_and_certs(neg)[1][f]


def _search(f, neg) -> Certificate | DivisorClass:
    """Induction along a rational curve c whose complement f - c is known
    surjective, then injectivity transfer (:func:`_kernel_transfer`).  One
    ``nef_rows`` product decides which complements are nef, and the
    candidates are tried in their order.  A class read unsettled is returned,
    and once ``certify`` has settled it, f is searched again from the first
    candidate.  That is sound: the nef test and ``step_allows`` are pure and
    a stored answer is final, so each earlier candidate fails again and the
    scan answers as if resumed.  It costs a rescan: certifying 5000E0 -
    2000(E1 + ... + E6) on the A5 chain makes 1,998 calls for 999 classes.
    Only a library ``certify`` call on a non-conic surface with -K not nef
    gets ``Rule.NO_GENERATOR_SET``; ``verify`` stops earlier, in :func:`s_chain`."""
    if not anticanonical_nef(neg):
        return Certificate(Rule.NO_GENERATOR_SET)
    cands = _rational_curve_candidates(neg)
    nef = nef_rows(int_rows([f]) - int_rows(cands), neg)
    for c in itertools.compress(cands, nef.tolist()):
        fp = f - c
        if not step_allows(c, f, neg):
            continue
        if (known := _known(fp, neg)) is None:
            return fp
        if certified(known, Status.SURJECTIVE, fp, neg):
            return Certificate(Rule.RATIONAL_CURVE_STEP, c)
    return _kernel_transfer(f, neg) or Certificate(Rule.NO_CRITERION)


def _kernel_transfer(f, neg):
    """Injectivity across a prime curve the class does not meet.

    Restriction to a prime curve c with f.c = 0 is left exact on sections;
    when no linear form vanishes on c (deg c >= 2, as h0(E0 - c) = 2 - deg c
    by the census test) the forms stay independent on it, so the restricted
    multiplication is injective in degree zero and any kernel element comes
    from f - c.  Stripping the fixed part of f - c preserves kernels, so
    injectivity of the residual nef part is enough.
    f - c is effective: f = 0 is certified by q* = l* = 0, a direct rule, and
    a nef f != 0 has f^2 >= 0, -K.f >= 1 (Hodge index) and f^2 - K.f even,
    so h0(f) = chi(f) >= 2, and restricting to the smooth rational c with
    f.c = 0 gives h0(f - c) >= h0(f) - 1 >= 1.  A nef part read unsettled
    is returned, as by :func:`_search`.
    """
    for c in _rational_curve_candidates(neg):
        if f.dot(c) != 0 or c.degree < 2:
            continue
        nef = reduce(f - c, neg).nef_part
        if (known := _known(nef, neg)) is None:
            return nef
        if certified(known, Status.INJECTIVE, nef, neg):
            return Certificate(Rule.KERNEL_TRANSFER, c)
    return None


# ---------------------------------------------------------------------------
# Chain of deficient sums


@dataclass(frozen=True, eq=False)
class SChain:
    """Levels of deficient sums: level i holds sums of i level-1 classes."""

    levels: tuple  # levels[i-1] = level i: n x 7 int64, distinct rows ascending

    def level(self, i: int) -> tuple:
        return tuple(map(DivisorClass, self.levels[i - 1].tolist()))


@dataclass(frozen=True)
class _Built:
    """What :func:`s_chain` keeps of the level it has just built.

    ``row`` maps each pre-dedupe sum, row a*n1 + c for the level-(i-1)
    member a and the level-1 class c, to its candidate (a distinct sum);
    ``pivot`` and ``good`` give each candidate's pivot and whether it is
    non-deficient, by test or by :func:`_proven`.  The members of the level
    are the candidates that are not good, in candidate order.
    """

    row: np.ndarray
    pivot: np.ndarray
    good: np.ndarray


def _proven(prev: _Built, members: np.ndarray, s1: np.ndarray,
            row: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """Candidates of the next level that h1 persistence proves non-deficient.

    Each pre-dedupe row a*n1 + c of ``prev`` that made a member F writes
    F = A' + C for C = s1[c]; then for every level-1 class c0 the candidate
    S = F + s1[c0] (row f*n1 + c0 of this level, for the member index f of
    F) is A + C with A = A' + s1[c0], the candidate of ``prev`` at row
    a*n1 + c0.  S is proven when A is good with the pivot j
    of S and (S - D).C >= -1 for D = Ej and E0 - Ej (see :func:`s_chain`).
    S.C is F.C plus s1[c0].C, read off the pairings of the members and of
    s1 with s1; in the stored convention (S - Ej).C = S.C - C[j] and
    (S - (E0 - Ej)).C = S.C - C[0] + C[j].
    """
    n1 = len(s1)
    good = np.zeros(len(pivot), dtype=bool)
    r = np.flatnonzero(~prev.good[prev.row])  # the rows that made a member
    a, c = np.divmod(r, n1)
    f = (np.cumsum(~prev.good) - 1)[prev.row[r]]  # member index of F
    form = s1 * _FORM
    sc = (members[f] * form[c]).sum(1)[:, None] + (s1 @ form[c].T).T  # S.C
    cols = np.arange(n1)
    cand_a = prev.row[a[:, None] * n1 + cols]
    cand_s = row[f[:, None] * n1 + cols]
    j = pivot[cand_s]
    cj = s1[c[:, None], j]
    ok = (prev.good[cand_a] & (prev.pivot[cand_a] == j)
          & (sc - cj >= -1) & (sc - s1[c, :1] + cj >= -1))
    good[cand_s[ok]] = True
    return good


def _distinct_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of an n x 7 int64 array, ascending, and each row's
    index among them, compared on int64 keys: the entries are digits in base
    2**b, for the b bits the spread of the entries and 0 needs, so keys sort
    as the rows do; a key holds 63 // b columns (all seven within 0..511)."""
    bits = max(1, int(rows.max(initial=0)) - int(rows.min(initial=0))).bit_length()
    per = 63 // bits
    keys = np.stack([rows[:, i:i + per] @ (1 << bits * np.arange(min(per, 7 - i))[::-1])
                     for i in range(0, 7, per)])
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys[:, order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (keys[:, 1:] != keys[:, :-1]).any(0)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(fresh) - 1
    return rows[order[fresh]], index


def s_chain(neg: NegSet, depth: int = 6) -> SChain:
    """Build the deficiency levels up to the given depth.

    Each level is one int64 array, kept in the chain: level 1 is gamma (the
    pared generators) masked by :func:`deficient`, level i+1 the distinct
    sums of a level-i and a level-1 class that are deficient, deduped in
    ascending order on keys packed from the sums' own entry range
    (:func:`_distinct_rows`; level i has entries up to 9i).  Gamma and the
    level members, which :func:`verify_stabilization` certifies, leave their
    bounds in the tables of :func:`_bounds_and_certs`; other sums do not.

    From level 3 on most sums are proven non-deficient without reducing
    anything, by h1 persistence along a level-1 class.  Lemma: let A be
    nef and non-deficient with pivot j, so h0(A - D) > 0 and h1(A - D) = 0
    for D in {Ej, E0 - Ej}; let C be a level-1 class, and let S = A + C
    have pivot j and (S - D).C >= -1 for both D.  Then S is non-deficient.
    Proof: C is a pared generator of genus 0 (every level-1 class is, on
    every supported surface, by the census test in ``tests/test_murank.py``),
    a candidate of :func:`_rational_curve_candidates`, so |C| has a smooth
    rational member (Harbourne, *Anticanonical rational surfaces*,
    Trans. AMS 349, 1997).  From
    0 -> O(A - D) -> O(S - D) -> O_C(S - D) -> 0 and H1(P1, O(e)) = 0 for
    e >= -1, h1(S - D) <= h1(A - D) = 0 and h0(S - D) >= h0(A - D) > 0.
    A sum F + s1[c0] of a member F = A' + C built at the last level is
    A + C for the last level's candidate A = A' + s1[c0], so the proof is
    dense gathers over the last level's pre-dedupe index (:func:`_proven`);
    only the rest go through :func:`_deficient_rows`.  Level 2 is tested
    whole.  No member is proven, so the levels and the bounds table are
    those of testing every sum.
    """
    if not anticanonical_nef(neg):
        raise ValueError("chain construction requires a nef anticanonical class")
    g = np.array(gamma(neg), dtype=np.int64).reshape(-1, 7)
    s1 = g[_deficient_rows(g, neg, cache_all=True)]
    levels = [s1]
    prev = None
    for _ in range(2, depth + 1):
        sums, row = _distinct_rows((levels[-1][:, None] + s1[None]).reshape(-1, 7))
        pivot = _pivots(sums, neg)
        good = (np.zeros(len(sums), dtype=bool) if prev is None
                else _proven(prev, levels[-1], s1, row, pivot))
        test = np.flatnonzero(~good)
        good[test[~_deficient_rows(sums[test], neg)]] = True
        levels.append(sums[~good])
        prev = _Built(row=row, pivot=pivot, good=good)
    return SChain(levels=tuple(levels))


# ---------------------------------------------------------------------------
# Tail certificates along rays


@dataclass(frozen=True)
class TailCertificate:
    """Closed-form certificate for all F + i*C with i >= start."""

    base: DivisorClass
    step: DivisorClass
    kind: str  # "surjective-h1-persistence" | "surjective-induction" | "injective-bound"
    start: int
    pivot: int | None = None  # the j of the bounds read; the induction reads none


def _injective_tail(base, step, neg):
    """Witness that q = l = 0 holds along the whole ray.

    The step C is nef, so (base + i*step - D).C < 0 proves the shifted
    class ineffective for D = Ej, E0 - Ej; with C.C <= 0 the pairing only
    decreases along the ray, so one check at the first member covers every
    later one.  The step is the only witness needed, and every member has
    the pivot of the first (the census test in ``tests/test_murank.py``).
    """
    first = base + step
    j = ql_bounds(first, neg).index
    if step.dot(step) > 0 or any((first - d).dot(step) >= 0 for d in (E[j], E0 - E[j])):
        return None
    return TailCertificate(base=base, step=step, kind="injective-bound", start=1, pivot=j)


def _h1_persistence_tail(base, step, neg, computed: int):
    """Vanishing of the starred counts propagates along a rational step.

    The step is a level-1 class, a genus-0 pared generator with a smooth
    rational member (see :func:`s_chain`).  Restricting to it shows h1
    cannot reappear once the twisted classes meet the step in degree >= -1
    on it; both pairings are nondecreasing in the ray parameter, so checking
    the first needed member covers the whole tail, and every tail member is
    then surjective.  Every member has the pivot of base + step (the census
    test in ``tests/test_murank.py``): pivot and counts are stored bounds.
    """
    j = ql_bounds(base + step, neg).index
    for i0 in range(1, computed + 1):
        b = ql_bounds(base + i0 * step, neg)
        if b.q_star != 0 or b.l_star != 0:
            continue
        nxt = base + (i0 + 1) * step
        if (nxt - E[j]).dot(step) >= -1 and (nxt - (E0 - E[j])).dot(step) >= -1:
            return TailCertificate(base=base, step=step, kind="surjective-h1-persistence",
                                   start=i0, pivot=j)
    return None


def _surjective_tail(base, step, neg, computed: int):
    """Induction along the step curve once some ray member is surjective.

    Needs the step pairing condition from the base level onwards; the
    pairing (base + i*step).step is nondecreasing in i because the step is
    nef, so checking it at the first induction target suffices.  The step
    is a level-1 class, a candidate of :func:`_rational_curve_candidates`.
    """
    for i0 in range(1, computed + 1):
        member = base + i0 * step
        if not certified(certify(member, neg), Status.SURJECTIVE, member, neg):
            continue
        target = base + (i0 + 1) * step
        if step_allows(step, target, neg):
            return TailCertificate(base=base, step=step, kind="surjective-induction", start=i0)
    return None


# ---------------------------------------------------------------------------
# Stabilization


@dataclass(frozen=True)
class StabilizationReport:
    """Outcome of the level-stabilization check plus all certificates."""

    ok: bool
    j: int | None
    k: int | None
    witness: dict  # level-j class -> step class
    certificates: dict  # class -> Certificate (all computed-level members)
    tails: tuple  # TailCertificate per ray
    inconclusive: tuple
    notes: tuple


def _find_stabilization(chain: SChain):
    """Smallest (j, k, col), j <= 3 and k <= 2, whose rays reproduce the levels.

    Requires nonempty levels, where every level-j class F owns a unique
    level-1 class C (index col[F]) with F + k*C in level j+k, and the rays
    F + i*C give exactly level j+i for i = 1 .. k+1, so predict level j+k+1.

    Classes are compared as sorted ``cones.pack_keys`` of the level arrays,
    with key(F + i*C) = key(F) + i*(key(C) - key(ZERO)); each row of
    candidate keys of level j is binary-searched in level j+k.  Every class
    read is a sum of at most j+k+1 <= 6 level-1 classes, whose orbit-union
    entries lie in 0..9, so entries stay within 6*9 < PACK_ENTRY_BOUND and
    the guard cannot fire.  No class is built.
    """
    if not packable(6 * chain.levels[0]):
        raise ValueError("level classes have entries outside the packing range")
    keys = [None] + [pack_keys(r) for r in chain.levels[:6]]  # keys[i] = level i
    step = keys[1] - pack_keys(np.zeros(7, dtype=np.int64))
    for j in range(1, 4):
        for k in range(1, min(3, len(chain.levels) - j)):  # j + k + 1 <= depth
            cand = keys[j][:, None] + k * step
            hit = np.take(keys[j + k], np.searchsorted(keys[j + k], cand), mode="clip") == cand
            if (hit.sum(1) != 1).any():
                continue
            col = hit.argmax(1)
            if all(np.array_equal(np.unique(keys[j] + i * step[col]), keys[j + i])
                   for i in range(1, k + 2)):
                return j, k, col.tolist()
    return None


def verify_stabilization(chain: SChain, neg: NegSet) -> StabilizationReport:
    """Certify maximal rank for every member of every level, to all depths.

    Every computed-level member is certified directly: by its stored
    certificate, else by :func:`certify`.  Each level's classes are built
    once, here.  When the levels are nonempty a stabilization pair (j, k) is
    located; beyond the computed depth each ray F + i*C_F is certified in
    closed form.  The report is ``ok`` only if nothing stays inconclusive.
    """
    notes = []
    certificates: dict = {}
    inconclusive = []
    certs = _bounds_and_certs(neg)[1]

    def check(f):
        cert = certificates[f] = certs.get(f) or certify(f, neg)
        if cert.status is Status.INCONCLUSIVE:
            inconclusive.append(f)

    levels = [chain.level(i) for i in range(1, len(chain.levels) + 1)]
    for f in itertools.chain(nef_generators(neg).pared, *levels):
        check(f)
    empty_level = next((i + 1 for i, lv in enumerate(levels) if not lv), None)
    found = None if empty_level is not None else _find_stabilization(chain)
    if empty_level is not None:
        notes.append(f"levels die out at depth {empty_level}; no rays needed")
    elif found is None:
        notes.append("no stabilization pair (j, k) found within the depth")
    j, k, col = found or (None, None, ())
    witness = dict(zip(levels[j - 1], map(levels[0].__getitem__, col))) if found else {}
    tails = []
    for f, c in sorted(witness.items()):
        computed = len(levels) - j
        tail = (_h1_persistence_tail(f, c, neg, computed)
                or _surjective_tail(f, c, neg, computed)
                or _injective_tail(f, c, neg))
        if tail is None:
            inconclusive.append(f)
            notes.append("ray from " + " ".join(map(str, f.display_row()))
                         + " has no tail certificate")
            continue
        # ray members before the tail takes over need individual
        # certificates (surjective-induction carries its own base).
        first_uncovered = tail.start + (tail.kind == "surjective-induction")
        for i in range(1, first_uncovered):
            check(f + i * c)
        tails.append(tail)
    return StabilizationReport(
        ok=not inconclusive and (empty_level is not None or found is not None),
        j=j, k=k, witness=witness, certificates=certificates, tails=tuple(tails),
        inconclusive=tuple(inconclusive), notes=tuple(notes))


# ---------------------------------------------------------------------------
# Markings


def e0_classes(neg: NegSet) -> tuple:
    """Nef members of the orbit of E0: the possible plane markings."""
    return _markings(neg)[0]


@per_surface
def _markings(neg: NegSet) -> tuple:
    """The nef E0-orbit classes h and their n x 7 x 7 marking matrices M.

    M has rows h, E1'', ..., E6'': the exceptional classes orthogonal to h
    (one product with the 27), least first unless a remaining one must
    precede it, as b precedes a when the root b - a is effective (a 27 x 27
    table, packed keys looked up in :func:`effective_roots`).  Every M must
    keep the form, M F M^T = F for F = diag(1, -1, ..., -1), and 3h minus
    the companions must be -K."""
    classes, rows = orbit_rows(E0)
    nef = nef_rows(rows, neg)
    classes, h = tuple(itertools.compress(classes, nef.tolist())), rows[nef]
    ex = np.array(weyl.exceptional_classes(), dtype=np.int64)  # sorted: index order is class order
    ortho = (h * _FORM) @ ex.T == 0
    if (ortho.sum(1) != 6).any():
        raise ArithmeticError("a marking class has other than 6 companions")
    comp = ortho.nonzero()[1].reshape(-1, 6)
    keys = pack_keys(ex)
    roots = pack_keys(np.array(list(effective_roots(neg)), dtype=np.int64).reshape(-1, 7))
    precedes = np.isin(keys - keys[:, None] + pack_keys(0 * ex[0]), roots)  # [a, b]: b before a
    must = precedes[comp[:, :, None], comp[:, None, :]]
    left, at, order = np.ones(comp.shape, dtype=bool), np.arange(len(comp)), []
    for _ in range(6):
        free = left & ~(must & left[:, None, :]).any(2)
        if not free.any(1).all():
            raise ArithmeticError("effectiveness order has a cycle")
        pick = free.argmax(1)  # the least free companion
        order.append(comp[at, pick])
        left[at, pick] = False
    mats = np.concatenate((h[:, None], ex[np.stack(order, 1)]), 1)
    if not ((mats * _FORM) @ mats.transpose(0, 2, 1) == np.diag(_FORM)).all():
        raise ArithmeticError("companion classes are not orthogonal")
    if not (3 * h - mats[:, 1:].sum(1) == MINUS_K).all():
        raise ArithmeticError("companion classes do not complete the marking")
    mats.flags.writeable = False
    return classes, mats


def exceptional_configuration(h: DivisorClass, neg: NegSet) -> tuple:
    """The marking (E0'', ..., E6'') attached to a nef degree-1 class: the
    row of h in :func:`_markings`.  The classes with h^2 = 1 and -K.h = 3
    are the 72 of the orbit of E0, so any other h raises ``ValueError``."""
    classes, mats = _markings(neg)
    if h not in classes:
        raise ValueError(f"{h!r} is not a nef marking class")
    return (h,) + tuple(map(DivisorClass, mats[classes.index(h), 1:].tolist()))


def _transport(neg: NegSet, mats: np.ndarray) -> np.ndarray:
    """NEG under each marking matrix, marking x class x 7: X -> (X.E0'', ...,
    X.E6''), NEG of the same surface in the new coordinates, as a change of
    marking is an isometry fixing K (Harbourne, Trans. AMS 349, 1997)."""
    return np.einsum("jc,mkj->mck", _neg_blocks(neg, np.dtype(np.int64))[1], mats)


# ---------------------------------------------------------------------------
# Full verification sweeps


@dataclass(frozen=True)
class MarkingReport:
    """Verification outcome for one configuration under one marking."""

    marking: DivisorClass
    ok: bool
    method: str  # "conic" | "chain"
    report: StabilizationReport | None


def verify_configuration(neg: NegSet, depth: int = 6) -> MarkingReport:
    """Verify maximal rank over one configuration in its given marking."""
    if on_conic(neg):
        return MarkingReport(marking=E0, ok=True, method="conic", report=None)
    report = verify_stabilization(s_chain(neg, depth), neg)
    return MarkingReport(marking=E0, ok=report.ok, method="chain", report=report)


@functools.lru_cache(maxsize=1)
def _relabelling_weights() -> np.ndarray:
    """7 x 720 weights W: row @ W + key(ZERO) is ``cones.pack_keys`` of the
    row under each relabelling of the six points, as packing is linear."""
    cols = np.array([(0,) + p for p in itertools.permutations(range(1, 7))])
    eye = np.eye(7, dtype=np.int64)
    return pack_keys(eye[:, cols]) - pack_keys(0 * eye[0])


def _canonical_keys(rows: np.ndarray) -> list:
    """Each set of an n x k x 7 stack of distinct classes up to relabelling
    of the six points: the least sorted tuple of its relabelled classes.
    On NEG classes of square <= -2 (entries in -2..2, always packable) the
    key is a marked problem: the exceptional members of NEG are the
    exceptional classes meeting them all nonnegatively (tests check this
    in every marking), and relabelling keeps the form.  One product with
    the relabelling weights packs each class under each relabelling, then
    k min-reductions over the class axis each take the least key left,
    keep the relabellings that reach it and spend it (with any copy).
    The least keys unpack to the classes."""
    if not packable(rows):
        raise ValueError("classes have entries outside the packing range")
    n, k, _ = rows.shape
    keys = np.einsum("nkj,jp->nkp", rows, _relabelling_weights())
    best, spent = np.empty((n, k), dtype=np.int64), np.iinfo(np.int64).max
    for i in range(k):
        least = keys.min(1)
        best[:, i] = least.min(1)
        keys[(keys == least[:, None]) | (least != best[:, i, None])[:, None]] = spent
    best += pack_keys(np.zeros(7, dtype=np.int64))
    return [tuple(map(tuple, s)) for s in unpack_keys(best).tolist()]


def verify_all_markings(neg: NegSet, depth: int = 6, _cache: dict | None = None):
    """Verify one configuration under every marking; yields MarkingReports.

    NEG is moved under every marking matrix at once, and the marked
    problems are keyed at once by their classes of square <= -2, the same
    rows under every marking since an isometry keeps squares.  Relabelling
    the six points changes none of the checks, so a key is solved once: a
    marked ``NegSet`` is built and verified only for a key not yet cached.
    """
    solved = _cache if _cache is not None else {}
    classes, mats = _markings(neg)
    moved = _transport(neg, mats)
    keys = _canonical_keys(moved[:, _neg_blocks(neg, np.dtype(np.int64))[2] >= 2])
    for h, key, rows in zip(classes, keys, moved):
        if key not in solved:
            problem = NegSet(tuple(map(DivisorClass, rows.tolist())))
            solved[key] = verify_configuration(problem, depth)
        yield replace(solved[key], marking=h)
