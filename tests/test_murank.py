import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fatpoints.cones import (_FORM, INT64_ENTRY_BOUND, PACK_ENTRY_BOUND, gamma, h0,
                             int_rows, is_nef, nef_generators, nef_rows, orbit_rows, reduce)
from fatpoints.config import (FIXTURE_SPECS, DistinctSpec, NegSet, PointConfiguration,
                              anticanonical_nef, dynkin_catalog, neg_from_distinct,
                              neg_from_nodal)
from fatpoints.lattice import E, E0, MINUS_K, ZERO, DivisorClass, arithmetic_genus, chi
from fatpoints import murank
from fatpoints.murank import (Certificate, MuBounds, SChain, Status, _bounds_and_certs,
                              _canonical_keys, _deficient_rows,
                              _find_stabilization, _pivots,
                              _rational_curve_candidates,
                              _search, certified, certify, change_of_marking, deficient,
                              e0_classes, effective_roots, exceptional_configuration,
                              on_conic, plane_point_indices, ql_bounds, s_chain, step_allows,
                              verify_all_markings, verify_configuration, verify_stabilization)
from fatpoints.weyl import all_roots, exceptional_classes, orbit

from conftest import distinct_case, relabelled

NINE_ROWS = [
    (1, -1, 0, 0, 0, 0, 0), (1, 0, -1, 0, 0, 0, 0), (1, 0, 0, -1, 0, 0, 0),
    (1, 0, 0, 0, -1, 0, 0), (1, 0, 0, 0, 0, -1, 0), (1, 0, 0, 0, 0, 0, -1),
    (2, 0, -1, -1, -1, -1, 0), (2, -1, -1, 0, 0, -1, -1), (2, -1, 0, -1, -1, 0, -1),
]

MONOTONE_19_ROWS = [
    (1, 0, 0, 0, 0, 0, 0), (3, -2, -1, -1, -1, -1, -1), (6, -3, -3, -2, -2, -2, -1),
    (2, -1, -1, -1, 0, 0, 0), (2, -1, -1, 0, 0, 0, 0), (3, -1, -1, -1, -1, -1, 0),
    (3, -2, -1, -1, -1, -1, 0), (4, -2, -2, -2, -1, -1, 0), (4, -2, -2, -1, -1, -1, -1),
    (4, -2, -2, -2, -1, -1, -1), (6, -3, -3, -2, -2, -2, -2), (5, -2, -2, -2, -2, -2, -1),
    (5, -2, -2, -2, -2, -2, -2), (6, -3, -3, -2, -2, -2, 0), (3, -1, -1, -1, -1, -1, -1),
    (1, -1, 0, 0, 0, 0, 0), (4, -2, -2, -1, -1, -1, 0), (2, -1, -1, -1, -1, 0, 0),
    (5, -2, -2, -2, -2, -2, 0),
]

INJECTIVITY_SPORADIC_ROWS = [
    (4, -2, -2, -2, -1, -1, -1), (5, -2, -2, -2, -2, -2, -2),
    (6, -3, -3, -2, -2, -2, -2), (8, -4, -3, -3, -3, -3, -3),
    (10, -4, -4, -4, -4, -4, -4),
]


def monotone_nef_generators():
    """Generators of the cone of nef classes with weakly decreasing entries:
    the nef cone of the configuration whose nodal roots are the five
    differences Ei - Ei+1."""
    neg = neg_from_nodal(tuple(E[i] - E[i + 1] for i in range(1, 6)))
    return nef_generators(neg).pared


_INJ_SPORADIC = (
    (0, ()),
    (4, (2, 2, 2, 1, 1, 1)),
    (5, (2, 2, 2, 2, 2, 2)),
    (6, (3, 3, 2, 2, 2, 2)),
    (8, (4, 3, 3, 3, 3, 3)),
    (10, (4, 4, 4, 4, 4, 4)),
)


def injectivity_class(f):
    """Whether f matches, up to point relabelling, a known injectivity class:
    the zero class, five sporadic classes, and all multiples of
    2E0-E1-E2-E3-E4 and of 3E0-2E1-E2-E3-E4-E5-E6."""
    d = f.degree
    m = tuple(sorted(f.multiplicities, reverse=True))
    if f == ZERO:
        return True
    for deg, mults in _INJ_SPORADIC:
        if d == deg and m == tuple(sorted(mults, reverse=True)):
            return True
    if d > 0 and d % 2 == 0:
        t = d // 2
        if m == (t, t, t, t, 0, 0):
            return True
    if d > 0 and d % 3 == 0:
        t = d // 3
        if m == (2 * t, t, t, t, t, t):
            return True
    return False


def scalar_ql_bounds(f, neg):
    """Reference bounds: one scalar ``h0`` per count, pivot j the least
    usable index carrying the largest multiplicity of f."""
    h = h0(f, neg)
    if h == 0:
        raise ValueError(f"{f!r} is not effective")
    usable = plane_point_indices(neg)
    best = max(f.multiplicities[j - 1] for j in usable)
    j = next(j for j in usable if f.multiplicities[j - 1] == best)
    fq, fl = f - E[j], f - (E0 - E[j])
    q, l = h0(fq, neg), h0(fl, neg)
    q_star, l_star = q - chi(fq), l - chi(fl)
    if q_star < 0 or l_star < 0:
        raise ArithmeticError(f"negative h1 in bounds for {f!r}")
    return MuBounds(q=q, l=l, q_star=q_star, l_star=l_star, h=h,
                    h_next=h0(f + E0, neg), index=j)


def scalar_deficient(f, neg):
    b = scalar_ql_bounds(f, neg)
    return b.q == 0 or b.l == 0 or b.q_star > 0 or b.l_star > 0


def test_ql_bounds_worked_example(case_iv):
    f = DivisorClass((3, 1, 0, 2, 1, 1, 0))
    b = ql_bounds(f, case_iv.neg)
    assert b.index == 3
    assert b.q == 1
    assert b.q_star == 0
    assert b.l_star == 0


def test_ql_bounds_e0(case_iv):
    b = ql_bounds(E0, case_iv.neg)
    assert b.l == 1   # one section through the residual point class
    assert b.q == 2   # pencil of lines through a point
    assert b.h == 3 and b.h_next == 6


def test_all_39_starred_counts_vanish(case_iv):
    gens = nef_generators(case_iv.neg)
    for f in gens.pared:
        b = ql_bounds(f, case_iv.neg)
        assert b.q_star == 0 and b.l_star == 0


def test_bounds_require_effective(case_iv):
    with pytest.raises(ValueError):
        ql_bounds(DivisorClass((1, 1, 1, 1, 1, 0, 0)) - E0 - E0, case_iv.neg)


def test_bound_consistency_random(case_iv, general):
    # the expected kernel/cokernel under maximal rank sit inside the bounds
    for neg in (case_iv.neg, general.neg):
        for f in nef_generators(neg).pared:
            b = ql_bounds(f, neg)
            assert max(0, b.h_next - 3 * b.h) <= b.q_star + b.l_star  # cokernel
            assert max(0, 3 * b.h - b.h_next) >= b.l  # kernel


def test_certify_39(case_iv):
    gens = nef_generators(case_iv.neg)
    for f in gens.pared:
        cert = certify(f, case_iv.neg)
        assert cert.status is Status.SURJECTIVE
        assert cert.reason == "qstar+lstar=0"
    with pytest.raises(TypeError):  # certify takes the class and the NegSet only
        certify(gens.pared[0], case_iv.neg, gens)


def test_certify_zero(case_iv):
    cert = certify(ZERO, case_iv.neg)
    assert cert.status in (Status.SURJECTIVE, Status.INJECTIVE)
    assert certified(cert, Status.SURJECTIVE, ZERO, case_iv.neg)
    assert certified(cert, Status.INJECTIVE, ZERO, case_iv.neg)


def test_certify_requires_nef(case_iv):
    with pytest.raises(ValueError):
        certify(DivisorClass((7, 2, 2, 6, 2, 2, 2)), case_iv.neg)


def test_certify_hard_class_on_vertical_a1(a1_vertical_neg):
    two_h = DivisorClass((10, 4, 4, 4, 4, 4, 4))
    cert = certify(two_h, a1_vertical_neg)
    assert cert.status is Status.SURJECTIVE
    assert cert.reason.startswith("rational-curve-step")
    assert certified(cert, Status.INJECTIVE, two_h, a1_vertical_neg)


def test_conic_shortcut():
    # on a fresh conic NegSet, and on one whose bounds table s_chain filled
    # with q/l rule certificates: conic support is decided before any of them
    cfg = distinct_case("conic")
    filled = fresh(cfg.neg)
    s_chain(filled, 6)
    table = _bounds_and_certs(filled)[1]
    assert any(table.values())
    for neg, classes in ((fresh(cfg.neg), [5 * E0]), (filled, [5 * E0, *table])):
        for f in classes:
            cert = certify(f, neg)
            assert cert.status is Status.SURJECTIVE
            assert cert.reason == "conic-support"


def direct_rules(b):
    """Test-local copy of the q/l rules on the bounds b of a nef class."""
    if b.q_star + b.l_star == 0:
        return Certificate(Status.SURJECTIVE, "qstar+lstar=0")
    if b.q == 0 and b.l == 0:
        return Certificate(Status.INJECTIVE, "q=l=0")
    return None


def direct_certificate(f, neg):
    """Test-local copy of the direct rules in ``certify``'s order: conic
    support, then the q/l rules on the scalar bounds of f."""
    if on_conic(neg):
        return Certificate(Status.SURJECTIVE, "conic-support")
    return direct_rules(scalar_ql_bounds(f, neg))


def test_certify_depends_on_call_history():
    """``certify``'s search reads stored certificates, so its answer depends
    on what was certified earlier on the same NegSet.  On the A5 chain,
    15E0 - 6(E1 + ... + E6) is inconclusive on a fresh NegSet, and a
    rational-curve step across 5E0 - 2(E1 + ... + E6) once 10E0 - 4(E1 +
    ... + E6) (a kernel transfer) or the whole configuration is certified:
    ``verify`` certifies in ascending order and relies on this."""
    neg = neg_from_nodal(tuple(E[i] - E[i + 1] for i in range(1, 6)))
    hard, easier = DivisorClass((15,) + (6,) * 6), DivisorClass((10,) + (4,) * 6)
    step = Certificate(Status.SURJECTIVE, "rational-curve-step:5 -2 -2 -2 -2 -2 -2")
    assert certify(hard, fresh(neg)) == Certificate(Status.INCONCLUSIVE,
                                                    "no criterion applied")
    first = fresh(neg)
    assert certify(easier, first).reason.startswith("kernel-transfer")
    assert certify(hard, first) == step
    verified = fresh(neg)
    assert verify_configuration(verified).ok
    assert certify(hard, verified) == step


def past_ql_criteria(f, neg):
    """Whether ``certify`` gets past the conic support and the q*/l* and q/l
    criteria on a configuration with -K nef."""
    if on_conic(neg) or not anticanonical_nef(neg):
        return False
    b = ql_bounds(f, neg)
    return b.q_star + b.l_star > 0 and (b.q > 0 or b.l > 0)


def good_part_sum(f, neg):
    """Reference copy of the retired ``good-part-sum`` certificate rule.

    At its former place in ``certify``, right after the q/l criteria, it
    returned the first pared generator p such that f - p is a nonzero nef
    class and p has q, l > 0 and q* = l* = 0, certifying f surjective.
    Returns that p, or None when the rule would not have fired.
    """
    if not past_ql_criteria(f, neg):
        return None
    for p in nef_generators(neg).pared:
        g = f - p
        if g == ZERO or g.degree < 0 or not is_nef(g, neg):
            continue
        bp = ql_bounds(p, neg)
        if bp.q > 0 and bp.l > 0 and bp.q_star + bp.l_star == 0:
            return p
    return None


def test_good_part_sum_never_fires_on_the_sweep(monkeypatch):
    # every class the cases i-iv and 296-marking sweep certifies past q=l=0,
    # that is every class it sends to the search, is one the retired rule
    # had no witness for
    reached = []

    def record(f, neg):
        cert = _search(f, neg)
        reached.append((f, neg, cert.reason.split(":")[0]))
        return cert

    monkeypatch.setattr("fatpoints.murank._search", record)
    for case in ("i", "ii", "iii", "iv"):
        assert verify_configuration(neg_from_distinct(FIXTURE_SPECS[case])).ok
    solved = {}
    for name, roots in sorted(dynkin_catalog().items()):
        assert all(r.ok for r in verify_all_markings(neg_from_nodal(roots), _cache=solved))
    assert Counter(rule for *_, rule in reached) == {"rational-curve-step": 46,
                                                      "kernel-transfer": 4}
    assert all(good_part_sum(f, neg) is None for f, neg, _ in reached)


def seeded_nef_sums():
    """2000 seeded (neg, f): f a sum of one to three multiples of pared
    generators, on the fixtures and the 88 distinct marked problems."""
    negs = [distinct_case(c).neg for c in FIXTURE_SPECS]
    negs += distinct_marking_problems(sorted(dynkin_catalog()))
    rng = random.Random(2005)
    for _ in range(2000):
        neg = rng.choice(negs)
        pared = nef_generators(neg).pared
        f = sum((rng.randint(1, 6) * rng.choice(pared) for _ in range(rng.randint(1, 3))),
                ZERO)
        yield neg, f


def test_good_part_sum_never_fires_on_random_sums():
    # few of the seeded sums get past the earlier rules at all
    reached = 0
    for neg, f in seeded_nef_sums():
        assert good_part_sum(f, neg) is None, (neg.nodal, f)
        reached += past_ql_criteria(f, neg)
    assert reached >= 1


# Reference copy of the depth-threaded certificate search that the one-level
# ``certify`` replaced.  The smaller class of a rational-curve step or of a
# kernel transfer went back through ``certify`` at depth 1, which read the
# cache, applied only the direct rules and cached only conclusive results.


def reference_certify(f, neg, *, _depth=0):
    cache = _bounds_and_certs(neg)[1]
    got = cache.get(f)
    if got is not None:
        return got
    if not is_nef(f, neg):
        raise ValueError(f"{f!r} is not nef on this configuration")
    cert = reference_certify_uncached(f, neg, _depth)
    if cert.status is not Status.INCONCLUSIVE or _depth == 0:
        cache[f] = cert
    return cert


def reference_surjective_certified(f, neg, *, _depth=0):
    cert = reference_certify(f, neg, _depth=_depth)
    if cert.status is Status.SURJECTIVE:
        return True
    if cert.status is Status.INJECTIVE:
        b = ql_bounds(f, neg)
        return b.h_next <= 3 * b.h
    return False


def reference_injective_certified(f, neg, *, _depth=0):
    cert = reference_certify(f, neg, _depth=_depth)
    if cert.status is Status.INJECTIVE:
        return True
    if cert.status is Status.SURJECTIVE:
        b = ql_bounds(f, neg)
        return b.h_next >= 3 * b.h
    return False


def reference_certify_uncached(f, neg, _depth):
    if on_conic(neg):
        return Certificate(Status.SURJECTIVE, "conic-support")
    b = ql_bounds(f, neg)
    if b.q_star + b.l_star == 0:
        return Certificate(Status.SURJECTIVE, "qstar+lstar=0")
    if b.q == 0 and b.l == 0:
        return Certificate(Status.INJECTIVE, "q=l=0")
    if not anticanonical_nef(neg):
        return Certificate(Status.INCONCLUSIVE, "no generator set available")
    if _depth < 1:
        for c in _rational_curve_candidates(neg):
            fp = f - c
            if fp.degree < 0 or not is_nef(fp, neg):
                continue
            if not step_allows(c, f, neg):
                continue
            if reference_surjective_certified(fp, neg, _depth=_depth + 1):
                return Certificate(
                    Status.SURJECTIVE,
                    f"rational-curve-step:{' '.join(map(str, c.display_row()))}")
        cert = reference_kernel_transfer(f, neg, _depth)
        if cert is not None:
            return cert
    return Certificate(Status.INCONCLUSIVE, "no criterion applied")


def reference_kernel_transfer(f, neg, _depth):
    for c in _rational_curve_candidates(neg):
        if f.dot(c) != 0 or h0(E0 - c, neg) != 0:
            continue
        red = reduce(f - c, neg)
        if not red.effective:
            return Certificate(
                Status.INJECTIVE,
                f"kernel-transfer:{' '.join(map(str, c.display_row()))} "
                "(complement has no sections)")
        if reference_injective_certified(red.nef_part, neg, _depth=_depth + 1):
            return Certificate(
                Status.INJECTIVE,
                f"kernel-transfer:{' '.join(map(str, c.display_row()))}")
    return None


def fresh(neg):
    """An equal NegSet with nothing cached."""
    return NegSet(neg.classes)


def test_certify_matches_depth_reference_on_the_sweep(monkeypatch):
    # cases i-iv and the 88 distinct marking problems, verified once with
    # each search on its own fresh NegSet: the same classes reach certify in
    # the same order, with equal certificates and equal bijection checks
    negs = [distinct_case(c).neg for c in ("i", "ii", "iii", "iv")]
    negs += distinct_marking_problems(sorted(dynkin_catalog()))
    side = {}

    def record(f, neg):
        cert = side["search"](f, neg)
        side["calls"].append((f, cert))
        return cert

    monkeypatch.setattr("fatpoints.murank.certify", record)
    rules = Counter()
    for neg in negs:
        runs = []
        for search in (certify, reference_certify):
            side.update(search=search, calls=[])
            problem = fresh(neg)
            runs.append((problem, side["calls"], verify_configuration(problem)))
        (new_neg, new_calls, new_report), (ref_neg, ref_calls, ref_report) = runs
        assert new_calls == ref_calls
        assert new_report == ref_report
        for f, cert in new_calls:
            assert (certified(cert, Status.SURJECTIVE, f, new_neg)
                    == reference_surjective_certified(f, ref_neg))
            assert (certified(cert, Status.INJECTIVE, f, new_neg)
                    == reference_injective_certified(f, ref_neg))
        rules.update(c.reason.split(":")[0] for c in _bounds_and_certs(new_neg)[1].values())
    assert rules["rational-curve-step"] == 46 and rules["kernel-transfer"] == 4


def test_certify_matches_depth_reference_on_random_sums():
    sides = {}  # neg -> (NegSet for certify, NegSet for the reference)
    for neg, f in seeded_nef_sums():
        if neg not in sides:
            sides[neg] = fresh(neg), fresh(neg)
        new_neg, ref_neg = sides[neg]
        assert certify(f, new_neg) == reference_certify(f, ref_neg), (neg.nodal, f)


def test_certify_matches_depth_reference_on_vertical_a1(a1_vertical_neg):
    two_h = DivisorClass((10, 4, 4, 4, 4, 4, 4))
    cert = certify(two_h, fresh(a1_vertical_neg))
    assert cert.reason.startswith("rational-curve-step")
    assert cert == reference_certify(two_h, fresh(a1_vertical_neg))


def test_kernel_transfer_complement_is_effective():
    """The premise of ``_kernel_transfer``: for a nef f != 0 and a candidate
    curve c with f.c = 0 and no line through it, f - c is effective.  Checked
    for every nonzero sum of one or two pared generators and every such c,
    on the 20 types, the fixtures with nef -K and the 88 marked problems;
    the zero class never reaches the search, a direct rule certifies it."""
    negs = [neg_from_nodal(r) for _, r in sorted(dynkin_catalog().items())]
    negs += [distinct_case(c).neg for c in FIXTURE_SPECS]
    negs += distinct_marking_problems(sorted(dynkin_catalog()))
    pairs = 0
    for neg in filter(anticanonical_nef, negs):
        gens = np.array(nef_generators(neg).pared, dtype=np.int64).reshape(-1, 7)
        i, j = np.triu_indices(len(gens))
        sums = np.unique(np.concatenate((gens, gens[i] + gens[j])), axis=0)
        sums = sums[(sums != 0).any(1)]
        cands = [c for c in _rational_curve_candidates(neg) if h0(E0 - c, neg) == 0]
        meet = (sums * _FORM) @ np.array(cands, dtype=np.int64).reshape(-1, 7).T == 0
        for a, b in zip(*meet.nonzero()):
            f = DivisorClass(sums[a].tolist())
            assert reduce(f - cands[b], neg).effective, (neg.nodal, f, cands[b])
            pairs += 1
        cert = certify(ZERO, neg)
        assert cert == direct_certificate(ZERO, neg)
        assert cert.reason == ("conic-support" if on_conic(neg) else "qstar+lstar=0")
    assert pairs > 1000


def test_s_chain_case_iv(case_iv):
    chain = s_chain(case_iv.neg)
    assert [len(l) for l in chain.levels] == [9, 9, 9, 9, 9, 9]
    want = {DivisorClass.from_display_row(r) for r in NINE_ROWS}
    assert set(chain.level(1)) == want
    # the deficiency of each: q vanishes
    for f in chain.level(1):
        assert ql_bounds(f, case_iv.neg).q == 0


def test_s_chain_a1_counts(a1_vertical_neg):
    chain = s_chain(a1_vertical_neg)
    assert [len(l) for l in chain.levels] == [58, 140, 150, 150, 150, 150]


def scalar_s_chain_levels(neg, depth):
    """Reference chain: one scalar deficiency test per candidate sum."""
    s1 = tuple(f for f in gamma(neg) if scalar_deficient(f, neg))
    levels = [s1]
    for _ in range(2, depth + 1):
        nxt = set()
        for a in levels[-1]:
            for b in s1:
                s = a + b
                if s not in nxt and scalar_deficient(s, neg):
                    nxt.add(s)
        levels.append(tuple(sorted(nxt)))
    return tuple(levels)


def test_s_chain_matches_scalar_loop():
    negs = [distinct_case(c).neg for c in ("i", "ii", "iii", "iv")]
    negs += [PointConfiguration.from_dynkin(n).neg for n in sorted(dynkin_catalog())]
    for neg in negs:
        assert s_chain(neg, 4).levels == scalar_s_chain_levels(neg, 4), neg.nodal


def test_deficient_rows_rejects_ineffective_like_ql_bounds(case_iv):
    f = DivisorClass((1, 1, 1, 1, 1, 0, 0)) - E0 - E0
    with pytest.raises(ValueError, match="is not effective"):
        _deficient_rows(np.array([E0, f]), case_iv.neg)


def test_s_chain_first_level_fixtures():
    # regression fixtures computed from this implementation
    want = {"i": 55, "ii": 37, "iii": 22, "general": 78, "conic": 57}
    for case, n in want.items():
        chain = s_chain(distinct_case(case).neg)
        assert len(chain.level(1)) == n, case


def test_stabilization_case_iv(case_iv):
    chain = s_chain(case_iv.neg)
    report = verify_stabilization(chain, case_iv.neg)
    assert report.ok
    assert (report.j, report.k) == (1, 1)
    assert all(c == f for f, c in report.witness.items())
    assert not report.inconclusive


def test_stabilization_a1(a1_vertical_neg):
    report = verify_stabilization(s_chain(a1_vertical_neg), a1_vertical_neg)
    assert report.ok
    assert (report.j, report.k) == (3, 2)
    assert not report.inconclusive
    kinds = {t.kind for t in report.tails}
    assert "surjective-induction" in kinds or "surjective-h1-persistence" in kinds
    assert "injective-bound" in kinds


def set_find_stabilization(chain):
    """Reference search: Python sets of level classes, one sum per
    (level member, level-1 class) pair."""
    s1 = chain.level(1)
    level_sets = [set(lv) for lv in chain.levels]
    for j in range(1, 4):
        for k in range(1, 3):
            if j + k + 1 > chain.depth:
                continue
            witness = {}
            for f in chain.level(j):
                kc = {c for c in s1 if f + k * c in level_sets[j + k - 1]}
                if len(kc) != 1:
                    break
                witness[f] = kc.pop()
            else:
                if all({f + i * c for f, c in witness.items()} == level_sets[j + i - 1]
                       for i in range(1, k + 2)):
                    return j, k, witness
    return None


def curves(neg):
    """The classes of NEG of square <= -2: the nodal roots and, for four
    collinear points, the line classes of square <= -3."""
    return [c for c in neg if c.dot(c) <= -2]


def distinct_marking_problems(names):
    """One NegSet per distinct verification problem of the named types'
    markings, as ``verify_all_markings`` dedupes them."""
    problems = {}
    for name in names:
        neg = neg_from_nodal(dynkin_catalog()[name])
        for h in e0_classes(neg):
            problem = change_of_marking(neg, h)
            problems.setdefault(canonical_key(curves(problem)), problem)
    return list(problems.values())


@pytest.fixture(scope="module")
def sweep_chains():
    """Depth-6 chains of cases i-iv and of the 88 distinct marking problems."""
    negs = [distinct_case(c).neg for c in ("i", "ii", "iii", "iv")]
    negs += distinct_marking_problems(sorted(dynkin_catalog()))
    assert len(negs) == 92
    return [s_chain(neg, 6) for neg in negs]


def test_find_stabilization_matches_set_reference(sweep_chains):
    # a chain of depth d is the first d levels of a deeper one
    found = set()
    for chain in sweep_chains:
        for depth in (3, 4, 5, 6):
            cut = SChain(levels=chain.levels[:depth], gamma=chain.gamma, depth=depth)
            got, want = _find_stabilization(cut), set_find_stabilization(cut)
            if want is None:
                assert got is None
            else:
                assert (got[0], got[1], list(got[2].items())) == \
                    (want[0], want[1], list(want[2].items()))
                found.add(want[:2])
    assert len(found) > 1


def test_find_stabilization_rejects_like_set_reference():
    # first chain: a has two witnesses (a + a and a + b are in level 2), so
    # (1, 1) fails though the first hits would reproduce levels 2 and 3;
    # second chain: level 3 is {b}, so the ray a + i*a leaves the levels
    a, b = DivisorClass((1, 0, 1, 0, 0, 0, 0)), DivisorClass((1, 1, 0, 0, 0, 0, 0))
    for levels in (((a, b), (a + a, a + b), (3 * a, a + a + b)), ((a,), (a + a,), (b,))):
        chain = SChain(levels=tuple(tuple(sorted(lv)) for lv in levels), gamma=(), depth=3)
        assert _find_stabilization(chain) is set_find_stabilization(chain) is None


def test_find_stabilization_packing_guard():
    # 6 * 11 leaves the packing range; no chain s_chain builds gets there
    big = DivisorClass((11, 0, 0, 0, 0, 0, 0))
    chain = SChain(levels=((big,), (2 * big,), (3 * big,)), gamma=(), depth=3)
    with pytest.raises(ValueError, match="packing range"):
        _find_stabilization(chain)


def test_find_stabilization_does_no_class_arithmetic(monkeypatch, sweep_chains):
    def refuse(*args):
        raise AssertionError("DivisorClass arithmetic in the stabilization search")

    want = [set_find_stabilization(chain) for chain in sweep_chains]
    for name in ("__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(DivisorClass, name, refuse)
    assert [_find_stabilization(chain) for chain in sweep_chains] == want


def every_sum_levels(neg, depth):
    """Reference chain: the level loop that tests every distinct sum with
    ``_deficient_rows``, as ``s_chain`` ran before it proved sums by h1
    persistence."""
    g = np.array(gamma(neg), dtype=np.int64).reshape(-1, 7)
    s1 = g[_deficient_rows(g, neg, cache_all=True)]
    levels = [s1]
    for _ in range(2, depth + 1):
        sums = (levels[-1][:, None] + s1[None]).reshape(-1, 7)
        sums = sums[np.lexsort(sums.T[::-1])]
        fresh_row = np.ones(len(sums), dtype=bool)
        fresh_row[1:] = (sums[1:] != sums[:-1]).any(1)
        sums = sums[fresh_row]
        levels.append(sums[_deficient_rows(sums, neg)])
    return tuple(tuple(DivisorClass(r) for r in lv.tolist()) for lv in levels)


def every_marking_problem(name):
    """NEG of the named type under each of its markings, duplicates kept."""
    neg = neg_from_nodal(dynkin_catalog()[name])
    return [change_of_marking(neg, h) for h in e0_classes(neg)]


def test_s_chain_matches_every_sum_loop_in_every_marking():
    """Pruned levels equal the test-every-sum levels at depth 6 on the six
    distinct fixtures and on all 20 types in every marking (296 problems,
    relabelled copies included, since the pivot's tie-break follows the
    labels).  Budget: about 12 s on a 2-core Xeon VM."""
    negs = [distinct_case(c).neg for c in ("i", "ii", "iii", "iv", "general", "conic")]
    for name in sorted(dynkin_catalog()):
        negs += every_marking_problem(name)
    assert len(negs) == 302
    for neg in negs:
        neg = fresh(neg)
        got = s_chain(neg, 6).levels
        assert got == every_sum_levels(neg, 6), neg.nodal


def distinct_patterns():
    """Every labelled pattern of six distinct points: each set of lines
    through 3 or 4 of the points, any two sharing at most one point, and the
    six on a conic."""
    lines = [frozenset(s) for r in (3, 4) for s in itertools.combinations(range(1, 7), r)]
    specs = [DistinctSpec(six_on_conic=True)]

    def grow(chosen, start):
        specs.append(DistinctSpec(collinear=tuple(chosen)))
        for i in range(start, len(lines)):
            if all(len(lines[i] & s) <= 1 for s in chosen):
                grow(chosen + [lines[i]], i + 1)

    grow([], 0)
    return specs


def census_negs():
    """The labelled configurations with nef -K: every distinct-point pattern
    that has one, then each catalog type as built and in every marking."""
    negs = [neg for neg in map(neg_from_distinct, distinct_patterns())
            if anticanonical_nef(neg)]
    for name in sorted(dynkin_catalog()):
        negs += [neg_from_nodal(dynkin_catalog()[name])] + every_marking_problem(name)
    return negs


def pairwise_gamma(neg):
    """Reference gamma with the pairwise filter: drop each pared generator f
    with f - p nonzero and nef for some pared generator p, every pair
    decided at once from the pairings with NEG."""
    pared = nef_generators(neg).pared
    p = int_rows(pared)
    meet = p @ (int_rows(neg.classes) * _FORM).T
    rest = (p[:, None, 0] >= p[None, :, 0]) & (meet[:, None] >= meet[None]).all(2)
    rest &= (p[:, None] != p[None]).any(2)  # f - p nonzero
    return tuple(itertools.compress(pared, (~rest.any(1)).tolist()))


def three_pool_candidates(neg):
    """Reference ``_rational_curve_candidates``: NEG, then the genus-0 classes
    of the union of the pared generators and the nef members of the orbits
    of E0 and E0 - E1, sorted, without ZERO and without repeats."""
    def nef_orbit(seed):
        classes, rows = orbit_rows(seed)
        return itertools.compress(classes, nef_rows(rows, neg).tolist())

    pool = set(nef_generators(neg).pared).union(nef_orbit(E0), nef_orbit(E0 - E[1]))
    cands = list(neg.classes)
    cands += [c for c in sorted(pool) if c != ZERO and arithmetic_genus(c) == 0]
    return tuple(dict.fromkeys(cands))


def four_check_step_allows(c, target, neg):
    """Reference ``step_allows``, which also checked that c has genus 0, that
    h0(E0 - c) = 2 - deg c at degree <= 2, and that c^2 >= 0 above."""
    if arithmetic_genus(c) != 0:
        return False
    if c.degree <= 2:
        return h0(E0 - c, neg) == 2 - c.degree and target.dot(c) >= 0
    return c.dot(c) >= 0 and target.dot(c) >= min(
        max(c.dot(E[j]), c.dot(E0 - E[j])) for j in plane_point_indices(neg))


def test_census_needs_no_candidate_filter():
    """On every configuration with nef -K, ``gamma``, the candidate curves and
    ``step_allows`` equal the filters they replaced (the references above):
    the pairwise test removes no pared generator, the nef classes of the
    orbits of E0 and E0 - E1 are pared already, and every candidate c of
    degree <= 2 has h0(E0 - c) = 2 - deg c (one above is a nef generator),
    so a line contains c exactly when deg c < 2.

    Why this census covers every input: a configuration with nef -K is a
    marking of one of 21 root types of E6, the 20 catalog types and general
    points (Harbourne, Trans. AMS 349, 1997).  Its NEG is the catalog NEG of
    its type moved by an element of W(E6), an isometry fixing K that takes
    some nef class of the orbit of E0 to E0.  Nefness, paring, genus and the
    two orbits are W(E6)-invariant, but h0(E0 - c), the degree and the
    pairing bound read E0, which W(E6) moves, so the census takes every type
    in every nef marking (``every_marking_problem``, 296 problems).  A
    relabelling of the points fixes E0 and permutes E1, ..., E6, carrying
    the candidates and the usable indices along, so one labelling per
    marking is enough.  The census adds the 20 catalog labellings and the
    272 labelled distinct-point patterns with nef -K (a line through 4
    points makes -K not nef): 588 problems, 393 distinct NEG sets, each
    checked once.  Both versions of ``step_allows`` read the target only
    through t = target.c and hold exactly when t reaches a bound in
    0..deg c (or never), so each candidate c is checked at one target per
    value of t clipped to -1..deg c + 1, among the pared generators f and
    the sums f + c.  About 4-5 s on a 2-core Intel Xeon VM.
    """
    negs = census_negs()
    assert len(negs) == 588 and len(set(negs)) == 393
    checked = 0
    for neg in dict.fromkeys(negs):
        assert gamma(neg) == pairwise_gamma(neg), neg.nodal
        cands = _rational_curve_candidates(neg)
        assert cands == three_pool_candidates(neg), neg.nodal
        # the line test of ``_kernel_transfer``, at every degree
        assert all((h0(E0 - c, neg) != 0) == (c.degree < 2) for c in cands), neg.nodal
        gens = nef_generators(neg).pared
        rows = int_rows(gens)
        for c, meet in zip(cands, ((rows * _FORM) @ int_rows(cands).T).T):
            pairings = np.clip(np.concatenate((meet, meet + c.dot(c))), -1, c.degree + 1)
            for i in np.unique(pairings, return_index=True)[1].tolist():
                target = gens[i] if i < len(gens) else gens[i - len(gens)] + c
                assert (step_allows(c, target, neg)
                        == four_check_step_allows(c, target, neg)), (neg.nodal, c, target)
                checked += 1
    assert checked == 90843


def witness_search(base, step, neg, j):
    """Reference witness search of the injective tail, which ``murank``
    dropped for the step alone: for D = Ej and E0 - Ej, the first of the
    step and the pared generators W with step.W <= 0 and
    (base + step - D).W < 0, or None."""
    pool = [w for w in (step,) + nef_generators(neg).pared if step.dot(w) <= 0]
    return [next((w for w in pool if shifted.dot(w) < 0), None)
            for shifted in (base + step - E[j], base + step - E0 + E[j])]


def test_census_rays_need_no_tail_search():
    """On every configuration with nef -K, the generality the ray tails
    dropped changes nothing: every level-1 class has genus 0 (so the steps
    need no genus check and ``s_chain`` no rational mask), the pivot of
    every ray member F + i*C is that of F + C (``stable_pivot`` returns it
    with i_stab = 1), which the tails read as ``ql_bounds(F + C).index``
    and name in their detail, and the witness search of the injective tail finds
    the step or nothing, never another class.

    Why this census covers every input: a configuration with nef -K is a
    marking of one of 21 root types of E6, the 20 catalog types and general
    points (Harbourne, Trans. AMS 349, 1997).  Its NEG is the catalog NEG of
    its type moved by an element of W(E6), an isometry fixing K that takes
    some nef class of the orbit of E0 to E0.  Genus and the pared
    generators are W(E6)-invariant, but deficiency, the pivot and the
    pairings with Ej and E0 - Ej read the marking, so the census takes every
    type in every nef marking, as ``census_negs`` does: the 296 (type,
    marking) problems with their relabelled copies, since the pivot's
    tie-break follows the labels, the 20 catalog labellings and the 272
    labelled distinct-point patterns (393 distinct NEG sets).  On each ray
    the usable indices where F + C has its largest multiplicity are among
    those where C has its largest, so every F + i*C has its largest
    multiplicity at the same indices and keeps its pivot under any order of
    tie-break, that is, under any labelling.  Depth >= 6 adds no ray:
    ``_find_stabilization`` tries the same (j, k) pairs, j <= 3 and k <= 2,
    at every depth >= 6 and reads levels <= 6 only, so the rays at depths
    1-6 are all the rays.  A chain of depth d is the depth-6 chain cut to d
    levels.  The named 380 problems (the 20
    types, the 88 marked problems of the sweep and the 272 patterns) have
    15,769 rays.  About 3-4 s on a 2-core Intel Xeon VM.
    """
    negs = census_negs()
    rays, kinds = {}, Counter()
    for neg in dict.fromkeys(negs):
        chain = s_chain(neg, 6)
        assert all(arithmetic_genus(c) == 0 for c in chain.level(1)), neg.nodal
        if on_conic(neg):
            continue
        rays[neg] = 0
        usable = plane_point_indices(neg)
        for depth in range(1, 7):
            cut = SChain(levels=chain.levels[:depth], gamma=chain.gamma, depth=depth)
            found = _find_stabilization(cut) if all(cut.levels) else None
            for f, c in (found[2] if found else {}).items():
                first = f + c
                j = int(_pivots(int_rows([first]), neg)[0])
                assert stable_pivot(f, c, neg) == (j, 1), (neg.nodal, f, c)
                assert ql_bounds(first, neg).index == j
                tails = (murank._h1_persistence_tail(f, c, neg, depth - found[0]),
                         murank._injective_tail(f, c, neg))
                for tail in filter(None, tails):
                    assert tail.detail.endswith(f"pivot {j}"), (neg.nodal, f, c)
                    kinds[tail.kind] += 1
                top = max(c[b] for b in usable)
                assert all(c[b] == top for b in usable if first[b] == first[j]), (f, c)
                assert all(w in (c, None) for w in witness_search(f, c, neg, j)), (f, c)
                rays[neg] += 1
    assert (len(rays), sum(rays.values())) == (351, 16689)
    assert kinds.keys() == {"surjective-h1-persistence", "injective-bound"}, kinds
    named = ([neg_from_nodal(r) for _, r in sorted(dynkin_catalog().items())]
             + distinct_marking_problems(sorted(dynkin_catalog()))
             + negs[:272])  # census_negs lists the distinct-point patterns first
    assert len(named) == 380 and sum(neg in rays for neg in named) == 322
    assert sum(rays.get(neg, 0) for neg in named) == 15769


def test_tails_name_the_pivot_of_the_first_member(general):
    """The tails take their pivot from the stored bounds of base + step.  On
    every ray of a chain base has that pivot too (the census above), so
    rays from ZERO, whose pivot is 1 on general points, tell the two apart:
    a line E0 - E2 and a cubic through the six points, double at p6."""
    neg = fresh(general.neg)
    line = DivisorClass.from_display_row((1, 0, -1, 0, 0, 0, 0))
    cubic = DivisorClass.from_display_row((3, -1, -1, -1, -1, -1, -2))
    assert [ql_bounds(f, neg).index for f in (ZERO, line, cubic)] == [1, 2, 6]
    tail = murank._h1_persistence_tail(ZERO, line, neg, 1)
    assert (tail.kind, tail.start) == ("surjective-h1-persistence", 1)
    assert tail.detail.endswith("pivot 2")
    tail = murank._injective_tail(ZERO, cubic, neg)
    assert tail.kind == "injective-bound" and tail.detail.endswith("pivot 6")


def pruned_candidates(neg, depth, monkeypatch):
    """(candidates, proven) of each level >= 2: the distinct sums
    ``s_chain`` built, and those it never passed to ``_deficient_rows``."""
    tested = []
    real = murank._deficient_rows

    def recording(f, neg, cache_all=False):
        tested.append(f)
        return real(f, neg, cache_all)

    monkeypatch.setattr(murank, "_deficient_rows", recording)
    chain = s_chain(neg, depth)
    monkeypatch.setattr(murank, "_deficient_rows", real)
    assert len(tested) == depth  # gamma, then one call per level
    candidates, proven = [], []
    for i in range(2, depth + 1):
        cands = {a + b for a in chain.level(i - 1) for b in chain.level(1)}
        seen = {DivisorClass(r) for r in tested[i - 1].tolist()}
        assert seen <= cands
        candidates.append(cands)
        proven.append(cands - seen)
    return chain, candidates, proven


def test_pruned_candidates_are_not_deficient(monkeypatch, case_iv, a1_vertical_neg):
    """Every sum S the h1-persistence lemma proves is non-deficient by the
    scalar ``ql_bounds`` on a fresh NegSet, and meets the lemma's
    hypotheses: S = A + C for a genus-0 level-1 class C and a non-deficient
    candidate A of the level below with the pivot j of S, and
    (S - D).C >= -1 for D = Ej, E0 - Ej.  At depth 5 on case iv, A1
    (vertical), the one E6 marking (one level-1 class, so nothing to prove)
    and a D5 marking.  Level 2 is tested whole."""
    def good(b):
        return b.q > 0 and b.l > 0 and b.q_star == b.l_star == 0

    total = 0
    d5 = max(every_marking_problem("D5"), key=lambda neg: len(s_chain(neg, 2).level(1)))
    for neg in (case_iv.neg, a1_vertical_neg, every_marking_problem("E6")[0], d5):
        chain, candidates, proven = pruned_candidates(fresh(neg), 5, monkeypatch)
        assert not proven[0]
        ref = fresh(neg)
        rational = [c for c in chain.level(1) if arithmetic_genus(c) == 0]
        for below, level in zip(candidates, proven[1:]):
            for f in level:
                b = ql_bounds(f, ref)
                assert good(b), (neg.nodal, f)
                j = b.index
                assert any(f - c in below and good(ql_bounds(f - c, ref))
                           and ql_bounds(f - c, ref).index == j
                           and (f - E[j]).dot(c) >= -1 and (f - E0 + E[j]).dot(c) >= -1
                           for c in rational), (neg.nodal, f)
        total += sum(map(len, proven))
    assert total > 10000


@pytest.mark.parametrize("change, proven", [
    ({}, True),
    ({"c1": (0, 0, 1, 0, 0, 0, 0)}, True),  # (S - (E0 - Ej)).C = -1 exactly
    ({"c1": (0, 0, 1, 0, 0, 0, 0), "j": 2}, True),  # (S - Ej).C = -1 exactly
    ({"a_good": False}, False),
    ({"a_pivot": 2}, False),
    ({"c1": (0, 0, 2, 0, 0, 0, 0)}, False),  # (S - (E0 - Ej)).C = -2
    ({"c1": (0, 0, 2, 0, 0, 0, 0), "j": 2}, False),  # (S - Ej).C = -2
])
def test_proven_needs_every_hypothesis(change, proven):
    """``_proven`` on a hand-built state: the last level has the candidates
    F = A' + C (a member) and A = A' + C1 (good), and the next level's
    candidate S = F + C1 = A + C is proven only when A is good with the
    pivot j of S and (S - D).C >= -1 for D = Ej, E0 - Ej.
    The rows need not be nef: the arithmetic alone is under test."""
    arg = {"c1": (1, 0, 0, 1, 0, 0, 0), "j": 1, "a_good": True, "a_pivot": None,
           **change}
    s1 = np.array([(1, 0, 1, 0, 0, 0, 0), arg["c1"]])
    last = np.array([1, 1, 0, 0, 0, 0, 0]) + s1  # rows A' + s1[c]: F, A
    good = np.array([False, arg["a_good"]])
    j = arg["j"]
    prev = murank._Built(row=np.array([0, 1]), pivot=np.array([j, arg["a_pivot"] or j]),
                         good=good)
    sums = [tuple(m + c0) for m in last[~good] for c0 in s1]
    cands = sorted(set(sums))
    got = murank._proven(prev, last[~good], s1,
                         row=np.array([cands.index(x) for x in sums]),
                         pivot=np.full(len(cands), j))
    assert np.flatnonzero(got).tolist() == [cands.index(tuple(last[0] + s1[1]))] * proven


def test_deep_levels_match_unique_reference():
    # depth 13 on the A1 markings: level entries leave the key packing range
    top = 0
    for neg in distinct_marking_problems(["A1"]):
        g = np.array(gamma(neg), dtype=np.int64).reshape(-1, 7)
        s1 = g[_deficient_rows(g, neg)]
        want = [s1]
        for _ in range(2, 14):
            sums = np.unique((want[-1][:, None] + s1[None]).reshape(-1, 7), axis=0)
            want.append(sums[_deficient_rows(sums, neg)])
        got = s_chain(neg, 13).levels
        assert got == tuple(tuple(DivisorClass(r) for r in lv.tolist()) for lv in want)
        top = max(top, *(int(lv.max()) for lv in want if lv.size))
    assert top >= PACK_ENTRY_BOUND


def test_verify_configuration_cases():
    for case in ("i", "ii", "iii", "iv", "general"):
        rep = verify_configuration(distinct_case(case).neg)
        assert rep.ok, case
        assert rep.method == "chain"
    rep = verify_configuration(distinct_case("conic").neg)
    assert rep.ok and rep.method == "conic"


def test_verify_four_collinear_conic_supported():
    from fatpoints.config import DistinctSpec, neg_from_distinct
    neg = neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))
    rep = verify_configuration(neg)
    assert rep.ok and rep.method == "conic"


def test_reversed_vertical_root_presentation():
    # same surface as the E1-E2 realization with the two points swapped;
    # the auxiliary index must avoid the infinitely near point (index 1)
    neg = neg_from_nodal((E[2] - E[1],))
    assert plane_point_indices(neg) == (2, 3, 4, 5, 6)
    H = DivisorClass((5, 2, 2, 2, 2, 2, 2))
    b = ql_bounds(H, neg)
    assert b.index == 2
    assert b.q == 0 and b.l == 0
    chain = s_chain(neg)
    assert [len(l) for l in chain.levels] == [58, 140, 150, 150, 150, 150]
    rep = verify_configuration(neg)
    assert rep.ok


def test_e0_classes(case_iv, general):
    assert len(e0_classes(general.neg)) == 72
    four_a1 = neg_from_nodal(dynkin_catalog()["4A1"])
    assert len(e0_classes(four_a1)) == 17
    for neg in (case_iv.neg, general.neg, four_a1):
        assert E0 in e0_classes(neg)


def test_exceptional_configuration_identity(general):
    cfg = exceptional_configuration(E0, general.neg)
    assert cfg[0] == E0
    assert set(cfg[1:]) == set(E[1:])


def test_exceptional_configuration_quadratic(general):
    h = DivisorClass((2, 1, 1, 1, 0, 0, 0))
    cfg = exceptional_configuration(h, general.neg)
    want = {E[4], E[5], E[6],
            DivisorClass((1, 0, 1, 1, 0, 0, 0)),
            DivisorClass((1, 1, 0, 1, 0, 0, 0)),
            DivisorClass((1, 1, 1, 0, 0, 0, 0))}
    assert set(cfg[1:]) == want
    # pairwise orthogonal and the marking identity holds
    total = ZERO
    for c in cfg[1:]:
        total = total + c
    assert 3 * h - total == MINUS_K


def test_exceptional_configuration_ordering(a1_vertical_neg):
    from fatpoints.cones import reduce as reduce_class
    cfg = exceptional_configuration(E0, a1_vertical_neg)
    order = cfg[1:]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not reduce_class(order[j] - order[i], a1_vertical_neg).effective


def test_exceptional_configuration_rejects(general):
    with pytest.raises(ValueError):
        exceptional_configuration(2 * E0, general.neg)


def test_verify_all_markings_4a1():
    four_a1 = neg_from_nodal(dynkin_catalog()["4A1"])
    reports = list(verify_all_markings(four_a1))
    assert len(reports) == 17
    assert all(r.ok for r in reports)


def test_marking_path_transports_neg(monkeypatch):
    def rebuild(nodal):
        raise AssertionError("a marked problem was rebuilt from its nodal roots")

    monkeypatch.setattr("fatpoints.config.neg_from_nodal", rebuild)
    monkeypatch.setattr("fatpoints.murank.neg_from_nodal", rebuild, raising=False)
    four_a1 = neg_from_nodal(dynkin_catalog()["4A1"])
    assert all(r.ok for r in verify_all_markings(four_a1))


#: Distinct points with four on a line: NEG holds a -3 line class.
FOUR_COLLINEAR_SPECS = (DistinctSpec(collinear=((1, 2, 3, 4),)),
                        DistinctSpec(collinear=((1, 2, 3, 4), (1, 5, 6))))


def test_change_of_marking_matches_nodal_rebuild():
    """Transported NEG equals NEG rebuilt from the transported nodal roots."""
    pairs = 0
    for name, roots in sorted(dynkin_catalog().items()):
        neg = neg_from_nodal(roots)
        for h in e0_classes(neg):
            problem = change_of_marking(neg, h)
            assert problem == neg_from_nodal(problem.nodal), (name, h)
            pairs += 1
    assert pairs == 296


def test_neg_determined_by_nodal_and_other():
    """NEG is its curves of square <= -2 (``curves``) and the exceptional
    classes meeting them all >= 0, in every marking: the premise of the
    marking dedupe key."""
    bases = ([neg_from_distinct(s) for s in FIXTURE_SPECS.values()]
             + [neg_from_nodal(r) for r in dynkin_catalog().values()]
             + [neg_from_distinct(s) for s in FOUR_COLLINEAR_SPECS])
    checked = 0
    for base in bases:
        for h in e0_classes(base):
            neg = change_of_marking(base, h)
            known = curves(neg)
            survivors = {e for e in exceptional_classes()
                         if all(e.dot(c) >= 0 for c in known)}
            assert set(neg.classes) == set(known) | survivors, (base, h)
            checked += 1
    assert checked == 591  # 252 fixture + 296 catalog + 43 four-collinear markings


def reduce_companion_order(h, neg):
    """Reference marking order: repeatedly the least companion that no
    other must precede, each difference tested by a scalar ``reduce``."""
    remaining = sorted(c for c in exceptional_classes() if c.dot(h) == 0)
    ordered = []
    while remaining:
        choice = next(a for a in remaining
                      if all(not reduce(b - a, neg).effective for b in remaining if b != a))
        ordered.append(choice)
        remaining.remove(choice)
    return (h,) + tuple(ordered)


def test_root_table_matches_scalar_reduction():
    """The root table and the companion order it gives equal the scalar
    reductions they replaced, on every marking of the catalog types, cases
    i-iv, general and conic points, and four collinear points (-K not nef)."""
    bases = ([(name, neg_from_nodal(r)) for name, r in sorted(dynkin_catalog().items())]
             + [(name, neg_from_distinct(s)) for name, s in sorted(FIXTURE_SPECS.items())]
             + [("collinear ((1,2,3,4),)", neg_from_distinct(FOUR_COLLINEAR_SPECS[0]))])
    pairs = Counter()
    for name, base in bases:
        for h in e0_classes(base):
            assert exceptional_configuration(h, base) == reduce_companion_order(h, base), (name, h)
            for neg in (base, change_of_marking(base, h)):
                want = {r for r in all_roots() if reduce(r, neg).effective}
                assert effective_roots(neg) == want, (name, h)
            pairs[name in dynkin_catalog()] += 1
    assert (pairs[True], pairs[False]) == (296, 252 + 25)


def test_marking_layer_reduces_no_class(monkeypatch):
    """Markings, plane indices and the conic test read the root table alone."""
    def scalar(*args):
        raise AssertionError("the marking layer called a scalar reduction")

    for target in ("fatpoints.cones.reduce", "fatpoints.cones.h0",
                   "fatpoints.murank.reduce", "fatpoints.murank.h0"):
        monkeypatch.setattr(target, scalar)
    pairs = 0
    for roots in dynkin_catalog().values():
        neg = neg_from_nodal(roots)
        for h in e0_classes(neg):
            problem = change_of_marking(neg, h)
            plane_point_indices(problem)
            on_conic(problem)
            pairs += 1
        plane_point_indices(neg)
        on_conic(neg)
    assert pairs == 296


def test_injectivity_class():
    assert injectivity_class(ZERO)
    assert injectivity_class(DivisorClass((5, 2, 2, 2, 2, 2, 2)))
    assert injectivity_class(DivisorClass((4, 2, 2, 1, 2, 1, 1)))  # permuted
    for m in range(0, 5):
        assert injectivity_class(m * DivisorClass((2, 1, 1, 1, 1, 0, 0)))
        assert injectivity_class(m * DivisorClass((3, 2, 1, 1, 1, 1, 1)))
    assert not injectivity_class(E0)
    assert not injectivity_class(DivisorClass((15, 6, 6, 6, 6, 6, 6)))
    for row in INJECTIVITY_SPORADIC_ROWS:
        assert injectivity_class(DivisorClass.from_display_row(row))


def test_monotone_generators():
    gens = monotone_nef_generators()
    want = {DivisorClass.from_display_row(r) for r in MONOTONE_19_ROWS}
    assert len(want) == 19
    assert set(gens) == want


def test_monotone_dimension_counts(general):
    for g in monotone_nef_generators():
        h = h0(g, general.neg)
        assert 2 * h >= g.degree + 1, g


def test_injectivity_list_dimension_counts(general):
    neg = general.neg
    checked = 0
    for row in INJECTIVITY_SPORADIC_ROWS:
        f = DivisorClass.from_display_row(row)
        if is_nef(f, neg):
            assert 2 * h0(f, neg) <= f.degree + 2
            checked += 1
    for m in range(0, 26):
        for base in (DivisorClass((2, 1, 1, 1, 1, 0, 0)),
                     DivisorClass((3, 2, 1, 1, 1, 1, 1))):
            f = m * base
            if is_nef(f, neg):
                assert 2 * h0(f, neg) <= f.degree + 2
                checked += 1
    assert checked >= 30


def test_deficient_matches_bounds(case_iv):
    gam = gamma(case_iv.neg)
    flagged = [f for f in gam if deficient(f, case_iv.neg)]
    assert len(flagged) == 9


def test_gamma_within_injectivity_theory(a1_vertical_neg):
    # the ray classes certified injective-forever are in the known list
    report = verify_stabilization(s_chain(a1_vertical_neg), a1_vertical_neg)
    for tail in report.tails:
        if tail.kind == "injective-bound":
            member = tail.base + tail.start * tail.step
            assert certified(certify(member, a1_vertical_neg), Status.INJECTIVE, member,
                             a1_vertical_neg)


def stable_pivot(base, step, neg):
    """Reference pivot of a ray, which ``murank`` dropped for the pivot of
    base + step: the eventual pivot index of base + i*step and the offset
    where it locks in.  Only usable indices compete.  Returns (index,
    i_stab >= 1), the index the pivot for every i >= i_stab: it is the
    argmax a of (step, base multiplicity, -index), which a tie of step
    multiplicities never unseats and a larger one overtakes from i_stab."""
    usable = [j - 1 for j in plane_point_indices(neg)]
    bm = base.multiplicities
    sm = step.multiplicities
    a = max(usable, key=lambda b: (sm[b], bm[b], -b))
    i_stab = 1
    for b in usable:
        if b == a or sm[a] == sm[b]:
            continue
        strict = b < a  # lower indices must be beaten strictly
        gap = bm[b] - bm[a]
        d = sm[a] - sm[b]
        need = gap // d + 1 if strict else -((-gap) // d)
        i_stab = max(i_stab, need)
    return a + 1, i_stab


@settings(max_examples=200, deadline=None)
@given(base=st.lists(st.integers(-4, 12), min_size=6, max_size=6),
       step=st.lists(st.integers(-2, 5), min_size=6, max_size=6))
def test_stable_pivot_matches_brute_force(base, step):
    """On every type and fixture, the index ``stable_pivot`` returns is the
    pivot (``_pivots``) of base + i*step for i = i_stab .. i_stab + 60, and
    not that of the member just before when i_stab > 1."""
    base, step = DivisorClass([5] + base), DivisorClass([1] + step)
    offsets = np.arange(61)[:, None]
    for name, neg in MARKING_BASES:
        j, i_stab = stable_pivot(base, step, neg)
        assert i_stab >= 1
        ray = np.array(base) + (i_stab + offsets) * np.array(step)
        assert (_pivots(ray, neg) == j).all(), (name, base, step)
        if i_stab > 1:
            before = np.array([base + (i_stab - 1) * step])
            assert _pivots(before, neg)[0] != j, (name, base, step)


def permutation_loop_canonical(nodal):
    """Reference canonical form: the least sorted relabelling of 720."""
    best = None
    for p in itertools.permutations(range(6)):
        cand = tuple(sorted(
            (c[0],) + tuple(c[1 + p[i]] for i in range(6)) for c in nodal))
        if best is None or cand < best:
            best = cand
    return best


@pytest.fixture(scope="module")
def marking_nodal_sets():
    """Nodal roots of all 296 (type, marking) pairs, in marking coordinates."""
    out = []
    for name in sorted(dynkin_catalog()):
        neg = neg_from_nodal(dynkin_catalog()[name])
        out.extend((name, change_of_marking(neg, h).nodal) for h in e0_classes(neg))
    assert len(out) == 296
    return out


def canonical_key(classes):
    """``_canonical_keys`` of one set of distinct classes."""
    return _canonical_keys(np.array(classes, dtype=np.int64).reshape(1, -1, 7))[0]


def test_canonical_problem_matches_permutation_loop(marking_nodal_sets):
    keys = set()
    for name, nodal in marking_nodal_sets:
        key = canonical_key(nodal)
        assert key == permutation_loop_canonical(nodal), name
        assert all(type(x) is int for row in key for x in row)
        keys.add(key)
    assert len(keys) == 88
    assert canonical_key(()) == permutation_loop_canonical(()) == ()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonical_problem_invariant_under_relabelling(marking_nodal_sets, data):
    _name, nodal = data.draw(st.sampled_from(marking_nodal_sets))
    perm = data.draw(st.permutations(range(1, 7)))
    relabelled = tuple(DivisorClass((c[0],) + tuple(c[perm[i]] for i in range(6)))
                       for c in nodal)
    assert canonical_key(relabelled) == canonical_key(nodal)


def scalar_exceptional_configuration(h, neg):
    """Reference marking: the scalar loop the marking table replaced, guards
    included; companions ordered by the root table one pair at a time."""
    if h.dot(h) != 1 or MINUS_K.dot(h) != 3 or not is_nef(h, neg):
        raise ValueError(f"{h!r} is not a nef marking class")
    cands = [c for c in exceptional_classes() if c.dot(h) == 0]
    assert len(cands) == 6
    assert all(a.dot(b) == 0 for a, b in itertools.combinations(cands, 2))
    assert 3 * h - sum(cands, ZERO) == MINUS_K
    roots = effective_roots(neg)
    remaining = sorted(cands)
    ordered = []
    while remaining:
        choice = next(a for a in remaining
                      if all(b - a not in roots for b in remaining if b != a))
        ordered.append(choice)
        remaining.remove(choice)
    return (h,) + tuple(ordered)


class KeyRecorder(dict):
    """A ``verify_all_markings`` cache that holds every key: it records the
    key of each marking, in order, and hands back a stub report, so no
    marked problem is built or verified."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __contains__(self, key):
        self.seen.append(key)
        return True

    def __getitem__(self, key):
        return murank.MarkingReport(marking=ZERO, ok=True, method="stub", report=None)


def batched_keys(neg):
    """(marking, canonical key) of every marking, as ``verify_all_markings``
    reads them."""
    cache = KeyRecorder()
    markings = [rep.marking for rep in verify_all_markings(neg, _cache=cache)]
    return list(zip(markings, cache.seen))


def check_marking_table(neg, against_loop=True):
    """``_markings`` and the batched keys of neg against the scalar reference
    (and, if asked, the 720-permutation loop); returns marking -> key."""
    want = tuple(h for h in orbit(E0).sorted() if is_nef(h, neg))
    classes, mats = murank._markings(neg)
    assert classes == e0_classes(neg) == want
    assert mats.shape == (len(want), 7, 7)
    keys = batched_keys(neg)
    assert [h for h, _ in keys] == list(want)
    for (h, key), mat in zip(keys, mats):
        marking = scalar_exceptional_configuration(h, neg)
        assert tuple(map(tuple, mat.tolist())) == marking
        assert exceptional_configuration(h, neg) == marking
        problem = NegSet(tuple(DivisorClass(x.dot(m) for m in marking) for x in neg))
        assert change_of_marking(neg, h) == problem
        assert canonical_key(curves(problem)) == key
        if against_loop:
            assert key == permutation_loop_canonical(curves(problem))
    return dict(keys)


#: The 20 catalog types and the six distinct fixtures.
MARKING_BASES = ([(name, neg_from_nodal(r)) for name, r in sorted(dynkin_catalog().items())]
                 + [(name, neg_from_distinct(s)) for name, s in sorted(FIXTURE_SPECS.items())])


def test_marking_table_matches_scalar_reference():
    """Every marking of the 20 types and six fixtures: the matrices equal the
    scalar loop, the batched keys the 720-permutation loop."""
    count = Counter()
    for name, neg in MARKING_BASES:
        count[name in dynkin_catalog()] += len(check_marking_table(neg))
    assert (count[True], count[False]) == (296, 252)


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(MARKING_BASES), perm=st.permutations(range(1, 7)))
def test_marking_table_under_relabelling(base, perm):
    """In a relabelled surface the table still equals the scalar reference,
    and the marking relabelled from h keeps the key of h."""
    name, neg = base
    moved = relabelled(neg, perm)
    keys = check_marking_table(moved, against_loop=False)
    for h, key in batched_keys(neg):
        assert keys[DivisorClass((h[0],) + tuple(h[perm[i]] for i in range(6)))] == key, name


def test_marking_classes_are_the_orbit_of_e0():
    """h^2 = 1 and -K.h = 3 force 1 <= a0 <= 5 (Cauchy-Schwarz) and so
    |ai| <= 4: in that box they are exactly the 72 classes of orbit(E0)."""
    tail = np.array(list(itertools.product(range(-4, 5), repeat=6)))
    sums, squares = tail.sum(1), (tail * tail).sum(1)
    found = set()
    for a0 in range(-5, 6):
        for row in tail[(a0 * a0 - squares == 1) & (3 * a0 - sums == 3)].tolist():
            found.add(DivisorClass([a0] + row))
    assert found == set(orbit(E0).elements)
    assert len(found) == 72


def test_marking_layer_builds_a_negset_per_new_problem(monkeypatch):
    """Over the 20 types with one cache, 88 marked NegSets for 296 markings;
    on general points (no class of square <= -2) 72 markings, one problem."""
    built = []

    def counting(classes):
        built.append(classes)
        return NegSet(classes)

    negs = [neg_from_nodal(r) for _, r in sorted(dynkin_catalog().items())]
    general = distinct_case("general").neg
    monkeypatch.setattr(murank, "NegSet", counting)
    cache = {}
    pairs = sum(len(list(verify_all_markings(neg, _cache=cache))) for neg in negs)
    assert (pairs, len(cache), len(built)) == (296, 88, 88)
    solved = {}
    reports = list(verify_all_markings(general, _cache=solved))
    assert (len(reports), list(solved), len(built)) == (72, [()], 89)
    assert all(r.ok for r in reports)


def test_marking_layer_makes_no_scalar_nef_call(monkeypatch):
    def scalar(*args):
        raise AssertionError("the marking layer called the scalar is_nef")

    monkeypatch.setattr("fatpoints.cones.is_nef", scalar)
    monkeypatch.setattr("fatpoints.murank.is_nef", scalar)
    pairs = 0
    for _, neg in MARKING_BASES:
        neg = NegSet(neg.classes)  # a fresh table
        keys = batched_keys(neg)
        for h, _key in keys:
            change_of_marking(neg, h)
        pairs += len(keys)
    assert pairs == 296 + 252


def test_cached_bounds_after_s_chain_match_scalar():
    """s_chain fills the bounds cache for gamma and every level member only,
    with exactly what the scalar reference computes on a fresh NegSet."""
    fresh = {c: (lambda c=c: distinct_case(c).neg) for c in ("i", "ii", "iii", "iv")}
    for name in sorted(dynkin_catalog()):
        fresh[name] = lambda name=name: PointConfiguration.from_dynkin(name).neg
    for name, make in fresh.items():
        neg = make()
        chain = s_chain(neg, 4)
        cached = _bounds_and_certs(neg)[0]
        members = {f for lv in chain.levels for f in lv}
        assert set(cached) == set(chain.gamma) | members, name
        other = make()
        for f, b in cached.items():
            assert repr(b) == repr(scalar_ql_bounds(f, other)), (name, f)


#: Cases i-iv and the 20 catalog types, for the bounds kernel checks.
BOUNDS_NEGS = {**{c: distinct_case(c).neg for c in ("i", "ii", "iii", "iv")},
               **{n: neg_from_nodal(r) for n, r in sorted(dynkin_catalog().items())}}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BOUNDS_NEGS)),
       scale=st.sampled_from((1, 1, 3, 2 ** 30, 10 ** 12)))
def test_ql_bounds_matches_scalar_reference(data, name, scale):
    # an effective class: a nonnegative sum of pared generators, scaled
    # (2**30 and 10**12 push entries past INT64_ENTRY_BOUND: object path),
    # plus a few NEG curves as fixed part
    neg = BOUNDS_NEGS[name]
    pared = nef_generators(neg).pared
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(pared), max_size=len(pared)))
    curves = data.draw(st.lists(st.sampled_from(neg.classes), max_size=3))
    assume(any(coeffs))
    f = scale * sum((c * g for c, g in zip(coeffs, pared)), ZERO) + sum(curves, ZERO)
    if scale > 3:
        assert max(map(abs, f)) >= INT64_ENTRY_BOUND
    assert ql_bounds(f, NegSet(neg.classes)) == scalar_ql_bounds(f, NegSet(neg.classes))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(BOUNDS_NEGS)),
       coeffs=st.lists(st.integers(-2, 12), min_size=7, max_size=7))
def test_ql_bounds_errors_match_scalar_reference(name, coeffs):
    # raw classes, many of them ineffective: same bounds or the same error
    neg = BOUNDS_NEGS[name]
    f = DivisorClass(coeffs)
    try:
        want = scalar_ql_bounds(f, NegSet(neg.classes))
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)) as got:
            ql_bounds(f, NegSet(neg.classes))
        assert str(got.value) == str(exc)
    else:
        assert ql_bounds(f, NegSet(neg.classes)) == want


def kernel_problems(a1_vertical_neg):
    """Cases i-iv, a conic configuration, the 88 distinct marking problems
    and the A1-vertical fixture, each as a fresh NegSet."""
    negs = [distinct_case(c).neg for c in ("i", "ii", "iii", "iv", "conic")]
    negs += distinct_marking_problems(sorted(dynkin_catalog())) + [a1_vertical_neg]
    assert len(negs) == 94
    return [fresh(neg) for neg in negs]


def test_kernel_certificates_match_direct_rules(a1_vertical_neg):
    """The bounds kernel stores a q/l rule certificate (None when no rule
    fires) for gamma and every level member, all nef, each equal to the
    rules on the scalar bounds of a NegSet where no chain was built, and on
    the conic problem too; there ``certify`` answers conic support for each."""
    reasons = Counter()
    conic = 0
    for neg in kernel_problems(a1_vertical_neg):
        chain = s_chain(neg, 6)
        certs = _bounds_and_certs(neg)[1]
        assert set(certs) == set(chain.gamma).union(*chain.levels), neg.nodal
        other = fresh(neg)
        for f, cert in list(certs.items()):
            assert is_nef(f, neg)
            assert cert == direct_rules(scalar_ql_bounds(f, other)), (neg.nodal, f)
            reasons[cert and cert.reason] += 1
            if on_conic(neg):
                assert certify(f, neg) == Certificate(Status.SURJECTIVE, "conic-support")
                conic += 1
    assert set(reasons) == {"qstar+lstar=0", "q=l=0", None}
    assert conic > 0


def test_s_chain_reduces_once_per_level(monkeypatch, case_iv):
    """Each ``_deficient_rows`` call reduces all its rows in one ``h0_rows``
    call: on a chain level, which is nef, f - Ej and f - (E0 - Ej); on a
    batch with a non-nef row, that row's f and f + E0 as well."""
    calls = Counter()
    real_h0_rows, real_deficient_rows = murank.h0_rows, murank._deficient_rows

    def counting_h0_rows(f, neg):
        calls["h0_rows"] += 1
        return real_h0_rows(f, neg)

    def counting_deficient_rows(f, neg, cache_all=False):
        calls["deficient"] += 1
        return real_deficient_rows(f, neg, cache_all)

    monkeypatch.setattr(murank, "h0_rows", counting_h0_rows)
    monkeypatch.setattr(murank, "_deficient_rows", counting_deficient_rows)
    negs = [PointConfiguration.from_dynkin(name).neg for name in ("E6", "D5", "A5")]
    for neg in negs + [case_iv.neg]:
        neg = fresh(neg)
        effective_roots(neg)  # the root table, one more h0_rows call, comes first
        calls.clear()
        s_chain(neg, 6)
        assert calls == {"deficient": 6, "h0_rows": 6}, neg.nodal
    neg = fresh(case_iv.neg)
    effective_roots(neg)
    c = min(neg.classes, key=lambda c: c.dot(c))
    rows = [MINUS_K, MINUS_K + 2 * c]
    assert [is_nef(f, neg) for f in rows] == [True, False]
    calls.clear()
    murank._deficient_rows(np.array(rows), neg, cache_all=True)
    assert calls == {"deficient": 1, "h0_rows": 1}


def test_verify_stabilization_checks_no_member_for_nef(monkeypatch, a1_vertical_neg):
    """Gamma and the level members are nef by construction: the kernel's
    stored certificates stand in for the scalar nef check."""
    checked = []
    real_is_nef = murank.is_nef
    monkeypatch.setattr(murank, "is_nef", lambda f, neg: checked.append(f) or real_is_nef(f, neg))
    for neg in kernel_problems(a1_vertical_neg):
        if on_conic(neg):
            continue
        chain = s_chain(neg, 6)
        checked.clear()
        assert verify_stabilization(chain, neg).ok
        assert not set(checked) & set(chain.gamma).union(*chain.levels), neg.nodal


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BOUNDS_NEGS)),
       scale=st.sampled_from((1, 1, 3, 2 ** 40)))
def test_deficient_rows_on_mixed_nef_rows_matches_scalar_reference(data, name, scale):
    """One call on rows that are nef (answered by Riemann-Roch) and rows
    that are not (reduced): bounds, deficiency and stored certificates as
    the scalar reference gives them, in int64 and at 2**40 (object)."""
    neg = BOUNDS_NEGS[name]
    pared = nef_generators(neg).pared
    rows = []
    for i in range(data.draw(st.integers(2, 5))):
        coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(pared),
                                    max_size=len(pared)).filter(any))
        nef_part = sum((c * g for c, g in zip(coeffs, pared)), ZERO)
        if i % 2:  # m*C with m*C^2 < -(scale*nef_part).C: not nef
            c = data.draw(st.sampled_from(neg.classes))
            rows.append(scale * nef_part + (scale * nef_part.dot(c) + 1) * c)
        else:  # nef for i = 0; later, nef or not by the curves drawn
            curves = data.draw(st.lists(st.sampled_from(neg.classes), max_size=2 * (i > 0)))
            rows.append(scale * nef_part + sum(curves, ZERO))
    nef = [is_nef(f, neg) for f in rows]
    assert nef[0] and not nef[1]
    kernel, ref = fresh(neg), fresh(neg)
    mask = _deficient_rows(np.array(rows, dtype=object), kernel, cache_all=True)
    assert mask.tolist() == [scalar_deficient(f, ref) for f in rows]
    bounds, certs = _bounds_and_certs(kernel)
    for f, is_nef_row in zip(rows, nef):
        assert bounds[f] == scalar_ql_bounds(f, ref)
        assert (f in certs) == is_nef_row
        if is_nef_row:
            assert certs[f] == direct_rules(scalar_ql_bounds(f, ref))
