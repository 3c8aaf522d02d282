"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every expected value is an exact integer; runtime budgets are
asserted where stated.
"""

import functools
import hashlib
import random
import time
from collections import Counter

import pytest

from fatpoints import oracle
from fatpoints.cones import GENERATOR_SEEDS, h0, is_nef, nef_generators, seed_orbit_union
from fatpoints.config import dynkin_catalog, dynkin_classify, anticanonical_nef, neg_from_nodal
from fatpoints.lattice import E0, ZERO, DivisorClass
from fatpoints.murank import (e0_classes, ql_bounds, s_chain, verify_all_markings,
                              verify_configuration, verify_stabilization)
from fatpoints.resolution import FatPointScheme, betti, hilbert
from fatpoints.weyl import orbit

from conftest import distinct_case
from test_cones import pared_39
from test_murank import NINE_ROWS, monotone_nef_generators


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {n}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            extra = f" ({detail})" if detail else ""
            print(f"\nACCEPTANCE {n}: PASS{extra} [{elapsed:.2f}s]")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def case_iv_neg():
    return distinct_case("iv").neg


@criterion(1)
def test_weyl_orbit_census():
    start = time.perf_counter()
    sizes = [len(orbit(seed)) for seed in GENERATOR_SEEDS]
    union = seed_orbit_union()
    elapsed = time.perf_counter() - start
    assert sizes == [72, 27, 216, 720, 216, 27, 1]
    assert len(union) == 1279
    assert elapsed < 1.0
    return f"sizes {sizes}, union 1279"


@criterion(2)
def test_case_iv_nef_generators(case_iv_neg):
    start = time.perf_counter()
    gens = nef_generators(case_iv_neg)
    elapsed = time.perf_counter() - start
    assert len(gens.raw) == 212
    assert len(gens.pared) == 39
    assert set(gens.pared) == pared_39()
    assert elapsed < 10.0
    return "raw 212, pared 39, table matches"


@criterion(3)
def test_case_iv_neg_classes(case_iv_neg):
    start = time.perf_counter()
    classes = case_iv_neg.classes
    elapsed = time.perf_counter() - start
    assert len(classes) == 13
    nodal = {DivisorClass((1, 1, 1, 1, 0, 0, 0)), DivisorClass((1, 1, 0, 0, 1, 1, 0)),
             DivisorClass((1, 0, 0, 1, 0, 1, 1)), DivisorClass((1, 0, 1, 0, 1, 0, 1))}
    pairs = {DivisorClass((1, 0, 0, 1, 1, 0, 0)), DivisorClass((1, 0, 1, 0, 0, 1, 0)),
             DivisorClass((1, 1, 0, 0, 0, 0, 1))}
    basis = set()
    for i in range(1, 7):
        v = [0] * 7
        v[i] = -1
        basis.add(DivisorClass(v))
    assert set(classes) == nodal | pairs | basis
    assert elapsed < 1.0
    return "13 classes"


@criterion(4)
def test_worked_mu_bound(case_iv_neg):
    f = DivisorClass((3, 1, 0, 2, 1, 1, 0))
    b = ql_bounds(f, case_iv_neg)
    assert b.q == 1
    assert b.q_star == 0
    return "q=1, q*=0"


@criterion(5)
def test_case_iv_first_level(case_iv_neg):
    chain = s_chain(case_iv_neg)
    want = {DivisorClass.from_display_row(r) for r in NINE_ROWS}
    assert set(chain.level(1)) == want
    report = verify_stabilization(chain, case_iv_neg)
    assert report.ok
    assert (report.j, report.k) == (1, 1)
    assert all(c == f for f, c in report.witness.items())
    return "9 classes, stabilization (j,k)=(1,1) with self step"


@criterion(6)
def test_worked_resolution(case_iv_neg):
    start = time.perf_counter()
    z = FatPointScheme(neg=case_iv_neg, multiplicities=(2, 2, 6, 2, 2, 2))
    prof = hilbert(z)
    table = betti(z)
    elapsed = time.perf_counter() - start
    assert [prof(t) for t in range(5, 11)] == [0, 1, 4, 11, 19, 30]
    assert prof.alpha == 6
    assert prof.sigma == 10
    assert table.t == {6: 1, 7: 1, 8: 3, 10: 2}
    assert table.s == {8: 1, 9: 3, 11: 2}
    assert elapsed < 1.0
    return "h, alpha, sigma, t, s all exact"


@criterion(7)
def test_dynkin_catalog():
    cat = dynkin_catalog()
    assert len(cat) == 20
    for name, roots in cat.items():
        assert dynkin_classify(roots) == name
        assert anticanonical_nef(neg_from_nodal(roots))
    return "20 types, round-trip, anticanonical class nef"


@criterion(8)
def test_type_a1_chain():
    neg = neg_from_nodal((DivisorClass((0, -1, 1, 0, 0, 0, 0)),))
    chain = s_chain(neg)
    counts = [len(lv) for lv in chain.levels[:5]]
    assert counts == [58, 140, 150, 150, 150]
    report = verify_stabilization(chain, neg)
    assert report.ok
    assert not report.inconclusive
    # the level counts force the stabilization pair: level 3 is strictly
    # larger than level 2, so the rays must start at level 3
    assert (report.j, report.k) == (3, 2)
    return f"counts {counts}, certified with (j,k)=(3,2)"


@criterion(9)
def test_type_4a1_markings():
    neg = neg_from_nodal(dynkin_catalog()["4A1"])
    assert len(e0_classes(neg)) == 17
    return "17 nef marking classes"


@criterion(10)
def test_dimension_counts():
    general = distinct_case("general").neg
    mono = monotone_nef_generators()
    assert len(mono) == 19
    for g in mono:
        assert 2 * h0(g, general) >= g.degree + 1
    sporadic = [ZERO,
                DivisorClass((4, 2, 2, 2, 1, 1, 1)), DivisorClass((5, 2, 2, 2, 2, 2, 2)),
                DivisorClass((6, 3, 3, 2, 2, 2, 2)), DivisorClass((8, 4, 3, 3, 3, 3, 3)),
                DivisorClass((10, 4, 4, 4, 4, 4, 4))]
    checked = 0
    for f in sporadic:
        if is_nef(f, general):
            assert 2 * h0(f, general) <= f.degree + 2
            checked += 1
    for m in range(0, 31):
        for base in (DivisorClass((2, 1, 1, 1, 1, 0, 0)),
                     DivisorClass((3, 2, 1, 1, 1, 1, 1))):
            f = m * base
            if is_nef(f, general):
                assert 2 * h0(f, general) <= f.degree + 2
                checked += 1
    return f"19 monotone generators and {checked} injectivity classes"


def _random_multiplicities(rng):
    while True:
        m = tuple(rng.randint(0, 6) for _ in range(6))
        if sum(m) <= 12:
            return m


@criterion(11)
def test_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20_240_607)
    vectors = [_random_multiplicities(rng) for _ in range(200)]
    cases = ["i", "ii", "iii", "iv", "general", "conic"]
    points = {c: oracle.fixture_points(c) for c in cases}
    negs = {c: distinct_case(c).neg for c in cases}
    checked_dims = 0
    checked_mu = 0
    for m in vectors:
        for case in cases:
            pts, neg = points[case], negs[case]
            z = FatPointScheme(neg=neg, multiplicities=m)
            prof = hilbert(z)
            for t in range(prof.sigma + 2):
                assert oracle.ideal_dim(pts, m, t) == prof(t), (case, m, t)
                checked_dims += 1
            for t in range(prof.sigma + 2):
                f = z.class_for_degree(t)
                if not is_nef(f, neg):
                    continue
                h = prof(t)
                hn = prof(t + 1) if t + 1 <= prof.sigma + 1 else h0(f + E0, neg)
                ker, cok = oracle.mu_rank_direct(pts, m, t)
                assert ker == max(0, 3 * h - hn), (case, m, t)
                assert cok == max(0, hn - 3 * h), (case, m, t)
                checked_mu += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    return (f"200 vectors on all 6 cases, {checked_dims} dimensions and "
            f"{checked_mu} multiplication ranks match")


#: sha256 of the concatenated reprs of the 300 sweep reports (cases i-iv,
#: then the 296 markings with one shared cache): every level, witness, tail
#: and certificate of the sweep, pinned.
SWEEP_REPR_SHA256 = "63bb424a4319596252be93004e9b6910d1931c910873916d3cefbecdb9dda198"


@criterion(12)
def test_full_verification_sweep():
    start = time.perf_counter()
    reprs = []
    solved = []  # the 4 case reports, then the 88 distinct marking problems
    for case in ("i", "ii", "iii", "iv"):
        rep = verify_configuration(distinct_case(case).neg)
        assert rep.ok, f"case {case} left something inconclusive"
        reprs.append(repr(rep))
        solved.append(rep)
    cache = {}
    pairs = 0
    for name in sorted(dynkin_catalog()):
        neg = neg_from_nodal(dynkin_catalog()[name])
        for rep in verify_all_markings(neg, _cache=cache):
            assert rep.ok, (name, rep.marking)
            reprs.append(repr(rep))
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 296
    assert hashlib.sha256("".join(reprs).encode()).hexdigest() == SWEEP_REPR_SHA256
    assert elapsed < 1800.0
    solved += cache.values()
    assert Counter(rep.method for rep in solved) == {"chain": 65, "conic": 27}
    # how the claim is certified: the rule of every certificate and every tail
    chains = [rep.report for rep in solved if rep.report is not None]
    rules = Counter(cert.reason.split(":")[0]
                    for report in chains for cert in report.certificates.values())
    assert rules == {"qstar+lstar=0": 10_513, "q=l=0": 466,
                     "rational-curve-step": 46, "kernel-transfer": 4}
    tails = Counter(tail.kind for report in chains for tail in report.tails)
    assert tails == {"surjective-h1-persistence": 1_606, "injective-bound": 76,
                     "surjective-induction": 10}
    return f"4 point cases plus {pairs} (type, marking) pairs, zero inconclusive"
