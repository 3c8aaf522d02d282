import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import cones, oracle, resolution
from fatpoints.cli import main
from fatpoints.cones import h0, is_nef, reduce
from fatpoints.config import (FIXTURE_SPECS, DistinctSpec, NegSet, PointConfiguration,
                              neg_from_distinct)
from fatpoints.lattice import E, E0, DivisorClass, chi
from fatpoints.resolution import (BettiTable, FatPointScheme, HilbertProfile,
                                  UnsupportedConfigurationError, betti,
                                  format_shifts, hilbert, mu_cokernel,
                                  proximity_normalize)

from conftest import WALK_NEGS, distinct_case, relabelled
from test_cones import h1
from test_murank import injectivity_class


@pytest.fixture(scope="module")
def example_z():
    return FatPointScheme(neg=distinct_case("iv").neg,
                          multiplicities=(2, 2, 6, 2, 2, 2))


def test_hilbert_worked_example(example_z):
    prof = hilbert(example_z)
    assert [prof(t) for t in range(5, 11)] == [0, 1, 4, 11, 19, 30]
    assert prof.alpha == 6
    assert prof.tau == 9
    assert prof.sigma == 10


def test_non_integer_multiplicities_rejected():
    neg = distinct_case("general").neg
    for bad in ((2.7, 3, 1, 0, 0, 0), (2, "3", 1, 0, 0, 0), (2, 3, True, 0, 0, 0)):
        with pytest.raises(TypeError, match="non-integer multiplicity"):
            FatPointScheme(neg=neg, multiplicities=bad)
    z = FatPointScheme(neg=neg, multiplicities=tuple(np.arange(6)))
    assert z.multiplicities == (0, 1, 2, 3, 4, 5)
    assert all(type(x) is int for x in z.multiplicities)


def test_hilbert_single_point():
    z = FatPointScheme(neg=distinct_case("general").neg,
                       multiplicities=(1, 0, 0, 0, 0, 0))
    prof = hilbert(z)
    assert (prof(0), prof(1), prof(2)) == (0, 2, 5)
    assert prof.alpha == 1


def test_hilbert_empty_scheme():
    z = FatPointScheme(neg=distinct_case("general").neg,
                       multiplicities=(0, 0, 0, 0, 0, 0))
    prof = hilbert(z, t_max=4)
    assert prof.alpha == 0
    for t in range(0, 5):
        assert prof(t) == (t + 2) * (t + 1) // 2


def test_hilbert_past_the_scan_cap():
    # the scan stops at 4*(sum(m) + 3) = 96 only while alpha or tau is unset;
    # asked for higher degrees it keeps going
    z = FatPointScheme(neg=distinct_case("i").neg, multiplicities=(1, 2, 3, 4, 5, 6))
    hard_stop = 4 * (sum(z.multiplicities) + 3)
    prof = hilbert(z, t_max=hard_stop + 10)
    assert (prof.alpha, prof.tau) == (9, 10)
    assert [prof(t) for t in range(hard_stop + 11)] == \
        [h0(z.class_for_degree(t), z.neg) for t in range(hard_stop + 11)]


def test_mu_cokernel_worked_example(example_z):
    assert mu_cokernel(example_z, 6) == 1   # gives t_7
    assert mu_cokernel(example_z, 7) == 3   # gives t_8
    assert mu_cokernel(example_z, 8) == 0   # gives t_9
    assert mu_cokernel(example_z, 9) == 2   # gives t_10


def test_betti_worked_example(example_z):
    table = betti(example_z)
    assert table.t == {6: 1, 7: 1, 8: 3, 10: 2}
    assert table.s == {8: 1, 9: 3, 11: 2}
    assert table.generator_summary() == "R[-6] + R[-7] + R[-8]^3 + R[-10]^2"
    assert table.syzygy_summary() == "R[-8] + R[-9]^3 + R[-11]^2"


def test_betti_single_point_with_oracle():
    z = FatPointScheme(neg=distinct_case("general").neg,
                       multiplicities=(1, 0, 0, 0, 0, 0))
    table = betti(z)
    assert table.t == {1: 2}
    assert table.s == {2: 1}
    # cross-check against explicit linear algebra
    pts = oracle.fixture_points("general")
    mults = (1, 0, 0, 0, 0, 0)
    assert oracle.ideal_dim(pts, mults, 1) == 2
    ker, cok = oracle.mu_rank_direct(pts, mults, 1)
    assert (ker, cok) == (1, 0)


def test_betti_empty_scheme():
    z = FatPointScheme(neg=distinct_case("general").neg,
                       multiplicities=(0, 0, 0, 0, 0, 0))
    table = betti(z)
    assert table.t == {0: 1}
    assert table.s == {}


def test_betti_invariants_random():
    rng = random.Random(5)
    for case in ("i", "ii", "iii", "iv", "general", "conic"):
        neg = distinct_case(case).neg
        for _ in range(6):
            m = tuple(rng.randint(0, 3) for _ in range(6))
            z = FatPointScheme(neg=neg, multiplicities=m)
            prof = hilbert(z)
            table = betti(z)
            assert sum(table.t.values()) - sum(table.s.values()) == 1
            assert all(v > 0 for v in table.t.values())
            assert all(v > 0 for v in table.s.values())
            assert all(prof.alpha <= d <= prof.sigma for d in table.t)
            assert all(d <= prof.sigma + 1 for d in table.s)


def test_proximity_normalize_distinct_identity(example_z):
    assert proximity_normalize(example_z) is example_z


def test_proximity_normalize_vertical(a1_vertical_neg):
    z = FatPointScheme(neg=a1_vertical_neg, multiplicities=(1, 2, 0, 0, 0, 0))
    nz = proximity_normalize(z)
    assert nz.multiplicities == (2, 1, 0, 0, 0, 0)
    assert proximity_normalize(nz) is nz
    zero = FatPointScheme(neg=a1_vertical_neg, multiplicities=(0,) * 6)
    assert proximity_normalize(zero) is zero


def test_proximity_normalize_large_multiplicity():
    # one batched subtraction of E1 - E2; a per-copy loop would turn 5*10**8 times
    m = 10 ** 9
    neg = PointConfiguration.from_dynkin("2A1").neg
    z = FatPointScheme(neg=neg, multiplicities=(0, m, 0, 0, 0, 0))
    assert proximity_normalize(z).multiplicities == (m // 2, m // 2, 0, 0, 0, 0)
    odd = FatPointScheme(neg=neg, multiplicities=(0, m + 1, 0, 0, 0, 0))
    assert proximity_normalize(odd).multiplicities == (m // 2 + 1, m // 2, 0, 0, 0, 0)


def test_normalization_preserves_hilbert(a1_vertical_neg):
    a = FatPointScheme(neg=a1_vertical_neg, multiplicities=(1, 2, 0, 0, 0, 0))
    b = proximity_normalize(a)
    pa, pb = hilbert(a), hilbert(b)
    assert pa.values == pb.values


def test_vertical_betti_regression(a1_vertical_neg):
    # frozen outputs of this implementation for one infinitely-near type
    want = {
        (2, 2, 2, 2, 2, 2): ({5: 3, 6: 1}, {7: 3}),
        (3, 2, 1, 1, 0, 0): ({4: 4, 5: 1}, {5: 3, 6: 1}),
        (4, 2, 2, 1, 1, 1): ({5: 2, 6: 3}, {7: 4}),
    }
    for m, (t, s) in want.items():
        table = betti(FatPointScheme(neg=a1_vertical_neg, multiplicities=m))
        assert (table.t, table.s) == (t, s), m


def test_four_collinear_against_coordinates():
    # the >=4 collinear path is conic-supported; cross-check its section
    # counts against explicit coordinates
    from fatpoints.config import DistinctSpec, neg_from_distinct
    pts = ((0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 2, 3))
    collinear = {frozenset(c) for c in
                 [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
    found = {frozenset(c) for c in
             __import__("itertools").combinations(range(1, 7), 3)
             if oracle._det3(*(pts[i - 1] for i in c)) == 0}
    assert found == collinear
    neg = neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))
    rng = random.Random(29)
    for _ in range(8):
        m = tuple(rng.randint(0, 3) for _ in range(6))
        z = FatPointScheme(neg=neg, multiplicities=m)
        prof = hilbert(z)
        for t in range(prof.sigma + 2):
            assert oracle.ideal_dim(pts, m, t) == prof(t), (m, t)


def test_unsupported_configuration_rejected():
    # infinitely near point plus four collinear points: -K is not nef and
    # the points are not distinct, so no result covers the case
    from fatpoints.config import NegSet
    bad = NegSet((E[1] - E[2], DivisorClass((1, 1, 1, 1, 1, 0, 0))))
    z = FatPointScheme(neg=bad, multiplicities=(1, 1, 1, 1, 0, 0))
    assert not z.is_supported()
    with pytest.raises(UnsupportedConfigurationError):
        betti(z)
    with pytest.raises(UnsupportedConfigurationError):
        mu_cokernel(z, 3)


def test_unsupported_betti_leaves_the_slot_empty():
    # betti checks support on NEG alone, before anything is normalized or
    # filled, so the NegSet's slot stays empty
    bad = NegSet((E[1] - E[2], DivisorClass((1, 1, 1, 1, 1, 0, 0))))
    z = FatPointScheme(neg=bad, multiplicities=(1, 1, 1, 1, 0, 0))
    with pytest.raises(UnsupportedConfigurationError):
        betti(z)
    assert resolution._degree_slot(bad) == [None, None]


def test_four_collinear_plus_line_against_coordinates():
    # a 4-point line and a second line through one of its points: the most
    # degenerate distinct shape; Hilbert values and generator counts both
    # match explicit coordinates
    import itertools
    from fatpoints.config import DistinctSpec, neg_from_distinct
    pts = ((0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 1, 0))
    found = {frozenset(c) for c in itertools.combinations(range(1, 7), 3)
             if oracle._det3(*(pts[i - 1] for i in c)) == 0}
    inside = {frozenset(c) for c in itertools.combinations((1, 2, 3, 4), 3)}
    assert found == inside | {frozenset((2, 5, 6))}
    neg = neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4), (2, 5, 6))))
    assert [c for c in neg if c.dot(c) <= -3] == [DivisorClass((1, 1, 1, 1, 1, 0, 0))]
    rng = random.Random(31)
    for _ in range(6):
        m = tuple(rng.randint(0, 3) for _ in range(6))
        z = FatPointScheme(neg=neg, multiplicities=m)
        prof = hilbert(z)
        table = betti(z)
        for t in range(prof.sigma + 2):
            assert oracle.ideal_dim(pts, m, t) == prof(t), (m, t)
        for i in range(prof.alpha, prof.sigma + 1):
            _, cok = oracle.mu_rank_direct(pts, m, i)
            assert cok == table.t.get(i + 1, 0), (m, i)


def test_mu_cokernel_on_injectivity_classes():
    # degrees whose class is a known injectivity class must give the
    # injective count exactly
    from fatpoints.cones import is_nef
    neg = distinct_case("general").neg
    cases = [
        ((2, 2, 2, 1, 1, 1), 4),   # 4E0-2,2,2,1,1,1
        ((2, 2, 2, 2, 2, 2), 5),   # 5E0-2...
        ((1, 1, 1, 1, 0, 0), 2),   # 2E0-1,1,1,1
        ((2, 2, 2, 2, 2, 2), 10),  # 2*(5E0-2...)
        ((2, 1, 1, 1, 1, 1), 3),   # 3E0-2,1,1,1,1,1
        ((4, 2, 2, 2, 2, 2), 6),   # not in the list; skipped below
    ]
    checked = 0
    for m, i in cases:
        z = FatPointScheme(neg=neg, multiplicities=m)
        f = z.class_for_degree(i)
        if not (is_nef(f, neg) and injectivity_class(f)):
            continue
        prof = hilbert(z, t_max=i + 1)
        assert mu_cokernel(z, i) == prof(i + 1) - 3 * prof(i), (m, i)
        checked += 1
    assert checked >= 5


def test_format_shifts():
    assert format_shifts({}) == "0"
    assert format_shifts({3: 1, 5: 2}) == "R[-3] + R[-5]^2"
    assert format_shifts({0: 1}) == "R"
    assert format_shifts({0: 2, 1: 1}) == "R^2 + R[-1]"


def test_betti_table_type():
    t = BettiTable(t={1: 2}, s={2: 1})
    assert t.generator_summary() == "R[-1]^2"


# ---------------------------------------------------------------------------
# The downward degree scan against the upward scan it replaced


def _reference_hilbert(z, t_max=None):
    """Upward scan: scalar h0 and h1 of every degree class from 0."""
    z = proximity_normalize(z)
    neg = z.neg
    values, alpha, tau, t = {}, None, None, 0
    hard_stop = 4 * (sum(z.multiplicities) + 3)
    while True:
        f = z.class_for_degree(t)
        values[t] = h0(f, neg)
        if alpha is None and values[t] > 0:
            alpha = t
        if tau is None and h1(f, neg) == 0:
            if h1(z.class_for_degree(t + 1), neg) != 0 or \
               h1(z.class_for_degree(t + 2), neg) != 0:
                raise ArithmeticError(
                    f"first cohomology failed to stay zero past degree {t}")
            tau = t
        if tau is not None and alpha is not None and t >= tau + 2 \
                and (t_max is None or t >= t_max):
            break
        if (alpha is None or tau is None) and t > hard_stop:
            raise ArithmeticError("Hilbert scan failed to stabilize")
        t += 1
    return HilbertProfile(values=values, alpha=alpha, tau=tau, sigma=tau + 1)


def _reference_mu_cokernel(z, i):
    """Cokernel count with its own reduction of the degree-i class."""
    z = proximity_normalize(z)
    neg = z.neg
    hi = h0(z.class_for_degree(i), neg)
    hnext = h0(z.class_for_degree(i + 1), neg)
    if hi == 0:
        return hnext
    m = reduce(z.class_for_degree(i), neg).nef_part
    hm_up = h0(m + E0, neg)
    return max(0, hm_up - 3 * chi(m)) + (hnext - hm_up)


def _reference_betti(z):
    z = proximity_normalize(z)
    prof = _reference_hilbert(z)
    t = {prof.alpha: prof(prof.alpha)} if prof(prof.alpha) > 0 else {}
    for i in range(prof.alpha, prof.sigma):
        v = _reference_mu_cokernel(z, i)
        if v:
            t[i + 1] = v
    s = {}
    for i in range(prof.sigma + 2):
        v = t.get(i, 0) - (prof(i) - 3 * prof(i - 1) + 3 * prof(i - 2) - prof(i - 3))
        assert v >= 0
        if v:
            s[i] = v
    return BettiTable(t=t, s=s)


def _profile_key(prof):
    return sorted(prof.values.items()), prof.alpha, prof.tau, prof.sigma


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_degree_walk_matches_upward_scan(data):
    neg = relabelled(data.draw(st.sampled_from(WALK_NEGS)),
                     data.draw(st.permutations(range(1, 7))))
    top = data.draw(st.sampled_from((3, 12, 60)))
    m = tuple(data.draw(st.lists(st.integers(0, top), min_size=6, max_size=6)))
    z = FatPointScheme(neg=neg, multiplicities=m)
    ref = _reference_hilbert(z)
    past = data.draw(st.sampled_from(
        (None, ref.sigma + 3, 4 * (sum(proximity_normalize(z).multiplicities) + 3) + 5)))
    fresh = FatPointScheme(neg=NegSet(neg.classes), multiplicities=m)
    assert _profile_key(hilbert(fresh)) == _profile_key(ref)
    assert betti(fresh) == _reference_betti(z)
    if past is not None:
        assert _profile_key(hilbert(fresh, t_max=past)) == \
            _profile_key(_reference_hilbert(z, t_max=past))
    for i in range(-1, ref.sigma + 3):
        assert mu_cokernel(fresh, i) == _reference_mu_cokernel(z, i), i
    nz = proximity_normalize(fresh)
    nef, _ = resolution._table(nz)
    assert len(nef) > ref.sigma + 1
    for t, part in enumerate(nef):
        red = reduce(nz.class_for_degree(t), neg)
        assert part == (red.nef_part if red.effective else None), t


@settings(max_examples=60, deadline=None)
@given(neg=st.sampled_from(WALK_NEGS), perm=st.permutations(range(1, 7)),
       m=st.lists(st.integers(0, 200), min_size=6, max_size=6))
def test_scan_carries_the_pairings(neg, perm, m):
    """At every walked degree, and after every strip, the pairing list the
    kernel carries is [N.C for C in NEG] of the class it carries it with."""
    neg = relabelled(neg, perm)
    plain = cones._strip
    calls = [0]

    def checked(cur, d, neg):
        assert d == [DivisorClass(cur).dot(c) for c in neg.classes]
        effective, out, d, steps = plain(cur, d, neg)
        assert d == [DivisorClass(out).dot(c) for c in neg.classes]
        calls[0] += 1
        return effective, out, d, steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_strip", checked)
        mp.setattr(resolution, "_strip", checked)
        betti(FatPointScheme(neg=neg, multiplicities=tuple(m)))
    assert calls[0] > 0


@pytest.mark.parametrize("type_name", ["E6", "D5", "A5"])
def test_betti_steps_do_not_grow_with_multiplicity(monkeypatch, type_name):
    # the upward scan took 1,388 / 43,948 / 818,488 reduction steps on E6;
    # every step of the scan, its top reductions included, is a step of the
    # one kernel
    steps = [0]
    plain = cones._strip

    def counted(cur, d, neg):
        out = plain(cur, d, neg)
        steps[0] += len(out[3])
        return out

    monkeypatch.setattr(cones, "_strip", counted)
    monkeypatch.setattr(resolution, "_strip", counted)
    for m in (10, 100, 1000):
        neg = PointConfiguration.from_dynkin(type_name).neg
        steps[0] = 0
        z = FatPointScheme(neg=neg, multiplicities=(m,) * 6)
        betti(z)
        sigma = hilbert(z).sigma
        assert 0 < steps[0] <= 8 * (sigma + 3), (m, steps[0], sigma)


def test_mu_cokernel_first_call_at_edge_degrees():
    # mu_cokernel as the first call on a NegSet, at degrees below the table
    # (where a list index would read from its end) and past its first top,
    # which lies at most two past sum(m): F_t meets every NEG class
    # nonnegatively from t = sum(m) on
    rng = random.Random(37)
    for neg in WALK_NEGS:
        m = tuple(rng.randint(0, 12) for _ in range(6))
        z = FatPointScheme(neg=neg, multiplicities=m)
        past = sum(proximity_normalize(z).multiplicities) + 3
        for i in (-2, -1, past):
            fresh = FatPointScheme(neg=NegSet(neg.classes), multiplicities=m)
            assert mu_cokernel(fresh, i) == _reference_mu_cokernel(z, i), (m, i)


def test_scan_cache_holds_one_table(monkeypatch):
    # the NegSet keeps the table of the last scheme only: betti after
    # hilbert on one scheme walks no degree, and going back to an earlier
    # scheme walks its degrees again
    neg = NegSet(distinct_case("iv").neg.classes)
    a = FatPointScheme(neg=neg, multiplicities=(2, 2, 6, 2, 2, 2))
    b = FatPointScheme(neg=neg, multiplicities=(6, 5, 4, 3, 2, 1))
    calls = [0]
    plain = cones._strip

    def counted(cur, d, neg):
        calls[0] += 1
        return plain(cur, d, neg)

    monkeypatch.setattr(resolution, "_strip", counted)
    hilbert(a)
    hilbert(b)
    key, (nef, h0, *_) = resolution._degree_slot(neg)
    assert key == b.multiplicities and len(nef) == len(h0)
    calls[0] = 0
    betti(b)
    assert calls[0] == 0
    hilbert(a)
    assert calls[0] > 0


def test_one_normalization_and_one_fill_per_scheme(monkeypatch):
    # hilbert, betti and mu_cokernel on one scheme read one profile: one
    # proximity_normalize and one _table call; each switch of scheme on
    # the NegSet makes one more of each.  On E6 the ascending multiplicities
    # normalize to other values, and the slot is keyed by the given ones
    neg = NegSet(PointConfiguration.from_dynkin("E6").neg.classes)
    a = FatPointScheme(neg=neg, multiplicities=(1, 6, 10, 19, 20, 21))
    b = FatPointScheme(neg=neg, multiplicities=(6, 5, 4, 3, 2, 1))
    assert proximity_normalize(a) != a
    calls = {"proximity_normalize": 0, "_table": 0}

    def spy(name):
        real = getattr(resolution, name)

        def counted(z):
            calls[name] += 1
            return real(z)
        return counted

    for name in calls:
        monkeypatch.setattr(resolution, name, spy(name))
    for z, want in ((a, 1), (b, 2), (a, 3)):
        for _ in range(2):
            sigma = hilbert(z).sigma
            betti(z)
            for i in (-1, 0, sigma - 1, sigma, 10**6):
                mu_cokernel(z, i)
        assert calls == {"proximity_normalize": want, "_table": want}, z


def test_hilbert_checks_the_table(monkeypatch):
    # corrupted section counts trip the checks hilbert makes on the table;
    # uncorrupted, (2,2,6,2,2,2) on case iv has tau = 9
    neg = distinct_case("iv").neg
    real = resolution._table

    def corrupted(edit):
        def table(z):
            nef, h0 = real(z)
            return nef, edit(list(h0))
        return table

    cases = [
        (lambda h: h[:9] + [h[9] - 1] + h[10:], "negative h1 in degree 9"),
        (lambda h: h[:10] + [h[10] + 1] + h[11:], "failed to stay zero past degree 9"),
        (lambda h: [v + 1 for v in h], "failed to stabilize"),
    ]
    for edit, message in cases:
        monkeypatch.setattr(resolution, "_table", corrupted(edit))
        with pytest.raises(ArithmeticError, match=message):
            hilbert(FatPointScheme(neg=NegSet(neg.classes),
                                   multiplicities=(2, 2, 6, 2, 2, 2)))


def test_first_fill_covers_alpha_and_tau():
    # hilbert reads alpha and tau off the first fill of the degree table: it
    # tops out at t0 + 2 for the least t0 >= 0 with F_t0 nef, where the
    # class reduces to itself with h0 = chi >= 1, so alpha, tau <= t0
    rng = random.Random(25)
    negs = list(WALK_NEGS) + [neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))]
    for neg in negs:
        for top in (3, 3, 30, 30, 300, 300, 3000, 3000):
            m = tuple(rng.randint(0, top) for _ in range(6))
            z = proximity_normalize(FatPointScheme(neg=NegSet(neg.classes),
                                                   multiplicities=m))
            _, h0_list = resolution._table(z)
            t0 = len(h0_list) - 3
            f = z.class_for_degree(t0)
            assert is_nef(f, z.neg) and h0(f, z.neg) == chi(f) >= 1, m
            assert t0 == 0 or not is_nef(z.class_for_degree(t0 - 1), z.neg), m
            prof = hilbert(z)
            assert max(prof.alpha, prof.tau + 2) < len(h0_list), m


def test_mu_cokernel_far_past_sigma_fills_the_table_once():
    # past sigma no generator is left, so mu_cokernel reads betti and the
    # table keeps its first fill (t0 + 3 degrees) however far i lies
    neg = NegSet(distinct_case("general").neg.classes)
    z = FatPointScheme(neg=neg, multiplicities=(2, 2, 2, 1, 1, 1))
    assert hilbert(z).sigma == 5
    first = len(resolution._degree_slot(neg)[1][0])
    assert mu_cokernel(z, 10**6) == 0
    assert [mu_cokernel(z, i) for i in range(2, 7)] == [0, 3, 0, 0, 0]
    key, (nef, h0_list, *_) = resolution._degree_slot(neg)
    assert key == z.multiplicities and len(nef) == len(h0_list) == first


def test_hilbert_far_past_the_table_is_h0():
    # hilbert reads chi past the table, where F_t is nef; the section count
    # of F_t agrees at sampled degrees up to 10**5
    rng = random.Random(43)
    for neg in WALK_NEGS[::5]:
        m = tuple(rng.randint(0, 20) for _ in range(6))
        z = FatPointScheme(neg=NegSet(neg.classes), multiplicities=m)
        prof = hilbert(z, 10**5)
        table = len(resolution._degree_slot(z.neg)[1][1])
        assert len(prof.values) == 10**5 + 1 and table <= sum(m) + 3, m
        for t in (table - 1, table, table + 1, 777, 54321, 10**5):
            assert prof(t) == h0(z.class_for_degree(t), neg), (m, t)


def walked_h0(z, top):
    """Reference section counts of F_0 .. F_top: reduce F_top, then reduce
    N_{t+1} - E0 for each lower degree, every degree walked as the table
    did before it stopped at t0 + 2 and read chi past it."""
    z = proximity_normalize(z)
    red = reduce(z.class_for_degree(top), z.neg)
    part = red.nef_part if red.effective else None
    out = []
    for _ in range(top + 1):
        out.append(0 if part is None else chi(part))
        if part is not None:
            red = reduce(part - E0, z.neg)
            part = red.nef_part if red.effective else None
    return out[::-1]


def test_hilbert_cli_to_degree_2000_matches_the_walk(tmp_path, capsys):
    # ``hilbert --deg`` prints what walking every degree gives, on the six
    # fixtures, four collinear points (with a second line, too) and five
    # catalog types, at degree 2000 and at a low degree
    configs = [{"kind": "distinct", "collinear": [list(c) for c in spec.collinear],
                "six_on_conic": spec.six_on_conic}
               for spec in FIXTURE_SPECS.values()]
    configs += [{"kind": "distinct", "collinear": [[1, 2, 3, 4]]},
                {"kind": "distinct", "collinear": [[1, 2, 3, 4], [2, 5, 6]]}]
    configs += [{"kind": "dynkin", "type": t} for t in ("A1", "4A1", "D4", "A5", "E6")]
    rng = random.Random(47)
    path = tmp_path / "cfg.json"
    for cfg in configs:
        path.write_text(json.dumps(cfg))
        neg = PointConfiguration.load(str(path)).neg
        m = tuple(rng.randint(0, 12) for _ in range(6))
        z = FatPointScheme(neg=neg, multiplicities=m)
        ref = _reference_hilbert(z)
        walked = walked_h0(z, 2000)
        for deg in (rng.randint(0, 30), 2000):
            assert main(["hilbert", "--config", str(path), "--mult",
                         ",".join(map(str, m)), "--deg", str(deg)]) == 0
            want = [f"{t} {v}" for t, v in enumerate(walked[:deg + 1])]
            want += [f"alpha {ref.alpha}", f"tau {ref.tau}", f"sigma {ref.sigma}"]
            assert capsys.readouterr().out.splitlines() == want, (cfg, m, deg)
