import collections
import itertools
import random
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fatpoints import cones, murank
from fatpoints.cones import (GENERATOR_SEEDS, INT64_ENTRY_BOUND, PACK_ENTRY_BOUND,
                             WITNESS_STEPS, _pare, gamma, h0, h0_rows, int_rows, is_nef,
                             nef_generators, pack_keys, packable, reduce, seed_orbit_union)
from fatpoints.config import (ConfigError, DistinctSpec, NegSet, PointConfiguration,
                              dynkin_catalog, neg_from_distinct, neg_from_nodal)
from fatpoints.lattice import E, E0, MINUS_K, ZERO, DivisorClass, chi, through

from conftest import WALK_NEGS, change_of_marking, distinct_case, relabelled

# the 39 pared generators of the four-line configuration, as displayed
PARED_39_ROWS = """
1  0  0  0  0  0  0     2 -1  0 -1  0 -1  0     3  0  0 -1 -2 -1 -1
2  0 -1 -1 -1  0  0     2 -1  0  0 -1  0 -1     3 -1  0 -2 -1 -1  0
2  0  0 -1 -1 -1  0     2 -1 -1  0  0 -1  0     3  0 -1  0 -1 -2 -1
2  0  0  0 -1 -1 -1     2 -1  0 -1  0  0 -1     3 -1 -1 -1  0  0 -2
2 -1  0 -1 -1  0  0     1 -1  0  0  0  0  0     3 -1 -1 -1 -2  0  0
2  0 -1  0 -1 -1  0     1  0 -1  0  0  0  0     3 -1  0  0 -1 -1 -2
2  0  0 -1 -1  0 -1     1  0  0 -1  0  0  0     3  0 -1 -2 -1  0 -1
2  0 -1  0  0 -1 -1     1  0  0  0 -1  0  0     3 -1 -2  0 -1 -1  0
2  0 -1 -1  0  0 -1     1  0  0  0  0 -1  0     3  0 -2 -1  0 -1 -1
2 -1  0  0  0 -1 -1     1  0  0  0  0  0 -1     3 -1 -1 -1  0 -2  0
2 -1 -1  0  0  0 -1     2  0 -1 -1 -1 -1  0     3 -2  0 -1  0 -1 -1
2 -1 -1  0 -1  0  0     2 -1 -1  0  0 -1 -1     3 -2 -1  0 -1  0 -1
2  0 -1 -1  0 -1  0     2 -1  0 -1 -1  0 -1     3 -1 -1 -1 -1 -1 -1
"""


def pared_39():
    out = set()
    for line in PARED_39_ROWS.strip().splitlines():
        nums = [int(x) for x in line.split()]
        assert len(nums) == 21
        for i in range(3):
            out.add(DivisorClass.from_display_row(nums[7 * i: 7 * i + 7]))
    assert len(out) == 39
    return out


def example_scheme_class(t):
    """Degree-t class of the fat point scheme 2,2,6,2,2,2."""
    return DivisorClass((t, 2, 2, 6, 2, 2, 2))


def test_seed_orbit_union():
    assert len(GENERATOR_SEEDS) == 7
    assert len(seed_orbit_union()) == 1279


def test_is_nef(case_iv):
    assert is_nef(E0, case_iv.neg)
    assert is_nef(ZERO, case_iv.neg)
    f7 = example_scheme_class(7)
    assert not is_nef(f7, case_iv.neg)
    assert f7.dot(DivisorClass((1, 0, 0, 1, 1, 0, 0))) < 0


def fixed_multiset(red):
    """The curves subtracted along ``red.trace`` with their multiplicities,
    sorted: each entry n*C has C primitive, so n is the gcd of its entries."""
    counts = collections.Counter()
    for step in red.trace:
        n = gcd(*step)
        counts[DivisorClass([x // n for x in step])] += n
    return tuple(sorted(counts.items()))


def test_reduce_worked_example(case_iv):
    f = example_scheme_class(7)
    red = reduce(f, case_iv.neg)
    assert red.effective
    assert red.nef_part == DivisorClass((2, 0, 0, 1, 1, 0, 0))
    assert f - red.nef_part == DivisorClass((5, 2, 2, 5, 1, 2, 2))
    assert sum((m * c for c, m in fixed_multiset(red)), ZERO) == f - red.nef_part


def test_reduce_nef_noop(case_iv):
    red = reduce(DivisorClass((2, 0, 0, 1, 1, 0, 0)), case_iv.neg)
    assert red.effective and not fixed_multiset(red) and not red.trace


def test_reduce_not_effective(case_iv):
    red = reduce(example_scheme_class(5), case_iv.neg)
    assert not red.effective


def test_h0_values(case_iv):
    assert h0(example_scheme_class(8), case_iv.neg) == 11
    assert h0(example_scheme_class(10), case_iv.neg) == 30
    assert h0(ZERO, case_iv.neg) == 1


def h1(f, neg):
    """Reference first cohomology h0 - chi, for degree >= -2 (where h2 = 0)."""
    assert f[0] >= -2, f
    v = h0(f, neg) - chi(f)
    assert v >= 0, f"negative h1 for {f!r}"
    return v


def test_h1_values(case_iv):
    assert h1(example_scheme_class(8), case_iv.neg) > 0
    assert h1(example_scheme_class(9), case_iv.neg) == 0
    for f in (E0, MINUS_K, DivisorClass((2, 0, 0, 1, 1, 0, 0))):
        assert h1(f, case_iv.neg) == 0


def test_h0_preserved_along_reduction(case_iv):
    for t in (6, 7, 8, 9, 10):
        f = example_scheme_class(t)
        cur = f
        for c in reduce(f, case_iv.neg).trace:
            assert h0(cur, case_iv.neg) == h0(cur - c, case_iv.neg)
            cur = cur - c


def test_h0_monotone(case_iv):
    rng = random.Random(7)
    for _ in range(60):
        f = DivisorClass(tuple(rng.randint(-4, 9) for _ in range(7)))
        assert h0(f + E0, case_iv.neg) >= h0(f, case_iv.neg)


def test_reduce_order_independent(case_iv, general, a1_vertical_neg):
    rng = random.Random(11)
    for neg in (case_iv.neg, general.neg, a1_vertical_neg):
        for _ in range(40):
            f = DivisorClass(tuple(rng.randint(-3, 10) for _ in range(7)))
            ref = reduce(f, neg)
            order = list(neg.classes)
            rng.shuffle(order)
            effective, nef_part, fixed_part = per_copy_reduce(f, neg, order)
            assert effective == ref.effective
            if ref.effective:
                assert nef_part == ref.nef_part
                assert fixed_part == fixed_multiset(ref)


def per_copy_reduce(f, neg, order=None):
    """Reference reduction: subtract one copy of the first negatively met class
    of ``order`` (default: the NEG classes) per step."""
    classes = tuple(order) if order is not None else neg.classes
    cur = f
    counts = {}
    while cur[0] >= 0:
        hit = next((c for c in classes if cur.dot(c) < 0), None)
        if hit is None:
            return True, cur, tuple(sorted(counts.items()))
        cur = cur - hit
        counts[hit] = counts.get(hit, 0) + 1
    return False, cur, tuple(sorted(counts.items()))


def cyclic_scan_reduce(f, neg):
    """Reference ``reduce`` that pairs the running class with the NEG
    classes afresh at every step: it scans them cyclically from the class
    after the last hit and subtracts ceil(-F.C / -C^2) copies of the first
    C met negatively, with the same nef witness every ``WITNESS_STEPS``."""
    classes = neg.classes
    cur = f
    trace = []
    witnessed = False
    while cur[0] >= 0:
        if trace and len(trace) % WITNESS_STEPS == 0 and \
                cones._nef_witness(int_rows([cur]), neg)[0]:
            witnessed = True
            break
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
        p = classes.index(c) + 1
        classes = classes[p:] + classes[:p]
    return cones.Reduction(effective=cur[0] >= 0 and not witnessed, nef_part=cur,
                           trace=tuple(trace))


#: A pencil class of the general fixture at scale 10**12, jittered off the
#: pencil: it falls down the pencil until the nef witness stops it.
PENCIL_WALK = dict(index=4, perm=(1, 2, 3, 4, 5, 6), coeffs=[3, 2, 1, 1, 1, 1, 1],
                   scale=10 ** 12, jitter=1)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(WALK_NEGS) - 1), perm=st.permutations(range(1, 7)),
       coeffs=st.lists(st.integers(-3, 60), min_size=7, max_size=7),
       scale=st.sampled_from((1, 1, 1, 2 ** 40, 10 ** 12)), jitter=st.integers(-3, 3))
@example(**PENCIL_WALK)
def test_reduce_matches_cyclic_scan(index, perm, coeffs, scale, jitter):
    # scale 2**40 and 10**12 put entries past INT64_ENTRY_BOUND, so the
    # nef witness runs on Python ints
    neg = relabelled(WALK_NEGS[index], perm)
    f = DivisorClass([scale * x + jitter for x in coeffs])
    red = reduce(f, neg)
    assert red == cyclic_scan_reduce(f, neg)
    assert type(red.nef_part) is DivisorClass


def test_pencil_walk_example_stops_at_the_witness():
    w = PENCIL_WALK
    neg = relabelled(WALK_NEGS[w["index"]], w["perm"])
    f = DivisorClass([w["scale"] * x + w["jitter"] for x in w["coeffs"]])
    assert max(f) > INT64_ENTRY_BOUND
    red = cyclic_scan_reduce(f, neg)
    # stopped at degree >= 0, so by the witness, after a multiple of its period
    assert not red.effective and red.nef_part[0] >= 0
    assert len(red.trace) % WITNESS_STEPS == 0 < len(red.trace)
    assert reduce(f, neg) == red


@pytest.fixture(scope="module")
def equivalence_negs(case_iv, general, a1_vertical_neg):
    negs = {"general": general.neg, "case_iv": case_iv.neg,
            "a1_vertical_neg": a1_vertical_neg}
    for name in ("E6", "D5", "A5"):
        negs[name] = PointConfiguration.from_dynkin(name).neg
    return negs


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(("general", "case_iv", "a1_vertical_neg", "E6", "D5", "A5")),
       coeffs=st.lists(st.integers(-3, 60), min_size=7, max_size=7))
def test_reduce_matches_per_copy_loop(equivalence_negs, name, coeffs):
    neg = equivalence_negs[name]
    f = DivisorClass(coeffs)
    red = reduce(f, neg)
    effective, nef_part, fixed_part = per_copy_reduce(f, neg)
    assert red.effective == effective
    if effective:
        assert red.nef_part == nef_part
        assert fixed_multiset(red) == fixed_part
        assert f - red.nef_part == sum(red.trace, ZERO)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(("general", "case_iv", "a1_vertical_neg", "E6", "D5", "A5")),
       rows=st.lists(st.lists(st.integers(-3, 60), min_size=7, max_size=7),
                     min_size=1, max_size=8),
       scale=st.sampled_from((1, 1, 2 ** 40, 10 ** 12)),
       jitter=st.integers(-3, 3))
# pencil classes plus jitter: about one reduction step per unit of degree
@example(name="general", rows=[[2, 1, 1, 1, 1, 0, 0], [3, 2, 1, 1, 1, 1, 1]],
         scale=10 ** 12, jitter=1)
@example(name="case_iv", rows=[[60, 32, 49, 39, 8, 24, 7]], scale=2 ** 40, jitter=2)
def test_h0_rows_matches_scalar_h0(equivalence_negs, name, rows, scale, jitter):
    # scale 2**40 and 10**12 push entries past the int64 bound (object path)
    neg = equivalence_negs[name]
    classes = [DivisorClass([scale * x + jitter for x in r]) for r in rows]
    got = h0_rows(classes, neg)
    assert got.tolist() == [h0(f, neg) for f in classes]
    assert got.tolist() == cyclic_scan_h0_rows(classes, neg).tolist()


def cyclic_scan_h0_rows(f, neg):
    """Reference ``h0_rows`` that takes, per round, only the step ``reduce``
    would take next: ceil(-F.C / -C^2) copies of the first negatively met C
    at or after the class following the row's previous hit, cyclically.
    Looks ``_neg_blocks`` up on the module, so a test can count its rounds."""
    cur = int_rows(f)
    out = np.zeros(len(cur), dtype=cur.dtype)
    curves, gram, minus_sq = cones._neg_blocks(neg, cur.dtype)
    columns = np.arange(len(curves))
    idx = np.flatnonzero(cur[:, 0] >= 0)
    cur, start = cur[idx], np.zeros(len(idx), dtype=np.int64)
    rounds = 0
    while len(idx):
        met = cur @ gram < 0
        hit = met.any(1)
        out[idx[~hit]] = cones.chi_rows(cur[~hit])
        idx, cur, met, start = idx[hit], cur[hit], met[hit], start[hit]
        later = met & (columns >= start[:, None])
        col = np.where(later.any(1), later.argmax(1), met.argmax(1))
        c = curves[col]
        d = (cur * c * cones._FORM).sum(1)
        cur = cur - (-(d // minus_sq[col]))[:, None] * c
        start = col + 1
        keep = cur[:, 0] >= 0
        rounds += 1
        if rounds % WITNESS_STEPS == 0:
            keep &= ~cones._nef_witness(cur, neg)
        idx, cur, start = idx[keep], cur[keep], start[keep]
    return out


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(("general", "case_iv", "a1_vertical_neg", "E6", "D5", "A5")),
       rows=st.lists(st.lists(st.integers(-3, 60), min_size=7, max_size=7).filter(any),
                     min_size=1, max_size=8),
       jitter=st.integers(-3, 3))
@example(name="general", rows=[[2, 1, 1, 1, 1, 0, 0], [3, 2, 1, 1, 1, 1, 1]], jitter=3)
@example(name="case_iv", rows=[[60, 32, 49, 39, 8, 24, 7]], jitter=-3)
def test_h0_rows_int64_at_the_entry_bound(equivalence_negs, name, rows, jitter):
    """Rows scaled so that their largest entry lies just under
    INT64_ENTRY_BOUND still take the in-place int64 update, exactly."""
    neg = equivalence_negs[name]
    scale = (INT64_ENTRY_BOUND - 4) // max(abs(x) for r in rows for x in r)
    classes = [DivisorClass([scale * x + jitter for x in r]) for r in rows]
    assert max(abs(x) for f in classes for x in f) > INT64_ENTRY_BOUND - 70
    got = h0_rows(classes, neg)
    assert got.dtype == np.int64
    assert got.tolist() == [h0(f, neg) for f in classes]


@pytest.fixture
def rounds(monkeypatch):
    """A one-element list counting reduction rounds: the products of rows
    with the NEG Gram block, which ``h0_rows`` and ``cyclic_scan_h0_rows``
    take once per round.  The nef witness's products are not counted."""
    count = [0]
    real_blocks, real_witness = cones._neg_blocks, cones._nef_witness

    class CountedGram(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            count[0] += ufunc is np.matmul
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    def counted_blocks(neg, dtype):
        curves, gram, minus_sq = real_blocks(neg, dtype)
        return curves, gram.view(CountedGram), minus_sq

    def uncounted_witness(cur, neg):
        before = count[0]
        out = real_witness(cur, neg)
        count[0] = before
        return out

    monkeypatch.setattr(cones, "_neg_blocks", counted_blocks)
    monkeypatch.setattr(cones, "_nef_witness", uncounted_witness)
    return count


def test_h0_rows_stack_matches_its_parts(rounds, equivalence_negs):
    """Every row evolves on its own: ``h0_rows`` on a stack of parts gives
    the parts' results side by side, in as many rounds as its slowest part,
    also when a part walks down a pencil until the nef witness stops it."""
    rng = random.Random(3)
    w = PENCIL_WALK
    cases = [(neg, []) for neg in equivalence_negs.values()]
    cases.append((relabelled(WALK_NEGS[w["index"]], w["perm"]),
                  [[[w["scale"] * x + w["jitter"] for x in w["coeffs"]]]]))
    per_part = []
    for neg, parts in cases:
        parts += [[[rng.randint(-3, 60) for _ in range(7)] for _ in range(rng.randint(1, 6))]
                  for _ in range(3)]
        want, part_rounds = [], []
        for part in parts:
            rounds[0] = 0
            want += h0_rows(part, neg).tolist()
            part_rounds.append(rounds[0])
        rounds[0] = 0
        assert h0_rows(sum(parts, []), neg).tolist() == want
        assert rounds[0] == max(part_rounds), part_rounds
        per_part.append(part_rounds)
    assert per_part[-1][0] >= WITNESS_STEPS  # the pencil part
    # in most stacks the parts take different numbers of rounds
    assert sum(len(set(r)) > 1 for r in per_part) > len(per_part) // 2


def test_h0_rows_rounds_bounded_by_scalar_trace(monkeypatch, rounds, case_iv):
    """Subtracting every negatively met curve per round takes, per call, at
    most one round more than the longest ``reduce`` trace of its rows (the
    last round only sees the rows nef), and fewer rounds in all than the
    one-curve cyclic scan.  Rounds are counted by the ``rounds`` fixture."""
    count = rounds
    real_h0_rows = cones.h0_rows
    calls = []

    def recording_h0_rows(f, neg):
        before = count[0]
        out = real_h0_rows(f, neg)
        calls.append((int_rows(f).tolist(), neg, count[0] - before))
        return out

    monkeypatch.setattr(murank, "h0_rows", recording_h0_rows)
    negs = [PointConfiguration.from_dynkin(name).neg for name in ("E6", "D5", "A5")]
    for neg in negs + [case_iv.neg]:
        murank.s_chain(NegSet(neg.classes), 6)  # fresh caches: every level is reduced
    assert calls
    traces = {}
    ours = theirs = 0
    for rows, neg, rounds in calls:
        longest = 0
        for r in rows:
            key = (neg, tuple(r))
            if key not in traces:
                traces[key] = len(reduce(DivisorClass(r), neg).trace)
            longest = max(longest, traces[key])
        assert rounds <= 1 + longest, (neg, rounds, longest)
        before = count[0]
        cyclic_scan_h0_rows(rows, neg)
        theirs += count[0] - before
        ours += rounds
    assert ours < theirs


def test_h0_rows_dtype_guard(general):
    assert h0_rows([(3, 1, 1, 0, 0, 0, 0)], general.neg).dtype == np.int64
    big = (2 ** 40, 2 ** 39, 0, 0, 0, 0, 0)
    got = h0_rows([big, (3, 1, 1, 0, 0, 0, 0)], general.neg)
    assert got.dtype == object
    assert got.tolist() == [h0(DivisorClass(big), general.neg), 8]
    assert h0_rows(np.zeros((0, 7), dtype=np.int64), general.neg).shape == (0,)


@pytest.mark.parametrize("rows", [
    [[3.7, 1, 1, 0, 0, 0, 0]],  # once truncated to degree 3, h0 8
    np.array([[3, 1, 1, 0, 0, 0, 0]], dtype=float),
    np.ones((1, 7), dtype=bool),
    np.array([[3, True, 1, 0, 0, 0, 0]], dtype=object),
    np.array([[3, 1.0, 1, 0, 0, 0, 0]], dtype=object),
    np.array([[np.int64(3), 1, 1, 0, 0, 0, 0]], dtype=object),
    [["3", "1", "1", "0", "0", "0", "0"]],
], ids=["float", "float-integral", "bool", "object-bool", "object-float",
        "object-numpy-int", "str"])
def test_h0_rows_rejects_non_integer_rows(general, rows):
    with pytest.raises(TypeError, match="non-integer") as err:
        h0_rows(rows, general.neg)
    assert "\n" not in str(err.value)


def test_ql_bounds_rejects_non_integer_classes(general):
    neg = NegSet(general.neg.classes)  # nothing cached: the kernel sees the row
    for f in ((3.7, 1, 1, 0, 0, 0, 0), DivisorClass((True, 0, 0, 0, 0, 0, 0))):
        with pytest.raises(TypeError, match="non-integer coefficient"):
            murank.ql_bounds(f, neg)
    assert murank.ql_bounds(E0, neg).h == 3


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-60, 60), min_size=7, max_size=7),
                     min_size=1, max_size=12),
       scale=st.sampled_from((1, 2 ** 40)))
def test_chi_rows_matches_scalar_chi(rows, scale):
    classes = [DivisorClass([scale * x + (scale > 1) for x in r]) for r in rows]
    f = int_rows(classes)
    assert f.dtype == (np.int64 if scale == 1 else object)
    got = cones.chi_rows(f)
    assert got.tolist() == [chi(c) for c in classes]
    assert all(type(x) is int for x in got.tolist())


def test_nef_rows_is_the_first_round_test(equivalence_negs):
    """``nef_rows`` picks exactly the rows that ``h0_rows`` answers with chi
    in its first round: nef of degree >= 0."""
    rng = random.Random(5)
    union = sorted(seed_orbit_union())
    for neg in equivalence_negs.values():
        classes = list(nef_generators(neg).raw) + rng.sample(union, 100) + [
            DivisorClass([rng.randint(-3, 9) for _ in range(7)]) for _ in range(100)]
        got = cones.nef_rows(int_rows(classes), neg)
        assert got.tolist() == [f[0] >= 0 and is_nef(f, neg) for f in classes]
        assert got.any() and not got.all()


def test_distinct_neg_classes_meet_nonnegatively():
    """The premise that makes each ``h0_rows`` round exact: subtracting one
    NEG class never raises the pairing with another.  ``NegSet`` rejects a
    set where it fails; here it is checked on every supported configuration
    and on the problem of each of the 296 catalog markings."""
    catalog = [PointConfiguration.from_dynkin(name).neg for name in sorted(dynkin_catalog())]
    markings = [change_of_marking(neg, h)
                for neg in catalog for h in murank.e0_classes(neg)]
    assert len(markings) == 296
    negs = list(catalog_and_fixture_negs().values())
    negs.append(neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),))))
    for neg in negs + markings:
        for a, b in itertools.combinations(neg.classes, 2):
            assert a.dot(b) >= 0, (neg, a, b)
    with pytest.raises(ConfigError, match="meet negatively"):
        NegSet((E[1], E[1] - E[2]))


def pare(classes):
    """``_pare`` on any collection of classes: the survivors among the
    distinct classes in ascending order, as a tuple."""
    members = sorted(set(classes))
    keep = _pare(np.array(members, dtype=np.int64).reshape(-1, 7))
    return tuple(itertools.compress(members, keep.tolist()))


def all_pairs_pare(classes):
    """Reference paring: test every pair, no degree cutoff."""
    cur = set(classes)
    while True:
        members = sorted(cur)
        sums = {a + b for i, a in enumerate(members) for b in members[i:]
                if a + b in cur}
        if not sums:
            return tuple(sorted(cur))
        cur -= sums


def test_pare_matches_all_pairs_on_catalog():
    for name in sorted(dynkin_catalog()):
        raw = nef_generators(PointConfiguration.from_dynkin(name).neg).raw
        assert pare(raw) == all_pairs_pare(raw), name


def repeating_pare(classes):
    """Reference ``_pare`` that pares the survivors again until a pass drops
    nothing, with the same degree cutoff and packed keys."""
    members = sorted(set(classes))
    rows = np.array(members).reshape(-1, 7)
    keys = pack_keys(rows)
    deg = rows[:, 0]
    alive = np.arange(len(members))
    zero = pack_keys(np.zeros(7, dtype=np.int64))
    while True:
        n = len(keys)
        top = deg[-1] if n else 0
        shifted = keys - zero
        hit = np.zeros(n, dtype=bool)
        i = 0
        while i < n:
            stop = np.searchsorted(deg, top - deg[i], side="right")
            if stop <= i:
                break
            end = min(n, i + max(1, cones.PARE_CHUNK // (stop - i)))
            sums = keys[i:end, None] + shifted[None, i:stop]
            pos = np.minimum(np.searchsorted(keys, sums), n - 1)
            hit[pos[keys[pos] == sums]] = True
            i = end
        if not hit.any():
            return tuple(members[k] for k in alive.tolist())
        keys, deg, alive = keys[~hit], deg[~hit], alive[~hit]


def test_pare_one_pass_matches_repeating():
    # the six fixtures and 20 types, and the markings of a few types
    negs = list(WALK_NEGS)
    for name in ("A1", "D4", "2A2", "E6"):
        neg = PointConfiguration.from_dynkin(name).neg
        negs += [change_of_marking(neg, h) for h in murank.e0_classes(neg)]
    classes, rows = cones._sorted_union()
    for neg in negs:
        raw = tuple(itertools.compress(classes, cones.nef_rows(rows, neg).tolist()))
        assert pare(raw) == repeating_pare(raw), neg


def tuple_pare(classes):
    """Reference copy of the tuple path ``nef_generators`` pared through
    before it passed ``_pare`` its nef rows: sort and dedupe the classes,
    rebuild their array, pack, and return the survivors as a tuple."""
    members = sorted(set(classes))
    rows = np.array(members).reshape(-1, 7)
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
        end = min(n, i + max(1, cones.PARE_CHUNK // (stop - i)))
        sums = keys[i:end, None] + shifted[None, i:stop]
        pos = np.searchsorted(keys, sums)
        np.minimum(pos, n - 1, out=pos)
        hit[pos[keys[pos] == sums]] = True
        i = end
    return tuple(itertools.compress(members, (~hit).tolist()))


def test_pared_generators_match_tuple_path():
    # the 20 types in all 296 markings, and the six fixtures
    negs = [distinct_case(case).neg for case in ("i", "ii", "iii", "iv", "general", "conic")]
    for name in sorted(dynkin_catalog()):
        neg = PointConfiguration.from_dynkin(name).neg
        negs += [change_of_marking(neg, h) for h in murank.e0_classes(neg)]
    assert len(negs) == 6 + 296
    for neg in negs:
        gens = nef_generators(neg)
        assert gens.pared == tuple_pare(gens.raw), neg


def catalog_and_fixture_negs():
    negs = {name: PointConfiguration.from_dynkin(name).neg for name in sorted(dynkin_catalog())}
    for case in ("i", "ii", "iii", "iv", "general", "conic"):
        negs[case] = distinct_case(case).neg
    return negs


def test_nef_generators_match_scalar_filter():
    for name, neg in catalog_and_fixture_negs().items():
        gens = nef_generators(neg)
        raw = tuple(sorted(f for f in seed_orbit_union() if is_nef(f, neg)))
        assert gens.raw == raw, name
        assert gens.pared == all_pairs_pare(raw), name


def double_loop_gamma(neg):
    """Reference gamma: subtract every pared generator from every other."""
    pared = nef_generators(neg).pared
    out = []
    for f in pared:
        if not any(f - p != ZERO and (f - p)[0] >= 0 and is_nef(f - p, neg)
                   for p in pared):
            out.append(f)
    return tuple(out)


def test_gamma_matches_double_loop():
    for name, neg in catalog_and_fixture_negs().items():
        assert gamma(neg) == double_loop_gamma(neg), name


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.integers(1 - PACK_ENTRY_BOUND, PACK_ENTRY_BOUND - 1),
                              min_size=7, max_size=7), min_size=1, max_size=12))
def test_pack_keys_order_and_sums(rows):
    a = np.array(rows, dtype=np.int64)
    keys = pack_keys(a).tolist()
    zero = int(pack_keys(np.zeros(7, dtype=np.int64)))
    assert sorted(range(len(rows)), key=lambda i: keys[i]) == \
        sorted(range(len(rows)), key=lambda i: rows[i])
    assert len(set(keys)) == len({tuple(r) for r in rows})
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert int(pack_keys(a[i] + a[j])) == keys[i] + keys[j] - zero


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-2, 3), min_size=7, max_size=7),
                     min_size=1, max_size=14),
       scale=st.sampled_from((1, 1, PACK_ENTRY_BOUND // 3, PACK_ENTRY_BOUND // 3 + 1, 2 ** 40)))
def test_pare_matches_all_pairs_across_packing_bound(rows, scale):
    # scale 21 keeps every entry inside the bound, and paring commutes with
    # scaling; 22 and 2**40 push an entry outside it, which is rejected
    classes = [DivisorClass([scale * x for x in r]) for r in rows]
    if not packable(np.array(classes)):
        assert scale > PACK_ENTRY_BOUND // 3
        with pytest.raises(ValueError, match="packing range"):
            pare(classes)
        return
    got = pare(classes)
    assert got == all_pairs_pare(classes)
    assert got == tuple(DivisorClass([scale * x for x in c])
                        for c in pare([DivisorClass(r) for r in rows]))


def test_pare_packing_guard_at_the_bound():
    inside = PACK_ENTRY_BOUND - 1
    for top in (inside, PACK_ENTRY_BOUND, -inside, -PACK_ENTRY_BOUND):
        classes = [DivisorClass((d, x, 0, 0, 0, 0, 0))
                   for d, x in ((1, 0), (1, top), (2, top), (3, top))]
        assert packable(np.array(classes)) == (abs(top) < PACK_ENTRY_BOUND)
        if abs(top) < PACK_ENTRY_BOUND:
            assert pare(classes) == all_pairs_pare(classes) == tuple(sorted(classes[:2])), top
        else:
            with pytest.raises(ValueError, match="packing range"):
                pare(classes)


def test_reduce_steps_bounded_at_large_multiplicity():
    m = 10 ** 9
    for name in ("i", "ii", "iii", "iv", "general", "conic"):
        neg = distinct_case(name).neg
        classes = [DivisorClass((t, m, 0, 0, 0, 0, 0)) for t in (m, m + 1, 2 * m, 3 * m)]
        classes += [DivisorClass((t,) + (m,) * 6)
                    for t in (5 * m // 2, 5 * m // 2 + 1, 3 * m, 4 * m)]
        for f in classes:
            assert len(reduce(f, neg).trace) <= 4, (name, f)


def test_pencil_walk_stops_at_nef_witness(equivalence_negs):
    """A class falling down a pencil stops at a nef witness, where the
    per-copy reference takes a step per copy until its degree is negative."""
    fibres = [DivisorClass(x) for x in ((1, 1, 0, 0, 0, 0, 0), (2, 1, 1, 1, 1, 0, 0),
                                        (3, 2, 1, 1, 1, 1, 1))]
    walks = 0
    for name, neg in equivalence_negs.items():
        for phi in (p for p in fibres if is_nef(p, neg)):
            for jitter in (1, 2, 3):
                small, large = (DivisorClass([k * x + jitter for x in phi])
                                for k in (300, 10 ** 12))
                want = per_copy_reduce(small, neg)[0]
                assert reduce(small, neg).effective == want, (name, phi, jitter)
                red = reduce(large, neg)
                assert red.effective == want, (name, phi, jitter)
                assert large - red.nef_part == sum(red.trace, ZERO)
                assert h0_rows([small, large], neg).tolist() == [h0(small, neg), h0(large, neg)]
                walks += len(red.trace) >= WITNESS_STEPS
    assert walks > 0


def test_h0_one_point_closed_form_at_large_multiplicity(general):
    m = 10 ** 6
    for t in (m, m + 1, 2 * m):
        f = DivisorClass((t, m, 0, 0, 0, 0, 0))
        assert h0(f, general.neg) == comb(t + 2, 2) - comb(m + 1, 2)


def test_nef_for_nef_h0_is_chi(case_iv):
    gens = nef_generators(case_iv.neg)
    for f in gens.pared:
        assert h0(f, case_iv.neg) == chi(f)
        assert h1(f, case_iv.neg) == 0


def test_case_iv_generators(case_iv):
    gens = nef_generators(case_iv.neg)
    assert len(gens.raw) == 212
    assert len(gens.pared) == 39
    assert set(gens.pared) == pared_39()


def test_paring_single_pass_matches_fixpoint(case_iv):
    # one simultaneous-removal pass already reaches the fixpoint here
    gens = nef_generators(case_iv.neg)
    raw = set(gens.raw)
    sums = {a + b for a in raw for b in raw if (a + b) in raw}
    assert raw - sums == set(gens.pared)


def test_general_position_all_nef(general):
    gens = nef_generators(general.neg)
    assert len(gens.raw) == 1279


def test_generator_counts_fixtures():
    # regression fixtures computed from this implementation
    want = {"i": (806, 79), "ii": (513, 63), "iii": (329, 50),
            "iv": (212, 39), "general": (1279, 100), "conic": (806, 79)}
    for case, (raw, pared) in want.items():
        gens = nef_generators(distinct_case(case).neg)
        assert (len(gens.raw), len(gens.pared)) == (raw, pared), case


def test_nefgens_requires_nef_anticanonical():
    neg = neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))
    with pytest.raises(ValueError):
        nef_generators(neg)


def test_e0_always_pared(case_iv, general, a1_vertical_neg):
    for neg in (case_iv.neg, general.neg, a1_vertical_neg):
        assert E0 in nef_generators(neg).pared


def test_gamma(case_iv):
    gens = nef_generators(case_iv.neg)
    gam = gamma(case_iv.neg)
    assert set(gam) <= set(gens.pared)
    # the nine classes singled out later all stay indecomposable
    for row in [(1, -1, 0, 0, 0, 0, 0), (2, 0, -1, -1, -1, -1, 0)]:
        assert DivisorClass.from_display_row(row) in gam
    assert 2 * E0 not in gam


#: ``reduce``'s termination weight: it pairs to at least 1 with every class
#: the loop can subtract, so each step lowers W.F by at least 1.
TERMINATION_WEIGHT = DivisorClass((19, 6, 5, 4, 3, 2, 1))


def reduction_candidates() -> tuple:
    """Every class shape NEG takes in the catalog and distinct-point
    configurations: basis classes Ei; differences Ei - Ej with i < j (the
    only vertical shape compatible with a nef -K, in catalog order; a
    relabelled type may have i > j, which ``reordered_weight`` covers);
    lines through 2..4 of the points (5+ collinear is rejected at
    configuration time); conics through 5 or 6."""
    idx = range(1, 7)
    out = list(E[1:])
    out += (E[i] - E[j] for i, j in itertools.combinations(idx, 2))
    for degree, sizes in ((1, (2, 3, 4)), (2, (5, 6))):
        out += (through(degree, s) for r in sizes for s in itertools.combinations(idx, r))
    return tuple(out)


def reordered_weight(neg):
    """``TERMINATION_WEIGHT`` with its six point weights reordered so that
    wi > wj for every member Ei - Ej of NEG: the points are ranked least
    label first among those no member Ek - Ei of an unranked k enters.
    ``NegSet`` rejects cycles of such members, so every point gets a rank.
    Lines, conics and the Ei pair with W the same under any order."""
    arcs = {(c.index(-1), c.index(1)) for c in neg if c.degree == 0 and c.dot(c) == -2}
    left, order = set(range(1, 7)), []
    while left:
        order.append(min(p for p in left if not any((a, p) in arcs for a in left)))
        left.remove(order[-1])
    weight = dict(zip(order, TERMINATION_WEIGHT[1:]))
    return DivisorClass((TERMINATION_WEIGHT[0],) + tuple(weight[i] for i in range(1, 7)))


def check_termination_measure() -> bool:
    """The weight drops by at least 1 on every candidate."""
    return all(TERMINATION_WEIGHT.dot(c) >= 1 for c in reduction_candidates())


def test_termination_measure():
    """W pairs to at least 1 with every candidate shape, and every member of
    the supported configurations is a candidate.  Relabelled types are
    accepted too (the sweep relabels every catalog type; ``verify`` and
    ``resolve`` run on the nodal root E2 - E1), and their members Ei - Ej
    may have i > j, which W meets in wj - wi < 0: W with its point weights
    reordered along those members pairs to at least 1 with every member of
    the 20 types under 30 seeded relabellings each, and of E2 - E1."""
    assert check_termination_measure()
    cands = reduction_candidates()
    assert len(cands) == len(set(cands)) == 6 + 15 + (15 + 20 + 15) + (6 + 1)
    # every NEG member of the supported configurations is a candidate
    negs = [distinct_case(name).neg for name in ("i", "ii", "iii", "iv", "general", "conic")]
    negs += [neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))]
    negs += [PointConfiguration.from_dynkin(n).neg for n in sorted(dynkin_catalog())]
    for neg in negs:
        assert set(neg.classes) <= set(cands), neg
        assert reordered_weight(neg) == TERMINATION_WEIGHT, neg
    rng = random.Random(0)
    negs = [neg_from_nodal((DivisorClass.from_display_row((0, -1, 1, 0, 0, 0, 0)),))]
    for name in sorted(dynkin_catalog()):
        neg = PointConfiguration.from_dynkin(name).neg
        negs += [relabelled(neg, rng.sample(range(1, 7), 6)) for _ in range(30)]
    below = 0
    for neg in negs:
        below += any(TERMINATION_WEIGHT.dot(c) < 1 for c in neg)
        weight = reordered_weight(neg)
        assert all(weight.dot(c) >= 1 for c in neg), (neg.nodal, weight)
    assert (len(negs), below) == (601, 481)
