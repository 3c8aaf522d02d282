import collections
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fatpoints import cones, murank
from fatpoints.config import (ConfigError, DistinctSpec, NegSet,
                              PointConfiguration, anticanonical_nef,
                              dynkin_catalog, dynkin_classify,
                              neg_from_distinct, neg_from_nodal, per_surface)
from fatpoints.lattice import E, K, DivisorClass, through
from fatpoints.weyl import all_roots, exceptional_classes, reflect

from conftest import distinct_case

# the displayed 13 negative curves of the four-line configuration
CASE_IV_NEG_ROWS = [
    (1, -1, -1, -1, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (1, 0, 0, -1, -1, 0, 0),
    (1, -1, 0, 0, -1, -1, 0), (0, 0, 1, 0, 0, 0, 0), (1, 0, -1, 0, 0, -1, 0),
    (1, 0, 0, -1, 0, -1, -1), (0, 0, 0, 1, 0, 0, 0), (1, -1, 0, 0, 0, 0, -1),
    (1, 0, -1, 0, -1, 0, -1), (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1, 0),
]


def test_case_iv_neg(case_iv):
    want = {DivisorClass.from_display_row(r) for r in CASE_IV_NEG_ROWS}
    assert set(case_iv.neg.classes) == want
    assert len(case_iv.neg) == 13


def test_case_i_nodal_part():
    cfg = distinct_case("i")
    assert cfg.neg.nodal == (DivisorClass((1, 1, 1, 1, 0, 0, 0)),)


def test_case_ii_iii_nodal_parts():
    r0 = DivisorClass((1, 1, 1, 1, 0, 0, 0))
    l145 = DivisorClass((1, 1, 0, 0, 1, 1, 0))
    l356 = DivisorClass((1, 0, 0, 1, 0, 1, 1))
    assert set(distinct_case("ii").neg.nodal) == {r0, l145}
    assert set(distinct_case("iii").neg.nodal) == {r0, l145, l356}


def test_general_position_neg(general):
    assert set(general.neg.classes) == set(exceptional_classes())


def test_conic_spec_neg():
    cfg = distinct_case("conic")
    conic = DivisorClass((2, 1, 1, 1, 1, 1, 1))
    assert conic in cfg.neg.classes
    assert set(cfg.neg.nodal) == {conic}
    # the fifteen pair classes and six basis classes all survive
    assert len(cfg.neg) == 1 + 15 + 6


def test_distinct_spec_validation():
    with pytest.raises(ConfigError):
        DistinctSpec(collinear=((1, 2),))
    with pytest.raises(ConfigError):
        DistinctSpec(collinear=((1, 2, 3, 4, 5),))
    with pytest.raises(ConfigError):
        DistinctSpec(collinear=((1, 2, 3), (2, 3, 4)))
    with pytest.raises(ConfigError):
        DistinctSpec(collinear=((1, 2, 3),), six_on_conic=True)
    with pytest.raises(ConfigError):
        DistinctSpec(collinear=((1, 2, 7),))


def test_four_collinear_accepted():
    spec = DistinctSpec(collinear=((1, 2, 3, 4),))
    neg = neg_from_distinct(spec)
    line = DivisorClass((1, 1, 1, 1, 1, 0, 0))
    assert line in neg.classes
    assert not anticanonical_nef(neg)
    # with four on a line, no five-point conic class is irreducible
    assert not [c for c in neg.classes if c.degree == 2]


def test_catalog():
    cat = dynkin_catalog()
    assert len(cat) == 20
    assert set(cat["4A1"]) == {
        DivisorClass((2, 1, 1, 1, 1, 1, 1)), E[1] - E[2], E[3] - E[4], E[5] - E[6]}
    assert set(cat["D4"]) == {
        DivisorClass((1, 1, 0, 1, 0, 1, 0)), E[1] - E[2], E[3] - E[4], E[5] - E[6]}
    assert set(cat["E6"]) == {
        DivisorClass((1, 1, 1, 1, 0, 0, 0)), E[1] - E[2], E[2] - E[3],
        E[3] - E[4], E[4] - E[5], E[5] - E[6]}


def test_catalog_round_trip():
    for name, roots in dynkin_catalog().items():
        assert dynkin_classify(roots) == name
        assert anticanonical_nef(neg_from_nodal(roots))


def test_classify_examples(case_iv):
    assert dynkin_classify(case_iv.neg.nodal) == "4A1"
    two_lines = (DivisorClass((1, 1, 1, 1, 0, 0, 0)),
                 DivisorClass((1, 0, 0, 0, 1, 1, 1)))
    assert dynkin_classify(two_lines) == "A2"


def test_classify_rejects_cycles():
    # three roots forming a triangle: E1-E2, E2-E3, E3-E1
    triangle = (E[1] - E[2], E[2] - E[3], E[3] - E[1])
    for a in triangle:
        assert a.dot(a) == -2
    with pytest.raises(ConfigError):
        dynkin_classify(triangle)


@pytest.mark.parametrize("cycle", [(1, 2, 3, 4, 5, 6), (1, 2, 3)])
def test_negset_rejects_a_cycle_of_infinitely_near_points(cycle):
    """Ei - Ej effective puts pj infinitely near pi, so such members never
    close a cycle; on a cycle the reduction would not end."""
    arcs = tuple(E[i] - E[j] for i, j in zip(cycle, cycle[1:] + cycle[:1]))
    with pytest.raises(ConfigError, match="directed cycle") as err:
        NegSet(arcs)
    assert "\n" not in str(err.value)
    assert str(sorted(cycle)) in str(err.value)
    NegSet(arcs[:-1])  # the path left by opening the cycle builds


@given(perm=st.permutations(range(1, 7)))
def test_every_catalog_type_builds_under_relabelling(perm):
    for name, roots in dynkin_catalog().items():
        moved = [DivisorClass((c[0],) + tuple(c[perm[i]] for i in range(6))) for c in roots]
        assert len(neg_from_nodal(moved).nodal) == len(roots), name


def test_classify_rejects_bad_pairing():
    # a root and its negative pair to +2
    with pytest.raises(ConfigError):
        dynkin_classify((E[1] - E[2], E[2] - E[1]))


def test_neg_from_nodal_matches_distinct(case_iv):
    rebuilt = neg_from_nodal(case_iv.neg.nodal)
    assert rebuilt.classes == case_iv.neg.classes


def test_neg_from_nodal_empty():
    assert set(neg_from_nodal(()).classes) == set(exceptional_classes())


def test_neg_from_nodal_vertical(a1_vertical_neg):
    assert E[1] not in a1_vertical_neg.classes
    assert E[2] in a1_vertical_neg.classes
    assert len(a1_vertical_neg) == 22


def test_neg_invariants(case_iv, general, a1_vertical_neg):
    for neg in (case_iv.neg, general.neg, a1_vertical_neg):
        for c in neg.classes:
            assert c.dot(c) < 0
            assert 0 <= c.degree <= 2
        for a, b in itertools.combinations(neg.classes, 2):
            assert a.dot(b) >= 0


def test_anticanonical_nef(case_iv, general):
    assert anticanonical_nef(case_iv.neg)
    assert anticanonical_nef(general.neg)
    four = neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))
    assert not anticanonical_nef(four)


def _sets_weyl_equivalent(a, b) -> bool:
    """Reference: whether two root sets lie in one orbit of the simultaneous
    W-action, by breadth-first search over the orbit of a (at most
    |W(E6)| = 51840 sets)."""
    start = tuple(sorted(a))
    goal = tuple(sorted(b))
    seen = {start}
    frontier = [start]
    while frontier:
        if goal in frontier:
            return True
        nxt = []
        for state in frontier:
            for i in range(6):
                new = tuple(sorted(reflect(c, i) for c in state))
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return False


def _assert_recognized(moved, roots, name):
    """The moved set keeps the catalog type: dynkin_classify names it, it lies
    in the orbit of the catalog set, and from_nodal names it unless a moved
    root has negative degree, which NegSet rejects."""
    assert dynkin_classify(moved) == name
    assert _sets_weyl_equivalent(moved, roots), name
    if min(c.degree for c in moved) >= 0:
        assert PointConfiguration.from_nodal(moved).type_name == name
    else:
        with pytest.raises(ConfigError, match="degree"):
            PointConfiguration.from_nodal(moved)


def test_match_catalog_type_weyl_equivalence():
    # reflect the canonical 4A1 roots and confirm recognition still works
    roots = dynkin_catalog()["4A1"]
    moved = tuple(reflect(reflect(c, 0), 3) for c in roots)
    assert moved != roots
    _assert_recognized(moved, roots, "4A1")


def test_catalog_sets_single_orbit():
    # each catalog entry is recovered from a reflection image of itself
    for name, roots in dynkin_catalog().items():
        moved = tuple(reflect(c, 2) for c in roots)
        _assert_recognized(moved, roots, name)


def test_weyl_moved_catalog_sets_keep_their_type():
    # a root set moved by a Weyl word keeps its type; from_nodal names it,
    # unless a moved root has negative degree, which NegSet rejects
    rng = random.Random(19)
    outcomes = set()
    for name, roots in sorted(dynkin_catalog().items()):
        moved = roots
        for i in (rng.randrange(6) for _ in range(12)):
            moved = tuple(reflect(c, i) for c in moved)
        assert dynkin_classify(moved) == name
        assert _sets_weyl_equivalent(moved, roots), name
        loads = min(c.degree for c in moved) >= 0
        outcomes.add(loads)
        if loads:
            assert PointConfiguration.from_nodal(moved).type_name == name
        else:
            with pytest.raises(ConfigError, match="degree"):
                PointConfiguration.from_nodal(moved)
    assert outcomes == {True, False}
    catalog = dynkin_catalog()
    assert not _sets_weyl_equivalent(catalog["2A1"], catalog["A2"])


def test_from_nodal_rejects_what_is_not_a_root_set():
    # E1+E2 has square -2 but K.(E1+E2) = -2: a valid A1 diagram, not a root
    e12 = E[1] + E[2]
    assert e12.dot(e12) == -2 and K.dot(e12) != 0
    assert dynkin_classify((e12,)) == "A1"
    with pytest.raises(ConfigError, match="nodal root"):
        PointConfiguration.from_nodal((e12,))
    with pytest.raises(ConfigError, match="nodal root"):
        PointConfiguration.from_nodal((E[3] - E[4], e12))
    with pytest.raises(ConfigError, match="distinct"):
        PointConfiguration.from_nodal((E[1] - E[2], E[1] - E[2]))
    assert PointConfiguration.from_nodal(()).type_name is None


def _valid_collinear_families():
    """Families of collinear triples meeting pairwise in at most one point."""
    triples = [frozenset(c) for c in itertools.combinations(range(1, 7), 3)]

    def ok(family):
        return all(len(a & b) <= 1 for a, b in itertools.combinations(family, 2))

    return st.lists(st.sampled_from(triples), max_size=4, unique=True).filter(ok)


@given(_valid_collinear_families())
def test_neg_from_distinct_invariants(family):
    spec = DistinctSpec(collinear=tuple(tuple(sorted(s)) for s in family))
    neg = neg_from_distinct(spec)
    for c in neg.classes:
        d = c.degree
        m = c.multiplicities
        assert d in (0, 1, 2)
        assert all(v in (0, 1) for v in m) or (d == 0 and sorted(m) == [-1, 0, 0, 0, 0, 0])
        if d == 0:
            assert c.dot(c) == -1
        if d == 1:
            assert 2 <= sum(m) <= 4
        if d == 2:
            assert sum(m) in (5, 6)
    for a, b in itertools.combinations(neg.classes, 2):
        assert a.dot(b) >= 0


def test_configuration_json(tmp_path, case_iv):
    data = {"kind": "distinct",
            "collinear": [[1, 2, 3], [1, 4, 5], [3, 5, 6], [2, 4, 6]],
            "six_on_conic": False}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = PointConfiguration.load(path)
    assert cfg.neg.classes == case_iv.neg.classes

    dyn = PointConfiguration.from_dict({"kind": "dynkin", "type": "4A1"})
    assert dynkin_classify(dyn.neg.nodal) == "4A1"

    nod = PointConfiguration.from_dict(
        {"kind": "nodal", "roots": [[0, 1, -1, 0, 0, 0, 0]]})
    assert nod.type_name == "A1"
    assert nod.neg.nodal == (E[1] - E[2],)

    with pytest.raises(ConfigError):
        PointConfiguration.from_dict({"kind": "dynkin", "type": "B2"})
    with pytest.raises(ConfigError):
        PointConfiguration.from_dict({"kind": "wat"})


# ---------------------------------------------------------------------------
# Equivalence with the earlier enumerations, kept here as references


def _reference_neg_from_distinct(spec):
    """NEG listed by hand: the Ei, the listed lines, the lines through
    uncovered pairs, and the conics through 5-subsets with no collinear
    triple (or the conic through all six)."""
    idx = range(1, 7)
    classes = list(E[1:])
    covered_pairs = set()
    for s in spec.collinear:
        classes.append(through(1, s))
        covered_pairs.update(frozenset(p) for p in itertools.combinations(sorted(s), 2))
    classes += (through(1, p) for p in itertools.combinations(idx, 2)
                if frozenset(p) not in covered_pairs)
    if spec.six_on_conic:
        classes.append(through(2, idx))
    else:
        classes += (through(2, t) for t in itertools.combinations(idx, 5)
                    if not any(len(s & frozenset(t)) >= 3 for s in spec.collinear))
    return NegSet(tuple(classes))


def _all_distinct_specs():
    """Every valid DistinctSpec: each family of 3- and 4-point subsets
    meeting pairwise in at most one point, and the six-on-a-conic spec."""
    subsets = [c for k in (3, 4) for c in itertools.combinations(range(1, 7), k)]

    def families(start, family):
        yield DistinctSpec(collinear=family)
        for i in range(start, len(subsets)):
            if all(len(set(subsets[i]) & set(s)) <= 1 for s in family):
                yield from families(i + 1, family + (subsets[i],))

    return [*families(0, ()), DistinctSpec(six_on_conic=True)]


def test_neg_from_distinct_matches_enumeration():
    specs = _all_distinct_specs()
    assert len(specs) == 347
    for spec in specs:
        assert neg_from_distinct(spec) == _reference_neg_from_distinct(spec), spec


def _reference_dynkin_classify(nodal):
    """Name a root set by walking vertex degrees and leg lengths."""
    nodes = tuple(sorted(set(nodal)))
    for c in nodes:
        if c.dot(c) != -2:
            raise ConfigError("not a nodal root")
    n = len(nodes)
    adj = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        p = nodes[i].dot(nodes[j])
        if p not in (0, 1):
            raise ConfigError("pairing not 0 or 1")
        if p == 1:
            adj[i].add(j)
            adj[j].add(i)
    comps, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        comp, stack = set(), [i]
        seen.add(i)
        while stack:
            x = stack.pop()
            comp.add(x)
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        comps.append(comp)
    names = []
    for comp in comps:
        m = len(comp)
        degs = sorted(len(adj[x] & comp) for x in comp)
        if m == 1:
            names.append(("A", 1))
            continue
        if degs[-1] > 3 or degs.count(3) > 1 or degs.count(0) > 0:
            raise ConfigError("not an A/D/E diagram")
        if degs[-1] <= 2:
            if degs.count(1) != 2:
                raise ConfigError("cycle")
            names.append(("A", m))
            continue
        branch = next(x for x in comp if len(adj[x] & comp) == 3)
        legs = []
        for s in adj[branch] & comp:
            length, prev, cur = 1, branch, s
            while True:
                nxt = (adj[cur] & comp) - {prev}
                if not nxt:
                    break
                if len(nxt) > 1:
                    raise ConfigError("not an A/D/E diagram")
                prev, cur = cur, nxt.pop()
                length += 1
            legs.append(length)
        legs.sort()
        if legs == [1, 1, m - 3]:
            names.append(("D", m))
        elif legs == [1, 2, 2] and m == 6:
            names.append(("E", 6))
        else:
            raise ConfigError("not an A/D/E diagram")
    names.sort()
    parts = []
    for key, grp in itertools.groupby(names):
        cnt = len(list(grp))
        parts.append((str(cnt) if cnt > 1 else "") + f"{key[0]}{key[1]}")
    return "".join(parts)


def _square_minus_two():
    """The classes of square -2 with degree 0..2 and entries -2..2."""
    grid = itertools.product(range(3), *[range(-2, 3)] * 6)
    return [c for c in map(DivisorClass, grid) if c.dot(c) == -2]


def _classify_or_reject(classify, roots):
    try:
        return classify(roots)
    except ConfigError:
        return None


def test_dynkin_classify_matches_leg_walk():
    # Random greedy sets of classes meeting pairwise 0 or 1: the 72 roots
    # of E6 and 24 classes of square -2 that are not orthogonal to K.
    rng = random.Random(20_241_019)
    extras = [c for c in _square_minus_two() if K.dot(c) != 0]
    pool = list(all_roots()) + rng.sample(extras, 24)
    ok = [[a.dot(b) in (0, 1) for b in pool] for a in pool]
    seen = collections.defaultdict(set)
    for _ in range(8_000):
        size, picked = rng.randint(1, 7), []
        for i in rng.choices(range(len(pool)), k=40):
            if len(picked) < size and i not in picked and all(ok[i][j] for j in picked):
                picked.append(i)
        roots = [pool[i] for i in picked]
        want = _classify_or_reject(_reference_dynkin_classify, roots)
        assert _classify_or_reject(dynkin_classify, roots) == want, roots
        seen[len(roots)].add(want)
    # The lattice has signature (1, 6), so a negative definite span has rank
    # at most 6: every set of 7 is rejected, and no set of 1 or 2 is.
    assert all(None in seen[m] and len(seen[m]) > 1 for m in range(3, 7))
    assert None not in seen[1] | seen[2] and seen[7] == {None}
    assert {"D4", "D5", "E6"} <= set().union(*seen.values())


# ---------------------------------------------------------------------------
# Per-surface memo


def test_per_surface_runs_once_per_negset_and_arguments(case_iv):
    calls = []

    @per_surface
    def table(neg, *args):
        calls.append(args)
        return len(neg), args

    @per_surface
    def other_table(neg, *args):
        calls.append(("other",) + args)
        return args

    neg = NegSet(case_iv.neg.classes)
    for _ in range(3):
        assert table(neg) == (13, ())
        assert table(neg, 2) == (13, (2,))
        assert table(neg, 2, "x") == (13, (2, "x"))
        assert other_table(neg, 2) == (2,)
    assert calls == [(), (2,), (2, "x"), ("other", 2)]
    # an equal but distinct NegSet starts empty, and hashes and compares as before
    fresh = NegSet(case_iv.neg.classes)
    assert fresh == neg and hash(fresh) == hash(neg) == hash(neg.classes)
    assert table(fresh, 2) == (13, (2,))
    assert calls[-1] == (2,) and len(calls) == 5
    assert table.__name__ == "table"


def test_neg_blocks_keep_dtypes_apart(case_iv):
    neg = NegSet(case_iv.neg.classes)
    small = cones._neg_blocks(neg, np.dtype(np.int64))
    big = cones._neg_blocks(neg, np.dtype(object))
    assert [a.dtype for a in small] == [np.int64] * 3
    assert [a.dtype for a in big] == [object] * 3
    assert cones._neg_blocks(neg, np.dtype(np.int64)) is small
    assert cones._neg_blocks(neg, np.dtype(object)) is big
    assert all((a == b).all() and not a.flags.writeable and not b.flags.writeable
               for a, b in zip(small, big))
    assert cones._gram(neg) == (small[0] @ small[1]).tolist()


def test_per_surface_stores_nothing_when_the_call_raises(monkeypatch):
    # -K is not nef on four collinear points: no generator set, each call
    # runs the check again
    four = neg_from_distinct(DistinctSpec(collinear=((1, 2, 3, 4),)))
    checks = []

    def counted(neg):
        checks.append(neg)
        return anticanonical_nef(neg)

    monkeypatch.setattr(cones, "anticanonical_nef", counted)
    for n in (1, 2):
        with pytest.raises(ValueError, match="nef anticanonical"):
            cones.nef_generators(four)
        assert len(checks) == n


def test_plane_point_indices_retries_after_a_raise(case_iv, monkeypatch):
    # with every root effective no index is usable; the raise leaves the
    # NegSet without an entry, so the real root table answers afterwards
    neg = NegSet(case_iv.neg.classes)
    lookups = []

    def every_root(neg):
        lookups.append(neg)
        return frozenset(all_roots())

    monkeypatch.setattr(murank, "effective_roots", every_root)
    for n in (1, 2):
        with pytest.raises(ValueError, match="no usable point index"):
            murank.plane_point_indices(neg)
        assert len(lookups) == n
    monkeypatch.undo()
    assert murank.plane_point_indices(neg) == murank.plane_point_indices(case_iv.neg)
    assert murank.plane_point_indices(neg) == tuple(range(1, 7))
