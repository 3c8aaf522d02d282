"""The three benchmark workloads: seeded inputs, one timed pass, checks.

Load model for all three: a closed loop with a single caller.  One
process hands the package one item at a time and starts the next item
when the previous one returns; there are no threads or subprocesses while
a pass is timed.  That is how the library and its command line are used:
offline, one computation after another.

Every pass builds its configurations (``NegSet`` objects) again from the
generated descriptions, because ``NegSet._cache`` holds section counts,
bounds and certificates and a pass over reused configurations would only
time dictionary lookups.  The package receives only the generated inputs.

A pass takes ``item``, a factory of context managers that the caller uses
to time each item (and to trace it); everything else in the pass is
outside any item.  It returns compact outputs, and the checks run
afterwards, outside the timed interval, on every item.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from fatpoints import cones, config, murank, oracle, resolution
from fatpoints.lattice import E0, DivisorClass

#: Collinear triples of the four distinct-point cases of the paper.
CASES = {
    "i": ((1, 2, 3),),
    "ii": ((1, 2, 3), (1, 4, 5)),
    "iii": ((1, 2, 3), (1, 4, 5), (3, 5, 6)),
    "iv": ((1, 2, 3), (1, 4, 5), (3, 5, 6), (2, 4, 6)),
}

#: The six distinct-point configurations the coordinate oracle realises.
ORACLE_CASES = ("i", "ii", "iii", "iv", "general", "conic")


IDENTITY = tuple(range(7))


def distinct_spec(case: str, perm=IDENTITY) -> config.DistinctSpec:
    """Spec of a named distinct-point case, points relabelled by ``perm``."""
    if case == "general":
        return config.DistinctSpec()
    if case == "conic":
        return config.DistinctSpec(six_on_conic=True)
    return config.DistinctSpec(
        collinear=tuple(tuple(sorted(perm[i] for i in s)) for s in CASES[case]))


def random_perm(rng: random.Random) -> tuple:
    """A relabelling of points 1..6 as a 7-tuple with perm[0] == 0."""
    image = list(range(1, 7))
    rng.shuffle(image)
    return (0,) + tuple(image)


def relabel_class(c: DivisorClass, perm) -> DivisorClass:
    """The class with coefficient of E_i moved to E_perm[i]."""
    v = [0] * 7
    for i in range(7):
        v[perm[i]] = c[i]
    return DivisorClass(v)


def relabel_mults(mults, perm) -> tuple:
    return relabel_class(DivisorClass((0,) + tuple(mults)), perm).multiplicities


def catalog_roots(name: str, perm) -> tuple:
    return tuple(sorted(relabel_class(c, perm) for c in config.dynkin_catalog()[name]))


def attempt(fn, *args):
    """fn(*args), or the exception it raised: an item that raises counts as
    a failed item, not as a failed run."""
    try:
        return fn(*args)
    except Exception as exc:  # any failure of the package, caught per item
        return exc


@dataclass
class PassResult:
    """What one pass produced: per-item outputs, in item order."""

    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sweep: acceptance criterion 12 with relabelled points


class Sweep:
    """Cases i-iv through ``verify_configuration``, then every marking of the
    20 catalog types through ``verify_all_markings`` with one dedupe cache
    shared across the pass: 300 items, 296 pairs, 88 distinct problems.

    Loads ``murank`` (chain, ``deficient``, ``ql_bounds``, ``certify``) and
    ``cones`` (``h0``, ``_pare``) with short reductions; never touches
    ``oracle`` and barely touches ``resolution``.
    """

    name = "sweep"
    #: (items, distinct marking problems) of one full pass on any seed.
    EXPECTED = {"full": (300, 88), "tiny": (14, 9)}
    CASES = {"full": ("i", "ii", "iii", "iv"), "tiny": ("iii", "iv")}
    TYPES = {"full": None, "tiny": ("3A2", "A1A5", "D5", "E6")}

    def __init__(self, size: str = "full"):
        self.size = size

    def setup_tables(self):
        cones.seed_orbit_union()

    def generate(self, seed: int):
        rng = random.Random(seed)
        cases = [(c, random_perm(rng)) for c in self.CASES[self.size]]
        names = self.TYPES[self.size] or sorted(config.dynkin_catalog())
        types = [(n, catalog_roots(n, random_perm(rng))) for n in names]
        return cases, types

    def run_pass(self, inputs, item) -> PassResult:
        cases, types = inputs
        out = PassResult()
        for case, perm in cases:
            neg = config.neg_from_distinct(distinct_spec(case, perm))
            with item(f"case-{case}"):
                rep = attempt(murank.verify_configuration, neg)
            out.outputs.append((f"case {case}", _ok(rep)))
        cache: dict = {}
        for name, roots in types:
            neg = config.neg_from_nodal(roots)
            reports = murank.verify_all_markings(neg, _cache=cache)
            for k in itertools.count():
                with item(f"{name}-{k}") as it:
                    rep = attempt(next, reports, None)
                    if rep is None:
                        it.discard()  # the call that found the markings exhausted
                if rep is None:
                    break
                out.outputs.append((f"{name} marking {k}", _ok(rep)))
        out.extra["distinct"] = len(cache)
        out.extra["pairs"] = len(out.outputs) - len(cases)
        return out

    def check(self, inputs, res: PassResult) -> list:
        """Per item: whether it failed.  A broken pass-level invariant fails
        every item of the pass."""
        failed = [not ok for _label, ok in res.outputs]
        items, distinct = self.EXPECTED[self.size]
        if len(res.outputs) != items or res.extra["distinct"] != distinct:
            failed = [True] * max(len(res.outputs), 1)
        return failed


def _ok(rep) -> bool:
    return not isinstance(rep, Exception) and rep.ok


# ---------------------------------------------------------------------------
# oracle: acceptance criterion 11 as a seeded corpus


def _corpus_by_cost() -> list:
    """Every vector the acceptance test's generator can draw (entries 0..6,
    sum <= 12; it draws them uniformly), sorted by a cost proxy: the number
    of vanishing conditions, then the degree of the scheme."""
    vecs = [v for v in itertools.product(range(7), repeat=6) if sum(v) <= 12]
    return sorted(vecs, key=lambda v: (sum(m * (m + 1) // 2 for m in v), sum(v), v))


class Oracle:
    """Random multiplicity vectors on the six fixture cases; an item is one
    (vector, case) pair, each with its own vector.  Runs ``hilbert`` through
    the cone pipeline, then ``oracle.ideal_dim`` for every t <= sigma+1 and
    ``oracle.mu_rank_direct`` for every nef degree.

    Nearly all the time is in ``oracle``: building the conditions matrix in
    Python, then mod-p rank and nullspace.  ``cones`` and ``murank`` do
    almost no work.
    """

    name = "oracle"
    ITEMS = {"full": 360, "tiny": 6}

    def __init__(self, size: str = "full"):
        self.size = size
        self.points: dict = {}

    def setup_tables(self):
        self.points = {c: oracle.fixture_points(c) for c in ORACLE_CASES}

    def generate(self, seed: int):
        """(vector, case) items.  The vectors are drawn one from each of n
        equal slices of the corpus sorted by cost, uniformly within the
        slice, so each vector is as likely as under the acceptance
        generator and every seed gets the same mix of sizes.  The cases take
        turns along the slices, from the costliest down, in a random order."""
        rng = random.Random(seed)
        corpus = _corpus_by_cost()
        n = self.ITEMS[self.size]
        cases = list(ORACLE_CASES)
        rng.shuffle(cases)
        items = [(corpus[rng.randrange(k * len(corpus) // n, (k + 1) * len(corpus) // n)],
                  cases[(n - 1 - k) % len(cases)]) for k in range(n)]
        rng.shuffle(items)
        return items

    def run_pass(self, items, item) -> PassResult:
        out = PassResult()
        negs = {c: config.neg_from_distinct(distinct_spec(c)) for c in ORACLE_CASES}
        for i, (m, case) in enumerate(items):
            pts, neg = self.points[case], negs[case]
            with item(f"{i}-{case}"):
                got = attempt(_both_routes, pts, neg, m)
            out.outputs.append(got)
        out.extra["negs"] = negs
        return out

    def check(self, items, res: PassResult) -> list:
        """Both routes agree on every dimension and every (ker, cok) pair."""
        negs = res.extra["negs"]
        failed = []
        for (m, case), got in zip(items, res.outputs):
            if isinstance(got, Exception):
                failed.append(True)
                continue
            prof, dims, mu = got
            neg = negs[case]
            z = resolution.FatPointScheme(neg=neg, multiplicities=m)
            top = prof.sigma + 1
            want_mu = {}
            for t in range(top + 1):
                f = z.class_for_degree(t)
                if not cones.is_nef(f, neg):
                    continue
                h = prof(t)
                hn = prof(t + 1) if t + 1 <= top else cones.h0(f + E0, neg)
                want_mu[t] = (max(0, 3 * h - hn), max(0, hn - 3 * h))
            failed.append(dims != [prof(t) for t in range(top + 1)] or mu != want_mu)
        return failed


def _both_routes(pts, neg, m):
    """The cone pipeline's Hilbert function, then the oracle's dimensions
    for t <= sigma+1 and its (ker, cok) for every nef degree."""
    z = resolution.FatPointScheme(neg=neg, multiplicities=m)
    prof = resolution.hilbert(z)
    top = prof.sigma + 1
    dims = [oracle.ideal_dim(pts, m, d) for d in range(top + 1)]
    mu = {d: oracle.mu_rank_direct(pts, m, d) for d in range(top + 1)
          if cones.is_nef(z.class_for_degree(d), neg)}
    return prof, dims, mu


# ---------------------------------------------------------------------------
# resolve: Hilbert function and Betti numbers at large multiplicities


def _configurations():
    """The six distinct cases and the 20 catalog types, as labels."""
    return [("distinct", c) for c in ORACLE_CASES] + \
        [("type", n) for n in sorted(config.dynkin_catalog())]


def build_neg(kind: str, label: str, perm) -> config.NegSet:
    if kind == "distinct":
        return config.neg_from_distinct(distinct_spec(label, perm))
    return config.neg_from_nodal(catalog_roots(label, perm))


class Resolve:
    """Fat point schemes with large multiplicities on the distinct cases and
    the catalog types; an item is ``hilbert(z)`` plus ``betti(z)``.

    The largest multiplicity is log-uniform on 1..MAX_MULT and the other
    five are uniform on 0..largest.  Every scheme comes twice, in two
    random labellings of its points (multiplicities permuted alike), and
    the two items must agree.  Loads the same ``cones.reduce``/``h0``
    layer as the sweep, but with a few long reductions (tens of steps per
    call against about one on the sweep), plus ``resolution`` and, on the
    catalog types, ``proximity_normalize``.  Never touches ``murank`` or
    ``oracle``.
    """

    name = "resolve"
    SCHEMES = {"full": 300, "tiny": 6}
    MAX_MULT = {"full": 200, "tiny": 12}

    def __init__(self, size: str = "full"):
        self.size = size

    def setup_tables(self):
        pass

    def generate(self, seed: int):
        """Stratified schemes, so that every seed gets the same spread of
        sizes: the k-th of n schemes has its largest multiplicity in the
        k-th of n equal strata of the log scale, the configurations take
        turns along the strata, from the top down, in a random order, and
        the five smaller multiplicities fall one in each fifth of
        0..largest, in random places.  Items are (scheme, kind, label, relabelling,
        multiplicities), two per scheme, in random order."""
        rng = random.Random(seed)
        n = self.SCHEMES[self.size]
        top = self.MAX_MULT[self.size]
        configs = _configurations()
        rng.shuffle(configs)
        items = []
        for k in range(n):
            kind, label = configs[(n - 1 - k) % len(configs)]
            big = max(1, round(top ** ((k + rng.random()) / n)))
            mults = [int((j + rng.random()) / 5 * (big + 1)) for j in range(5)]
            rng.shuffle(mults)
            mults.insert(rng.randrange(6), big)
            perm, other = random_perm(rng), random_perm(rng)
            items.append((k, kind, label, perm, tuple(mults)))
            items.append((k, kind, label, tuple(other[i] for i in perm),
                          relabel_mults(mults, other)))
        rng.shuffle(items)
        return items

    def run_pass(self, items, item) -> PassResult:
        out = PassResult()
        for i, (_k, kind, label, perm, mults) in enumerate(items):
            neg = build_neg(kind, label, perm)
            with item(f"{i}-{label}"):
                got = attempt(_resolve, neg, mults)
            out.outputs.append(got)
        return out

    def check(self, items, res: PassResult) -> list:
        """Betti identities hold for every item, and both labellings of a
        scheme give identical Hilbert functions and Betti tables."""
        ok = [not isinstance(got, Exception) and betti_identities(*got)
              for got in res.outputs]
        twins: dict = {}
        for i, it in enumerate(items):
            twins.setdefault(it[0], []).append(i)
        for a, b in twins.values():
            pa, pb = res.outputs[a], res.outputs[b]
            if ok[a] and ok[b] and (_profile_key(pa[0]), pa[1]) != (_profile_key(pb[0]), pb[1]):
                ok[a] = ok[b] = False
        return [not x for x in ok]


def _resolve(neg, mults):
    z = resolution.FatPointScheme(neg=neg, multiplicities=mults)
    return resolution.hilbert(z), resolution.betti(z)


def _profile_key(prof):
    return prof.values, prof.alpha, prof.tau, prof.sigma


def betti_identities(prof, table) -> bool:
    """t_alpha = H(alpha), generators in alpha..sigma, s_i - t_i equal to the
    negated third difference of H, and one more generator than syzygy."""
    t, s = table.t, table.s

    def h(d):
        return prof(d) if d >= 0 else 0

    if not t or min(t) != prof.alpha or t[prof.alpha] != h(prof.alpha):
        return False
    if max(t) > prof.sigma or any(v <= 0 for v in list(t.values()) + list(s.values())):
        return False
    for d in range(prof.sigma + 2):
        d3 = h(d) - 3 * h(d - 1) + 3 * h(d - 2) - h(d - 3)
        if t.get(d, 0) - s.get(d, 0) != d3:
            return False
    return sum(t.values()) - sum(s.values()) == 1


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Resolve)}
