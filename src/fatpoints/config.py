"""Point configurations and the negative curves they carry.

A configuration of six points is described either combinatorially, for
distinct plane points (which maximal subsets are collinear, whether all six
lie on a conic), or through its set of nodal roots (classes of (-2)-curves)
when some points are infinitely near.  Either description names the
curves of square <= -2 in NEG(X), the classes of reduced irreducible curves
of negative self-intersection on the blow-up.  One rule adds the rest: an
exceptional class is a curve exactly when it meets all those nonnegatively.

Explicit nodal roots are validated and their Dynkin type is named; nothing
else can fail, as every valid root set lies in the Weyl orbit of the
catalog set of its type (``dynkin_catalog``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import weyl
from .lattice import K, MINUS_K, DivisorClass, E, through


class ConfigError(ValueError):
    """A point-configuration description violates its invariants."""


def _row(c: DivisorClass) -> list:
    """``c`` as errors show it: the display row a config file gives."""
    return list(c.display_row())


# ---------------------------------------------------------------------------
# NEG sets


@dataclass(frozen=True)
class NegSet:
    """The classes of prime divisors of negative self-intersection.

    Members split by self-intersection: nodal classes (square -2), the
    exceptional ones (square -1), and, for distinct points with four or more
    on a line, a few line classes of square <= -3.
    """

    classes: tuple

    _cache: dict = field(default_factory=dict, compare=False, repr=False)  # per_surface

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(sorted(set(self.classes))))
        arcs = set()  # Ei - Ej effective puts pj infinitely near pi: arcs i -> j make no cycle
        for c in self.classes:
            square = c.dot(c)
            if square >= 0:
                raise ConfigError(f"{_row(c)} has nonnegative self-intersection")
            if not 0 <= c.degree <= 2:
                raise ConfigError(f"{_row(c)} has degree outside 0..2")
            if square == -2 and c[0] == 0 and 1 in c and -1 in c:  # c is Ei - Ej
                arcs.add((c.index(-1), c.index(1)))
        for a, b in itertools.combinations(self.classes, 2):
            if a.dot(b) < 0:
                raise ConfigError(f"distinct members {_row(a)}, {_row(b)} meet negatively")
        while arcs:  # drop the arcs out of points that no arc enters
            heads = {j for _, j in arcs}
            kept = {(i, j) for i, j in arcs if i in heads}
            if kept == arcs:
                raise ConfigError("members Ei - Ej form a directed cycle among points "
                                  f"{sorted({i for i, _ in arcs})}")
            arcs = kept

    def __hash__(self):
        return hash(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    @property
    def nodal(self) -> tuple:
        return tuple(c for c in self.classes if c.dot(c) == -2)


def per_surface(fn):
    """Memoize fn(neg, *args) on the NegSet, keyed by fn, or by (fn, *args)
    when there are arguments, so a hit is one dict lookup.  A call that
    raises stores nothing; an equal but distinct NegSet starts empty."""
    @functools.wraps(fn)
    def memo(neg, *args):
        key = (fn, *args) if args else fn
        try:
            return neg._cache[key]
        except KeyError:
            pass  # fn runs outside the handler, so its errors are not chained to this one
        got = neg._cache[key] = fn(neg, *args)
        return got
    return memo


def anticanonical_nef(neg: NegSet) -> bool:
    """True when -K meets every negative curve nonnegatively."""
    return all(MINUS_K.dot(c) >= 0 for c in neg)


def _with_exceptional(curves) -> NegSet:
    """NEG from its curves of square <= -2 (a tuple): those curves and every
    exceptional class that meets each of them nonnegatively."""
    return NegSet(curves + tuple(e for e in weyl.exceptional_classes()
                                 if all(e.dot(c) >= 0 for c in curves)))


def neg_from_nodal(nodal) -> NegSet:
    """NEG(X) from a set of nodal roots.

    The nodal roots are the curves of square <= -2, so NEG is the nodal set
    together with the exceptional classes that meet every root nonnegatively.
    """
    nodal = tuple(sorted(set(nodal)))
    for c in nodal:
        if c.dot(c) != -2 or K.dot(c) != 0:
            raise ConfigError(f"{_row(c)} is not a nodal root")
    return _with_exceptional(nodal)  # NegSet rejects roots that meet negatively


# ---------------------------------------------------------------------------
# Distinct points


@dataclass(frozen=True)
class DistinctSpec:
    """Six distinct plane points, described by their collinearity pattern.

    ``collinear`` lists the maximal collinear subsets of {1..6} of size 3
    or 4; ``six_on_conic`` records whether an irreducible conic passes
    through all six (which forces ``collinear`` to be empty).  Five or six
    collinear points are rejected, though NEG holds them (one line class, of
    square -4 or -5): ``cones.reduce``'s termination weight meets the line
    through five in -1, and conic support on their reducible conic is unproven.
    """

    collinear: tuple = ()
    six_on_conic: bool = False

    def __post_init__(self):
        sets = tuple(frozenset(s) for s in self.collinear)
        object.__setattr__(self, "collinear", tuple(sorted(sets, key=sorted)))
        for s in sets:
            if not s <= frozenset(range(1, 7)):
                raise ConfigError(f"collinear subset {sorted(s)} has indices outside 1..6")
            if len(s) < 3:
                raise ConfigError(f"collinear subset {sorted(s)} has fewer than 3 points")
            if len(s) >= 5:
                raise ConfigError(f"collinear subset {sorted(s)} has 5 or more points; "
                                  "its line is outside the reduction's termination argument")
        for a, b in itertools.combinations(sets, 2):
            if len(a & b) > 1:
                raise ConfigError(
                    f"two collinear subsets {sorted(a)}, {sorted(b)} share 2 points")
        if self.six_on_conic and sets:
            raise ConfigError("six_on_conic requires an empty collinear list "
                              "(an irreducible conic has no 3 collinear points)")


def neg_from_distinct(spec: DistinctSpec) -> NegSet:
    """NEG(X) for six distinct points with the given collinearity pattern.

    The curves of square <= -2 are one line class E0 - sum(Ei, i in S) per
    maximal collinear subset S, and 2E0-E1-...-E6 when all six are conconic;
    the exceptional classes meeting each of them nonnegatively complete NEG.
    """
    curves = tuple(through(1, s) for s in spec.collinear)
    return _with_exceptional(curves + ((_CONIC6,) if spec.six_on_conic else ()))


#: The named distinct-point configurations that the coordinate oracle
#: realizes (``oracle.fixture_points``): cases i-iv put 1-4 lines through
#: triples of the points, "general" has no three collinear and no conic
#: through all six, "conic" puts all six on an irreducible conic.
FIXTURE_SPECS = {
    "i": DistinctSpec(collinear=((1, 2, 3),)),
    "ii": DistinctSpec(collinear=((1, 2, 3), (1, 4, 5))),
    "iii": DistinctSpec(collinear=((1, 2, 3), (1, 4, 5), (3, 5, 6))),
    "iv": DistinctSpec(collinear=((1, 2, 3), (1, 4, 5), (3, 5, 6), (2, 4, 6))),
    "general": DistinctSpec(),
    "conic": DistinctSpec(six_on_conic=True),
}


# ---------------------------------------------------------------------------
# The twenty nodal-root configurations with nef anticanonical class


def _v(i: int, j: int) -> DivisorClass:
    return E[i] - E[j]


def _line(i: int, j: int, k: int) -> DivisorClass:
    return through(1, (i, j, k))


_CONIC6 = through(2, range(1, 7))

_CATALOG = {
    "A1": (_CONIC6,),
    "2A1": (_CONIC6, _v(1, 2)),
    "A2": (_line(1, 2, 3), _line(4, 5, 6)),
    "3A1": (_CONIC6, _v(1, 2), _v(3, 4)),
    "A1A2": (_CONIC6, _v(1, 2), _v(2, 3)),
    "A3": (_line(1, 2, 3), _line(1, 4, 5), _v(1, 6)),
    "4A1": (_CONIC6, _v(1, 2), _v(3, 4), _v(5, 6)),
    "2A1A2": (_CONIC6, _v(1, 2), _v(3, 4), _v(4, 5)),
    "A1A3": (_CONIC6, _v(1, 2), _v(2, 3), _v(3, 4)),
    "2A2": (_line(1, 2, 3), _line(4, 5, 6), _v(1, 2), _v(2, 3)),
    "A4": (_line(1, 2, 3), _line(1, 4, 5), _v(1, 2), _v(2, 6)),
    "D4": (_line(1, 3, 5), _v(1, 2), _v(3, 4), _v(5, 6)),
    "A12A2": (_CONIC6, _v(1, 2), _v(2, 3), _v(4, 5), _v(5, 6)),
    "2A1A3": (_CONIC6, _v(1, 2), _v(3, 4), _v(4, 5), _v(5, 6)),
    "A1A4": (_CONIC6, _v(1, 2), _v(2, 3), _v(3, 4), _v(4, 5)),
    "A5": (_line(1, 2, 3), _line(1, 4, 5), _v(1, 2), _v(2, 3), _v(3, 6)),
    "D5": (_line(1, 3, 4), _v(1, 2), _v(3, 4), _v(4, 5), _v(5, 6)),
    "3A2": (_line(1, 2, 3), _line(4, 5, 6), _v(1, 2), _v(2, 3), _v(4, 5), _v(5, 6)),
    "A1A5": (_CONIC6, _v(1, 2), _v(2, 3), _v(3, 4), _v(4, 5), _v(5, 6)),
    "E6": (_line(1, 2, 3), _v(1, 2), _v(2, 3), _v(3, 4), _v(4, 5), _v(5, 6)),
}


def dynkin_catalog() -> dict:
    """Canonical nodal-root sets for the 20 realizable diagram types.

    These are all the root-subsystem types of E6 (Harbourne, Trans. AMS
    349, 1997): a root set that ``dynkin_classify`` accepts lies in the
    Weyl orbit of one of them.
    """
    return dict(_CATALOG)


def _diagram(roots) -> tuple:
    """("A", m), ("D", m) or ("E", 6) for a connected set of m nodal roots.

    They form a Dynkin diagram exactly when every pivot of their Cartan
    matrix (the negated Gram matrix) is positive, and the product of the
    pivots is m + 1 for A_m, 4 for D_m (m >= 4) and 3 for E6.
    """
    m = len(roots)
    a = [[-x.dot(y) for y in roots] for x in roots]
    det = 1
    for k, row in enumerate(a):
        if row[k] <= 0:
            det = 0  # not positive definite: no diagram has determinant 0
            break
        det *= row[k]
        for below in a[k + 1:]:
            if below[k]:
                f = Fraction(below[k]) / row[k]
                below[k:] = [x - f * y for x, y in zip(below[k:], row[k:])]
    for kind, want, fits in (("A", m + 1, True), ("D", 4, m >= 4), ("E", 3, m == 6)):
        if fits and det == want:
            return (kind, m)
    raise ConfigError(f"component of {m} roots is not an A/D/E diagram")


def dynkin_classify(nodal) -> str:
    """Recognize a nodal-root set as a disjoint union of A/D/E diagrams.

    Splits the intersection graph (edges where two roots meet once) into
    connected components and names each by ``_diagram``, sorted as
    A1 < A2 < ... < D4 < D5 < E6 with count prefixes, e.g. "2A1A3".
    """
    nodes = tuple(sorted(set(nodal)))
    for c in nodes:
        if c.dot(c) != -2:
            raise ConfigError(f"{_row(c)} is not a nodal root (square != -2)")
    for a, b in itertools.combinations(nodes, 2):
        if a.dot(b) not in (0, 1):
            raise ConfigError(f"roots {_row(a)}, {_row(b)} pair to {a.dot(b)}, not 0 or 1")
    comps = []
    for a in nodes:
        linked = [comp for comp in comps if any(a.dot(b) for b in comp)]
        comps = [comp for comp in comps if comp not in linked]
        comps.append([a, *itertools.chain(*linked)])
    counts = collections.Counter(sorted(_diagram(comp) for comp in comps))
    return "".join(f"{n if n > 1 else ''}{kind}{m}" for (kind, m), n in counts.items())


# ---------------------------------------------------------------------------
# Top-level configuration objects


def _int_rows(value, key: str) -> tuple:
    """A JSON list of integer lists as a tuple of tuples; booleans are not integers."""
    if not (isinstance(value, list) and all(
            isinstance(row, list) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in row)
            for row in value)):
        raise ConfigError(f"'{key}' must be a list of lists of integers")
    return tuple(tuple(row) for row in value)


#: The keys each configuration kind reads; any other key is rejected.
_KEYS = {"distinct": {"kind", "collinear", "six_on_conic"},
         "dynkin": {"kind", "type"},
         "nodal": {"kind", "roots"}}


@dataclass(frozen=True)
class PointConfiguration:
    """A validated configuration plus its computed NEG set."""

    kind: str  # "distinct" | "dynkin" | "nodal"
    neg: NegSet
    type_name: str | None = None

    @classmethod
    def from_distinct(cls, spec: DistinctSpec) -> "PointConfiguration":
        return cls(kind="distinct", neg=neg_from_distinct(spec))

    @classmethod
    def from_dynkin(cls, type_name: str) -> "PointConfiguration":
        if type_name not in _CATALOG:
            raise ConfigError(
                f"unknown type {type_name!r}; expected one of "
                f"{', '.join(sorted(_CATALOG))}")
        return cls(kind="dynkin", neg=neg_from_nodal(_CATALOG[type_name]),
                   type_name=type_name)

    @classmethod
    def from_nodal(cls, roots) -> "PointConfiguration":
        """Distinct roots, named by ``dynkin_classify``; ``neg_from_nodal``
        rejects a class with K.c != 0 and ``NegSet`` one of negative degree.
        Nothing else can fail (``dynkin_catalog``)."""
        roots = tuple(roots)
        if len(set(roots)) != len(roots):
            raise ConfigError("nodal roots must be distinct")
        name = dynkin_classify(roots) if roots else None
        return cls(kind="nodal", neg=neg_from_nodal(roots), type_name=name)

    @classmethod
    def from_dict(cls, data: dict) -> "PointConfiguration":
        if not isinstance(data, dict):
            raise ConfigError(f"configuration must be a JSON object, "
                              f"got {type(data).__name__}")
        kind = data.get("kind")
        keys = _KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            raise ConfigError(f"unknown configuration kind {kind!r}")
        extra = [k for k in data if k not in keys]
        if extra:
            raise ConfigError(f"unknown key {extra[0]!r} in a {kind} configuration")
        if kind == "distinct":
            conic = data.get("six_on_conic", False)
            if not isinstance(conic, bool):
                raise ConfigError("'six_on_conic' must be true or false")
            spec = DistinctSpec(
                collinear=_int_rows(data.get("collinear", []), "collinear"),
                six_on_conic=conic)
            return cls.from_distinct(spec)
        if kind == "dynkin":
            if not isinstance(data.get("type"), str):
                raise ConfigError("dynkin configuration needs a 'type' string")
            return cls.from_dynkin(data["type"])
        rows = _int_rows(data.get("roots"), "roots")
        return cls.from_nodal(DivisorClass.from_display_row(r) for r in rows)

    @classmethod
    def load(cls, path) -> "PointConfiguration":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            except RecursionError as exc:
                raise ConfigError("config file is nested too deeply to parse") from exc
        return cls.from_dict(data)

