"""Fat point schemes: Hilbert functions and graded Betti numbers.

A fat point scheme attaches multiplicities (m1..m6) to a six-point
configuration; its degree-t piece corresponds to the class
F_t = t*E0 - m1*E1 - ... - m6*E6.  Section counts come from the reduction
algorithm, and the generator counts t_i of the minimal free resolution
come from cokernel dimensions of the degree-raising multiplication maps,
which have maximal rank on the configurations supported here.  Syzygy
counts follow as s_i = t_i - (third difference of the Hilbert function).
The Hilbert function and resolution are those of Harbourne, *Free
resolutions of fat point ideals on P2* (JPAA 125, 1998).

Every invariant is read off one profile of the scheme (``_profile``): its
degree table (``_table``), two lists, the nef part N_t of F_t (None
without sections) and its section count h0(F_t) for t = 0..T, with alpha
and tau found and checked on the h0 list (h1 = h0 - chi by Riemann-Roch).
``hilbert`` unpacks it, ``betti`` reads the cokernels off both lists, and
``mu_cokernel`` reads ``betti``.  The NegSet keeps the profile of the last
scheme (``_degree_slot``), so a scheme is normalized and filled once.

The table is filled once, walking down the degrees.  It reduces F_T once
at a top degree T, two past the least degree t0 where F_t meets every NEG
class nonnegatively, then gets degree t from N_{t+1} by reducing
N_{t+1} - E0 instead of F_t; that fill covers alpha and tau + 2.  Past the
table F_t is nef, so h0(F_t) = chi(F_t) and no degree beyond it is reduced.
This is exact.  Fix(F + E0) <= Fix(F), because |E0| is base-point free.
Each ``reduce`` step subtracts only a forced component: copies of an
irreducible curve C with F.C < 0.  Those copies stay forced in
F_t = F_{t+1} - E0, since E0.C >= 0.  Two distinct forced curves stay
forced after either is subtracted, since they meet nonnegatively, so the
order of forced subtractions does not change where they end.  Hence
N_{t+1} - E0 (F_t less the fixed part of F_{t+1}) reduces to N_t and has
the same h0.  If F_{t+1} has no sections, neither has F_t, so below the
first degree without sections nothing is reduced.  Walking down, each
step strips only the few curves that subtracting E0 makes negative, so
the cost of a degree does not grow with the multiplicities.
The walk carries the pairings of the nef part with the NEG classes along
with it (``cones._strip``), from T*deg C + F_0.C at the nef F_T, the values
that find T: subtracting E0 lowers the pairing with C by deg C and each
step updates them by one row of the NEG Gram table, so a walked degree
takes no dot product with a NEG class.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .config import NegSet, anticanonical_nef, per_surface
from .cones import _strip, reduce
from .lattice import DivisorClass, chi


class UnsupportedConfigurationError(ValueError):
    """Infinitely-near points without a nef anticanonical class."""


@dataclass(frozen=True)
class FatPointScheme:
    """Multiplicities attached to a configuration, given through its NEG set."""

    neg: NegSet
    multiplicities: tuple

    def __post_init__(self):
        m = tuple(self.multiplicities)
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in m):
            raise TypeError(f"non-integer multiplicity in {m!r}")
        m = tuple(int(x) for x in m)
        if len(m) != 6:
            raise ValueError(f"need 6 multiplicities, got {len(m)}")
        if any(x < 0 for x in m):
            raise ValueError(f"negative multiplicity in {m}")
        object.__setattr__(self, "multiplicities", m)

    def class_for_degree(self, t: int) -> DivisorClass:
        """The class t*E0 - m1*E1 - ... - m6*E6."""
        return DivisorClass((t,) + self.multiplicities)

    def is_supported(self) -> bool:
        """Distinct-point configurations, or infinitely-near ones with -K nef.

        A configuration involves infinitely-near points exactly when NEG
        contains a degree-0 class other than the basis classes Ei.
        """
        vertical = any(c.degree == 0 and c.dot(c) != -1 for c in self.neg)
        return not vertical or anticanonical_nef(self.neg)


def proximity_normalize(z: FatPointScheme) -> FatPointScheme:
    """Canonical multiplicities defining the same ideal.

    Degree-0 negative curves impose inequalities on the multiplicities
    (e.g. a point infinitely near another cannot carry a larger one); while
    any is violated the offending curve is a fixed component in every
    degree, so subtracting it off changes nothing.  A curve met negatively
    is subtracted ceil(-base.C / -C^2) times at once, the number of copies
    the one-at-a-time loop would take.  Idempotent.
    """
    vertical = [c for c in z.neg if c.degree == 0]
    base = DivisorClass((0,) + z.multiplicities)
    changed = True
    while changed:
        changed = False
        for c in vertical:
            d = base.dot(c)
            if d < 0:
                base = base - (-(d // -c.dot(c))) * c
                changed = True
    m = base.multiplicities
    if any(x < 0 for x in m):
        raise ArithmeticError(f"normalization produced negative multiplicities {m}")
    if m == z.multiplicities:
        return z
    return FatPointScheme(neg=z.neg, multiplicities=m)


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values with the three attached invariants.

    ``alpha``: least degree with a nonzero value.  ``tau``: least degree
    from which the values agree with the Hilbert polynomial.  ``sigma``:
    tau + 1; generator degrees never exceed it.
    """

    values: dict
    alpha: int
    tau: int
    sigma: int

    def __call__(self, t: int) -> int:
        if t < 0:
            return 0
        got = self.values.get(t)
        if got is None:
            raise KeyError(f"degree {t} not computed (max {max(self.values)})")
        return got


@per_surface
def _degree_slot(neg: NegSet) -> list:
    """[multiplicities, profile] of the last scheme asked about on the
    NegSet, keyed by the multiplicities as given (``_profile``)."""
    return [None, None]


def _table(z: FatPointScheme) -> tuple:
    """The lists (nef, h0) of the degree table of a normalized z (module
    doc), for the degrees 0 .. t0 + 2, filled anew on every call.

    ``nef[u]`` is the nef part ``reduce`` gives F_u, or None when F_u has no
    sections; ``h0[u]`` is the section count of F_u.
    """
    neg = z.neg
    degrees = [c.degree for c in neg]
    f0 = list(map(z.class_for_degree(0).dot, neg))  # F_u.C = u*deg C + F_0.C
    top = 2 + max([0] + [-(e // g) for e, g in zip(f0, degrees) if g > 0])
    red = reduce(z.class_for_degree(top), neg)  # F_top is nef: no step
    part = red.nef_part if red.effective else None
    nef = [part]
    d = [top * g + e for g, e in zip(degrees, f0)]
    for _ in range(top):
        if part is not None:
            cur = list(part)
            cur[0] -= 1  # (N - E0).C = N.C - deg C
            effective, cur, d, _ = _strip(
                cur, [a - b for a, b in zip(d, degrees)], neg)
            part = DivisorClass(cur) if effective else None
        nef.append(part)
    nef.reverse()
    return nef, [0 if p is None else chi(p) for p in nef]


def _profile(z: FatPointScheme) -> tuple:
    """(nef, h0, alpha, tau, conditions) of z: the degree table of z
    normalized, alpha and tau found and checked on it, and sum m(m+1)/2.

    F_t0 .. F_top are nef (normalization covers degree 0), with h0 = chi and
    h1 = 0, and chi(F_t0) >= 1 (a nef class meets itself and the effective
    -K nonnegatively): alpha, tau <= t0, and the fill covers tau + 2.  The
    NegSet's slot keeps these plain values, under z's own multiplicities.
    """
    slot = _degree_slot(z.neg)
    if slot[0] == z.multiplicities:
        return slot[1]
    key, z = z.multiplicities, proximity_normalize(z)
    nef, h0 = _table(z)
    # h1 = h0 - chi(F_t), and chi(F_t) = (t+1)(t+2)/2 - conditions by
    # Riemann-Roch (t >= 0, so that h2 vanishes)
    conditions = sum(m * (m + 1) // 2 for m in z.multiplicities)
    h1 = [v - (t + 1) * (t + 2) // 2 + conditions for t, v in enumerate(h0)]
    alpha = next((t for t, v in enumerate(h0) if v), len(h0))
    tau = next((t for t, v in enumerate(h1) if v <= 0), len(h1))
    for t, v in enumerate(h1[:tau + 3]):
        if v < 0:
            raise ArithmeticError(
                f"negative h1 in degree {t}; section count corrupted")
    if max(alpha, tau + 2) >= len(h0):
        raise ArithmeticError("Hilbert scan failed to stabilize")
    if h1[tau + 1] or h1[tau + 2]:
        raise ArithmeticError(
            f"first cohomology failed to stay zero past degree {tau}")
    slot[:] = key, (nef, h0, alpha, tau, conditions)
    return slot[1]


def hilbert(z: FatPointScheme, t_max: int | None = None) -> HilbertProfile:
    """Hilbert function of the ideal of z, up to max(t_max, sigma + 1).

    Works with the normalized multiplicities; the ideal is unchanged by
    normalization.  The values run through the first degree where the
    first-cohomology term of the degree class vanishes, which is stable in
    the degree, and two confirming degrees are checked anyway.  They are
    read off the degree table (module doc) and, past it, where F_t is nef,
    are chi(F_t) = (t+1)(t+2)/2 - sum m(m+1)/2.
    """
    _, h0, alpha, tau, conditions = _profile(z)
    end = max(alpha, tau + 2, t_max or 0)
    values = h0[:end + 1] + [(t + 1) * (t + 2) // 2 - conditions
                             for t in range(len(h0), end + 1)]
    return HilbertProfile(values=dict(enumerate(values)), alpha=alpha,
                          tau=tau, sigma=tau + 1)


def mu_cokernel(z: FatPointScheme, i: int) -> int:
    """Cokernel dimension of multiplication from degree i to degree i+1.

    Minimal generators of degree i+1 map to a basis of the cokernel, so its
    dimension is the generator count t_{i+1} of :func:`betti`, which is 0
    unless alpha <= i+1 <= sigma.
    """
    return betti(z).t.get(i + 1, 0)


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers: generator counts t and syzygy counts s by degree."""

    t: dict
    s: dict

    def generator_summary(self) -> str:
        return format_shifts(self.t)

    def syzygy_summary(self) -> str:
        return format_shifts(self.s)


def format_shifts(counts: dict) -> str:
    """Render degree->count as shift notation, e.g. "R[-6] + R[-8]^3".

    Degree 0 carries no shift: the unit ideal prints as "R".
    """
    if not counts:
        return "0"
    parts = []
    for d in sorted(counts):
        n = counts[d]
        base = f"R[-{d}]" if d else "R"
        parts.append(base if n == 1 else f"{base}^{n}")
    return " + ".join(parts)


def betti(z: FatPointScheme) -> BettiTable:
    """Graded Betti numbers of the minimal free resolution of the ideal of z.

    Generator counts: t_alpha equals the first nonzero Hilbert value, the
    later ones are the cokernel dimensions of the multiplication maps, and
    nothing survives past sigma.  Syzygies: s_i = t_i minus the third
    difference of the Hilbert function, always nonnegative, with one more
    generator than syzygy in total.
    """
    if not z.is_supported():
        raise UnsupportedConfigurationError(
            "infinitely-near configuration without nef anticanonical class")
    nef, h0, alpha, tau, _ = _profile(z)
    sigma = tau + 1
    t = {alpha: h0[alpha]}
    for i in range(alpha, sigma):
        # h0[i] = chi(m) for the nef part m of F_i.  The fixed part of F_i
        # adds h0[i + 1] - h0(m + E0) to the cokernel, and on m the map has
        # maximal rank.  m + E0 meets every NEG class nonnegatively and has
        # degree >= 1, so its section count is its chi, which Riemann-Roch
        # puts at chi(m) + m.E0 + 2
        hm_up = h0[i] + nef[i].degree + 2
        v = max(0, hm_up - 3 * h0[i]) + (h0[i + 1] - hm_up)
        if v:
            t[i + 1] = v
    h = [0, 0, 0] + h0[:sigma + 2]  # h[i + 3] is the value in degree i
    s: dict = {}
    for i in range(0, sigma + 2):
        v = t.get(i, 0) - (h[i + 3] - 3 * h[i + 2] + 3 * h[i + 1] - h[i])
        if v < 0:
            raise ArithmeticError(
                f"negative syzygy count at degree {i}; maximal-rank step broken")
        if v:
            s[i] = v
    if sum(t.values()) - sum(s.values()) != 1:
        raise ArithmeticError("generator/syzygy totals do not differ by one")
    return BettiTable(t=t, s=s)
