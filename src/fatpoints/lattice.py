"""Rank-7 divisor class lattice with its integer intersection form.

Classes live in the free abelian group with orthogonal basis E0, ..., E6,
where E0^2 = 1, Ei^2 = -1 for i >= 1, and mixed products vanish.

Sign convention (important!): a ``DivisorClass`` stores the 7-tuple
``(a0, a1, ..., a6)`` representing the class

    a0*E0 - a1*E1 - ... - a6*E6

so the entries a1..a6 are the *subtracted* multiplicities and read off
positively for a fat point class t*E0 - m1*E1 - ... - m6*E6.  The basis
class E1 itself is therefore stored as ``(0, -1, 0, 0, 0, 0, 0)``.  The
textual display convention used by :meth:`DivisorClass.display_row` is the
opposite: it shows the raw basis coefficients ``(a0, -a1, ..., -a6)``, so
E1 prints as ``0 1 0 0 0 0 0`` and 3E0-E1-2E3-E4-E5 prints as
``3 -1 0 -2 -1 -1 0``.  Sign errors between the two conventions are the
dominant failure mode when reading tables; convert only through
:meth:`from_display_row` / :meth:`display_row`.

All arithmetic uses Python integers, which never overflow silently.
"""

from __future__ import annotations

from typing import Iterable

RANK = 7


class DivisorClass(tuple):
    """An immutable class a0*E0 - a1*E1 - ... - a6*E6, stored as (a0, ..., a6).

    Subclasses tuple so instances hash, compare and sort lexicographically
    on the stored coefficients; ``+``/``-`` are redefined as vector
    operations in the class group.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> "DivisorClass":
        t = tuple(coeffs)
        if len(t) != RANK:
            raise ValueError(f"divisor class needs {RANK} coefficients, got {len(t)}")
        for c in t:
            if not isinstance(c, int):
                raise TypeError(f"non-integer coefficient {c!r}")
        return tuple.__new__(cls, t)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):  # type: ignore[override]
        return DivisorClass((
            self[0] + other[0], self[1] + other[1], self[2] + other[2],
            self[3] + other[3], self[4] + other[4], self[5] + other[5],
            self[6] + other[6]))

    __radd__ = __add__

    def __sub__(self, other):
        return DivisorClass((
            self[0] - other[0], self[1] - other[1], self[2] - other[2],
            self[3] - other[3], self[4] - other[4], self[5] - other[5],
            self[6] - other[6]))

    def __neg__(self):
        return DivisorClass(tuple(-c for c in self))

    def __mul__(self, n):  # type: ignore[override]
        if not isinstance(n, int):
            return NotImplemented
        return DivisorClass(tuple(n * c for c in self))

    __rmul__ = __mul__

    def dot(self, other: "DivisorClass") -> int:
        """Intersection pairing; equals a0*b0 - sum(ai*bi) in either convention."""
        return (self[0] * other[0] - self[1] * other[1] - self[2] * other[2]
                - self[3] * other[3] - self[4] * other[4] - self[5] * other[5]
                - self[6] * other[6])

    # -- views ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Pairing with E0, i.e. the stored a0."""
        return self[0]

    @property
    def multiplicities(self) -> tuple:
        """The subtracted coefficients (a1, ..., a6)."""
        return tuple(self[1:])

    def display_row(self) -> tuple:
        """Raw basis coefficients (a0, -a1, ..., -a6) for table output."""
        return (self[0], -self[1], -self[2], -self[3], -self[4], -self[5], -self[6])

    @classmethod
    def from_display_row(cls, row: Iterable[int]) -> "DivisorClass":
        """Inverse of :meth:`display_row`."""
        r = tuple(row)
        if len(r) != RANK:
            raise ValueError(f"display row needs {RANK} entries, got {len(r)}")
        return cls((r[0],) + tuple(-c for c in r[1:]))

    def __repr__(self) -> str:
        return f"DivisorClass{tuple(self)!r}"


def _basis(i: int) -> DivisorClass:
    v = [0] * RANK
    if i == 0:
        v[0] = 1
    else:
        v[i] = -1
    return DivisorClass(v)


#: The basis classes E0..E6.
E = tuple(_basis(i) for i in range(RANK))
E0, E1, E2, E3, E4, E5, E6 = E

ZERO = DivisorClass((0,) * RANK)

#: Canonical class K = -3E0 + E1 + ... + E6.
K = DivisorClass((-3, -1, -1, -1, -1, -1, -1))

#: Anticanonical class -K = 3E0 - E1 - ... - E6.
MINUS_K = DivisorClass((3, 1, 1, 1, 1, 1, 1))


def through(degree: int, points) -> DivisorClass:
    """The class degree*E0 minus Ei for each index i in points (1..6)."""
    v = [degree] + [0] * 6
    for i in points:
        v[i] = 1
    return DivisorClass(v)


def chi(f: DivisorClass) -> int:
    """Euler characteristic (F^2 - K.F)/2 + 1 by Riemann-Roch.

    F^2 - K.F is always even on this lattice; a parity failure signals a
    corrupted class and raises.
    """
    n = f.dot(f) - K.dot(f)
    if n % 2 != 0:
        raise ArithmeticError(f"parity violation in chi({f!r})")
    return n // 2 + 1


def arithmetic_genus(f: DivisorClass) -> int:
    """Genus from adjunction: (F^2 + K.F)/2 + 1, for curve classes."""
    n = f.dot(f) + K.dot(f)
    if n % 2 != 0:
        raise ArithmeticError(f"parity violation in genus({f!r})")
    return n // 2 + 1
