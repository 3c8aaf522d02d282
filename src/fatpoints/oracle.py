"""Independent ground truth from explicit coordinates.

For distinct points with known coordinates, the dimension of the degree-t
piece of a fat point ideal is a corank: monomials of degree t are the
columns and the vanishing conditions (all partial derivatives of order
below the multiplicity, taken in the two coordinates transverse to each
point) are the rows.  The multiplication maps are read off explicit
monomial bases, so their kernel and cokernel dimensions come straight from
matrix ranks, with no cone geometry anywhere.

The derivatives are Hasse derivatives, D_u^(du) D_v^(dv) = d_u^du d_v^dv /
(du! dv!), which take a monomial u^a v^b to C(a, du) C(b, dv) u^(a-du)
v^(b-dv).  They define the fat point in every characteristic; in
characteristic p the ordinary derivatives of order p and above vanish
identically.  The
conditions are built a degree at a time by the Leibniz rule: times a
coordinate X, D_u^(du) D_v^(dv) (X g) is X D_u^(du) D_v^(dv) g plus
D_u^(du-1) D_v^(dv) g when X is u and du > 0 (D_u^(du) D_v^(dv-1) g when X
is v and dv > 0), so the column of a monomial times X comes from its own
column and its rows one derivative lower (:class:`_Conditions`).  Mod p
the entries are int64 residues; an exact matrix holds Python ints or
Fractions (``dtype=object``).

One elimination kernel, :func:`_rref`, brings a matrix to reduced row
echelon form over F_p, or over the rationals when ``p`` is None, and can
resume on columns appended later.  A rank is its pivot count and a
nullspace basis is read off its free columns.

Chart.  Dimensions and multiplication ranks are GL_3-invariant, so the
points are moved by [[1, s, s^2], [0, 1, 0], [0, 0, 1]] (determinant 1),
with the least s >= 0 that makes X = p0 + s*p1 + s^2*p2 nonzero at every
point (a point rules out at most two values of s), and scaled to
(1, p1/X, p2/X).  The translation (y, z) -> (y - y_k, z - z_k), also of
determinant 1 and keeping x = 1 at every point, then puts the point k of
largest multiplicity m at the origin (1, 0, 0); the denominators X, and
so the primes that admit the chart, are unchanged.  Differentiated in y
and z at x = 1, column j no longer depends on the degree: C_t is the
first N_t = C(t+2, 2) columns of C_T.

Prefix.  So one elimination per (points, mults, field) serves all degrees:
rank C_t is the number of pivots below N_t, and the basis of the ideal
I_t is read off the same echelon form.  At the origin D_y^(du) D_z^(dv)
picks the coefficient of y^du z^dv, so point k's m(m+1)/2 rows are the
unit rows on the first N_{m-1} columns and zero on every later one (no
form of degree below m vanishes to order m there).  So in every field
rank C_t = min(N_t, N_{m-1}) plus the rank of the other points' rows on
columns N_{m-1}..N_t-1, and the echelon form of C_t is the unit rows
above that of those rows on those columns.  :class:`_Echelon` stores
only the latter, up to the highest degree T asked, with the row
transform U carried as extra columns; a request above T appends U times
the new columns and resumes there, so each column is eliminated once.
As x is 1 at every point, the new columns of degree k+1 are those of
degree k times y, then the last times z: the state keeps only its latest
degree block of the other points' conditions, and a degree below m only
advances that block.  It grows a degree at a time and stops once every
stored row has a pivot, since no later column adds rank, so a request
far above that degree builds nothing.  With R' = R - m(m+1)/2 of the R
conditions stored, a state at degree T >= m holds R' x (N_T - N_{m-1} +
R') entries and an R' x (T+1) block; a scheme supported at one point
stores none, at any multiplicity.

Multiplication.  Times x, column j of degree t stays column j; times y
and z, the last t+1 columns (the monomials without x) move to the new
columns N_t..N_{t+1}-1, unshifted and shifted by one.  A form of degree
t+1 that vanishes on the new columns is x times a form of degree t, which
lies in I_t because x vanishes at no point of the chart; so x*I_t is the
part of the image that vanishes there, and the image of I_t times the
linear forms has rank dim I_t plus that of y*T and z*T, for T the
restriction of I_t to x = 0.  For the same reason T has v = dim I_t -
dim I_{t-1} rows, one per free column of degree t, and is the identity
on those columns F.  Clearing F from z*T by y*T leaves
Z = z*T - (z*T)[:, F] y*T, zero on F, so the rank is v plus that of Z
outside F: a v x (t+2-v) elimination, run on whichever side is shorter.

Proofs.  If p divides no X, reduction mod p never raises a rank: rank_p
C_t <= rank_Q C_t <= min(R, N_t), so the first prime's rank at min(R, N_t)
is exact.  With dim I_t and dim I_{t+1} so proven, rank_p mu_t <= rank_Q
mu_t: ker and cok mod p bound those over Q, and one at 0 is exact.  If
rank C_{t-1} = R, h^1(I_Z(t-1)) = 0, so I_Z is t-regular (Eisenbud, The
Geometry of Syzygies, ch. 4) and mu_t is onto in any field: (3 dim I_t -
dim I_{t+1}, 0), not eliminated.  The other values rest on a vote: the
second prime if it agrees, else exact elimination, as when p divides an X.

:func:`_echelon` keeps the states of the last ``ECHELON_CACHE_SIZE`` keys
(points, mults, p), enough for a scheme walked up the degrees (one state,
two once a value goes to the vote, three on the exact route).  A state
for multiplicities 20, 20, 0, ..., 0 at degree 42 stores R' = 210 rows
and 1.4 MB of int64.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from fractions import Fraction

import numpy as np

from .config import FIXTURE_SPECS

PRIMES = (1_000_003, 1_000_033)

FIXTURE_CASES = tuple(FIXTURE_SPECS)

#: Echelon states kept by ``_echelon``; see the module docstring.
ECHELON_CACHE_SIZE = 6

def _det3(p, q, r) -> int:
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _collinear_triples(pts) -> set:
    return {frozenset(c) for c in itertools.combinations(range(1, 7), 3)
            if _det3(*(pts[i - 1] for i in c)) == 0}


def _on_common_conic(pts) -> bool:
    rows = [[x * x, x * y, y * y, x * z, y * z, z * z] for x, y, z in pts]
    return _rank_exact(rows) < 6


def fixture_points(case: str) -> tuple:
    """Six exact points realizing one of ``config.FIXTURE_SPECS``.

    Cases i-iv put 1-4 lines through triples of the points matching the
    distinct-point catalog; "general" has no three collinear and no conic
    through all six; "conic" puts all six on y^2 = xz.  The collinearity
    pattern and conic membership are checked against the spec by
    determinants before returning.
    """
    if case == "i":
        pts = [(0, 0, 1), (0, 1, 1), (0, 1, 0),
               (1, 0, 0), (1, 1, 2), (1, 2, 5)]
    elif case == "ii":
        pts = [(0, 0, 1), (0, 1, 1), (0, 1, 0),
               (1, 0, 1), (2, 0, 1), (1, 2, 4)]
    elif case == "iii":
        pts = [(0, 0, 1), (0, 1, 1), (0, 1, 0),
               (1, 0, 1), (1, 0, 0), (1, 1, 0)]
    elif case == "iv":
        pts = [(0, 0, 1), (0, 1, -1), (0, 1, 0),
               (1, 0, -1), (1, 0, 0), (1, -1, 0)]
    elif case == "conic":
        pts = [(1, t, t * t) for t in range(6)]
    elif case == "general":
        pts = [(1, -7, -4), (1, -3, 9), (1, -3, 3),
               (1, 7, -5), (1, -7, 7), (1, -2, -2)]
    else:
        raise ValueError(f"unknown fixture case {case!r}")
    spec = FIXTURE_SPECS[case]
    want = set(spec.collinear)
    got = _collinear_triples(pts)
    if got != want:
        raise AssertionError(f"collinearity pattern {sorted(map(sorted, got))} "
                             f"!= expected {sorted(map(sorted, want))}")
    if _on_common_conic(pts) != spec.six_on_conic:
        raise AssertionError(f"case {case} fixture points " + (
            "are not conconic" if spec.six_on_conic else "lie on a conic"))
    return tuple(pts)


def _checked(points, mults, t: int):
    """The key (points, mults) as tuples; ValueError on malformed input."""
    points = tuple(map(tuple, points))
    mults = tuple(mults)
    if len(points) != len(mults):
        raise ValueError(f"{len(points)} points but {len(mults)} multiplicities")
    if any(m < 0 for m in mults):
        raise ValueError(f"multiplicities must be at least 0, got {list(mults)}")
    if t < 0:
        raise ValueError(f"degree must be at least 0, got {t}")
    return points, mults


# ---------------------------------------------------------------------------
# Conditions matrix


@functools.lru_cache(maxsize=ECHELON_CACHE_SIZE)
def _layout(mults, axes) -> tuple:
    """The rows of :class:`_Conditions` for multiplicities ``mults`` and the
    axis w of each point; cached, since the two primes of a scheme and its
    exact route share all of it but the coordinates of the points.

    Returns the point of each row, the rows of order 0, and per axis the
    (rows, lower rows) pairs of the product with that axis: the rows where
    u (v) is the axis and du > 0 (dv > 0), and the rows of (du - 1, dv)
    ((du, dv - 1)) they add, each with coefficient 1.
    """
    orders = np.arange(max(mults, default=0))
    place = np.add.outer(orders, orders) < np.array(mults)[:, None, None]
    owner, du, dv = np.nonzero(place)
    rows = np.zeros(place.shape, dtype=np.intp)
    rows[owner, du, dv] = np.arange(len(owner))
    u, v = np.array([[ax for ax in range(3) if ax != w] for w in axes],
                    dtype=np.intp).reshape(-1, 2)[owner].T
    # the rows of (du - 1, dv) and (du, dv - 1), read only where du, dv > 0
    down_u, down_v = rows[owner, du - 1, dv], rows[owner, du, dv - 1]
    lower = tuple([(np.flatnonzero(on), down[on]) for on, down in
                   (((u == ax) & (du > 0), down_u), ((v == ax) & (dv > 0), down_v))
                   if on.any()] for ax in range(3))
    for a in (owner, *(x for pairs in lower for pair in pairs for x in pair)):
        a.flags.writeable = False
    return owner, np.flatnonzero(du + dv == 0), lower


class _Conditions:
    """How to build the vanishing conditions of a scheme a degree at a time,
    one column per monomial, by the Leibniz rule.

    One row per (point, du, dv) with du + dv < m, point by point, du-major:
    the Hasse derivative D_u^(du) D_v^(dv) at the point, taken in the two
    coordinates u, v other than w, the first nonzero coordinate of the
    point.  Mod p the entries are int64 residues; when p is None they are
    the exact values (Python ints, or Fractions at rational points).  The
    layout of the rows comes from :func:`_layout`.
    """

    def __init__(self, points, mults, p: int | None):
        self.p = p
        dtype = object if p is None else np.int64
        axes = tuple(next(ax for ax in range(3) if point[ax] != 0) if m else 0
                     for point, m in zip(points, mults))
        owner, order0, lower = _layout(tuple(mults), axes)
        self.count = len(owner)
        self.origin = np.zeros((self.count, 1), dtype=dtype)
        self.origin[order0] = 1
        at = np.array([point if p is None else [x % p for x in point] for point in points],
                      dtype=dtype).reshape(-1, 3)[owner]
        self.terms = [(at[:, ax, None], lower[ax]) for ax in range(3)]

    def times(self, ax: int, cols):
        """The columns of the monomials ``cols`` stands for, times coordinate
        ``ax``: D(X g) = X Dg + D_u^(du-1) D_v^(dv) g + D_u^(du) D_v^(dv-1) g,
        the last two rows of ``cols`` added only where u, v is ``ax`` and du, dv > 0."""
        at, lower = self.terms[ax]
        out = at * cols
        for rows, down in lower:  # take: faster than fancy indexing here
            out[rows] = out.take(rows, 0) + cols.take(down, 0)
        return out if self.p is None else out % self.p

    def up(self, block):
        """The columns of the degree-(k+1) monomials without x, from those
        of degree k (``block``, z-power ascending): y times each, then z
        times the last."""
        return np.concatenate((self.times(1, block), self.times(2, block[:, -1:])), axis=1)


def conditions_matrix(points, mults, t: int, p: int | None = None):
    """Vanishing conditions for the fat point scheme in degree t.

    One row per Hasse derivative of order below m_i at p_i, taken in the
    two coordinates away from a nonzero coordinate of the point.  Column
    s(s+1)/2 + c holds x^(t-s) y^(s-c) z^c: highest x-power first, then
    highest y-power.  Degree k+1 is [x C_k | the last k+1 columns of C_k
    times y | its last column times z].  Row count is sum of m_i*(m_i+1)/2.
    Rows are 1-D arrays of int64 residues mod p, or of exact values when p
    is None.
    """
    points, mults = _checked(points, mults, t)
    conditions = _Conditions(points, mults, p)
    c = conditions.origin
    for k in range(t):
        c = np.concatenate((conditions.times(0, c), conditions.up(c[:, -(k + 1):])),
                           axis=1)
    return list(c)


# ---------------------------------------------------------------------------
# Elimination kernel


def _matrix(rows, ncols: int, p: int | None):
    """``rows`` as an array for :func:`_rref`: int64 residues mod p, or
    Fractions when p is None."""
    if p is None:
        return np.array([[Fraction(v) for v in row] for row in rows],
                        dtype=object).reshape(len(rows), ncols)
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % p


def _rref(a, p: int | None, start: int = 0, stop: int | None = None,
          pivots: list | None = None) -> list:
    """Bring columns start..stop-1 of ``a`` (all by default) to reduced row
    echelon form in place, over F_p or over Q when p is None; return the
    pivot of each leading row.  Columns left of ``start`` must be reduced
    already, with their pivots in ``pivots``, which is extended.  Columns
    past ``stop`` are carried along, so an identity block there collects
    the row transform.

    Mod p the entries are int64 residues, reduced only where a pivot reads
    them: each pivot adds less than p^2 to an entry, so the whole matrix
    is reduced once every ``spare`` pivots to stay inside int64 (for the
    primes in ``PRIMES``, every 9 million pivots), and once at the end.
    """
    pivots = [] if pivots is None else pivots
    stop = a.shape[1] if stop is None else stop
    if p is not None:
        spare = (2**63 - 1) // (p * p) - 1
    found = 0
    for c in range(start, stop):
        r = len(pivots)
        if r == len(a):
            break
        col = a[:, c].copy() if p is None else a[:, c] % p
        nonzero = col[r:].nonzero()[0]
        if not nonzero.size:
            continue
        i = r + nonzero[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
            col[[r, i]] = col[[i, r]]
        if p is None:
            row = a[r, c:] / Fraction(col[r])
        else:
            row = a[r, c:] % p * pow(int(col[r]), -1, p) % p
        a[r, c:] = row
        col[r] = 0
        # rows r.. are zero left of c, so the update starts at column c
        a[:, c:] -= col[:, None] * row
        pivots.append(c)
        found += 1
        if p is not None and found % spare == 0:
            a %= p
    if p is not None:
        a %= p
    return pivots


def _rank_exact(rows) -> int:
    ncols = len(rows[0]) if len(rows) else 0
    return len(_rref(_matrix(rows, ncols, None), None))


# ---------------------------------------------------------------------------
# One growing elimination per scheme


def _ncols(t: int) -> int:
    """N_t, the number of monomials of degree t (0 for t = -1)."""
    return (t + 2) * (t + 1) // 2


def _chart(points) -> tuple:
    """(s, X): the least s >= 0 such that X = p0 + s*p1 + s^2*p2 is nonzero
    at every point, and those X, one per point."""
    for s in range(2 * len(points) + 1):
        xs = tuple(a + s * b + s * s * c for a, b, c in points)
        if all(xs):
            return s, xs
    raise ValueError("a point has all coordinates 0")


class _Echelon:
    """The conditions matrix of one scheme in its chart, in reduced row
    echelon form up to degree ``degree``, over F_p or over Q when p is
    None; see the module docstring.

    The chart is translated to put point ``origin`` at (1, 0, 0); its rows,
    the unit rows on the first ``skip`` = N_{m-1} columns, are not stored.
    ``a`` is [the reduced columns skip..N_degree-1 of the other rows | their
    row transform U], ``pivots`` lists the pivot column of each leading
    row, counted from column ``skip``, and ``block`` holds the other rows'
    conditions of the degree-``degree`` monomials without x, the last
    columns of C_degree before elimination.  ``count`` is R, all the rows.
    Once every stored row has a pivot, no column adds rank: ``a`` and
    ``block`` stop growing while ``degree`` still follows the requests.
    """

    def __init__(self, chart, mults, p: int | None, origin: int):
        self.p = p
        self.count = sum(n * (n + 1) // 2 for n in mults)
        m, (_, y, z) = (mults[origin], chart[origin]) if mults else (0, (1, 0, 0))
        # the origin point's rows are the unit rows on columns 0..skip-1
        self.skip = _ncols(m - 1)
        moved = tuple((1, b - y, c - z) if p is None else (1, (b - y) % p, (c - z) % p)
                      for _, b, c in chart)
        others = tuple(0 if i == origin else n for i, n in enumerate(mults))
        self.conditions = _Conditions(moved, others, p)
        self.degree = -1
        self.pivots = []
        self.block = None
        self.a = np.identity(self.conditions.count, dtype=object if p is None else np.int64)

    def grow(self, t: int) -> None:
        """Extend the echelon form to the columns of degree t, a degree at a
        time until every row has a pivot; below the origin's multiplicity a
        degree only advances the block."""
        while self.degree < t and len(self.pivots) < len(self.a):
            k = self.degree + 1
            self.block = self.conditions.origin if k == 0 else self.conditions.up(self.block)
            self.degree = k
            if _ncols(k) <= self.skip:
                continue
            old, new = _ncols(k - 1) - self.skip, _ncols(k) - self.skip
            u = self.a[:, old:]
            cols = u @ self.block
            if self.p is not None:
                cols %= self.p  # each entry is a sum of R products below p^2
            self.a = np.concatenate((self.a[:, :old], cols, u), axis=1)
            _rref(self.a, self.p, old, new, self.pivots)
        self.degree = max(self.degree, t)

    def rank(self, t: int) -> int:
        """Rank of C_t: the origin's unit rows below column N_t, and the
        pivots of the other rows there."""
        self.grow(t)
        n = _ncols(t)
        return min(n, self.skip) + bisect.bisect_left(self.pivots, n - self.skip)

    def full(self, t: int) -> bool:
        """Whether rank C_t is min(R, N_t), the most it can be."""
        return self.rank(t) == min(self.count, _ncols(t))

    def mu(self, t: int) -> tuple:
        """(ker, cok) of I_t x (linear forms) -> I_{t+1}; see the module
        docstring."""
        first = self.rank(t - 1)
        if first == self.count:  # I_Z is t-regular, so mu_t is onto
            return 3 * (_ncols(t) - first) - (_ncols(t + 1) - first), 0
        self.grow(t + 1)
        r = self.rank(t)
        dim, dim_up = _ncols(t) - r, _ncols(t + 1) - self.rank(t + 1)
        if not dim:
            return 0, dim_up
        # dim I_t > 0 puts t past the origin's multiplicity, so the pivots
        # of degree t are those of stored rows first - skip .. r - skip
        low, first, r = _ncols(t - 1) - self.skip, first - self.skip, r - self.skip
        # positions in y*T (0..t+1): the free columns F of degree t, and the
        # rest, its pivot columns and position t+1
        bound = np.array(self.pivots[first:r], dtype=np.intp) - low
        is_free = np.ones(t + 2, dtype=bool)
        is_free[bound] = False
        is_free[t + 1] = False
        free, rest = np.flatnonzero(is_free), np.flatnonzero(~is_free)
        rank = dim + len(free)
        if len(free):
            yt = np.zeros((len(free), t + 2), dtype=self.a.dtype)
            yt[np.arange(len(free)), free] = 1
            yt[:, bound] = -self.a[first:r, low + free].T
            # z*T is y*T moved one position right; position -1 (t+1) of y*T
            # is zero, so column j - 1 of yt is column j of z*T
            cleared = yt[:, rest - 1] - yt[:, free - 1] @ yt[:, rest]
            if self.p is not None:
                cleared %= self.p
            if len(free) < len(rest):
                cleared = np.ascontiguousarray(cleared.T)
            rank += len(_rref(cleared, self.p))
        return 3 * dim - rank, dim_up - rank


@functools.lru_cache(maxsize=ECHELON_CACHE_SIZE)
def _echelon(points, mults, p: int | None):
    """The cached :class:`_Echelon` of (points, mults) over F_p or Q, with
    the heaviest point at the origin, or None when p divides some chart
    denominator X."""
    _, xs = _chart(points)
    heaviest = max(range(len(mults)), key=mults.__getitem__, default=0)
    if p is None:
        return _Echelon(tuple((1, Fraction(b, x), Fraction(c, x))
                              for (_, b, c), x in zip(points, xs)), mults, None, heaviest)
    if any(x % p == 0 for x in xs):
        return None
    return _Echelon(tuple((1, b * pow(x, -1, p) % p, c * pow(x, -1, p) % p)
                          for (_, b, c), x in zip(points, xs)), mults, p, heaviest)


def _decide(points, mults, read, proven):
    """``read`` of the state mod the first prime if ``proven`` of it and the
    value, else of the states mod both primes if they agree, else exact."""
    first = _echelon(points, mults, PRIMES[0])
    value = None if first is None else read(first)
    if first is not None and proven(first, value):
        return value
    second = _echelon(points, mults, PRIMES[1])
    if None in (first, second) or read(second) != value:
        value = read(_echelon(points, mults, None))
    return value


# ---------------------------------------------------------------------------
# Ideal dimensions and multiplication maps


def ideal_dim(points, mults, t: int) -> int:
    """Dimension of the degree-t piece of the fat point ideal.

    Column count minus the rank of the conditions matrix: mod the first
    prime if it is min(R, N_t), as rank_p <= rank_Q <= min(R, N_t), else
    over both primes, with exact rational elimination on disagreement.
    """
    points, mults = _checked(points, mults, t)
    return _ncols(t) - _decide(points, mults, lambda s: s.rank(t), lambda s, _: s.full(t))


def mu_rank_direct(points, mults, t: int):
    """Kernel and cokernel dimensions of multiplication by linear forms.

    Reads the ideal's basis in degree t and its dimension in degree t+1 off
    one echelon form and measures the rank of that basis times the three
    coordinates, or (3 dim I_t - dim I_{t+1}, 0) once rank C_{t-1} = R
    makes I_Z t-regular.  Kept mod the first prime if both dimensions are
    min(R, N) and ker or cok is 0 (they bound those over Q from above), else
    over both primes, with exact rational elimination on disagreement.
    Returns (ker, cok).
    """
    points, mults = _checked(points, mults, t)
    return _decide(points, mults, lambda s: s.mu(t),
                   lambda s, mu: 0 in mu and s.full(t) and s.full(t + 1))
