"""Independent ground truth from explicit coordinates.

For distinct points with known coordinates, the dimension of the degree-t
piece of a fat point ideal is a corank: monomials of degree t are the
columns and the vanishing conditions (all partial derivatives of order
below the multiplicity, taken in the two coordinates transverse to each
point) are the rows.  The multiplication maps are assembled on explicit
monomial bases, so their kernel and cokernel dimensions come straight from
matrix ranks, with no cone geometry anywhere.

The conditions matrix is gathered with numpy, all points at once, from
small tables: the exponents of the degree-t monomials, and the derivatives
of the powers of each coordinate (a falling factorial times a power).  The
tables are exact Python ints; a mod-p matrix is gathered from their
residues in int64, an exact one stays in Python ints (``dtype=object``).

One elimination kernel, :func:`_rref`, brings a matrix to reduced row
echelon form over F_p, or over the rationals when ``p`` is None.  A rank
is its pivot count and a nullspace basis is read off its free columns.

Ranks are computed modulo two independent primes above 10^6 and fall back
to exact rational elimination if the primes ever disagree.  Derivative
coefficients are falling factorials of exponents bounded by the degree,
which stay nonzero for primes this large.

``mu_rank_direct(t)`` needs the ideal's basis in degree t and its
dimension in degree t+1, which ``ideal_dim(t)`` and ``ideal_dim(t+1)``
have just eliminated.  :func:`_ideal_basis` therefore keeps the (rank,
basis) of the last ``BASIS_CACHE_SIZE`` keys (points, mults, t, p).  The
bound is small on purpose: callers walk up the degrees, so a few entries
already hold every basis that is asked for again (on the benchmark's
oracle corpus no key is eliminated twice), while each entry keeps up to
C(t+2, 2)^2 int64 entries alive, about 190 kB in degree 16.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .config import FIXTURE_SPECS

PRIMES = (1_000_003, 1_000_033)

FIXTURE_CASES = tuple(FIXTURE_SPECS)

#: Entries of the (rank, basis) cache shared by ``ideal_dim`` and
#: ``mu_rank_direct``; see the module docstring.
BASIS_CACHE_SIZE = 8

_GENERAL_SEED = 20_240_613


@functools.lru_cache(maxsize=32)
def _exponents(t: int):
    """Exponents (a, b, c) of the degree-t monomials as a 3 x n array.

    Column s(s+1)/2 + c holds x^(t-s) y^(s-c) z^c: highest x-power first,
    then highest y-power.  Cached, read-only.
    """
    s = np.repeat(np.arange(t + 1), np.arange(1, t + 2))
    c = np.arange(s.size) - s * (s + 1) // 2
    expo = np.stack((t - s, s - c, c))
    expo.flags.writeable = False
    return expo


def monomials(t: int) -> tuple:
    """Exponent triples (a, b, c) with a+b+c = t, highest x-power first."""
    return tuple(zip(*_exponents(t).tolist()))


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
        rng = random.Random(_GENERAL_SEED)
        while True:
            pts = [(1, rng.randrange(-9, 10), rng.randrange(-9, 10))
                   for _ in range(6)]
            if len(set(pts)) == 6 and not _collinear_triples(pts) \
                    and not _on_common_conic(pts):
                break
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


def _derivative_table(values, m: int, t: int, p: int | None):
    """[i, d, e] -> the d-th derivative of X^e at X = values[i], for d < m
    and e <= t: e!/(e-d)! * values[i]^(e-d), zero for d > e.

    The falling factorials and powers are exact Python ints; mod p the
    table is their residues multiplied in int64.
    """
    falling = [[math.perm(e, d) for e in range(t + 1)] for d in range(m)]
    powers = [[x ** k for k in range(t + 1)] for x in values]
    if p is None:
        falling, powers = np.array(falling, dtype=object), np.array(powers, dtype=object)
    else:
        falling = np.array([[v % p for v in row] for row in falling], dtype=np.int64)
        powers = np.array([[v % p for v in row] for row in powers], dtype=np.int64)
    e = np.arange(t + 1)
    table = falling * powers[:, np.maximum(e - np.arange(m)[:, None], 0)]
    return table if p is None else table % p


def conditions_matrix(points, mults, t: int, p: int | None = None):
    """Vanishing conditions for the fat point scheme in degree t.

    One row per derivative of order below m_i at p_i, differentiated in the
    two coordinates away from a nonzero coordinate of the point; columns
    follow :func:`monomials`.  Row count is sum of m_i*(m_i+1)/2.  Rows are
    1-D arrays of int64 residues mod p, or of Python ints when p is None.
    """
    points, mults = _checked(points, mults, t)
    live = [(point, m) for point, m in zip(points, mults) if m > 0]
    if not live:
        return []
    values = sorted({x for point, _ in live for x in point})
    table = _derivative_table(values, max(m for _, m in live), t, p)
    # per point: the index in ``values`` and the axis of the coordinates
    # (u, v, w), w the first nonzero one, which is not differentiated
    index, axis = [], []
    for point, _ in live:
        w = next(ax for ax in range(3) if point[ax] != 0)
        uvw = [ax for ax in range(3) if ax != w] + [w]
        index.append([values.index(point[ax]) for ax in uvw])
        axis.append(uvw)
    index, axis = np.array(index), np.array(axis)
    # one row per (point, du, dv) with du + dv < m, du-major
    orders = np.arange(table.shape[1])
    row_point, du, dv = np.nonzero(np.add.outer(orders, orders)
                                   < np.array([m for _, m in live])[:, None, None])
    expo = _exponents(t)[axis[row_point]]  # [row, u/v/w, column]
    index = index[row_point][:, :, None]
    block = (table[index[:, 0], du[:, None], expo[:, 0]]
             * table[index[:, 1], dv[:, None], expo[:, 1]])
    if p is not None:
        block %= p
    block *= table[index[:, 2], 0, expo[:, 2]]
    return list(block if p is None else block % p)


# ---------------------------------------------------------------------------
# Elimination kernel


def _rref(rows, ncols: int, p: int | None):
    """Reduced row echelon form over F_p, or over Q when p is None.

    Returns (pivots, reduced): the pivot column of each nonzero row of the
    echelon form, and those rows, 1 at their own pivot and 0 at the others.

    Mod p the entries are int64 and are reduced only where a pivot reads
    them: each pivot adds less than p^2 to an entry, so the whole matrix
    is reduced once every ``spare`` pivots to stay inside int64 (for the
    primes in ``PRIMES``, every 9 million pivots).
    """
    if p is None:
        a = np.array([[Fraction(v) for v in row] for row in rows],
                     dtype=object).reshape(len(rows), ncols)
    else:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % p
        spare = (2**63 - 1) // (p * p) - 1
    pivots = []
    for c in range(ncols):
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
            row = a[r, c:] / col[r]
        else:
            row = a[r, c:] % p * pow(int(col[r]), -1, p) % p
        a[r, c:] = row
        col[r] = 0
        # rows r.. are zero left of c, so the update starts at column c
        a[:, c:] -= col[:, None] * row
        pivots.append(c)
        if p is not None and len(pivots) % spare == 0:
            a %= p
    reduced = a[:len(pivots)]
    return pivots, reduced if p is None else reduced % p


def _kernel_basis(pivots, reduced, ncols: int, p: int | None):
    """Right-kernel basis from an RREF, one vector per free column."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    basis = np.zeros((ncols - len(pivots), ncols), dtype=reduced.dtype)
    basis[np.arange(len(basis)), np.flatnonzero(free)] = 1
    basis[:, pivots] = -reduced[:, free].T
    return basis if p is None else basis % p


def _rank_exact(rows) -> int:
    return len(_rref(rows, len(rows[0]) if len(rows) else 0, None)[0])


# ---------------------------------------------------------------------------
# Ideal dimensions and multiplication maps


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _ideal_basis(points, mults, t: int, p: int | None):
    """(rank of the degree-t conditions matrix, basis of the ideal in
    degree t as rows), over F_p or over Q when p is None; read-only."""
    ncols = (t + 2) * (t + 1) // 2
    pivots, reduced = _rref(conditions_matrix(points, mults, t, p), ncols, p)
    basis = _kernel_basis(pivots, reduced, ncols, p)
    basis.flags.writeable = False
    return len(pivots), basis


def ideal_dim(points, mults, t: int) -> int:
    """Dimension of the degree-t piece of the fat point ideal.

    Column count minus the rank of the conditions matrix, over both primes,
    with exact rational elimination on disagreement.
    """
    points, mults = _checked(points, mults, t)
    ranks = {_ideal_basis(points, mults, t, p)[0] for p in PRIMES}
    if len(ranks) != 1:
        ranks = {_ideal_basis(points, mults, t, None)[0]}
    return (t + 2) * (t + 1) // 2 - ranks.pop()


def _times_coordinates(basis, t: int):
    """Rows x*f, y*f, z*f for each row f of ``basis``, in degree t+1.

    By :func:`_exponents`, the monomial in column j of degree t, with
    s = b + c, moves to column j, j + s + 1, j + s + 2 of degree t+1 when
    multiplied by x, y, z.
    """
    j = np.arange((t + 2) * (t + 1) // 2)
    s = _exponents(t)[1:].sum(axis=0)
    out = np.zeros((3 * len(basis), (t + 3) * (t + 2) // 2), dtype=basis.dtype)
    for ax, shift in enumerate((j, j + s + 1, j + s + 2)):
        out[ax::3, shift] = basis
    return out


def _mu_data(points, mults, t: int, p: int | None):
    """(ker, cok) of multiplication by linear forms, over F_p or Q."""
    _, basis_t = _ideal_basis(points, mults, t, p)
    _, basis_up = _ideal_basis(points, mults, t + 1, p)
    image = _times_coordinates(basis_t, t)
    rank = len(_rref(image, basis_up.shape[1], p)[0])
    return 3 * len(basis_t) - rank, len(basis_up) - rank


def mu_rank_direct(points, mults, t: int):
    """Kernel and cokernel dimensions of multiplication by linear forms.

    Builds explicit bases of the ideal in degrees t and t+1, multiplies the
    degree-t basis by the three coordinates, and measures the image rank,
    over both primes, with exact rational elimination on disagreement.
    Returns (ker, cok).
    """
    points, mults = _checked(points, mults, t)
    results = {_mu_data(points, mults, t, p) for p in PRIMES}
    if len(results) != 1:
        results = {_mu_data(points, mults, t, None)}
    return results.pop()
