import collections
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fatpoints import oracle
from fatpoints.cones import h0
from fatpoints.murank import ql_bounds
from fatpoints.resolution import FatPointScheme, hilbert

from conftest import distinct_case
from test_cones import h1


def _exponents(t):
    """Exponents (a, b, c) of the degree-t monomials as a 3 x n array.

    Column s(s+1)/2 + c holds x^(t-s) y^(s-c) z^c: highest x-power first,
    then highest y-power.
    """
    s = np.repeat(np.arange(t + 1), np.arange(1, t + 2))
    c = np.arange(s.size) - s * (s + 1) // 2
    return np.stack((t - s, s - c, c))


def monomials(t):
    """Exponent triples (a, b, c) of the degree-t monomials in column order."""
    return tuple(zip(*_exponents(t).tolist()))


def _kernel_basis(pivots, reduced, ncols, p):
    """Right-kernel basis from an RREF, one vector per free column."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    basis = np.zeros((ncols - len(pivots), ncols), dtype=reduced.dtype)
    basis[np.arange(len(basis)), np.flatnonzero(free)] = 1
    basis[:, pivots] = -reduced[:, free].T
    return basis if p is None else basis % p


def test_monomials():
    assert monomials(0) == ((0, 0, 0),)
    assert len(monomials(4)) == 15
    assert all(sum(m) == 4 for m in monomials(4))
    assert len(set(monomials(7))) == 36


def test_fixture_patterns():
    for case in oracle.FIXTURE_CASES:
        pts = oracle.fixture_points(case)
        assert len(pts) == 6
        assert len(set(pts)) == 6


def test_fixture_case_iv_points():
    pts = oracle.fixture_points("iv")
    assert pts == ((0, 0, 1), (0, 1, -1), (0, 1, 0),
                   (1, 0, -1), (1, 0, 0), (1, -1, 0))


def test_conditions_matrix_shape():
    pts = oracle.fixture_points("general")
    mults = (2, 1, 0, 0, 0, 0)
    rows = oracle.conditions_matrix(pts, mults, 3)
    assert len(rows) == 3 + 1
    assert all(len(r) == 10 for r in rows)


def test_ideal_dim_examples():
    pts = oracle.fixture_points("iv")
    m = (2, 2, 6, 2, 2, 2)
    assert oracle.ideal_dim(pts, m, 5) == 0
    assert oracle.ideal_dim(pts, m, 8) == 11
    assert oracle.ideal_dim(pts, (0, 0, 0, 0, 0, 0), 2) == 6


def test_mu_rank_examples():
    pts = oracle.fixture_points("iv")
    m = (2, 2, 6, 2, 2, 2)
    ker, cok = oracle.mu_rank_direct(pts, m, 6)
    assert ker == 0   # injective at the initial degree
    assert oracle.ideal_dim(pts, m, 7) - 3 * oracle.ideal_dim(pts, m, 6) == 1
    ker0, cok0 = oracle.mu_rank_direct(pts, (0,) * 6, 3)
    assert cok0 == 0


def test_nef_fixture_surjective():
    # 3E0-E1-2E3-E4-E5 realized as degree 3 with multiplicities 1,0,2,1,1,0
    pts = oracle.fixture_points("iv")
    ker, cok = oracle.mu_rank_direct(pts, (1, 0, 2, 1, 1, 0), 3)
    assert cok == 0


def test_rank_exact_matches_mod_p():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randint(-30, 30) for _ in range(7)] for _ in range(5)]
        exact = oracle._rank_exact([[Fraction(v) for v in r] for r in rows])
        for p in oracle.PRIMES:
            pivots = oracle._rref(oracle._matrix([[v % p for v in r] for r in rows], 7, p), p)
            assert len(pivots) == exact


def test_nullspace_consistency():
    pts = oracle.fixture_points("general")
    p = oracle.PRIMES[0]
    rows_p = oracle.conditions_matrix(pts, (2, 1, 1, 0, 0, 0), 3, p)
    rows_q = oracle.conditions_matrix(pts, (2, 1, 1, 0, 0, 0), 3, None)
    dim_p = len(_kernel_basis(*_fresh_rref(rows_p, 10, p), 10, p))
    dim_exact = len(_kernel_basis(*_fresh_rref(rows_q, 10, None), 10, None))
    assert dim_p == dim_exact


def test_oracle_agrees_with_reduction_smoke():
    rng = random.Random(17)
    for case in oracle.FIXTURE_CASES:
        cfg = distinct_case(case)
        pts = oracle.fixture_points(case)
        for _ in range(3):
            m = tuple(rng.randint(0, 2) for _ in range(6))
            z = FatPointScheme(neg=cfg.neg, multiplicities=m)
            prof = hilbert(z)
            for t in range(prof.sigma + 2):
                assert oracle.ideal_dim(pts, m, t) == prof(t), (case, m, t)


def test_mu_bounds_against_oracle():
    # the kernel/cokernel bounds hold for the directly computed ranks
    cfg = distinct_case("iv")
    pts = oracle.fixture_points("iv")
    rng = random.Random(23)
    for _ in range(8):
        m = tuple(rng.randint(0, 2) for _ in range(6))
        z = FatPointScheme(neg=cfg.neg, multiplicities=m)
        prof = hilbert(z)
        for t in range(prof.alpha, prof.sigma + 1):
            f = z.class_for_degree(t)
            if prof(t) == 0:
                continue
            b = ql_bounds(f, cfg.neg)
            ker, cok = oracle.mu_rank_direct(pts, m, t)
            assert b.l <= ker <= b.l + b.q, (m, t)
            if prof(t) == h0(f, cfg.neg) and b.h == prof(t):
                if h1(f, cfg.neg) == 0:
                    d = f.degree
                    assert d + 2 - 2 * b.h + b.l <= cok <= b.q_star + b.l_star, (m, t)


def test_betti_generators_against_oracle():
    # generator counts are cokernel dimensions; check them degree by degree
    # against the explicit multiplication matrices, fixed parts included
    from fatpoints.resolution import betti
    rng = random.Random(99)
    for case in oracle.FIXTURE_CASES:
        cfg = distinct_case(case)
        pts = oracle.fixture_points(case)
        for _ in range(4):
            m = tuple(rng.randint(0, 3) for _ in range(6))
            z = FatPointScheme(neg=cfg.neg, multiplicities=m)
            prof = hilbert(z)
            table = betti(z)
            for i in range(prof.alpha, prof.sigma + 1):
                _, cok = oracle.mu_rank_direct(pts, m, i)
                assert cok == table.t.get(i + 1, 0), (case, m, i)


def test_bad_case_rejected():
    with pytest.raises(ValueError):
        oracle.fixture_points("v")


# ---------------------------------------------------------------------------
# The numpy conditions matrix and the elimination kernel


def _fresh_rref(rows, ncols, p):
    """(pivots, reduced rows) of one elimination of ``rows`` from scratch."""
    a = oracle._matrix(rows, ncols, p)
    pivots = oracle._rref(a, p)
    return pivots, a[:len(pivots)]


def _reference_conditions(points, mults, t, p):
    """The per-entry loop the numpy conditions matrix replaced: the Hasse
    derivative D_u^(du) D_v^(dv) of u^eu v^ev is C(eu, du) C(ev, dv)
    u^(eu-du) v^(ev-dv)."""

    rows = []
    for point, m in zip(points, mults):
        if m == 0:
            continue
        pivot = next(ax for ax in range(3) if point[ax] != 0)
        u_ax, v_ax = (ax for ax in range(3) if ax != pivot)
        for du in range(m):
            for dv in range(m - du):
                row = []
                for expo in monomials(t):
                    eu, ev = expo[u_ax], expo[v_ax]
                    if eu < du or ev < dv:
                        row.append(0)
                        continue
                    new = list(expo)
                    new[u_ax] -= du
                    new[v_ax] -= dv
                    val = math.comb(eu, du) * math.comb(ev, dv)
                    for ax in range(3):
                        val *= point[ax] ** new[ax]
                    row.append(val % p if p is not None else val)
                rows.append(row)
    return rows


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(oracle.FIXTURE_CASES),
       mults=st.lists(st.integers(0, 7), min_size=6, max_size=6),
       t=st.integers(0, 16),
       p=st.sampled_from(oracle.PRIMES + (None,)))
def test_conditions_matrix_matches_reference_loop(case, mults, t, p):
    pts = oracle.fixture_points(case)
    got = oracle.conditions_matrix(pts, mults, t, p)
    assert [row.tolist() for row in got] == _reference_conditions(pts, mults, t, p)


def test_monomials_follow_column_formula():
    # column s(s+1)/2 + c holds x^(t-s) y^(s-c) z^c, the order the shift
    # arrays of the multiplication matrix rely on
    for t in range(12):
        for j, (a, b, c) in enumerate(monomials(t)):
            s = b + c
            assert j == s * (s + 1) // 2 + c and a == t - s


@pytest.mark.parametrize("case, mults, t", [
    ("general", (2, 1, 1, 0, 0, 0), 3),
    ("iv", (2, 2, 6, 2, 2, 2), 8),
    ("conic", (3, 3, 3, 3, 0, 0), 6),
    ("i", (1, 0, 2, 1, 1, 0), 2),
    ("ii", (0, 0, 0, 0, 0, 0), 4),
    ("iii", (7, 0, 0, 0, 0, 0), 3),
])
def test_nullspace_annihilates_and_counts(case, mults, t):
    pts = oracle.fixture_points(case)
    ncols = (t + 2) * (t + 1) // 2
    for p in oracle.PRIMES:
        rows = oracle.conditions_matrix(pts, mults, t, p)
        pivots, reduced = _fresh_rref(rows, ncols, p)
        basis = _kernel_basis(pivots, reduced, ncols, p)
        assert len(basis) == ncols - len(pivots)
        if len(rows) and len(basis):
            assert not ((np.array(rows) @ basis.T) % p).any()
    exact = oracle.conditions_matrix(pts, mults, t, None)
    basis = _kernel_basis(*_fresh_rref(exact, ncols, None), ncols, None)
    assert len(basis) == ncols - oracle._rank_exact(exact)
    if len(exact) and len(basis):
        assert not (np.array(exact, dtype=object).reshape(-1, ncols) @ basis.T).any()


def test_two_prime_disagreement_falls_back_to_exact(monkeypatch):
    # points 2 and 3 of the general fixture meet mod 3, so at (4, 4, 1, 1,
    # 0, 0) the ranks over 3 and over a large prime disagree and the exact
    # route decides
    pts = oracle.fixture_points("general")
    cases = [((4, 3, 0, 0, 0, 0), t) for t in range(3, 7)] + \
            [((4, 4, 1, 1, 0, 0), t) for t in range(4, 8)]
    want = [(oracle.ideal_dim(pts, m, t), oracle.mu_rank_direct(pts, m, t))
            for m, t in cases]
    exact_calls = []
    kernel = oracle._rref

    def spy(a, p, *args):
        if p is None:
            exact_calls.append(a.shape[1])
        return kernel(a, p, *args)

    monkeypatch.setattr(oracle, "_rref", spy)
    monkeypatch.setattr(oracle, "PRIMES", (3, oracle.PRIMES[0]))
    got = [(oracle.ideal_dim(pts, m, t), oracle.mu_rank_direct(pts, m, t))
           for m, t in cases]
    assert got == want
    assert exact_calls


def test_conic_fixture_over_f7_matches_pipeline():
    """Hasse derivatives are the conditions in characteristic 7 too: the six
    conic points (1, t, t^2) stay distinct and conconic mod 7, so past
    multiplicity 7, where ordinary derivatives of order 7 vanish, the
    dimensions over F_7 are the pipeline's."""
    pts = oracle.fixture_points("conic")
    neg = distinct_case("conic").neg
    for mults in ((8, 0, 0, 0, 0, 0), (9, 3, 2, 0, 1, 0), (8, 8, 1, 0, 0, 0),
                  (7, 4, 4, 3, 2, 1)):
        state = oracle._echelon(pts, mults, 7)
        prof = hilbert(FatPointScheme(neg=neg, multiplicities=mults))
        for t in range(prof.sigma + 2):
            assert oracle._ncols(t) - state.rank(t) == prof(t), (mults, t)


def test_basis_cache_keeps_point_sets_apart():
    cases = ("iv", "general")
    pts = {c: oracle.fixture_points(c) for c in cases}
    m = (2, 2, 2, 2, 2, 2)
    degrees = range(3, 8)
    fresh = {}
    for c in cases:
        oracle._echelon.cache_clear()
        fresh[c] = [(oracle.ideal_dim(pts[c], m, t), oracle.mu_rank_direct(pts[c], m, t))
                    for t in degrees]
    assert fresh["iv"] != fresh["general"]
    oracle._echelon.cache_clear()
    got = {c: [] for c in cases}
    for t in degrees:
        for c in cases:
            got[c].append((oracle.ideal_dim(pts[c], m, t), oracle.mu_rank_direct(pts[c], m, t)))
    assert got == fresh


# ---------------------------------------------------------------------------
# One growing elimination per scheme, against the per-degree route


def _ncols(t):
    return (t + 2) * (t + 1) // 2


def _reference_basis(points, mults, t, p):
    """(rank, basis of the ideal in degree t), eliminating the degree-t
    conditions matrix at the given points from scratch."""
    pivots, reduced = _fresh_rref(oracle.conditions_matrix(points, mults, t, p), _ncols(t), p)
    return len(pivots), _kernel_basis(pivots, reduced, _ncols(t), p)


def _times_coordinates(basis, t):
    """Rows x*f, y*f, z*f for each row f of ``basis``, in degree t+1: the
    monomial in column j of degree t, with s = b + c, moves to column j,
    j + s + 1, j + s + 2."""
    j = np.arange(_ncols(t))
    s = _exponents(t)[1:].sum(axis=0)
    out = np.zeros((3 * len(basis), _ncols(t + 1)), dtype=basis.dtype)
    for ax, shift in enumerate((j, j + s + 1, j + s + 2)):
        out[ax::3, shift] = basis
    return out


def _reference_mu(points, mults, t, p):
    """(ker, cok) from the full image of the degree-t basis times x, y, z."""
    _, basis_t = _reference_basis(points, mults, t, p)
    _, basis_up = _reference_basis(points, mults, t + 1, p)
    rank = len(_fresh_rref(_times_coordinates(basis_t, t), _ncols(t + 1), p)[0])
    return 3 * len(basis_t) - rank, len(basis_up) - rank


def _reference(points, mults, t, read):
    """``read`` over both primes, exact on disagreement: the route that
    eliminated every degree and every image from scratch."""
    got = {read(points, mults, t, p) for p in oracle.PRIMES}
    return got.pop() if len(got) == 1 else read(points, mults, t, None)


def _check_walk(case, mults, degrees, fields):
    """The growing echelon forms over ``fields`` and the public functions
    against the per-degree reference, at the degrees in the order given."""
    pts, mults = oracle.fixture_points(case), tuple(mults)
    oracle._echelon.cache_clear()
    for t in degrees:
        for p in fields:
            state = oracle._echelon(pts, mults, p)
            assert state.rank(t) == _reference_basis(pts, mults, t, p)[0], (p, t)
            assert state.mu(t) == _reference_mu(pts, mults, t, p), (p, t)
        want_dim = _ncols(t) - _reference(pts, mults, t, lambda *a: _reference_basis(*a)[0])
        assert oracle.ideal_dim(pts, mults, t) == want_dim, t
        assert oracle.mu_rank_direct(pts, mults, t) == _reference(pts, mults, t, _reference_mu), t


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(oracle.FIXTURE_CASES),
       mults=st.lists(st.integers(0, 7), min_size=6, max_size=6),
       degrees=st.lists(st.integers(0, 16), min_size=1, max_size=6))
def test_growing_echelon_matches_per_degree_route(case, mults, degrees):
    # degrees in random order, so both prefix reads and extensions run
    _check_walk(case, mults, degrees, oracle.PRIMES)


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(oracle.FIXTURE_CASES),
       mults=st.lists(st.integers(0, 3), min_size=6, max_size=6),
       degrees=st.lists(st.integers(0, 9), min_size=1, max_size=3))
def test_exact_echelon_matches_per_degree_route(case, mults, degrees):
    # rational elimination is slow on either route (the reference image at
    # mults 7 and degree 16 takes tens of seconds), so the exact state is
    # checked on smaller schemes
    _check_walk(case, mults, degrees, (None,))


def test_chart_shift():
    # cases i-iv have points with x = 0, so they need s > 0; the general
    # and conic points start with 1
    for case in oracle.FIXTURE_CASES:
        pts = oracle.fixture_points(case)
        s, xs = oracle._chart(pts)
        assert (s > 0) == (case in ("i", "ii", "iii", "iv")), case
        assert xs == tuple(a + s * b + s * s * c for a, b, c in pts) and all(xs)
        assert all(not all(a + k * b + k * k * c for a, b, c in pts) for k in range(s))
    with pytest.raises(ValueError, match="all coordinates 0"):
        oracle._chart(((1, 0, 0), (0, 0, 0)))


def test_prime_dividing_a_chart_denominator_falls_back_to_exact(monkeypatch):
    # case iv moves by s = 2 to X = (4, -2, 2, -3, 1, -1): no chart mod 3
    pts = oracle.fixture_points("iv")
    assert oracle._chart(pts) == (2, (4, -2, 2, -3, 1, -1))
    m = (1, 1, 1, 1, 1, 1)
    want = [(oracle.ideal_dim(pts, m, t), oracle.mu_rank_direct(pts, m, t)) for t in range(5)]
    assert oracle._echelon(pts, m, 3) is None
    exact_calls = []
    kernel = oracle._rref

    def spy(a, p, *args):
        if p is None:
            exact_calls.append(a.shape[1])
        return kernel(a, p, *args)

    oracle._echelon.cache_clear()
    monkeypatch.setattr(oracle, "_rref", spy)
    monkeypatch.setattr(oracle, "PRIMES", (3, oracle.PRIMES[0]))
    got = [(oracle.ideal_dim(pts, m, t), oracle.mu_rank_direct(pts, m, t)) for t in range(5)]
    assert got == want
    assert exact_calls


def test_ideal_dim_far_past_full_rank_builds_nothing_more():
    # six simple points impose six conditions from degree 2 on; a state
    # that kept building blocks would need 6 x N_t entries at t = 10**6
    pts, m, t = oracle.fixture_points("iv"), (1,) * 6, 10 ** 6
    oracle._echelon.cache_clear()
    assert oracle.ideal_dim(pts, m, t) == _ncols(t) - 6
    # full rank mod the first prime is a proof, so no other state is read;
    # it stores the five rows of the points away from the origin, on
    # columns 1..N_2-1
    state = oracle._echelon(pts, m, oracle.PRIMES[0])
    assert state.degree == t
    assert state.block.shape == (5, 3) and state.a.shape == (5, _ncols(2) - 1 + 5)


def test_one_point_at_large_multiplicity_needs_no_array():
    # a scheme supported at one point keeps no rows: its R = 500,500
    # conditions are the unit rows on the first N_999 columns
    pts, m = oracle.fixture_points("iv"), (1000, 0, 0, 0, 0, 0)
    oracle._echelon.cache_clear()
    tracemalloc.start()
    try:
        assert oracle.ideal_dim(pts, m, 0) == 0
        assert oracle.mu_rank_direct(pts, m, 0) == (0, 0)
        assert oracle.ideal_dim(pts, m, 1000) == _ncols(1000) - _ncols(999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 20, peak
    assert oracle._echelon(pts, m, oracle.PRIMES[0]).a.shape == (0, 0)


def test_mu_past_regularity_takes_no_elimination():
    # six simple points impose six conditions from degree 2 on, so I_Z is
    # t-regular and mu_t onto; an eliminated block would hold (t+1)^2 int64
    pts, m, t = oracle.fixture_points("iv"), (1,) * 6, 60_000
    oracle._echelon.cache_clear()
    tracemalloc.start()
    try:
        assert oracle.mu_rank_direct(pts, m, t) == (3_600_119_988, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * (_ncols(t) - 6) - (_ncols(t + 1) - 6) == 3_600_119_988
    assert peak < 2 ** 20, peak


def test_first_prime_below_the_bound_goes_to_the_vote(monkeypatch):
    # mod 5 the conditions of case i at (3, 3, 3, 1, 0, 3) have rank 20 in
    # degree 5, below the exact rank and the bound min(R, N_5) = 21: that
    # rank proves nothing, and the vote and the exact route give dim 0
    pts, m, t = oracle.fixture_points("i"), (3, 3, 3, 1, 0, 3), 5
    monkeypatch.setattr(oracle, "PRIMES", (5, oracle.PRIMES[0]))
    oracle._echelon.cache_clear()
    low = oracle._echelon(pts, m, 5)
    assert low.rank(t) == 20 and not low.full(t)
    assert oracle._echelon(pts, m, None).rank(t) == 21 == _ncols(t) < low.count
    assert oracle.ideal_dim(pts, m, t) == 0


@pytest.mark.parametrize("case, mults, p, t, full, mod_p, exact", [
    # dims t and t+1 proven mod p, but neither kernel nor cokernel is 0
    ("general", (2, 0, 2, 1, 2, 1), 5, 4, (True, True), (3, 1), (2, 0)),
    # kernel 0 mod p and dim t proven, but dim t+1 is not
    ("conic", (4, 0, 2, 2, 2, 1), 5, 4, (True, False), (0, 2), (0, 1)),
    # kernel 0 mod p, but neither dimension is proven
    ("conic", (4, 0, 2, 2, 2, 1), 5, 5, (False, False), (0, 3), (0, 5)),
    # kernel and cokernel 0 mod p and dim t+1 proven, but dim t is not
    ("general", (2, 2, 2, 2, 1, 3), 7, 5, (False, True), (0, 0), (0, 3)),
])
def test_first_prime_mu_short_of_a_proof_goes_to_the_vote(monkeypatch, case, mults, p, t,
                                                          full, mod_p, exact):
    # mu_rank_direct keeps the first prime's (ker, cok) only when both
    # dimensions are proven and one of them is 0; each case drops one of
    # those conditions and would return the value mod p
    pts = oracle.fixture_points(case)
    monkeypatch.setattr(oracle, "PRIMES", (p, oracle.PRIMES[0]))
    oracle._echelon.cache_clear()
    low = oracle._echelon(pts, mults, p)
    assert (low.full(t), low.full(t + 1)) == full and low.mu(t) == mod_p
    assert oracle._echelon(pts, mults, None).mu(t) == exact
    assert oracle.mu_rank_direct(pts, mults, t) == exact


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(oracle.FIXTURE_CASES),
       mults=st.lists(st.integers(0, 4), min_size=6, max_size=6),
       p=st.sampled_from((5, 7, 11, 13)))
def test_one_prime_proofs_hold_in_small_characteristic(case, mults, p):
    # the facts the oracle returns without a vote, checked where a small
    # prime makes reduction lose rank: a rank mod p at min(R, N_t) is the
    # rank over Q, and so are kernel and cokernel mod p when both
    # dimensions are and one of them is 0; once rank C_{t-1} = R, mu_t is
    # onto, as elimination of the whole image confirms in the first two
    # such degrees (the costly ones past them rest on the same theorem)
    pts, mults = oracle.fixture_points(case), tuple(mults)
    state = oracle._echelon(pts, mults, p)
    if state is None:  # p divides a chart denominator: no proof is read
        return
    exact = oracle._echelon(pts, mults, None)
    count, eliminated = state.count, 0
    for t in range(14):
        if state.full(t):
            assert state.rank(t) == exact.rank(t), (p, t)
        if state.rank(t - 1) == count:
            dim, dim_up = _ncols(t) - count, _ncols(t + 1) - count
            assert state.mu(t) == (3 * dim - dim_up, 0), (p, t)
            if eliminated < 2:
                assert state.mu(t) == _reference_mu(pts, mults, t, p), (p, t)
                eliminated += 1
        elif state.full(t) and state.full(t + 1) and 0 in state.mu(t):
            assert state.mu(t) == exact.mu(t), (p, t)


def test_second_prime_only_for_unproven_values(monkeypatch):
    # every value of six simple points is full rank or past regularity mod
    # the first prime; on case ii at (1, 0, 1, 5, 0, 5) the dimensions in
    # degrees 6-8 fall short of min(R, N_t), and mu_9, with kernel 36 and
    # cokernel 1, reads dim I_10, the highest degree an unproven value reads
    built = []
    echelon = oracle._echelon

    def spy(points, mults, p):
        built.append(p)
        return echelon(points, mults, p)

    monkeypatch.setattr(oracle, "_echelon", spy)
    pts = oracle.fixture_points("iv")
    echelon.cache_clear()
    for t in range(11):
        oracle.ideal_dim(pts, (1,) * 6, t)
        oracle.mu_rank_direct(pts, (1,) * 6, t)
    assert set(built) == {oracle.PRIMES[0]}
    pts, m = oracle.fixture_points("ii"), (1, 0, 1, 5, 0, 5)
    echelon.cache_clear()
    built.clear()
    assert oracle.ideal_dim(pts, m, 6) == 2
    assert oracle.PRIMES[1] in built
    for t in range(12):
        oracle.ideal_dim(pts, m, t)
        oracle.mu_rank_direct(pts, m, t)
    assert None not in built
    assert echelon(pts, m, oracle.PRIMES[1]).degree == 10
    assert echelon(pts, m, oracle.PRIMES[0]).degree == 12


def test_walk_eliminates_each_column_once(monkeypatch):
    # walking t = 0..12 reads degrees up to 13; the per-degree route
    # eliminated sum N_t columns plus every image, this one N_13 per prime
    pts = oracle.fixture_points("iv")
    m = (2, 2, 6, 2, 2, 2)
    oracle._echelon.cache_clear()
    extension, other = collections.Counter(), collections.Counter()
    widths = []
    kernel = oracle._rref

    def spy(a, p, start=0, stop=None, pivots=None):
        steps = (a.shape[1] if stop is None else stop) - start
        (other if pivots is None else extension)[p] += steps
        if pivots is None:
            widths.append(steps)
        return kernel(a, p, start, stop, pivots)

    monkeypatch.setattr(oracle, "_rref", spy)
    for t in range(13):
        oracle.ideal_dim(pts, m, t)
        widths.clear()
        oracle.mu_rank_direct(pts, m, t)
        # the cleared block is v x (t+2-v), ranked on its shorter side
        v = oracle.ideal_dim(pts, m, t) - (oracle.ideal_dim(pts, m, t - 1) if t else 0)
        assert all(w <= min(v, t + 2 - v) for w in widths), (t, v, widths)
    assert set(extension) == set(oracle.PRIMES)
    assert all(steps <= _ncols(13) for steps in extension.values()), extension
    # each multiplication rank reads the t + 2 new columns
    assert all(steps <= sum(t + 2 for t in range(13)) for steps in other.values()), other


def test_walk_never_eliminates_the_origin_rows(monkeypatch):
    # at (6, 2, 2, 1, 0, 0) point 1 sits at the origin: its 21 rows are the
    # unit rows on columns 0..N_5-1, so the extensions see only the other
    # 7 rows, from column N_5 = 21 on, and only from degree 6
    pts, m = oracle.fixture_points("iv"), (6, 2, 2, 1, 0, 0)
    oracle._echelon.cache_clear()
    extensions = []
    kernel = oracle._rref

    def spy(a, p, start=0, stop=None, pivots=None):
        if pivots is not None:
            extensions.append((a.shape, start, stop))
        return kernel(a, p, start, stop, pivots)

    monkeypatch.setattr(oracle, "_rref", spy)
    for t in range(13):
        oracle.ideal_dim(pts, m, t)
        oracle.mu_rank_direct(pts, m, t)
    assert extensions
    for shape, start, stop in extensions:
        k = next(k for k in range(6, 14) if _ncols(k) - 21 == stop)
        # the columns of degree k, stored from column N_5 on, and U
        assert (start, shape) == (_ncols(k - 1) - 21, (7, stop + 7))
    assert oracle.ideal_dim(pts, m, 5) == 0 < oracle.ideal_dim(pts, m, 6)


def test_origin_rows_are_unit_rows():
    # after the translation, the Hasse derivatives at (1, 0, 0) pick one
    # coefficient each: point k's rows are unit rows on columns 0..N_{m-1}-1
    chart = _chart_points(oracle.fixture_points("conic"), oracle.PRIMES[0])
    for origin, m in enumerate((4, 1, 3, 0, 2, 5)):
        mults = tuple(m if i == origin else 0 for i in range(6))
        rows = oracle.conditions_matrix(_moved(chart, origin, oracle.PRIMES[0]), mults, 7)
        ones = [list(row).index(1) for row in rows]
        assert np.array(rows).tolist() == np.identity(_ncols(7), dtype=int)[ones].tolist()
        assert sorted(ones) == list(range(_ncols(m - 1)))


_ORIGIN_SCHEMES = (("ii", (3, 1, 2, 3, 1, 2), 9),
                   ("conic", (6, 1, 4, 0, 2, 0), 9),
                   ("iv", (2, 2, 4, 2, 2, 2), 8))


@pytest.mark.parametrize("case, mults, top, origin", [
    (case, mults, top, k) for case, mults, top in _ORIGIN_SCHEMES
    for k, m in enumerate(mults) if m])
def test_any_point_at_the_origin_gives_the_same_values(case, mults, top, origin):
    # the heaviest point is only the cheapest origin: with any point of
    # positive multiplicity there, the dimensions and (ker, cok) are those
    # of the untranslated conditions eliminated from scratch, mod both
    # primes and exactly
    pts = oracle.fixture_points(case)
    want = [(_reference_basis(pts, mults, t, oracle.PRIMES[0])[0],
             _reference_mu(pts, mults, t, oracle.PRIMES[0])) for t in range(top)]
    for p in oracle.PRIMES + (None,):
        state = oracle._Echelon(_chart_points(pts, p), mults, p, origin)
        assert [(state.rank(t), state.mu(t)) for t in range(top)] == want, p
    assert any(ker and cok for _, (ker, cok) in want)


def _chart_points(points, p):
    """The points moved to the chart of ``oracle._chart``: (1, p1/X, p2/X)
    mod p, or as Fractions when p is None."""
    _, xs = oracle._chart(points)
    if p is None:
        return tuple((1, Fraction(b, x), Fraction(c, x)) for (_, b, c), x in zip(points, xs))
    return tuple((1, b * pow(x, -1, p) % p, c * pow(x, -1, p) % p)
                 for (_, b, c), x in zip(points, xs))


def _moved(chart, origin, p):
    """The chart translated by (y, z) -> (y - y_k, z - z_k), which puts
    point k = ``origin`` at (1, 0, 0)."""
    _, y, z = chart[origin]
    return tuple((1, b - y, c - z) if p is None else (1, (b - y) % p, (c - z) % p)
                 for _, b, c in chart)


def _check_blocks(case, mults, t, p):
    """The blocks an echelon state's conditions build degree by degree with
    ``up``, side by side, against the conditions matrix of the points other
    than the heaviest, in the chart moved to put the heaviest at the
    origin; the state itself stops building them once every row has a
    pivot."""
    chart, mults = _chart_points(oracle.fixture_points(case), p), tuple(mults)
    origin = max(range(6), key=mults.__getitem__)
    state = oracle._Echelon(chart, mults, p, origin)
    blocks = [state.conditions.origin]
    for k in range(1, t + 1):
        blocks.append(state.conditions.up(blocks[-1]))
    for k, block in enumerate(blocks):
        assert block.shape == (len(state.a), k + 1)
        state.grow(k)
        if len(state.pivots) < len(state.a):
            assert state.block.tolist() == block.tolist()
    others = tuple(0 if i == origin else m for i, m in enumerate(mults))
    rows = oracle.conditions_matrix(_moved(chart, origin, p), others, t, p)
    assert np.hstack(blocks).tolist() == [row.tolist() for row in rows]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(oracle.FIXTURE_CASES),
       mults=st.lists(st.integers(0, 7), min_size=6, max_size=6),
       t=st.integers(0, 16),
       p=st.sampled_from(oracle.PRIMES))
def test_echelon_blocks_match_conditions_matrix(case, mults, t, p):
    _check_blocks(case, mults, t, p)


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(oracle.FIXTURE_CASES),
       mults=st.lists(st.integers(0, 3), min_size=6, max_size=6),
       t=st.integers(0, 9))
def test_exact_echelon_blocks_match_conditions_matrix(case, mults, t):
    # each grow eliminates over Q, so the exact states stay small
    _check_blocks(case, mults, t, None)


@pytest.mark.parametrize("case, mults, t, dim, mu", [
    ("conic", (6, 1, 4, 0, 2, 0), 7, 4, (3, 2)),
    ("ii", (0, 3, 0, 6, 3, 3), 8, 6, (5, 3)),
    ("iv", (2, 2, 2, 2, 2, 2), 5, 3, (3, 4)),
])
def test_rank_deficient_cleared_block(case, mults, t, dim, mu):
    # values of the route that ranked the whole image of a basis of I_t;
    # here the cleared block Z has rank below its shorter side and the
    # cokernel is nonzero
    pts = oracle.fixture_points(case)
    oracle._echelon.cache_clear()
    assert oracle.ideal_dim(pts, mults, t) == dim
    assert oracle.mu_rank_direct(pts, mults, t) == mu
    v = dim - oracle.ideal_dim(pts, mults, t - 1)
    rank_z = 3 * dim - mu[0] - dim - v
    assert 0 < rank_z < min(v, t + 2 - v)
    for p in oracle.PRIMES + (None,):
        assert oracle._echelon(pts, mults, p).mu(t) == mu, p


def test_mu_without_new_forms_ranks_no_block(monkeypatch):
    # below the initial degree I_t = 0, so v = 0: the image is empty and
    # no cleared block is eliminated
    pts = oracle.fixture_points("iv")
    m = (2, 2, 6, 2, 2, 2)
    oracle._echelon.cache_clear()
    assert oracle.ideal_dim(pts, m, 5) == 0 < oracle.ideal_dim(pts, m, 6)
    blocks = []
    kernel = oracle._rref

    def spy(a, p, start=0, stop=None, pivots=None):
        if pivots is None:
            blocks.append(a.shape)
        return kernel(a, p, start, stop, pivots)

    monkeypatch.setattr(oracle, "_rref", spy)
    assert oracle.mu_rank_direct(pts, m, 5) == (0, oracle.ideal_dim(pts, m, 6))
    assert not blocks


@pytest.mark.parametrize("points, mults, t, message", [
    (None, (-1, 0, 0, 0, 0, 0), 3, "multiplicities"),
    (None, (1, 1, 1, 1, 1, 1), -1, "degree"),
    (None, (1, 1, 1, 1, 1), 3, "5 multiplicities"),
    (((1, 0, 0),), (1, 1), 2, "1 points"),
])
def test_oracle_rejects_malformed_input(points, mults, t, message):
    pts = points or oracle.fixture_points("iv")
    for fn in (oracle.ideal_dim, oracle.mu_rank_direct, oracle.conditions_matrix):
        with pytest.raises(ValueError, match=message):
            fn(pts, mults, t)


def test_fixture_points_follow_shared_specs():
    # the oracle's points and the cone pipeline's NEG come from one table
    from fatpoints.config import FIXTURE_SPECS
    assert oracle.FIXTURE_CASES == tuple(FIXTURE_SPECS)
