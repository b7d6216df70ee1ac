"""Exact polytope layer: vertex validation, affine hulls, facet recovery,
dilation lattice points, membership, and edge polytopes of graphs."""

import math
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import chain, islice, permutations, product
from operator import mul, sub
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehrwt import (
    Graph,
    LatticePolytope,
    LinearWeightTuple,
    WeightPoly,
    bipartite_components,
    contains,
    dimension,
    edge_polytope,
    facets,
    hilbert_value,
    interior_lattice_points,
    lattice_points,
)
from ehrwt.errors import ConsistencyError, EnumerationLimitError
from ehrwt import geometry
from ehrwt.geometry import (
    _affine_rank,
    _check_facets,
    _echelon,
    _fibers,
    _frame,
    _interval,
    _lattice_coordinates,
    _points,
    _primitive_ineq,
    _reduced_kernel,
    _SumPlans,
    _walk,
    _walk_sum,
)

from oracles import (
    _rref,
    affine_rank,
    ambient_walk,
    barycentric_member,
    box_points,
    box_weighted_sum,
    brute_force_facets,
    euclid_coordinates,
    hull_equations,
    in_hull,
    in_relative_interior,
    lattice_coefficients,
    lll_reduced,
    permuted_coordinates,
    phase_one_feasible,
    pointwise_sum,
    random_vertices,
    recomputed_incidence_facets,
    recursive_fibers,
    simplex_maximize,
)

SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = LatticePolytope([(1, 0), (0, 1), (1, 1)])
SEGMENT = LatticePolytope([(2, 0), (0, 2)])
POINT = LatticePolytope([(1, 1)])
# criterion 3: the edge polytope of a 4-cycle and a triangle, dim 5 in Z^7
CRITERION3 = (
    (1, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 0, 1),
)
# a plane in Z^3 whose lattice projects onto the coordinates (x2, x3),
# which its hull equation 2*x1 + x2 + x3 = 0 leaves free, with index 2
INDEX_TWO_PLANE = ((0, 0, 0), (1, -2, 0), (1, 0, -2), (-1, 1, 1))
# a 4-dimensional image in Z^6 whose Euclid basis is so skewed that its
# walk visits 1,220,883 cells for the 20 points of 2P
SKEWED = ((7, -2, 4, -1, 5, 3), (2, -8, -1, 0, -2, 0), (7, -2, 6, -3, 3, 5), (4, -5, 0, -1, 1, 0),
          (3, -2, 5, -1, -1, 3))
# a thin full-dimensional 4-simplex: in its unit coordinates, in the best
# of their 24 orders, the walk of 2P visits 5,258 cells for 16 points
THIN_SIMPLEX = ((-5, 0, -11, 3), (-2, -6, -8, -1), (3, -2, 6, -5), (4, -9, -1, -3),
                (-2, 1, -2, -1))
# walks with negative steps and ranges: the segment's 2P is one fiber along
# e = (-1, 1), x = -22..0; the triangle's 2P is three fibers along (-1, 1, 0)
# with x from -10 up to -6, -3 and 0, and its interior one fiber, x = -7..-4;
# the right triangle's interior of 2P is twelve fibers along (0, 1), x = 1..12
SEGMENT_NEGATIVE = [(-7, 5), (4, -6)]
TRIANGLE_IN_PLANE = [(-3, 2, 1), (2, -3, 1), (-1, -1, 4)]
RIGHT_TRIANGLE = [(-4, -2), (3, -2), (3, 5)]
# rectangular frames: no facet row bounds two of their box's axes, so a
# walk yields boxes of several axes. The box [0,2]x[0,3]x[0,1] is one box of
# three axes, (0, 0, 1), (1, 0, 0) and e = (0, 1, 0); the sheared square's two
# axes share their third coordinate; the prism over a triangle has a box of
# one value on its first axis in 1P
BOX = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (2, 3, 0), (0, 0, 1), (2, 0, 1), (0, 3, 1), (2, 3, 1)]
SHEARED_SQUARE = [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]
PRISM = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)]


# ---------------------------------------------------------------- construction

def test_vertex_validation():
    with pytest.raises(ValueError):
        LatticePolytope([])
    with pytest.raises((TypeError, ValueError)):
        LatticePolytope([(0.5, 1)])
    with pytest.raises((TypeError, ValueError)):
        LatticePolytope([(True, 1)])
    with pytest.raises(ValueError):
        LatticePolytope([(1, 2), (3,)])


def test_basic_attributes():
    assert SQUARE.ambient_dim == 2
    assert SQUARE.dim == 2
    assert SEGMENT.dim == 1
    assert POINT.dim == 0
    assert dimension(TRIANGLE) == 2
    assert LatticePolytope([(5,)]).dim == 0


def test_equality_and_hashing():
    again = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert again == SQUARE
    assert hash(again) == hash(SQUARE)
    assert SQUARE != TRIANGLE


# ---------------------------------------------------------------- hulls and facets

def test_affine_hull_fixtures():
    assert SQUARE.affine_hull == ()
    assert SEGMENT.affine_hull == (((1, 1), 2),)
    assert set(POINT.affine_hull) == {((0, 1), 1), ((1, 0), 1)}


@st.composite
def affine_images(draw):
    """Images of distinct small points of Z^d under an integer affine map into
    Z^s (s <= 6), some of them repeated, in any order; a map's entries and
    offset may run to 30 digits."""
    s = draw(st.integers(1, 6))
    d = draw(st.integers(1, s))
    entry = st.sampled_from([-3, -2, -1, 1, 2, 3]) | st.integers(-10**30, 10**30)
    A = [[draw(entry) for _ in range(d)] for _ in range(s)]
    c = [draw(entry) for _ in range(s)]
    source = st.tuples(*[st.integers(-4, 4)] * d)
    size = draw(st.integers(d, d + 2))
    ys = draw(st.lists(source, min_size=size, max_size=size, unique=True))
    ys = draw(st.permutations(ys + draw(st.lists(st.sampled_from(ys), max_size=2))))
    return [tuple(sum(a * x for a, x in zip(row, y)) + cc for row, cc in zip(A, c)) for y in ys]


@settings(max_examples=300)
@given(affine_images())
@example([(1, 2), (3, 4), (1, 2)])
@example([(5, -1, 2)] * 3)
@example([(7,)])
def test_affine_hull_and_rank_match_fraction_oracles(points):
    P = LatticePolytope(points)
    assert P.affine_hull == hull_equations(points)
    assert P.dim == affine_rank(points)
    assert _affine_rank(points) == affine_rank(points)
    assert _affine_rank([]) == -1


@st.composite
def integer_matrices(draw):
    """1-5 rows of 1-6 integers, most of them small and many 0, some near
    10^30; some rows repeat or scale another, and a column may be zeroed."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = (st.sampled_from([0, 0, 0, 1, -1, 2, -3])
             | st.integers(-10**30, 10**30) | st.integers(10**30 - 3, 10**30 + 3))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for k in draw(st.lists(st.sampled_from([0, 1, -2]), max_size=2)):
        rows.append([k * a for a in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        rows = [row[:j] + [0] + row[j + 1:] for row in rows]
    return rows


@settings(max_examples=400)
@given(integer_matrices())
@example([[2, 1, 3], [0, 4, 5], [0, 0, 6]])  # zeros under and over the pivots
@example([[0, 1], [3, 2]])  # the first pivot lies below the first row: a swap
@example([[1, 0, 2], [0, 1, 3]])  # p == prev: a row with 0 under the pivot is left alone
@example([[0, 1, 2], [0, 3, 4], [0, 5, 7]])  # a zero column
@example([[10**30, 1, 0], [10**30 + 1, 2, 10**30 - 1], [0, 10**30, 3]])
@example([[1, 2], [2, 4], [0, 0]])
def test_echelon_matches_the_fraction_rref(rows):
    # Gauss-Jordan: each row over the last pivot is the reduced row echelon
    # form; forward: the same pivots, each row zero before its pivot and
    # nonzero on it, and the same row space
    expected = _rref(rows)
    ech, pivots = _echelon(rows)
    assert pivots == expected[1]
    last = ech[-1][pivots[-1]] if pivots else 1
    assert [[Fraction(a, last) for a in row] for row in ech] == expected[0]
    forward, cols = _echelon(rows, True)
    assert cols == pivots
    assert all(row[c] and not any(row[:c]) for row, c in zip(forward, cols))
    assert _rref(forward) == expected


def test_facet_fixtures():
    assert SQUARE.facet_inequalities == (
        ((-1, 0), 0),
        ((0, -1), 0),
        ((0, 1), 1),
        ((1, 0), 1),
    )
    assert TRIANGLE.facet_inequalities == (
        ((-1, -1), -1),
        ((0, 1), 1),
        ((1, 0), 1),
    )
    assert SEGMENT.facet_inequalities == (((0, -1), 0), ((0, 1), 2))
    assert POINT.facet_inequalities == ()


def test_facets_wrapper():
    hull, ineqs = facets(SEGMENT)
    assert hull == [((1, 1), 2)]
    assert ineqs == [((0, -1), 0), ((0, 1), 2)]


def test_four_cube_has_eight_facets():
    verts = [tuple((i >> k) & 1 for k in range(4)) for i in range(16)]
    cube = LatticePolytope(verts)
    assert cube.dim == 4
    assert len(cube.facet_inequalities) == 8
    for row, rhs in cube.facet_inequalities:
        assert sorted(row) in ([-1, 0, 0, 0], [0, 0, 0, 1])
        assert rhs == (1 if 1 in row else 0)


def test_skew_tetrahedron_facets():
    spike = LatticePolytope([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 7)])
    # hand-verified support system: evaluating each row on the four
    # vertices attains the bound on exactly three of them
    assert spike.affine_hull == ()
    assert spike.facet_inequalities == (
        ((-6, -6, 1), -5),
        ((-1, -1, -1), -2),
        ((0, 1, 0), 1),
        ((1, 0, 0), 1),
    )


def facet_membership(P, point, n):
    """Membership of an integer point via the library's facet system."""
    ok = all(
        sum(r * c for r, c in zip(row, point)) == n * rhs for row, rhs in P.affine_hull
    )
    return ok and all(
        sum(r * c for r, c in zip(row, point)) <= n * rhs
        for row, rhs in P.facet_inequalities
    )


def test_facet_system_matches_lp_oracle_random():
    rng = random.Random(4242)
    for case in range(50):
        s = rng.randint(1, 3)
        verts = random_vertices(rng, s, rng.randint(1, 5), -4, 4)
        P = LatticePolytope(verts)
        lows = [min(v[j] for v in verts) - 1 for j in range(s)]
        highs = [max(v[j] for v in verts) + 1 for j in range(s)]
        for _ in range(30):
            cand = tuple(rng.randint(lo, hi) for lo, hi in zip(lows, highs))
            assert facet_membership(P, cand, 1) == in_hull(verts, cand), (verts, cand)


def test_facets_are_supporting_and_tight_random():
    rng = random.Random(77)
    for case in range(50):
        s = rng.randint(1, 3)
        verts = random_vertices(rng, s, rng.randint(2, 6), -4, 4)
        P = LatticePolytope(verts)
        d = P.dim
        for row, rhs in P.facet_inequalities:
            values = [sum(r * c for r, c in zip(row, v)) for v in verts]
            assert max(values) <= rhs
            tight = [v for v, val in zip(verts, values) if val == rhs]
            assert affine_rank(tight) == d - 1, (verts, row, rhs)


def test_facets_match_brute_force_oracle_dims_4_and_5():
    rng = random.Random(8128)
    for case in range(40):
        s = 4 + case % 2
        while True:
            verts = random_vertices(rng, s, rng.randint(s + 1, s + 3), 0, 4)
            if affine_rank(verts) == s:
                break
        P = LatticePolytope(verts)
        assert P.facet_inequalities == tuple(sorted(brute_force_facets(verts))), verts


def test_facets_of_embedded_polytopes_match_oracles():
    # full-dimensional Q in Z^d, placed in Z^s by an injective integer
    # affine map y -> A.y + c, so the hull equations leave d coordinates free
    rng = random.Random(3141)
    for case in range(30):
        d = 2 + case % 3
        s = rng.randint(d + 1, 6)
        while True:
            base = random_vertices(rng, d, rng.randint(d + 1, d + 3), 0, 4)
            if affine_rank(base) == d:
                break
        while True:
            A = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(s)]
            if affine_rank([(0,) * s] + [tuple(row[k] for row in A) for k in range(d)]) == d:
                break
        c = [rng.randint(-3, 3) for _ in range(s)]
        # doubled coordinates make every midpoint a lattice point of Q
        Q = [tuple(2 * x for x in v) for v in base]
        ys = Q + [rng.choice(Q)]
        for _ in range(2):
            p, q = rng.sample(Q, 2)
            ys.append(tuple((a + b) // 2 for a, b in zip(p, q)))
        rng.shuffle(ys)

        def embed(y):
            return tuple(sum(a * x for a, x in zip(row, y)) + cc for row, cc in zip(A, c))

        P = LatticePolytope([embed(y) for y in ys])
        assert P.dim == d
        assert len(facets(P)[1]) == len(brute_force_facets(Q)), ys
        for _ in range(12):
            y = tuple(rng.randint(-1, 9) for _ in range(d))
            assert facet_membership(P, embed(y), 1) == in_hull(Q, y), (ys, y)


def _degenerate_point_sets():
    """Every boundary lattice point of boxes, cross-polytopes and simplices,
    and clouds in {0,1,2}^d, each in lex order and shuffled: many points on
    each facet, and in lex order a box's first d + 1 points are collinear
    once L >= 2."""
    rng = random.Random(2718)
    sets = []
    for d in (2, 3):
        for L in range(1, 6 - d):
            box = list(product(range(L + 1), repeat=d))
            sets.append([p for p in box if L in p or 0 in p])
            sets.append([p for p in product(range(-L, L + 1), repeat=d) if sum(map(abs, p)) == L])
            sets.append([p for p in box if sum(p) == L or (sum(p) < L and 0 in p)])
        for _ in range(30):
            cloud = sorted({tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(3 * d)})
            if affine_rank(cloud) == d:
                sets.append(cloud)
    return [points for verts in sets for points in (verts, rng.sample(verts, len(verts)))]


def test_facets_of_degenerate_point_sets_match_brute_force():
    for points in _degenerate_point_sets():
        P = LatticePolytope(points)
        assert P.facet_inequalities == tuple(sorted(brute_force_facets(points))), points
        _assert_facet_routes_agree(points)


def _facets_or_cap_message(compute):
    try:
        return compute()
    except EnumerationLimitError as exc:
        return str(exc)


def _assert_facet_routes_agree(points, caps=(4, 6, 9)):
    """The carried incidences give the recomputed-incidence oracle's rows, and
    under a lowered row cap both routes stop after the same point, or neither does."""
    assert LatticePolytope(points).facet_inequalities == recomputed_incidence_facets(points)
    for cap in caps:
        with patch.object(geometry, "HULL_ROWS", cap):
            carried = _facets_or_cap_message(lambda: LatticePolytope(points).facet_inequalities)
            recomputed = _facets_or_cap_message(lambda: recomputed_incidence_facets(points))
        assert carried == recomputed, (points, cap)


def test_facet_invariant_check_rejects_bad_rows():
    rows = list(SQUARE.facet_inequalities)
    _check_facets(SQUARE, rows)
    with pytest.raises(ConsistencyError, match=r"violated by vertex \(1, 0\)"):
        _check_facets(SQUARE, rows + [((1, 0), 0)])
    with pytest.raises(ConsistencyError, match=r"not a facet: its tight vertices \[\(1, 1\)\]"):
        _check_facets(SQUARE, rows + [((1, 1), 2)])
    with pytest.raises(ConsistencyError, match="more than one row"):
        _check_facets(SQUARE, rows + rows[:1])
    # a trivial row is never dropped: the double description refuses to
    # make one primitive, and the check finds it tight nowhere or everywhere
    with pytest.raises(ConsistencyError, match="trivial row 0 <= 1"):
        _primitive_ineq([0, 0], 1)
    for rhs in (0, 1):
        with pytest.raises(ConsistencyError, match="not a facet"):
            _check_facets(SQUARE, rows + [((0, 0), rhs)])
    # in a lower-dimensional hull a facet's tight set is one dimension down
    _check_facets(SEGMENT, list(SEGMENT.facet_inequalities))
    with pytest.raises(ConsistencyError, match="not a facet"):
        _check_facets(SEGMENT, [((1, 1), 2)])
    # a count alone cannot pass: this row is tight at d = 3 listed points,
    # but they span only a line
    P = LatticePolytope([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ConsistencyError, match=re.escape(
            "row (0, -1, -1) <= 0 is not a facet: its tight vertices "
            "[(0, 0, 0), (1, 0, 0), (2, 0, 0)] do not span dimension 2")):
        _check_facets(P, [((0, -1, -1), 0)])


# ---------------------------------------------------------------- enumeration

def test_lattice_points_fixtures():
    assert lattice_points(SQUARE, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(lattice_points(SQUARE, 2)) == 9
    assert lattice_points(SQUARE, 0) == [(0, 0)]
    assert lattice_points(SEGMENT, 1) == [(0, 2), (1, 1), (2, 0)]
    assert lattice_points(POINT, 3) == [(3, 3)]
    assert lattice_points(TRIANGLE, 1) == [(0, 1), (1, 0), (1, 1)]


def test_lattice_points_ordering_and_validation():
    pts = lattice_points(TRIANGLE, 4)
    assert pts == sorted(pts)
    with pytest.raises(ValueError):
        lattice_points(SQUARE, -1)


def test_interior_points_fixtures():
    assert interior_lattice_points(SQUARE, 1) == []
    assert interior_lattice_points(SQUARE, 2) == [(1, 1)]
    assert interior_lattice_points(TRIANGLE, 3) == [(2, 2)]
    assert interior_lattice_points(SEGMENT, 1) == [(1, 1)]
    with pytest.raises(ValueError):
        interior_lattice_points(SQUARE, 0)


def test_enumeration_against_box_oracle_random():
    rng = random.Random(1234)
    for case in range(50):
        s = rng.randint(1, 2)
        verts = random_vertices(rng, s, rng.randint(1, 5), -4, 4)
        P = LatticePolytope(verts)
        n = rng.randint(0, 2)
        assert lattice_points(P, n) == box_points(verts, n)


def test_enumeration_against_box_oracle_dim3():
    rng = random.Random(555)
    for case in range(12):
        verts = random_vertices(rng, 3, rng.randint(1, 5), -2, 2)
        P = LatticePolytope(verts)
        n = rng.randint(1, 2)
        assert lattice_points(P, n) == box_points(verts, n)


def test_interior_against_relint_oracle_random():
    rng = random.Random(31415)
    for case in range(50):
        s = rng.randint(1, 2)
        verts = random_vertices(rng, s, rng.randint(1, 5), -4, 4)
        P = LatticePolytope(verts)
        n = rng.randint(1, 2)
        assert interior_lattice_points(P, n) == box_points(verts, n, interior=True)


def test_interior_against_relint_oracle_dim3():
    rng = random.Random(2718)
    for case in range(12):
        verts = random_vertices(rng, 3, rng.randint(2, 6), -2, 2)
        P = LatticePolytope(verts)
        assert interior_lattice_points(P, 2) == box_points(verts, 2, interior=True)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("EHRWT_MAX_POINTS", "10")
    big = LatticePolytope([(0, 0), (11, 0), (0, 11), (11, 11)])
    message = "closed dilation n=1 counted .* EHRWT_MAX_POINTS=10;"
    with pytest.raises(EnumerationLimitError, match=message):
        lattice_points(big, 1)
    with pytest.raises(EnumerationLimitError, match="interior dilation n=2"):
        interior_lattice_points(big, 2)
    # every call reads the cap afresh: a lowered cap holds after a run under a higher one
    monkeypatch.delenv("EHRWT_MAX_POINTS")
    assert len(lattice_points(big, 1)) == 144
    monkeypatch.setenv("EHRWT_MAX_POINTS", "10")
    with pytest.raises(EnumerationLimitError):
        lattice_points(big, 1)
    monkeypatch.setenv("EHRWT_MAX_POINTS", "frogs")
    with pytest.raises(ValueError):
        lattice_points(LatticePolytope([(0, 0), (3, 5)]), 1)
    # the cap is an integer token as the CLI reads one: int() would take each of these
    for raw in ["1_0", "\u0663", " 5"]:
        monkeypatch.setenv("EHRWT_MAX_POINTS", raw)
        message = f"EHRWT_MAX_POINTS must be an integer, got {raw!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            lattice_points(big, 1)


@st.composite
def small_affine_images(draw):
    """Images of small points of Z^d under an integer affine map into Z^s
    (s <= 6) with small entries, so that dilations stay cheap to walk; the
    map need not be injective, and its image lattice may have index > 1
    in the lattice of the image's hull."""
    s = draw(st.integers(1, 6))
    d = draw(st.integers(1, min(s, 4)))
    entry = st.integers(-3, 3)
    A = [[draw(entry) for _ in range(d)] for _ in range(s)]
    c = [draw(entry) for _ in range(s)]
    source = st.tuples(*[st.integers(-1, 1)] * d)
    ys = draw(st.lists(source, min_size=d + 1, max_size=d + 2, unique=True))
    return [tuple(sum(a * x for a, x in zip(row, y)) + cc for row, cc in zip(A, c)) for y in ys]


permuted_criterion3 = st.permutations(range(7)).map(
    lambda perm: [tuple(v[j] for j in perm) for v in CRITERION3]
)


@st.composite
def full_dimensional_sets(draw):
    """d + 1 to d + 5 points of {-2..2}^d, d = 2..5, spanning R^d, with up to
    two of them repeated."""
    d = draw(st.integers(2, 5))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=d + 5))
    assume(affine_rank(points) == d)
    return points + draw(st.lists(st.sampled_from(points), max_size=2))


@settings(max_examples=200)
@given(full_dimensional_sets() | small_affine_images())
@example(list(product((0, 1), repeat=4)))
@example([(t, t * t, t ** 3) for t in range(12)] + [(3, 9, 27), (0, 0, 0)])
@example([(0, 0), (2, 2), (1, 1), (4, 0), (0, 4), (2, 2)])
@example([(2, 4, 0), (0, 2, 4), (1, 3, 2), (2, 4, 0)])
def test_facets_match_the_recomputed_incidence_oracle(points):
    _assert_facet_routes_agree(points)
    if affine_rank(points) == len(points[0]):
        assert LatticePolytope(points).facet_inequalities == tuple(
            sorted(brute_force_facets(points))), points


def test_facets_of_nonsimplicial_polytopes_match_the_recomputed_incidence_oracle():
    # in dimension 4 and up two rows can share d - 1 points without meeting
    # in a ridge, so here the combinatorial test, not the point count, decides
    rng = random.Random(1618)
    sets = [
        list(product((0, 1), repeat=5)),
        [p for p in product(range(3), repeat=4) if 0 in p or 2 in p],
        [a + b + c for a in product((0, 1), repeat=2) for b in product((0, 2), repeat=2)
         for c in [(0,), (3,)]],
    ]
    # the last one again in a hyperplane of Z^6, so its rows are lifted
    sets.append([(*p, sum(p) - p[0]) for p in sets[-1]])
    for verts in sets:
        for points in [verts] + [rng.sample(verts, len(verts)) for _ in range(3)]:
            _assert_facet_routes_agree(points, caps=(9, 16))


def test_moment_curve_facets():
    # every simplicial 3-polytope with m vertices has 2m - 4 facets, whatever
    # the order the double description meets them in
    curve = [(t, t * t, t ** 3) for t in range(80)]
    assert len(facets(LatticePolytope(curve))[1]) == 2 * 80 - 4
    curve = [(t, t * t, t ** 3, t ** 4) for t in range(20)]
    assert LatticePolytope(curve).facet_inequalities == recomputed_incidence_facets(curve)


def _assert_masks_mark_tight_points(points):
    """Each set bit i of a double-description row marks points[i] tight at the
    row, and each vertex tight at the row has its bit; a point the loop found
    inside the hull when it tried it, interior or on the boundary, may lack
    its bit. Vertices are told by the barycentric LP, not by the rows."""
    calls = []

    def recorded(pts, described=geometry._double_description):
        calls.append((pts, described(pts)))
        return calls[-1][1]

    with patch.object(geometry, "_double_description", recorded):
        P = LatticePolytope(points)
        P.facet_inequalities
    assert len(calls) == (P.dim > 0)
    for pts, rows in calls:
        vertex = [not in_hull(pts[:i] + pts[i + 1:], p) for i, p in enumerate(pts)]
        for a, b, tight in rows:
            assert tight >> len(pts) == 0, (points, a, b)
            for i, p in enumerate(pts):
                on = sum(map(mul, a, p)) == b
                assert (on if tight >> i & 1 else not (on and vertex[i])), (points, a, b, p)


@settings(max_examples=100)
@given(full_dimensional_sets() | small_affine_images())
@example(list(product((0, 1), repeat=4)))
def test_row_masks_mark_the_points_tight_at_each_row(points):
    _assert_masks_mark_tight_points(points)


def test_row_masks_of_degenerate_point_sets_mark_their_tight_vertices():
    for points in _degenerate_point_sets():
        _assert_masks_mark_tight_points(points)


@pytest.mark.xfail(strict=True, reason="_check_facets does not notice a missing facet; "
                   "ROADMAP item 2 Step B certifies the rows by a polar double description")
def test_a_facet_row_the_double_description_drops_is_caught(monkeypatch):
    # [0,2]^3 with its corner cut by x+y+z <= 5, all 26 lattice points given,
    # and the octahedron; without the dropped row, [0,2]^3's polynomial and
    # contains(P, (2, 2, 2)) come out wrong
    cut = [p for p in product(range(3), repeat=3) if sum(p) <= 5]
    octahedron = [tuple(c * (j == i) for j in range(3)) for i in range(3) for c in (1, -1)]
    described = geometry._double_description
    for points, dropped in [(cut, ((1, 1, 1), 5)), (octahedron, ((1, 1, 1), 1))]:
        monkeypatch.setattr(geometry, "_double_description",
                            lambda pts, dropped=dropped: [r for r in described(pts)
                                                          if r[:2] != dropped])
        with pytest.raises(ConsistencyError):
            facets(LatticePolytope(points))


def _outcome(walk, frame, n, strict, cap):
    """The points a walk yields, in order, and its cell count or cap message;
    the oracle's fibers (base, low, high) are read as boxes along B's last column."""
    points = []
    walker = walk(frame, n, strict, cap)
    axes = frame[1][-1:] if walk is recursive_fibers else frame[5]
    try:
        while True:
            points += _points(axes, [next(walker)])
    except StopIteration as done:
        return points, done.value
    except EnumerationLimitError as exc:
        return points, str(exc)


@settings(max_examples=250)
@given(small_affine_images() | permuted_criterion3, st.integers(0, 3), st.booleans())
@example(INDEX_TWO_PLANE, 3, False)
@example(INDEX_TWO_PLANE, 3, True)
@example([(0, 0), (2, 1)], 3, True)
@example([(4, -1, 2)], 2, True)
def test_walk_matches_the_ambient_walk(points, n, strict):
    n = max(n, strict)  # interior dilations start at n = 1
    P = LatticePolytope(points)
    walked = sorted(_walk(P, n, strict))
    assert walked == sorted(ambient_walk(P, n, strict))
    box = math.prod(n * (max(col) - min(col)) + 1 for col in zip(*points))
    if box <= 64:
        assert walked == box_points(points, n, interior=strict)


@settings(max_examples=100)
@given(small_affine_images() | permuted_criterion3, st.integers(0, 3), st.booleans())
@example(SKEWED, 2, False)
@example(INDEX_TWO_PLANE, 3, True)
def test_reduced_basis_spans_the_euclid_lattice_and_walks_the_same_points(points, n, strict):
    n = max(n, strict)
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    euclid, reduced = euclid_coordinates(P)[1], _lattice_coordinates(P)[1]
    for cols, v in chain(product([reduced], euclid), product([euclid], reduced)):
        coefficients = lattice_coefficients(cols, v)
        assert coefficients is not None and all(x.denominator == 1 for x in coefficients)
    expected = sorted(ambient_walk(P, n, strict))
    assert sorted(_walk(P, n, strict)) == expected
    # some Euclid bases are skewed enough to visit 10^6 cells: compare
    # those up to the cap, where every point walked must still be in nP
    points, cells = _outcome(_fibers, _frame(euclid_coordinates(P)), n, strict, 100_000)
    walked = sorted(points)
    if isinstance(cells, int):
        assert walked == expected
    else:
        assert set(walked) <= set(expected)


@settings(max_examples=200)
@given(small_affine_images() | permuted_criterion3)
@example([(0, 0, 0), (2, 2 * 10**30, 6)])
@example([(0, 0, 0), (10**20, 0, -1), (0, 10**15, 1)])
@example([(0,) * 8, (3, -1, 4, 1, -5, 9, -2, 6)])
@example(SKEWED)
def test_one_lll_gives_a_reduced_basis_of_the_hull_lattice(points):
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    v0, basis, rows, coordinates = _lattice_coordinates(P)
    kernel = _reduced_kernel([a for a, _ in P.affine_hull], P.ambient_dim)[0][:P.dim]
    assert len(basis) == P.dim and lll_reduced(kernel)
    for col in basis:
        assert all(sum(c * x for c, x in zip(a, col)) == 0 for a, _ in P.affine_hull)
    # every vertex is v0 + B y for an integer y in Q, and Q's coordinate rows are theirs
    ys = []
    for v in P.vertices:
        y = lattice_coefficients(basis, [x - o for x, o in zip(v, v0)])
        assert y is not None and all(c.denominator == 1 for c in y)
        assert all(sum(c * e for c, e in zip(a, y)) <= b for a, b in rows)
        ys.append(y)
    assert coordinates == [list(y) for y in zip(*ys)]
    # Q's coordinates are reduced by their widths: their rows over the
    # vertices, centered, are an LLL-reduced basis
    m = len(ys)
    assert lll_reduced([[m * c - sum(row) for c in row] for row in zip(*ys)])


def test_reduced_basis_walks_the_skewed_image_in_few_cells():
    P = LatticePolytope(SKEWED)
    expected = sorted(ambient_walk(P, 3, False))
    points, cells = _outcome(_fibers, _frame(_lattice_coordinates(P)), 3, False, 1_000)
    assert isinstance(cells, int) and sorted(points) == expected


@settings(max_examples=200)
@given(small_affine_images())
@example(SKEWED)
@example(THIN_SIMPLEX)
def test_walk_visits_few_cells_per_point(points):
    # at most 16 cells per point at n = 2: a 3,000-example search steering
    # the draws of this strategy reached 5.4, and the thin simplex walks 42
    # cells for its 16 points, where the skewed image's Euclid basis walks
    # 61,044 for 20
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    count = sum(1 for _ in ambient_walk(P, 2, False))
    _, cells = _outcome(_fibers, _frame(_lattice_coordinates(P)), 2, False, 16 * count)
    assert isinstance(cells, int), cells


@pytest.mark.parametrize(
    "points", [CRITERION3, INDEX_TWO_PLANE, [(0, 0, 0), (3, 1, 0), (0, 2, 1), (1, 1, 2)]]
)
def test_every_column_order_walks_the_same_points(points):
    P = LatticePolytope(points)
    coords = _lattice_coordinates(P)
    for n, strict in ((3, False), (2, True)):
        expected = sorted(ambient_walk(P, n, strict))
        for order in permutations(range(P.dim)):
            frame = _frame(permuted_coordinates(coords, order))
            blocks = _fibers(frame, n, strict, math.inf)
            assert sorted(_points(frame[5], blocks)) == expected, order


@settings(max_examples=100)
@given(small_affine_images() | permuted_criterion3, st.integers(0, 3), st.booleans())
@example(INDEX_TWO_PLANE, 3, False)
@example([(0, 0), (2, 1)], 3, True)
@example(SKEWED, 2, False)
# d = 1: the root is the one fiber, and every cap lands on its cells
@example(SEGMENT_NEGATIVE, 2, False)
# d = 2: the root's 15 cells come first, so a cap of 1 lands there and half
# the 135 cells on a fiber; the interior of 3P has a root cell with no fiber
@example(RIGHT_TRIANGLE, 2, False)
@example(RIGHT_TRIANGLE, 3, True)
def test_loop_walk_matches_the_recursive_walk(points, n, strict):
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    # 2,000 plain draws visited at most 11,293 cells; a draw over 100,000
    # is compared up to the cap message and at the caps below it
    _assert_walk_matches_the_recursive_walk(
        _frame(_lattice_coordinates(P)), n, strict, lambda count: (1, count // 2, count - 1))


def _assert_walk_matches_the_recursive_walk(frame, n, strict, caps):
    """The blocks expand to the recursive walk's points, in its order, with its
    cell count. At each of caps(count) below the count both raise the same
    message, and a block raises before its first fiber, so the points yielded
    before it are a prefix of those the recursive walk yielded."""
    walked = _outcome(_fibers, frame, n, strict, 100_000)
    assert walked == _outcome(recursive_fibers, frame, n, strict, 100_000)
    for cap in caps(walked[1] if isinstance(walked[1], int) else 100_000):
        points, message = _outcome(_fibers, frame, n, strict, cap)
        expected, oracle = _outcome(recursive_fibers, frame, n, strict, cap)
        assert message == oracle and points == expected[:len(points)], cap


# a permutation of criterion 3 whose rows read (-2, -2, 0, 0, 2) and
# (-2, -2, 0, 2, 0) in its frame: the rows of the last two box axes that move
# with the tight loop's cells carry 2, and their step along the cells is -2
CRITERION3_PERMUTED = [tuple(v[j] for j in (0, 1, 3, 2, 5, 6, 4)) for v in CRITERION3]
# the prism [0,2] x the triangle (0,0), (3,0), (0,2), its interval last in Z^3
PRISM_OVER_TRIANGLE = [(b, c, a) for a in (0, 2) for b, c in [(0, 0), (3, 0), (0, 2)]]
# a small_batch tetrahedron whose frame is rectangular with one upper and one
# lower row moving with the tight loop's cells on each of its two box axes; no
# other rectangular frame here has a lower moving row on the first axis
TETRAHEDRON = [(0, 1, 2), (0, 2, 0), (0, 2, 2), (2, 1, 0)]


@pytest.mark.parametrize("points, n, strict, rectangular", [
    (CRITERION3, 3, False, True),
    (list(product((0, 1), repeat=3)), 2, False, True),
    (BOX, 2, False, True),
    (BOX, 3, True, True),
    (TRIANGLE_IN_PLANE, 2, False, False),
    (RIGHT_TRIANGLE, 2, True, False),
    (CRITERION3, 7, True, True),
    (CRITERION3_PERMUTED, 3, False, True),
    (CRITERION3_PERMUTED, 7, True, True),
    (PRISM_OVER_TRIANGLE, 2, False, True),
    (PRISM_OVER_TRIANGLE, 3, True, True),
    (TETRAHEDRON, 3, False, True),
    (TETRAHEDRON, 4, True, True),
])
def test_blocks_match_the_recursive_walk_at_every_cap(points, n, strict, rectangular):
    # a rectangular frame yields boxes of several axes, some with several
    # values on an axis above the last, any other one fiber per box. Each
    # rectangular frame here has d >= 3. Where the box's axes are all of Q's
    # coordinates, as in the cubes, nQ is one box; otherwise a range of the
    # tight loop's cells, the values of the coordinate above the box, holds
    # more than one value, so two boxes in a row are one step of that
    # coordinate's column apart. Every cap from 1 up to the cell count is compared
    frame = _frame(_lattice_coordinates(LatticePolytope(points)))
    blocks = list(_fibers(frame, n, strict, math.inf))
    assert (len(frame[5]) > 1) == rectangular
    assert any(low < high for b in blocks for low, high in zip(b[1:-2:2], b[2:-2:2])) \
        == rectangular
    if len(frame[5]) == len(frame[1]):
        assert len(blocks) == 1
    elif rectangular:
        above = frame[1][-1 - len(frame[5])]
        assert any(tuple(map(sub, b[0], a[0])) == above for a, b in zip(blocks, blocks[1:]))
    _assert_walk_matches_the_recursive_walk(frame, n, strict, lambda count: range(1, count + 1))


@pytest.mark.parametrize("points", [
    CRITERION3, CRITERION3_PERMUTED, BOX, PRISM_OVER_TRIANGLE, RIGHT_TRIANGLE, SEGMENT_NEGATIVE,
    TETRAHEDRON,
])
def test_one_frame_walks_every_dilation_alike_every_time(points):
    # the frame's walk plan serves every dilation, scaled afresh by each walk:
    # nP, then mP, then nP again yield the same blocks and the same cell count
    # or cap message each time, closed and strict, under no cap and under one
    # that raises partway through nP, and mP as from a frame of its own
    coords = _lattice_coordinates(LatticePolytope(points))
    frame = _frame(coords)

    def walked(frame, n, strict, cap):
        blocks, walk = [], _fibers(frame, n, strict, cap)
        try:
            while True:
                blocks.append(next(walk))
        except StopIteration as done:
            return blocks, done.value
        except EnumerationLimitError as exc:
            return blocks, str(exc)

    for strict in (False, True):
        cells = walked(frame, 3, strict, math.inf)[1]
        for cap in (math.inf, max(cells // 2, 1)):
            first = walked(frame, 3, strict, cap)
            assert walked(frame, 5, strict, cap) == walked(_frame(coords), 5, strict, cap)
            assert walked(frame, 3, strict, cap) == first
            assert isinstance(first[1], str) == (cap < cells), cap
    assert frame == _frame(coords)


# the Birkhoff polytope B_3: the six 3x3 permutation matrices, dim 4 in Z^9
BIRKHOFF3 = [tuple(int(p[i] == j) for i in range(3) for j in range(3))
             for p in permutations(range(3))]
CUBE = list(product((0, 1), repeat=3))


def _today_axes(coords):
    """The box axes a frame of these coordinates takes before its candidate
    scan, as columns of B: the last, and the one before it when no row
    bounds both."""
    basis, rows = coords[1], coords[2]
    return basis[-1:] if len(basis) == 1 or any(c[-1] and c[-2] for c, _ in rows) else basis[-2:]


def _assert_box_walk_matches_the_oracles(points, w, n, strict, scan=128):
    """nP's boxes expand to the box scan's points (to the ambient walk's where
    the scan box passes scan cells), and their sum of w to the pointwise sum
    over those points and to the sum of w over the oracle's points."""
    P = LatticePolytope(points)
    walked = sorted(_walk(P, n, strict))
    box = math.prod(n * (max(col) - min(col)) + 1 for col in zip(*points))
    expected = box_points(points, n, interior=strict) if box <= scan else sorted(
        ambient_walk(P, n, strict))
    assert walked == expected
    total = _walk_sum(P, n, strict, w._num.items())[0]
    assert total == pointwise_sum(P, w, n, strict)
    assert Fraction(total, w._den) == sum(map(w.eval, expected))


@st.composite
def boxes_and_weights(draw):
    """A full-dimensional set, a small image or a permuted criterion 3, with a
    weight of up to four terms whose exponents reach 3 on any coordinate, so
    a term has up to three factors along an axis and may move along several."""
    points = draw(full_dimensional_sets() | small_affine_images() | permuted_criterion3)
    s = len(points[0])
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * s), coefficient, min_size=1,
                            max_size=4)
    return points, WeightPoly(s, draw(terms))


@settings(max_examples=100, deadline=None)
@given(boxes_and_weights(), st.integers(0, 3), st.booleans())
@example((CUBE, WeightPoly(3, {(2, 2, 2): 1, (3, 0, 1): -2, (0, 0, 0): 3})), 3, False)
@example((CUBE, WeightPoly(3, {(2, 2, 2): 1, (3, 0, 1): -2, (0, 0, 0): 3})), 3, True)
@example((PRISM_OVER_TRIANGLE, WeightPoly(3, {(1, 2, 3): 1, (0, 1, 1): 4})), 2, False)
@example((PRISM_OVER_TRIANGLE, WeightPoly(3, {(1, 2, 3): 1, (0, 1, 1): 4})), 3, True)
def test_box_walks_match_the_box_scan_and_the_pointwise_sum(case, n, strict):
    # boxes of every axis count, closed and strict, summed in closed form
    # where each axis carries at most two factors and no factor moves along
    # two axes, and fiber by fiber along the last axis otherwise
    points, w = case
    _assert_box_walk_matches_the_oracles(points, w, max(n, strict), strict)


@pytest.mark.parametrize("points, axes", [
    (CUBE, 3), (PRISM_OVER_TRIANGLE, 2), (CRITERION3, 3), (BIRKHOFF3, 1),
])
def test_fixed_frames_walk_boxes_of_their_axes(points, axes):
    # the unit cube is one box of three axes; the prism over a triangle boxes
    # its interval with a triangle coordinate; criterion 3 gains a third axis,
    # e0 - e1 of its reduced basis, past the two of its last coordinates; and
    # B_3's rows couple every pair, so it walks fibers. Each is box scanned
    # where its scan box holds at most 1,024 cells, B_3 at n = 1 (2^9 cells)
    # and criterion 3 at n = 1, and checked against the ambient walk
    P = LatticePolytope(points)
    frame = _frame(_lattice_coordinates(P))
    assert len(frame[5]) == axes
    s = len(points[0])
    w = WeightPoly(s, {tuple(int(i < 3) for i in range(s)): 1, (2,) + (0,) * (s - 1): -3,
                       (0,) * s: Fraction(1, 2)})
    for n, strict in ((1, False), (2, False), (3, True)):
        _assert_box_walk_matches_the_oracles(points, w, n, strict, scan=1024)
        total = _walk_sum(P, n, strict, w._num.items())[0]
        assert Fraction(total, w._den) == sum(map(w.eval, ambient_walk(P, n, strict)))


@settings(max_examples=150)
@given(small_affine_images() | full_dimensional_sets() | permuted_criterion3)
@example(CRITERION3)
@example(CUBE)
@example(BIRKHOFF3)
@example(PRISM_OVER_TRIANGLE)
@example(TETRAHEDRON)
def test_frame_changes_basis_unimodularly_and_boxes_uncoupled_axes(points):
    # the frame's basis is B M for an integer M of determinant +-1, read off
    # _echelon's last pivot; Q's rows are c M and Q's box the vertices' in the
    # new basis; no row is nonzero on two box axes; and the axes the frame
    # took before its scan, the last coordinate and the one before it when no
    # row bounds both, are among the box's
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    coords = _lattice_coordinates(P)
    v0, basis, rows, _ = coords
    _, cols, framed, lo, hi, axes, _ = _frame(coords)
    d = len(basis)
    M = [lattice_coefficients(basis, col) for col in cols]  # column j of M is M[j]
    assert all(x.denominator == 1 for col in M for x in col)
    M = [[int(M[j][i]) for j in range(d)] for i in range(d)]
    echelon, pivots = _echelon(M)
    assert len(pivots) == d and abs(echelon[-1][pivots[-1]]) == 1
    assert [(tuple(sum(map(mul, c, col)) for col in zip(*M)), b) for c, b in rows] \
        == [(c, b) for c, b, _ in framed]
    ys = [lattice_coefficients(cols, [x - o for x, o in zip(v, v0)]) for v in P.vertices]
    assert (lo, hi) == ([min(y) for y in zip(*ys)], [max(y) for y in zip(*ys)])
    k = len(axes)
    assert axes == tuple(cols[d - k:])
    assert all(sum(1 for x in c[d - k:] if x) <= 1 for c, _, _ in framed)
    assert set(_today_axes(coords)) <= set(axes)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-30, 30), st.integers(-6, 6),
                         st.integers(-5, 5).filter(bool)), max_size=4),
       st.lists(st.integers(-30, 30), min_size=4, max_size=4), st.integers(-6, 6),
       st.integers(-12, 12), st.integers(-1, 12))
# a lower row's residual 1 - 3 - 4 = -6 over -4 keeps y = 2..5; an upper
# row's -4 - 0 - 3 = -7 over 3 adds y <= -3, and no y is left
@example([(2, 1, 4, -4)], [0, 0, 3, 0], 1, -5, 10)
@example([(0, -4, 3, 3), (2, 1, 4, -4)], [0, 0, 3, 0], 1, -5, 10)
def test_interval_cuts_to_the_values_every_row_allows(rows, sums, t, low, width):
    # the one rule of the walk, at every depth (t = 0) and every cell of the
    # tight loop: the range it returns holds exactly the y in low..high with
    # c*y <= rhs - sums[i] - t*s for every row (i, rhs, s, c), and is empty
    # when no y does
    high = low + width
    allowed = [y for y in range(low, high + 1)
               if all(c * y <= rhs - sums[i] - t * s for i, rhs, s, c in rows)]
    cut = _interval(low, high, rows, sums, t)
    assert list(range(cut[0], cut[1] + 1)) == allowed


def test_walk_memory_does_not_grow_with_a_coordinate_width():
    # a thin parallelogram and a thin trapezoid whose outer coordinate spans
    # over 10^5 values: the walk keeps one lazy cursor per depth and a lazy
    # range over x, never a level's siblings, so the parallelogram's one
    # block and the trapezoid's first thousand fibers, of one point each,
    # cost a few kilobytes (34 MB with the siblings)
    N = 10**5
    for top, count in [(N + 1, 2 * (N + 1)), (N + 2, 1000)]:
        # Q's second coordinate is the wide one: walked outermost
        frame = _frame(permuted_coordinates(
            _lattice_coordinates(LatticePolytope([(0, 0), (1, 0), (N, N), (top, N)])), (1, 0)))
        tracemalloc.start()
        try:
            walk = _fibers(frame, 1, False, 10**8)
            points = sum(1 for _ in _points(frame[5], islice(walk, 1000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points == count and peak < 64 * 1024, top


@st.composite
def images_and_weights(draw):
    """A small image or a permuted criterion-3 polytope, with a weight of up to
    four terms whose exponents reach 6 on any coordinate, fixed along the
    walk's fibers or moving."""
    points = draw(small_affine_images() | permuted_criterion3)
    s = len(points[0])
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    exponents = st.tuples(*[st.integers(0, 6)] * s)
    terms = st.dictionaries(exponents, coefficient, min_size=1, max_size=4)
    return points, WeightPoly(s, draw(terms))


@settings(max_examples=150)
@given(images_and_weights(), st.integers(0, 4), st.booleans())
@example(([(4, -1, 2)], WeightPoly(3, {(6, 0, 1): Fraction(-7, 3), (0, 0, 0): 1})), 3, True)
@example(([(2, 5), (2, 5)], WeightPoly(2, {(0, 6): Fraction(1, 2), (3, 0): -1})), 0, False)
@example(([(0, 0), (1, 0), (0, 5), (1, 5)],
          WeightPoly(2, {(1, 6): 3, (2, 0): Fraction(-1, 4)})), 4, False)
# boxes, summed by the one box kernel: at most two factors along each axis
# make a product of closed forms; three along an axis, and t3 in the sheared
# square, which moves along both of its axes, go fiber by fiber along the last
# axis through the same kernel; the prism's box of one value on its first axis
@example((BOX, WeightPoly(3, {(2, 2, 1): 3, (1, 0, 0): Fraction(-1, 2)})), 2, False)
@example((BOX, WeightPoly(3, {(3, 1, 0): 1, (0, 3, 1): -2, (0, 0, 0): 5})), 2, True)
@example((SHEARED_SQUARE, WeightPoly(3, {(0, 0, 2): 1, (1, 1, 0): 2})), 2, False)
@example((PRISM, WeightPoly(3, {(1, 1, 1): 1, (0, 2, 0): Fraction(1, 3)})), 1, False)
def test_walk_sum_matches_the_pointwise_sum(case, n, strict):
    points, w = case
    P = LatticePolytope(points)
    total, blocks = _walk_sum(P, n, strict, w._num.items())
    assert total == pointwise_sum(P, w, n, strict)
    assert blocks == sum(1 for _ in geometry._walk_fibers(P, n, strict)[1])  # the walk's own count


@settings(max_examples=100)
@given(images_and_weights(), st.integers(1, 3))
@example(([(4, -1, 2)], WeightPoly(3, {(6, 0, 1): Fraction(-7, 3), (0, 0, 0): 1})), 2)
@example((BOX, WeightPoly(3, {(3, 1, 0): 1, (0, 3, 1): -2, (0, 0, 0): 5})), 2)
@example((SHEARED_SQUARE, WeightPoly(3, {(0, 0, 2): 1, (1, 1, 0): 2})), 1)
@example((PRISM, WeightPoly(3, {(1, 1, 1): 1, (0, 2, 0): Fraction(1, 3)})), 3)
def test_point_walks_sum_alike_under_shared_plans(case, n):
    # 0P and a point P walk one point, a box of no axes, summed term by term:
    # next to a term list's shared plans, here one of BOX's or of P's own axes,
    # under which factors move, they still sum the weight and add no plan
    points, w = case
    P, terms = LatticePolytope(points), w._num.items()
    for other in (BOX, points):
        if len(other[0]) != len(points[0]):
            continue
        plans = _SumPlans(terms)
        _walk_sum(LatticePolytope(other), 1, False, plans)
        for m, strict in [(0, False)] + ([] if P.dim else [(n, False), (n, True)]):
            total = _walk_sum(P, m, strict, plans)[0]
            assert total == pointwise_sum(P, w, m, strict), (other, m, strict)
        assert len(plans) == bool(LatticePolytope(other).dim), other


@pytest.mark.parametrize("N, points", [
    # the parallelogram of the memory test, narrower, a rectangle in Q: one
    # box of two values on one axis and 10^4 + 1 on the other
    (10**4, [(0, 0), (1, 0), (10**4, 10**4), (10**4 + 1, 10**4)]),
    # a rectangle: one box of two values on one axis and 10^5 + 1 on the other
    (10**5, [(0, 0), (1, 0), (0, 10**5), (1, 10**5)]),
])
def test_walk_sum_memory_does_not_grow_with_a_fiber_or_a_width(N, points):
    # w = t1*t2 - 3*t2^2 + 1/2 over 1P against a closed form, S1 and S2 the
    # sums of t and t^2 for t = 0..N. The untraced first sum caches the frame
    # and fills the interpreter's tuple free lists, about 170 KiB held once
    # per process; the traced sum walks again, as the walk store is emptied,
    # and then holds a few kilobytes
    S1, S2 = N * (N + 1) // 2, N * (N + 1) * (2 * N + 1) // 6
    w = WeightPoly(2, {(1, 1): 1, (0, 2): -3, (0, 0): Fraction(1, 2)})
    P = LatticePolytope(points)
    first = _walk_sum(P, 1, False, w._num.items())[0]
    geometry._walk_store.clear()
    tracemalloc.start()
    try:
        total = _walk_sum(P, 1, False, w._num.items())[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    closed = (2 * S2 + S1 if points[2][0] else S1) - 6 * S2 + N + 1
    assert first == total and Fraction(total, w._den) == closed and peak < 64 * 1024


def test_column_by_column_sums_keep_no_column_list():
    # the square [0, N]^2 is one box along (1, 0) and (0, 1); t1^3 has three
    # factors moving along the first axis, so it runs fiber by fiber along the
    # last, and the fibers are made one at a time
    N = 5000
    P, terms = LatticePolytope([(0, 0), (N, 0), (0, N), (N, N)]), [((3, 0), 1), ((0, 1), 1)]
    axes, blocks = geometry._walk_fibers(P, 1, False)
    assert axes[0] == (1, 0) and [block[1:3] for block in blocks] == [(0, N)]
    geometry._walk_store.clear()
    tracemalloc.start()
    try:
        total = _walk_sum(P, 1, False, terms)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == (N + 1) * ((N * (N + 1) // 2) ** 2 + N * (N + 1) // 2) and peak < 64 * 1024


@pytest.mark.parametrize("points, n, strict, e, weight, store", [
    # moving degree 2: one coordinate squared along e
    (SEGMENT_NEGATIVE, 2, False, (-1, 1), {(2, 0): 1}, None),
    # moving degree 1 exactly
    (SEGMENT_NEGATIVE, 2, False, (-1, 1), {(0, 1): -3}, None),
    # a mixed product of degree 2, degree 1 and a constant
    (SEGMENT_NEGATIVE, 2, False, (-1, 1), {(1, 1): 2, (0, 1): -3, (0, 0): 4}, None),
    # t3 is fixed: degrees 2, 1 and 0 along e times fixed factors, and a constant
    (TRIANGLE_IN_PLANE, 2, False, (-1, 1, 0),
     {(1, 1, 2): 2, (1, 0, 1): -5, (0, 0, 3): Fraction(1, 3), (0, 0, 0): 7}, None),
    # degree 3 along e goes down the range route, next to a degree-2 term
    (TRIANGLE_IN_PLANE, 2, True, (-1, 1, 0), {(2, 1, 0): -1, (0, 2, 1): 1}, None),
    # a streamed walk: twelve fibers, over a store budget of four
    (RIGHT_TRIANGLE, 2, True, (0, 1), {(2, 1): 1, (0, 2): -2, (1, 0): 1, (0, 0): -1}, 4),
    # a streamed box walk: seven boxes of two axes, over a store budget of two,
    # so one stream feeds both the box sums of -2*t1*t2*t3 and 5 and the fiber
    # route of t1^3*t2^3, whose three factors t1 move along e and run along ranges
    (PRISM_OVER_TRIANGLE, 3, False, (1, 0, 0), {(3, 3, 0): 1, (1, 1, 1): -2, (0, 0, 0): 5}, 2),
])
def test_closed_form_fiber_sums_match_the_box_scan(points, n, strict, e, weight, store,
                                                   monkeypatch):
    # each block sum of moving degree <= 2 along an axis is taken from count, S1
    # and S2 along it; the box scan sums the weight point by point, independently
    # of the walk
    if store is not None:
        monkeypatch.setattr(geometry, "WALK_STORE_BLOCKS", store)
    P, w = LatticePolytope(points), WeightPoly(len(points[0]), weight)
    axes, blocks = geometry._walk_fibers(P, n, strict)
    assert axes[-1] == e and (store is None or len(list(blocks)) > store)
    geometry._walk_store.clear()
    total = _walk_sum(P, n, strict, w._num.items())[0]
    assert ((P.vertices, n, strict, geometry._enumeration_cap()) in geometry._walk_store) \
        == (store is None)
    assert Fraction(total, w._den) == box_weighted_sum(points, w, n, interior=strict)


@settings(max_examples=100)
@given(images_and_weights(), st.integers(0, 4), st.booleans())
@example(([(4, -1, 2)], WeightPoly(3, {(6, 0, 1): Fraction(-7, 3), (0, 0, 0): 1})), 3, True)
@example(([(2, 5), (2, 5)], WeightPoly(2, {(0, 6): Fraction(1, 2), (3, 0): -1})), 0, False)
def test_stored_walks_equal_fresh_ones(case, n, strict):
    # the walk store is keyed by value: an equal polytope built anew reads
    # what the first one walked, and reads the same as a walk from scratch
    points, w = case
    terms = w._num.items()
    P = LatticePolytope(points)
    geometry._walk_store.clear()
    cold = _walk_sum(P, n, strict, terms)
    if (n or strict) and P.dim:
        blocks = sum(1 for _ in _fibers(P._frame, n, strict, math.inf))
        assert ((P.vertices, n, strict, geometry._enumeration_cap()) in geometry._walk_store) \
            == (blocks < geometry.WALK_STORE_BLOCKS)
    warm = _walk_sum(LatticePolytope(points), n, strict, terms)
    geometry._walk_store.clear()
    assert cold == warm and cold[0] == pointwise_sum(P, w, n, strict)

    # vertices shifted into the orthant, for the image count
    shifted = [tuple(c - m for c, m in zip(v, map(min, zip(*points)))) for v in points]
    W = LinearWeightTuple([e for e, _ in terms])
    for vertices, read in [
        (points, lambda Q: lattice_points(Q, n)),
        (points, lambda Q: interior_lattice_points(Q, max(n, 1))),
        (shifted, lambda Q: hilbert_value(Q, W, n)),
    ]:
        geometry._walk_store.clear()
        assert read(LatticePolytope(vertices)) == read(LatticePolytope(vertices))


def test_stored_walk_keeps_the_cap(monkeypatch):
    # 3P of criterion 3 visits 146 cells in 10 boxes. Stored under the
    # default cap, it is stored again under a cap of 146, which it meets,
    # and walked again under a lower one, raising as a first walk does; a
    # walk that raised stores nothing, nor does one past the budget, read
    # partway or to the end
    P = LatticePolytope(CRITERION3)
    key = (P.vertices, 3, False, geometry._enumeration_cap())
    points = lattice_points(P, 3)
    axes, blocks = geometry._walk_store[key]
    walked, cells = _outcome(_fibers, P._frame, 3, False, math.inf)
    assert (len(blocks), cells) == (10, 146)
    assert walked == list(_points(axes, blocks))
    monkeypatch.setenv("EHRWT_MAX_POINTS", "146")
    assert lattice_points(LatticePolytope(CRITERION3), 3) == points
    assert geometry._walk_store[key[:3] + (146,)] == (axes, blocks)
    monkeypatch.setenv("EHRWT_MAX_POINTS", "60")
    with pytest.raises(EnumerationLimitError) as warm:
        lattice_points(LatticePolytope(CRITERION3), 3)
    geometry._walk_store.clear()
    with pytest.raises(EnumerationLimitError) as cold:
        lattice_points(LatticePolytope(CRITERION3), 3)
    assert str(warm.value) == str(cold.value)
    assert "closed dilation n=3 counted 62 candidate cells" in str(cold.value)
    assert key[:3] + (60,) not in geometry._walk_store
    monkeypatch.delenv("EHRWT_MAX_POINTS")
    wide = LatticePolytope([(0, 0), (600, 0), (0, 600)])
    blocks = geometry._walk_fibers(wide, 1, False)[1]
    next(blocks)
    del blocks
    assert sum(1 for _ in geometry._walk_fibers(wide, 1, False)[1]) == 601
    assert not geometry._walk_store


@pytest.mark.parametrize("points, n, strict", [
    (CRITERION3, 0, False),  # 0P: the origin, one block
    ([(2, -1, 5)], 3, False),  # a point: one block
    ([(2, -1, 5)], 2, True),
    (CRITERION3, 3, False),  # stored: 10 boxes
    ([(0, 0), (600, 0), (0, 600)], 1, False),  # streamed: 601 fibers
])
def test_every_fiber_base_is_a_tuple(points, n, strict):
    # on a first walk and on a second, read from the store where it was kept
    for _ in range(2):
        blocks = list(geometry._walk_fibers(LatticePolytope(points), n, strict)[1])
        assert blocks and all(type(base) is tuple for base, *_ in blocks)


def test_walk_store_holds_at_most_its_budget():
    # 400 segments of Z^2, each walked closed and strictly at n = 1..3: 2,400
    # entries of at most one block fill 4,400 of the store's units, each a
    # block or an entry's own key, value and link, and under 320 bytes here.
    # The frames are computed untraced first; the store then keeps its budget
    segments = [LatticePolytope([(a, 0), (a + 1, 1)]) for a in range(400)]
    for P in segments:
        lattice_points(P, 1)
    geometry._walk_store.clear()
    tracemalloc.start()
    try:
        for P in segments:
            for n in (1, 2, 3):
                lattice_points(P, n)
                interior_lattice_points(P, n)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert geometry._walk_store.size <= geometry.WALK_STORE_BLOCKS
    assert retained < 320 * geometry.WALK_STORE_BLOCKS


def test_walk_store_drops_the_first_stored_walk_first():
    # segments 0..255 at n = 1, one block and one entry each, fill the
    # budget of 512 units; a read of segment 0 leaves the order alone, so
    # the walk of segment 256 drops segment 0, not segment 1
    count = geometry.WALK_STORE_BLOCKS // 2
    segments = [LatticePolytope([(a, 0), (a + 1, 1)]) for a in range(count + 1)]
    for P in segments:
        lattice_points(P, 1)
    geometry._walk_store.clear()
    for P in segments[:count]:
        lattice_points(P, 1)
    assert geometry._walk_store.size == geometry.WALK_STORE_BLOCKS
    assert lattice_points(segments[0], 1) == [(0, 0), (1, 1)]
    lattice_points(segments[count], 1)
    first, second = ((P.vertices, 1, False, geometry._enumeration_cap()) for P in segments[:2])
    assert first not in geometry._walk_store and second in geometry._walk_store


def test_walk_store_keeps_its_count_under_threads():
    # eight threads walk the small dilations of 100 segments, 800 units
    # against the budget of 512, switching every microsecond: every walk
    # stays right, and the store's size still counts exactly its entries
    segments = [LatticePolytope([(a, 0), (a + 1, 1)]) for a in range(100)]
    for P in segments:
        lattice_points(P, 1)
    failures = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                a, n = rng.randrange(100), rng.randint(1, 4)
                assert lattice_points(segments[a], n) == [(n * a + i, i) for i in range(n + 1)]
        except Exception as exc:  # reported below, from the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not failures
    store = geometry._walk_store
    assert store.size == sum(len(blocks) + 1 for *_, blocks in store.values())
    assert store.size <= geometry.WALK_STORE_BLOCKS


def test_cached_frame_does_not_depend_on_the_first_cap(monkeypatch):
    low = LatticePolytope(CRITERION3)
    monkeypatch.setenv("EHRWT_MAX_POINTS", "60")
    try:
        lattice_points(low, 3)
    except EnumerationLimitError:
        pass
    monkeypatch.delenv("EHRWT_MAX_POINTS")
    fresh = LatticePolytope(CRITERION3)
    lattice_points(fresh, 1)
    assert low._frame == fresh._frame


def test_enumeration_cap_counts_cells_in_the_hull_lattice(monkeypatch):
    # the diagonal's lattice walk visits one cell per point, where a walk
    # of both ambient coordinates visited two
    diagonal = LatticePolytope([(0, 0), (10, 10)])
    monkeypatch.setenv("EHRWT_MAX_POINTS", "11")
    assert len(lattice_points(diagonal, 1)) == 11
    monkeypatch.setenv("EHRWT_MAX_POINTS", "10")
    message = "closed dilation n=1 counted 11 candidate cells, over EHRWT_MAX_POINTS=10;"
    with pytest.raises(EnumerationLimitError, match=message):
        lattice_points(diagonal, 1)
    triangle = LatticePolytope([(0, 0, 0), (4, 0, 4), (0, 4, 4)])
    message = "interior dilation n=3 counted .* EHRWT_MAX_POINTS=10;"
    with pytest.raises(EnumerationLimitError, match=message):
        interior_lattice_points(triangle, 3)
    monkeypatch.delenv("EHRWT_MAX_POINTS")
    assert len(interior_lattice_points(triangle, 3)) == 55


def test_facet_rows_over_the_cap_stop_the_hull(monkeypatch):
    # the 4-cube's double description peaks at 10 rows on the way to its 8 facets
    cube = list(product((0, 1), repeat=4))
    monkeypatch.setattr(geometry, "HULL_ROWS", 9)
    message = ("facet computation of 16 points in dimension 4 reached 10 "
               "double-description rows after 13 points, over the cap of 9")
    with pytest.raises(EnumerationLimitError, match=message):
        facets(LatticePolytope(cube))
    monkeypatch.setattr(geometry, "HULL_ROWS", 10)
    assert len(facets(LatticePolytope(cube))[1]) == 8


def test_facet_rows_over_the_cap_stop_contains(monkeypatch):
    # contains reads the facet rows, so its first query computes the hull;
    # the cube also sits in a hyperplane of Z^5, where a point off the
    # hyperplane raises too
    cube = list(product((0, 1), repeat=4))
    flat = LatticePolytope(cube)
    raised = LatticePolytope([v + (0,) for v in cube])
    monkeypatch.setattr(geometry, "HULL_ROWS", 9)
    message = ("facet computation of 16 points in dimension 4 reached 10 "
               "double-description rows after 13 points, over the cap of 9")
    for P, point in [(flat, (0, 0, 0, 0)), (raised, (0, 0, 0, 0, 1))]:
        with pytest.raises(EnumerationLimitError, match=message):
            contains(P, point)
    monkeypatch.setattr(geometry, "HULL_ROWS", 10)
    assert contains(flat, (Fraction(1, 2),) * 4)
    assert not contains(raised, (0, 0, 0, 0, 1))


# ---------------------------------------------------------------- membership

def test_contains_fixtures():
    assert contains(SEGMENT, (1, 1))
    assert not contains(SEGMENT, (1, 0))
    assert contains(SQUARE, (2, 2), n=2)
    assert not contains(SQUARE, (3, 0), n=2)
    assert contains(POINT, (1, 1))
    assert not contains(POINT, (0, 1))


def test_contains_validation():
    with pytest.raises(TypeError):
        contains(SQUARE, (0.5, 0.5))
    # a bool is an int subclass, and a str iterates; neither takes the int route
    with pytest.raises(TypeError, match=r"^boolean coordinate True is not allowed$"):
        contains(SQUARE, (1, True))
    with pytest.raises(TypeError, match=r"^boolean dilation factor True is not allowed$"):
        contains(SQUARE, (0, 0), True)
    with pytest.raises(TypeError, match=r"^str coordinate '1' is not allowed$"):
        contains(SQUARE, "10")
    with pytest.raises(ValueError):
        contains(SQUARE, (0, 0), n=0)
    with pytest.raises(ValueError):
        contains(SQUARE, (0, 0, 0))


class CheckedPivot:
    """geometry._pivot on the oracle LP's phase-1 tableaux, checked: each
    division exact, each pivot positive, prev the tableau's last pivot (1 at
    its first step), and no right-hand side of a constraint row negative
    afterwards."""

    def __init__(self):
        self.pivot = geometry._pivot
        self.mat, self.last = None, 1

    def __call__(self, mat, r, col, prev):
        if mat is not self.mat:
            self.mat, self.last = mat, 1
        top, p = mat[r], mat[r][col]
        assert prev == self.last and p > 0
        assert all((p * a - row[col] * b) % prev == 0
                   for i, row in enumerate(mat) if i != r for a, b in zip(row, top))
        self.last = self.pivot(mat, r, col, prev)
        assert all(row[-1] >= 0 for row in mat[:-1])
        return self.last


@st.composite
def integer_systems(draw):
    """rows.y == rhs on 1-5 rows and 1-6 columns of small integers. The rhs is
    rows.y for some y >= 0 (feasible by construction, degenerate where y has
    zeros) or random; extra rows repeat, negate or scale a row, which also
    gives negative right-hand sides and ties in the ratio test, or are zero."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        y = [draw(st.integers(0, 3)) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, y)) for row in rows]
    else:
        rhs = [draw(st.integers(-4, 4)) for _ in range(m)]
    for k in draw(st.lists(st.sampled_from([-1, 0, 1, 2]), max_size=3)):
        i = draw(st.integers(0, m - 1))
        rows.append([k * a for a in rows[i]])
        rhs.append(k * rhs[i] if k else draw(st.integers(0, 1)))
    return rows, rhs


@settings(max_examples=600)
@given(integer_systems())
@example(([[1, 1], [1, -1]], [-2, 0]))
@example(([[0, 0]], [1]))
def test_feasible_matches_the_fraction_simplex(system):
    rows, rhs = system
    expected = simplex_maximize(rows, rhs, [0] * len(rows[0]))[0] != "infeasible"
    with patch.object(geometry, "_pivot", CheckedPivot()):
        assert phase_one_feasible(rows, rhs) == expected


@st.composite
def membership_queries(draw):
    """(vertices, n, point): 1-4 vertices in Z^1..Z^4, small or up to 10^20,
    some repeated, some on a lower-dimensional plane; n in {1, 2, 3/2, 1/3};
    a rational point of nP, possibly pushed off it."""
    s = draw(st.integers(1, 4))
    coord = st.integers(-10**20, 10**20) if draw(st.booleans()) else st.integers(-3, 3)
    verts = [tuple(draw(coord) for _ in range(s)) for _ in range(draw(st.integers(1, 4)))]
    if s > 1 and draw(st.booleans()):
        verts = [v[:-1] + (v[0] + v[-2],) for v in verts]
    verts += draw(st.lists(st.sampled_from(verts), max_size=2))
    n = draw(st.sampled_from([1, 2, Fraction(3, 2), Fraction(1, 3)]))
    lam = [draw(st.integers(0, 3)) for _ in verts]
    total = sum(lam) or 1
    shift = st.sampled_from([0, 0, 0, Fraction(1, 7), Fraction(-1, 3), 1])
    point = tuple(n * Fraction(sum(c * v[j] for c, v in zip(lam, verts)), total) + draw(shift)
                  for j in range(s))
    return verts, n, point


@settings(max_examples=400)
@given(membership_queries())
@example(([(0,)], 1, (0,)))
@example(([(5,)], Fraction(1, 3), (Fraction(5, 3),)))
@example(([(10**20, 0), (0, 10**20)], Fraction(3, 2), (Fraction(3, 4) * 10**20,) * 2))
def test_contains_matches_the_hull_oracle(query):
    verts, n, point = query
    expected = in_hull([tuple(n * c for c in v) for v in verts], point)
    assert contains(LatticePolytope(verts), point, n) == expected
    with patch.object(geometry, "_pivot", CheckedPivot()):
        assert barycentric_member(verts, point, n) == expected


@st.composite
def integer_queries(draw):
    """(vertices, n, point): 1-5 vertices in Z^1..Z^4, some on a plane, an int
    n in 1..3, and the sum of n vertices, a point of nP, possibly pushed off
    it by a unit step."""
    s = draw(st.integers(1, 4))
    verts = [tuple(draw(st.integers(-3, 3)) for _ in range(s))
             for _ in range(draw(st.integers(1, 5)))]
    if s > 1 and draw(st.booleans()):
        verts = [v[:-1] + (v[0] + v[-2],) for v in verts]
    n = draw(st.integers(1, 3))
    point = [sum(col) for col in zip(*[draw(st.sampled_from(verts)) for _ in range(n)])]
    if draw(st.booleans()):
        point[draw(st.integers(0, s - 1))] += draw(st.sampled_from([-1, 1]))
    return verts, n, point


@settings(max_examples=300)
@given(integer_queries())
def test_contains_int_route_matches_the_rational_route(query):
    verts, n, point = query
    P = LatticePolytope(verts)
    assert contains(P, point, n) == contains(P, tuple(map(Fraction, point)), Fraction(n))


def test_contains_agrees_with_enumeration_random():
    rng = random.Random(909)
    for case in range(50):
        s = rng.randint(1, 2)
        verts = random_vertices(rng, s, rng.randint(1, 4), -3, 3)
        P = LatticePolytope(verts)
        n = rng.randint(1, 2)
        inside = set(lattice_points(P, n))
        lows = [n * min(v[j] for v in verts) - 1 for j in range(s)]
        highs = [n * max(v[j] for v in verts) + 1 for j in range(s)]
        for _ in range(20):
            cand = tuple(rng.randint(lo, hi) for lo, hi in zip(lows, highs))
            assert contains(P, cand, n=n) == (cand in inside)


@st.composite
def thin_index_images(draw):
    """Images of the origin, the unit vectors and at most one more small
    point of Z^d under an integer affine map into Z^s, d < s <= 4, whose
    first column is scaled by 2 or 3: the image has dimension d and its
    lattice has index > 1 in the lattice of its hull. The bounding box of
    2P holds at most 64 points."""
    s = draw(st.integers(2, 4))
    d = draw(st.integers(1, s - 1))
    k = draw(st.integers(2, 3))
    entry = st.sampled_from([0, 0, 1, -1])
    A = [[k * draw(entry)] + [draw(entry) for _ in range(d - 1)] for _ in range(s)]
    c = [draw(entry) for _ in range(s)]
    ys = [(0,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)]
    ys += draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), max_size=1))
    points = [tuple(sum(a * x for a, x in zip(row, y)) + cc for row, cc in zip(A, c)) for y in ys]
    assume(affine_rank(points) == d)
    box = math.prod(2 * (max(col) - min(col)) + 1 for col in zip(*points))
    assume(box <= 64)
    return points


@settings(max_examples=150)
@given(thin_index_images())
@example([(0, 0), (2, 2)])
@example([(0, 0, 0), (2, 0, 0), (0, 1, 1)])
def test_membership_routes_agree_on_every_box_point(points):
    # contains and the rows below are the hull route, barycentric_member is
    # phase 1 on an integer tableau, and box_points asks the Fraction LP, on
    # every point of the box
    P = LatticePolytope(points)
    equations, inequalities = facets(P)
    for n in (1, 2):
        inside = set(box_points(points, n))
        box = [range(n * min(col), n * max(col) + 1) for col in zip(*points)]
        for q in product(*box):
            by_rows = all(sum(a * x for a, x in zip(row, q)) == n * b for row, b in equations) \
                and all(sum(a * x for a, x in zip(row, q)) <= n * b for row, b in inequalities)
            assert contains(P, q, n) == by_rows == barycentric_member(points, q, n) \
                == (q in inside)


# ---------------------------------------------------------------- graphs

def test_graph_validation():
    g = Graph(3, [(1, 2), (2, 3), (2, 1)])
    assert g.edges == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(0, [])


def test_edge_polytope_fixtures():
    single = edge_polytope(Graph(2, [(1, 2)]))
    assert single.vertices == ((1, 1),)
    assert single.dim == 0
    k3 = edge_polytope(Graph(3, [(1, 2), (1, 3), (2, 3)]))
    assert k3.vertices == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert k3.dim == 2


def test_edge_polytope_rejects_isolated_vertices():
    with pytest.raises(ValueError):
        edge_polytope(Graph(3, [(1, 2)]))


def test_bipartite_components():
    # triangle: one component, odd cycle, nothing bipartite
    assert bipartite_components(Graph(3, [(1, 2), (1, 3), (2, 3)])) == 0
    # 4-cycle plus a triangle: exactly one bipartite component
    g = Graph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (5, 7)])
    assert bipartite_components(g) == 1
    # path on 3 vertices: a single bipartite component
    assert bipartite_components(Graph(3, [(1, 2), (2, 3)])) == 1
    # isolated vertices count as bipartite components
    assert bipartite_components(Graph(2, [])) == 2


def test_example_graph_dimension():
    g = Graph(7, [(1, 2), (1, 4), (2, 3), (3, 4), (5, 6), (5, 7), (6, 7)])
    P = edge_polytope(g)
    assert P.ambient_dim == 7
    assert P.dim == 7 - bipartite_components(g) - 1 == 5
