"""Exact polytope layer: vertex validation, affine hulls, facet recovery,
dilation lattice points, membership, and edge polytopes of graphs."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, islice, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehrwt import (
    Graph,
    LatticePolytope,
    WeightPoly,
    bipartite_components,
    contains,
    dimension,
    edge_polytope,
    facets,
    interior_lattice_points,
    lattice_points,
)
from ehrwt.errors import ConsistencyError, EnumerationLimitError
from ehrwt import geometry
from ehrwt.geometry import (
    _affine_rank,
    _check_facets,
    _fibers,
    _frame,
    _lattice_coordinates,
    _points,
    _primitive_ineq,
    _walk,
    _walk_frame,
    _walk_sum,
)

from oracles import (
    affine_rank,
    ambient_walk,
    barycentric_member,
    box_points,
    brute_force_facets,
    euclid_coordinates,
    hull_equations,
    in_hull,
    in_relative_interior,
    lattice_coefficients,
    lll_reduced,
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
def test_affine_hull_and_rank_match_fraction_oracles(points):
    P = LatticePolytope(points)
    assert P.affine_hull == hull_equations(points)
    assert P.dim == affine_rank(points)
    assert _affine_rank(points) == affine_rank(points)


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


def test_facets_of_degenerate_point_sets_match_brute_force():
    # every boundary lattice point of boxes, cross-polytopes and simplices,
    # and clouds in {0,1,2}^d: many points on each facet, and in lex order
    # a box's first d + 1 points are collinear once L >= 2
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
    for verts in sets:
        for points in (verts, rng.sample(verts, len(verts))):
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


def _outcome(walk, frame, n, strict, cap):
    """The fibers a walk yields, as point lists, and its cell count or cap message."""
    fibers = []
    walker = walk(frame, n, strict, cap)
    try:
        while True:
            fibers.append(list(_points(frame[1][-1], [next(walker)])))
    except StopIteration as done:
        return fibers, done.value
    except EnumerationLimitError as exc:
        return fibers, str(exc)


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
    fibers, cells = _outcome(_fibers, _frame(euclid_coordinates(P), range(P.dim)), n, strict,
                             100_000)
    walked = sorted(chain.from_iterable(fibers))
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
    v0, basis, rows, (lo, hi) = _lattice_coordinates(P)
    assert len(basis) == P.dim and lll_reduced(basis)
    for col in basis:
        assert all(sum(c * x for c, x in zip(a, col)) == 0 for a, _ in P.affine_hull)
    # every vertex is v0 + B y for an integer y in Q, and Q's box is their hull's
    ys = []
    for v in P.vertices:
        y = lattice_coefficients(basis, [x - o for x, o in zip(v, v0)])
        assert y is not None and all(c.denominator == 1 for c in y)
        assert all(sum(c * e for c, e in zip(a, y)) <= b for a, b in rows)
        ys.append(y)
    assert (lo, hi) == ([min(y) for y in zip(*ys)], [max(y) for y in zip(*ys)])


def test_reduced_basis_walks_the_skewed_image_in_few_cells():
    P = LatticePolytope(SKEWED)
    expected = sorted(ambient_walk(P, 3, False))
    for frame in (_walk_frame(P), _frame(_lattice_coordinates(P), range(P.dim))):
        fibers, cells = _outcome(_fibers, frame, 3, False, 1_000)
        assert isinstance(cells, int) and sorted(chain.from_iterable(fibers)) == expected


@settings(max_examples=200)
@given(small_affine_images())
@example(SKEWED)
def test_walk_visits_few_cells_per_point(points):
    # at most 1,000 cells per point at n = 2: a search steering the draws
    # of this strategy reached 427 (a thin full-dimensional simplex, whose
    # basis is the identity), and the skewed image's Euclid basis 61,044
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    count = sum(1 for _ in ambient_walk(P, 2, False))
    fibers, cells = _outcome(_fibers, _walk_frame(P), 2, False, 1_000 * count)
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
            frame = _frame(coords, order)
            fibers = _fibers(frame, n, strict, math.inf)
            assert sorted(_points(frame[1][-1], fibers)) == expected, order


def test_pilot_over_its_budget_keeps_the_index_order(monkeypatch):
    P = LatticePolytope(CRITERION3)
    index_order = _frame(_lattice_coordinates(P), range(P.dim))
    assert _walk_frame(P) != index_order
    monkeypatch.setattr(geometry, "PILOT_CELLS", 1)
    assert _walk_frame(P) == index_order
    assert sorted(_walk(P, 3, False)) == sorted(ambient_walk(P, 3, False))


@settings(max_examples=100)
@given(small_affine_images() | permuted_criterion3, st.integers(0, 3), st.booleans())
@example(INDEX_TWO_PLANE, 3, False)
@example([(0, 0), (2, 1)], 3, True)
@example(SKEWED, 2, False)
def test_loop_walk_matches_the_recursive_walk(points, n, strict):
    P = LatticePolytope(points)
    if P.dim == 0:
        return
    index_order = _frame(_lattice_coordinates(P), range(P.dim))
    for frame in (_walk_frame(P), index_order):
        # 2,000 plain draws visited at most 12,019 cells, and a search that
        # steers the draws 42,622; a draw over 100,000 is compared up to the
        # cap message and at the caps below it
        expected = _outcome(recursive_fibers, frame, n, strict, 100_000)
        assert _outcome(_fibers, frame, n, strict, 100_000) == expected
        count = expected[1] if isinstance(expected[1], int) else 100_000
        for cap in (1, count // 2, count - 1):
            assert _outcome(_fibers, frame, n, strict, cap) \
                == _outcome(recursive_fibers, frame, n, strict, cap)


def test_walk_memory_does_not_grow_with_a_coordinate_width():
    # a thin parallelogram whose outer coordinate spans 10^5 + 2 values: the
    # walk keeps one lazy cursor per depth, never a level's siblings, so its
    # first thousand fibers cost a few kilobytes (34 MB with the siblings)
    N = 10**5
    frame = _walk_frame(LatticePolytope([(0, 0), (1, 0), (N, N), (N + 1, N)]))
    tracemalloc.start()
    try:
        walk = _fibers(frame, 1, False, 10**8)
        points = sum(1 for _ in _points(frame[1][-1], islice(walk, 1000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points == 1999 and peak < 64 * 1024


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
def test_walk_sum_matches_the_pointwise_sum(case, n, strict):
    points, w = case
    P = LatticePolytope(points)
    assert _walk_sum(P, n, strict, w._num.items()) == pointwise_sum(P, w, n, strict)


@pytest.mark.parametrize("N, points", [
    # the parallelogram of the memory test, narrower: 10^4 + 1 fibers of at most two points
    (10**4, [(0, 0), (1, 0), (10**4, 10**4), (10**4 + 1, 10**4)]),
    # two fibers of 10^5 + 1 points each
    (10**5, [(0, 0), (1, 0), (0, 10**5), (1, 10**5)]),
])
def test_walk_sum_memory_does_not_grow_with_a_fiber_or_a_width(N, points):
    # w = t1*t2 - 3*t2^2 + 1/2 over 1P against a closed form, S1 and S2 the
    # sums of t and t^2 for t = 0..N. The untraced first sum caches the frame
    # and fills the interpreter's tuple free lists, about 170 KiB held once
    # per process; the traced sum then holds a few kilobytes
    S1, S2 = N * (N + 1) // 2, N * (N + 1) * (2 * N + 1) // 6
    w = WeightPoly(2, {(1, 1): 1, (0, 2): -3, (0, 0): Fraction(1, 2)})
    P = LatticePolytope(points)
    first = _walk_sum(P, 1, False, w._num.items())
    tracemalloc.start()
    try:
        total = _walk_sum(P, 1, False, w._num.items())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    closed = (2 * S2 + S1 if points[2][0] else S1) - 6 * S2 + N + 1
    assert first == total and Fraction(total, w._den) == closed and peak < 64 * 1024


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
