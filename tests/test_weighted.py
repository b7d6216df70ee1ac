"""Weighted counting pipeline: sums, interpolated polynomials, series,
lifts, degree prediction, integrals, reciprocity, root vanishing."""

import random
import tracemalloc
import warnings
from fractions import Fraction as F
from itertools import chain, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrwt import (
    ConsistencyError,
    Graph,
    LatticePolytope,
    RationalGF,
    UniPoly,
    WeightPoly,
    check_negative_root_vanishing,
    edge_polytope,
    ehrhart_polynomial,
    gf_of_polynomial,
    integral_leading,
    interior_lattice_points,
    lattice_points,
    linear_lift,
    parse_weight,
    predicted_degree,
    reciprocity_check,
    weighted_by_affine_lift,
    weighted_ehrhart_polynomial,
    weighted_series,
    weighted_sum,
)
from ehrwt.errors import EnumerationLimitError
from ehrwt.polynomials import MAX_WEIGHT_EXPONENT
from ehrwt.weighted import _interpolated, affine_lift_polytope

from oracles import (
    ambient_walk,
    box_points,
    box_weighted_sum,
    closed_node_polynomial,
    random_vertices,
    random_weight_terms,
    term_value,
)
from test_geometry import CRITERION3, small_affine_images

SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = LatticePolytope([(1, 0), (0, 1), (1, 1)])
SEG2 = LatticePolytope([(2, 0), (0, 2)])
INTERVAL12 = LatticePolytope([(1,), (2,)])
SPIKE = LatticePolytope([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 7)])
BIG = 10**20


# ---------------------------------------------------------------- sums

def test_weighted_sum_fixtures():
    assert weighted_sum(SQUARE, parse_weight("t1+t2", 2), 1) == 4
    assert weighted_sum(SQUARE, parse_weight("1", 2), 2) == 9
    assert weighted_sum(INTERVAL12, parse_weight("t1^2", 1), 2) == 4 + 9 + 16


def test_weighted_sum_validation():
    with pytest.raises(ValueError):
        weighted_sum(SQUARE, parse_weight("t1", 2), -1)
    with pytest.raises(ValueError):
        weighted_sum(SQUARE, parse_weight("t1", 1), 1)


def test_weighted_sum_against_box_oracle():
    rng = random.Random(60218)
    for case in range(40):
        s = rng.randint(1, 2)
        verts = random_vertices(rng, s, rng.randint(1, 4), -3, 3)
        P = LatticePolytope(verts)
        w = WeightPoly(s, random_weight_terms(rng, s, 3, rng.randint(1, 3)))
        n = rng.randint(0, 2)
        assert weighted_sum(P, w, n) == box_weighted_sum(verts, w, n)


def _fraction_route_sum(verts, w, n, interior=False):
    """Box-oracle sum through per-point WeightPoly.eval, checked term by term."""
    points = box_points(verts, n, interior=interior)
    by_eval = sum((w.eval(p) for p in points), F(0))
    assert by_eval == sum((term_value(w, p) for p in points), F(0))
    return by_eval


def test_integer_sums_match_fraction_route():
    weights = ["-3/4*t1^2*t2 + 5/6*t2 - 2/7", "t1*t2 - 1/2*t1^2 + 7/10", "-5/3", "0"]
    polytopes = [
        [(2, -1)],  # 0-dimensional
        [(0, 0), (3, 1)],  # lower-dimensional
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],  # lower-dimensional
        [(0, 0), (2, 1), (1, 2)],
        [(BIG, -BIG), (BIG + 2, -BIG + 1)],  # bigint coordinates
        [(BIG, 3), (BIG + 1, 3), (BIG, 5)],
    ]
    for verts in polytopes:
        P = LatticePolytope(verts)
        for text in weights:
            w = parse_weight(text, P.ambient_dim)
            for n in range(3):
                assert weighted_sum(P, w, n) == _fraction_route_sum(verts, w, n)


def test_reciprocity_interior_sums_match_fraction_route():
    cases = [
        ([(0, 0), (2, 1), (1, 2)], "-3/4*t1^2 + 5/6*t1*t2"),
        ([(BIG, 0), (BIG + 2, 0), (BIG, 2), (BIG + 2, 2)], "2/3*t1*t2 - 1/5*t2^2"),
        ([(-BIG,), (-BIG + 3,)], "-7/2*t1^3"),
        ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)], "1/2*t1 - 1/3*t3"),
    ]
    for verts, text in cases:
        P = LatticePolytope(verts)
        w = parse_weight(text, P.ambient_dim)
        report = reciprocity_check(P, w, n_max=3, spot_check=False)
        assert report.all_equal
        for e in report.entries:
            assert e.interior_sum == _fraction_route_sum(verts, w, e.n, interior=True)


def test_weighted_sum_streams_in_bounded_memory():
    P = LatticePolytope([(0,), (1,)])
    w = parse_weight("-3/4*t1^2 + 1/3", 1)
    N = 10**5  # N + 1 lattice points in the dilation
    P.facet_inequalities  # computed before the measured region
    tracemalloc.start()
    try:
        total = weighted_sum(P, w, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == F(-3, 4) * N * (N + 1) * (2 * N + 1) / 6 + F(N + 1, 3)
    # a list of the points alone would take several megabytes
    assert peak < 64 * 1024


# ---------------------------------------------------------------- polynomials

def test_polynomial_fixtures():
    assert weighted_ehrhart_polynomial(SQUARE, parse_weight("t1+t2", 2)) \
        == UniPoly([0, 1, 2, 1])
    crooked = LatticePolytope([(1, 0), (0, 2), (2, 3)])
    assert weighted_ehrhart_polynomial(crooked, parse_weight("2/5*t1 - 6/25*t2", 2)) \
        == UniPoly([0, F(2, 25)])
    assert weighted_ehrhart_polynomial(SQUARE, parse_weight("t1^2*t2^2", 2)) \
        == UniPoly([0, 0, F(1, 36), F(1, 6), F(13, 36), F(1, 3), F(1, 9)])


def test_polynomial_trivial_weights():
    assert weighted_ehrhart_polynomial(SQUARE, parse_weight("0", 2)) == UniPoly([])
    assert weighted_ehrhart_polynomial(SQUARE, parse_weight("5", 2)) \
        == ehrhart_polynomial(SQUARE) * 5


def test_ehrhart_polynomial_of_cubes():
    for d in range(1, 4):
        verts = [tuple((i >> k) & 1 for k in range(d)) for i in range(2 ** d)]
        cube = LatticePolytope(verts)
        assert ehrhart_polynomial(cube) == UniPoly([1, 1]) ** d


def test_ehrhart_polynomial_fixtures():
    assert ehrhart_polynomial(TRIANGLE) == UniPoly([1, F(3, 2), F(1, 2)])
    assert ehrhart_polynomial(SEG2) == UniPoly([1, 2])
    assert ehrhart_polynomial(SPIKE) == UniPoly([1, F(23, 6), 4, F(7, 6)])


def test_degree_bound_on_fixtures():
    w = parse_weight("t1^2*t2", 2)
    poly = weighted_ehrhart_polynomial(TRIANGLE, w)
    assert poly.degree <= TRIANGLE.dim + w.degree


def test_interval_square_weight():
    # sum of i^2 for i = n..2n
    poly = weighted_ehrhart_polynomial(INTERVAL12, parse_weight("t1^2", 1))
    assert poly == UniPoly([0, F(1, 6), F(5, 2), F(7, 3)])


def test_symmetry_of_the_staircase_triangle():
    t1 = weighted_ehrhart_polynomial(TRIANGLE, parse_weight("t1", 2))
    t2 = weighted_ehrhart_polynomial(TRIANGLE, parse_weight("t2", 2))
    diff = weighted_ehrhart_polynomial(TRIANGLE, parse_weight("t1-t2", 2))
    assert t1 == t2 == UniPoly([0, F(2, 3), 1, F(1, 3)])
    assert diff == UniPoly([])


def test_validation_probe_detects_bad_interpolants(monkeypatch):
    import ehrwt.weighted as wmod
    monkeypatch.setattr(wmod, "lagrange_interpolate", lambda samples: UniPoly([9, 9]))
    fresh = LatticePolytope([(0,), (7,)])
    # the n = 0 probe fails first: 9 interpolated against the origin's weight 0;
    # the nodes are E(1) = 28 and, by reciprocity, E(-1) = 21 and E(-2) = 91
    message = (r"^interpolated counting polynomial fails at n=0; degree bound or "
               r"enumeration is wrong: vertices \[\(0,\), \(7,\)\], "
               r"weight WeightPoly\(1, \{\(1,\): 1\}\), interpolated 9, enumerated 0; "
               r"nodes \(n, value\), n < 0 from interior walks: "
               r"\[\(1, 28\), \(-1, 21\), \(-2, 91\)\]$")
    with pytest.raises(ConsistencyError, match=message):
        weighted_ehrhart_polynomial(fresh, parse_weight("t1", 1))


@st.composite
def images_and_weights(draw):
    """The image of small points of Z^d under an integer affine map into Z^s
    (d <= s <= 4, d = 0 included), whose lattice may have index > 1 in the
    lattice of its hull, and a weight on Z^s of degree <= 3 with rational
    coefficients: zero, constant, homogeneous or not."""
    s = draw(st.integers(1, 4))
    d = draw(st.integers(0, min(s, 3)))
    entry = st.integers(-2, 2)
    A = [[draw(entry) for _ in range(d)] for _ in range(s)]
    c = [draw(entry) for _ in range(s)]
    source = st.tuples(*[st.integers(-1, 1)] * d)
    ys = draw(st.lists(source, min_size=d + 1, max_size=d + 2, unique=True))
    points = [tuple(sum(a * x for a, x in zip(row, y)) + cc for row, cc in zip(A, c)) for y in ys]
    exponents = st.tuples(*[st.integers(0, 3)] * s).filter(lambda e: sum(e) <= 3)
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = draw(st.dictionaries(exponents, coefficient, min_size=1, max_size=3))
    return points, WeightPoly(s, terms)


@settings(max_examples=200)
@given(images_and_weights())
@example((  # a plane whose vertex lattice has index 2 in its hull's; odd-degree terms
    [(0, 0, 0), (1, -2, 0), (1, 0, -2), (-1, 1, 1)], parse_weight("t1 - 2*t2*t3^2 + 1/3", 3)))
@example(([(0,), (3,)], parse_weight("2", 1)))  # odd dimension
@example(([(0, 1, 1), (1, 0, 1), (1, 1, 0)], parse_weight("t1^2 - 1/2*t3", 3)))
@example(([(2, -1)], parse_weight("t1^3 + 1/2", 2)))  # dimension 0
def test_reciprocity_nodes_match_closed_nodes(case):
    # some nodes come from interior walks of w(-x), signed by (-1)^dim; the
    # library's closed-only route agrees too
    points, w = case
    P = LatticePolytope(points)
    poly = weighted_ehrhart_polynomial(P, w)
    assert poly == closed_node_polynomial(P, w)
    assert w.is_zero or poly == _interpolated(P, w, True) == _interpolated(P, w, False)


@st.composite
def images_and_high_degree_weights(draw):
    """As images_and_weights, with d <= 2 and a weight of total degree 4..8:
    its top term has that degree and the others any degree up to it, so
    terms of both parities meet the reflection signs (-1)^|e|."""
    s = draw(st.integers(1, 3))
    d = draw(st.integers(0, min(s, 2)))
    entry = st.integers(-2, 2)
    A = [[draw(entry) for _ in range(d)] for _ in range(s)]
    c = [draw(entry) for _ in range(s)]
    source = st.tuples(*[st.integers(-1, 1)] * d)
    ys = draw(st.lists(source, min_size=d + 1, max_size=d + 2, unique=True))
    points = [tuple(sum(a * x for a, x in zip(row, y)) + cc for row, cc in zip(A, c)) for y in ys]
    degree = draw(st.integers(4, 8))

    def monomial(total):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=s - 1, max_size=s - 1)))
        return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))

    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    totals = [degree] + draw(st.lists(st.integers(0, degree), max_size=3))
    return points, WeightPoly(s, {monomial(t): draw(coefficient) for t in totals})


@settings(max_examples=200)
@given(images_and_high_degree_weights())
@example(([(0, 0), (2, 0), (0, 2), (2, 2)], parse_weight("t1^5*t2 - t1^2 + 1/2*t2^3", 2)))
@example(([(1,), (4,)], parse_weight("t1^8 - t1^7", 1)))
def test_reciprocity_nodes_match_closed_nodes_at_high_degree(case):
    points, w = case
    P = LatticePolytope(points)
    assert weighted_ehrhart_polynomial(P, w) == closed_node_polynomial(P, w)


def test_counting_polynomial_at_the_degree_cap():
    # t1^64 on [0, 1]: 66 nodes, and the sums of k^64 over k = 0..n
    w = parse_weight(f"t1^{MAX_WEIGHT_EXPONENT}", 1)
    poly = weighted_ehrhart_polynomial(LatticePolytope([(0,), (1,)]), w)
    assert poly.degree == MAX_WEIGHT_EXPONENT + 1
    for n in (0, 1, 2, 7, 33, 66, 67, 100):
        assert poly(n) == sum(k**MAX_WEIGHT_EXPONENT for k in range(n + 1)), n


def test_checks_do_not_read_the_interior_nodes(monkeypatch):
    # a strict walk that loses a point must show in every route:
    # reciprocity_check interpolates from closed nodes and walks strictly
    # only for its entries, the vanishing check's plain count takes closed
    # nodes only, and weighted_ehrhart_polynomial, which the vanishing
    # check reads for its weighted count, reads interior nodes that its
    # closed probes validate
    from ehrwt import geometry

    walk_fibers, calls = geometry._walk_fibers, []

    def lossy(P, n, strict):
        calls.append((n, strict))
        axes, blocks = walk_fibers(P, n, strict)
        if strict:
            # the first box loses its first value along its last axis
            *block, low, high = next(blocks)
            blocks = chain([(*block, low + 1, high)], blocks)
        return axes, blocks

    P = LatticePolytope([(0, 0), (3, 0), (0, 3)])
    w = parse_weight("t1 + t2", 2)
    weighted_ehrhart_polynomial.cache_clear()
    weighted_ehrhart_polynomial(P, w)  # cached from sound walks: only the plain count walks below
    monkeypatch.setattr(geometry, "_walk_fibers", lossy)
    check_negative_root_vanishing(P, w, spot_check=False)
    assert calls and not any(strict for _, strict in calls)
    weighted_ehrhart_polynomial.cache_clear()
    calls.clear()
    assert not reciprocity_check(P, w, spot_check=False).all_equal
    assert [n for n, strict in calls if strict] == [1, 2, 3, 4]
    with pytest.raises(ConsistencyError, match="fails at n="):
        weighted_ehrhart_polynomial(P, w)


def test_node_order_follows_the_cheaper_walks(monkeypatch):
    # criterion 3 under t1*...*t7 has 13 nodes. The interiors of 1P..4P are
    # empty and relint(nP) walks as many boxes as closed (n - 5)P, so after
    # closed 1P (3 boxes) the interior side leads until its walk yields more
    # boxes than the closed side's last, and ties go to the interior: closed
    # 1..4 and interior 1..9, 69 boxes, where closed 1..6 and interior 1..7
    # took 93. The probes at 0 and 14 follow
    import ehrwt.weighted as wmod

    walk_sum, calls = wmod._walk_sum, []

    def spy(P, n, strict, terms):
        calls.append((n, strict))
        return walk_sum(P, n, strict, terms)

    monkeypatch.setattr(wmod, "_walk_sum", spy)
    P = LatticePolytope(CRITERION3)
    weighted_ehrhart_polynomial.cache_clear()
    weighted_ehrhart_polynomial(P, parse_weight("t1*t2*t3*t4*t5*t6*t7", 7))
    assert calls == [(1, False), *((n, True) for n in range(1, 8)), (2, False), (8, True),
                     (3, False), (9, True), (4, False), (0, False), (14, False)]


def test_criterion_three_walks_stay_small(monkeypatch):
    # points walked per polynomial: closed nodes 1..4 (1 for the plain count),
    # interior nodes of 1P..9P (1P..5P) and the two closed probes; closed
    # walks at every node took 65,892 and 2,640, and the halves, closed 1..6
    # and interior 1..7 (1..3 each), 21,617 and 1,366. The cells the walk
    # core visits from an empty walk store pin its order and Q's reduced
    # coordinates; after the weighted polynomial, the plain count finds its
    # nodes stored and walks only its probe 7P
    from ehrwt import geometry

    walk_fibers, fibers = geometry._walk_fibers, geometry._fibers
    walked = cells = 0

    def counted(P, n, strict):
        nonlocal walked
        axes, each = walk_fibers(P, n, strict)
        each = list(each)
        walked += sum(1 for _ in geometry._points(axes, each))
        return axes, iter(each)

    def counted_fibers(*args):
        nonlocal cells
        c = yield from fibers(*args)
        cells += c
        return c

    def measured(call, *args, warm=False):
        nonlocal walked, cells
        weighted_ehrhart_polynomial.cache_clear()
        if not warm:
            geometry._walk_store.clear()
        walked = cells = 0
        call(*args)
        return walked, cells

    monkeypatch.setattr(geometry, "_walk_fibers", counted)
    monkeypatch.setattr(geometry, "_fibers", counted_fibers)
    squares = Graph(7, [(1, 2), (1, 4), (2, 3), (3, 4), (5, 6), (5, 7), (6, 7)])
    P = edge_polytope(squares)
    w = parse_weight("t1*t2*t3*t4*t5*t6*t7", 7)
    assert measured(weighted_ehrhart_polynomial, P, w) == (20_784, 25_272)
    assert measured(ehrhart_polynomial, P) == (1_263, 1_796)
    measured(weighted_ehrhart_polynomial, P, w)
    assert measured(ehrhart_polynomial, P, warm=True) == (1_263, 1_748)


# ---------------------------------------------------------------- series

def test_series_fixtures():
    assert weighted_series(TRIANGLE, parse_weight("t1", 2)) \
        == RationalGF(UniPoly([0, 2]), 4)
    assert weighted_series(TRIANGLE, parse_weight("t1^2+t2^2", 2)) \
        == RationalGF(UniPoly([0, 4, 8]), 5)
    assert weighted_series(SEG2, parse_weight("t1+t2-1", 2)) \
        == RationalGF(UniPoly([-1, 6, 3]), 3)


def test_unweighted_numerators_are_nonnegative_integers():
    for P in (SQUARE, TRIANGLE, SEG2, INTERVAL12, SPIKE):
        gf = gf_of_polynomial(ehrhart_polynomial(P))
        assert gf.denom_power == P.dim + 1
        assert gf.numerator.degree <= P.dim
        for c in gf.numerator.coeffs:
            assert c.denominator == 1 and c >= 0


# ---------------------------------------------------------------- lifts

def test_linear_lift_fixtures():
    lifted = linear_lift(SEG2, parse_weight("t1+t2", 2))
    assert lifted.vertices == ((2, 0, 0), (0, 2, 0), (2, 0, 2), (0, 2, 2))
    spike_lift = linear_lift(SPIKE, parse_weight("t1+t2+t3", 3))
    assert spike_lift.vertices == (
        (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 7, 0),
        (1, 1, 0, 2), (0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 7, 9),
    )


def test_linear_lift_identity_on_spike():
    w = parse_weight("t1+t2+t3", 3)
    lifted = linear_lift(SPIKE, w)
    direct = weighted_ehrhart_polynomial(SPIKE, w)
    assert ehrhart_polynomial(lifted) - ehrhart_polynomial(SPIKE) == direct
    assert direct == UniPoly([0, F(29, 4), F(157, 8), F(67, 4), F(35, 8)])
    assert gf_of_polynomial(direct) == RationalGF(UniPoly([0, 48, 57]), 5)
    assert gf_of_polynomial(ehrhart_polynomial(lifted)) \
        == RationalGF(UniPoly([1, 53, 51]), 5)
    assert gf_of_polynomial(ehrhart_polynomial(SPIKE)) \
        == RationalGF(UniPoly([1, 6]), 4)


def test_linear_lift_degenerate_height_zero():
    origin = LatticePolytope([(0, 0)])
    lifted = linear_lift(origin, parse_weight("t1", 2))
    assert lifted.vertices == ((0, 0, 0),)
    assert ehrhart_polynomial(lifted) - ehrhart_polynomial(origin) \
        == weighted_ehrhart_polynomial(origin, parse_weight("t1", 2))


def test_linear_lift_validation():
    with pytest.raises(ValueError):
        linear_lift(SEG2, parse_weight("t1+1", 2))
    with pytest.raises(ValueError):
        linear_lift(SEG2, parse_weight("t1^2", 2))
    with pytest.raises(ValueError):
        linear_lift(SEG2, parse_weight("0", 2))
    with pytest.raises(ValueError):
        linear_lift(SEG2, parse_weight("1/2*t1", 2))
    with pytest.raises(ValueError):
        linear_lift(SEG2, parse_weight("-t1", 2))
    shifted = LatticePolytope([(-1, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        linear_lift(shifted, parse_weight("t1", 2))


def test_affine_lift_fixtures():
    assert weighted_by_affine_lift(SEG2, (1, 1), -1) == UniPoly([-1, 0, 4])
    assert weighted_by_affine_lift(SEG2, (1, 1), 0) == UniPoly([0, 2, 4])
    q1 = affine_lift_polytope(SEG2, (1, 1))
    assert weighted_by_affine_lift(SEG2, (1, 1), 1) == ehrhart_polynomial(q1)


def test_affine_lift_matches_interpolation():
    w = parse_weight("t1 + t2 - 1", 2)
    assert weighted_by_affine_lift(SEG2, (1, 1), -1) \
        == weighted_ehrhart_polynomial(SEG2, w)
    half = weighted_by_affine_lift(SEG2, (2, 1), F(1, 2))
    direct = weighted_ehrhart_polynomial(SEG2, parse_weight("2*t1 + t2 + 1/2", 2))
    assert half == direct


@st.composite
def nonnegative_images(draw):
    """Nonnegative images of small points of Z^d, d <= 3, under an integer
    linear map into Z^s (s <= 4), so of dimension 0-3; lower-dimensional
    ones may have lattice index > 1 in the lattice of their hull."""
    s = draw(st.integers(1, 4))
    d = draw(st.integers(0, min(s, 3)))
    A = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(s)]
    source = st.tuples(*[st.integers(0, 1)] * d)
    ys = draw(st.lists(source, min_size=1, max_size=d + 2, unique=True))
    points = [tuple(sum(a * x for a, x in zip(row, y)) for row in A) for y in ys]
    lows = [min(col) for col in zip(*points)]
    return [tuple(x - low for x, low in zip(p, lows)) for p in points]


@settings(max_examples=200, deadline=None)
@given(nonnegative_images(), st.data())
@example([(1, 2, 2), (2, 0, 2), (2, 2, 0), (0, 3, 3)], None)  # index 2 in its hull lattice
def test_affine_lift_matches_interpolation_on_images(points, data):
    P = LatticePolytope(points)
    s = P.ambient_dim
    if data is None:
        row, offset = (1, 0, 2), F(-1, 2)
    else:
        row = data.draw(st.lists(st.integers(0, 2), min_size=s, max_size=s).filter(any))
        offset = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    units = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    w = WeightPoly(s, {**dict(zip(units, row)), (0,) * s: offset})
    assert weighted_by_affine_lift(P, row, offset) == weighted_ehrhart_polynomial(P, w)


@settings(max_examples=100, deadline=None)
@given(nonnegative_images(), st.data())
@example([(1, 2, 2), (2, 0, 2), (2, 2, 0), (0, 3, 3)], None)
def test_affine_lift_matches_interpolation_on_translates(points, data):
    # the route lifts T - min, so a translate far from the origin lifts as
    # short as the image itself
    s = len(points[0])
    if data is None:
        shift, row, offset = (10**30, 0, 3 * 10**30 + 7), (1, 0, 2), F(-1, 2)
    else:
        shift = data.draw(st.lists(st.integers(0, 3) | st.integers(0, 10**30),
                                   min_size=s, max_size=s))
        row = data.draw(st.lists(st.integers(0, 2), min_size=s, max_size=s).filter(any))
        offset = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    T = LatticePolytope([tuple(x + y for x, y in zip(p, shift)) for p in points])
    units = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    w = WeightPoly(s, {**dict(zip(units, row)), (0,) * s: offset})
    assert weighted_by_affine_lift(T, row, offset) == weighted_ehrhart_polynomial(T, w)


def _box(lo, hi):
    return LatticePolytope(sorted(set(product(*zip(lo, hi)))))


@st.composite
def cut_boxes(draw):
    """(lo, hi, j, c): a lattice box [lo, hi] in Z^1..Z^3 with sides 0..2
    and an integer value c of its coordinate j, possibly on its boundary."""
    s = draw(st.integers(1, 3))
    lo = [draw(st.integers(-2, 2)) for _ in range(s)]
    hi = [a + draw(st.integers(0, 2)) for a in lo]
    j = draw(st.integers(0, s - 1))
    return lo, hi, j, draw(st.integers(lo[j], hi[j]))


@settings(max_examples=100, deadline=None)
@given(cut_boxes(), st.integers(0, 2**32))
def test_inclusion_exclusion_across_a_cut(box, seed):
    # the cut x_j = c splits the box into two lattice boxes that share the
    # facet x_j = c: at every n the halves less the facet give the box
    lo, hi, j, c = box
    left = _box(lo, hi[:j] + [c] + hi[j + 1:])
    right = _box(lo[:j] + [c] + lo[j + 1:], hi)
    shared = _box(lo[:j] + [c] + lo[j + 1:], hi[:j] + [c] + hi[j + 1:])
    whole = _box(lo, hi)
    w = WeightPoly(len(lo), random_weight_terms(random.Random(seed), len(lo), 2, 3))
    for n in range(whole.dim + w.degree + 3):
        assert weighted_sum(left, w, n) + weighted_sum(right, w, n) \
            - weighted_sum(shared, w, n) == weighted_sum(whole, w, n), n
    assert weighted_ehrhart_polynomial(left, w) + weighted_ehrhart_polynomial(right, w) \
        - weighted_ehrhart_polynomial(shared, w) == weighted_ehrhart_polynomial(whole, w)


@settings(max_examples=300)
@given(small_affine_images(), st.data())
def test_closed_node_polynomial_meets_reciprocity_on_lower_dimensional_images(points, data):
    # the polynomial through closed nodes only, read at -n, against the
    # interior sums of the ambient walk, which shares no code with _walk
    P = LatticePolytope(points)
    if not 1 <= P.dim <= min(3, P.ambient_dim - 1):
        return
    s = P.ambient_dim
    # a monomial of degree <= 2 as the variables it multiplies
    exponents = st.lists(st.integers(0, s - 1), max_size=2).map(
        lambda ts: tuple(ts.count(j) for j in range(s)))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    terms = data.draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=3))
    w = WeightPoly(s, terms)
    poly = _interpolated(P, w, False)
    for n in range(1, 4):
        interior = sum(term_value(w, tuple(-x for x in p)) for p in ambient_walk(P, n, True))
        assert poly(-n) == (-1) ** P.dim * interior, n


def test_bigint_translation_shifts_walks_polynomials_and_lift():
    # a triangle in a plane of Z^3 whose hull lattice has index 2 over
    # its image lattice, and its translate by entries near 10^30; the
    # lift's height t2 ignores the translation, so the lift of the
    # translate is the lift translated by (t, 0)
    points = [(1, 2, 2), (2, 0, 2), (2, 2, 0), (0, 3, 3)]
    t = (10**30, 0, 3 * 10**30 + 7)
    P = LatticePolytope(points)
    T = LatticePolytope([tuple(x + y for x, y in zip(p, t)) for p in points])
    lift_P, lift_T = affine_lift_polytope(P, (0, 1, 0)), affine_lift_polytope(T, (0, 1, 0))

    def shifted(points, n, by):
        return sorted(tuple(x + n * y for x, y in zip(p, by)) for p in points)

    for n in range(4):
        assert sorted(lattice_points(T, n)) == shifted(lattice_points(P, n), n, t)
        assert sorted(lattice_points(lift_T, n)) == shifted(lattice_points(lift_P, n), n, t + (0,))
    for n in range(1, 4):
        assert sorted(interior_lattice_points(T, n)) \
            == shifted(interior_lattice_points(P, n), n, t)
    one, t1 = parse_weight("1", 3), parse_weight("t1", 3)
    assert weighted_ehrhart_polynomial(T, one) == ehrhart_polynomial(P)
    assert weighted_ehrhart_polynomial(T, t1) \
        == weighted_ehrhart_polynomial(P, t1) + UniPoly([0, t[0]]) * ehrhart_polynomial(P)
    assert ehrhart_polynomial(lift_T) == ehrhart_polynomial(lift_P)
    assert weighted_by_affine_lift(T, (0, 1, 0), F(1, 3)) \
        == weighted_by_affine_lift(P, (0, 1, 0), F(1, 3)) \
        == weighted_ehrhart_polynomial(T, parse_weight("t2 + 1/3", 3))
    # with height t1 the lift of the translate is about 10^30 tall and its
    # first walk passes the cap; the lift route counts the lift of T - min
    with pytest.raises(EnumerationLimitError, match="closed dilation n=1 counted"):
        ehrhart_polynomial(affine_lift_polytope(T, (1, 0, 0)))
    assert weighted_by_affine_lift(T, (1, 0, 0), 0) == weighted_ehrhart_polynomial(T, t1)


def test_duplicate_and_interior_points_in_the_vertex_list():
    # a square in a plane of Z^3, listed with an interior point first,
    # repeated vertices and a point of an edge
    square = [(0, 0, 1), (2, 0, 3), (0, 2, 3), (2, 2, 5)]
    padded = [(1, 1, 3), (2, 2, 5), (0, 0, 1), (1, 0, 2), (0, 0, 1), (2, 0, 3), (0, 2, 3),
              (2, 2, 5)]
    P, Q = LatticePolytope(square), LatticePolytope(padded)
    for n in range(4):
        assert sorted(lattice_points(Q, n)) == sorted(lattice_points(P, n))
    for text in ("1", "t1", "t1*t3 + 2*t2 - 1/3"):
        w = parse_weight(text, 3)
        assert weighted_ehrhart_polynomial(Q, w) == weighted_ehrhart_polynomial(P, w)
    lift_P, lift_Q = affine_lift_polytope(P, (1, 2, 0)), affine_lift_polytope(Q, (1, 2, 0))
    assert sorted(lattice_points(lift_Q, 2)) == sorted(lattice_points(lift_P, 2))
    assert ehrhart_polynomial(lift_Q) == ehrhart_polynomial(lift_P)


def test_affine_lift_validation():
    with pytest.raises(TypeError):
        weighted_by_affine_lift(SEG2, (1.0, 1), 0)
    with pytest.raises(TypeError):
        weighted_by_affine_lift(SEG2, (1, 1), 0.25)
    with pytest.raises(ValueError):
        weighted_by_affine_lift(SEG2, (0, 0), 1)
    with pytest.raises(ValueError):
        weighted_by_affine_lift(SEG2, (1,), 0)
    with pytest.raises(ValueError):
        weighted_by_affine_lift(SEG2, (-1, 1), 0)


def test_affine_lift_names_the_bad_coefficient():
    message = r"^coefficient of t2 must be a nonnegative integer, got -1$"
    with pytest.raises(ValueError, match=message):
        affine_lift_polytope(SEG2, (1, -1))


def test_nonlinear_weight_breaks_the_lift_shortcut():
    # quadratic weight on [1,2]: the dilation of a quadratic-looking lift
    # cannot reproduce the cubic weighted count
    quad = LatticePolytope([(1, 0), (2, 0), (1, 1), (2, 4)])
    assert ehrhart_polynomial(quad) == UniPoly([1, F(7, 2), F(5, 2)])
    gap = ehrhart_polynomial(quad) - ehrhart_polynomial(INTERVAL12)
    assert gap == UniPoly([0, F(5, 2), F(5, 2)])
    direct = weighted_ehrhart_polynomial(INTERVAL12, parse_weight("t1^2", 1))
    assert gap.degree == 2 and direct.degree == 3
    assert gap != direct


# ---------------------------------------------------------------- degree prediction

def test_predicted_degree_fixtures():
    squares = Graph(7, [(1, 2), (1, 4), (2, 3), (3, 4), (5, 6), (5, 7), (6, 7)])
    assert predicted_degree(squares, parse_weight("t1*t2*t3*t4*t5*t6*t7", 7)) == 12
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert predicted_degree(k3, parse_weight("1", 3)) == 2
    lone = Graph(2, [(1, 2)])
    assert predicted_degree(lone, parse_weight("t1", 2)) == 1
    P = edge_polytope(lone)
    assert weighted_ehrhart_polynomial(P, parse_weight("t1", 2)) == UniPoly([0, 1])


def test_predicted_degree_validation():
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        predicted_degree(k3, parse_weight("t1+t2", 3))
    with pytest.raises(ValueError):
        predicted_degree(k3, parse_weight("t1", 2))
    with pytest.raises(ValueError):
        predicted_degree(Graph(3, [(1, 2)]), parse_weight("t1", 3))


# ---------------------------------------------------------------- integrals

def test_integral_fixtures():
    assert integral_leading(TRIANGLE, parse_weight("2*t1+3*t2", 2)) == F(5, 3)
    assert integral_leading(TRIANGLE, parse_weight("t1^2+t2^2", 2)) == F(1, 2)
    assert integral_leading(SQUARE, parse_weight("1", 2)) == 1


def test_integral_validation():
    with pytest.raises(ValueError):
        integral_leading(SEG2, parse_weight("t1", 2))
    with pytest.raises(ValueError):
        integral_leading(SQUARE, parse_weight("t1+1", 2))
    with pytest.raises(ValueError):
        integral_leading(SQUARE, parse_weight("0", 2))


def test_integral_warns_on_cancelling_weight():
    with pytest.warns(RuntimeWarning, match="integrates to zero"):
        value = integral_leading(SQUARE, parse_weight("t1-t2", 2), spot_check=False)
    assert value == 0


def test_integral_spot_check_warns_on_negative_weight():
    with pytest.warns(RuntimeWarning) as caught:
        integral_leading(SQUARE, parse_weight("t1-t2", 2))
    negative = [w for w in caught if "negative at" in str(w.message)]
    # the warning points at the caller's line, not into the package
    assert negative and all(w.filename == __file__ for w in negative)


# ---------------------------------------------------------------- reciprocity

def test_reciprocity_unweighted_square():
    report = reciprocity_check(SQUARE, parse_weight("1", 2), n_max=4)
    assert report.sign == 1
    assert [e.interior_sum for e in report.entries] == [0, 1, 4, 9]
    assert [e.signed_value for e in report.entries] == [0, 1, 4, 9]
    assert report.all_equal


def test_reciprocity_fixtures():
    assert reciprocity_check(TRIANGLE, parse_weight("t1", 2), n_max=4).all_equal
    report = reciprocity_check(SQUARE, parse_weight("t1*t2", 2), n_max=4)
    assert report.sign == 1
    assert report.all_equal


def test_reciprocity_sign_convention():
    report = reciprocity_check(TRIANGLE, parse_weight("t1", 2), n_max=2)
    assert report.sign == (-1) ** (2 + 1)


def test_reciprocity_validation_and_warning():
    with pytest.raises(ValueError):
        reciprocity_check(SEG2, parse_weight("t1", 2), n_max=2)
    with pytest.raises(ValueError):
        reciprocity_check(SQUARE, parse_weight("t1", 2), n_max=0)
    with pytest.raises(ValueError):
        reciprocity_check(SQUARE, parse_weight("t1+1", 2), n_max=2)
    with pytest.warns(RuntimeWarning, match="negative at") as caught:
        report = reciprocity_check(SQUARE, parse_weight("-t1", 2), n_max=3)
    assert report.all_equal and [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------- root vanishing

def test_vanishing_fixtures():
    report = check_negative_root_vanishing(SQUARE, parse_weight("t1*t2", 2))
    assert report.roots == (-1,)
    assert report.entries[0].value == 0
    assert report.all_vanish
    staircase = check_negative_root_vanishing(TRIANGLE, parse_weight("t1", 2))
    assert staircase.roots == (-2, -1)
    assert staircase.all_vanish


def test_vanishing_empty_report():
    wide = LatticePolytope([(0,), (2,)])
    report = check_negative_root_vanishing(wide, parse_weight("t1", 1))
    assert report.roots == ()
    assert report.all_vanish


def test_vanishing_validation():
    with pytest.raises(ValueError):
        check_negative_root_vanishing(SEG2, parse_weight("t1", 2))
    with pytest.raises(ValueError):
        check_negative_root_vanishing(SQUARE, parse_weight("t1+1", 2))
    with pytest.warns(RuntimeWarning, match="negative at") as caught:
        check_negative_root_vanishing(SQUARE, parse_weight("-t1", 2))
    assert [w.filename for w in caught] == [__file__]


def test_weighted_polynomial_cache_is_consistent():
    # repeated queries for one pair return the identical object
    w = parse_weight("t1*t2", 2)
    first = weighted_ehrhart_polynomial(SQUARE, w)
    second = weighted_ehrhart_polynomial(SQUARE, parse_weight("t1*t2", 2))
    assert first is second


def test_weighted_polynomial_cache_is_bounded():
    bound = weighted_ehrhart_polynomial.cache_info().maxsize
    assert bound is not None
    for k in range(bound + 44):
        assert ehrhart_polynomial(LatticePolytope([(0,), (k + 1,)])) == UniPoly([1, k + 1])
    assert weighted_ehrhart_polynomial.cache_info().currsize <= bound


def test_random_weighted_polynomials_interpolate_sums():
    rng = random.Random(140)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for case in range(25):
            s = rng.randint(1, 2)
            verts = random_vertices(rng, s, rng.randint(1, 4), -3, 3)
            P = LatticePolytope(verts)
            w = WeightPoly(s, random_weight_terms(rng, s, 3, rng.randint(1, 2)))
            poly = weighted_ehrhart_polynomial(P, w)
            for n in range(0, 3):
                assert poly(n) == weighted_sum(P, w, n)
