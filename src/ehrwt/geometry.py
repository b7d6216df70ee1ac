"""Exact polyhedral geometry over the integer lattice.

Polytopes are given by integer vertex lists, and the H-representation
is recovered without fractions. One fraction-free elimination step
(Bareiss) does all of its linear algebra, and a row with 0 in the pivot
column is only rescaled. A forward elimination, which clears only the
rows below each pivot, gives an affine rank as its pivot count and the
affine hull as the integer kernel of its echelon form, by back
substitution; the hull equations' pivots fix the coordinates left free.
The facets are _double_description's rows in those free coordinates,
lifted. An integer invariant check, one pass over the vertices per row
with the tight sets taken afresh from them, raises ConsistencyError
unless each final row is a distinct facet; a missing facet goes
unnoticed.

The lattice points of a dilation come from one walk in a lattice basis
of the affine hull: with v0 a vertex and the columns of B a reduced
basis of the lattice (aff(P) - v0) & Z^s, nP's lattice points are
n*v0 + B y over the lattice points y of nQ, Q = {y : v0 + B y in P}.
B comes from one integral LLL on the unit columns with the hull
equations stacked on top, weighted by an N that LLL's bound on the
reduced lengths (Prop. 1.12) makes larger than any short kernel
vector, so the first d columns are a reduced kernel basis. A second
LLL on the coordinate rows of P's vertices, centered, changes the basis
so that Q is narrow in every coordinate, and Q is walked in index order.
Q is full-dimensional, so the hull equations never reach the walk. One
loop walks Q depth first on an explicit stack of lazy cursors, fixing the
coordinates one by one with exact interval propagation. A slab of the
last two coordinates, x and y, is one block, a base and an interval for
each, when no facet row bounds both; otherwise each x gives one block, a
fiber: its base and y's interval. The cells of the coordinate above the
slab, or of x, run in one tight loop, the slab kernel on a slab: each
cell cuts x's rows and y's, and the blocks' bases are built at C speed.
One rule, _interval, cuts a range by its rows at every depth and every
cell. Sums, counts and images are taken per block and no point list is
kept; what a walk needs beyond n, its rows per depth, is planned once
per polytope, with its frame. One kernel sums a weight over every
block, fiber or slab, from a plan that each side of a polynomial
builds once per walk axes: a term with at most
two factors moving along each of x and y is a product of two closed
forms, each from the block's count and sums of t and t^2 along its axis;
the other terms run column by column through the same kernel, and there
in C-level loops over ranges. Completed walks of up to WALK_STORE_BLOCKS
blocks in all are kept, the first stored the first out, keyed by P's
vertices, n, strict and the enumeration cap, so a dilation an equal
polytope walked before under the same cap is not walked again.

Membership reads the same cached rows: an int point at an int dilation is
taken as it is, any other has its denominators cleared once, and then it is
one integer dot product per hull equation and facet row.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from itertools import chain, islice, repeat
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import ConsistencyError, EnumerationLimitError
from .polynomials import _check_int, _check_length, _cleared, _exact, _is_int, _is_int_token

__all__ = [
    "LatticePolytope",
    "Graph",
    "dimension",
    "facets",
    "lattice_points",
    "interior_lattice_points",
    "contains",
    "edge_polytope",
    "bipartite_components",
    "require_nonnegative_vertices",
]

DEFAULT_ENUMERATION_CAP = 10**8
# most rows the facets' double description may hold after a point: a
# point costs up to cubic time in the rows: points on the moment curve of
# R^3 reach this cap after 103 points in 0.15 s (CPython 3.11, a shared
# Xeon server), where the hull workloads peak at 14
HULL_ROWS = 200
# most units the walk store holds, a unit being one stored block or one
# entry's own key, value and links: on 64-bit CPython 3.11 a block of nP in
# Z^s takes 128 + 8s bytes, plus 28 for each of its s + 4 integers outside
# -5..256 and under 2^30, and an entry under 320, so the store holds under
# 180 KiB for s <= 3 and 250 KiB for s = 7; a few hundred units already take
# most repeats, as one polytope's nodes, probes and checks walk the same
# small dilations
WALK_STORE_BLOCKS = 512


class LatticePolytope:
    """Convex hull of a finite integer point list.

    The point list is stored exactly as given (duplicates and interior
    points are tolerated); the exact H-representation, affine hull
    equations plus essential facet inequalities with integer rows, is
    computed on first use and cached. Hashable on the point list.
    """

    __slots__ = ("_vertices", "_hull", "_facets", "_frame")

    def __init__(self, vertices: Iterable[Sequence[int]]):
        rows = [tuple(v) for v in vertices]
        for c in chain.from_iterable(rows):
            if not _is_int(c):
                raise ValueError(f"vertex coordinate {c!r} is not an integer")
        if not rows:
            raise ValueError("a polytope needs at least one vertex")
        s = len(rows[0])
        if s < 1:
            raise ValueError("ambient dimension must be at least 1")
        if any(len(r) != s for r in rows):
            raise ValueError("all vertices must have the same length")
        self._vertices = tuple(rows)
        self._hull = None
        self._facets = None
        self._frame = None

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return self._vertices

    @property
    def ambient_dim(self) -> int:
        return len(self._vertices[0])

    @property
    def affine_hull(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Equations a.x = b (integer, primitive) cutting out the hull."""
        if self._hull is None:
            self._hull = _affine_hull(self._vertices)
        return self._hull

    @property
    def dim(self) -> int:
        """Affine dimension of the hull."""
        return self.ambient_dim - len(self.affine_hull)

    @property
    def facet_inequalities(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Essential inequalities a.x <= b (integer rows) on the hull."""
        if self._facets is None:
            self._facets = _facet_inequalities(self)
        return self._facets

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(("LatticePolytope", self._vertices))

    def __repr__(self) -> str:
        return f"LatticePolytope({list(self._vertices)!r})"


class Graph:
    """Finite simple undirected graph on vertices 1..vertex_count."""

    __slots__ = ("_n", "_edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        _check_int(vertex_count, 1, "vertex_count must be a positive integer")
        seen = set()
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):  # not a pair: refused as one below
                i = j = None
            if not _is_int(i) or not _is_int(j):
                raise ValueError(f"edge {e!r} must be a pair of integers")
            if not (1 <= i <= vertex_count and 1 <= j <= vertex_count):
                raise ValueError(f"edge {e!r} leaves the vertex range 1..{vertex_count}")
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            seen.add((min(i, j), max(i, j)))
        self._n = vertex_count
        self._edges = tuple(sorted(seen))

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash(("Graph", self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph({self._n}, {list(self._edges)!r})"


def _pivot(mat, r, col, prev, forward=False):
    """One fraction-free step on row r and column col; returns the new pivot.

    Every other row (every row below r if forward) loses its entry in col
    by (p*a - f*b) // prev, where p is the pivot and prev the one before it
    (1 at the start). Bareiss's update keeps each entry an integer minor of
    the input, so each division is exact; a row with f = 0 is only rescaled
    by p*a // prev, and left alone when p == prev; row r stays as it is.
    """
    top = mat[r]
    p = top[col]
    for i in range(r + 1 if forward else 0, len(mat)):
        row = mat[i]
        f = row[col]
        if f:
            if i != r:
                mat[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        elif p != prev:
            mat[i] = [p * a // prev for a in row]
    return p


def _echelon(rows, forward=False):
    """Fraction-free Gauss-Jordan elimination; returns (nonzero rows, pivot columns).

    Every returned row holds the last pivot on its own pivot column and
    0 on the other pivot columns: divided by that pivot, the rows are
    the reduced row echelon form. If forward, each step clears only the
    rows below its pivot: the pivot columns are the same, and the rows an
    echelon form that is not reduced.
    """
    mat = [list(r) for r in rows]
    pivots = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        for i in range(r, len(mat)):
            if mat[i][col]:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        prev = _pivot(mat, r, col, prev, forward)
        pivots.append(col)
        if r + 1 == len(mat):
            break
    return mat[: len(pivots)], pivots


def _primitive_ineq(row, rhs):
    """Primitive form of the integer row a.x <= b (or a.x = b): both divided by
    their positive gcd; a zero row raises ConsistencyError.
    """
    g = math.gcd(*row)
    if g == 0:
        raise ConsistencyError(f"derived the trivial row 0 <= {rhs}; this is a bug")
    g = math.gcd(g, rhs)
    return tuple(v // g for v in row), rhs // g


def _affine_hull(vertices):
    """Primitive integer equations of the affine hull: the integer kernel of
    the vertex differences' forward echelon form, empty at full rank.

    Each column f that is not a pivot gives one normal x, x_f = 1 and 0 on
    the other such columns, its pivot entries solved row by row from the
    last, x scaled to stay integral; it is made primitive with its first
    nonzero entry positive.
    """
    base = vertices[0]
    rows, pivots = _echelon([list(map(sub, v, base)) for v in vertices[1:]], True)
    eqs = []
    for f in range(len(base)):
        if f in pivots:
            continue
        x = [int(j == f) for j in range(len(base))]
        for row, p in zip(reversed(rows), reversed(pivots)):
            t = sum(map(mul, row, x))
            g = math.gcd(t, row[p])
            x = [v * (row[p] // g) for v in x]
            x[p] = -t // g
        a, b = _primitive_ineq(x, sum(map(mul, x, base)))
        sign = 1 if next(filter(None, a)) > 0 else -1
        eqs.append((tuple(sign * v for v in a), sign * b))
    return tuple(sorted(eqs))


def _affine_rank(points) -> int:
    """Affine dimension of an integer point list, the pivot count of a forward
    elimination of its differences; -1 when the list is empty."""
    if not points:
        return -1
    base = points[0]
    return len(_echelon([map(sub, p, base) for p in points[1:]], True)[1])


def _check_facets(P, rows):
    """Raise ConsistencyError unless each row is a distinct facet of P.

    One pass over the vertices per row raises on a vertex that breaks it
    and collects the vertices tight at it, whose affine rank must be
    dim(P) - 1; no normal may occur twice. The tight sets are taken from
    the vertices, not from the double description's masks; a facet of P
    with no row is not detected.
    """
    vertices, rank, normals = P.vertices, P.dim - 1, set()
    for row, rhs in rows:
        tight = []
        for v in vertices:
            value = sum(map(mul, row, v))
            if value > rhs:
                raise ConsistencyError(f"facet row {row} <= {rhs} is violated by vertex {v}")
            if value == rhs:
                tight.append(v)
        if _affine_rank(tight) != rank:
            raise ConsistencyError(
                f"row {row} <= {rhs} is not a facet: its tight vertices {tight} "
                f"do not span dimension {rank}"
            )
        if row in normals:
            raise ConsistencyError(f"facet normal {row} occurs in more than one row")
        normals.add(row)


def _double_description(points):
    """Primitive facet rows (a, b, tight) of the hull of distinct integer points
    spanning R^d, by an incremental double description.

    The starting simplex and its facet normals come from one Gauss-Jordan
    elimination of [D | I], D the differences from the first point. Each
    point outside the current hull replaces the rows it violates by positive
    combinations with the rows it satisfies strictly, for pairs with no third
    row tight wherever both are (Fukuda and Prodon's combinatorial test, valid
    as the rows are exactly the facets of the hull so far). A row's tight set
    is a bitmask, bit i for points[i]: a new row takes its parents' common one
    plus the new point, so none is recomputed. A point inside the hull when
    tried gets no bit; a vertex gets the bit of every row tight at it. More
    than HULL_ROWS rows after a point raise EnumerationLimitError.
    """
    d = len(points[0])
    # start from the first point and the p_i whose differences from it are pivot
    # columns of [D | I], D's columns all the differences: the appended block is then
    # the last pivot times D_c^-1, so its row i is normal to the facet opposite p_i
    # and minus the rows' sum to the one opposite base, each signed to have its apex
    # inside; apex i is points[apexes[i]], and seen holds the bits of the points added
    base = points[0]
    ech, cols = _echelon([[q[j] - base[j] for q in points[1:]] + [int(i == j) for i in range(d)]
                          for j in range(d)])
    sign = -1 if ech[0][cols[0]] > 0 else 1
    normals = [[sign * c for c in row[-d:]] for row in ech]
    normals.append([-sum(col) for col in zip(*normals)])
    apexes = [c + 1 for c in cols] + [0]
    seen = sum(1 << i for i in apexes)
    # apex i - 1 is on every facet but the one opposite apex i
    rows = [(*_primitive_ineq(a, sum(map(mul, a, points[apexes[i - 1]]))), seen ^ (1 << apexes[i]))
            for i, a in enumerate(normals)]

    # every row holds at the simplex's points, so only the others are tried
    for k, q in enumerate(points):
        if seen >> k & 1:
            continue
        slack = [sum(map(mul, a, q)) - b for a, b, _ in rows]
        if max(slack) <= 0:
            continue
        bit = 1 << k
        seen |= bit
        masks = [t for _, _, t in rows]
        kept = [(a, b, t | bit if u == 0 else t) for (a, b, t), u in zip(rows, slack) if u <= 0]
        for (a, b, tu), u in zip(rows, slack):
            if u <= 0:
                continue
            for (a2, b2, tw), w in zip(rows, slack):
                # the two rows meet in a ridge iff no third row is tight wherever both
                # are, and a ridge holds at least d - 1 points
                common = tu & tw
                if w < 0 and common.bit_count() >= d - 1 and sum(
                        common & t == common for t in masks) == 2:
                    row = [-w * x + u * y for x, y in zip(a, a2)]
                    kept.append((*_primitive_ineq(row, -w * b + u * b2), common | bit))
        rows = kept
        if len(rows) > HULL_ROWS:
            raise EnumerationLimitError(
                f"facet computation of {len(points)} points in dimension {d} reached "
                f"{len(rows)} double-description rows after {seen.bit_count()} points, over "
                f"the cap of {HULL_ROWS}"
            )
    return rows


def _facet_inequalities(P):
    """Facet rows of P: _double_description's rows in the coordinates the hull
    leaves free, lifted with zeros on the others, sorted and checked.

    P projects one-to-one onto the columns that are not pivots of the hull
    equations' echelon form, and a row that is zero on those pivot columns is
    the canonical representative of its class modulo the equations.
    """
    if P.dim == 0:
        return ()
    _, pivots = _echelon([a for a, _ in P.affine_hull], True)
    free = [j for j in range(P.ambient_dim) if j not in pivots]
    points = list(dict.fromkeys(tuple(v[j] for j in free) for v in P.vertices))
    lifted = []
    for a, b, _ in _double_description(points):
        row = [0] * P.ambient_dim
        for j, c in zip(free, a):
            row[j] = c
        lifted.append((tuple(row), b))
    lifted.sort()
    _check_facets(P, lifted)
    return tuple(lifted)


def _enumeration_cap() -> int:
    raw = os.environ.get("EHRWT_MAX_POINTS")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    if not _is_int_token(raw):
        raise ValueError(f"EHRWT_MAX_POINTS must be an integer, got {raw!r}")
    cap = int(raw)
    if cap <= 0:
        raise ValueError("EHRWT_MAX_POINTS must be positive")
    return cap


def _lll(b, inv):
    """LLL-reduce (delta 3/4) the basis vectors b in place, all in integers.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7; Lenstra, Lenstra and Lovasz, Math. Ann. 261,
    1982): d[i] is the Gram determinant of b[:i] and lam[k][j] the
    Gram-Schmidt coefficient of b[k] on b[j] times d[j + 1]. Each step
    changes inv inversely to the b, keeping sum_i inv[i] b[i]^T: inv
    holds the rows of U^-1 when the b are the columns of [N*A ; U], and
    B's columns when the b are Q's coordinate rows.
    """
    n = len(b)
    d, lam = [1] * (n + 1), [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            inv[l] = [x + q * y for x, y in zip(inv[l], inv[k])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * m * m:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        # swap b[k-1] and b[k]; only d[k] and the coefficients on them move
        b[k - 1], b[k] = b[k], b[k - 1]
        inv[k - 1], inv[k] = inv[k], inv[k - 1]
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        new = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(1, k - 1)


def _reduced_kernel(eqs, s):
    """(columns of U, U^-1) for a unimodular U whose first s - r columns are
    a reduced basis of ker A & Z^s, A the r independent integer rows eqs.

    U's columns are the lower parts of the columns [N*A e_j ; e_j] after
    one integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Sec. 2.7), N = 1 + 2^(s-1) (r+1) prod |a_i|^2. A's s - r
    Cramer kernel vectors are independent with squared norms at most
    (r+1) prod |a_i|^2 (Hadamard), so the first s - r reduced columns
    have squared norm below N (Lenstra, Lenstra and Lovasz, Math. Ann.
    261, 1982, Prop. 1.12), where A x != 0 costs N^2: their A-parts are
    0, they span ker A & Z^s, and they are reduced in the plain norm. The
    rows of U^-1 past the first s - r map Z^s onto Z^r with kernel ker A.
    """
    r = len(eqs)
    N = 1 + 2 ** (s - 1) * (r + 1) * math.prod(sum(c * c for c in a) for a in eqs)
    # each column stacks N*A's column over U's; inv is U^-1, updated row-wise
    cols = [[N * a[j] for a in eqs] + [int(i == j) for i in range(s)] for j in range(s)]
    inv = [[int(i == j) for j in range(s)] for i in range(s)]
    _lll(cols, inv)
    if any(any(c[:r]) for c in cols[:s - r]):
        raise ConsistencyError(f"the reduced basis leaves the kernel of the rows {list(eqs)}")
    return [tuple(c[r:]) for c in cols], inv


def _lattice_coordinates(P):
    """Q = {y in Z^d : v0 + B y in P} for v0 = P's first vertex.

    B starts as _reduced_kernel's basis of ker A & Z^s, A the hull
    equations. A second LLL on Q's coordinate rows over P's m vertices,
    centered as m*y_i(v) - sum_v y_i(v), applies a unimodular R that
    takes y to R y and B to B R^-1, so Q is narrow in each coordinate;
    uncentered rows would leave the parallelogram (0,0), (1,0), (N,N),
    (N+1,N) a coordinate 1.5N wide, not N. Returns (v0, B's columns, Q's
    facet rows (a.B, b - a.v0), Q's box as (lo, hi)).
    """
    s, v0, d, m = P.ambient_dim, P.vertices[0], P.dim, len(P.vertices)
    cols, inv = _reduced_kernel([a for a, _ in P.affine_hull], s)
    basis, centered = cols[:d], []
    for row in inv[:d]:
        y = [sum(c * (x - o) for c, x, o in zip(row, v, v0)) for v in P.vertices]
        total = sum(y)
        centered.append([m * c - total for c in y])
    _lll(centered, basis)
    basis = [tuple(col) for col in basis]
    # y(v0) = 0, so a centered row's first entry is minus its coordinate's sum
    ys = [[(c - row[0]) // m for c in row] for row in centered]
    rows = [(tuple(sum(map(mul, a, col)) for col in basis), b - sum(map(mul, a, v0)))
            for a, b in P.facet_inequalities]
    return v0, basis, rows, (list(map(min, ys)), list(map(max, ys)))


def _frame(coords):
    """The walk's data for Q, its coordinates walked in index order, col and plan.

    Each row carries, per depth k, the least value coordinates k..d-1 can
    add to it over Q's box, so a prefix whose best completion already
    breaks the row is cut at once. Q is rectangular when no row bounds both
    of its last two coordinates; col is then B's second-to-last column, else 0.
    The plan lists, per depth, the rows (i, r, s, c) that cut it, r the rhs less
    the tail past the depth and s the step along the tight depth."""
    v0, basis, rows, (lo, hi) = coords
    framed = []
    for c, beta in rows:
        tail = [0] * (len(c) + 1)
        for k in range(len(c) - 1, -1, -1):
            tail[k] = tail[k + 1] + min(c[k] * lo[k], c[k] * hi[k])
        framed.append((c, beta, tail))
    last = len(basis) - 1
    rectangular = last > 0 and not any(c[-1] and c[-2] for c, _ in rows)
    # the tight loop runs over the cells of depth tight; at d = 1, and at d = 2
    # on a slab, tight is -1 and its one cell t = 0 moves nothing
    tight = last - 1 - rectangular
    steps = [[c[k] for c, _ in rows] for k in range(last + 1)]
    bounds = [[(i, beta - tail[k + 1], steps[tight][i], c[k])
               for i, (c, beta, tail) in enumerate(framed) if c[k]] for k in range(last + 1)]
    col = basis[-2] if rectangular else (0,) * len(v0)
    return v0, basis, framed, lo, hi, col, (bounds, steps, tight)


def _interval(low, high, rows, sums, t=0):
    """low..high cut to the values y with c*y <= rhs - sums[i] - t*s for the rows
    (i, rhs, s, c), t the cell of the slab kernel's loop, 0 off it."""
    for i, rhs, s, c in rows:
        if c > 0:
            bound = (rhs - sums[i] - t * s) // c
            if bound < high:
                high = bound
        else:
            bound = -((rhs - sums[i] - t * s) // -c)
            if bound > low:
                low = bound
    return low, high


def _fibers(frame, n, strict, cap):
    """Stream the lattice points of nQ (of its interior if strict) as blocks.

    A block (base, xl, xh, yl, yh) stands for the points n*v0 + B y =
    base + x * col + y * e, xl <= x <= xh and yl <= y <= yh, e B's last
    column and col the frame's, base a tuple; the frame's plan is scaled to
    nQ. One depth-first loop keeps one (depth, ambient base, row sums,
    cursor) entry per open depth, so the stack never outgrows d entries.
    The cells t of the last depth it opens run in one tight loop, one block
    per t: if Q is rectangular, t is the coordinate above x and each t one
    slab, the slab kernel; otherwise t is x and each t one fiber (base at
    x, 0, 0, yl, yh). A cell is one value a coordinate can take after
    interval propagation; the generator returns the number of cells it
    visited and raises EnumerationLimitError once that passes cap, at the
    count where a walk fiber by fiber would.
    """
    v0, cols, rows, lo, hi, col, (plan, steps, tight) = frame
    last, rectangular = len(cols) - 1, any(col)
    lo, hi = [n * v for v in lo], [n * v for v in hi]
    # each depth's rows of the plan scaled to nQ ("< rhs" is "<= rhs - 1" in integers)
    bounds = [[(i, n * r - strict, s, c) for i, r, s, c in depth] for depth in plan]
    visited = 0

    def over(count):
        return EnumerationLimitError(
            f"lattice-point enumeration of the {'interior' if strict else 'closed'} "
            f"dilation n={n} counted {count} candidate cells, over EHRWT_MAX_POINTS={cap}; "
            f"raise the cap to allow larger jobs")

    # the root is the one child of a seed at depth -1 whose cells hold only 0,
    # so the column it reads, cols[-1], never moves it; the tight depth's
    # entry holds the range of its cells, every other one a lazy cursor
    stack = [(-1, [n * v for v in v0], [0] * len(rows), range(1) if tight < 0 else iter((0,)))]
    while stack:
        k, base, sums, xs = stack[-1]
        if k == tight:  # off a slab x = 0, and it has no cells
            stack.pop()
            xl = xh = 0
            for t, block in zip(xs, _run(base, cols[k], xs.start, xs.stop - 1)):
                if rectangular:
                    xl, xh = _interval(lo[last - 1], hi[last - 1], bounds[last - 1], sums, t)
                    if xl > xh:
                        continue
                    visited += xh - xl + 1
                    if visited > cap:
                        raise over(visited)
                yl, yh = _interval(lo[last], hi[last], bounds[last], sums, t)
                width = yh - yl + 1
                if width > 0:
                    if visited + (xh - xl + 1) * width > cap:
                        raise over(visited + ((cap - visited) // width + 1) * width)
                    visited += (xh - xl + 1) * width
                    yield block, xl, xh, yl, yh
            continue
        x = next(xs, None)
        if x is None:
            stack.pop()
            continue
        base = [b + x * e for b, e in zip(base, cols[k])]
        sums = [p + x * c for p, c in zip(sums, steps[k])]
        k += 1
        low, high = _interval(lo[k], hi[k], bounds[k], sums)
        if low > high:
            continue
        visited += high - low + 1
        if visited > cap:
            raise over(visited)
        cells = range(low, high + 1)
        stack.append((k, base, sums, cells if k == tight else iter(cells)))
    return visited


class _WalkStore(OrderedDict):
    """Completed walks, (vertices, n, strict, cap) -> (col, e, blocks), first
    in first out: a read leaves the order alone. size counts their blocks
    plus one per entry, so empty walks count too, and stays at most
    WALK_STORE_BLOCKS. One lock keeps size and the entries in step when
    threads store walks at once.
    """

    size = 0
    lock = threading.Lock()

    def keep(self, key, entry):
        with self.lock:
            if key in self:
                self.size -= len(self.pop(key)[2]) + 1
            self[key] = entry
            self.size += len(entry[2]) + 1
            while self.size > WALK_STORE_BLOCKS:
                self.size -= len(self.popitem(last=False)[1][2]) + 1

    def clear(self):
        with self.lock:
            super().clear()
            self.size = 0


_walk_store = _WalkStore()


def _walk_fibers(P: LatticePolytope, n: int, strict: bool):
    """(col, e, blocks) of nP (of its relative interior if strict) as _fibers
    yields them, in the order of Q's walk; the cap counts the cells visited in Q.

    A dilation that P, or an equal polytope, walked to the end before under
    the same cap comes from the walk store; under another cap it is walked
    again, so a lowered cap raises as on a first walk. Otherwise the walk's
    first WALK_STORE_BLOCKS blocks are taken at once: a walk that ends short
    of them is stored, one that raises stores nothing, and one that reaches
    them streams the rest and is not stored.
    """
    cap = None if n == 0 and not strict else _enumeration_cap()  # read per call
    if cap is None or P.dim == 0:
        # 0P is the origin, answered without facets or the cap; a point is one block
        return (0,) * P.ambient_dim, (0,) * P.ambient_dim, iter([
            (tuple(n * c for c in P.vertices[0]), 0, 0, 0, 0)])
    key = (P.vertices, n, strict, cap)
    stored = _walk_store.get(key)
    if stored is not None:
        return stored[0], stored[1], iter(stored[2])
    if P._frame is None:
        P._frame = _frame(_lattice_coordinates(P))
    col, e, blocks = P._frame[5], P._frame[1][-1], _fibers(P._frame, n, strict, cap)
    head = tuple(islice(blocks, WALK_STORE_BLOCKS))
    if len(head) == WALK_STORE_BLOCKS:  # the budget is reached: stream the rest
        return col, e, chain(head, blocks)
    _walk_store.keep(key, (col, e, head))
    return col, e, iter(head)


def _run(base, step, low, high):
    """The tuples base + t * step, low <= t <= high, built at C speed."""
    return zip(*[range(b + low * a, b + (high + 1) * a, a) if a else repeat(b, high - low + 1)
                 for b, a in zip(base, step)])


def _columns(col, blocks):
    """The fibers (base + x * col, 0, 0, yl, yh), xl <= x <= xh, of the blocks."""
    return ((column, 0, 0, yl, yh)
            for base, xl, xh, yl, yh in blocks for column in _run(base, col, xl, xh))


def _points(col, e, blocks):
    """The points base + x * col + y * e of the blocks (base, xl, xh, yl, yh), x outer."""
    blocks = _columns(col, blocks) if any(col) else blocks
    return chain.from_iterable(_run(base, e, yl, yh) for base, _, _, yl, yh in blocks)


def _walk_images(P: LatticePolytope, n: int, image) -> int:
    """The number of distinct values of the linear map image over nP's lattice points."""
    col, e, blocks = _walk_fibers(P, n, False)
    # image is linear, so a block's images step along image(col) and image(e)
    return len(set(_points(image(col), image(e), (
        (image(b), xl, xh, yl, yh) for b, xl, xh, yl, yh in blocks))))


def _walk(P: LatticePolytope, n: int, strict: bool):
    """Iterate over the lattice points of nP (of its relative interior if strict)."""
    return _points(*_walk_fibers(P, n, strict))


def _sum_plan(terms, col, e):
    """_block_sum's plan for the terms c * prod(a_i^k), given as (exponents k,
    int c) pairs, on blocks along col and e: (col, e, flat, closed, ranged, the
    col = 0 plan of the terms that go column by column, or None). Each term's
    factors split into fixed ones and those moving along col alone or e alone,
    as indices into a base, the moving ones padded to two by index s, the 1
    after it; the others are ranged when col = 0."""
    one = len(e)
    flat, closed, ranged, others = [], [], [], []
    for x, c in terms:
        fixed, xs, ys, both = parts = [], [], [], []
        for i, k in enumerate(x):
            if k:
                parts[(col[i] != 0) + 2 * (e[i] != 0)].extend([i] * k)
        if both or len(xs) > 2 or len(ys) > 2:
            if any(col):
                others.append((x, c))
            else:
                ranged.append((c, fixed + ys))
        elif xs or ys:
            (i, j), (k, l) = xs + [one] * (2 - len(xs)), ys + [one] * (2 - len(ys))
            ai, aj = col[i] if xs else 0, col[j] if xs[1:] else 0
            ak, al = e[k] if ys else 0, e[l] if ys[1:] else 0
            closed.append((c, fixed, i, ai, j, aj, ai * aj, k, ak, l, al, ak * al))
        else:
            flat.append((c, fixed))
    return col, e, flat, closed, ranged, _sum_plan(others, (0,) * one, e) if others else None


class _SumPlans(dict):
    """The sum plans of one term list, keyed by (col, e), each built on first use."""
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


def _block_sum(plan, blocks):
    """(sum, blocks): the sum of the planned terms over the points a = base +
    x * col + y * e of the blocks (base, xl, xh, yl, yh), and the number of blocks.

    The plan is _sum_plan's, built once per term list and (col, e). A closed
    term sums over a block, fiber or slab, as c * prod(fixed) * X * Y. Along an
    axis t runs from low to high, and the factors b_i + t * a_i and b_j + t * a_j
    give count * b_i * b_j + (b_i * a_j + b_j * a_i) * S1 + a_i * a_j * S2, with
    S1 = sum t and S2 = sum t^2 = F(high) - F(low - 1), F(m) = m(m+1)(2m+1)/6 an
    integer for every integer m. A ranged term runs along C-level ranges, and
    the terms that go column by column sum each block's columns through this
    same function under their own plan.
    """
    col, e, flat, closed, ranged, columns = plan
    one, total, seen = len(e), 0, 0
    for base, xl, xh, yl, yh in blocks:
        seen += 1
        nx, ny = xh - xl + 1, yh - yl + 1
        for c, fixed in flat:
            total += c * math.prod(map(base.__getitem__, fixed)) * nx * ny
        if closed:
            b = (*base, 1)
            sx, sy = (xl + xh) * nx // 2, (yl + yh) * ny // 2
            # X is the count for a term with no factor moving along col, and
            # one column has S2 = xl^2, so a fiber's X takes next to no work
            qx = xl * xl if nx == 1 else (
                xh * (xh + 1) * (2 * xh + 1) - (xl - 1) * xl * (2 * xl - 1)) // 6
            qy = (yh * (yh + 1) * (2 * yh + 1) - (yl - 1) * yl * (2 * yl - 1)) // 6
            for c, fixed, i, ai, j, aj, aij, k, ak, l, al, akl in closed:
                bk, bl = b[k], b[l]
                total += c * math.prod(map(b.__getitem__, fixed)) * (
                    nx if i == one else nx * b[i] * b[j] + (b[i] * aj + b[j] * ai) * sx
                    + aij * qx) * (ny * bk * bl + (bk * al + bl * ak) * sy + akl * qy)
        for c, factors in ranged:
            total += c * sum(map(math.prod, _run(
                map(base.__getitem__, factors), map(e.__getitem__, factors), yl, yh)))
        if columns:
            total += _block_sum(columns, _columns(col, [(base, xl, xh, yl, yh)]))[0]
    return total, seen


def _walk_sum(P: LatticePolytope, n: int, strict: bool, terms):
    """(sum, blocks): _block_sum of the terms over the blocks of nP (of its
    relative interior if strict), and the number of blocks the walk yielded;
    terms are (exponents, int c) pairs, or _SumPlans to keep their plans."""
    col, e, blocks = _walk_fibers(P, n, strict)
    plans = terms if type(terms) is _SumPlans else _SumPlans(terms)
    plan = plans.get((col, e))
    if plan is None:  # e = 0 walks one point, 0P or a point P: any plan sums it
        held = None if any(e) else next(iter(plans.values()), None)
        plan = plans[col, e] = held or _sum_plan(plans.terms, col, e)
    return _block_sum(plan, blocks)


def dimension(P: LatticePolytope) -> int:
    """Affine dimension of the polytope."""
    return P.dim


def facets(P: LatticePolytope):
    """Exact H-representation: (affine hull equations, facet inequalities).

    Both parts use primitive integer rows (a, b) meaning a.x = b and
    a.x <= b respectively; together they cut out exactly the polytope.
    """
    return list(P.affine_hull), list(P.facet_inequalities)


def lattice_points(P: LatticePolytope, n: int) -> list[tuple[int, ...]]:
    """Lattice points of the n-th dilation, lexicographically sorted.

    The 0-th dilation is the origin. Work per call is capped by the
    EHRWT_MAX_POINTS environment variable (default 10^8 candidate
    cells, counted in the lattice coordinates of the affine hull);
    beyond the cap an EnumerationLimitError is raised.
    """
    _check_int(n, 0, "dilation factor must be a nonnegative integer")
    return sorted(_walk(P, n, False))


def interior_lattice_points(P: LatticePolytope, n: int) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior of the n-th dilation.

    For a 0-dimensional polytope the relative interior is the point
    itself. Requires n >= 1.
    """
    _check_int(n, 1, "dilation factor must be a positive integer")
    return sorted(_walk(P, n, True))


def contains(P: LatticePolytope, point: Sequence, n=1) -> bool:
    """Exact membership of a rational point in the n-th dilation (n > 0 rational).

    With the point written as xs / L, L the lcm of its denominators, and
    n = p / q, the point lies in nP iff q * a.xs == p * L * b on each hull
    equation and q * a.xs <= p * L * b on each facet row, all in integers.
    An int n and int coordinates are taken as they are, with L = q = 1;
    any other input, a bool, a float, a str or a Fraction among them, goes
    through the rational rule and its errors. The rows are P's cached
    H-representation, computed on first use, so a P whose double
    description passes HULL_ROWS raises EnumerationLimitError.
    """
    scale = n if type(n) is int else _exact(n, "dilation factor")
    if scale <= 0:
        raise ValueError("dilation factor must be positive")
    xs, den = list(point), 1
    if any(type(x) is not int for x in xs):
        xs, den = _cleared(xs, "coordinate")
    _check_length(xs, P.ambient_dim)
    equations, inequalities = P.affine_hull, P.facet_inequalities
    q, rhs = scale.denominator, scale.numerator * den
    for a, b in equations:
        if q * sum(map(mul, a, xs)) != rhs * b:
            return False
    for a, b in inequalities:
        if q * sum(map(mul, a, xs)) > rhs * b:
            return False
    return True


def edge_polytope(G: Graph) -> LatticePolytope:
    """Polytope spanned by e_i + e_j over the edges of the graph.

    Every vertex must meet an edge, otherwise the polytope would live in
    a smaller coordinate space than advertised.
    """
    _require_edge_cover(G)
    rows = []
    for i, j in G.edges:
        row = [0] * G.vertex_count
        row[i - 1] = 1
        row[j - 1] = 1
        rows.append(row)
    return LatticePolytope(rows)


def _require_edge_cover(G: Graph) -> None:
    touched = {v for e in G.edges for v in e}
    isolated = sorted(set(range(1, G.vertex_count + 1)) - touched)
    if isolated:
        raise ValueError(
            f"graph has isolated vertices {isolated}; every vertex must meet an edge"
        )


def bipartite_components(G: Graph) -> int:
    """Number of connected components admitting a proper 2-coloring.

    Isolated vertices count as trivially bipartite components.
    """
    adj = {v: [] for v in range(1, G.vertex_count + 1)}
    for i, j in G.edges:
        adj[i].append(j)
        adj[j].append(i)
    color = {}
    count = 0
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        good = True
        while stack:
            u = stack.pop()
            for nb in adj[u]:
                if nb not in color:
                    color[nb] = color[u] ^ 1
                    stack.append(nb)
                elif color[nb] == color[u]:
                    good = False
        if good:
            count += 1
    return count


def require_nonnegative_vertices(P: LatticePolytope, operation: str) -> None:
    """Reject polytopes leaving the nonnegative orthant where an operation needs it."""
    for v in P.vertices:
        if any(c < 0 for c in v):
            raise ValueError(
                f"{operation} requires vertices in the nonnegative orthant, got {v}"
            )


def _check_space(P: LatticePolytope, w, what: str = "weight has") -> None:
    """Refuse a weight or a form tuple w whose variables are not P's coordinates."""
    if w.nvars != P.ambient_dim:
        raise ValueError(
            f"{what} {w.nvars} variables but the polytope lives in dimension {P.ambient_dim}")
