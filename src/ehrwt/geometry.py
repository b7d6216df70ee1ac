"""Exact polyhedral geometry over the integer lattice.

Polytopes are given by integer vertex lists, and the H-representation
is recovered without fractions. One fraction-free Gauss-Jordan
elimination (Bareiss) does all of its linear algebra: the affine hull
is the integer kernel of the vertex differences' echelon form, an
affine rank is its pivot count, and the hull equations' pivots fix the
coordinates left free. The facets come from an incremental double
description on integer rows in those free coordinates. Its starting
simplex comes from one elimination of the points' differences from the
first point with the identity appended: the pivot columns pick the
simplex's other points, and the appended block holds its facet normals.
Each point outside the current hull replaces the rows it violates by
positive combinations with the rows it satisfies strictly, for pairs
with no third row tight wherever both are (Fukuda and Prodon's
combinatorial test, valid as the rows are exactly the facets of the hull
so far). Each row carries the points tight at it as a bitmask, so a new
row's tight set is its parents' common one plus the new point, and no
tight set is recomputed. An integer invariant check on the final rows,
with the tight sets taken afresh from the vertices, raises
ConsistencyError if that ever fails.

The lattice points of a dilation come from one walk in a lattice basis
of the affine hull: with v0 a vertex and the columns of B a reduced
basis of the lattice (aff(P) - v0) & Z^s, nP's lattice points are
n*v0 + B y over the lattice points y of nQ, Q = {y : v0 + B y in P}.
B comes from one integral LLL on the unit columns with the hull
equations stacked on top, weighted by an N that LLL's bound on the
reduced lengths (Prop. 1.12) makes larger than any short kernel
vector, so the first d columns are a reduced kernel basis. Q is
full-dimensional, so the hull equations never reach the walk, and the
reduced basis keeps Q from being skewed whatever the coordinate order.
One loop walks Q depth first on an explicit stack of lazy cursors, one
per coordinate open, fixing the coordinates one by one with exact
interval propagation in a column order chosen once per polytope by
pilot counts on 2Q; each innermost fiber goes out as its base and the
interval of its last coordinate, so sums, counts and images are taken
per fiber in C-level loops over ranges, and no point list is kept.

Membership reads the same cached rows: with the point's and the
dilation's denominators cleared once, it is one integer dot product per
hull equation and facet row.
"""

from __future__ import annotations

import math
import os
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Sequence

from .errors import ConsistencyError, EnumerationLimitError
from .polynomials import _exact

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
# most cells one pilot walk of 2Q may visit while it ranks column orders;
# it bounds the set-up cost of a polytope's first walk
PILOT_CELLS = 4096
# most rows the facets' double description may hold after a point: a
# point costs up to cubic time in the rows: points on the moment curve of
# R^3 reach this cap after 103 points in 0.15 s (CPython 3.11, a shared
# Xeon server), where the hull workloads peak at 14
HULL_ROWS = 200


class LatticePolytope:
    """Convex hull of a finite integer point list.

    The point list is stored exactly as given (duplicates and interior
    points are tolerated); the exact H-representation, affine hull
    equations plus essential facet inequalities with integer rows, is
    computed on first use and cached. Hashable on the point list.
    """

    __slots__ = ("_vertices", "_hull", "_facets", "_frame")

    def __init__(self, vertices: Iterable[Sequence[int]]):
        rows = []
        for v in vertices:
            row = []
            for c in v:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"vertex coordinate {c!r} is not an integer")
                row.append(c)
            rows.append(tuple(row))
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
        if not isinstance(vertex_count, int) or vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        seen = set()
        for e in edges:
            i, j = e
            if not isinstance(i, int) or not isinstance(j, int):
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


def _pivot(mat, r, col, prev):
    """One fraction-free Gauss-Jordan step on row r and column col; returns the new pivot.

    Every other row loses its entry in col by (p*a - f*b) // prev, where
    p is the pivot and prev the one before it (1 at the start). Bareiss's
    update keeps each entry an integer minor of the input, so each
    division is exact; row r stays as it is.
    """
    top = mat[r]
    p = top[col]
    for i, row in enumerate(mat):
        if i != r:
            f = row[col]
            mat[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination; returns (nonzero rows, pivot columns).

    Every returned row holds the last pivot on its own pivot column and
    0 on the other pivot columns: divided by that pivot, the rows are
    the reduced row echelon form.
    """
    mat = [list(r) for r in rows]
    pivots = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prev = _pivot(mat, r, col, prev)
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat[: len(pivots)], pivots


def _primitive_ineq(row, rhs):
    """Primitive form of the integer row a.x <= b; a zero row raises ConsistencyError."""
    g = math.gcd(*row)
    if g == 0:
        raise ConsistencyError(f"derived the trivial row 0 <= {rhs}; this is a bug")
    g = math.gcd(g, rhs)
    return tuple(v // g for v in row), rhs // g


def _primitive_eq(row, rhs):
    """Primitive sign-normalized form of the integer row a.x = b; None when trivial."""
    lead = next((v for v in row if v != 0), 0)
    if lead == 0:
        if rhs != 0:
            raise ConsistencyError("derived an inconsistent equation; this is a bug")
        return None
    g = math.gcd(*row, rhs)
    if lead < 0:
        g = -g
    return tuple(v // g for v in row), rhs // g


def _affine_hull(vertices):
    """Primitive integer equations of the affine hull: the integer kernel of
    the vertex differences' echelon form.

    Each column f that is not a pivot gives one normal, with the last
    pivot on f and minus row r's entry in column f on row r's pivot.
    """
    base = vertices[0]
    rows, pivots = _echelon([[a - b for a, b in zip(v, base)] for v in vertices[1:]])
    last = rows[0][pivots[0]] if pivots else 1
    eqs = []
    for f in range(len(base)):
        if f in pivots:
            continue
        normal = [0] * len(base)
        normal[f] = last
        for row, p in zip(rows, pivots):
            normal[p] = -row[f]
        eqs.append(_primitive_eq(normal, sum(c * b for c, b in zip(normal, base))))
    return tuple(sorted(eqs))


def _affine_rank(points) -> int:
    """Affine dimension of an integer point list; -1 when the list is empty."""
    if not points:
        return -1
    base = points[0]
    return len(_echelon([[a - b for a, b in zip(p, base)] for p in points[1:]])[1])


def _check_facets(P, rows):
    """Raise ConsistencyError unless the rows are the distinct facets of P.

    Every vertex must satisfy every row, the vertices tight at a row
    must span dim(P) - 1 dimensions, and no normal may occur twice.
    """
    normals = set()
    for row, rhs in rows:
        tight = []
        for v in P.vertices:
            value = sum(map(mul, row, v))
            if value > rhs:
                raise ConsistencyError(f"facet row {row} <= {rhs} is violated by vertex {v}")
            if value == rhs:
                tight.append(v)
        if _affine_rank(tight) != P.dim - 1:
            raise ConsistencyError(
                f"row {row} <= {rhs} is not a facet: its tight vertices {tight} "
                f"do not span dimension {P.dim - 1}"
            )
        if row in normals:
            raise ConsistencyError(f"facet normal {row} occurs in more than one row")
        normals.add(row)


def _facet_inequalities(P):
    """Facet rows by double description in the coordinates the hull leaves free.

    P projects one-to-one onto the columns that are not pivots of the
    hull equations' echelon form, and a row that is zero on the pivot
    columns is the canonical representative of its class modulo those
    equations. Each row carries its tight set as a bitmask over the
    points added so far. More than HULL_ROWS rows after a point raise
    EnumerationLimitError.
    """
    if P.dim == 0:
        return ()
    _, pivots = _echelon([a for a, _ in P.affine_hull])
    free = [j for j in range(P.ambient_dim) if j not in pivots]
    points = list(dict.fromkeys(tuple(v[j] for j in free) for v in P.vertices))
    d = len(free)

    # start from the first point and the p_i whose differences from it are pivot
    # columns of [D | I], D's columns all the differences: the appended block is then
    # the last pivot times D_c^-1, so its row i is normal to the facet opposite p_i
    # and minus the rows' sum to the one opposite base, each signed to have its apex
    # inside; seen holds the points added so far, apex i at i
    base = points[0]
    ech, cols = _echelon([[q[j] - base[j] for q in points[1:]] + [int(i == j) for i in range(d)]
                          for j in range(d)])
    sign = -1 if ech[0][cols[0]] > 0 else 1
    normals = [[sign * c for c in row[-d:]] for row in ech]
    normals.append([-sum(col) for col in zip(*normals)])
    seen = [points[c + 1] for c in cols] + [base]
    full = (1 << (d + 1)) - 1
    # seen[i - 1] is on every facet but the one opposite seen[i]
    rows = [(*_primitive_ineq(a, sum(map(mul, a, seen[i - 1]))), full ^ (1 << i))
            for i, a in enumerate(normals)]

    for q in points:
        slack = [sum(map(mul, a, q)) - b for a, b, _ in rows]
        if max(slack) <= 0:
            continue
        bit = 1 << len(seen)
        seen.append(q)
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
                f"{len(rows)} double-description rows after {len(seen)} points, over "
                f"the cap of {HULL_ROWS}"
            )

    lifted = []
    for a, b, _ in rows:
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
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"EHRWT_MAX_POINTS must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError("EHRWT_MAX_POINTS must be positive")
    return cap


def _lll(b, inv):
    """LLL-reduce (delta 3/4) the basis vectors b in place, all in integers.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7; Lenstra, Lenstra and Lovasz, Math. Ann. 261,
    1982): d[i] is the Gram determinant of b[:i] and lam[k][j] the
    Gram-Schmidt coefficient of b[k] on b[j] times d[j + 1]. The b are
    the columns of [N*A ; U] for a unimodular U and inv the matching rows
    of U^-1, which every step keeps in step.
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


def _lattice_coordinates(P):
    """Q = {y in Z^d : v0 + B y in P} for v0 = P's first vertex.

    B is a reduced basis of ker A & Z^s for the r hull equations A: the
    first d of the s columns [N*A e_j ; e_j] after one integral LLL
    (Cohen, A Course in Computational Algebraic Number Theory, Sec. 2.7),
    N = 1 + 2^(s-1) (r+1) prod |a_i|^2. A's d Cramer kernel vectors are
    independent with squared norms at most (r+1) prod |a_i|^2 (Hadamard),
    so the first d reduced columns have squared norm below N (Lenstra,
    Lenstra and Lovasz, Math. Ann. 261, 1982, Prop. 1.12), where A x != 0
    costs N^2: their A-parts are 0, they span ker A & Z^s, and they are
    reduced in the plain norm, so Q is not skewed whatever the coordinate
    order. Returns (v0, B's columns, Q's facet rows (a.B, b - a.v0), Q's
    box as (lo, hi)).
    """
    s, v0 = P.ambient_dim, P.vertices[0]
    eqs = [a for a, _ in P.affine_hull]
    r, d = len(eqs), P.dim
    N = 1 + 2 ** (s - 1) * (r + 1) * math.prod(sum(c * c for c in a) for a in eqs)
    # each column stacks N*A's column over U's; inv is U^-1, updated row-wise
    cols = [[N * a[j] for a in eqs] + [int(i == j) for i in range(s)] for j in range(s)]
    inv = [[int(i == j) for j in range(s)] for i in range(s)]
    _lll(cols, inv)
    if any(any(c[:r]) for c in cols[:d]):
        raise ConsistencyError(f"the reduced basis leaves the hull of {list(P.vertices)}")
    basis = [tuple(c[r:]) for c in cols[:d]]
    ys = [[sum(c * (x - o) for c, x, o in zip(row, v, v0)) for row in inv[:d]]
          for v in P.vertices]
    rows = [
        (tuple(sum(c * e for c, e in zip(a, col)) for col in basis),
         b - sum(c * o for c, o in zip(a, v0)))
        for a, b in P.facet_inequalities
    ]
    return v0, basis, rows, ([min(y) for y in zip(*ys)], [max(y) for y in zip(*ys)])


def _frame(coords, order):
    """The walk's data for Q with its coordinates walked in the given order.

    Each row carries, per depth k, the least value coordinates k..d-1 can
    add to it over Q's box, so a prefix whose best completion already
    breaks the row is cut at once.
    """
    v0, basis, rows, (lo, hi) = coords
    lo, hi = [lo[j] for j in order], [hi[j] for j in order]
    framed = []
    for c, beta in rows:
        c = [c[j] for j in order]
        tail = [0] * (len(c) + 1)
        for k in range(len(c) - 1, -1, -1):
            tail[k] = tail[k + 1] + min(c[k] * lo[k], c[k] * hi[k])
        framed.append((c, beta, tail))
    return v0, [basis[j] for j in order], framed, lo, hi


def _fibers(frame, n, strict, cap):
    """Stream the lattice points of nQ (of its interior if strict) as fibers.

    A fiber (base, low, high) stands for the points n*v0 + B y = base + x * e
    for low <= x <= high, e = B's last column. One depth-first loop keeps
    one (depth, ambient base, row sums, cursor) entry per depth open, the
    cursor a lazy range over that coordinate's values, so the stack never
    outgrows d + 1 entries. A cell is one value a coordinate can take
    after interval propagation; the generator returns the number of cells
    it visited and raises EnumerationLimitError once that passes cap.
    """
    v0, cols, rows, lo, hi = frame
    last = len(cols) - 1
    lo, hi = [n * v for v in lo], [n * v for v in hi]
    # per depth, the rows that bound it with their rhs less the tail past
    # it; integer rows make "< rhs" the same as "<= rhs - 1"
    bounds = [
        [(i, c[k], n * (beta - tail[k + 1]) - strict)
         for i, (c, beta, tail) in enumerate(rows) if c[k]]
        for k in range(last + 1)
    ]
    steps = [[c[k] for c, _, _ in rows] for k in range(last + 1)]
    visited = 0
    # the root is the one child of a seed at depth -1 whose cursor holds only 0,
    # so the column it reads, cols[-1], never moves it
    stack = [(-1, [n * v for v in v0], [0] * len(rows), iter((0,)))]
    while stack:
        k, base, sums, xs = stack[-1]
        x = next(xs, None)
        if x is None:
            stack.pop()
            continue
        base = [b + x * e for b, e in zip(base, cols[k])]
        sums = [p + x * c for p, c in zip(sums, steps[k])]
        k += 1
        low, high = lo[k], hi[k]
        for i, c, rhs in bounds[k]:
            if c > 0:
                bound = (rhs - sums[i]) // c
                if bound < high:
                    high = bound
            else:
                bound = -((rhs - sums[i]) // -c)
                if bound > low:
                    low = bound
        if low > high:
            continue
        visited += high - low + 1
        if visited > cap:
            raise EnumerationLimitError(
                f"lattice-point enumeration of the {'interior' if strict else 'closed'} "
                f"dilation n={n} counted {visited} candidate cells, over "
                f"EHRWT_MAX_POINTS={cap}; raise the cap to allow larger jobs"
            )
        if k == last:
            yield base, low, high
        else:
            stack.append((k, base, sums, iter(range(low, high + 1))))
    return visited


def _walk_frame(P):
    """Q's frame in a column order chosen greedily from the innermost position out.

    Each position keeps the candidate whose order, with the coordinates
    still open outside it in index order, visits the fewest cells when
    walking 2Q. A candidate's pilot stops once it passes the best count
    so far or PILOT_CELLS, not the cap, so the cached frame does not
    depend on the cap; when every candidate stops, the position keeps
    the last one, so a large Q is walked in index order.
    """
    coords = _lattice_coordinates(P)
    chosen, rest = [], list(range(len(coords[1])))
    while len(rest) > 1:
        best, fewest = rest[-1], None
        for c in rest:
            order = [j for j in rest if j != c] + [c] + chosen
            limit = PILOT_CELLS if fewest is None else fewest - 1
            pilot = _fibers(_frame(coords, order), 2, False, limit)
            try:
                while True:
                    next(pilot)
            except StopIteration as done:
                best, fewest = c, done.value
            except EnumerationLimitError:
                pass
        chosen.insert(0, best)
        rest.remove(best)
    return _frame(coords, rest + chosen)


def _walk_fibers(P: LatticePolytope, n: int, strict: bool):
    """(e, fibers) of nP (of its relative interior if strict) as _fibers yields
    them, in the order of Q's walk; the cap counts the cells visited in Q.
    """
    cap = None if n == 0 and not strict else _enumeration_cap()  # read per call
    if cap is None or P.dim == 0:
        # 0P is the origin, answered without facets or the cap; a point is one fiber
        return (0,) * P.ambient_dim, iter([([n * c for c in P.vertices[0]], 0, 0)])
    if P._frame is None:
        P._frame = _walk_frame(P)
    return P._frame[1][-1], _fibers(P._frame, n, strict, cap)


def _points(e, fibers):
    """The points base + x * e, low <= x <= high, of the fibers (base, low, high)."""
    return chain.from_iterable(
        zip(*[range(b + low * c, b + (high + 1) * c, c) if c else repeat(b, high - low + 1)
              for b, c in zip(base, e)]) for base, low, high in fibers)


def _walk(P: LatticePolytope, n: int, strict: bool):
    """Iterate over the lattice points of nP (of its relative interior if strict)."""
    return _points(*_walk_fibers(P, n, strict))


def _walk_sum(P: LatticePolytope, n: int, strict: bool, terms) -> int:
    """Sum of the terms c * prod(a_i^k), given as (exponents k, int c) pairs, over
    the points a of nP (of its relative interior if strict), one fiber at a time: a
    coordinate e leaves alone is read once from the base, the others run along
    their ranges.
    """
    e, fibers = _walk_fibers(P, n, strict)
    moving = [i for i, c in enumerate(e) if c]
    split = [(c, [i for i, k in enumerate(x) if not e[i] for _ in range(k)],
              [moving.index(i) for i, k in enumerate(x) if e[i] for _ in range(k)])
             for x, c in terms]
    total = 0
    for base, low, high in fibers:
        ranges = [range(base[i] + low * e[i], base[i] + (high + 1) * e[i], e[i]) for i in moving]
        for c, fixed, run in split:
            total += c * math.prod(map(base.__getitem__, fixed)) * (
                sum(map(math.prod, zip(*map(ranges.__getitem__, run)))) if run else high - low + 1)
    return total


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
    if not isinstance(n, int) or n < 0:
        raise ValueError("dilation factor must be a nonnegative integer")
    return sorted(_walk(P, n, False))


def interior_lattice_points(P: LatticePolytope, n: int) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior of the n-th dilation.

    For a 0-dimensional polytope the relative interior is the point
    itself. Requires n >= 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("dilation factor must be a positive integer")
    return sorted(_walk(P, n, True))


def contains(P: LatticePolytope, point: Sequence, n=1) -> bool:
    """Exact membership of a rational point in the n-th dilation (n > 0 rational).

    With the point written as xs / L, L the lcm of its denominators, and
    n = p / q, the point lies in nP iff q * a.xs == p * L * b on each hull
    equation and q * a.xs <= p * L * b on each facet row, all in integers.
    The rows are P's cached H-representation, computed on first use, so a
    P whose double description passes HULL_ROWS raises EnumerationLimitError.
    """
    scale = _exact(n, "dilation factor")
    if scale <= 0:
        raise ValueError("dilation factor must be positive")
    coords = [c if isinstance(c, int) else _exact(c, "coordinate") for c in point]
    if len(coords) != P.ambient_dim:
        raise ValueError(f"point has length {len(coords)}, expected {P.ambient_dim}")
    equations, inequalities = P.affine_hull, P.facet_inequalities
    den = math.lcm(*(x.denominator for x in coords))
    xs = [x.numerator * (den // x.denominator) for x in coords]
    q, rhs = scale.denominator, scale.numerator * den
    return (all(q * sum(map(mul, a, xs)) == rhs * b for a, b in equations)
            and all(q * sum(map(mul, a, xs)) <= rhs * b for a, b in inequalities))


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
