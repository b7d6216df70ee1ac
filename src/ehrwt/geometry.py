"""Exact polyhedral geometry over the integer lattice.

Polytopes are given by integer vertex lists, and the H-representation
is recovered without fractions. One fraction-free Gauss-Jordan
elimination (Bareiss) does all of its linear algebra: the affine hull
is the integer kernel of the vertex differences' echelon form, an
affine rank is its pivot count, and the hull equations' pivots fix the
coordinates left free. The facets come from an incremental double
description on integer rows in those free coordinates: starting from a
simplex, each point outside the current hull replaces the rows it
violates by positive combinations with the rows it satisfies strictly,
kept only when their tight points span a facet. An integer invariant
check on the final rows raises ConsistencyError if that ever fails.

The lattice points of a dilation are streamed by one generator,
coordinate by coordinate with exact interval propagation; its consumers
accumulate as they go, and no point list is cached. Membership is
settled by a barycentric feasibility LP over Fractions that never looks
at the facet pipeline, so the two routes can serve as mutual oracles.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterable, Sequence

from ._simplex import simplex_feasible
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


class LatticePolytope:
    """Convex hull of a finite integer point list.

    The point list is stored exactly as given (duplicates and interior
    points are tolerated); the exact H-representation, affine hull
    equations plus essential facet inequalities with integer rows, is
    computed on first use and cached. Hashable on the point list.
    """

    __slots__ = ("_vertices", "_hull", "_facets")

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


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination; returns (nonzero rows, pivot columns).

    Bareiss's update keeps every entry an integer minor of the input, so
    each division is exact. Every returned row holds the last pivot on
    its own pivot column and 0 on the other pivot columns: divided by
    that pivot, the rows are the reduced row echelon form.
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
        top = mat[r]
        p = top[col]
        for i, row in enumerate(mat):
            if i != r:
                f = row[col]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat[: len(pivots)], pivots


def _primitive_ineq(row, rhs):
    """Primitive form of the integer row a.x <= b; None when the row is trivial."""
    g = math.gcd(*row)
    if g == 0:
        if rhs < 0:
            raise ConsistencyError("derived an infeasible constraint; this is a bug")
        return None
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


def _tidy(cons):
    """Primitive rows without tautologies, the tightest rhs per normal, sorted."""
    best = {}
    for row, rhs in cons:
        prim = _primitive_ineq(row, rhs)
        if prim is None:
            continue
        key, val = prim
        if key not in best or val < best[key]:
            best[key] = val
    return sorted(best.items())


def _check_facets(P, rows):
    """Raise ConsistencyError unless the rows are the distinct facets of P.

    Every vertex must satisfy every row, the vertices tight at a row
    must span dim(P) - 1 dimensions, and no normal may occur twice.
    """
    normals = set()
    for row, rhs in rows:
        tight = []
        for v in P.vertices:
            value = sum(c * x for c, x in zip(row, v))
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
    equations.
    """
    if P.dim == 0:
        return ()
    _, pivots = _echelon([a for a, _ in P.affine_hull])
    free = [j for j in range(P.ambient_dim) if j not in pivots]
    points = list(dict.fromkeys(tuple(v[j] for j in free) for v in P.vertices))
    d = len(free)

    # start from d + 1 affinely independent points; seen holds the points added so far
    seen = []
    for q in points:
        if _affine_rank(seen + [q]) == len(seen):
            seen.append(q)
            if len(seen) == d + 1:
                break
    rows = []
    for apex in seen:
        # the one equation through the opposite face, oriented away from the apex
        ((a, b),) = _affine_hull([q for q in seen if q != apex])
        if sum(c * x for c, x in zip(a, apex)) > b:
            a, b = tuple(-c for c in a), -b
        rows.append((a, b))

    for q in points:
        slack = [sum(c * x for c, x in zip(a, q)) - b for a, b in rows]
        if max(slack) <= 0:
            continue
        tight = [
            {i for i, p in enumerate(seen) if sum(c * x for c, x in zip(a, p)) == b}
            for a, b in rows
        ]
        kept = [r for r, u in zip(rows, slack) if u <= 0]
        for (a, b), u, tu in zip(rows, slack, tight):
            if u <= 0:
                continue
            for (a2, b2), w, tw in zip(rows, slack, tight):
                # the combination is tight at q and at the points tight at both rows
                if w < 0 and _affine_rank([seen[i] for i in tu & tw] + [q]) == d - 1:
                    kept.append(([-w * x + u * y for x, y in zip(a, a2)], -w * b + u * b2))
        seen.append(q)
        rows = _tidy(kept)

    lifted = []
    for a, b in rows:
        row = [0] * P.ambient_dim
        for j, c in zip(free, a):
            row[j] = c
        lifted.append((row, b))
    rows = _tidy(lifted)
    _check_facets(P, rows)
    return tuple(rows)


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


def _walk(P: LatticePolytope, n: int, strict: bool):
    """Stream the lattice points of nP (of its relative interior if strict) in lex order."""
    s = P.ambient_dim
    if n == 0 and not strict:
        # 0P is the origin; answered without facets or the cap
        yield (0,) * s
        return
    cap = _enumeration_cap()  # read per call: nothing is kept between calls
    rows = []
    for a, b in P.facet_inequalities:
        # integer rows make "< n*b" the same as "<= n*b - 1"
        rows.append((a, n * b - 1 if strict else n * b))
    for a, b in P.affine_hull:
        rows.append((a, n * b))
        rows.append((tuple(-c for c in a), -n * b))
    lo = [n * min(v[j] for v in P.vertices) for j in range(s)]
    hi = [n * max(v[j] for v in P.vertices) for j in range(s)]
    # per-row minimum possible contribution of coordinates j..s-1 over the box
    tails = []
    for a, _ in rows:
        t = [0] * (s + 1)
        for j in range(s - 1, -1, -1):
            t[j] = t[j + 1] + min(a[j] * lo[j], a[j] * hi[j])
        tails.append(t)
    visited = 0

    def descend(k, head, sums):
        nonlocal visited
        low, high = lo[k], hi[k]
        for (a, b), part, tail in zip(rows, sums, tails):
            c = a[k]
            if c > 0:
                bound = (b - part - tail[k + 1]) // c
                if bound < high:
                    high = bound
            elif c < 0:
                bound = -((b - part - tail[k + 1]) // -c)
                if bound > low:
                    low = bound
        visited += max(high - low + 1, 0)
        if visited > cap:
            raise EnumerationLimitError(
                f"lattice-point enumeration of the {'interior' if strict else 'closed'} "
                f"dilation n={n} counted {visited} candidate cells, over "
                f"EHRWT_MAX_POINTS={cap}; raise the cap to allow larger jobs"
            )
        if k == s - 1:
            for x in range(low, high + 1):
                yield head + (x,)
            return
        for x in range(low, high + 1):
            yield from descend(k + 1, head + (x,), [p + a[k] * x for (a, _), p in zip(rows, sums)])

    yield from descend(0, (), [0] * len(rows))


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
    cells); beyond the cap an EnumerationLimitError is raised.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("dilation factor must be a nonnegative integer")
    return list(_walk(P, n, False))


def interior_lattice_points(P: LatticePolytope, n: int) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior of the n-th dilation.

    For a 0-dimensional polytope the relative interior is the point
    itself. Requires n >= 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("dilation factor must be a positive integer")
    return list(_walk(P, n, True))


def contains(P: LatticePolytope, point: Sequence, n=1) -> bool:
    """Exact membership of a rational point in the n-th dilation (n > 0 rational).

    Feasibility of the barycentric system {n*V.lam = point, sum(lam) = 1,
    lam >= 0}, solved by the exact simplex. Independent of the facet
    pipeline by design.
    """
    scale = _exact(n, "dilation factor")
    if scale <= 0:
        raise ValueError("dilation factor must be positive")
    coords = [_exact(c, "coordinate") for c in point]
    if len(coords) != P.ambient_dim:
        raise ValueError(f"point has length {len(coords)}, expected {P.ambient_dim}")
    m = len(P.vertices)
    rows = [[scale * v[j] for v in P.vertices] for j in range(P.ambient_dim)]
    rows.append([Fraction(1)] * m)
    rhs = coords + [Fraction(1)]
    return simplex_feasible(rows, rhs)


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
