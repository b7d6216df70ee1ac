"""Independent oracles backing the test suite.

Everything here is deliberately computed through a different route than
the library code it checks. Membership and relative-interior questions
are settled by linear programs over barycentric coordinates (vertex
descriptions only, no facet systems), solved by a two-phase simplex
method over Fractions, where ``contains`` tests the library's facet
rows. The library's former membership LP, phase 1 on an integer tableau
with the hull's fraction-free step, is kept here as a second
vertex-only route. Lattice point sets are found by scanning bounding
boxes, facets by trying every hyperplane through vertices and by a
double description that recomputes every row's tight set after each
point, where the library carries them as bitmasks, and Eulerian
numbers by the classical recurrence. Affine hulls and ranks
come from Gauss-Jordan elimination over Fractions, where the library
eliminates fraction-free on integers. Series of polynomials come from
the paper's assembly out of cube series, where the library takes one
difference transform of values. Lattice points of a dilation come
from a walk over every ambient coordinate with the hull equations as
inequality pairs, where the library walks a lattice basis of the hull;
sums and products of weights and of coefficient lists are taken term by
term in Fractions, where the library adds and multiplies integer
numerators; polynomials are evaluated by
Horner's rule in Fractions and weights normalised in Fractions, where the
library works on integer numerators over one denominator, and interpolated
by Newton divided differences in Fractions, where the library takes
Lagrange's form in integers. Counting
polynomials come from closed walks at every node, where the library
takes half of its nodes from interior walks by reciprocity. Fibers of a
walk frame come from a recursive descent of nested generators, where the
library runs one loop on an explicit stack and yields the fibers of its
uncoupled trailing axes as one box. Weighted sums of a walk evaluate the
weight at each point, where the library sums per box. The
lattice basis of a hull comes from Euclid's column steps alone, and its
reduction is checked by Gram-Schmidt over Fractions, where the library
takes a reduced basis from one integral LLL on weighted columns. Hilbert
fits come from a rational interpolant of each candidate window, checked
at later samples and against a leading coefficient from closed nodes,
Laplace minors and a Euclid basis, and walked back by evaluation, where
the library decides the window, the onset and the series by one integer
difference test and certifies the lead from the walk's basis. Weights
are parsed by a scanner that tests each character and a grammar that
takes a leading minus in two rules, where the library
tokenizes with one regex and takes every prefix minus in one rule. JSON
output is converted to plain data and indented by json.dumps, where the
library writes the indented text itself.
"""

import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from ehrwt import RationalGF, UniPoly, cube_series, geometry, lagrange_interpolate, weighted_sum
from ehrwt.errors import (
    ConsistencyError,
    EnumerationLimitError,
    UndeterminedFitError,
    WeightParseError,
)
from ehrwt.geometry import _check_space, _enumeration_cap, _walk
from ehrwt.hilbert import FIT_MARGIN, _check_input, hilbert_value, image_polytope
from ehrwt.polynomials import WeightPoly, _bits, _check_bits, _check_cap, _series_of_values


def eulerian_row(d):
    """Row d of the Eulerian triangle from the recurrence
    A(d,k) = (d-k+1) A(d-1,k-1) + k A(d-1,k), seeded with A(0,0) = 1."""
    row = [1]
    for m in range(1, d + 1):
        prev = row
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            left = prev[k - 1] if k - 1 < len(prev) else 0
            right = prev[k] if k < len(prev) else 0
            row[k] = (m - k + 1) * left + k * right
    return row


def series_by_cube_assembly(g):
    """Generating function sum_n g(n) x^n of a polynomial sequence.

    Writes g in the basis 1, n, n^2, ... and assembles the series from
    cube series: the coefficient b_0 contributes b_0/(1-x) and each b_i
    with i >= 1 contributes b_i * x * (cube numerator)_i / (1-x)^(i+1),
    all over the common denominator (1-x)^(deg g + 1).
    """
    if not g:
        return RationalGF(UniPoly(), 0)
    r = g.degree
    omx = UniPoly([1, -1])
    num = UniPoly()
    for i, b in enumerate(g.coeffs):
        if b == 0:
            continue
        if i == 0:
            num = num + b * omx**r
        else:
            shifted = UniPoly.monomial(1) * cube_series(i).numerator
            num = num + b * shifted * omx ** (r - i)
    return RationalGF(num, r + 1)


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * p for v, p in zip(line, tableau[row])]
    basis[row] = col


def _optimize(tableau, basis, cost, allowed):
    """Run Bland-rule pivots; returns 'optimal' or 'unbounded'."""
    ncols = len(tableau[0]) - 1 if tableau else len(cost)
    while True:
        # reduced costs relative to the current basis
        dual = [cost[b] for b in basis]
        entering = -1
        for j in range(ncols):
            if j in basis or not allowed(j):
                continue
            reduced = cost[j] - sum(d * tableau[r][j] for r, d in enumerate(dual))
            if reduced > 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leave = -1
        best = None
        for r, line in enumerate(tableau):
            if line[entering] > 0:
                ratio = line[-1] / line[entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, leave, entering)


def simplex_maximize(rows, rhs, objective):
    """Maximize objective.y subject to rows.y == rhs, y >= 0.

    Returns (status, value, solution) with status one of "optimal",
    "unbounded", "infeasible"; value and solution are None unless optimal.
    """
    nvars = len(objective)
    m = len(rows)
    tableau = []
    for row, b in zip(rows, rhs):
        line = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            line = [-v for v in line]
            b = -b
        tableau.append(line + [Fraction(0)] * m + [b])
    for r in range(m):
        tableau[r][nvars + r] = Fraction(1)
    basis = [nvars + r for r in range(m)]

    phase1 = [Fraction(0)] * nvars + [Fraction(-1)] * m
    _optimize(tableau, basis, phase1, lambda j: True)
    if sum(phase1[b] * tableau[r][-1] for r, b in enumerate(basis)) != 0:
        return "infeasible", None, None

    # drive leftover artificials out of the basis or drop their rows
    for r in range(m - 1, -1, -1):
        if basis[r] < nvars:
            continue
        col = next((j for j in range(nvars) if tableau[r][j] != 0), -1)
        if col >= 0:
            _pivot(tableau, basis, r, col)
        else:
            del tableau[r]
            del basis[r]

    phase2 = [Fraction(c) for c in objective] + [Fraction(0)] * m
    status = _optimize(tableau, basis, phase2, lambda j: j < nvars)
    if status == "unbounded":
        return "unbounded", None, None
    solution = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            solution[b] = tableau[r][-1]
    value = sum(c * v for c, v in zip(phase2, solution))
    return "optimal", value, solution


def in_hull(vertices, point):
    """Is point a convex combination of the vertices? Feasibility of
    V lam = point, sum lam = 1, lam >= 0."""
    m = len(vertices)
    s = len(vertices[0])
    rows = [[Fraction(v[j]) for v in vertices] for j in range(s)]
    rhs = [Fraction(point[j]) for j in range(s)]
    rows.append([Fraction(1)] * m)
    rhs.append(Fraction(1))
    status, _, _ = simplex_maximize(rows, rhs, [Fraction(0)] * m)
    return status == "optimal"


def in_relative_interior(vertices, point):
    """Is point in the relative interior of the hull of the vertices?

    relint(conv V) is exactly the set of convex combinations with every
    coefficient positive, so substitute lam_i = mu_i + eps and maximize
    eps; a positive optimum certifies relative interiority.
    """
    m = len(vertices)
    s = len(vertices[0])
    rows = []
    rhs = []
    for j in range(s):
        col_sum = sum(v[j] for v in vertices)
        rows.append([Fraction(v[j]) for v in vertices] + [Fraction(col_sum)])
        rhs.append(Fraction(point[j]))
    rows.append([Fraction(1)] * m + [Fraction(m)])
    rhs.append(Fraction(1))
    objective = [Fraction(0)] * m + [Fraction(1)]
    status, value, _ = simplex_maximize(rows, rhs, objective)
    return status == "optimal" and value > 0


def phase_one_feasible(rows, rhs) -> bool:
    """Has rows.y == rhs a solution y >= 0? Phase 1 of the simplex method on integers.

    Rows with a negative right-hand side are negated and an artificial
    identity is appended. The last row holds the reduced costs of
    maximizing -sum(artificials): the column sums, 0 on the artificial
    columns, and the sum of the artificials as its last entry. Bland's
    rule picks the first column with a positive reduced cost and the row
    of least ratio, ties to the lowest basis index, so no basis repeats.
    Pivots are the library's fraction-free step, looked up on the module
    at each call; each is positive, so the tableau over the last pivot
    reads with the usual signs.
    """
    m, nvars = len(rows), len(rows[0])
    mat = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        mat.append([sign * v for v in row] + [int(k == i) for k in range(m)] + [sign * b])
    sums = [sum(col) for col in zip(*mat)]
    mat.append(sums[:nvars] + [0] * m + sums[-1:])
    basis = list(range(nvars, nvars + m))
    prev = 1
    while True:
        cost = mat[-1]
        col = next((j for j in range(nvars + m) if cost[j] > 0), None)
        if col is None:
            return cost[-1] == 0
        r = None
        for i in range(m):
            a = mat[i][col]
            # least ratio mat[i][-1] / a, cross-multiplied; ties to the lower basis index
            if a > 0 and (r is None or (mat[i][-1] * mat[r][col], basis[i])
                          < (mat[r][-1] * a, basis[r])):
                r = i
        prev = geometry._pivot(mat, r, col, prev)
        basis[r] = col


def barycentric_member(vertices, point, n=1) -> bool:
    """Is the rational point in n * conv(vertices)? Feasibility of
    {n*V.lam = point, sum(lam) = 1, lam >= 0}, each row cleared of
    denominators, by phase_one_feasible."""
    n = Fraction(n)
    coords = [Fraction(c) for c in point]
    rows = [[n.numerator * x.denominator * v[j] for v in vertices] for j, x in enumerate(coords)]
    rows.append([1] * len(vertices))
    rhs = [n.denominator * x.numerator for x in coords] + [1]
    return phase_one_feasible(rows, rhs)


def _rref(rows):
    """Reduced row echelon form over Fractions; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), -1)
        if pivot < 0:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def lattice_coefficients(cols, v):
    """The rational x with v = sum of x[j] * cols[j], for independent cols, or None."""
    mat, pivots = _rref([[*entries, x] for *entries, x in zip(*cols, v)])
    if pivots != list(range(len(cols))):
        return None
    return [row[-1] for row in mat]


def lll_reduced(basis):
    """Is the basis LLL-reduced with delta 3/4? Gram-Schmidt over Fractions.

    Size reduction asks |mu[k][j]| <= 1/2 for j < k, and the Lovasz
    condition |b*_k|^2 >= (3/4 - mu[k][k-1]^2) |b*_(k-1)|^2.
    """
    star, norms, mu = [], [], []
    for b in basis:
        row = [sum(Fraction(x) * y for x, y in zip(b, g)) / n for g, n in zip(star, norms)]
        g = [Fraction(x) for x in b]
        for m, h in zip(row, star):
            g = [x - m * y for x, y in zip(g, h)]
        star.append(g)
        norms.append(sum(x * x for x in g))
        mu.append(row)
    if any(abs(m) > Fraction(1, 2) for row in mu for m in row):
        return False
    return all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, len(basis)))


def _differences(points):
    base = points[0]
    return [[a - b for a, b in zip(p, base)] for p in points[1:]]


def affine_rank(points):
    """Affine dimension of a point list (-1 when empty), from the RREF of
    the difference vectors."""
    pts = list(points)
    if not pts:
        return -1
    return len(_rref(_differences(pts))[1])


def hull_equations(vertices):
    """Affine hull equations a.x = b of a point list, sorted, each primitive
    with its first nonzero coefficient positive.

    One equation per non-pivot column f of the RREF of the difference
    vectors: 1 on f and minus each row's entry in column f on that row's
    pivot, cleared of denominators.
    """
    base = vertices[0]
    s = len(base)
    rref, pivots = _rref(_differences(vertices))
    eqs = []
    for free in (j for j in range(s) if j not in pivots):
        normal = [Fraction(0)] * s
        normal[free] = Fraction(1)
        for row, p in zip(rref, pivots):
            normal[p] = -row[free]
        values = normal + [sum(c * b for c, b in zip(normal, base))]
        den = lcm(*(v.denominator for v in values))
        ints = [int(v * den) for v in values]
        g = gcd(*ints)
        if next(v for v in ints if v != 0) < 0:
            g = -g
        eqs.append((tuple(v // g for v in ints[:-1]), ints[-1] // g))
    return tuple(sorted(eqs))


def _det(rows):
    """Determinant by Laplace expansion along the first row (small sizes only)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def brute_force_facets(vertices):
    """Facet rows (a, b), primitive a.x <= b, of a full-dimensional vertex set.

    Every s points of the set that are affinely independent span one
    hyperplane, whose normal is the vector of signed cofactors of their
    difference vectors. The hyperplane supports a facet exactly when all
    points lie on one side of it.
    """
    s = len(vertices[0])
    rows = set()
    for subset in combinations(vertices, s):
        diffs = [[a - b for a, b in zip(p, subset[0])] for p in subset[1:]]
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in diffs]) for j in range(s)]
        g = gcd(*normal)
        if g == 0:
            continue
        normal = [c // g for c in normal]
        b = sum(c * x for c, x in zip(normal, subset[0]))
        values = [sum(c * x for c, x in zip(normal, v)) for v in vertices]
        if max(values) <= b:
            rows.add((tuple(normal), b))
        elif min(values) >= b:
            rows.add((tuple(-c for c in normal), -b))
    return rows


def _tidy(cons):
    """Rows a.x <= b made primitive, tautologies dropped, the tightest rhs per normal, sorted."""
    best = {}
    for row, rhs in cons:
        g = gcd(*row)
        if g == 0:
            assert rhs >= 0, "an infeasible trivial row"
            continue
        g = gcd(g, rhs)
        key, val = tuple(v // g for v in row), rhs // g
        if key not in best or val < best[key]:
            best[key] = val
    return sorted(best.items())


def recomputed_incidence_facets(vertices):
    """Facet rows of the hull of an integer point list by a double description
    that recomputes every row's tight set over the points added so far.

    The insertion order, the ridge test and the row cap (geometry.HULL_ROWS,
    read per call) are geometry._double_description's; its tight-set masks
    and its starting simplex's [D | I] elimination are not: this route takes
    each simplex facet from the hull equation of the opposite face. Free
    coordinates and the simplex come from the RREF over Fractions;
    duplicates and tautologies are merged away after each point.
    """
    eqs = hull_equations(vertices)
    s = len(vertices[0])
    if len(eqs) == s:
        return ()
    pivots = _rref([a for a, _ in eqs])[1]
    free = [j for j in range(s) if j not in pivots]
    points = list(dict.fromkeys(tuple(v[j] for j in free) for v in vertices))
    d = len(free)

    base = points[0]
    cols = _rref([[q[j] - base[j] for q in points[1:]] for j in range(d)])[1]
    seen = [base] + [points[c + 1] for c in cols]
    rows = []
    for apex in seen:
        ((a, b),) = hull_equations([q for q in seen if q != apex])
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
                # the two rows meet in a ridge iff no third row is tight wherever both are
                if w < 0 and sum(tu & tw <= t for t in tight) == 2:
                    kept.append(([-w * x + u * y for x, y in zip(a, a2)], -w * b + u * b2))
        seen.append(q)
        rows = _tidy(kept)
        if len(rows) > geometry.HULL_ROWS:
            raise EnumerationLimitError(
                f"facet computation of {len(points)} points in dimension {d} reached "
                f"{len(rows)} double-description rows after {len(seen)} points, over "
                f"the cap of {geometry.HULL_ROWS}"
            )

    lifted = []
    for a, b in rows:
        row = [0] * s
        for j, c in zip(free, a):
            row[j] = c
        lifted.append((row, b))
    return tuple(_tidy(lifted))


def _dilated(vertices, n):
    return [tuple(n * c for c in v) for v in vertices]


def box_points(vertices, n, interior=False):
    """Lattice points of the n-th dilation by brute box scan.

    Candidates come from the integer bounding box of the dilated vertex
    set; each one is kept or dropped by an LP oracle.
    """
    if n == 0:
        zero = (0,) * len(vertices[0])
        return [] if interior and len(set(vertices)) > 1 else [zero]
    scaled = _dilated(vertices, n)
    s = len(vertices[0])
    lows = [min(v[j] for v in scaled) for j in range(s)]
    highs = [max(v[j] for v in scaled) for j in range(s)]
    member = in_relative_interior if interior else in_hull
    out = []
    for cand in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if member(scaled, cand):
            out.append(cand)
    return out


def box_weighted_sum(vertices, weight, n, interior=False):
    """Sum of the weight over the box-scan point list."""
    total = Fraction(0)
    for p in box_points(vertices, n, interior=interior):
        total += weight.eval(p)
    return total


def ambient_walk(P, n, strict):
    """Stream the lattice points of nP (of its relative interior if strict) in lex order.

    Walks every ambient coordinate with exact interval propagation; each
    hull equation enters as a pair of opposite inequality rows.
    """
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


def recursive_fibers(frame, n, strict, cap):
    """Stream the lattice points of nQ (of its interior if strict) as fibers.

    The frame's coordinates, box axes included, are walked one depth at a
    time, each value of a coordinate opening the next. A fiber (base, low,
    high) stands for the ambient points n*v0 + B y whose y differ only in
    the innermost coordinate: base + x * e for low <= x <= high, with e =
    B's last column. A cell is one value a coordinate can take after
    interval propagation; the generator returns the number of cells it
    visited and raises EnumerationLimitError once that passes cap.
    """
    v0, cols, rows, lo, hi, _ = frame[:6]
    last = len(cols) - 1
    lo, hi = [n * v for v in lo], [n * v for v in hi]
    # per depth, the rows that bound it with their rhs less the tail past
    # it; integer rows make "< rhs" the same as "<= rhs - 1"
    bounds = [
        [(i, c[k], n * (beta - tail[k + 1]) - strict)
         for i, (c, beta, tail) in enumerate(rows) if c[k]]
        for k in range(last + 1)
    ]
    steps = [[c[k] for c, _, _ in rows] for k in range(last)]
    visited = 0

    def interval(k, sums):
        nonlocal visited
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
        if low <= high:
            visited += high - low + 1
            if visited > cap:
                raise EnumerationLimitError(
                    f"lattice-point enumeration of the {'interior' if strict else 'closed'} "
                    f"dilation n={n} counted {visited} candidate cells, over "
                    f"EHRWT_MAX_POINTS={cap}; raise the cap to allow larger jobs"
                )
        return low, high

    def descend(k, base, sums):
        low, high = interval(k, sums)
        col, step = cols[k], steps[k]
        for x in range(low, high + 1):
            below = [b + x * e for b, e in zip(base, col)]
            sums_below = [p + x * c for p, c in zip(sums, step)]
            if k + 1 < last:
                yield from descend(k + 1, below, sums_below)
            else:
                low_in, high_in = interval(last, sums_below)
                if low_in <= high_in:
                    yield below, low_in, high_in

    base, sums = [n * v for v in v0], [0] * len(rows)
    if last:
        yield from descend(0, base, sums)
    else:
        low, high = interval(0, sums)
        if low <= high:
            yield base, low, high
    return visited


def pointwise_sum(P, w, n, strict):
    """Sum of w over the points of nP (of relint(nP) if strict), times w's
    denominator: the weight evaluated at each point the walk expands."""
    return sum(map(w._scaled, _walk(P, n, strict)))


def euclid_coordinates(P):
    """Q = {y in Z^d : v0 + B y in P} for v0 = P's first vertex.

    B is an integer basis of the kernel lattice of the hull equations A,
    the last d columns of a unimodular U with A U = [H | 0], found by
    Euclid's column operations (Cohen, A Course in Computational
    Algebraic Number Theory, Sec. 2.4). Returns (v0, the columns of B,
    Q's facet rows (a.B, b - a.v0), Q's coordinate rows: y_i over P's vertices).
    """
    s, v0 = P.ambient_dim, P.vertices[0]
    eqs = [a for a, _ in P.affine_hull]
    r = len(eqs)
    # each column stacks A's column over U's; inv is U^-1, updated row-wise
    cols = [[a[j] for a in eqs] + [int(i == j) for i in range(s)] for j in range(s)]
    inv = [[int(i == j) for j in range(s)] for i in range(s)]
    for i in range(r):
        for j in range(i + 1, s):
            while cols[j][i]:
                q = cols[i][i] // cols[j][i]
                cols[i] = [x - q * z for x, z in zip(cols[i], cols[j])]
                inv[j] = [x + q * z for x, z in zip(inv[j], inv[i])]
                cols[i], cols[j] = cols[j], cols[i]
                inv[i], inv[j] = inv[j], inv[i]
    basis = [tuple(c[r:]) for c in cols[r:]]
    ys = [[sum(c * (x - o) for c, x, o in zip(row, v, v0)) for row in inv[r:]] for v in P.vertices]
    rows = [
        (tuple(sum(c * e for c, e in zip(a, col)) for col in basis),
         b - sum(c * o for c, o in zip(a, v0)))
        for a, b in P.facet_inequalities
    ]
    return v0, basis, rows, [list(y) for y in zip(*ys)]


def permuted_coordinates(coords, order):
    """Q's coordinates (v0, B, rows, coordinate rows) with y_order[0],
    y_order[1], ... taken as the first, second, ...: a walk of these in index
    order walks the given ones in that order."""
    v0, basis, rows, ys = coords
    return (v0, [basis[j] for j in order], [([c[j] for j in order], b) for c, b in rows],
            [ys[j] for j in order])


def term_product(left, right):
    """Terms of the product of two weights, multiplied out term pair by
    term pair in Fractions."""
    out = {}
    for e1, c1 in left.terms.items():
        for e2, c2 in right.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in sorted(out.items()) if c != 0}


def term_sum(left, right):
    """Terms of the sum of two weights, added term by term in Fractions."""
    out = dict(left.terms)
    for e, c in right.terms.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in sorted(out.items()) if c != 0}


def term_value(weight, point):
    """Value of the weight at a point, multiplied out term by term in Fractions."""
    total = Fraction(0)
    for exps, coeff in weight.terms.items():
        for x, e in zip(point, exps):
            coeff *= Fraction(x) ** e
        total += coeff
    return total


def random_vertices(rng, s, m, lo, hi):
    """m distinct random integer points in [lo, hi]^s, sorted for determinism."""
    seen = set()
    while len(seen) < m:
        seen.add(tuple(rng.randint(lo, hi) for _ in range(s)))
    return sorted(seen)


def random_weight_terms(rng, s, max_degree, nterms):
    """Random multivariate terms: {exponents: coefficient} with small
    nonzero rational coefficients and total degree <= max_degree."""
    terms = {}
    for _ in range(nterms):
        budget = rng.randint(0, max_degree)
        exps = [0] * s
        for _ in range(budget):
            exps[rng.randrange(s)] += 1
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        terms[tuple(exps)] = Fraction(num, den)
    return terms


def random_monomial_exponents(rng, s, max_degree, total=None):
    """One exponent vector; total degree is `total` when given, otherwise
    a random value in 0..max_degree."""
    budget = rng.randint(0, max_degree) if total is None else total
    exps = [0] * s
    for _ in range(budget):
        exps[rng.randrange(s)] += 1
    return tuple(exps)


def fraction_horner(poly, value):
    """Value of a UniPoly at a rational point by Horner's rule in Fractions."""
    x = Fraction(value)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def newton_interpolate(samples):
    """Coefficients of the polynomial of degree < len(samples) through the
    given points, by Newton divided differences in Fractions expanded by
    Horner's rule; abscissae must be pairwise distinct."""
    xs = [Fraction(a) for a, _ in samples]
    diffs = [Fraction(y) for _, y in samples]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    # c_0 + (n - x_0)(c_1 + (n - x_1)(c_2 + ...)), innermost first
    coeffs = [diffs[-1]]
    for c, x in zip(reversed(diffs[:-1]), reversed(xs[:-1])):
        inner = [a - x * b for a, b in zip(coeffs, coeffs[1:])]
        coeffs = [c - x * coeffs[0]] + inner + [coeffs[-1]]
    return coeffs


def fraction_list(coeffs):
    """Coefficients as a tuple of Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def fraction_list_product(a, b):
    """Coefficients of the product of two coefficient lists, multiplied out in Fractions."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    return fraction_list(out)


def fraction_weight_parts(pairs):
    """Terms, common denominator and integer numerators of a weight given
    as (exponents, coefficient) pairs that may repeat an exponent vector:
    each coefficient is added to a fresh Fraction(0) and scaled by
    int(c * den), den the lcm of the summed coefficients' denominators."""
    clean = {}
    for exps, coeff in pairs:
        c = Fraction(coeff)
        if c != 0:
            clean[tuple(exps)] = clean.get(tuple(exps), Fraction(0)) + c
    terms = {e: c for e, c in sorted(clean.items()) if c != 0}
    den = lcm(*(c.denominator for c in terms.values()))
    scaled = {e: int(c * den) for e, c in terms.items()}
    return terms, den, scaled


def closed_node_polynomial(P, w):
    """The polynomial matching n -> weighted_sum(P, w, n) on all n >= 0.

    Interpolated at n = 1..dim+deg+1 and cross-checked at n = 0 and
    n = dim+deg+2; a mismatch raises ConsistencyError because it can
    only mean a broken degree bound or a broken enumerator.
    """
    _check_space(P, w)
    if w.is_zero:
        return UniPoly()
    bound = P.dim + w.degree
    samples = [(n, weighted_sum(P, w, n)) for n in range(1, bound + 2)]
    poly = lagrange_interpolate(samples)
    for probe in (0, bound + 2):
        value, enumerated = poly(probe), weighted_sum(P, w, probe)
        if value != enumerated:
            raise ConsistencyError(
                f"interpolated counting polynomial fails at n={probe}; "
                f"degree bound or enumeration is wrong: vertices {list(P.vertices)}, "
                f"weight {w!r}, interpolated {value}, enumerated {enumerated}"
            )
    return poly


class _ImageCounts(dict):
    """hilbert_value of one (P, W) by dilation, each computed on first use.

    One table serves the CLI's value table, the fit and the series of a
    call, so no dilation is enumerated twice.
    """

    def __init__(self, P, W):
        super().__init__()
        self.P, self.W = P, W

    def __missing__(self, n):
        self[n] = count = hilbert_value(self.P, self.W, n)
        return count


def _fit(counts, max_onset, margin):
    """hilbert_polynomial on a table that the caller may read from too."""
    P, W = counts.P, counts.W
    _check_input(P, W)
    if not isinstance(max_onset, int) or max_onset < 0:
        raise ValueError("max_onset must be a nonnegative integer")
    if not isinstance(margin, int) or margin < 1:
        raise ValueError("margin must be a positive integer")
    image = image_polytope(P, W)
    degree = image.dim
    for start in range(1, max_onset + 1):
        window = [(n, counts[n]) for n in range(start, start + degree + 1)]
        fit = lagrange_interpolate(window)
        probes = range(start + degree + 1, start + degree + 1 + margin)
        if all(fit(n) == counts[n] for n in probes) and (
                fit.coefficient(degree) == _image_count_lead(P, W, image)):
            onset = start
            while onset > 0 and fit(onset - 1) == counts[onset - 1]:
                onset -= 1
            return fit, onset
    raise UndeterminedFitError(
        f"image count did not stabilize on any window with onset <= {max_onset}; "
        "raise max_onset to keep searching",
        counts,
    )


def _image_count_lead(P, W, image):
    """The degree-D coefficient of the image count: the lead of W(P)'s
    counting polynomial from closed nodes, over the gcd of the D x D minors
    of W B by Laplace expansion, B the Euclid basis of P's lattice."""
    degree = image.dim
    basis = euclid_coordinates(P)[1]
    WB = [[sum(a * b for a, b in zip(row, col)) for col in basis] for row in W.rows]
    idx = gcd(*(_det([[WB[i][j] for j in cols] for i in rows])
                for rows in combinations(range(len(WB)), degree)
                for cols in combinations(range(len(basis)), degree)))
    counting = closed_node_polynomial(image, WeightPoly.constant(image.ambient_dim, 1))
    return counting.coefficient(degree) / idx


def _series_of_fit(counts, fit, onset):
    """hilbert_series from a fit and onset that _fit returned on the same table.

    _fit checked counts[n] == fit(n) from the onset through its window, so
    the difference transform of counts[0 .. onset + deg fit] is the series.
    """
    series = _series_of_values([counts[n] for n in range(onset + fit.degree + 1)], 1, fit.degree)
    numerator = series.numerator
    if any(c.denominator != 1 for c in numerator.coeffs):
        raise ConsistencyError("series numerator has non-integer coefficients")
    if numerator and numerator(1) == 0:
        raise ConsistencyError("series numerator vanishes at 1 after reduction")
    return series


def window_fit(P, W, max_onset):
    """(counts, fit, onset, series) of the image count by interpolated windows.

    Each start's window of deg + 1 counts is interpolated over Fractions,
    accepted when the interpolant matches the next FIT_MARGIN counts and
    leads with _image_count_lead, and walked back by evaluating it; the
    series is the difference transform of the counts up to the onset plus
    the fit's own degree. ``counts``
    holds every dilation read, in the order first read; on failure the
    UndeterminedFitError carries the same table as its samples.
    """
    counts = _ImageCounts(P, W)
    fit, onset = _fit(counts, max_onset, FIT_MARGIN)
    return counts, fit, onset, _series_of_fit(counts, fit, onset)


_TOKEN_RE = re.compile(r"t[0-9]+|[0-9]+|[-+*/^()]")


def _tokenize(text: str):
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise WeightParseError(f"unexpected character {ch!r}", pos)
        tok = m.group()
        if tok[0] == "t":
            tokens.append(("var", tok, pos))
        elif tok[0].isdigit():
            tokens.append(("num", tok, pos))
        else:
            tokens.append(("op", tok, pos))
        pos = m.end()
    tokens.append(("end", "", length))
    return tokens


class _WeightParser:
    """Recursive-descent parser for weight expressions over t1..ts.

    Grammar (a strict superset of the documented surface syntax):

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := '-'* atom ('^' uint)?
        atom   := uint ('/' uint)? | 'txx' | '(' expr ')'

    The exponent binds tighter than a prefix sign, so -2^2 is -4.
    """

    def __init__(self, text: str, nvars: int):
        self._tokens = _tokenize(text)
        self._index = 0
        self._nvars = nvars

    def _peek(self):
        return self._tokens[self._index]

    def _take(self):
        tok = self._tokens[self._index]
        self._index += 1
        return tok

    def parse(self) -> WeightPoly:
        try:
            value = self._expr()
        except RecursionError:
            # each '(' costs a few stack frames; name the token where they ran out
            raise WeightParseError("expression nests too deeply", self._peek()[2]) from None
        kind, text, pos = self._peek()
        if kind != "end":
            raise WeightParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def _expr(self) -> WeightPoly:
        sign = 1
        kind, text, _ = self._peek()
        if kind == "op" and text in "+-":
            self._take()
            if text == "-":
                sign = -1
        value = self._term() if sign == 1 else -self._term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._take()
                rhs = self._term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def _term(self) -> WeightPoly:
        value = self._factor()
        while True:
            kind, text, pos = self._peek()
            if kind == "op" and text == "*":
                self._take()
                rhs = self._factor()
                # checked before multiplying, so an over-cap product is never built
                _check_cap("total degree", value.degree + rhs.degree, pos)
                value = value * rhs
            else:
                return value

    def _factor(self) -> WeightPoly:
        sign = 1
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text == "-":
                self._take()
                sign = -sign
            else:
                break
        value = self._atom()
        kind, text, op_pos = self._peek()
        if kind == "op" and text == "^":
            self._take()
            kind, text, pos = self._peek()
            if kind != "num":
                raise WeightParseError("exponent must be a nonnegative integer", pos)
            self._take()
            exponent = int(text)
            _check_cap("exponent", exponent, pos)
            _check_cap("total degree", max(value.degree, 0) * exponent, op_pos)
            _check_bits(op_pos, _bits((value._num, value._den)) * exponent)
            value = value**exponent
        return value if sign == 1 else -value

    def _atom(self) -> WeightPoly:
        kind, text, pos = self._take()
        if kind == "num":
            numerator = int(text)
            nk, nt, npos = self._peek()
            if nk == "op" and nt == "/":
                self._take()
                dk, dt, dpos = self._peek()
                if dk != "num":
                    raise WeightParseError("expected an integer denominator", dpos)
                self._take()
                if int(dt) == 0:
                    raise WeightParseError("division by zero", dpos)
                return WeightPoly.constant(self._nvars, Fraction(numerator, int(dt)))
            return WeightPoly.constant(self._nvars, numerator)
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self._nvars:
                raise WeightParseError(
                    f"variable {text} out of range (expected t1..t{self._nvars})", pos
                )
            return WeightPoly.variable(index, self._nvars)
        if kind == "op" and text == "(":
            value = self._expr()
            kind, text, pos = self._peek()
            if not (kind == "op" and text == ")"):
                raise WeightParseError("expected ')'", pos)
            self._take()
            return value
        raise WeightParseError(
            "expected a number, a variable, or a parenthesized expression", pos
        )


def oracle_parse_weight(text: str, nvars: int) -> WeightPoly:
    """Parse a weight expression over variables t1..t(nvars).

    The syntax covers sums, differences, products, integer/rational
    constants like 2/5, and exponents, e.g. "t1^2*t2^2 - 1/3*(t1+1)".
    Raises :class:`WeightParseError` with the offending position.
    """
    if not isinstance(nvars, int) or nvars < 1:
        raise ValueError("nvars must be a positive integer")
    # normalize the unicode minus so pasted formulas survive
    return _WeightParser(text.replace("−", "-"), nvars).parse()


def jsonable(value):
    """Plain JSON data of a CLI handler result, for json.dumps to indent."""
    if isinstance(value, UniPoly):
        return {"coeffs": [str(c) for c in value.coeffs]}
    if isinstance(value, RationalGF):
        return {
            "numerator_coeffs": [str(c) for c in value.numerator.coeffs],
            "denom_power": value.denom_power,
        }
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
