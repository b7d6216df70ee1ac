"""Seeded input generators for the benchmark workloads.

The same workload, seed and run length always give the same inputs.
Only the standard library is used here: ehrwt receives nothing but the
generated vertex lists, weight strings, linear forms and argument
vectors, so generating inputs warms none of its caches.

A spec is ``{"workload": name, "groups": [...], "properties": {...}}``.
Each group holds one vertex list and the requests issued on it; a
request is a list of ops, and an op is a list whose first entry names
it (see ``client.py``). No vertex list occurs in two groups of a spec,
so no timed request is served from a cache filled by another polytope
request; the requests of one group share their polytope on purpose.

List sizes scale with the run length. They are set so that one worker
finishes its list in about half of the run length in reference-host
seconds (see speed.py) at the commit that introduced the benchmark.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

# Criterion 3: a 5-dimensional polytope in Z^7 (a 4-cycle and a triangle).
CRITERION3 = (
    (1, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 0, 1),
)
CRITERION3_WEIGHT = "*".join(f"t{i}" for i in range(1, 8))
# The 5,040 column orders of CRITERION3 give 105 distinct vertex sets, and
# the enumerator's work differs between them by up to 2x: 78,729 to
# 159,579 candidate cells over n = 0, 2, ..., 12 at the commit that
# introduced the benchmark. Runs draw from the 24 vertex sets within 3% of
# the median (113,225 to 119,777 cells), each named here by one column
# order, so the seed does not set the cost of a run.
CRITERION3_POOL = (
    "0245136", "4025136", "0425136", "4052136", "0452136", "0241536",
    "4502136", "4021536", "0421536", "4012536", "0412536", "0245163",
    "4025163", "0425163", "4052163", "0452163", "0145263", "0145362",
    "0241563", "4502163", "4021563", "0421563", "4012563", "0412563",
)

# Fixed golden members of small_batch; verify.py holds their answers.
GOLDEN_SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
GOLDEN_SQUARE_WEIGHT = "(t1*t2)^4"
GOLDEN_WEDGE = ((1, 1), (3, 0), (2, 3))
GOLDEN_WEDGE_FORMS = ((1, 2),)
GOLDEN_CUBE = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))

LOWDIM_JOBS_PER_S = 1 / 6
# (s, m): (polytopes per HULL_REFERENCE_S seconds, facet-count quota).
# Most polytopes are cheap 3-dim ones, so the median job falls inside
# one class rather than between two: as many (3, 5) polytopes with 4 or
# 5 facets are faster than the 6-facet block as there are polytopes of
# the other classes slower than it, which puts the median near the
# middle of the block. The (4, 7) and (5, 7) block holds a fifth of the
# list, so the tenth slowest falls near its middle. (5, 8) is left out:
# one such polytope took a fifth of a list's time, and its cost varied
# with the seed.
HULL_REFERENCE_S = 36
HULL_CLASSES = {
    (3, 5): (110, (4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6)),
    (3, 6): (15, (6, 6, 7, 7, 8, 8, 8, 8, 8, 8)),
    (4, 6): (15, (7, 8, 8, 8, 8, 9, 9, 9, 9, 9)),
    (4, 7): (18, (10, 11, 12, 12, 12, 12, 13, 13, 13, 14)),
    (5, 7): (18, (10, 10, 12, 12, 12, 12, 12, 12, 12, 12)),
}
HULL_COORD_MAX = 6
HULL_QUERIES = 8
SMALL_POLYTOPES_PER_S = 5


def affine_rank(points) -> int:
    """Affine dimension of a point list by exact elimination; -1 if empty."""
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _det(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def facet_rows(points) -> set:
    """Facets of a full-dimensional point set as primitive rows (a, b), a.x <= b.

    Brute force, independent of ehrwt: every s-subset that spans a
    hyperplane gives a normal by cofactors, kept when all points lie on
    one side of it.
    """
    s = len(points[0])
    rows = set()
    for subset in combinations(points, s):
        diffs = [[a - b for a, b in zip(p, subset[0])] for p in subset[1:]]
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in diffs]) for j in range(s)]
        g = 0
        for c in normal:
            g = gcd(g, c)
        if g == 0:
            continue
        normal = [c // g for c in normal]
        b = sum(c * x for c, x in zip(normal, subset[0]))
        values = [sum(c * x for c, x in zip(normal, p)) for p in points]
        if max(values) <= b:
            rows.add((tuple(normal), b))
        elif min(values) >= b:
            rows.add((tuple(-c for c in normal), -b))
    return rows


def _distinct_points(rng, s, m, hi):
    seen = set()
    while len(seen) < m:
        seen.add(tuple(rng.randint(0, hi) for _ in range(s)))
    return sorted(seen)


def _vertex_text(vertices) -> str:
    return "; ".join(" ".join(str(c) for c in v) for v in vertices)


def _vertex_set(perm):
    return frozenset(tuple(v[j] for j in perm) for v in CRITERION3)


def lowdim_weighted(rng: random.Random, seconds: int) -> dict:
    """Criterion 3 with weight t1*...*t7 under seeded coordinate permutations.

    The weight is symmetric, so every permutation has the same closed
    form. Each job draws a distinct vertex set of ``CRITERION3_POOL``,
    then one of the column orders that give that set, so no two jobs of
    a list share a polytope. The pool bounds the list at 24 jobs.
    """
    jobs = min(len(CRITERION3_POOL), max(1, round(seconds * LOWDIM_JOBS_PER_S)))
    members = {}
    for perm in permutations(range(7)):
        members.setdefault(_vertex_set(perm), []).append(perm)
    groups = []
    for name in rng.sample(CRITERION3_POOL, jobs):
        perm = rng.choice(members[_vertex_set([int(c) for c in name])])
        vertices = [[v[j] for j in perm] for v in CRITERION3]
        groups.append({
            "vertices": vertices,
            "requests": [[["weighted", CRITERION3_WEIGHT], ["ehrhart"]]],
        })
    return {
        "workload": "lowdim_weighted",
        "groups": groups,
        "properties": {"ambient_dim": 7, "dim": 5, "full_dim_share": 0.0,
                       "requests": jobs, "polytopes": jobs},
    }


def hull_random(rng: random.Random, seconds: int) -> dict:
    """Random full-dimensional vertex sets, a facets call and contains queries each.

    Facet time varies mostly with the facet count, so the batch is
    stratified by it: the i-th polytope of class (s, m) is drawn until
    its facet count (by ``facet_rows``, not by ehrwt) is the i-th entry
    of the class's quota, cycled. Apart from (3, 5) (see
    ``HULL_CLASSES``), the quotas follow the facet-count distribution of
    2,000 unconstrained draws per class. Every seed gets the same class
    and facet-count mix. Half the queries are random box points, half
    are rounded convex combinations of the vertices, which land inside
    or on the boundary more often.
    """
    scale = seconds / HULL_REFERENCE_S
    seen = set()
    groups = []
    for (s, m), (count, quota) in HULL_CLASSES.items():
        for i in range(max(1, round(count * scale))):
            while True:
                vertices = _distinct_points(rng, s, m, HULL_COORD_MAX)
                key = tuple(vertices)
                if (key not in seen and affine_rank(vertices) == s
                        and len(facet_rows(vertices)) == quota[i % len(quota)]):
                    break
            seen.add(key)
            queries = []
            for k in range(HULL_QUERIES):
                if k % 2 == 0:
                    q = [rng.randint(-1, HULL_COORD_MAX + 1) for _ in range(s)]
                else:
                    lam = [rng.randint(0, 3) for _ in vertices]
                    total = sum(lam) or 1
                    q = [sum(l * v[j] for l, v in zip(lam, vertices)) // total
                         for j in range(s)]
                queries.append(q)
            ops = [["facets"]] + [["contains", q] for q in queries]
            groups.append({"vertices": vertices, "requests": [ops]})
    return {
        "workload": "hull_random",
        "groups": groups,
        "properties": {"ambient_dims": [3, 4, 5], "full_dim_share": 1.0,
                       "requests": len(groups), "polytopes": len(groups),
                       "contains_queries": len(groups) * HULL_QUERIES},
    }


def _monomial(rng, s, degree):
    exps = [0] * s
    for _ in range(degree):
        exps[rng.randrange(s)] += 1
    factors = [f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(exps) if e]
    return "*".join(factors) or "1"


def _homogeneous_weight(rng, s, degree):
    """Nonnegative homogeneous weight of the given degree (hypothesis of the checks)."""
    terms = [f"{rng.randint(1, 3)}*{_monomial(rng, s, degree)}"
             for _ in range(rng.randint(1, 2))]
    return " + ".join(terms)


def _general_weight(rng, s, degree):
    """Weight of the given degree with rational and negative coefficients."""
    terms = []
    for k in range(rng.randint(2, 3)):
        coeff = f"{rng.randint(1, 5)}/{rng.choice([1, 2, 3])}"
        sign = rng.choice(["+", "+", "-"])
        term_degree = degree if k == 0 else rng.randint(0, degree)
        terms.append(f"{sign} {coeff}*{_monomial(rng, s, term_degree)}")
    return " ".join(terms).lstrip("+ ")


def _small_polytope(rng, s, full, extra, hi):
    """``extra`` (0 or 1) is the number of points beyond a simplex's."""
    if full:
        while True:
            vertices = _distinct_points(rng, s, s + 1 + extra, hi)
            if affine_rank(vertices) == s:
                return vertices
    if s == 1:
        return [[rng.randint(0, hi)]]
    # lower-dimensional: points of an (s-1)-dim set lifted by a fixed
    # integer affine map into the last coordinate
    while True:
        base = _distinct_points(rng, s - 1, s + extra, hi)
        j = rng.randrange(s - 1)
        offset = rng.randint(0, 1)
        vertices = sorted(list(p) + [p[j] + offset] for p in base)
        if affine_rank(vertices) == s - 1:
            return vertices


def small_batch(rng: random.Random, seconds: int) -> dict:
    """Seeded small polytopes (s <= 3, every other one full-dimensional).

    The shape of the i-th polytope is fixed by i, so every seed gets the
    same mix and only coordinates and coefficients vary: s cycles
    through 1, 2, 3, full and lower-dimensional alternate, the point
    count beyond a simplex's alternates every 6 polytopes and the degree
    of the weights cycles through 1..3 every 12.

    Per polytope: three weights on the same P (the third a linear
    combination of the first two), an affine lift, the reciprocity and
    vanishing checks when P is full-dimensional, and a Hilbert series.
    Every fourth polytope also goes through the CLI in text and JSON.
    The three goldens come first.
    """
    count = max(1, round(seconds * SMALL_POLYTOPES_PER_S))
    groups = [
        {"vertices": GOLDEN_SQUARE, "golden": "square",
         "requests": [[["weighted", GOLDEN_SQUARE_WEIGHT]]]},
        {"vertices": GOLDEN_WEDGE, "golden": "wedge",
         "requests": [[["hilbert", GOLDEN_WEDGE_FORMS]]]},
        {"vertices": GOLDEN_CUBE, "golden": "cube", "requests": [[["ehrhart"]]]},
    ]
    seen = {tuple(map(tuple, g["vertices"])) for g in groups}
    full_count = 0
    for i in range(count):
        s = 1 + i % 3
        full = i % 2 == 0
        # a small box for s = 3 and 0/1 lift coefficients keep a few large
        # lifts from dominating the batch's time and memory
        hi = 4 if s < 3 else 2
        while True:
            vertices = _small_polytope(rng, s, full, (i // 6) % 2, hi)
            key = tuple(map(tuple, vertices))
            if key not in seen:
                break
            hi += 1  # small boxes run out of fresh polytopes in long runs
        seen.add(key)
        full_count += full
        degree = 1 + (i // 12) % 3
        w1 = _homogeneous_weight(rng, s, degree)
        w2 = _general_weight(rng, s, degree)
        a, b = rng.randint(1, 3), Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        w3 = f"{a}*({w1}) + {b}*({w2})"
        coeffs = [rng.randint(0, 1) for _ in range(s)]
        if not any(coeffs):
            coeffs[rng.randrange(s)] = 1
        offset = str(Fraction(rng.randint(-2, 4), rng.choice([1, 1, 2])))
        forms = [[rng.randint(0, 2) for _ in range(s)] for _ in range(rng.choice([1, 1, 2]))]
        for row in forms:
            if not any(row):
                row[rng.randrange(s)] = 1
        requests = [[["weighted", w]] for w in (w1, w2, w3)]
        requests.append([["lift", coeffs, offset]])
        if full:
            requests.append([["check", w1]])
        requests.append([["hilbert", forms]])
        if i % 4 == 0:
            text = _vertex_text(vertices)
            w4 = _homogeneous_weight(rng, s, degree)
            argv = ["weighted", "--vertices", text, "--weight", w4]
            requests.append([["cli", argv + (["--check"] if full else [])]])
            w5 = _general_weight(rng, s, degree)
            argv = ["weighted", "--vertices", text, "--weight", w5, "--format", "json"]
            requests.append([["cli", argv]])
        groups.append({"vertices": vertices, "full": full, "linear": [a, str(b)],
                       "requests": requests})
    return {
        "workload": "small_batch",
        "groups": groups,
        "properties": {"ambient_dims": [1, 2, 3], "full_dim_share": full_count / count,
                       "requests": sum(len(g["requests"]) for g in groups),
                       "polytopes": len(groups)},
    }


WORKLOADS = {
    "lowdim_weighted": lowdim_weighted,
    "hull_random": hull_random,
    "small_batch": small_batch,
}


def make_spec(workload: str, seed: int, seconds: int) -> dict:
    """The input spec of one run; depends only on its three arguments."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), seconds)
