"""Checks of every request's results by a route independent of the one timed.

Runs in the worker after the timed loop. Each check returns a list of
``(request key, message)`` failures; a request key is ``(group, request)``.

- lowdim_weighted: the criterion-3 closed forms, evaluated with plain
  fractions, and ``expand`` of each series against the polynomial.
- hull_random: every vertex satisfies every row, each inequality is
  tight on a vertex subset of affine rank dim-1, the equation count
  matches the vertex rank, the rows equal the brute-force facets of
  ``inputs.facet_rows``, and ``contains`` (a barycentric LP) agrees
  with the row system on every query point.
- small_batch: linearity across the shared weights, the lift against
  interpolation, series against polynomial values, box-scan sums at
  n = 1 and 2 with ``contains`` as the membership oracle, the check
  reports, image counts from the box scan, CLI output against the
  library, and the fixed goldens.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from ehrwt import contains, eval_weight, expand, format_polynomial, parse_weight
from ehrwt import weighted_ehrhart_polynomial

from inputs import affine_rank, facet_rows


def _series_matches(series, poly, count=8) -> bool:
    return expand(series, count) == [poly(n) for n in range(count + 1)]


# ------------------------------------------------------------ lowdim_weighted


def _criterion3_count(n):
    return Fraction((n + 1) * (n + 2) * (n + 3) * (n + 4) * (2 * n + 5), 120)


def _criterion3_weighted(n):
    shifted = 1
    for r in (0, -3, -2, -1, 1, 2, 3, 4):
        shifted *= n + r
    quartic = -810 + 122 * n - 143 * n**2 + 40 * n**3 + 35 * n**4
    return Fraction(shifted * quartic, 59875200)


def _lowdim(g, group, P, results):
    weighted, plain = results[0]
    failures = []
    for name, res, closed, degree in (("weighted", weighted, _criterion3_weighted, 12),
                                      ("unweighted", plain, _criterion3_count, 5)):
        poly = res["poly"]
        # degree <= 12 and 21 matching values pin the polynomial down
        if poly.degree > degree or any(poly(n) != closed(n) for n in range(21)):
            failures.append(((g, 0), f"{name} polynomial differs from the closed form"))
        if not _series_matches(res["series"], poly, 16):
            failures.append(((g, 0), f"{name} series does not expand to the polynomial"))
    return failures


# ------------------------------------------------------------ hull_random


def _dot(row, point):
    return sum(a * x for a, x in zip(row, point))


def _hull(g, group, P, results):
    ops = results[0]
    vertices = [tuple(v) for v in group["vertices"]]
    eqs, ineqs = ops[0]["equations"], ops[0]["inequalities"]
    dim = affine_rank(vertices)
    problems = []
    if len(vertices[0]) - len(eqs) != dim:
        problems.append(f"{len(eqs)} hull equations for a {dim}-dim vertex set")
    if any(_dot(a, v) != b for a, b in eqs for v in vertices):
        problems.append("a vertex violates a hull equation")
    if len(set(map(tuple, ineqs))) != len(ineqs):
        problems.append("repeated inequality row")
    if not eqs and {(tuple(a), b) for a, b in ineqs} != facet_rows(vertices):
        problems.append("facet rows differ from the brute-force facets")
    for a, b in ineqs:
        if any(_dot(a, v) > b for v in vertices):
            problems.append(f"a vertex violates the row {a} <= {b}")
        elif affine_rank([v for v in vertices if _dot(a, v) == b]) != dim - 1:
            problems.append(f"the row {a} <= {b} is not tight on a facet")
    for (_, point), res in zip(group["requests"][0][1:], ops[1:]):
        inside = (all(_dot(a, point) == b for a, b in eqs)
                  and all(_dot(a, point) <= b for a, b in ineqs))
        if res["inside"] != inside:
            problems.append(f"contains({point}) = {res['inside']} disagrees with the rows")
    return [((g, 0), p) for p in problems]


# ------------------------------------------------------------ small_batch

_SQUARE_POLY = [0, 0, Fraction(1, 900), 0, Fraction(-1, 45), Fraction(-1, 30),
                Fraction(22, 225), Fraction(1, 3), Fraction(23, 60), Fraction(1, 5),
                Fraction(1, 25)]
_SQUARE_SERIES = ([0, 1, 278, 6480, 35402, 60830, 35402, 6480, 278, 1], 11)
_WEDGE_SERIES = ([1, 2, 2], 2)
_CUBE_SERIES = ([1, 4, 1], 4)


def _series_is(series, numerator, power) -> bool:
    return list(series.numerator.coeffs) == numerator and series.denom_power == power


def _golden(g, group, results):
    res = results[0][0]
    name = group["golden"]
    if name == "square":
        ok = (list(res["poly"].coeffs) == _SQUARE_POLY
              and _series_is(res["series"], *_SQUARE_SERIES))
    elif name == "wedge":
        ok = _series_is(res["series"], *_WEDGE_SERIES)
    else:
        ok = (all(res["poly"](n) == (n + 1) ** 3 for n in range(8))
              and res["poly"].degree == 3 and _series_is(res["series"], *_CUBE_SERIES))
    return [] if ok else [((g, 0), f"golden {name} differs")]


def box_points(P, vertices, n):
    """Lattice points of nP by scanning the bounding box with an LP oracle."""
    s = len(vertices[0])
    ranges = [range(n * min(v[j] for v in vertices), n * max(v[j] for v in vertices) + 1)
              for j in range(s)]
    return [q for q in product(*ranges) if contains(P, q, n)]


def _box_sums_match(w, poly, boxes) -> bool:
    return all(sum((eval_weight(w, a) for a in pts), Fraction(0)) == poly(n)
               for n, pts in boxes.items())


def _small(g, group, P, results):
    if "golden" in group:
        return _golden(g, group, results)
    vertices = [tuple(v) for v in group["vertices"]]
    s = len(vertices[0])
    boxes = {n: box_points(P, vertices, n) for n in (1, 2)}
    failures = []
    weighted = []
    for r, (ops, res) in enumerate(zip(group["requests"], results)):
        kind, args, res = ops[0][0], ops[0][1:], res[0]
        problem = None
        if kind == "weighted":
            weighted.append((r, res["poly"]))
            if not _series_matches(res["series"], res["poly"]):
                problem = "series does not expand to the polynomial"
            elif not _box_sums_match(res["w"], res["poly"], boxes):
                problem = "polynomial disagrees with the box-scan sums"
        elif kind == "lift":
            coeffs, offset = args
            text = " + ".join(f"{c}*t{i + 1}" for i, c in enumerate(coeffs)) + f" + {offset}"
            if res["poly"] != weighted_ehrhart_polynomial(P, parse_weight(text, s)):
                problem = "lift route disagrees with interpolation"
        elif kind == "check":
            if not all(a == b for _, a, b in res["reciprocity"]):
                problem = "reciprocity fails"
            elif any(v != 0 for _, v in res["vanishing"]):
                problem = "weighted count does not vanish at a negative root"
        elif kind == "hilbert":
            forms = args[0]
            images = [1] + [len({tuple(_dot(row, a) for row in forms) for a in boxes[n]})
                            for n in (1, 2)]
            if expand(res["series"], 2) != images:
                problem = "image counts disagree with the box scan"
        elif kind == "cli":
            problem = _cli(args[0], res, P, s, boxes)
        if problem:
            failures.append(((g, r), problem))
    (r1, p1), (_, p2), (r3, p3) = weighted
    a, b = group["linear"][0], Fraction(group["linear"][1])
    if any(p3(n) != a * p1(n) + b * p2(n) for n in range(8)) or p3.degree > 6:
        failures.append(((g, r3), "third weight's polynomial is not linear in the others"))
    return failures


def _cli(argv, res, P, s, boxes):
    if res["code"] != 0:
        return f"exit code {res['code']}: {res['err'].strip()}"
    w = parse_weight(argv[argv.index("--weight") + 1], s)
    poly = weighted_ehrhart_polynomial(P, w)
    if not _box_sums_match(w, poly, boxes):
        return "polynomial disagrees with the box-scan sums"
    if "json" in argv:
        coeffs = json.loads(res["out"])["polynomial"]["coeffs"]
        if coeffs != [str(c) for c in poly.coeffs]:
            return "JSON polynomial differs from the library's"
    else:
        if f"polynomial: {format_polynomial(poly)}\n" not in res["out"]:
            return "text polynomial differs from the library's"
        if "--check" in argv and "all checks passed: yes" not in res["out"]:
            return "CLI checks did not pass"
    return None


VERIFIERS = {"lowdim_weighted": _lowdim, "hull_random": _hull, "small_batch": _small}


def verify(spec, polytopes, results) -> list:
    """Failures of a worker's results; requests that raised are skipped."""
    check = VERIFIERS[spec["workload"]]
    failures = []
    for g, (group, P, res) in enumerate(zip(spec["groups"], polytopes, results)):
        if P is None or any(r is None for r in res):
            continue
        failures += check(g, group, P, res)
    return failures
