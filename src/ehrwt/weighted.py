"""Weighted lattice-point counts of polytope dilations, exactly.

The central object is the polynomial that agrees with

    n  |->  sum of w(a) over the lattice points a of the n-th dilation

for every nonnegative integer n; its degree is at most dim(P) + deg(w).
It is interpolated exactly at N = dim+deg+1 nodes: closed walks of nP at
n = 1..floor(N/2), and at n = -1..-ceil(N/2) the reciprocity value
(-1)^dim * sum of w(-x) over relint(|n|P) (Stanley, Adv. Math. 14, 1974;
Beck-Robins, ch. 4). Closed walks at the reserved points n = 0 and
n = dim+deg+2 validate it, so a silent enumeration or degree-bound failure
cannot slip through. Lifts give a second, independent route for weights of
degree at most one. The checks read the polynomial at negative integers.
The reciprocity check interpolates from closed nodes only; the
root-vanishing check does so for the plain count, while its weighted count
is the reciprocity-node polynomial, validated by its closed probes. Each
sum is taken per fiber of the walk, in integers over w's denominator.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import ConsistencyError
from .geometry import (
    Graph,
    LatticePolytope,
    _require_edge_cover,
    _walk,
    _walk_sum,
    bipartite_components,
    require_nonnegative_vertices,
)
from .polynomials import (
    RationalGF,
    UniPoly,
    WeightPoly,
    _exact,
    gf_of_polynomial,
    lagrange_interpolate,
)

__all__ = [
    "weighted_sum",
    "weighted_ehrhart_polynomial",
    "ehrhart_polynomial",
    "weighted_series",
    "linear_lift",
    "affine_lift_polytope",
    "weighted_by_affine_lift",
    "predicted_degree",
    "integral_leading",
    "check_negative_root_vanishing",
    "reciprocity_check",
    "VanishingReport",
    "RootEntry",
    "ReciprocityReport",
    "ReciprocityEntry",
]


def _check_space(P: LatticePolytope, w: WeightPoly) -> None:
    if w.nvars != P.ambient_dim:
        raise ValueError(
            f"weight has {w.nvars} variables but the polytope lives in dimension {P.ambient_dim}"
        )


def _sum(P: LatticePolytope, w: WeightPoly, n: int, strict: bool) -> Fraction:
    return Fraction(_walk_sum(P, n, strict, w._num.items()), w._den)


def weighted_sum(P: LatticePolytope, w: WeightPoly, n: int) -> Fraction:
    """Sum of w over the lattice points of the n-th dilation (n >= 0)."""
    _check_space(P, w)
    if not isinstance(n, int) or n < 0:
        raise ValueError("dilation factor must be a nonnegative integer")
    if w.is_zero:
        return Fraction(0)
    return _sum(P, w, n, False)


def _interpolated(P: LatticePolytope, w: WeightPoly, nodes) -> UniPoly:
    """The counting polynomial of a nonzero w through nodes n >= 1 (closed
    walks) and n <= -1 (by reciprocity), then probed by closed walks.
    """
    signed = {e: (-1) ** sum(e) * c for e, c in w._num.items()}
    reflected = WeightPoly._of(w.nvars, signed, w._den)
    samples = [
        (n, _sum(P, w, n, False) if n > 0 else (-1) ** P.dim * _sum(P, reflected, -n, True))
        for n in nodes
    ]
    poly = lagrange_interpolate(samples)
    for probe in (0, P.dim + w.degree + 2):
        value, enumerated = poly(probe), _sum(P, w, probe, False)
        if value != enumerated:
            table = ", ".join(f"({n}, {v})" for n, v in samples)
            raise ConsistencyError(
                f"interpolated counting polynomial fails at n={probe}; "
                f"degree bound or enumeration is wrong: vertices {list(P.vertices)}, "
                f"weight {w!r}, interpolated {value}, enumerated {enumerated}; "
                f"nodes (n, value), n < 0 from interior walks: [{table}]"
            )
    return poly


@lru_cache(maxsize=256)  # bounded: a long-lived process must not keep every P it saw
def weighted_ehrhart_polynomial(P: LatticePolytope, w: WeightPoly) -> UniPoly:
    """The polynomial matching n -> weighted_sum(P, w, n) on all n >= 0.

    Of its N = dim+deg+1 nodes, n = 1..floor(N/2) are closed walks and
    n = -1..-ceil(N/2) are interior walks of the small dilations |n|P,
    by reciprocity. Cross-checked by closed walks at n = 0 and
    n = dim+deg+2; a mismatch raises ConsistencyError because it can
    only mean a broken degree bound or a broken enumerator.
    """
    _check_space(P, w)
    if w.is_zero:
        return UniPoly()
    count = P.dim + w.degree + 1
    closed = count // 2
    return _interpolated(P, w, [*range(1, closed + 1), *range(-1, closed - count - 1, -1)])


def ehrhart_polynomial(P: LatticePolytope) -> UniPoly:
    """Unweighted counting polynomial (weight identically 1)."""
    return weighted_ehrhart_polynomial(P, WeightPoly.constant(P.ambient_dim, 1))


def weighted_series(P: LatticePolytope, w: WeightPoly) -> RationalGF:
    """Generating function sum_n weighted_sum(P, w, n) x^n in canonical form."""
    return gf_of_polynomial(weighted_ehrhart_polynomial(P, w))


def linear_lift(P: LatticePolytope, w: WeightPoly) -> LatticePolytope:
    """One-dimension-higher polytope whose slab heights realize a linear weight.

    Requires vertices in the nonnegative orthant and a nonzero weight
    that is homogeneous of degree one with nonnegative integer
    coefficients. The weighted count of P is then the difference of the
    plain counts of the lift and of P itself. The lift is the affine
    lift of w's coefficient row, the affine route at offset 0.
    """
    require_nonnegative_vertices(P, "linear_lift")
    _check_space(P, w)
    if w.is_zero:
        raise ValueError("weight must be nonzero")
    if w.degree != 1 or not w.is_homogeneous:
        raise ValueError(
            "weight must be homogeneous of degree one; "
            "use the affine route for a constant offset"
        )
    return affine_lift_polytope(P, w.affine_parts()[0])


def affine_lift_polytope(P: LatticePolytope, coeffs: Sequence) -> LatticePolytope:
    """Companion lift for an affine weight's linear part C (coefficients in N).

    The hull of P x {0} and of each vertex v raised to height C.v, the
    only lift construction: linear_lift is this lift at offset 0. The
    heights are C.v, not C.(v - min), so a P far from the origin lifts
    to a tall polytope: a triangle translated by about 10^30 has heights
    near 10^30, and counting this lift passes the enumeration cap;
    weighted_by_affine_lift lifts the translate P - min instead.
    """
    require_nonnegative_vertices(P, "affine_lift_polytope")
    row = [_exact(c) for c in coeffs]
    if len(row) != P.ambient_dim:
        raise ValueError("coefficient row length must match the ambient dimension")
    if all(c == 0 for c in row):
        raise ValueError("linear part must be nonzero")
    for i, c in enumerate(row):
        if c.denominator != 1 or c < 0:
            raise ValueError(f"coefficient of t{i + 1} must be a nonnegative integer, got {c}")
    raised = [v + (int(sum(c * x for c, x in zip(row, v))),) for v in P.vertices]
    return LatticePolytope(dict.fromkeys([v + (0,) for v in P.vertices] + raised))


def weighted_by_affine_lift(P: LatticePolytope, coeffs: Sequence, offset) -> UniPoly:
    """Counting polynomial for the affine weight C.x + b via the lift route.

    The lift is taken of P - m, m the coordinatewise minimum of the
    vertices, so it stays short however far P lies from the origin. Over
    n(P - m) the weight is C.x + b + n*C.m, so the polynomial is
    count(lift of P - m) + (b - 1 + n*C.m) * count(P), entirely without
    interpolation against w itself: an independent check of the
    interpolation route.
    """
    b = _exact(offset, "offset")
    require_nonnegative_vertices(P, "weighted_by_affine_lift")
    m = [min(col) for col in zip(*P.vertices)]
    lifted = affine_lift_polytope(
        LatticePolytope([tuple(x - y for x, y in zip(v, m)) for v in P.vertices]), coeffs)
    shift = sum(_exact(c) * y for c, y in zip(coeffs, m))
    return ehrhart_polynomial(lifted) + UniPoly([b - 1, shift]) * ehrhart_polynomial(P)


def predicted_degree(G: Graph, w: WeightPoly) -> int:
    """Degree of the weighted count on the graph's edge polytope.

    For a single-term weight of degree p the counting polynomial has
    degree exactly (vertex count) - (bipartite components) - 1 + p.
    """
    if w.nvars != G.vertex_count:
        raise ValueError("weight variable count must match the graph's vertex count")
    if not w.is_monomial:
        raise ValueError("prediction needs a single-term weight")
    _require_edge_cover(G)
    return G.vertex_count - bipartite_components(G) - 1 + w.degree


def _spot_check_nonnegative(P: LatticePolytope, w: WeightPoly) -> None:
    # hypothesis w >= 0 on P is the caller's responsibility; probe 3P only
    # and name its lex-first negative point, whatever order the walk takes
    a = min((a for a in _walk(P, 3, False) if w._scaled(a) < 0), default=None)
    if a is not None:
        warnings.warn(
            f"weight is negative at {a}; the result assumes w >= 0 on the polytope",
            RuntimeWarning,
            stacklevel=3,
        )


def _check_full_dim_homogeneous(P: LatticePolytope, w: WeightPoly, op: str) -> None:
    if P.dim != P.ambient_dim:
        raise ValueError(f"{op} needs a full-dimensional polytope")
    _check_space(P, w)
    if w.is_zero or not w.is_homogeneous:
        raise ValueError(f"{op} needs a nonzero homogeneous weight")


def integral_leading(P: LatticePolytope, w: WeightPoly, spot_check: bool = True) -> Fraction:
    """Leading coefficient of the weighted count, the normalized integral of w.

    P must be full-dimensional and w nonzero homogeneous; the coefficient
    sits at degree dim + deg w. Nonnegativity of w on P is assumed, not
    enforced (a sample check warns).
    """
    _check_full_dim_homogeneous(P, w, "integral_leading")
    if spot_check:
        _spot_check_nonnegative(P, w)
    poly = weighted_ehrhart_polynomial(P, w)
    top = poly.coefficient(P.dim + w.degree)
    if top == 0:
        warnings.warn(
            "leading coefficient vanished; the weight integrates to zero over the polytope",
            RuntimeWarning,
            stacklevel=2,
        )
    return top


class RootEntry(NamedTuple):
    """Value of the weighted count at one negative root of the plain count."""

    root: int
    value: Fraction

    @property
    def vanishes(self) -> bool:
        return self.value == 0


class VanishingReport(NamedTuple):
    """Negative integer roots of the plain count, probed on the weighted one."""

    plain: UniPoly
    weighted: UniPoly
    entries: tuple[RootEntry, ...]

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(e.root for e in self.entries)

    @property
    def all_vanish(self) -> bool:
        return all(e.vanishes for e in self.entries)


def check_negative_root_vanishing(
    P: LatticePolytope, w: WeightPoly, spot_check: bool = True
) -> VanishingReport:
    """Probe the weighted count at every negative integer root of the plain count.

    Scans the window -(dim + deg w) .. -1, which contains all negative
    integer roots of the plain counting polynomial. Under the standing
    hypotheses (full-dimensional P, homogeneous w >= 0 on P) every entry
    should vanish; the report records the exact values. The plain count
    comes from closed nodes only, never from interior walks; the weighted
    count is weighted_ehrhart_polynomial, whose interior nodes its closed
    probes at n = 0 and n = dim+deg+2 validate.
    """
    _check_full_dim_homogeneous(P, w, "check_negative_root_vanishing")
    if spot_check:
        _spot_check_nonnegative(P, w)
    plain = _interpolated(P, WeightPoly.constant(P.ambient_dim, 1), range(1, P.dim + 2))
    weighted = weighted_ehrhart_polynomial(P, w)
    window = range(-(P.dim + w.degree), 0)
    entries = tuple(RootEntry(r, weighted(r)) for r in window if plain(r) == 0)
    return VanishingReport(plain, weighted, entries)


class ReciprocityEntry(NamedTuple):
    """One dilation's interior weighted sum against the signed negative value."""

    n: int
    interior_sum: Fraction
    signed_value: Fraction

    @property
    def equal(self) -> bool:
        return self.interior_sum == self.signed_value


class ReciprocityReport(NamedTuple):
    """Interior sums versus (-1)^(dim + deg w) times the count at -n."""

    sign: int
    entries: tuple[ReciprocityEntry, ...]

    @property
    def all_equal(self) -> bool:
        return all(e.equal for e in self.entries)


def reciprocity_check(
    P: LatticePolytope, w: WeightPoly, n_max: int = 4, spot_check: bool = True
) -> ReciprocityReport:
    """Compare interior weighted sums with the reflected counting polynomial.

    For full-dimensional P and homogeneous w, the sum of w over the
    interior lattice points of nP equals (-1)^(dim + deg w) times the
    counting polynomial at -n. Interior sums come from the strict
    enumerator, and the polynomial from closed nodes n = 1..dim+deg+1
    with both probes, not from interior walks, so the two sides are
    independent.
    """
    _check_full_dim_homogeneous(P, w, "reciprocity_check")
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    if spot_check:
        _spot_check_nonnegative(P, w)
    sign = (-1) ** (P.dim + w.degree)
    poly = _interpolated(P, w, range(1, P.dim + w.degree + 2))
    entries = (ReciprocityEntry(n, _sum(P, w, n, True), sign * poly(-n))
               for n in range(1, n_max + 1))
    return ReciprocityReport(sign, tuple(entries))
