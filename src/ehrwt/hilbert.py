"""Counting distinct linear-weight images of dilation lattice points.

A tuple of linear forms W with nonnegative integer entries sends each
lattice point of nP to an integer vector. The number c(n) of distinct
image vectors is a polynomial of degree at most D, the dimension of the
image polytope, for n large enough. This module samples that count and
decides the fit, its least onset and the series by one integer test:
c(n..n+D+1) lie on one polynomial of degree at most D exactly when
their (D+1)-th difference sum_j (-1)^(D+1-j) C(D+1, j) c(n+j) vanishes.
A fit must also lead with the coefficient that the image polytope and
P's lattice fix in advance (_leading_coefficient). The series is then
the difference transform of the sampled counts. The image count can lag
strictly behind the lattice-point count of the image polytope, which is
what image_gap_report makes visible.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, UndeterminedFitError
from .geometry import LatticePolytope, _echelon, _reduced_kernel, _walk_images, _walk_sum
from .geometry import _check_space, require_nonnegative_vertices
from .polynomials import RationalGF, UniPoly, _check_int, _check_length, _is_int
from .polynomials import _series_of_values, lagrange_interpolate
from .weighted import ehrhart_polynomial

__all__ = [
    "LinearWeightTuple",
    "hilbert_value",
    "hilbert_polynomial",
    "hilbert_series",
    "image_polytope",
    "image_gap_report",
    "ImageGapReport",
]

DEFAULT_MAX_ONSET = 12
FIT_MARGIN = 3


class LinearWeightTuple:
    """Rows of nonnegative integers, one linear form per row."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        clean = [tuple(row) for row in rows]
        for r in clean:
            if any(not _is_int(c) or c < 0 for c in r):
                raise ValueError(f"row {r} must contain nonnegative integers")
        if not clean:
            raise ValueError("at least one linear form is required")
        width = len(clean[0])
        if width < 1 or any(len(r) != width for r in clean):
            raise ValueError("all rows must share one positive length")
        self._rows = tuple(clean)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def nforms(self) -> int:
        return len(self._rows)

    @property
    def nvars(self) -> int:
        return len(self._rows[0])

    def apply(self, point: Sequence[int]) -> tuple[int, ...]:
        """Image vector of a lattice point under all forms."""
        _check_length(point, self.nvars)
        return tuple(sum(c * x for c, x in zip(row, point)) for row in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearWeightTuple):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(("LinearWeightTuple", self._rows))

    def __repr__(self) -> str:
        return f"LinearWeightTuple({list(self._rows)!r})"


def _check_input(P: LatticePolytope, W: LinearWeightTuple) -> None:
    require_nonnegative_vertices(P, "image counting")
    _check_space(P, W, "forms have")


def hilbert_value(P: LatticePolytope, W: LinearWeightTuple, n: int) -> int:
    """Number of distinct image vectors of the n-th dilation's lattice points."""
    _check_input(P, W)
    _check_int(n, 0, "dilation factor must be a nonnegative integer")
    return _walk_images(P, n, W.apply)


def image_polytope(P: LatticePolytope, W: LinearWeightTuple) -> LatticePolytope:
    """Convex hull of the images of the vertices under the forms."""
    _check_input(P, W)
    return LatticePolytope([W.apply(v) for v in P.vertices])


def hilbert_polynomial(
    P: LatticePolytope, W: LinearWeightTuple, max_onset: int = DEFAULT_MAX_ONSET
) -> tuple[UniPoly, int]:
    """Eventual polynomial of the image count and the least onset where it holds.

    The fit degree is at most D, the dimension of the image polytope, so
    counts c(n..n+D+1) lie on one polynomial exactly when their (D+1)-th
    difference vanishes. A start s in 1..max_onset is accepted when that
    difference vanishes at s..s+FIT_MARGIN-1 and the interpolant of
    c(s..s+D) leads with the certified coefficient lead(E_{W(P)}) / idx
    at degree D; the onset then walks back toward 0 while the difference
    still vanishes one step lower. Raises UndeterminedFitError (carrying
    the samples) when no start is accepted.

    The onset is found by search and checked only on the window of
    counts read. The certificate is necessary, not sufficient: a wrong
    constant term under the right leading coefficient would pass it.
    """
    return _fit(P, W, max_onset, {})[:2]


def hilbert_series(
    P: LatticePolytope, W: LinearWeightTuple, max_onset: int = DEFAULT_MAX_ONSET
) -> RationalGF:
    """Generating function of the image count, in canonical rational form.

    The counts follow the fit of hilbert_polynomial from its onset on, so
    the difference transform of c(0..onset+D) over (1-x)^(D+1) is the
    series. The numerator must come out with integer coefficients and a
    nonzero value at 1; anything else is an internal inconsistency.
    """
    return _fit(P, W, max_onset, {})[2]


def _fit(
    P: LatticePolytope, W: LinearWeightTuple, max_onset: int, counts: dict[int, int]
) -> tuple[UniPoly, int, RationalGF]:
    """(fit, onset, series) of hilbert_polynomial and hilbert_series.

    ``counts`` maps dilations to image counts; the caller may pass values
    it already has, and every count read here is added to it. D is the rank
    the forms add to the hull equations, on the rows the certificate reads.
    """
    _check_input(P, W)
    _check_int(max_onset, 0, "max_onset must be a nonnegative integer")
    # independent integer rows with the kernel of the hull equations and the forms
    eqs = _echelon([a for a, _ in P.affine_hull] + list(W.rows))[0]
    degree = len(eqs) - len(P.affine_hull)
    signs = [(-1) ** (degree + 1 - j) * comb(degree + 1, j) for j in range(degree + 2)]

    def count(n: int) -> int:
        if n not in counts:
            counts[n] = hilbert_value(P, W, n)
        return counts[n]

    def on_one_polynomial(n: int) -> bool:
        # the (D+1)-th difference of c(n..n+D+1), read in increasing n
        return sum(sign * count(n + j) for j, sign in enumerate(signs)) == 0

    lead = refused = None
    for start in range(1, max_onset + 1):
        if all(on_one_polynomial(s) for s in range(start, start + FIT_MARGIN)):
            fit = lagrange_interpolate([(n, counts[n]) for n in range(start, start + degree + 1)])
            # the certificate is built once, for the first start the difference test passes
            lead = _leading_coefficient(P, eqs, degree) if lead is None else lead
            if fit.coefficient(degree) == lead:
                break
            refused = refused or (start, fit.coefficient(degree))
    else:
        why = "did not stabilize on any window" if refused is None else (
            f"stabilized from n = {refused[0]} on a fit leading with {refused[1]}, where the "
            f"certificate gives {lead}, but passed both tests on no window")
        raise UndeterminedFitError(
            f"image count {why} with onset <= {max_onset}; raise max_onset to keep searching",
            counts,
        )
    onset = start
    while onset > 0 and on_one_polynomial(onset - 1):
        onset -= 1
    series = _series_of_values([count(n) for n in range(onset + degree + 1)], 1, degree)
    numerator = series.numerator
    if numerator._den != 1:
        raise ConsistencyError("series numerator has non-integer coefficients")
    if numerator and not sum(numerator._num):
        raise ConsistencyError("series numerator vanishes at 1 after reduction")
    return fit, onset, series


def _leading_coefficient(P: LatticePolytope, eqs: list, degree: int) -> Fraction:
    """The degree-D coefficient of the image count: lead(E_{W(P)}) / idx.

    Let L be the lattice of aff(P) - v0. Deep inside nW(P) every point of
    the coset nWv0 + W(L) is an image, since its fiber in nP holds a
    lattice point once its inradius passes the covering radius; so c(n)
    is that coset's count in nW(P), less O(n^(D-1)). The count is the
    Ehrhart polynomial of P - v0 pushed onto L / (L & ker W) = W(L) by
    the rows of U^-1 that vanish on ker A & ker W, A the hull equations.
    Its lead is lead(E_{W(P)}) / idx, idx the gcd of the D x D minors of
    W B for a basis B of L (Cauchy-Binet), and it is read without walking
    the Z^k points of nW(P), which can outnumber the images by idx. ``eqs``
    holds the independent rows of A over W, the rows _fit reads D from.
    """
    if degree == 0:
        return Fraction(1)
    s, v0 = P.ambient_dim, P.vertices[0]
    push = _reduced_kernel(eqs, s)[1][s - len(eqs):]
    pushed = [tuple(sum(c * (x - o) for c, x, o in zip(row, v, v0)) for row in push)
              for v in P.vertices]
    if degree == 1:
        # a segment's lattice length, its lead, is the gcd of its coordinate spans
        return Fraction(gcd(*(max(c) - min(c) for c in zip(*pushed))))
    return ehrhart_polynomial(LatticePolytope(pushed)).coefficient(degree)


class ImageGapReport(NamedTuple):
    """Distinct images versus lattice points of the dilated image polytope."""

    image_count: int
    dilated_image_lattice_count: int

    @property
    def strict(self) -> bool:
        """True when some lattice point of the dilated image hull is missed."""
        return self.image_count < self.dilated_image_lattice_count


def image_gap_report(P: LatticePolytope, W: LinearWeightTuple, n: int) -> ImageGapReport:
    """Compare the image count of nP with the full lattice count of its hull.

    The image of the lattice points always lands inside the dilated
    image polytope, so image_count <= dilated_image_lattice_count; the
    gap can be strict.
    """
    count = hilbert_value(P, W, n)
    hull_count = _walk_sum(image_polytope(P, W), n, False, [((0,) * W.nforms, 1)])[0]
    if count > hull_count:
        raise ConsistencyError("image count exceeded the lattice count of the image hull")
    return ImageGapReport(count, hull_count)
