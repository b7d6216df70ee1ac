"""Counting distinct linear-weight images of dilation lattice points.

A tuple of linear forms W with nonnegative integer entries sends each
lattice point of nP to an integer vector. The number c(n) of distinct
image vectors is a polynomial of degree at most D, the dimension of the
image polytope, for n large enough. This module samples that count and
decides the fit, its least onset and the series by one integer test:
c(n..n+D+1) lie on one polynomial of degree at most D exactly when
their (D+1)-th difference sum_j (-1)^(D+1-j) C(D+1, j) c(n+j) vanishes.
The series is then the difference transform of the sampled counts. The
image count can lag strictly behind the lattice-point count of the
image polytope, which is what image_gap_report makes visible.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, UndeterminedFitError
from .geometry import LatticePolytope, _points, _walk_fibers, _walk_sum
from .geometry import require_nonnegative_vertices
from .polynomials import RationalGF, UniPoly, _series_of_values, lagrange_interpolate

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
        clean = []
        for row in rows:
            r = tuple(row)
            if any((not isinstance(c, int)) or isinstance(c, bool) or c < 0 for c in r):
                raise ValueError(f"row {r} must contain nonnegative integers")
            clean.append(r)
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
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
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
    if W.nvars != P.ambient_dim:
        raise ValueError(
            f"forms have {W.nvars} variables but the polytope lives in dimension {P.ambient_dim}"
        )


def hilbert_value(P: LatticePolytope, W: LinearWeightTuple, n: int) -> int:
    """Number of distinct image vectors of the n-th dilation's lattice points."""
    _check_input(P, W)
    if not isinstance(n, int) or n < 0:
        raise ValueError("dilation factor must be a nonnegative integer")
    e, fibers = _walk_fibers(P, n, False)
    # W(base + x*e) = W(base) + x*W(e): each fiber's images step along W(e)
    return len(set(_points(W.apply(e), ((W.apply(b), low, high) for b, low, high in fibers))))


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
    difference vanishes at s..s+FIT_MARGIN-1, the onset then walks back
    toward 0 while it still vanishes one step lower, and the fit is the
    interpolant of c(onset..onset+D). Raises UndeterminedFitError
    (carrying the samples) when no start is accepted.
    """
    return _fit(P, W, max_onset, {})[1:3]


def hilbert_series(
    P: LatticePolytope, W: LinearWeightTuple, max_onset: int = DEFAULT_MAX_ONSET
) -> RationalGF:
    """Generating function of the image count, in canonical rational form.

    The counts follow the fit of hilbert_polynomial from its onset on, so
    the difference transform of c(0..onset+D) over (1-x)^(D+1) is the
    series. The numerator must come out with integer coefficients and a
    nonzero value at 1; anything else is an internal inconsistency.
    """
    return _fit(P, W, max_onset, {})[3]


def _fit(
    P: LatticePolytope, W: LinearWeightTuple, max_onset: int, counts: dict[int, int]
) -> tuple[dict[int, int], UniPoly, int, RationalGF]:
    """(counts, fit, onset, series) of hilbert_polynomial and hilbert_series.

    ``counts`` maps dilations to image counts; the caller may pass values
    it already has, and every count read here is added to it.
    """
    _check_input(P, W)
    if not isinstance(max_onset, int) or max_onset < 0:
        raise ValueError("max_onset must be a nonnegative integer")
    degree = image_polytope(P, W).dim
    signs = [(-1) ** (degree + 1 - j) * comb(degree + 1, j) for j in range(degree + 2)]

    def count(n: int) -> int:
        if n not in counts:
            counts[n] = hilbert_value(P, W, n)
        return counts[n]

    def on_one_polynomial(n: int) -> bool:
        # the (D+1)-th difference of c(n..n+D+1), read in increasing n
        return sum(sign * count(n + j) for j, sign in enumerate(signs)) == 0

    for start in range(1, max_onset + 1):
        if all(on_one_polynomial(s) for s in range(start, start + FIT_MARGIN)):
            onset = start
            while onset > 0 and on_one_polynomial(onset - 1):
                onset -= 1
            break
    else:
        raise UndeterminedFitError(
            f"image count did not stabilize on any window with onset <= {max_onset}; "
            "raise max_onset to keep searching",
            counts,
        )
    fit = lagrange_interpolate([(n, counts[n]) for n in range(onset, onset + degree + 1)])
    series = _series_of_values([count(n) for n in range(onset + degree + 1)], degree)
    numerator = series.numerator
    if any(c.denominator != 1 for c in numerator.coeffs):
        raise ConsistencyError("series numerator has non-integer coefficients")
    if numerator and numerator(1) == 0:
        raise ConsistencyError("series numerator vanishes at 1 after reduction")
    return counts, fit, onset, series


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
    hull_count = _walk_sum(image_polytope(P, W), n, False, [((), 1)])
    if count > hull_count:
        raise ConsistencyError("image count exceeded the lattice count of the image hull")
    return ImageGapReport(count, hull_count)
