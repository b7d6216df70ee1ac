"""Counting distinct linear-weight images of dilation lattice points.

A tuple of linear forms W with nonnegative integer entries sends each
lattice point of nP to an integer vector. The number of distinct image
vectors grows like a polynomial for n large enough; this module samples
that count, fits the polynomial on a stable window, locates the least
onset from which the fit holds, and takes the generating function
straight from the sampled counts, which follow the fit from there. The
image count can lag strictly behind the lattice-point count of the
image polytope, which is what image_gap_report makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConsistencyError, UndeterminedFitError
from .geometry import LatticePolytope, _walk, require_nonnegative_vertices
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
    return len({W.apply(a) for a in _walk(P, n, False)})


def image_polytope(P: LatticePolytope, W: LinearWeightTuple) -> LatticePolytope:
    """Convex hull of the images of the vertices under the forms."""
    _check_input(P, W)
    return LatticePolytope([W.apply(v) for v in P.vertices])


class _ImageCounts(dict):
    """hilbert_value of one (P, W) by dilation, each computed on first use.

    One table serves the CLI's value table, the fit and the series of a
    call, so no dilation is enumerated twice.
    """

    def __init__(self, P: LatticePolytope, W: LinearWeightTuple):
        super().__init__()
        self.P, self.W = P, W

    def __missing__(self, n: int) -> int:
        self[n] = count = hilbert_value(self.P, self.W, n)
        return count


def hilbert_polynomial(
    P: LatticePolytope,
    W: LinearWeightTuple,
    max_onset: int = DEFAULT_MAX_ONSET,
    margin: int = FIT_MARGIN,
) -> tuple[UniPoly, int]:
    """Eventual polynomial of the image count and the least onset where it holds.

    The fit degree is the dimension of the image polytope. Candidate
    windows start at n = 1, 2, ... up to max_onset; a window is accepted
    when the interpolant also matches the next ``margin`` sampled
    values, and the reported onset then walks back toward 0 while the
    fit keeps matching. Raises UndeterminedFitError (carrying the
    samples) when no window stabilizes.
    """
    return _fit(_ImageCounts(P, W), max_onset, margin)


def _fit(counts: _ImageCounts, max_onset: int, margin: int) -> tuple[UniPoly, int]:
    """hilbert_polynomial on a table that the caller may read from too."""
    P, W = counts.P, counts.W
    _check_input(P, W)
    if not isinstance(max_onset, int) or max_onset < 0:
        raise ValueError("max_onset must be a nonnegative integer")
    if not isinstance(margin, int) or margin < 1:
        raise ValueError("margin must be a positive integer")
    degree = image_polytope(P, W).dim
    for start in range(1, max_onset + 1):
        window = [(n, counts[n]) for n in range(start, start + degree + 1)]
        fit = lagrange_interpolate(window)
        probes = range(start + degree + 1, start + degree + 1 + margin)
        if all(fit(n) == counts[n] for n in probes):
            onset = start
            while onset > 0 and fit(onset - 1) == counts[onset - 1]:
                onset -= 1
            return fit, onset
    raise UndeterminedFitError(
        f"image count did not stabilize on any window with onset <= {max_onset}; "
        "raise max_onset to keep searching",
        counts,
    )


def hilbert_series(
    P: LatticePolytope,
    W: LinearWeightTuple,
    max_onset: int = DEFAULT_MAX_ONSET,
    margin: int = FIT_MARGIN,
) -> RationalGF:
    """Generating function of the image count, in canonical rational form.

    The difference transform of the counts (see _series_of_fit). The
    numerator must come out with integer coefficients and a nonzero
    value at 1; anything else is an internal inconsistency.
    """
    counts = _ImageCounts(P, W)
    fit, onset = _fit(counts, max_onset, margin)
    return _series_of_fit(counts, fit, onset)


def _series_of_fit(counts: _ImageCounts, fit: UniPoly, onset: int) -> RationalGF:
    """hilbert_series from a fit and onset that _fit returned on the same table.

    _fit checked counts[n] == fit(n) from the onset through its window, so
    the difference transform of counts[0 .. onset + deg fit] is the series.
    """
    series = _series_of_values([counts[n] for n in range(onset + fit.degree + 1)], fit.degree)
    numerator = series.numerator
    if any(c.denominator != 1 for c in numerator.coeffs):
        raise ConsistencyError("series numerator has non-integer coefficients")
    if numerator and numerator(1) == 0:
        raise ConsistencyError("series numerator vanishes at 1 after reduction")
    return series


@dataclass(frozen=True)
class ImageGapReport:
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
    hull_count = sum(1 for _ in _walk(image_polytope(P, W), n, False))
    if count > hull_count:
        raise ConsistencyError("image count exceeded the lattice count of the image hull")
    return ImageGapReport(count, hull_count)
