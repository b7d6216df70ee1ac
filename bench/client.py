"""Request handlers: one closed-loop client of ehrwt's public API.

Untraced, each op makes the calls a user would make. Traced, the
counting-polynomial calls (``weighted_ehrhart_polynomial``, and the
lift and check routes built on it) are replayed through public calls in
the library's own order, with a span around each layer:

  facets, lattice_points for every sampled and probe n, eval_weight on
  every point, lagrange_interpolate, the two probe comparisons, then
  gf_of_polynomial and format_* in the op.

After each replay the traced client calls the library function itself
inside a ``trace.prime`` span, which is left out of every timing. That
checks the replay against the library in the same process and leaves
the library's caches as the untraced client leaves them, so later ops
hit or miss them alike.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import ehrwt.cli
from ehrwt import (
    ConsistencyError,
    LatticePolytope,
    LinearWeightTuple,
    UniPoly,
    WeightPoly,
    check_negative_root_vanishing,
    contains,
    ehrhart_polynomial,
    eval_weight,
    expand,
    facets,
    format_polynomial,
    format_series,
    gf_of_polynomial,
    hilbert_series,
    interior_lattice_points,
    lagrange_interpolate,
    lattice_points,
    parse_weight,
    reciprocity_check,
    weighted_by_affine_lift,
    weighted_ehrhart_polynomial,
    weighted_series,
)
from ehrwt.weighted import affine_lift_polytope

from spans import PRIME

RECIPROCITY_N_MAX = 4  # the library's and the CLI's default
SPOT_CHECK_N = 3  # dilation scanned by the library's nonnegativity spot check
HILBERT_TABLE_N = 8  # the CLI's default table length, for the images count
# A few seeded (P, forms) pairs of small_batch, a 3-simplex under two forms
# with a long kernel vector, have image counts that become polynomial only
# from n = 13..26 (3 of 36,000 pairs over 300 seeds), past the library's
# default fit window of 12. The fit search stops at the first stable
# window, so the wider window costs nothing on the other pairs.
HILBERT_MAX_ONSET = 64


def hilbert_images(series) -> int:
    """Distinct images over the dilations 0..8, read off the series."""
    return int(sum(expand(series, HILBERT_TABLE_N)))


class Client:
    """Runs ops on polytopes; ``tracer`` is None for the untraced client."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._known = set()  # (P, w) pairs whose polynomial the library has cached

    def span(self, name, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext({})
        return self.tracer.span(name, **attrs)

    def run(self, P: LatticePolytope, op: list):
        kind, args = op[0], op[1:]
        return getattr(self, "op_" + kind)(P, *args)

    # ------------------------------------------------------------ ops

    def op_weighted(self, P, text):
        with self.span("polynomials.parse_weight"):
            w = parse_weight(text, P.ambient_dim)
        if self.tracer is None:
            poly = weighted_ehrhart_polynomial(P, w)
            series = weighted_series(P, w)
        else:
            poly = self.counting_polynomial(P, w)
            with self.span("polynomials.series"):
                series = gf_of_polynomial(poly)
        with self.span("polynomials.format"):
            text = format_polynomial(poly) + "\n" + format_series(series)
        return {"w": w, "poly": poly, "series": series, "text": text}

    def op_ehrhart(self, P):
        if self.tracer is None:
            poly = ehrhart_polynomial(P)
        else:
            poly = self.counting_polynomial(P, WeightPoly.constant(P.ambient_dim, 1))
        with self.span("polynomials.series"):
            series = gf_of_polynomial(poly)
        with self.span("polynomials.format"):
            text = format_polynomial(poly) + "\n" + format_series(series)
        return {"poly": poly, "series": series, "text": text}

    def op_lift(self, P, coeffs, offset):
        b = Fraction(offset)
        if self.tracer is None:
            return {"poly": weighted_by_affine_lift(P, coeffs, b)}
        # weighted_by_affine_lift: count(lift of C) + (b - 1) * count(P)
        with self.span("weighted.lift"):
            lifted = affine_lift_polytope(P, coeffs)
            one = WeightPoly.constant(P.ambient_dim + 1, 1)
            poly = self.counting_polynomial(lifted, one)
            one = WeightPoly.constant(P.ambient_dim, 1)
            poly = poly + (b - 1) * self.counting_polynomial(P, one)
        return {"poly": poly}

    def op_check(self, P, text):
        with self.span("polynomials.parse_weight"):
            w = parse_weight(text, P.ambient_dim)
        if self.tracer is None:
            rec = reciprocity_check(P, w)
            van = check_negative_root_vanishing(P, w)
            return {
                "w": w,
                "reciprocity": [(e.n, e.interior_sum, e.signed_value) for e in rec.entries],
                "vanishing": [(e.root, e.value) for e in van.entries],
            }
        with self.span("weighted.check"):
            # reciprocity_check
            self._spot_check(P, w)
            sign = (-1) ** (P.dim + w.degree)
            poly = self.counting_polynomial(P, w)
            rec = []
            for n in range(1, RECIPROCITY_N_MAX + 1):
                with self.span("geometry.interior_lattice_points") as attrs:
                    points = interior_lattice_points(P, n)
                    attrs["points"] = len(points)
                rec.append((n, self._weight_sum(w, points), sign * poly(-n)))
            # check_negative_root_vanishing
            self._spot_check(P, w)
            plain = self.counting_polynomial(P, WeightPoly.constant(P.ambient_dim, 1))
            poly = self.counting_polynomial(P, w)
            window = range(-(P.dim + w.degree), 0)
            van = [(r, poly(r)) for r in window if plain(r) == 0]
        return {"w": w, "reciprocity": rec, "vanishing": van}

    def op_hilbert(self, P, rows):
        with self.span("hilbert.hilbert_series") as attrs:
            series = hilbert_series(P, LinearWeightTuple(rows), max_onset=HILBERT_MAX_ONSET)
        if self.tracer is not None:
            attrs["images"] = hilbert_images(series)
        return {"series": series}

    def op_cli(self, P, argv):
        out, err = io.StringIO(), io.StringIO()
        with self.span("cli.run") as attrs:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ehrwt.cli.run(argv)
        text = out.getvalue()
        if self.tracer is not None:
            attrs["bytes_out"] = len(text.encode())
        return {"code": code, "out": text, "err": err.getvalue()}

    def op_facets(self, P):
        with self.span("geometry.facets") as attrs:
            eqs, ineqs = facets(P)
        if self.tracer is not None:
            attrs["rows"] = len(ineqs)
        return {"equations": eqs, "inequalities": ineqs}

    def op_contains(self, P, point):
        with self.span("geometry.contains"):
            return {"inside": contains(P, point)}

    # ------------------------------------------------------------ replay

    def counting_polynomial(self, P, w) -> UniPoly:
        """Traced stand-in for weighted_ehrhart_polynomial(P, w)."""
        key = (P, w)
        if key in self._known:
            with self.span("weighted.weighted_ehrhart_polynomial", cached=1):
                return weighted_ehrhart_polynomial(P, w)
        poly = self._replay(P, w)
        with self.span(PRIME):
            if weighted_ehrhart_polynomial(P, w) != poly:
                raise ConsistencyError("replayed polynomial differs from the library's")
        self._known.add(key)
        return poly

    def _replay(self, P, w) -> UniPoly:
        span = self.span
        with span("weighted.weighted_ehrhart_polynomial"):
            if w.is_zero:
                return UniPoly()
            with span("geometry.facets") as attrs:
                equations, inequalities = facets(P)
                attrs["rows"] = len(inequalities)
            bound = P.ambient_dim - len(equations) + w.degree
            sampled = range(1, bound + 2)
            probes = (0, bound + 2)
            points = {}
            for n in [*sampled, *probes]:
                with span("geometry.lattice_points", probe=n in probes) as attrs:
                    points[n] = lattice_points(P, n)
                    attrs["points"] = len(points[n])
            sums = {n: self._weight_sum(w, points[n], probe=n in probes)
                    for n in [*sampled, *probes]}
            with span("polynomials.lagrange_interpolate") as attrs:
                poly = lagrange_interpolate([(n, sums[n]) for n in sampled])
                attrs["nodes"] = len(sampled)
            with span("weighted.probe", probe=True):
                bad = [n for n in probes if poly(n) != sums[n]]
            if bad:
                raise ConsistencyError(f"replayed polynomial fails the probe at n={bad[0]}")
        return poly

    def _weight_sum(self, w, points, **attrs) -> Fraction:
        with self.span("polynomials.eval", evals=len(points), **attrs):
            return sum((eval_weight(w, a) for a in points), Fraction(0))

    def _spot_check(self, P, w):
        # the library stops at the first negative value and warns
        with self.span("geometry.lattice_points") as attrs:
            points = lattice_points(P, SPOT_CHECK_N)
            attrs["points"] = len(points)
        with self.span("polynomials.eval") as attrs:
            evals = 0
            for a in points:
                evals += 1
                if eval_weight(w, a) < 0:
                    break
            attrs["evals"] = evals
