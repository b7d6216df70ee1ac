"""In-memory spans around the benchmark's calls into ehrwt, and per-layer sums.

A span is (id, name, start, end, parent id, request id, attrs). Spans
are recorded only by the traced worker; the untraced worker never
creates a Tracer. Attributes carry counts measured where the work
happens: ``rows``, ``points``, ``evals``, ``nodes``, ``images``,
``bytes_out``, and ``probe`` on the enumeration and evaluation spans of
the two validation dilations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Spans named here are bookkeeping of the traced worker, not library
# work: excluded from the traced wall time and from every layer.
PRIME = "trace.prime"
REQUEST = "request"


class Tracer:
    """Records nested spans; one request id is current at a time."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.request, attrs]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()


def _durations(spans):
    """Duration and self time of every span, priming calls taken out.

    A span's duration excludes the ``trace.prime`` spans inside it; its
    self time is that duration minus the durations of its other children.
    """
    dur = [end - start for _, _, start, end, _, _, _ in spans]
    for sid, name, _, _, parent, _, _ in spans:
        if name == PRIME:
            while parent is not None:
                dur[parent] -= dur[sid]
                parent = spans[parent][4]
    self_time = list(dur)
    for sid, name, _, _, parent, _, _ in spans:
        if parent is not None and name != PRIME:
            self_time[parent] -= dur[sid]
    return dur, self_time


def traced_wall(spans) -> float:
    """Time inside request spans, less the cache-priming calls they contain."""
    dur, _ = _durations(spans)
    return sum(dur[s[0]] for s in spans if s[1] == REQUEST)


def layer_metrics(spans) -> dict:
    """Per-layer numbers as named in BENCHMARK.json (trace.overhead_s aside)."""
    dur, self_time = _durations(spans)
    calls, secs, counts = {}, {}, {}
    probe_s = 0.0
    weighted_self = 0.0
    for sid, name, _, _, _, _, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur[sid]
        for key, value in attrs.items():
            if key != "probe":
                counts[(name, key)] = counts.get((name, key), 0) + value
        if attrs.get("probe"):
            probe_s += dur[sid]
        if name == "weighted.weighted_ehrhart_polynomial":
            weighted_self += self_time[sid]

    def c(name, key=None):
        return calls.get(name, 0) if key is None else counts.get((name, key), 0)

    def s(name):
        return secs.get(name, 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    weighted_s = s("weighted.weighted_ehrhart_polynomial")
    lp, ev = "geometry.lattice_points", "polynomials.eval"
    return {
        "geometry.facets.calls": c("geometry.facets"),
        "geometry.facets.s": s("geometry.facets"),
        "geometry.facets.rows": c("geometry.facets", "rows"),
        "geometry.lattice_points.calls": c(lp),
        "geometry.lattice_points.s": s(lp),
        "geometry.lattice_points.points": c(lp, "points"),
        "geometry.lattice_points.points_per_s": rate(c(lp, "points"), s(lp)),
        "geometry.interior_lattice_points.s": s("geometry.interior_lattice_points"),
        "geometry.interior_lattice_points.points":
            c("geometry.interior_lattice_points", "points"),
        "geometry.contains.calls": c("geometry.contains"),
        "geometry.contains.s": s("geometry.contains"),
        "polynomials.eval.calls": c(ev, "evals"),
        "polynomials.eval.s": s(ev),
        "polynomials.eval.evals_per_s": rate(c(ev, "evals"), s(ev)),
        "polynomials.lagrange_interpolate.calls": c("polynomials.lagrange_interpolate"),
        "polynomials.lagrange_interpolate.nodes":
            c("polynomials.lagrange_interpolate", "nodes"),
        "polynomials.lagrange_interpolate.s": s("polynomials.lagrange_interpolate"),
        "polynomials.series.s": s("polynomials.series"),
        "polynomials.format.s": s("polynomials.format"),
        "polynomials.parse_weight.s": s("polynomials.parse_weight"),
        "weighted.weighted_ehrhart_polynomial.calls":
            c("weighted.weighted_ehrhart_polynomial"),
        "weighted.weighted_ehrhart_polynomial.s": weighted_s,
        "weighted.weighted_ehrhart_polynomial.self_s": weighted_self,
        "weighted.probe_share": rate(probe_s, weighted_s),
        "weighted.lift.s": s("weighted.lift"),
        "weighted.check.s": s("weighted.check"),
        "hilbert.hilbert_series.calls": c("hilbert.hilbert_series"),
        "hilbert.hilbert_series.s": s("hilbert.hilbert_series"),
        "hilbert.hilbert_series.images": c("hilbert.hilbert_series", "images"),
        "cli.run.calls": c("cli.run"),
        "cli.run.s": s("cli.run"),
        "cli.run.bytes_out": c("cli.run", "bytes_out"),
    }


def dump(spans) -> list:
    """Spans as JSON-ready dicts, times in seconds from the first span."""
    t0 = spans[0][2] if spans else 0.0
    return [{"id": sid, "name": name, "start": start - t0, "end": end - t0,
             "parent": parent, "request": request, **attrs}
            for sid, name, start, end, parent, request, attrs in spans]
