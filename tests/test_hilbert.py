"""Distinct-image counting layer: values, eventual polynomial with onset,
series, and the gap between images and the dilated image hull."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehrwt.hilbert
from ehrwt import (
    LatticePolytope,
    LinearWeightTuple,
    RationalGF,
    UniPoly,
    ehrhart_polynomial,
    expand,
    hilbert_polynomial,
    hilbert_series,
    hilbert_value,
    image_gap_report,
    image_polytope,
    lattice_points,
)
from ehrwt.errors import UndeterminedFitError
from ehrwt.hilbert import _fit

from oracles import box_points, random_vertices, series_by_cube_assembly, window_fit

WEDGE = LatticePolytope([(1, 1), (3, 0), (2, 3)])
FORM = LinearWeightTuple([[1, 2]])
UNIT_SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
IDENTITY2 = LinearWeightTuple([[1, 0], [0, 1]])
UNIT_INTERVAL = LatticePolytope([(0,), (1,)])
DOUBLER = LinearWeightTuple([[2]])
# the difference test alone accepts 28*n - 18 from n = 3 here; the counts
# 206, 233, 260, ... follow 27*n - 10 only from n = 8 on
FALSE_FIT_P = LatticePolytope([(0, 0, 3), (1, 1, 0), (1, 3, 2), (3, 0, 2), (0, 0, 2)])
FALSE_FIT_W = LinearWeightTuple([[9, 3, 1]])


# ---------------------------------------------------------------- tuples

def test_tuple_validation():
    with pytest.raises(ValueError):
        LinearWeightTuple([])
    with pytest.raises(ValueError):
        LinearWeightTuple([[1, -1]])
    with pytest.raises(ValueError):
        LinearWeightTuple([[1, 2], [3]])
    with pytest.raises((TypeError, ValueError)):
        LinearWeightTuple([[1.5]])


def test_tuple_apply():
    assert FORM.apply((2, 3)) == (8,)
    assert IDENTITY2.apply((4, 7)) == (4, 7)
    with pytest.raises(ValueError):
        FORM.apply((1, 2, 3))
    assert FORM == LinearWeightTuple([(1, 2)])
    assert hash(FORM) == hash(LinearWeightTuple([[1, 2]]))


# ---------------------------------------------------------------- values

def test_hilbert_value_fixtures():
    assert hilbert_value(WEDGE, FORM, 0) == 1
    assert hilbert_value(WEDGE, FORM, 1) == 4
    assert hilbert_value(WEDGE, FORM, 2) == 9
    for n in range(1, 9):
        assert hilbert_value(WEDGE, FORM, n) == 5 * n - 1


def test_hilbert_value_validation():
    with pytest.raises(ValueError):
        hilbert_value(WEDGE, FORM, -1)
    with pytest.raises(ValueError):
        hilbert_value(WEDGE, LinearWeightTuple([[1]]), 1)
    shifted = LatticePolytope([(-1, 0), (1, 0)])
    with pytest.raises(ValueError):
        hilbert_value(shifted, FORM, 1)


def test_hilbert_value_against_box_oracle():
    rng = random.Random(8152)
    for case in range(30):
        s = rng.randint(1, 2)
        verts = random_vertices(rng, s, rng.randint(1, 4), 0, 3)
        P = LatticePolytope(verts)
        p = rng.randint(1, 2)
        W = LinearWeightTuple(
            [[rng.randint(0, 2) for _ in range(s)] for _ in range(p)]
        )
        n = rng.randint(0, 3)
        images = {W.apply(a) for a in box_points(verts, n)}
        assert hilbert_value(P, W, n) == len(images)


def test_image_polytope():
    img = image_polytope(WEDGE, FORM)
    assert set(img.vertices) == {(3,), (8,)}
    assert img.dim == 1


# ---------------------------------------------------------------- fits

def test_fit_fixture_wedge():
    fit, onset = hilbert_polynomial(WEDGE, FORM)
    assert fit == UniPoly([-1, 5])
    assert onset == 1


def test_fit_identity_tuple_recovers_counting_polynomial():
    fit, onset = hilbert_polynomial(UNIT_SQUARE, IDENTITY2)
    assert fit == ehrhart_polynomial(UNIT_SQUARE) == UniPoly([1, 2, 1])
    assert onset == 0


def test_fit_even_numbers():
    # images of [0,n] under multiplication by two: 0, 2, ..., 2n
    fit, onset = hilbert_polynomial(UNIT_INTERVAL, DOUBLER)
    assert fit == UniPoly([1, 1])
    assert onset == 0


def test_fit_parameter_validation():
    with pytest.raises(ValueError):
        hilbert_polynomial(WEDGE, FORM, max_onset=-1)


def test_fit_undetermined_carries_samples():
    # an onset cap of 0 samples no count; the false fit's cap of 7 samples
    # n = 1..9, each the count hilbert_value gives
    with pytest.raises(UndeterminedFitError) as info:
        hilbert_polynomial(WEDGE, FORM, max_onset=0)
    assert info.value.samples == {}
    with pytest.raises(UndeterminedFitError) as info:
        hilbert_polynomial(FALSE_FIT_P, FALSE_FIT_W, max_onset=7)
    samples = info.value.samples
    assert sorted(samples) == list(range(1, 10))
    assert all(v == hilbert_value(FALSE_FIT_P, FALSE_FIT_W, n) for n, v in samples.items())


@pytest.mark.parametrize("max_onset", [12, 7])
def test_fit_leaves_every_count_it_read_in_the_callers_dict(max_onset, monkeypatch):
    # the false fit's cap of 12 fits from n = 8 and its cap of 7 raises; either
    # way each count read is in the caller's dict, and no given count is read
    value, read = hilbert_value, {}

    def recorded(P, W, n):
        read[n] = value(P, W, n)
        return read[n]

    counts = {n: value(FALSE_FIT_P, FALSE_FIT_W, n) for n in (1, 2)}
    monkeypatch.setattr(ehrwt.hilbert, "hilbert_value", recorded)
    try:
        assert _fit(FALSE_FIT_P, FALSE_FIT_W, max_onset, counts)[:2] == (UniPoly([-10, 27]), 8)
    except UndeterminedFitError as exc:
        assert max_onset == 7 and exc.samples == counts
    assert read and not {1, 2} & set(read)
    assert all(counts[n] == c for n, c in read.items())


def test_fit_passes_the_leading_coefficient_certificate():
    assert hilbert_polynomial(FALSE_FIT_P, FALSE_FIT_W) == (UniPoly([-10, 27]), 8)
    coeffs = expand(hilbert_series(FALSE_FIT_P, FALSE_FIT_W), 20)
    assert coeffs == [hilbert_value(FALSE_FIT_P, FALSE_FIT_W, n) for n in range(21)]
    # the false start at n = 3 is passed over, not accepted when the search
    # ends, and the message names it and both leading coefficients
    with pytest.raises(UndeterminedFitError, match=(
            r"^image count stabilized from n = 3 on a fit leading with 28, where the "
            r"certificate gives 27, but passed both tests on no window with onset <= 7; ")):
        hilbert_polynomial(FALSE_FIT_P, FALSE_FIT_W, max_onset=7)


def test_certificate_walks_no_lattice_of_the_image_hull():
    # W is injective on Z^3, so the images are the points of nP; the image
    # hull holds about 10^12 n^3 / 6 points of Z^3, past the enumeration cap
    P = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    W = LinearWeightTuple([[10**4, 1, 0], [3, 10**4, 1], [0, 2, 10**4]])
    assert hilbert_polynomial(P, W) == (ehrhart_polynomial(P), 0)


@st.composite
def small_image_inputs(draw):
    """(P, W): 1-4 points of [0, 4]^s for s = 1, 2, or of [0, 2]^3, and 1-2
    forms with entries 0..3, so 20 dilations past an onset stay cheap."""
    s = draw(st.integers(1, 3))
    hi = 4 if s < 3 else 2
    m = draw(st.integers(1, min(4, (hi + 1) ** s)))
    points = st.lists(st.tuples(*[st.integers(0, hi)] * s), min_size=m, max_size=m, unique=True)
    form = st.lists(st.integers(0, 3), min_size=s, max_size=s)
    return LatticePolytope(draw(points)), LinearWeightTuple(draw(st.lists(form, min_size=1,
                                                                          max_size=2)))


@settings(max_examples=150)
@given(small_image_inputs())
@example((WEDGE, FORM))
@example((FALSE_FIT_P, FALSE_FIT_W))
def test_fit_matches_the_counts_twenty_past_its_onset(case):
    P, W = case
    try:
        fit, onset = hilbert_polynomial(P, W)
    except UndeterminedFitError:
        return
    assert [fit(n) for n in range(onset, onset + 21)] == [
        hilbert_value(P, W, n) for n in range(onset, onset + 21)]


@st.composite
def image_count_inputs(draw):
    """(P, W, max_onset): 1-5 points of [0, 4]^s with s = 1..3, so P is often
    lower-dimensional, and 1-3 forms with entries 0..3, all zero now and then."""
    s = draw(st.integers(1, 3))
    m, p = draw(st.sampled_from([4, 5, 3, 2, 1])), draw(st.sampled_from([1, 2, 3]))
    points = st.lists(st.tuples(*[st.integers(0, 4)] * s), min_size=m, max_size=m, unique=True)
    P = LatticePolytope(draw(points))
    entry = st.just(0) if draw(st.integers(0, 7)) == 7 else st.sampled_from([1, 2, 3, 0])
    form = st.lists(entry, min_size=s, max_size=s)
    W = LinearWeightTuple(draw(st.lists(form, min_size=p, max_size=p)))
    return P, W, draw(st.sampled_from([12, 64, 2, 1, 0]))


def _fit_with_counts(P, W, max_onset):
    """_fit's (fit, onset, series) after the counts it read, as window_fit returns."""
    counts = {}
    return (counts, *_fit(P, W, max_onset, counts))


def _fit_outcome(route, P, W, max_onset):
    """Dilations read with their counts, in the order read, and the result."""
    try:
        counts, fit, onset, series = route(P, W, max_onset)
    except UndeterminedFitError as exc:
        return list(exc.samples.items()), None
    return list(counts.items()), (fit, onset, series)


@settings(max_examples=200)
@given(image_count_inputs())
@example((WEDGE, FORM, 64))
@example((WEDGE, FORM, 0))
@example((UNIT_SQUARE, LinearWeightTuple([[0, 0]]), 12))
@example((FALSE_FIT_P, FALSE_FIT_W, 12))
def test_difference_test_fit_matches_interpolated_windows(case):
    P, W, max_onset = case
    ours = _fit_outcome(_fit_with_counts, P, W, max_onset)
    assert ours == _fit_outcome(window_fit, P, W, max_onset)


# ---------------------------------------------------------------- series

def test_series_fixtures():
    assert hilbert_series(WEDGE, FORM) == RationalGF(UniPoly([1, 2, 2]), 2)
    assert hilbert_series(UNIT_SQUARE, IDENTITY2) == RationalGF(UniPoly([1, 1]), 3)
    assert hilbert_series(UNIT_INTERVAL, DOUBLER) == RationalGF(UniPoly([1]), 2)


def test_series_expansion_reproduces_values():
    for P, W in ((WEDGE, FORM), (UNIT_SQUARE, IDENTITY2), (UNIT_INTERVAL, DOUBLER)):
        coeffs = expand(hilbert_series(P, W), 15)
        assert coeffs == [hilbert_value(P, W, n) for n in range(16)]


def test_series_matches_fit_plus_corrections():
    # the fitted tail's cube-assembled series plus the corrections below
    # the onset, added as series; the seed reaches onsets 0, 1, 2, 3, 10
    rng = random.Random(61)
    onsets = set()
    for case in range(60):
        s = rng.randint(1, 3)
        P = LatticePolytope(random_vertices(rng, s, rng.randint(1, 4), 0, 3))
        W = LinearWeightTuple(
            [[rng.randint(0, 3) for _ in range(s)] for _ in range(rng.randint(1, 2))]
        )
        fit, onset = hilbert_polynomial(P, W)
        corrections = [hilbert_value(P, W, n) - fit(n) for n in range(onset)]
        expected = series_by_cube_assembly(fit) + RationalGF(UniPoly(corrections), 0)
        assert repr(hilbert_series(P, W)) == repr(expected), (P, W)
        onsets.add(onset)
    assert {0, 1, 2, 3, 10} <= onsets


# ---------------------------------------------------------------- image gap

def test_gap_fixture_wedge():
    report = image_gap_report(WEDGE, FORM, 1)
    assert report.image_count == 4
    assert report.dilated_image_lattice_count == 6
    assert report.strict


def test_gap_lattice_counts_grow_linearly():
    for n in range(9):
        report = image_gap_report(WEDGE, FORM, n)
        assert report.dilated_image_lattice_count == 5 * n + 1


def test_gap_identity_tuple_never_strict():
    for n in range(4):
        report = image_gap_report(UNIT_SQUARE, IDENTITY2, n)
        assert report.image_count == report.dilated_image_lattice_count
        assert not report.strict


# ---------------------------------------------------------------- invariants

def test_invariants_on_random_inputs():
    rng = random.Random(424242)
    for case in range(25):
        s = rng.randint(1, 2)
        verts = random_vertices(rng, s, rng.randint(1, 4), 0, 3)
        P = LatticePolytope(verts)
        p = rng.randint(1, 2)
        W = LinearWeightTuple(
            [[rng.randint(0, 2) for _ in range(s)] for _ in range(p)]
        )
        counting = ehrhart_polynomial(P)
        values = [hilbert_value(P, W, n) for n in range(9)]
        for n, h in enumerate(values):
            assert 1 <= h <= counting(n)
            assert h <= image_gap_report(P, W, n).dilated_image_lattice_count
        assert all(a <= b for a, b in zip(values, values[1:]))
        coeffs = expand(hilbert_series(P, W), 15)
        assert coeffs == [hilbert_value(P, W, n) for n in range(16)]
