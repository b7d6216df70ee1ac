"""Input rules shared by every module.

An integer argument is an int, not a bool, of at least some bound; a
rational input is a numbers.Rational that is not a bool, cleared to integer
numerators over one denominator, and anything else in it (a float, a bool,
a str, a Decimal) is refused by name with a TypeError. A weight's integer
tokens are ASCII digits, and a point's length must match. Each rule lives
in one place in ehrwt.polynomials, so these tables pin the exception type
and the text at every entry point that applies it.
"""

import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from ehrwt import (
    Graph,
    LatticePolytope,
    LinearWeightTuple,
    RationalGF,
    UniPoly,
    WeightParseError,
    WeightPoly,
    contains,
    cube_series,
    eulerian,
    expand,
    hilbert_polynomial,
    hilbert_series,
    hilbert_value,
    interior_lattice_points,
    lagrange_interpolate,
    lattice_points,
    parse_weight,
    reciprocity_check,
    weighted_by_affine_lift,
    weighted_sum,
)
from ehrwt.weighted import affine_lift_polytope

SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
FORM = LinearWeightTuple([[1, 2]])
T1 = WeightPoly.variable(1, 2)
GF = RationalGF([1], 1)

DILATION = "dilation factor must be a nonnegative integer"
EXPONENT = "exponent must be a nonnegative integer"
EULERIAN = "eulerian arguments must be nonnegative integers"

# (call with the flag b, exception type, message with {b} for the flag)
BOOL_CASES = {
    "vertex coordinate": (lambda b: LatticePolytope([(b, 0)]),
                          ValueError, "vertex coordinate {b} is not an integer"),
    "graph vertex_count": (lambda b: Graph(b, []),
                           ValueError, "vertex_count must be a positive integer"),
    "graph edge, first end": (lambda b: Graph(2, [(b, 2)]),
                              ValueError, "edge ({b}, 2) must be a pair of integers"),
    "graph edge, second end": (lambda b: Graph(2, [(1, b)]),
                               ValueError, "edge (1, {b}) must be a pair of integers"),
    "lattice_points n": (lambda b: lattice_points(SQUARE, b), ValueError, DILATION),
    "interior_lattice_points n": (lambda b: interior_lattice_points(SQUARE, b),
                                  ValueError, "dilation factor must be a positive integer"),
    "linear form entry": (lambda b: LinearWeightTuple([(b, 0)]),
                          ValueError, "row ({b}, 0) must contain nonnegative integers"),
    "hilbert_value n": (lambda b: hilbert_value(SQUARE, FORM, b), ValueError, DILATION),
    "hilbert_polynomial max_onset": (lambda b: hilbert_polynomial(SQUARE, FORM, b),
                                     ValueError, "max_onset must be a nonnegative integer"),
    "hilbert_series max_onset": (lambda b: hilbert_series(SQUARE, FORM, b),
                                 ValueError, "max_onset must be a nonnegative integer"),
    "UniPoly exponent": (lambda b: UniPoly([1, 1]) ** b, ValueError, EXPONENT),
    "WeightPoly exponent": (lambda b: T1**b, ValueError, EXPONENT),
    "UniPoly.monomial power": (lambda b: UniPoly.monomial(b),
                               ValueError, "power must be nonnegative"),
    "WeightPoly nvars": (lambda b: WeightPoly(b, {}),
                         ValueError, "nvars must be a positive integer"),
    "WeightPoly exponent vector": (
        lambda b: WeightPoly(2, {(b, 0): 1}),
        ValueError, "exponent vector ({b}, 0) must contain nonnegative integers"),
    "WeightPoly.variable index": (lambda b: WeightPoly.variable(b, 2),
                                  ValueError, "variable index {b} out of range 1..2"),
    "RationalGF denom_power": (lambda b: RationalGF([1], b),
                               TypeError, "denominator power {b} is not an integer"),
    "RationalGF.expand count": (lambda b: GF.expand(b),
                                ValueError, "count must be a nonnegative integer"),
    "expand count": (lambda b: expand(GF, b), ValueError, "count must be a nonnegative integer"),
    "eulerian d": (lambda b: eulerian(b, 0), ValueError, EULERIAN),
    "eulerian k": (lambda b: eulerian(2, b), ValueError, EULERIAN),
    "cube_series d": (lambda b: cube_series(b),
                      ValueError, "cube dimension must be a nonnegative integer"),
    "parse_weight nvars": (lambda b: parse_weight("t1", b),
                           ValueError, "nvars must be a positive integer"),
    "weighted_sum n": (lambda b: weighted_sum(SQUARE, T1, b), ValueError, DILATION),
    "reciprocity_check n_max": (lambda b: reciprocity_check(SQUARE, T1, b),
                                ValueError, "n_max must be a positive integer"),
    # the rational rule: a bool is refused as a float is, by name
    "affine_lift_polytope coefficient": (lambda b: affine_lift_polytope(SQUARE, [b, 0]),
                                         TypeError, "boolean coefficient {b} is not allowed"),
    "weighted_by_affine_lift coefficient": (
        lambda b: weighted_by_affine_lift(SQUARE, [b, 0], 0),
        TypeError, "boolean coefficient {b} is not allowed"),
    "weighted_by_affine_lift offset": (lambda b: weighted_by_affine_lift(SQUARE, [1, 0], b),
                                       TypeError, "boolean offset {b} is not allowed"),
    "contains dilation": (lambda b: contains(SQUARE, (0, 0), b),
                          TypeError, "boolean dilation factor {b} is not allowed"),
    "contains coordinate": (lambda b: contains(SQUARE, (b, 0)),
                            TypeError, "boolean coordinate {b} is not allowed"),
    "UniPoly coefficient": (lambda b: UniPoly([1, b]),
                            TypeError, "boolean coefficient {b} is not allowed"),
    "UniPoly evaluation point": (lambda b: UniPoly([1, 1])(b),
                                 TypeError, "boolean evaluation point {b} is not allowed"),
    "WeightPoly coefficient": (lambda b: WeightPoly(1, {(0,): 1, (1,): b}),
                               TypeError, "boolean coefficient {b} is not allowed"),
    "WeightPoly.eval coordinate": (lambda b: T1.eval((1, b)),
                                   TypeError, "boolean coordinate {b} is not allowed"),
    "lagrange abscissa": (lambda b: lagrange_interpolate([(2, 1), (b, 2)]),
                          TypeError, "boolean abscissa {b} is not allowed"),
    "lagrange value": (lambda b: lagrange_interpolate([(0, 1), (1, b)]),
                       TypeError, "boolean value {b} is not allowed"),
    "RationalGF numerator": (lambda b: RationalGF([1, b], 1),
                             TypeError, "boolean coefficient {b} is not allowed"),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("case", BOOL_CASES)
def test_bool_is_not_an_integer_argument(case, flag):
    call, error, message = BOOL_CASES[case]
    with pytest.raises(error, match="^" + re.escape(message.format(b=flag)) + "$"):
        call(flag)


# the rational entry points of BOOL_CASES, whose refusal names the value's kind
RATIONAL_CASES = {case: entry for case, entry in BOOL_CASES.items()
                  if entry[2].startswith("boolean ")}


@pytest.mark.parametrize("value", ["1", Decimal("1"), 0.5], ids=["str", "Decimal", "float"])
@pytest.mark.parametrize("case", RATIONAL_CASES)
def test_only_a_rational_enters(case, value):
    call, error, message = RATIONAL_CASES[case]
    kind = "floating point" if isinstance(value, float) else type(value).__name__
    expected = message.replace("boolean", kind, 1).format(b=repr(value))
    with pytest.raises(error, match="^" + re.escape(expected) + "$"):
        call(value)


# (call, exception type, full message): the float, text and Decimal refusals of
# the rational rule, the point-length check, then the integer-argument rule with
# non-bool values
MESSAGE_CASES = {
    "UniPoly coefficient": (lambda: UniPoly([1, 0.5]),
                            TypeError, "floating point coefficient 0.5 is not allowed"),
    "WeightPoly coefficient": (lambda: WeightPoly(1, {(0,): 1, (1,): 0.25}),
                               TypeError, "floating point coefficient 0.25 is not allowed"),
    "UniPoly evaluation point": (lambda: UniPoly([1, 1])(0.5),
                                 TypeError, "floating point evaluation point 0.5 is not allowed"),
    "lagrange abscissa": (lambda: lagrange_interpolate([(0, 1), (1.5, 2)]),
                          TypeError, "floating point abscissa 1.5 is not allowed"),
    "lagrange value": (lambda: lagrange_interpolate([(0, 1), (1, 2.0)]),
                       TypeError, "floating point value 2.0 is not allowed"),
    "contains coordinate": (lambda: contains(SQUARE, (F(1, 2), 0.5)),
                            TypeError, "floating point coordinate 0.5 is not allowed"),
    "contains dilation": (lambda: contains(SQUARE, (0, 0), 0.5),
                          TypeError, "floating point dilation factor 0.5 is not allowed"),
    # text is not a rational, though Fraction() would parse it: "123" is no
    # coefficient list, nor "10" a point, and 1_0, ٣ and 1e1 are no numbers here
    "UniPoly coefficients as text": (lambda: UniPoly("123"),
                                     TypeError, "str coefficient '1' is not allowed"),
    "contains point as text": (lambda: contains(SQUARE, "10"),
                               TypeError, "str coordinate '1' is not allowed"),
    "contains coordinate as text": (lambda: contains(SQUARE, ("1_0", 0)),
                                    TypeError, "str coordinate '1_0' is not allowed"),
    "UniPoly evaluation point as text": (
        lambda: UniPoly([1, 1])("\u0663"),
        TypeError, "str evaluation point '\u0663' is not allowed"),
    "lagrange abscissa as text": (lambda: lagrange_interpolate([(0, 1), ("1e1", 2)]),
                                  TypeError, "str abscissa '1e1' is not allowed"),
    "weighted_by_affine_lift offset as text": (
        lambda: weighted_by_affine_lift(SQUARE, [1, 0], "1"),
        TypeError, "str offset '1' is not allowed"),
    "UniPoly Decimal coefficient": (
        lambda: UniPoly([1, Decimal("0.5")]),
        TypeError, "Decimal coefficient Decimal('0.5') is not allowed"),
    # a point's length, checked by one helper
    "contains point length": (lambda: contains(SQUARE, (0, 0, 0)),
                              ValueError, "point has length 3, expected 2"),
    "WeightPoly.eval point length": (lambda: T1.eval((1,)),
                                     ValueError, "point has length 1, expected 2"),
    "LinearWeightTuple.apply point length": (lambda: FORM.apply((1, 2, 3)),
                                             ValueError, "point has length 3, expected 2"),
    # a weight's integer tokens are ASCII digits: not 1_0, nor another script's
    "weight digit group": (lambda: parse_weight("1_0", 1),
                           WeightParseError, "unexpected character '_' (position 1)"),
    "weight digit": (lambda: parse_weight("\u0663", 1),
                     WeightParseError, "unexpected character '\u0663' (position 0)"),
    "weight variable digit": (lambda: parse_weight("t\u0661", 1),
                              WeightParseError, "unexpected character 't' (position 0)"),
    "vertex coordinate": (lambda: LatticePolytope([(0, 1.0)]),
                          ValueError, "vertex coordinate 1.0 is not an integer"),
    "graph vertex_count": (lambda: Graph(0, []),
                           ValueError, "vertex_count must be a positive integer"),
    "graph edge": (lambda: Graph(2, [(1, 2.0)]),
                   ValueError, "edge (1, 2.0) must be a pair of integers"),
    "graph edge of three ends": (lambda: Graph(3, [(1, 2, 3)]),
                                 ValueError, "edge (1, 2, 3) must be a pair of integers"),
    "graph edge of one end": (lambda: Graph(3, [(1,)]),
                              ValueError, "edge (1,) must be a pair of integers"),
    "lattice_points n": (lambda: lattice_points(SQUARE, -1), ValueError, DILATION),
    "interior_lattice_points n": (lambda: interior_lattice_points(SQUARE, 0),
                                  ValueError, "dilation factor must be a positive integer"),
    "linear form entry": (lambda: LinearWeightTuple([(1, -1)]),
                          ValueError, "row (1, -1) must contain nonnegative integers"),
    "hilbert_value n": (lambda: hilbert_value(SQUARE, FORM, 1.0), ValueError, DILATION),
    "hilbert max_onset": (lambda: hilbert_series(SQUARE, FORM, -1),
                          ValueError, "max_onset must be a nonnegative integer"),
    "UniPoly exponent": (lambda: UniPoly([1, 1]) ** -1, ValueError, EXPONENT),
    "WeightPoly exponent": (lambda: T1 ** F(2), ValueError, EXPONENT),
    "UniPoly.monomial power": (lambda: UniPoly.monomial(-1),
                               ValueError, "power must be nonnegative"),
    "WeightPoly nvars": (lambda: WeightPoly(0, {}),
                         ValueError, "nvars must be a positive integer"),
    "WeightPoly exponent vector": (
        lambda: WeightPoly(2, {(1, -1): 1}),
        ValueError, "exponent vector (1, -1) must contain nonnegative integers"),
    "WeightPoly exponent vector length": (
        lambda: WeightPoly(2, {(1,): 1}),
        ValueError, "exponent vector (1,) does not have length 2"),
    "WeightPoly.variable index": (lambda: WeightPoly.variable(3, 2),
                                  ValueError, "variable index 3 out of range 1..2"),
    "RationalGF denom_power type": (
        lambda: RationalGF([1], F(2)),
        TypeError, "denominator power Fraction(2, 1) is not an integer"),
    "RationalGF denom_power sign": (lambda: RationalGF([1], -1),
                                    ValueError, "denominator power must be nonnegative"),
    "expand count": (lambda: expand(GF, -1), ValueError, "count must be a nonnegative integer"),
    "eulerian": (lambda: eulerian(2, 1.0), ValueError, EULERIAN),
    "cube_series d": (lambda: cube_series(-1),
                      ValueError, "cube dimension must be a nonnegative integer"),
    "parse_weight nvars": (lambda: parse_weight("t1", 0),
                           ValueError, "nvars must be a positive integer"),
    "weighted_sum n": (lambda: weighted_sum(SQUARE, T1, -1), ValueError, DILATION),
    "reciprocity_check n_max": (lambda: reciprocity_check(SQUARE, T1, 0),
                                ValueError, "n_max must be a positive integer"),
}


@pytest.mark.parametrize("case", MESSAGE_CASES)
def test_refusal_messages(case):
    call, error, message = MESSAGE_CASES[case]
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()

