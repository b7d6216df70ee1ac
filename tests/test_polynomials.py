"""Univariate/multivariate polynomial layer: arithmetic, Eulerian numbers,
generating functions, interpolation, the weight grammar, and text canon."""

import math
import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrwt import (
    RationalGF,
    UniPoly,
    WeightPoly,
    cube_series,
    eulerian,
    eval_weight,
    expand,
    format_polynomial,
    format_series,
    gf_of_polynomial,
    lagrange_interpolate,
    parse_weight,
)
from ehrwt.errors import WeightParseError
from ehrwt.polynomials import MAX_WEIGHT_EXPONENT

from oracles import (
    eulerian_row,
    fraction_horner,
    fraction_list,
    fraction_list_product,
    fraction_weight_parts,
    newton_interpolate,
    oracle_parse_weight,
    series_by_cube_assembly,
    term_product,
    term_sum,
    term_value,
)


def assert_unipoly_form(p, coeffs):
    """p equals the Fraction list coeffs and stores it as integer numerators,
    no trailing zero, over the lcm of its denominators."""
    coeffs = fraction_list(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    assert p.coeffs == coeffs and all(type(c) is F for c in p.coeffs)
    assert (p._den, p._num) == (den, tuple(int(c * den) for c in coeffs))


def assert_weight_form(w, terms):
    """w has the Fraction terms and stores them as sorted integer numerators
    over the lcm of their denominators."""
    terms, den, scaled = fraction_weight_parts(terms.items())
    assert w.terms == terms and all(type(c) is F for c in w.terms.values())
    assert (w._den, list(w._num.items())) == (den, list(scaled.items()))


# ---------------------------------------------------------------- UniPoly

def test_unipoly_trims_trailing_zeros():
    assert UniPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert UniPoly([0, 0]).coeffs == ()
    assert not UniPoly([])


def test_unipoly_degree_conventions():
    assert UniPoly([3]).degree == 0
    assert UniPoly([0, 0, 5]).degree == 2
    assert UniPoly([]).degree == float("-inf")


def test_unipoly_evaluation_is_exact():
    p = UniPoly([F(1, 4), 0, F(-2), 1])
    assert p(F(1, 2)) == F(1, 4) - F(1, 2) + F(1, 8)
    assert p(0) == F(1, 4)


@settings(max_examples=200)
@given(
    st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12), max_size=10),
    st.integers(-10**6, 10**6) | st.fractions(min_value=-30, max_value=30, max_denominator=50),
)
def test_unipoly_evaluation_matches_fraction_horner(coeffs, x):
    # integer and rational points of either sign; the empty list is the zero polynomial
    p = UniPoly(coeffs)
    value = p(x)
    assert type(value) is F
    assert value == fraction_horner(p, x)


def test_unipoly_arithmetic():
    p = UniPoly([1, 1])
    q = UniPoly([0, 2, 3])
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert (p - p).coeffs == ()
    assert (p * q).coeffs == (F(0), F(2), F(5), F(3))
    assert (p * F(1, 2)).coeffs == (F(1, 2), F(1, 2))
    assert (-q).coeffs == (F(0), F(-2), F(-3))


def test_unipoly_pow():
    p = UniPoly([1, 1])
    assert (p ** 0).coeffs == (F(1),)
    assert (p ** 4).coeffs == tuple(F(math.comb(4, k)) for k in range(5))
    with pytest.raises(ValueError):
        p ** -1


@pytest.mark.parametrize("base", [UniPoly([1, 1]), WeightPoly.variable(1, 2) + 1])
def test_pow_squares_no_further_than_the_top_bit(base, monkeypatch):
    # square-and-multiply: bit_length - 1 squarings, popcount multiplications
    mul = type(base).__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(type(base), "__mul__", counting)
    for e in range(71):
        calls.clear()
        power = base**e
        assert len(calls) == max(e.bit_length() - 1 + bin(e).count("1"), 0), e
    assert power == mul(base**69, base)


def test_unipoly_rejects_floats():
    with pytest.raises(TypeError):
        UniPoly([0.5])


def test_div_one_minus_x():
    # (1 - x) * (1 + 2x) = 1 + x - 2x^2
    quotient = UniPoly([1, 1, -2]).div_one_minus_x()
    assert quotient.coeffs == (F(1), F(2))
    with pytest.raises(ValueError):
        UniPoly([1, 1]).div_one_minus_x()


def test_unipoly_monomial():
    assert UniPoly.monomial(3, 5).coeffs == (F(0), F(0), F(0), F(5))
    with pytest.raises(ValueError):
        UniPoly.monomial(-1)


_unipoly_coefficient = st.integers(-9, 9) | st.fractions(
    min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=200)
@given(st.lists(_unipoly_coefficient, max_size=8), st.lists(_unipoly_coefficient, max_size=8),
       _unipoly_coefficient, st.integers(0, 4))
def test_unipoly_operators_match_fraction_lists(a, b, scalar, k):
    # every operator leaves the stored form the Fraction list's, in lowest terms
    p, q = UniPoly(a), UniPoly(b)
    assert_unipoly_form(p, a)
    assert_unipoly_form(-p, [-c for c in a])
    assert_unipoly_form(p + q, [x + y for x, y in zip_longest(a, b, fillvalue=0)])
    assert_unipoly_form(p - q, [x - y for x, y in zip_longest(a, b, fillvalue=0)])
    assert_unipoly_form(p * q, fraction_list_product(a, b))
    assert_unipoly_form(p * scalar, [F(c) * scalar for c in a])
    assert_unipoly_form(scalar * p, [F(c) * scalar for c in a])
    power = [1]
    for _ in range(k):
        power = fraction_list_product(power, a)
    assert_unipoly_form(p**k, power)
    # times (1 - x) and back; a polynomial with p(1) != 0 has no such quotient
    assert_unipoly_form(UniPoly(fraction_list_product(a, [1, -1])).div_one_minus_x(), a)
    if fraction_horner(p, 1) != 0:
        with pytest.raises(ValueError):
            p.div_one_minus_x()
    for x in (scalar, k):
        assert (p * q)(x) == fraction_horner(p, x) * fraction_horner(q, x)


def test_equal_unipolys_compare_and_hash_equal_whatever_the_route():
    routes = [
        (UniPoly([F(1, 2), F(1, 3)]) * 6, UniPoly([3, 2])),
        (UniPoly([F(1, 2), F(1, 6)]) + UniPoly([F(1, 2), F(1, 6)]), UniPoly([1, F(1, 3)])),
        (UniPoly([F(3, 4), F(-1, 4)]) - UniPoly([F(1, 4), F(-1, 4)]), UniPoly([F(1, 2)])),
        (UniPoly([F(1, 3), 7]) - UniPoly([F(1, 3), 7]), UniPoly()),
        (UniPoly([F(2, 3), F(-4, 3), F(2, 3)]).div_one_minus_x(), UniPoly([F(2, 3), F(-2, 3)])),
        (UniPoly([F(5, 6), 1]) * F(6, 5), UniPoly([1, F(6, 5)])),
    ]
    for built, direct in routes:
        assert built == direct and hash(built) == hash(direct), (built, direct)
        assert (built._num, built._den) == (direct._num, direct._den)
    assert RationalGF(UniPoly([F(1, 2)]) * 2, 1) == RationalGF(UniPoly([1]), 1)
    assert hash(RationalGF(UniPoly([F(1, 2)]) * 2, 1)) == hash(RationalGF(UniPoly([1]), 1))


# ---------------------------------------------------------------- Eulerian numbers

def test_eulerian_fixed_values():
    assert eulerian(3, 0) == 0
    assert eulerian(1, 1) == 1
    assert eulerian(3, 2) == 4
    assert eulerian(0, 0) == 1
    assert eulerian(2, 5) == 0


def test_eulerian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eulerian(-1, 0)
    with pytest.raises(ValueError):
        eulerian(2, -1)


def test_eulerian_against_recurrence():
    for d in range(0, 9):
        row = eulerian_row(d)
        for k in range(d + 1):
            assert eulerian(d, k) == row[k], (d, k)


def test_eulerian_row_sums_and_symmetry():
    for d in range(1, 9):
        assert sum(eulerian(d, k) for k in range(d + 1)) == math.factorial(d)
        for k in range(1, d + 1):
            assert eulerian(d, k) == eulerian(d, d + 1 - k)


# ---------------------------------------------------------------- series basics

def test_cube_series_fixed():
    assert cube_series(0) == RationalGF(UniPoly([1]), 1)
    assert cube_series(2) == RationalGF(UniPoly([1, 1]), 3)
    assert cube_series(3) == RationalGF(UniPoly([1, 4, 1]), 4)


def test_cube_series_counts_cube_points():
    for d in range(1, 7):
        coeffs = expand(cube_series(d), 12)
        for n in range(13):
            assert coeffs[n] == (n + 1) ** d, (d, n)


def test_cube_series_numerator_degree():
    # numerator degree d-1 against denominator degree d+1, gap always 2
    for d in range(1, 13):
        gf = cube_series(d)
        assert gf.numerator.degree == d - 1
        assert gf.denom_power == d + 1


def test_gf_of_polynomial_fixed():
    assert gf_of_polynomial(UniPoly()) == RationalGF(UniPoly(), 0)
    assert gf_of_polynomial(UniPoly([1])) == RationalGF(UniPoly([1]), 1)
    assert gf_of_polynomial(UniPoly([1, 2, 1])) == RationalGF(UniPoly([1, 1]), 3)
    k1 = UniPoly([0, 0, F(1, 4), F(1, 2), F(1, 4)])
    assert gf_of_polynomial(k1) == RationalGF(UniPoly([0, 1, 4, 1]), 5)


def test_gf_expand_round_trip_random():
    rng = random.Random(20260814)
    for _ in range(60):
        degree = rng.randint(0, 6)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
        g = UniPoly(coeffs)
        values = expand(gf_of_polynomial(g), 12)
        assert values == [g(n) for n in range(13)]


_coefficient = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=200)
@given(st.lists(_coefficient, max_size=15), _coefficient.filter(bool))
def test_gf_of_polynomial_matches_cube_assembly(lower, lead):
    # degrees 0..15, constants included; the lower coefficients may vanish
    g = UniPoly(lower + [lead])
    assert repr(gf_of_polynomial(g)) == repr(series_by_cube_assembly(g))


def test_expand_fixed():
    assert expand(RationalGF(UniPoly([1]), 1), 3) == [1, 1, 1, 1]
    assert expand(RationalGF(UniPoly([1, 2, 2]), 3), 2) == [1, 5, 14]
    assert expand(RationalGF(UniPoly([0, 2]), 4), 4) == [0, 2, 8, 20, 40]


def test_rationalgf_canonicalization():
    # numerator x - x^2 = x(1 - x), one factor cancels
    gf = RationalGF(UniPoly([0, 1, -1]), 3)
    assert gf.numerator.coeffs == (F(0), F(1))
    assert gf.denom_power == 2
    zero = RationalGF(UniPoly([]), 5)
    assert zero.numerator.coeffs == ()
    assert zero.denom_power == 0
    assert not zero


def test_rationalgf_canonical_invariant_random():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]
        gf = RationalGF(UniPoly(coeffs), rng.randint(0, 6))
        assert (not gf.numerator) or gf.numerator(1) != 0


def test_rationalgf_arithmetic_matches_expansion():
    a = RationalGF(UniPoly([1, 1]), 3)
    b = RationalGF(UniPoly([0, 2]), 4)
    total = a + b
    ea, eb, et = (expand(g, 8) for g in (a, b, total))
    assert et == [x + y for x, y in zip(ea, eb)]
    diff = total - b
    assert diff == a
    assert expand(-a, 4) == [-v for v in expand(a, 4)]


def test_rationalgf_validation():
    with pytest.raises(ValueError):
        RationalGF(UniPoly([1]), -1)
    # int() would truncate these silently
    for power in (1.9, F(3, 2), F(2)):
        with pytest.raises(TypeError, match="denominator power"):
            RationalGF(UniPoly([1]), power)


# ---------------------------------------------------------------- interpolation

def test_lagrange_fixed_cubic():
    fit = lagrange_interpolate([(1, 2), (2, 8), (3, 20), (4, 40)])
    assert fit.coeffs == (F(0), F(2, 3), F(1), F(1, 3))


def test_lagrange_constant_and_square():
    assert lagrange_interpolate([(0, F(5, 7))]).coeffs == (F(5, 7),)
    assert lagrange_interpolate([(1, 1), (2, 4), (3, 9)]).coeffs == (F(0), F(0), F(1))


def test_lagrange_rejects_duplicates():
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        lagrange_interpolate([])


def test_lagrange_reproduces_samples_random():
    rng = random.Random(99)
    for _ in range(50):
        xs = rng.sample(range(-20, 21), rng.randint(1, 7))
        samples = [(x, F(rng.randint(-50, 50), rng.randint(1, 6))) for x in xs]
        fit = lagrange_interpolate(samples)
        assert fit.degree == float("-inf") or fit.degree < len(samples)
        for x, y in samples:
            assert fit(x) == y


def _weighted_nodes(count, closed):
    # nodes as weighted_ehrhart_polynomial takes them: closed walks at
    # 1..closed, interior walks at -1..-(count - closed). The split follows
    # the walks' block counts: on a segment, closed 1 and then interior walks
    # of one fiber each; on criterion 3 under t1*...*t7, closed 1..4 of 13
    return [*range(1, closed + 1), *range(-1, closed - count - 1, -1)]


_abscissae = st.one_of(
    st.lists(st.fractions(-40, 40, max_denominator=12), min_size=1, max_size=70, unique=True),
    st.lists(st.integers(-100, 100), min_size=1, max_size=70, unique=True),
    st.integers(1, 70).flatmap(
        lambda count: st.integers(1, count).map(lambda closed: _weighted_nodes(count, closed))),
)


@settings(max_examples=50, deadline=None)
@given(_abscissae, st.lists(st.fractions(-10**6, 10**6, max_denominator=100),
                            min_size=70, max_size=70))
@example(_weighted_nodes(70, 35), [F(k**64) for k in range(70)])
@example(_weighted_nodes(70, 1), [F(k**64) for k in range(70)])
@example([F(1, 2), F(-1, 3), F(5, 7)], [F(1), F(2, 5), F(-3)])
def test_lagrange_matches_newton_divided_differences(xs, ys):
    samples = list(zip(xs, ys))
    fit, oracle = lagrange_interpolate(samples), UniPoly(newton_interpolate(samples))
    assert fit == oracle and hash(fit) == hash(oracle)
    assert fit._den > 0 and math.gcd(fit._den, *fit._num) == 1


# ---------------------------------------------------------------- weight grammar

def test_parse_weight_monomial():
    w = parse_weight("t1^2*t2^2", 2)
    assert w == WeightPoly(2, {(2, 2): 1})
    assert w.is_monomial and w.is_homogeneous


def test_parse_weight_rational_combination():
    w = parse_weight("2/5*t1 - 6/25*t2", 2)
    assert w == WeightPoly(2, {(1, 0): F(2, 5), (0, 1): F(-6, 25)})


def test_parse_weight_expands_powers_of_sums():
    w = parse_weight("(t1+1)^3", 1)
    assert w == WeightPoly(1, {(3,): 1, (2,): 3, (1,): 3, (0,): 1})


def test_parse_weight_precedence():
    # exponent binds tighter than the leading sign
    assert parse_weight("-2^2", 1) == WeightPoly.constant(1, -4)
    assert parse_weight("(-2)^2", 1) == WeightPoly.constant(1, 4)
    assert parse_weight("--t1", 1) == WeightPoly.variable(1, 1)
    assert parse_weight("1+2*3", 1) == WeightPoly.constant(1, 7)


def test_parse_weight_scales_by_no_sign(monkeypatch):
    # a sign of +1 must not rebuild the term or factor as 1 * value
    int_operands = []
    mul = WeightPoly.__mul__

    def counting(self, other):
        if isinstance(other, int):
            int_operands.append(other)
        return mul(self, other)

    monkeypatch.setattr(WeightPoly, "__mul__", counting)
    monkeypatch.setattr(WeightPoly, "__rmul__", counting)
    assert parse_weight("t1*t2 + t3^2 - 2*t1", 3) \
        == WeightPoly(3, {(1, 1, 0): 1, (0, 0, 2): 1, (1, 0, 0): -2})
    assert parse_weight("-t1", 1) == WeightPoly(1, {(1,): -1})
    assert int_operands == []


def test_parse_weight_unicode_minus():
    assert parse_weight("−2*t1", 1) == WeightPoly(1, {(1,): -2})


def test_parse_weight_errors_carry_positions():
    with pytest.raises(WeightParseError) as info:
        parse_weight("t1 + $", 1)
    assert info.value.position == 5
    with pytest.raises(WeightParseError):
        parse_weight("t3", 2)
    with pytest.raises(WeightParseError):
        parse_weight("1/0", 1)
    with pytest.raises(WeightParseError):
        parse_weight("(t1", 1)
    with pytest.raises(WeightParseError):
        parse_weight("t1 t2", 2)
    with pytest.raises(WeightParseError):
        parse_weight("", 1)


def test_parse_weight_deep_nesting_is_a_parse_error():
    assert parse_weight("(" * 100 + "t1" + ")" * 100, 1) == parse_weight("t1", 1)
    with pytest.raises(WeightParseError, match="nests too deeply") as info:
        parse_weight("(" * 3000 + "t1" + ")" * 3000, 1)
    assert 0 < info.value.position < 3000


def test_parse_weight_exponent_cap():
    parse_weight(f"t1^{MAX_WEIGHT_EXPONENT}", 1)
    with pytest.raises(WeightParseError):
        parse_weight(f"t1^{MAX_WEIGHT_EXPONENT + 1}", 1)


def test_parse_weight_caps_total_degree():
    assert parse_weight(f"t1^{MAX_WEIGHT_EXPONENT}", 1).degree == MAX_WEIGHT_EXPONENT
    assert parse_weight(f"(t1+t2+t3)^{MAX_WEIGHT_EXPONENT}", 3).degree == MAX_WEIGHT_EXPONENT
    assert parse_weight("t1^32*t2^32*7 + t1^40", 2).degree == MAX_WEIGHT_EXPONENT
    # the cap is checked at the operator, before the product is built
    for text, degree, position in (
        ("(t1^64)^64", 4096, 7),
        ("t1^40*t2^40", 80, 5),
        ("((t1+t2)^8)^9", 72, 11),
        ("t1*t1^64", 65, 2),
    ):
        with pytest.raises(WeightParseError, match=f"total degree {degree} ") as info:
            parse_weight(text, 2)
        assert info.value.position == position, text
    # the zero weight has no degree to cap
    assert parse_weight("(0*t1)^64*t1^64", 1).is_zero


def test_parse_weight_caps_coefficient_size():
    # a power's size bound, exponent * bit length of the larger of the
    # numerators' l1 norm and the denominator, is checked at the '^'
    cap = MAX_WEIGHT_EXPONENT**2
    for text, bits, position in (
        ("(99^64)^64", 27200, 7),
        ("((9^64)^64)^64", 12992, 7),
        ("(((9^64)^64)^64)^64", 12992, 8),
        ("(2^64)^64", 4160, 6),
        ("((1/2)^64)^64", 4160, 10),
        ("(t1 + 2^64)^64", 4160, 11),
    ):
        message = f"coefficient size {bits} bits exceeds the cap {cap} bits"
        with pytest.raises(WeightParseError, match=message) as info:
            parse_weight(text, 1)
        assert info.value.position == position, text
    # the largest powers under the bound fit in it
    for text in ("(2^63)^64", "((1/2)^63)^64", "(t1 + 2^63)^64", "(-1 - 2^63*t1)^64"):
        w = parse_weight(text, 1)
        assert max(map(abs, w._num.values())).bit_length() <= cap, text
        assert w._den.bit_length() <= cap, text
    assert parse_weight("((2^63)^64)^0", 1) == parse_weight("1", 1)


def test_parse_weight_caps_product_size():
    # a product's size bound, the sum of its factors' bounds, is checked at
    # the '*' before the product is built, so the input's length cannot grow it
    cap = MAX_WEIGHT_EXPONENT**2
    for text, bits, position in (
        ("*".join(["(99^64)^9"] * 800), 7638, 9),
        ("(2^63)^64*2^63", 4097, 9),
        ("2^63*(2^63)^64", 4097, 4),
        ("(t1 + 2^63)^64*(1/2)^63", 4097, 14),
    ):
        message = f"coefficient size {bits} bits exceeds the cap {cap} bits"
        with pytest.raises(WeightParseError, match=message) as info:
            parse_weight(text, 1)
        assert info.value.position == position, text
    # products whose factors' bounds add up to at most the cap pass
    for text in ("(2^63)^64*2^62", "(1/2)^64*((1/2)^64)^62", "t1*(t1 + 2^63)^63*2^63"):
        w = parse_weight(text, 1)
        assert max(map(abs, w._num.values())).bit_length() <= cap, text
        assert w._den.bit_length() <= cap, text


def test_parse_weight_rejects_bad_nvars():
    with pytest.raises(ValueError):
        parse_weight("t1", 0)


# token pieces, bad characters included: a letter, '$', a Unicode digit,
# a superscript (a digit to str.isdigit, not to the regex), a no-break space
_weight_pieces = st.lists(st.sampled_from(
    ["t", "t1", "t2", "t3", "t4", "t5", "t0", "0", "1", "2", "10", "64", "65", "+", "-", "*",
     "/", "^", "(", ")", " ", "\t", "\u2212", "$", "x", "\u0663", "\u00b2", "\u00a0"]),
    max_size=20).map("".join)
_gap = st.sampled_from(["", "", " ", "\t"])
# expressions of the grammar over t1..t5, with tabs and spaces between tokens
_weight_expressions = st.recursive(
    st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 12), st.integers(1, 5)).map(lambda f: f"{f[0]}/{f[1]}"),
        st.integers(1, 5).map(lambda i: f"t{i}"),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, _gap, st.sampled_from("+-*"), _gap, inner).map("".join),
        st.tuples(st.sampled_from(["-", "--", "+", "\u2212"]), _gap, inner).map("".join),
        st.tuples(_gap, inner, _gap).map(lambda t: "(" + "".join(t) + ")"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
    ),
    max_leaves=8,
)


def _parse_outcome(parse, text, nvars):
    try:
        return parse(text, nvars)
    except WeightParseError as exc:
        return type(exc), str(exc), exc.position


@settings(max_examples=1000)
@given(_weight_pieces | _weight_expressions, st.integers(1, 4))
@example("t1*-t2", 2)
@example(" -t1^2 $", 1)
@example("\tt9", 3)
def test_parse_weight_matches_the_former_parser(text, nvars):
    # the former scanner and its two leading-minus rules are the oracle
    assert _parse_outcome(parse_weight, text, nvars) \
        == _parse_outcome(oracle_parse_weight, text, nvars)


@pytest.mark.parametrize("text, nvars, error", [
    # the exponent and the total degree, in products and in powers
    ("t1^64", 1, None),
    ("t1^65", 1, ("exponent 65 exceeds the cap 64", 3)),
    ("t1^32*t2^32", 2, None),
    ("t1^32*t2^33", 2, ("total degree 65 exceeds the cap 64", 5)),
    ("(t1^2*t2^6)^8", 2, None),
    ("(t1^5*t2^8)^5", 2, ("total degree 65 exceeds the cap 64", 11)),
    ("(t1 + 1)^64", 1, None),
    ("(t1^2)^32*t1^0", 1, None),
    ("(t1^2)^33", 1, ("total degree 66 exceeds the cap 64", 6)),
    # the coefficient size, 4,096 bits, for powers and for products
    ("(2^63)^64", 1, None),
    ("(2^64)^64", 1, ("coefficient size 4160 bits exceeds the cap 4096 bits", 6)),
    ("(2^63)^64*2^62", 1, None),
    ("(2^63)^64*2^63", 1, ("coefficient size 4097 bits exceeds the cap 4096 bits", 9)),
    ("(2^63)^64*(2/4)^63*2^62", 1,
     ("coefficient size 4097 bits exceeds the cap 4096 bits", 9)),
    # reducible values: each cap reads them in lowest terms, 2/4 as 1/2 and
    # 2/4*2^63 as 2^62, so these fit, where unreduced they would not
    ("(2/4*2^63*t1 + 2/4)^64", 1, None),
    ("(2/4*2^64*t1 + 2/4)^64", 1, ("coefficient size 4160 bits exceeds the cap 4096 bits", 19)),
    ("(4/2*2^62*t1 - 2/4)^64", 1, ("coefficient size 4160 bits exceeds the cap 4096 bits", 19)),
    ("2/4*(2^63)^64*2^63", 1, None),
    ("(2/4*t1 + 2/4)^64*(2^63)^63", 1, None),
    # 800 factors: the size of the first product stops it
    pytest.param("*".join(["(99^64)^9"] * 800), 1,
                 ("coefficient size 7638 bits exceeds the cap 4096 bits", 9), id="800-factors"),
])
def test_parse_weight_caps_at_their_boundaries(text, nvars, error):
    # each cap fires at the token where the former WeightPoly parser's did, on
    # the sizes of values kept in lowest terms; what passes equals the former
    # parser's weight (it has no product size cap, so it is read only there)
    if error is None:
        assert parse_weight(text, nvars) == oracle_parse_weight(text, nvars)
        return
    message, position = error
    with pytest.raises(WeightParseError) as info:
        parse_weight(text, nvars)
    assert (str(info.value), info.value.position) == (f"{message} (position {position})", position)


# ---------------------------------------------------------------- WeightPoly

def test_eval_weight_fixed():
    w = parse_weight("t1 + 2*t2", 2)
    assert eval_weight(w, (2, 3)) == 8
    seven = parse_weight("t1*t2*t3*t4*t5*t6*t7", 7)
    assert eval_weight(seven, (1, 1, 1, 1, 0, 1, 1)) == 0
    anything = parse_weight("t1^2 - 5/2", 1)
    assert eval_weight(anything, (0,)) == F(-5, 2)


def test_weightpoly_classification():
    assert parse_weight("t1*t2", 2).is_homogeneous
    assert not parse_weight("t1+1", 1).is_homogeneous
    assert parse_weight("0", 1).is_zero
    assert not parse_weight("t1+t2", 2).is_monomial
    assert parse_weight("3", 2).degree == 0
    assert parse_weight("0", 2).degree == float("-inf")


def test_weightpoly_affine_parts():
    row, offset = parse_weight("t1 + t2 - 1", 2).affine_parts()
    assert row == (F(1), F(1))
    assert offset == F(-1)
    with pytest.raises(ValueError):
        parse_weight("t1^2", 1).affine_parts()


def test_weightpoly_arithmetic_and_eval_random():
    rng = random.Random(31)
    for _ in range(50):
        s = rng.randint(1, 3)
        u = WeightPoly(s, {tuple(rng.randint(0, 2) for _ in range(s)): rng.randint(-3, 3)})
        v = WeightPoly(s, {tuple(rng.randint(0, 2) for _ in range(s)): rng.randint(-3, 3)})
        point = tuple(rng.randint(-3, 3) for _ in range(s))
        assert (u + v).eval(point) == u.eval(point) + v.eval(point)
        assert (u * v).eval(point) == u.eval(point) * v.eval(point)
        assert (u - v).eval(point) == u.eval(point) - v.eval(point)
        assert (u ** 2).eval(point) == u.eval(point) ** 2


@st.composite
def rational_weights(draw, nvars):
    """Weights with up to six terms of degree <= 4 whose coefficients have
    either sign and denominators that are often coprime."""
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=35)
    return WeightPoly(nvars, draw(st.dictionaries(exponents, coefficient, max_size=6)))


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda s: st.tuples(rational_weights(s), rational_weights(s))))
def test_weightpoly_product_matches_term_by_term_fractions(pair):
    left, right = pair
    product = left * right
    assert product.terms == term_product(left, right)
    assert list(product.terms) == sorted(product.terms)


class _TermList:
    """The items of a sum of terms, which may repeat an exponent vector."""

    def __init__(self, pairs):
        self._pairs = pairs

    def items(self):
        return iter(self._pairs)


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda s: st.lists(st.tuples(
    st.lists(st.integers(0, 2), min_size=s, max_size=s),
    st.integers(-4, 4) | st.fractions(min_value=-6, max_value=6, max_denominator=9),
), max_size=8)))
def test_weightpoly_normalises_like_fractions(pairs):
    # repeated exponent vectors add up, and the ones that cancel drop out
    pairs = pairs + [(e, -c) for e, c in pairs[::3]]
    nvars = len(pairs[0][0]) if pairs else 1
    w = WeightPoly(nvars, _TermList(pairs))
    terms, den, scaled = fraction_weight_parts(pairs)
    assert w.terms == terms
    assert all(type(c) is F for c in w.terms.values())
    body = ", ".join(f"{e}: {c}" for e, c in terms.items())
    assert repr(w) == f"WeightPoly({nvars}, {{{body}}})"
    assert (w._den, list(w._num.items())) == (den, list(scaled.items()))


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(lambda s: st.tuples(
    rational_weights(s), rational_weights(s),
    st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.lists(st.integers(-5, 5), min_size=s, max_size=s))), st.integers(0, 3))
def test_weightpoly_operators_match_term_by_term_fractions(case, k):
    left, right, scalar, point = case
    negated = {e: -c for e, c in right.terms.items()}
    assert_weight_form(-right, negated)
    assert_weight_form(left + right, term_sum(left, right))
    assert_weight_form(left - right, term_sum(left, WeightPoly(left.nvars, negated)))
    assert_weight_form(left * right, term_product(left, right))
    scaled = {e: c * scalar for e, c in left.terms.items()}
    assert_weight_form(left * scalar, scaled)
    assert_weight_form(scalar * left, scaled)
    assert_weight_form(left + scalar, term_sum(left, WeightPoly.constant(left.nvars, scalar)))
    power = WeightPoly.constant(left.nvars, 1)
    for _ in range(k):
        power = WeightPoly(left.nvars, term_product(power, left))
    assert_weight_form(left**k, power.terms)
    for w in (left, left * right, left**k):
        assert w.eval(point) == term_value(w, point)
        assert type(w.eval(point)) is F


@settings(max_examples=100)
@given(st.integers(1, 2).flatmap(rational_weights), st.integers(0, 8))
def test_power_size_bound_holds(w, k):
    # the bound the parser checks is a true bound on the power it lets
    # through; w^0 = 1 takes one bit
    bits = max(k * max(sum(map(abs, w._num.values())), w._den).bit_length(), 1)
    power = w**k
    assert max(map(abs, power._num.values()), default=0).bit_length() <= bits
    assert power._den.bit_length() <= bits


@settings(max_examples=100)
@given(st.integers(1, 2).flatmap(lambda s: st.tuples(rational_weights(s), rational_weights(s))))
def test_product_size_bound_holds(pair):
    # the bound the parser checks at '*' is a true bound on the product
    left, right = pair
    bits = sum(max(sum(map(abs, w._num.values())), w._den).bit_length() for w in pair)
    product = left * right
    assert max(map(abs, product._num.values()), default=0).bit_length() <= bits
    assert product._den.bit_length() <= bits


def test_equal_weights_compare_and_hash_equal_whatever_the_route():
    t1 = parse_weight("t1", 1)
    routes = [
        (parse_weight("(1/2*t1 + 1/2) + (1/2*t1 - 1/2)", 1), t1),
        (parse_weight("2/4*t1*2", 1), t1),
        (WeightPoly(1, {(1,): F(1, 3)}) * 3, t1),
        (parse_weight("(t1 + 1/3)^2 - 2/3*t1 - 1/9", 1), parse_weight("t1^2", 1)),
        (parse_weight("1/6*t1 - 1/6*t1", 1), WeightPoly(1)),
        (-(-parse_weight("t1 + 5/10", 1)), WeightPoly(1, {(1,): 1, (0,): F(1, 2)})),
    ]
    for built, direct in routes:
        assert built == direct and hash(built) == hash(direct), (built, direct)
        assert (built._num, built._den) == (direct._num, direct._den)


def test_weightpoly_space_mismatch():
    with pytest.raises(ValueError):
        WeightPoly.variable(1, 1) + WeightPoly.variable(1, 2)
    with pytest.raises(ValueError):
        WeightPoly.variable(3, 2)


# ---------------------------------------------------------------- text canon

def test_format_polynomial_strings():
    assert format_polynomial(UniPoly([1, 2, 1])) == "n^2 + 2*n + 1"
    assert format_polynomial(UniPoly([0, 0, F(1, 4), F(1, 2), F(1, 4)])) \
        == "1/4*n^4 + 1/2*n^3 + 1/4*n^2"
    assert format_polynomial(UniPoly([])) == "0"
    assert format_polynomial(UniPoly([0, F(2, 25)])) == "2/25*n"
    assert format_polynomial(UniPoly([-1, 0, 4])) == "4*n^2 - 1"
    assert format_polynomial(UniPoly([0, -1])) == "-n"
    assert format_polynomial(UniPoly([1, 2, 1]), compact=True) == "n^2+2*n+1"


def test_format_series_strings():
    assert format_series(RationalGF(UniPoly([0, 1, 4, 1]), 5)) == "(x^3+4*x^2+x)/(1-x)^5"
    assert format_series(RationalGF(UniPoly([0, 2]), 4)) == "2*x/(1-x)^4"
    assert format_series(RationalGF(UniPoly([1]), 1)) == "1/(1-x)"
    assert format_series(RationalGF(UniPoly([0, 6, 2]), 3)) == "(2*x^2+6*x)/(1-x)^3"
    assert format_series(RationalGF(UniPoly([-1, 6, 3]), 3)) == "(3*x^2+6*x-1)/(1-x)^3"
    assert format_series(RationalGF(UniPoly([]), 0)) == "0"
    assert format_series(RationalGF(UniPoly([7]), 0)) == "7"
