"""Exact polynomial algebra and rational generating functions.

Univariate polynomials carry exact rational coefficients in ascending
order, weights are sparse multivariate polynomials keyed by exponent
vectors; both store integer numerators over one positive denominator in
lowest terms and compute on them, with Fractions only where a coefficient
or a value is read. Generating functions are kept in the canonical form
h(x) / (1 - x)^D with h(1) != 0 (or h = 0), the shape every counting
series here reduces to. No floating point is allowed anywhere. Series
come from values by one integer difference transform (Stanley, EC I,
Cor. 4.3.1): v(n), a polynomial of degree <= r from n = m - r on, has the series
h/(1-x)^(r+1), h_i = sum_{j <= min(i, r+1)} (-1)^j C(r+1, j) v(i-j), i = 0..m.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, zip_longest
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import WeightParseError

Rational = Union[int, Fraction]

# an exponent or total degree above this is almost certainly a typo in a weight
MAX_WEIGHT_EXPONENT = 64

__all__ = [
    "UniPoly",
    "WeightPoly",
    "RationalGF",
    "eulerian",
    "cube_series",
    "gf_of_polynomial",
    "lagrange_interpolate",
    "expand",
    "parse_weight",
    "eval_weight",
    "format_polynomial",
    "format_series",
]


def _exact(value: Rational, what: str = "coefficient") -> Fraction:
    # floats would silently poison exactness; refuse them outright
    if isinstance(value, float):
        raise TypeError(f"floating point {what} {value!r} is not allowed")
    return Fraction(value)


def _power(base, exponent: int, one):
    """base**exponent by square-and-multiply; no square past the top bit."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class UniPoly:
    """Univariate polynomial with exact rational coefficients.

    Stored as integer numerators, ascending with no trailing zeros, over
    one positive denominator, the two in lowest terms; the coefficients
    become Fractions only when read. The zero polynomial has no
    numerators, denominator 1 and degree -infinity. Instances are
    immutable and hashable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_exact(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    def _store(self, num: list[int], den: int) -> "UniPoly":
        """Keep num/den in lowest terms, trailing zeros dropped."""
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num)
        self._num, self._den = tuple(c // g for c in num), den // g
        return self

    @classmethod
    def _of(cls, num: list[int], den: int) -> "UniPoly":
        return object.__new__(cls)._store(num, den)

    @classmethod
    def monomial(cls, power: int, coeff: Rational = 1) -> "UniPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self):
        """Degree of the polynomial; float('-inf') for the zero polynomial."""
        return len(self._num) - 1 if self._num else float("-inf")

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power (zero when power exceeds the degree)."""
        return Fraction(self._num[power] if 0 <= power < len(self._num) else 0, self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __call__(self, value: Rational) -> Fraction:
        # Horner on the numerators over den * q^deg for the argument p/q
        x = _exact(value, "evaluation point")
        p, q = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self._num):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc * q, self._den * scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash(("UniPoly", self._num, self._den))

    def __neg__(self) -> "UniPoly":
        return UniPoly._of([-c for c in self._num], self._den)

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        num = [a * c + b * d for c, d in zip_longest(self._num, other._num, fillvalue=0)]
        return UniPoly._of(num, den)

    def __sub__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            out = [0] * (len(self._num) + len(other._num) - 1)
            for i, a in enumerate(self._num):
                for j, b in enumerate(other._num):
                    out[i + j] += a * b
            return UniPoly._of(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            num = [c * other.numerator for c in self._num]
            return UniPoly._of(num, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        return _power(self, exponent, UniPoly([1]))

    def div_one_minus_x(self) -> "UniPoly":
        """Exact quotient by (1 - x); requires the value at x = 1 to be 0."""
        out = list(accumulate(self._num))
        if out and out.pop():
            raise ValueError("polynomial is not divisible by (1 - x)")
        return UniPoly._of(out, self._den)

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"


class WeightPoly:
    """Sparse multivariate polynomial weight on a fixed number of variables.

    Terms map exponent vectors (tuples of nonnegative ints of length
    ``nvars``) to nonzero rational coefficients, stored as integer
    numerators, sorted by exponent vector, over one positive denominator,
    the two in lowest terms; the coefficients become Fractions only when
    read. Variables are 1-based when addressed through :meth:`variable`,
    matching the t1, t2, ... naming used by the expression parser.
    Immutable and hashable.
    """

    __slots__ = ("_nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Rational] = {}):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError("nvars must be a positive integer")
        pairs = []
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have length {nvars}")
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps} must contain nonnegative integers")
            pairs.append((exps, _exact(coeff)))
        den = math.lcm(*(c.denominator for _, c in pairs))
        num: dict[tuple[int, ...], int] = {}
        for exps, c in pairs:
            num[exps] = num.get(exps, 0) + c.numerator * (den // c.denominator)
        self._store(nvars, num, den)

    def _store(self, nvars: int, num: dict, den: int) -> "WeightPoly":
        """Keep num/den in lowest terms, zero terms dropped, exponent vectors sorted."""
        g = math.gcd(den, *num.values())
        self._nvars, self._den = nvars, den // g
        self._num = {e: c // g for e, c in sorted(num.items()) if c}
        return self

    @classmethod
    def _of(cls, nvars: int, num: dict, den: int) -> "WeightPoly":
        return object.__new__(cls)._store(nvars, num, den)

    @classmethod
    def constant(cls, nvars: int, value: Rational) -> "WeightPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "WeightPoly":
        """The weight t_index (1-based) on nvars variables."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: Rational = 1) -> "WeightPoly":
        exps = tuple(exponents)
        return cls(len(exps), {exps: coeff})

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {e: Fraction(c, self._den) for e, c in self._num.items()}

    @property
    def degree(self):
        """Total degree; float('-inf') for the zero weight."""
        if not self._num:
            return float("-inf")
        return max(sum(e) for e in self._num)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self._nvars)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(tuple(exponents), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_monomial(self) -> bool:
        return len(self._num) == 1

    @property
    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree (vacuously for zero)."""
        return len({sum(e) for e in self._num}) <= 1

    def affine_parts(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """Split a weight of total degree <= 1 into (linear row, constant)."""
        if self._num and self.degree > 1:
            raise ValueError("weight is not affine (total degree exceeds 1)")
        n = self._nvars
        row = tuple(self.coefficient([int(i == j) for j in range(n)]) for i in range(n))
        return row, self.constant_term

    def eval(self, point: Sequence[Rational]) -> Fraction:
        if len(point) != self._nvars:
            raise ValueError(f"point has length {len(point)}, expected {self._nvars}")
        vals = [p if type(p) is int else _exact(p, "coordinate") for p in point]
        return Fraction(self._scaled(vals), self._den)

    def _scaled(self, point) -> Rational:
        """w(point) times the denominator: an int at an integer point."""
        return sum(c * math.prod(map(pow, point, e)) for e, c in self._num.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightPoly):
            return NotImplemented
        return (self._nvars, self._den, self._num) == (other._nvars, other._den, other._num)

    def __hash__(self) -> int:
        return hash(("WeightPoly", self._nvars, self._den, tuple(self._num.items())))

    def __neg__(self) -> "WeightPoly":
        return WeightPoly._of(self._nvars, {e: -c for e, c in self._num.items()}, self._den)

    def _check_same_space(self, other: "WeightPoly") -> None:
        if self._nvars != other._nvars:
            raise ValueError("weights live on different variable counts")

    def __add__(self, other):
        if isinstance(other, WeightPoly):
            self._check_same_space(other)
            den = math.lcm(self._den, other._den)
            a, b = den // self._den, den // other._den
            merged = {e: a * c for e, c in self._num.items()}
            for e, c in other._num.items():
                merged[e] = merged.get(e, 0) + b * c
            return WeightPoly._of(self._nvars, merged, den)
        if isinstance(other, (int, Fraction)):
            return self + WeightPoly.constant(self._nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (WeightPoly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, WeightPoly):
            self._check_same_space(other)
            out: dict[tuple[int, ...], int] = {}
            for e1, c1 in self._num.items():
                for e2, c2 in other._num.items():
                    key = tuple(map(add, e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return WeightPoly._of(self._nvars, out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            num = {e: c * other.numerator for e, c in self._num.items()}
            return WeightPoly._of(self._nvars, num, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "WeightPoly":
        return _power(self, exponent, WeightPoly.constant(self._nvars, 1))

    def __repr__(self) -> str:
        body = ", ".join(f"{e}: {c}" for e, c in self.terms.items())
        return f"WeightPoly({self._nvars}, {{{body}}})"


class RationalGF:
    """Rational generating function in the canonical form h(x)/(1-x)^D.

    Construction strips (1 - x) factors shared with the denominator, so
    equal series compare equal: the invariant is h(1) != 0 or h = 0 (the
    canonical zero has D = 0). D never goes negative.
    """

    __slots__ = ("_num", "_dpow")

    def __init__(self, numerator, denom_power: int):
        num = numerator if isinstance(numerator, UniPoly) else UniPoly(numerator)
        if not isinstance(denom_power, int):
            raise TypeError(f"denominator power {denom_power!r} is not an integer")
        d = denom_power
        if d < 0:
            raise ValueError("denominator power must be nonnegative")
        while num and d > 0 and num(1) == 0:
            num = num.div_one_minus_x()
            d -= 1
        if not num:
            d = 0
        self._num = num
        self._dpow = d

    @property
    def numerator(self) -> UniPoly:
        return self._num

    @property
    def denom_power(self) -> int:
        return self._dpow

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self._num == other._num and self._dpow == other._dpow

    def __hash__(self) -> int:
        return hash(("RationalGF", self._num, self._dpow))

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self._num, self._dpow)

    def __add__(self, other) -> "RationalGF":
        if not isinstance(other, RationalGF):
            return NotImplemented
        d = max(self._dpow, other._dpow)
        omx = UniPoly([1, -1])
        num = self._num * omx ** (d - self._dpow) + other._num * omx ** (d - other._dpow)
        return RationalGF(num, d)

    def __sub__(self, other) -> "RationalGF":
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalGF(self._num * _exact(other), self._dpow)
        return NotImplemented

    __rmul__ = __mul__

    def expand(self, count: int) -> list[Fraction]:
        """First ``count`` + 1 power-series coefficients, orders 0..count."""
        if not isinstance(count, int) or count < 0:
            raise ValueError("count must be a nonnegative integer")
        h, d = self._num._num, self._dpow
        if d == 0:
            return [self._num.coefficient(n) for n in range(count + 1)]
        # 1/(1-x)^d has coefficient C(n+d-1, d-1) at x^n
        sums = (sum(c * math.comb(n - k + d - 1, d - 1) for k, c in enumerate(h[: n + 1]))
                for n in range(count + 1))
        return [Fraction(s, self._num._den) for s in sums]

    def __repr__(self) -> str:
        return f"RationalGF({[str(c) for c in self._num.coeffs]}, {self._dpow})"


def eulerian(d: int, k: int) -> int:
    """Eulerian number A(d, k) counting permutations of d letters by descents.

    Computed by the alternating binomial sum
    A(d, k) = sum_{j=0..k} (-1)^j C(d+1, j) (k-j)^d for d >= 1, with
    A(0, 0) = 1 and A(d, k) = 0 for k > d. Any d is taken: the caller
    chooses d directly, and the CLI caps its row at EULERIAN_ROW_CAP.
    """
    if not isinstance(d, int) or not isinstance(k, int) or d < 0 or k < 0:
        raise ValueError("eulerian arguments must be nonnegative integers")
    if k > d:
        return 0
    if d == 0:
        return 1
    return sum((-1) ** j * math.comb(d + 1, j) * (k - j) ** d for j in range(k + 1))


def cube_series(d: int) -> RationalGF:
    """Generating function of n -> (n+1)^d, the point count of the d-cube.

    Equal to (sum_{k=1..d} A(d, k) x^(k-1)) / (1-x)^(d+1); the d = 0 case
    is 1/(1-x). Like eulerian(), it takes any d the caller chooses.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError("cube dimension must be a nonnegative integer")
    if d == 0:
        return RationalGF(UniPoly([1]), 1)
    return RationalGF(UniPoly([eulerian(d, k) for k in range(1, d + 1)]), d + 1)


def _series_of_values(values: Sequence[Rational], r: int) -> RationalGF:
    """Series of v(0..m), a polynomial of degree <= r from n = m - r on: the module's transform."""
    den = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (den // v.denominator) for v in values]
    signed = [(-1) ** j * math.comb(r + 1, j) for j in range(r + 2)]
    h = [sum(c * scaled[i - j] for j, c in enumerate(signed[: i + 1])) for i in range(len(scaled))]
    return RationalGF(UniPoly._of(h, den), r + 1)


def gf_of_polynomial(g: UniPoly) -> RationalGF:
    """Generating function sum_n g(n) x^n of a polynomial sequence.

    The difference transform of g(0..deg g); the paper's assembly from
    cube series, which gives the same series, is the tests' oracle.
    """
    if not g:
        return RationalGF(UniPoly(), 0)
    return _series_of_values([g(n) for n in range(g.degree + 1)], g.degree)


def lagrange_interpolate(samples: Sequence[tuple[Rational, Rational]]) -> UniPoly:
    """Unique polynomial of degree < len(samples) through the given points.

    Exact rational Newton divided differences, expanded by Horner's rule;
    abscissae must be pairwise distinct.
    """
    pts = [(_exact(a, "abscissa"), _exact(y, "value")) for a, y in samples]
    if not pts:
        raise ValueError("at least one sample is required")
    if len({a for a, _ in pts}) != len(pts):
        raise ValueError("sample abscissae must be pairwise distinct")
    xs = [a for a, _ in pts]
    diffs = [y for _, y in pts]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    # c_0 + (n - x_0)(c_1 + (n - x_1)(c_2 + ...)), innermost first
    coeffs = [diffs[-1]]
    for c, x in zip(reversed(diffs[:-1]), reversed(xs[:-1])):
        inner = [a - x * b for a, b in zip(coeffs, coeffs[1:])]
        coeffs = [c - x * coeffs[0]] + inner + [coeffs[-1]]
    return UniPoly(coeffs)


def expand(series: RationalGF, count: int) -> list[Fraction]:
    """Power-series coefficients of ``series`` at orders 0..count."""
    return series.expand(count)


# whitespace, then one token; the last alternative catches any other character
_TOKEN_RE = re.compile(r"\s*(?:(?P<var>t\d+)|(?P<num>\d+)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            raise WeightParseError(f"unexpected character {m[kind]!r}", pos)
        tokens.append((kind, m[kind], pos))
    tokens.append(("end", "", len(text)))
    return tokens


def _check_cap(what: str, value, pos: int) -> None:
    if value > MAX_WEIGHT_EXPONENT:
        raise WeightParseError(f"{what} {value} exceeds the cap {MAX_WEIGHT_EXPONENT}", pos)


def _check_bits(value: WeightPoly, exponent: int, pos: int) -> None:
    # value^k has numerators at most ||numerators||_1^k and denominator den^k
    size = max(sum(map(abs, value._num.values())), value._den).bit_length() * exponent
    if size > MAX_WEIGHT_EXPONENT**2:
        raise WeightParseError(
            f"coefficient size {size} bits exceeds the cap {MAX_WEIGHT_EXPONENT**2} bits", pos)


class _WeightParser:
    """Recursive-descent parser for weight expressions over t1..ts.

    Grammar (a strict superset of the documented surface syntax):

        expr   := '+'? term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := '-'* atom ('^' uint)?
        atom   := uint ('/' uint)? | 'txx' | '(' expr ')'

    The exponent binds tighter than a prefix sign, so -2^2 is -4.
    """

    def __init__(self, text: str, nvars: int):
        self._tokens = _tokenize(text)
        self._index = 0
        self._nvars = nvars

    def _peek(self):
        return self._tokens[self._index]

    def _take(self):
        tok = self._tokens[self._index]
        self._index += 1
        return tok

    def _accept(self, ops: str):
        """Take the next token if it is one of the operators in ops."""
        kind, text, pos = self._tokens[self._index]
        if kind == "op" and text in ops:
            self._index += 1
            return text, pos
        return None

    def parse(self) -> WeightPoly:
        try:
            value = self._expr()
        except RecursionError:
            # each '(' costs a few stack frames; name the token where they ran out
            raise WeightParseError("expression nests too deeply", self._peek()[2]) from None
        kind, text, pos = self._peek()
        if kind != "end":
            raise WeightParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def _expr(self) -> WeightPoly:
        self._accept("+")
        value = self._term()
        while op := self._accept("+-"):
            rhs = self._term()
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def _term(self) -> WeightPoly:
        value = self._factor()
        while op := self._accept("*"):
            rhs = self._factor()
            # checked before multiplying, so an over-cap product is never built
            _check_cap("total degree", value.degree + rhs.degree, op[1])
            value = value * rhs
        return value

    def _factor(self) -> WeightPoly:
        sign = 1
        while self._accept("-"):
            sign = -sign
        value = self._atom()
        if op := self._accept("^"):
            kind, text, pos = self._take()
            if kind != "num":
                raise WeightParseError("exponent must be a nonnegative integer", pos)
            exponent = int(text)
            _check_cap("exponent", exponent, pos)
            _check_cap("total degree", max(value.degree, 0) * exponent, op[1])
            _check_bits(value, exponent, op[1])
            value = value**exponent
        return value if sign == 1 else -value

    def _atom(self) -> WeightPoly:
        kind, text, pos = self._take()
        if kind == "num":
            numerator = int(text)
            if not self._accept("/"):
                return WeightPoly.constant(self._nvars, numerator)
            dk, dt, dpos = self._take()
            if dk != "num":
                raise WeightParseError("expected an integer denominator", dpos)
            if int(dt) == 0:
                raise WeightParseError("division by zero", dpos)
            return WeightPoly.constant(self._nvars, Fraction(numerator, int(dt)))
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self._nvars:
                raise WeightParseError(
                    f"variable {text} out of range (expected t1..t{self._nvars})", pos
                )
            return WeightPoly.variable(index, self._nvars)
        if kind == "op" and text == "(":
            value = self._expr()
            if not self._accept(")"):
                raise WeightParseError("expected ')'", self._peek()[2])
            return value
        raise WeightParseError(
            "expected a number, a variable, or a parenthesized expression", pos
        )


def parse_weight(text: str, nvars: int) -> WeightPoly:
    """Parse a weight expression over variables t1..t(nvars).

    The syntax covers sums, differences, products, integer/rational
    constants like 2/5, and exponents, e.g. "t1^2*t2^2 - 1/3*(t1+1)".
    Raises :class:`WeightParseError` with the offending position.
    """
    if not isinstance(nvars, int) or nvars < 1:
        raise ValueError("nvars must be a positive integer")
    # normalize the unicode minus so pasted formulas survive
    return _WeightParser(text.replace("−", "-"), nvars).parse()


def eval_weight(w: WeightPoly, point: Sequence[Rational]) -> Fraction:
    """Exact value of the weight at a lattice (or rational) point."""
    return w.eval(point)


def format_polynomial(poly: UniPoly, var: str = "n", compact: bool = False) -> str:
    """Human-readable polynomial, highest power first.

    Spacing: "1/2*n^3 + n - 4" normally, "x^3+4*x^2+x" in compact mode.
    """
    if not poly:
        return "0"
    pieces = []
    for power in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coefficient(power)
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            stem = var if power == 1 else f"{var}^{power}"
            body = stem if mag == 1 else f"{mag}*{stem}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        elif compact:
            pieces.append(f"+{body}" if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


def format_series(series: RationalGF, var: str = "x") -> str:
    """Render h(x)/(1-x)^D; the numerator keeps parentheses only when needed."""
    num = format_polynomial(series.numerator, var=var, compact=True)
    d = series.denom_power
    if d == 0:
        return num
    terms = sum(1 for c in series.numerator.coeffs if c != 0)
    if terms > 1:
        num = f"({num})"
    denom = f"(1-{var})" if d == 1 else f"(1-{var})^{d}"
    return f"{num}/{denom}"
