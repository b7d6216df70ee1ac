"""Exact polynomial algebra and rational generating functions.

Univariate polynomials carry exact rational coefficients in ascending
order, weights are sparse multivariate polynomials keyed by exponent
vectors; both store integer numerators over one positive denominator in
lowest terms and compute on them, as do interpolation (Lagrange's form over
common denominators) and the series transform, with Fractions only where a
coefficient or a value is passed in or read; WeightPoly's operators and the
weight parser share one algebra on (numerator dict, den) pairs. Generating
functions are kept as h(x) / (1 - x)^D with h(1) != 0 (or h = 0). Each input
rule of the package is one test here: _exact for rationals, _is_int and
_check_int for integer arguments, _is_int_token for integers in text,
_check_length for points. Series come from values by one integer difference
transform (Stanley, EC I, Cor. 4.3.1): v(n), a polynomial of degree <= r from
n = m - r on, has the series h/(1-x)^(r+1), h_i = sum_{j <= min(i, r+1)}
(-1)^j C(r+1, j) v(i-j), i = 0..m.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, zip_longest
from numbers import Rational
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .errors import WeightParseError

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
    # the rational rule: a float would poison exactness, and Fraction() would parse a str
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    kind = ("boolean" if isinstance(value, bool) else
            "floating point" if isinstance(value, float) else type(value).__name__)
    raise TypeError(f"{kind} {what} {value!r} is not allowed")


def _is_int(value) -> bool:
    """True for an int that is not a bool: the rule for every integer argument."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, low: int, message: str) -> None:
    """Raise ValueError(message) unless value is an int, not a bool, of at least low."""
    if not _is_int(value) or value < low:
        raise ValueError(message)


def _is_int_token(token: str) -> bool:
    """The rule for an integer in text: an optional sign and ASCII digits, not 1_0 or ٣."""
    return re.fullmatch(r"[-+]?[0-9]+", token) is not None


def _check_length(point: Sequence, length: int) -> None:
    if len(point) != length:
        raise ValueError(f"point has length {len(point)}, expected {length}")


def _cleared(values: Iterable[Rational], what: str = "coefficient") -> tuple[list[int], int]:
    """(numerators, den) with values = numerators / den, den the lcm of their denominators."""
    xs = [v if type(v) is int else _exact(v, what) for v in values]
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _power(base, exponent: int, one, mul=mul):
    """base**exponent by square-and-multiply under mul; no square past the top bit.
    With one None, the first factor is not multiplied by it, and 0 gives None."""
    _check_int(exponent, 0, "exponent must be a nonnegative integer")
    result = one
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """num / den in lowest terms, zero terms dropped."""
    g = math.gcd(den, *num.values())
    if g == 1 and all(num.values()):
        return num, den
    return {e: c // g for e, c in num.items() if c}, den // g


def _added(a: tuple[dict, int], b: tuple[dict, int], sign: int = 1) -> tuple[dict, int]:
    (x, p), (y, q) = a, b
    den = math.lcm(p, q)
    f, g = den // p, sign * den // q
    out = {e: f * c for e, c in x.items()}
    for e, c in y.items():
        out[e] = out.get(e, 0) + g * c
    return _lowest(out, den)


def _multiplied(a: tuple[dict, int], b: tuple[dict, int]) -> tuple[dict, int]:
    (x, p), (y, q) = a, b
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return _lowest(out, p * q)


def _degree(num: dict):
    """Total degree of a numerator dict; float('-inf') for the zero weight."""
    return max(map(sum, num), default=float("-inf"))


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
        self._store(*_cleared(coeffs))

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
        _check_int(power, 0, "power must be nonnegative")
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
        (p,), q = _cleared((value,), "evaluation point")
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
        _check_int(nvars, 1, "nvars must be a positive integer")
        pairs = [(tuple(exps), coeff) for exps, coeff in terms.items()]
        for exps, _ in pairs:
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have length {nvars}")
            if any(not _is_int(e) or e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps} must contain nonnegative integers")
        coeffs, den = _cleared(c for _, c in pairs)
        num: dict[tuple[int, ...], int] = {}
        for (exps, _), c in zip(pairs, coeffs):
            num[exps] = num.get(exps, 0) + c
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
        if not _is_int(index) or not 1 <= index <= nvars:
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
        return _degree(self._num)

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
        _check_length(point, self._nvars)
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
            return WeightPoly._of(
                self._nvars, *_added((self._num, self._den), (other._num, other._den)))
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
            return WeightPoly._of(
                self._nvars, *_multiplied((self._num, self._den), (other._num, other._den)))
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
        if not _is_int(denom_power):
            raise TypeError(f"denominator power {denom_power!r} is not an integer")
        d = denom_power
        if d < 0:
            raise ValueError("denominator power must be nonnegative")
        while num and d > 0 and not sum(num._num):
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
            return RationalGF(self._num * other, self._dpow)
        return NotImplemented

    __rmul__ = __mul__

    def expand(self, count: int) -> list[Fraction]:
        """First ``count`` + 1 power-series coefficients, orders 0..count."""
        _check_int(count, 0, "count must be a nonnegative integer")
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
    A(d, k) = sum_{j=0..k} (-1)^j C(d+1, j) (k-j)^d, where 0^0 = 1 gives
    A(0, 0) = 1, and A(d, k) = 0 for k > d. Any d is taken: the caller
    chooses d directly, and the CLI caps its row at EULERIAN_ROW_CAP.
    """
    for arg in (d, k):
        _check_int(arg, 0, "eulerian arguments must be nonnegative integers")
    if k > d:
        return 0
    return sum((-1) ** j * math.comb(d + 1, j) * (k - j) ** d for j in range(k + 1))


def cube_series(d: int) -> RationalGF:
    """Generating function of n -> (n+1)^d, the point count of the d-cube.

    Equal to (sum_{k=1..d} A(d, k) x^(k-1)) / (1-x)^(d+1); the d = 0 case
    is 1/(1-x). Like eulerian(), it takes any d the caller chooses.
    """
    _check_int(d, 0, "cube dimension must be a nonnegative integer")
    if d == 0:
        return RationalGF(UniPoly([1]), 1)
    return RationalGF(UniPoly([eulerian(d, k) for k in range(1, d + 1)]), d + 1)


def _series_of_values(values: Sequence[int], den: int, r: int) -> RationalGF:
    """Series of v(0..m)/den, of degree <= r from n = m - r on: the module's transform."""
    signed = [(-1) ** j * math.comb(r + 1, j) for j in range(r + 2)]
    h = [sum(c * values[i - j] for j, c in enumerate(signed[: i + 1])) for i in range(len(values))]
    return RationalGF(UniPoly._of(h, den), r + 1)


def gf_of_polynomial(g: UniPoly) -> RationalGF:
    """Generating function sum_n g(n) x^n of a polynomial sequence.

    The difference transform of g(0..deg g); the paper's assembly from
    cube series, which gives the same series, is the tests' oracle.
    """
    if not g:
        return RationalGF(UniPoly(), 0)
    values = [sum(c * n**k for k, c in enumerate(g._num)) for n in range(g.degree + 1)]
    return _series_of_values(values, g._den, g.degree)


def lagrange_interpolate(samples: Sequence[tuple[Rational, Rational]]) -> UniPoly:
    """Unique polynomial of degree < len(samples) through the given points.

    Lagrange's form in integers: for abscissae t_i/q and values y_i/den it is
    sum_i (L/s_i) y_i M(t)/(t - t_i) / (L den) at t = qx, M(t) = prod_j (t - t_j),
    s_i = prod_{j != i} (t_i - t_j), L = lcm(s_i). Abscissae must be distinct.
    """
    ts, q = _cleared((a for a, _ in samples), "abscissa")
    ys, den = _cleared((y for _, y in samples), "value")
    if not ts:
        raise ValueError("at least one sample is required")
    if len(set(ts)) != len(ts):
        raise ValueError("sample abscissae must be pairwise distinct")
    ss = [math.prod(t - u for u in ts if u != t) for t in ts]
    lcm, m, acc = math.lcm(*ss), [1], [0] * len(ts)
    for t in ts:  # M, highest power first
        m = [a - t * b for a, b in zip(m + [0], [0] + m)]
    for t, y, s in zip(ts, ys, ss):
        w, b = lcm // s * y, 0
        for k, c in enumerate(m[:-1]):
            b = b * t + c
            acc[k] += w * b
    return UniPoly._of([c * q**k for k, c in enumerate(reversed(acc))], lcm * den)


def expand(series: RationalGF, count: int) -> list[Fraction]:
    """Power-series coefficients of ``series`` at orders 0..count."""
    return series.expand(count)


# whitespace, then one token; the last alternative catches any other character
_TOKEN_RE = re.compile(r"\s*(?:(?P<var>t[0-9]+)|(?P<num>[0-9]+)|(?P<op>[-+*/^()])|(?P<bad>\S))")


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


def _bits(a: tuple[dict, int]) -> int:
    return max(sum(map(abs, a[0].values())), a[1]).bit_length()


def _check_bits(pos: int, size: int) -> None:
    # w^k, w = num / den, has numerators at most ||num||_1^k and denominator
    # den^k, k * _bits(w) bits, and the sizes of a product's factors add up
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

    The exponent binds tighter than a prefix sign, so -2^2 is -4. Values are
    (numerator dict, den) pairs in lowest terms after every operation, as in a
    WeightPoly, so each cap fires at the same token; parse builds one WeightPoly.
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
        return WeightPoly._of(self._nvars, *value)

    def _expr(self) -> tuple[dict, int]:
        self._accept("+")
        value = self._term()
        while op := self._accept("+-"):
            rhs = self._term()
            value = _added(value, rhs, 1 if op[0] == "+" else -1)
        return value

    def _term(self) -> tuple[dict, int]:
        value = self._factor()
        while op := self._accept("*"):
            rhs = self._factor()
            # checked before multiplying, so an over-cap product is never built
            _check_cap("total degree", _degree(value[0]) + _degree(rhs[0]), op[1])
            _check_bits(op[1], _bits(value) + _bits(rhs))
            value = _multiplied(value, rhs)
        return value

    def _factor(self) -> tuple[dict, int]:
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
            _check_cap("total degree", max(_degree(value[0]), 0) * exponent, op[1])
            _check_bits(op[1], _bits(value) * exponent)
            value = _power(value, exponent, None, _multiplied) or ({(0,) * self._nvars: 1}, 1)
        return value if sign == 1 else ({e: -c for e, c in value[0].items()}, value[1])

    def _atom(self) -> tuple[dict, int]:
        kind, text, pos = self._take()
        if kind == "num":
            numerator = int(text)
            den = 1
            if self._accept("/"):
                dk, dt, dpos = self._take()
                if dk != "num":
                    raise WeightParseError("expected an integer denominator", dpos)
                den = int(dt)
                if den == 0:
                    raise WeightParseError("division by zero", dpos)
            return _lowest({(0,) * self._nvars: numerator}, den)
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self._nvars:
                raise WeightParseError(
                    f"variable {text} out of range (expected t1..t{self._nvars})", pos
                )
            exps = (0,) * (index - 1) + (1,) + (0,) * (self._nvars - index)
            return {exps: 1}, 1
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
    _check_int(nvars, 1, "nvars must be a positive integer")
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
    for power in range(poly.degree, -1, -1):
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
    if sum(map(bool, series.numerator._num)) > 1:
        num = f"({num})"
    denom = f"(1-{var})" if d == 1 else f"(1-{var})^{d}"
    return f"{num}/{denom}"
