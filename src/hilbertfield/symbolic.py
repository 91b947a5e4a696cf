"""Exact Wirtinger calculus for complex polynomials in the pair (s, sbar).

All scalar functions of the model live in the ring of finite sums

    sum_{p,q >= 0} c_{p,q} s^p sbar^q

with Gaussian-rational coefficients, where s is the complex coordinate and
sbar its conjugate treated as an independent symbol.  The ring is closed
under addition, multiplication, conjugation and the two coordinate
derivations d/ds and d/dsbar.  A :class:`WirtingerPolynomial` stores one
positive integer denominator and, per exponent pair, the Gaussian-integer
numerator of its coefficient; every ring operation runs on Python ints and
reduces to canonical form once (no zero numerator stored, no factor common
to the denominator and all numerators), so algebraic identities are decided
by literal equality.  :class:`GaussianRational` is the public scalar type
for single coefficients, points and values.  A value at a point is exact
(:meth:`WirtingerPolynomial.evaluate_exact`) or that exact value rounded
once to a float (:meth:`WirtingerPolynomial.evaluate`); the only other
float path is the vectorized grid evaluation in :mod:`hilbertfield.grid`.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

__all__ = [
    "GaussianRational",
    "Direction",
    "WirtingerPolynomial",
    "laplacian",
    "ZERO",
    "ONE",
    "S",
    "SBAR",
]

RationalLike = Union[Fraction, int, str]


def json_int(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` when it is a JSON integer; a float, bool or string raises ``error``."""
    # type(), not isinstance(): a JSON boolean is a Python int
    if type(value) is not int:
        raise error(f"{name}: only JSON integers are accepted, got {value!r}")
    return value


def json_record(value, keys: Iterable[str], name: str, error: type[ValueError] = ValueError) -> dict:
    """``value`` when it is a JSON object with no key outside ``keys``; otherwise raises ``error``."""
    if not isinstance(value, dict):
        raise error(f"{name} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise error(f"unknown {name} key(s): {', '.join(unknown)}")
    return value


class GaussianRational:
    """Exact complex number re + im*i with rational components.

    The public scalar type: coefficients, points and values of the model.
    Immutable; arithmetic is closed under +, -, * and division by a
    nonzero value, and equality is decidable.  Polynomial arithmetic does
    not run through this class (see :class:`WirtingerPolynomial`), so it
    keeps no fast paths.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re: Fraction = re if type(re) is Fraction else Fraction(re)
        self.im: Fraction = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{imag})"


class Direction(enum.Enum):
    """The two coordinate Wirtinger derivations d/ds and d/dsbar."""

    D = "d"
    DBAR = "dbar"

    # the members are singletons, so hashing by identity agrees with Enum equality
    __hash__ = object.__hash__

    @property
    def conjugate(self) -> "Direction":
        return Direction.DBAR if self is Direction.D else Direction.D

    def __str__(self) -> str:
        return self.value


CoeffLike = Union[GaussianRational, Fraction, int]


def _numerators(value: CoeffLike) -> tuple[int, int, int]:
    """(re, im, den) with value = (re + im*i) / den and den the least positive denominator."""
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    re, im = value.re, value.im
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


class WirtingerPolynomial:
    """Polynomial sum c_{p,q} s^p sbar^q, stored as integer numerators over one denominator.

    The coefficient of s^p sbar^q is (re + im*i) / den for the pair
    ``(re, im)`` stored under ``(p, q)``.  Canonical form: ``den`` is
    positive, no stored pair is (0, 0), and gcd(den, every numerator) is 1,
    so ``a == b`` iff the two denote the same function.  Every operation
    works on Python ints and divides the common factor out once at the end.
    Instances are immutable.
    """

    __slots__ = ("_den", "_num", "_hash")

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        coeffs: dict[tuple[int, int], GaussianRational] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for key, coeff in items:
            p, q = key
            if not (isinstance(p, int) and isinstance(q, int) and p >= 0 and q >= 0):
                raise ValueError(f"exponent pair must be nonnegative integers, got {key!r}")
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            coeffs[(p, q)] = coeffs[(p, q)] + coeff if (p, q) in coeffs else coeff
        scaled = {key: _numerators(coeff) for key, coeff in coeffs.items() if coeff}
        # over the least common denominator of reduced fractions the gcd is already 1
        den = math.lcm(*(d for _, _, d in scaled.values()))
        self._den = den
        self._num = {key: (re * (den // d), im * (den // d)) for key, (re, im, d) in scaled.items()}
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "WirtingerPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "WirtingerPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, value: CoeffLike) -> "WirtingerPolynomial":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, p: int, q: int, coeff: CoeffLike = 1) -> "WirtingerPolynomial":
        return cls({(p, q): coeff})

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, int], GaussianRational]:
        return MappingProxyType(self._terms)

    @property
    def _terms(self) -> dict[tuple[int, int], GaussianRational]:
        # the coefficients as Gaussian rationals, built on each access
        den = self._den
        return {
            key: GaussianRational(Fraction(re, den), Fraction(im, den))
            for key, (re, im) in self._num.items()
        }

    @property
    def denominator(self) -> int:
        """The common positive denominator of the canonical form."""
        return self._den

    @property
    def numerators(self) -> Mapping[tuple[int, int], tuple[int, int]]:
        """(p, q) -> (re, im): the coefficient of s^p sbar^q is (re + im*i) / denominator."""
        return MappingProxyType(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, p: int, q: int) -> GaussianRational:
        re, im = self._num.get((p, q), (0, 0))
        return GaussianRational(Fraction(re, self._den), Fraction(im, self._den))

    def total_degree(self) -> int:
        """Max p+q over stored terms; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(p + q for p, q in self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WirtingerPolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WirtingerPolynomial):
            return NotImplemented
        return WirtingerPolynomial.combination(((1, self), (1, other)))

    def __sub__(self, other):
        if not isinstance(other, WirtingerPolynomial):
            return NotImplemented
        return WirtingerPolynomial.combination(((1, self), (-1, other)))

    def __neg__(self):
        return _raw(self._den, {key: (-re, -im) for key, (re, im) in self._num.items()})

    def __mul__(self, other):
        if isinstance(other, WirtingerPolynomial):
            out: dict[tuple[int, int], tuple[int, int]] = {}
            get = out.get
            for (p1, q1), (re1, im1) in self._num.items():
                for (p2, q2), (re2, im2) in other._num.items():
                    key = (p1 + p2, q1 + q2)
                    re = re1 * re2 - im1 * im2
                    im = re1 * im2 + im1 * re2
                    acc = get(key)
                    if acc is not None:
                        re += acc[0]
                        im += acc[1]
                    out[key] = (re, im)
            # a product of nonzero Gaussian integers is nonzero: only sums cancel
            out = {key: pair for key, pair in out.items() if pair[0] or pair[1]}
            return _canonical(self._den * other._den, out)
        if isinstance(other, (int, Fraction, GaussianRational)):
            s_re, s_im, s_den = _numerators(other)
            if not (s_re or s_im):
                return WirtingerPolynomial()
            out = {
                key: (re * s_re - im * s_im, re * s_im + im * s_re)
                for key, (re, im) in self._num.items()
            }
            return _canonical(self._den * s_den, out)
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def combination(cls, pairs: Iterable[tuple[int, "WirtingerPolynomial"]]) -> "WirtingerPolynomial":
        """The sum of count * poly over (count, poly) pairs with integer counts.

        One pass over the least common denominator of the polynomials,
        into one dict, reduced to canonical form once; the empty sum is 0.
        """
        pairs = list(pairs)
        den = math.lcm(*[poly._den for _, poly in pairs])
        out: dict[tuple[int, int], tuple[int, int]] = {}
        get = out.get
        for count, poly in pairs:
            scale = count * (den // poly._den)
            for key, (re, im) in poly._num.items():
                acc = get(key)
                if acc is None:
                    out[key] = (re * scale, im * scale)
                else:
                    out[key] = (acc[0] + re * scale, acc[1] + im * scale)
        out = {key: pair for key, pair in out.items() if pair[0] or pair[1]}
        return _canonical(den, out)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = WirtingerPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    # -- conjugation and derivatives -----------------------------------

    def conjugate(self) -> "WirtingerPolynomial":
        """Pointwise complex conjugate: swaps exponents, conjugates coefficients."""
        return _raw(self._den, {(q, p): (re, -im) for (p, q), (re, im) in self._num.items()})

    def is_real_valued(self) -> bool:
        return self.conjugate() == self

    def derivative(self, d: Direction) -> "WirtingerPolynomial":
        """Coordinate Wirtinger derivative along ``d``."""
        if d is Direction.D:
            out = {(p - 1, q): (re * p, im * p) for (p, q), (re, im) in self._num.items() if p}
        else:
            out = {(p, q - 1): (re * q, im * q) for (p, q), (re, im) in self._num.items() if q}
        return _canonical(self._den, out)

    def twisted_derivative(self, d: Direction, mu: "WirtingerPolynomial") -> "WirtingerPolynomial":
        """``self.derivative(d) + mu * self``, in one pass over the terms of self.

        Both parts go into one dict over the denominator den(self) * den(mu),
        reduced to canonical form once.
        """
        mu_den, mu_items = mu._den, tuple(mu._num.items())
        along_d = d is Direction.D
        out: dict[tuple[int, int], tuple[int, int]] = {}
        get = out.get
        for (p, q), (re, im) in self._num.items():
            n = p if along_d else q
            if n:
                key = (p - 1, q) if along_d else (p, q - 1)
                scale = n * mu_den
                d_re, d_im = re * scale, im * scale
                acc = get(key)
                if acc is not None:
                    d_re += acc[0]
                    d_im += acc[1]
                out[key] = (d_re, d_im)
            for (p2, q2), (re2, im2) in mu_items:
                key = (p + p2, q + q2)
                m_re = re * re2 - im * im2
                m_im = re * im2 + im * re2
                acc = get(key)
                if acc is not None:
                    m_re += acc[0]
                    m_im += acc[1]
                out[key] = (m_re, m_im)
        out = {key: pair for key, pair in out.items() if pair[0] or pair[1]}
        return _canonical(self._den * mu_den, out)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, s: complex) -> complex:
        """Value at the point s, with sbar = conj(s): the exact value rounded once.

        A float is an exact binary rational, so the point converts without loss.
        """
        s = complex(s)
        return self.evaluate_exact(GaussianRational(Fraction(s.real), Fraction(s.imag))).to_complex()

    def evaluate_exact(self, s: GaussianRational) -> GaussianRational:
        """Exact value at a Gaussian-rational point s, with sbar = conj(s).

        With s = z / t for a Gaussian integer z and a positive integer t,
        every term is brought over the denominator den * t^degree.
        """
        z_re, z_im, t = _numerators(s)
        degree = max(self.total_degree(), 0)
        powers = [(1, 0)]  # z^0, z^1, ... as Gaussian-integer pairs
        t_powers = [1]
        for _ in range(degree):
            a, b = powers[-1]
            powers.append((a * z_re - b * z_im, a * z_im + b * z_re))
            t_powers.append(t_powers[-1] * t)
        total_re = total_im = 0
        for (p, q), (re, im) in self._num.items():
            a, b = powers[p]
            c, e = powers[q]
            # z^p * conj(z)^q = (a + bi)(c - ei)
            x_re, x_im = a * c + b * e, b * c - a * e
            scale = t_powers[degree - p - q]
            total_re += (re * x_re - im * x_im) * scale
            total_im += (re * x_im + im * x_re) * scale
        den = self._den * t_powers[degree]
        return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))

    # -- serialization ---------------------------------------------------

    def to_json_terms(self) -> list[list]:
        """Records [p, q, re, im] with exact fraction strings, sorted by exponent."""
        den = self._den
        return [
            [p, q, str(Fraction(re, den)), str(Fraction(im, den))]
            for (p, q), (re, im) in sorted(self._num.items())
        ]

    @classmethod
    def from_json_terms(cls, records: Iterable[Iterable]) -> "WirtingerPolynomial":
        terms = {}
        for record in records:
            p, q, re, im = record
            key = (json_int(p, "term exponents"), json_int(q, "term exponents"))
            terms[key] = GaussianRational(Fraction(str(re)), Fraction(str(im)))
        return cls(terms)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for (p, q), coeff in sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            factors = []
            if p:
                factors.append("s" if p == 1 else f"s^{p}")
            if q:
                factors.append("sbar" if q == 1 else f"sbar^{q}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                text = str(coeff)
                if coeff.im or coeff.re < 0:
                    text = text if text.startswith("(") else f"({text})"
                parts.append(f"{text}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"WirtingerPolynomial({self._terms!r})"


def _raw(den: int, num: dict[tuple[int, int], tuple[int, int]]) -> WirtingerPolynomial:
    # internal constructor: (den, num) already canonical
    poly = WirtingerPolynomial.__new__(WirtingerPolynomial)
    poly._den = den
    poly._num = num
    poly._hash = None
    return poly


def _canonical(den: int, num: dict[tuple[int, int], tuple[int, int]]) -> WirtingerPolynomial:
    # num holds no (0, 0) pair; divide out gcd(den, every numerator)
    if den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {key: (re // g, im // g) for key, (re, im) in num.items()}
    return _raw(den, num)


def laplacian(g: WirtingerPolynomial) -> WirtingerPolynomial:
    """Laplacian in the real coordinates underlying s: 4 * d2g/(ds dsbar)."""
    return 4 * g.derivative(Direction.D).derivative(Direction.DBAR)


ZERO = WirtingerPolynomial.zero()
ONE = WirtingerPolynomial.one()
S = WirtingerPolynomial.monomial(1, 0)
SBAR = WirtingerPolynomial.monomial(0, 1)
