"""Exact Wirtinger calculus for complex polynomials in the pair (s, sbar).

All scalar functions of the model live in the ring of finite sums

    sum_{p,q >= 0} c_{p,q} s^p sbar^q

with Gaussian-rational coefficients, where s is the complex coordinate and
sbar its conjugate treated as an independent symbol.  The ring is closed
under addition, multiplication, conjugation and the two coordinate
derivations d/ds and d/dsbar, and polynomials are kept in canonical form
(no zero coefficients stored), so algebraic identities can be decided by
literal equality of term maps.  A value at a point is exact
(:meth:`WirtingerPolynomial.evaluate_exact`) or that exact value rounded
once to a float (:meth:`WirtingerPolynomial.evaluate`); the only other
float path is the vectorized grid evaluation in :mod:`hilbertfield.grid`.
"""

from __future__ import annotations

import enum
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

_F0 = Fraction(0)


def json_int(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` when it is a JSON integer; a float, bool or string raises ``error``."""
    # type(), not isinstance(): a JSON boolean is a Python int
    if type(value) is not int:
        raise error(f"{name}: only JSON integers are accepted, got {value!r}")
    return value


class GaussianRational:
    """Exact complex number re + im*i with rational components.

    Immutable; arithmetic is closed under +, -, * and division by a
    nonzero value, and equality is decidable.  Purely real values take
    fast paths, since those dominate the expansion sweeps.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re: Fraction = re if type(re) is Fraction else Fraction(re)
        self.im: Fraction = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "GaussianRational":
        # internal fast constructor: arguments are already Fractions
        out = object.__new__(GaussianRational)
        out.re = re
        out.im = im
        return out

    @staticmethod
    def _coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return NotImplemented

    def __add__(self, other):
        tp = type(other)
        if tp is GaussianRational:
            return GaussianRational._make(self.re + other.re, self.im + other.im)
        if tp is int or tp is Fraction:
            return GaussianRational._make(self.re + other, self.im)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        tp = type(other)
        if tp is GaussianRational:
            return GaussianRational._make(self.re - other.re, self.im - other.im)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __mul__(self, other):
        tp = type(other)
        if tp is GaussianRational:
            if not self.im and not other.im:
                return GaussianRational._make(self.re * other.re, _F0)
            return GaussianRational._make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if tp is int or tp is Fraction:
            return GaussianRational._make(self.re * other, self.im * other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._make(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        if not self.im:
            return self
        return GaussianRational._make(self.re, -self.im)

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

    @property
    def conjugate(self) -> "Direction":
        return Direction.DBAR if self is Direction.D else Direction.D

    def __str__(self) -> str:
        return self.value


_ZERO_COEFF = GaussianRational(0)
_ONE_COEFF = GaussianRational(1)

CoeffLike = Union[GaussianRational, Fraction, int]


class WirtingerPolynomial:
    """Canonical term map (p, q) -> coefficient, denoting sum c s^p sbar^q.

    Instances are immutable; all operations return new polynomials in
    canonical form, so ``a == b`` iff the two denote the same function.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        canonical: dict[tuple[int, int], GaussianRational] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for key, coeff in items:
            p, q = key
            if not (isinstance(p, int) and isinstance(q, int) and p >= 0 and q >= 0):
                raise ValueError(f"exponent pair must be nonnegative integers, got {key!r}")
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            if (p, q) in canonical:
                coeff = canonical[(p, q)] + coeff
            if coeff:
                canonical[(p, q)] = coeff
            else:
                canonical.pop((p, q), None)
        self._terms = canonical
        self._hash: int | None = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "WirtingerPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "WirtingerPolynomial":
        return cls({(0, 0): _ONE_COEFF})

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
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, p: int, q: int) -> GaussianRational:
        return self._terms.get((p, q), _ZERO_COEFF)

    def total_degree(self) -> int:
        """Max p+q over stored terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(p + q for p, q in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WirtingerPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WirtingerPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return _raw(out)

    def __sub__(self, other):
        if not isinstance(other, WirtingerPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _raw({key: -coeff for key, coeff in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, WirtingerPolynomial):
            out: dict[tuple[int, int], GaussianRational] = {}
            for (p1, q1), c1 in self._terms.items():
                for (p2, q2), c2 in other._terms.items():
                    key = (p1 + p2, q1 + q2)
                    acc = out.get(key)
                    prod = c1 * c2
                    acc = prod if acc is None else acc + prod
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
            return _raw(out)
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = other if isinstance(other, GaussianRational) else GaussianRational(other)
            if not scalar:
                return WirtingerPolynomial()
            return _raw({key: coeff * scalar for key, coeff in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

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
        return _raw({(q, p): coeff.conjugate() for (p, q), coeff in self._terms.items()})

    def is_real_valued(self) -> bool:
        return self.conjugate() == self

    def derivative(self, d: Direction) -> "WirtingerPolynomial":
        """Coordinate Wirtinger derivative along ``d``."""
        out: dict[tuple[int, int], GaussianRational] = {}
        if d is Direction.D:
            for (p, q), coeff in self._terms.items():
                if p > 0:
                    out[(p - 1, q)] = coeff * p
        else:
            for (p, q), coeff in self._terms.items():
                if q > 0:
                    out[(p, q - 1)] = coeff * q
        return _raw(out)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, s: complex) -> complex:
        """Value at the point s, with sbar = conj(s): the exact value rounded once.

        A float is an exact binary rational, so the point converts without loss.
        """
        s = complex(s)
        return self.evaluate_exact(GaussianRational(Fraction(s.real), Fraction(s.imag))).to_complex()

    def evaluate_exact(self, s: GaussianRational) -> GaussianRational:
        """Exact value at a Gaussian-rational point s, with sbar = conj(s)."""
        sbar = s.conjugate()
        terms = (math.prod([s] * p + [sbar] * q, start=c) for (p, q), c in self._terms.items())
        return sum(terms, _ZERO_COEFF)

    # -- serialization ---------------------------------------------------

    def to_json_terms(self) -> list[list]:
        """Records [p, q, re, im] with exact fraction strings, sorted by exponent."""
        return [
            [p, q, str(coeff.re), str(coeff.im)]
            for (p, q), coeff in sorted(self._terms.items())
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
        if not self._terms:
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
            elif coeff == _ONE_COEFF:
                parts.append(mono)
            elif coeff == GaussianRational(-1):
                parts.append(f"-{mono}")
            else:
                text = str(coeff)
                if coeff.im or coeff.re < 0:
                    text = text if text.startswith("(") else f"({text})"
                parts.append(f"{text}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"WirtingerPolynomial({self._terms!r})"


def _raw(terms: dict[tuple[int, int], GaussianRational]) -> WirtingerPolynomial:
    # internal fast path: terms already canonical (no zeros, valid exponents)
    poly = WirtingerPolynomial.__new__(WirtingerPolynomial)
    poly._terms = terms
    poly._hash = None
    return poly


def laplacian(g: WirtingerPolynomial) -> WirtingerPolynomial:
    """Laplacian in the real coordinates underlying s: 4 * d2g/(ds dsbar)."""
    return 4 * g.derivative(Direction.D).derivative(Direction.DBAR)


ZERO = WirtingerPolynomial.zero()
ONE = WirtingerPolynomial.one()
S = WirtingerPolynomial.monomial(1, 0)
SBAR = WirtingerPolynomial.monomial(0, 1)
