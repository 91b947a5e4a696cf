"""The diagonal Hilbert field model over the complex plane.

Sections are finite combinations sum_l a_l(s) phi_l of a fixed fiberwise
orthonormal basis {phi_l}, with polynomial coefficients a_l.  A connection
is determined by one complex polynomial k: differentiating along d/ds
multiplies phi_j by (j+1)k, and along d/dsbar by -(j+1)conj(k).  When k is
the s-derivative of a real-valued potential g, the curvature of the pair
of coordinate directions acts diagonally with eigenvalue proportional to
-(j+1) * laplacian(g), which grows without bound in j wherever the
laplacian does not vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .symbolic import ZERO, Direction, GaussianRational, WirtingerPolynomial, json_int, laplacian

__all__ = [
    "FieldSection",
    "Connection",
    "CurvatureConsistencyError",
    "metric_pair",
    "check_leibniz",
    "check_metric_compat",
]


class CurvatureConsistencyError(RuntimeError):
    """The curvature of a diagonal connection failed to act diagonally."""


class FieldSection:
    """Finitely supported section: map basis index l -> coefficient a_l.

    Canonical form stores no zero coefficient polynomials; equality is
    equality of coefficient maps.  Immutable.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Union[Mapping[int, WirtingerPolynomial], None] = None):
        canonical: dict[int, WirtingerPolynomial] = {}
        for index, poly in (coeffs or {}).items():
            if not isinstance(index, int) or index < 0:
                raise ValueError(f"basis index must be a nonnegative integer, got {index!r}")
            if not isinstance(poly, WirtingerPolynomial):
                raise TypeError("coefficients must be WirtingerPolynomial values")
            if not poly.is_zero:
                canonical[index] = poly
        self._coeffs = canonical
        self._hash: int | None = None

    @classmethod
    def basis(cls, j: int) -> "FieldSection":
        """The basis section phi_j."""
        return cls({j: WirtingerPolynomial.one()})

    @property
    def coeffs(self) -> Mapping[int, WirtingerPolynomial]:
        return MappingProxyType(self._coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, index: int) -> WirtingerPolynomial:
        return self._coeffs.get(index, ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSection):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __add__(self, other):
        if not isinstance(other, FieldSection):
            return NotImplemented
        out = dict(self._coeffs)
        for index, poly in other._coeffs.items():
            acc = out.get(index)
            acc = poly if acc is None else acc + poly
            if acc.is_zero:
                out.pop(index, None)
            else:
                out[index] = acc
        return FieldSection(out)

    def __sub__(self, other):
        if not isinstance(other, FieldSection):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FieldSection({index: -poly for index, poly in self._coeffs.items()})

    def __mul__(self, factor):
        if isinstance(factor, (WirtingerPolynomial, GaussianRational, int, Fraction)):
            return FieldSection({index: poly * factor for index, poly in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def to_json(self) -> list[list]:
        return [[index, poly.to_json_terms()] for index, poly in sorted(self._coeffs.items())]

    @classmethod
    def from_json(cls, data: Iterable[Iterable]) -> "FieldSection":
        return cls(
            {
                json_int(index, "section index"): WirtingerPolynomial.from_json_terms(terms)
                for index, terms in data
            }
        )

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(f"({poly})*phi_{index}" for index, poly in sorted(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"FieldSection({self._coeffs!r})"


def _section(coeffs: dict[int, WirtingerPolynomial]) -> FieldSection:
    # internal constructor: indices valid, no zero coefficient
    section = FieldSection.__new__(FieldSection)
    section._coeffs = coeffs
    section._hash = None
    return section


@dataclass(frozen=True)
class Connection:
    """Diagonal connection determined by the polynomial k.

    ``potential`` is optional provenance: when present it must be a
    real-valued polynomial g with k = dg/ds exactly.
    """

    k: WirtingerPolynomial
    potential: WirtingerPolynomial | None = None
    # the multiplier of each (j, d), built on first use; not part of the value
    _multipliers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.potential is not None:
            if not self.potential.is_real_valued():
                raise ValueError("connection potential must be real-valued")
            if self.potential.derivative(Direction.D) != self.k:
                raise ValueError("connection potential does not match k: need k = dg/ds")

    @classmethod
    def from_potential(cls, g: WirtingerPolynomial) -> "Connection":
        return cls(k=g.derivative(Direction.D), potential=g)

    @classmethod
    def flat(cls) -> "Connection":
        return cls(k=WirtingerPolynomial.zero())

    def coefficient(self, j: int, d: Direction) -> WirtingerPolynomial:
        """Scalar multiplier picked up by phi_j under the derivation d."""
        multiplier = self._multipliers.get((j, d))
        if multiplier is None:
            if j < 0:
                raise ValueError("basis index must be nonnegative")
            multiplier = (j + 1) * self.k if d is Direction.D else (-(j + 1)) * self.k.conjugate()
            self._multipliers[j, d] = multiplier
        return multiplier

    def covariant_derivative(self, phi: FieldSection, d: Direction) -> FieldSection:
        """Single covariant derivative: index by index, a_l -> da_l + A(d, l) a_l.

        Each new coefficient is built in one pass over the terms of a_l
        (:meth:`WirtingerPolynomial.twisted_derivative`), and the nonzero
        ones, already canonical, make the section without revalidation.
        """
        out = {}
        for index, poly in phi._coeffs.items():
            new = poly.twisted_derivative(d, self.coefficient(index, d))
            if new:
                out[index] = new
        return _section(out)

    def iterated(self, phi: FieldSection, dirs: Sequence[Direction]) -> FieldSection:
        """Iterated covariant derivative, applying dirs[0] first, dirs[-1] last."""
        for d in dirs:
            phi = self.covariant_derivative(phi, d)
        return phi

    def curvature(self, phi: FieldSection) -> FieldSection:
        """Commutator of the two coordinate covariant derivatives on phi.

        The coordinate fields commute, so no bracket correction appears.
        """
        return self.iterated(phi, (Direction.DBAR, Direction.D)) - self.iterated(
            phi, (Direction.D, Direction.DBAR)
        )

    def curvature_eigenvalue(self, j: int) -> WirtingerPolynomial:
        """Eigenvalue polynomial of the curvature on phi_j, via the commutator.

        Verifies that the commutator really is a multiple of phi_j, and when
        a potential is attached cross-checks -(j+1)*laplacian(g)/2.
        """
        if j < 0:
            raise ValueError("basis index must be nonnegative")
        image = self.curvature(FieldSection.basis(j))
        if any(index != j for index in image.support):
            raise CurvatureConsistencyError(
                f"curvature image of phi_{j} has support {image.support}, expected subset of {{{j}}}"
            )
        value = image.coefficient(j)
        if self.potential is not None:
            expected = laplacian(self.potential) * GaussianRational(Fraction(-(j + 1), 2))
            if value != expected:
                raise CurvatureConsistencyError(
                    f"curvature eigenvalue for phi_{j} disagrees with -(j+1)*laplacian(g)/2"
                )
        return value

    def to_json(self) -> dict:
        data = {"k": self.k.to_json_terms()}
        if self.potential is not None:
            data["g"] = self.potential.to_json_terms()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Connection":
        unknown = sorted(set(data) - {"k", "g"})
        if unknown:
            raise ValueError(f"unknown connection key(s): {', '.join(unknown)}")
        g = data.get("g")
        potential = WirtingerPolynomial.from_json_terms(g) if g is not None else None
        if "k" in data:
            k = WirtingerPolynomial.from_json_terms(data["k"])
        elif potential is not None:
            k = potential.derivative(Direction.D)
        else:
            raise ValueError("connection record needs at least one of 'k', 'g'")
        return cls(k=k, potential=potential)


def metric_pair(phi: FieldSection, psi: FieldSection) -> WirtingerPolynomial:
    """Fiberwise hermitian pairing sum_l a_l * conj(b_l) (basis is orthonormal)."""
    total = WirtingerPolynomial.zero()
    for index, poly in phi.coeffs.items():
        other = psi.coeffs.get(index)
        if other is not None:
            total = total + poly * other.conjugate()
    return total


def check_leibniz(
    conn: Connection, f: WirtingerPolynomial, phi: FieldSection, d: Direction
) -> bool:
    """Exact product rule: D(f phi) = (df) phi + f D(phi)."""
    lhs = conn.covariant_derivative(f * phi, d)
    rhs = f.derivative(d) * phi + f * conn.covariant_derivative(phi, d)
    return lhs == rhs


def check_metric_compat(
    conn: Connection, phi: FieldSection, psi: FieldSection, d: Direction
) -> bool:
    """Exact compatibility: d<phi, psi> = <D_d phi, psi> + <phi, D_dbar psi>."""
    lhs = metric_pair(phi, psi).derivative(d)
    rhs = metric_pair(conn.covariant_derivative(phi, d), psi) + metric_pair(
        phi, conn.covariant_derivative(psi, d.conjugate)
    )
    return lhs == rhs
