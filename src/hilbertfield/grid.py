"""Compact rectangles and vectorized polynomial evaluation on their grids.

The grid always contains the four corners.  Maxima over it are lower
bounds of the true suprema: the decay report prints them next to the
proved level bounds.  No verdict rests on a grid maximum; certificates,
decay rows and splitting-term bounds are decided from the coefficients.
Grid evaluation sums terms in sorted exponent order, so equal polynomials
give bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .symbolic import WirtingerPolynomial

__all__ = ["CompactRectangle", "evaluate_on_grid"]


@dataclass(frozen=True)
class CompactRectangle:
    """Axis-aligned rectangle [re_min, re_max] x [im_min, im_max] with a grid.

    Bounds are exact rationals; ``grid_n`` is the number of sample points
    per axis (>= 2, endpoints always included).
    """

    re_min: Fraction
    re_max: Fraction
    im_min: Fraction
    im_max: Fraction
    grid_n: int = 33

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(str(value)))
        if self.re_min > self.re_max or self.im_min > self.im_max:
            raise ValueError("rectangle is empty: min bound exceeds max bound")
        if not isinstance(self.grid_n, int) or self.grid_n < 2:
            raise ValueError("grid_n must be an integer >= 2")

    def grid_points(self) -> np.ndarray:
        """Flat complex array of the grid, corners included."""
        xs = np.linspace(float(self.re_min), float(self.re_max), self.grid_n)
        ys = np.linspace(float(self.im_min), float(self.im_max), self.grid_n)
        re, im = np.meshgrid(xs, ys, indexing="ij")
        return (re + 1j * im).ravel()

    def with_grid_n(self, grid_n: int) -> "CompactRectangle":
        return CompactRectangle(self.re_min, self.re_max, self.im_min, self.im_max, grid_n)

    def to_json(self) -> dict:
        return {
            "re_min": str(self.re_min),
            "re_max": str(self.re_max),
            "im_min": str(self.im_min),
            "im_max": str(self.im_max),
            "grid_n": self.grid_n,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CompactRectangle":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown rectangle key(s): {', '.join(unknown)}")
        return cls(**data)


def evaluate_on_grid(poly: WirtingerPolynomial, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of ``poly`` at an array of complex points.

    Terms are summed in sorted exponent order, so equal polynomials evaluate
    to bit-identical floats no matter how they were built.
    """
    values = np.zeros(points.shape, dtype=np.complex128)
    if poly.is_zero:
        return values
    conj = np.conj(points)
    max_p = max(p for p, _ in poly.terms)
    max_q = max(q for _, q in poly.terms)
    pow_s = [np.ones_like(points)]
    for _ in range(max_p):
        pow_s.append(pow_s[-1] * points)
    pow_sbar = [np.ones_like(points)]
    for _ in range(max_q):
        pow_sbar.append(pow_sbar[-1] * conj)
    for (p, q), coeff in sorted(poly.terms.items()):
        values += coeff.to_complex() * pow_s[p] * pow_sbar[q]
    return values

