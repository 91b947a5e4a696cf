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

from .symbolic import WirtingerPolynomial, json_record

__all__ = ["CompactRectangle", "PowerTables", "evaluate_on_grid"]


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
        return cls(**json_record(data, [f.name for f in fields(cls)], "rectangle"))


class _Powers:
    """Powers base^0, base^1, ... of an array, extended by repeated multiplication on demand."""

    def __init__(self, base: np.ndarray):
        self._base = base
        self._table = [np.ones_like(base)]

    def __getitem__(self, n: int) -> np.ndarray:
        table = self._table
        while len(table) <= n:
            table.append(table[-1] * self._base)
        return table[n]


class PowerTables:
    """Powers of an array of grid points (``s``) and of their conjugates (``sbar``).

    Built on demand, so one instance serves every polynomial evaluated on
    the same points.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.s = _Powers(points)
        self.sbar = _Powers(np.conj(points))


def evaluate_on_grid(
    poly: WirtingerPolynomial, points: np.ndarray, tables: PowerTables | None = None
) -> np.ndarray:
    """Vectorized evaluation of ``poly`` at an array of complex points.

    Terms are summed in sorted exponent order, so equal polynomials evaluate
    to bit-identical floats no matter how they were built.  ``tables``, the
    power tables of the same ``points``, lets many calls share the powers.
    """
    if tables is None:
        tables = PowerTables(points)
    elif tables.points is not points:
        raise ValueError("power tables were built for other points")
    values = np.zeros(points.shape, dtype=np.complex128)
    den = poly.denominator
    # int true division is correctly rounded, as float(Fraction(re, den)) is
    for (p, q), (re, im) in sorted(poly.numerators.items()):
        try:
            coefficient = complex(re / den, im / den)
        except OverflowError:
            raise OverflowError(f"the coefficient of s^{p} sbar^{q} does not fit a float") from None
        values += coefficient * tables.s[p] * tables.sbar[q]
    return values
