"""Fixed reference work that measures how fast the host runs Python now.

The benchmark runs on a few cores of a shared host, where the speed a
process gets drifts with the neighbours' load: by up to a factor of two
over minutes on a 2-vCPU host.  ``run.py`` times this computation before
and after every repetition of a workload; the mean of the two over
``NOMINAL_S`` is the repetition's host factor, and ``suite_s`` is the
suite time divided by the host factor raised to ``SENSITIVITY``.

The workloads slow down less than this computation does: over six sets
of ten 55-second runs (400 repetitions of ``identity`` and
``analyticity``), the log of suite time rose by 0.3 to 0.7 per unit of
log host factor, because two short samples at the ends of a repetition
only estimate the speed it saw throughout.  Dividing by the square root
removes most of the drift the run medians share with the reference
without adding the reference's own noise.  The spread of the ten run
medians (interquartile range over median) was 0.03-0.07 with it in five
sets, against 0.04-0.15 unscaled and 0.03-0.13 with full division; in the
sixth, where the reference tracked the suite poorly, all three gave
0.11-0.12.

The computation imports nothing from hilbertfield, so that no change to
the program moves it.  It does the same kind of work as the program's hot
paths: sparse bivariate polynomial products with complex rational
coefficients held in dicts (``WirtingerPolynomial.__mul__`` over
``GaussianRational``), a chain of ``Fraction`` products and sums with dict
updates, and elementwise complex numpy arithmetic on a small grid
(``evaluate_on_grid``).

Set-up time is dominated by starting an interpreter and importing numpy,
which drift with the host's processes and files rather than with its
arithmetic speed.  So ``run.py`` also times a fresh interpreter that only
imports numpy and the standard modules the workload process needs, just
before each workload process, and scales ``setup_s`` by
``NOMINAL_IMPORT_S`` over that time.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# round figures near the fastest ``reference_work`` and the import reference
# ran on a shared 2-vCPU Intel Xeon host at 2.1 GHz; they only fix the scale
# of ``suite_s`` and ``setup_s``, so they stay the same from commit to commit
NOMINAL_S = 0.30
NOMINAL_IMPORT_S = 0.20
# the exponent of the host factor in ``suite_s`` (see above)
SENSITIVITY = 0.5
IMPORT_REFERENCE = "import argparse, contextlib, fractions, json, resource, statistics, timeit, numpy"


class _Gauss:
    """A complex rational, as a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re, self.im = re, im

    def __mul__(self, other: _Gauss) -> _Gauss:
        return _Gauss(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __add__(self, other: _Gauss) -> _Gauss:
        return _Gauss(self.re + other.re, self.im + other.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            key = (p1 + p2, q1 + q2)
            acc = out.get(key)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def _polynomial(degree: int, salt: int) -> dict:
    return {
        (p, q): _Gauss(Fraction((p * 7 + q * 3 + salt) % 11 - 5, q + 2), Fraction((p + q * 5 + salt) % 7 - 3, p + 3))
        for p in range(degree + 1)
        for q in range(degree + 1 - p)
    }


def _grid_powers(n: int, degree: int) -> float:
    xs = np.linspace(-1.0, 1.0, n)
    points = xs[:, None] + 1j * xs[None, :]
    conj = np.conj(points)
    total = np.zeros_like(points)
    power = np.ones_like(points)
    for p in range(degree + 1):
        power_bar = np.ones_like(points)
        for q in range(degree + 1 - p):
            total += (p - q) * power * power_bar
            power_bar = power_bar * conj
        power = power * points
    return float(np.abs(total).max())


def _fraction_chain(steps: int) -> int:
    x, acc = Fraction(1, 3), {}
    for i in range(steps):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if x.denominator > 10**6:
            x = Fraction(x.numerator % 1000, 7)
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + x.numerator
    return sum(acc.values())


def reference_work() -> tuple[int, int, float]:
    """The fixed computation; returns a digest so that nothing is optimised away."""
    a, b = _polynomial(6, 1), _polynomial(5, 2)
    terms = 0
    for _ in range(3):
        c = _product(a, b)
        c = _product(c, b)
        terms += len(c)
    return terms, _fraction_chain(40000), sum(_grid_powers(33, 14) for _ in range(20))


def time_reference() -> float:
    """Seconds one ``reference_work`` takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def time_import_reference(env: dict, cwd: Path) -> float:
    """Seconds a fresh interpreter takes to start and import ``IMPORT_REFERENCE`` now."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], env=env, cwd=cwd, check=True, timeout=60)
    return time.monotonic() - start
