"""Workload inputs, shared by ``run.py`` and the workload process ``child.py``.

Nothing here imports hilbertfield: polynomials are written in the
package's JSON term encoding, records ``[p, q, re, im]`` for
``(re + im*i) s^p sbar^q``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ONE = [[0, 0, "1", "0"]]
S = [[1, 0, "1", "0"]]
S_SBAR = [[1, 1, "1", "0"]]

# the package's default model data, written out so that the workloads stay
# fixed if the defaults change: g = s*sbar (so k = sbar), j in {0, 1, 4},
# f in {1, s, s*sbar}
_MODEL = {"connection": {"g": S_SBAR}, "indices": [0, 1, 4], "functions": [ONE, S, S_SBAR]}

CLI_SUITES = {
    "identity": ("verify-identity", {**_MODEL, "m_identity": 6}),
    "analyticity": (
        "analyticity",
        {
            **_MODEL,
            "rectangle": {"re_min": "-1", "re_max": "1", "im_min": "-1", "im_max": "1", "grid_n": 33},
            "m_decay": 10,
            "m_greedy": 12,
        },
    ),
    "combinatorics": ("splittings", {**_MODEL, "m_splittings": 9, "m_bijection": 7}),
}

WORKLOADS = ("identity", "recursion", "analyticity", "combinatorics")

# recursion: check_splitting_recursion at m = 5 (level 6) on every one of the
# 64 direction sequences of length 6, cycling through the (j, f) pairs
RECURSION_M = 5
RECURSION_INDICES = (0, 1, 4)


def recursion_cells() -> list[tuple[tuple[str, ...], int, int]]:
    """(direction names, j, function index) for each recursion cell, in a fixed order."""
    return [
        (dirs, RECURSION_INDICES[i % 3], (i // 3) % 3)
        for i, dirs in enumerate(itertools.product(("d", "dbar"), repeat=RECURSION_M + 1))
    ]


def recursion_data(seed: int) -> dict:
    """k = c*s*sbar^2 and functions c*1, c*s, c*s*sbar, each c drawn from the seed.

    Every c has nonzero real and imaginary parts, so the monomial supports,
    and with them the shape of the work, do not depend on the seed.
    """
    rng = random.Random(seed)

    def part() -> str:
        return str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))

    def monomial(p: int, q: int) -> list[list]:
        return [[p, q, part(), part()]]

    return {"k": monomial(1, 2), "functions": [monomial(0, 0), monomial(1, 0), monomial(1, 1)]}
