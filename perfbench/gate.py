"""Correctness gate: checks a workload's outputs without importing hilbertfield.

Every check function returns ``(attempted, problems)``: the number of
checks the workload makes, and one message per check that failed.  A
missing or malformed report is a problem, not an exception.  A repetition
passes only when its process exited 0, the suite reported ``all_pass`` and
the problem list is empty; otherwise all of its checks count as failed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

_MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError)


def _guarded(attempted: int, compare) -> tuple[int, list[str]]:
    try:
        return attempted, compare()
    except _MALFORMED as exc:
        return attempted, [f"malformed output: {exc!r}"]


def stirling2(n_max: int) -> list[list[int]]:
    """Stirling numbers of the second kind S(n, k) for n, k <= n_max, by recurrence."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            table[n][k] = table[n - 1][k - 1] + k * table[n - 1][k]
    return table


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def check_identity_report(reports: Path, m_max: int, indices: list[int], n_functions: int):
    """Every cell of the verify-identity sweep is present, in order, and passed."""
    expected = [
        (m, " ".join(dirs) if dirs else "-", j, f_index)
        for m in range(m_max + 1)
        for dirs in itertools.product(("d", "dbar"), repeat=m)
        for j in indices
        for f_index in range(n_functions)
    ]

    def compare():
        problems = []
        report = json.loads((reports / "verify_identity.json").read_text())
        if report["all_pass"] is not True:
            problems.append("verify_identity.json: all_pass is not true")
        cells = report["cells"]
        if [(c["m"], c["dirs"], c["j"], c["f_index"]) for c in cells] != expected:
            problems.append(f"verify_identity.json: {len(cells)} cells, expected {len(expected)} in sweep order")
        problems += [
            f"identity cell m={c['m']} dirs={c['dirs']} j={c['j']} f={c['f']} failed"
            for c in cells
            if c["ok"] is not True
        ]
        return problems

    return _guarded(len(expected), compare)


def check_analyticity_report(reports: Path, indices: list[int], n_functions: int, m_greedy: int):
    """Every certificate audited; every decay row under its bound and consistent with it.

    Certificate values are not pinned: a better certificate search changes them.
    """
    expected_cells = [(j, f_index) for j in indices for f_index in range(n_functions)]
    header = ["m", "sup_norm", "delta_scaled", "decay_bound", "pass"]

    def compare():
        problems = []
        summary = json.loads((reports / "analyticity.json").read_text())
        if summary["all_pass"] is not True:
            problems.append("analyticity.json: all_pass is not true")
        cells = summary["cells"]
        if [(c["j"], c["f_index"]) for c in cells] != expected_cells:
            problems.append(f"analyticity.json: {len(cells)} cells, expected {len(expected_cells)}")
        for cell in cells:
            tag = f"j={cell['j']} f={cell['f_index']}"
            if cell["audited"] is not True:
                problems.append(f"certificate {tag} not audited")
            delta, M = Fraction(cell["delta"]), Fraction(cell["M"])
            rows = _read_csv(reports / f"decay_j{cell['j']}_f{cell['f_index']}.csv")
            if rows[0] != header or len(rows) != m_greedy + 2:
                problems.append(f"decay table of {tag} has the wrong shape")
                continue
            for m, row in enumerate(rows[1:]):
                sup, scaled, bound = (float(value) for value in row[1:4])
                want_scaled = float(delta**m / math.factorial(m)) * sup
                want_bound = float((m + 1) * M * Fraction(1, 2) ** m)
                if (
                    int(row[0]) != m
                    or row[4] != "True"
                    or not math.isclose(scaled, want_scaled, rel_tol=1e-9)
                    or not math.isclose(bound, want_bound, rel_tol=1e-9)
                    or scaled > want_bound * (1 + 1e-9)
                ):
                    problems.append(f"decay row m={m} of {tag} fails: {row}")
        return problems

    # per cell: the audit and one check per decay row m = 0..m_greedy
    return _guarded(len(expected_cells) * (m_greedy + 2), compare)


def splittings_tables(m_splittings: int, m_bijection: int) -> tuple[list[list[str]], list[list[str]]]:
    """Expected splittings.csv and correspondences.csv, from S(m+1, k) alone."""
    S = stirling2(max(m_splittings, m_bijection) + 2)
    counts = [["m", "k", "total", "type1", "type2", "recursion_ok"], ["0", "1", "1", "", "", ""]]
    for m in range(1, m_splittings + 1):
        for k in range(1, m + 2):
            # type 1: m is the leading marker, leaving a (k-1)-block splitting of {1..m-1}
            type1 = S[m][k - 1]
            counts.append([str(v) for v in (m, k, S[m + 1][k], type1, S[m + 1][k] - type1, True)])
    correspondences = [["kind", "m", "k", "pairings", "ok"]]
    for m in range(m_bijection + 1):
        correspondences += [["type1", str(m), str(k), str(S[m + 1][k - 1]), "True"] for k in range(2, m + 3)]
        correspondences += [["type2", str(m), str(k), str(S[m + 1][k]), "True"] for k in range(1, m + 2)]
    return counts, correspondences


def check_splittings_report(reports: Path, m_splittings: int, m_bijection: int):
    """Count table against Stirling numbers and correspondence sizes, all rows passing."""
    counts, correspondences = splittings_tables(m_splittings, m_bijection)

    def compare():
        problems = []
        if json.loads((reports / "splittings.json").read_text())["all_pass"] is not True:
            problems.append("splittings.json: all_pass is not true")
        for name, expected in (("splittings.csv", counts), ("correspondences.csv", correspondences)):
            found = _read_csv(reports / name)
            if len(found) != len(expected):
                problems.append(f"{name}: {len(found) - 1} rows, expected {len(expected) - 1}")
            problems += [f"{name}: row {got} expected {want}" for got, want in zip(found, expected) if got != want]
        return problems

    return _guarded(len(counts) + len(correspondences) - 2, compare)


def check_recursion(results: list, n_cells: int):
    """Every recursion cell was checked and returned True."""

    def compare():
        problems = [] if len(results) == n_cells else [f"recursion: {len(results)} cells checked, expected {n_cells}"]
        return problems + [f"recursion cell {i} failed" for i, ok in enumerate(results) if ok is not True]

    return _guarded(n_cells, compare)


def check_pinned(computed: list, pinned: list[dict]):
    """Exact answers (JSON term encodings) against the pinned ones, two per cell."""

    def compare():
        problems = [] if len(computed) == len(pinned) else [f"pinned: {len(computed)} cells, expected {len(pinned)}"]
        for got, want in zip(computed, pinned):
            problems += [
                f"pinned {key} differs at m={want['m']} dirs={want['dirs']} j={want['j']}"
                for key in ("expansion", "iterated")
                if got[key] != want[key]
            ]
        return problems

    return _guarded(2 * len(pinned), compare)
