"""The correctness gate passes good outputs and flags a single flipped answer.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import copy
import csv
import json
from pathlib import Path

import gate

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())


def _write_identity_report(reports: Path, m_max: int, indices: list[int], n_functions: int) -> dict:
    cells = []
    for m in range(m_max + 1):
        for bits in range(2**m):
            dirs = " ".join("dbar" if bits >> (m - 1 - i) & 1 else "d" for i in range(m)) or "-"
            cells += [
                {"m": m, "dirs": dirs, "j": j, "f": f"f{f}", "f_index": f, "ok": True}
                for j in indices
                for f in range(n_functions)
            ]
    report = {"check": "expansion-identity", "cells": cells, "all_pass": True}
    reports.mkdir(parents=True, exist_ok=True)
    (reports / "verify_identity.json").write_text(json.dumps(report))
    return report


def test_stirling_numbers_and_bell_totals():
    S = gate.stirling2(10)
    assert S[5][2] == 15 and S[6][3] == 90
    assert [sum(row) for row in S[:11]] == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_identity_gate_flags_one_flipped_cell(tmp_path):
    report = _write_identity_report(tmp_path, 3, [0, 4], 2)
    assert gate.check_identity_report(tmp_path, 3, [0, 4], 2) == (60, [])
    report["cells"][17]["ok"] = False
    (tmp_path / "verify_identity.json").write_text(json.dumps(report))
    attempted, problems = gate.check_identity_report(tmp_path, 3, [0, 4], 2)
    assert attempted == 60 and len(problems) == 1


def test_identity_gate_flags_missing_cells_and_reports(tmp_path):
    report = _write_identity_report(tmp_path, 3, [0], 1)
    report["cells"].pop()
    (tmp_path / "verify_identity.json").write_text(json.dumps(report))
    assert gate.check_identity_report(tmp_path, 3, [0], 1)[1]
    attempted, problems = gate.check_identity_report(tmp_path / "absent", 3, [0], 1)
    assert attempted == 15 and problems


def test_splittings_gate_flags_one_wrong_count(tmp_path):
    counts, correspondences = gate.splittings_tables(4, 3)
    (tmp_path / "splittings.json").write_text(json.dumps({"all_pass": True}))
    for name, rows in (("splittings.csv", counts), ("correspondences.csv", correspondences)):
        with (tmp_path / name).open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    attempted, problems = gate.check_splittings_report(tmp_path, 4, 3)
    assert attempted == 15 + 20 and problems == []
    counts[7][2] = str(int(counts[7][2]) + 1)
    with (tmp_path / "splittings.csv").open("w", newline="") as handle:
        csv.writer(handle).writerows(counts)
    assert len(gate.check_splittings_report(tmp_path, 4, 3)[1]) == 1


def test_pinned_gate_flags_one_flipped_answer():
    for cells in PINNED.values():
        computed = [{"expansion": c["expansion"], "iterated": c["iterated"]} for c in cells]
        assert gate.check_pinned(computed, cells) == (2 * len(cells), [])
        flipped = copy.deepcopy(computed)
        record = flipped[-1]["expansion"][0]
        record[2] = record[2][1:] if record[2].startswith("-") else "-" + record[2]
        attempted, problems = gate.check_pinned(flipped, cells)
        assert attempted == 2 * len(cells) and len(problems) == 1


def test_recursion_gate_counts_every_cell():
    assert gate.check_recursion([True] * 4, 4) == (4, [])
    assert len(gate.check_recursion([True, False, True, True], 4)[1]) == 1
    assert gate.check_recursion([True] * 3, 4)[1]
