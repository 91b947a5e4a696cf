"""Exit codes, report files and determinism of the command-line suites."""

import csv
import enum
import json
import math
import re
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import hilbertfield.analyticity
import hilbertfield.cli
import hilbertfield.splittings
from hilbertfield import (
    AnalyticityCertificate,
    Connection,
    Direction,
    FieldSection,
    Splitting,
    all_splittings,
    audit_certificate,
    direction_sequences,
    ONE,
    S,
    SBAR,
)
from hilbertfield.cli import ConfigError, RunConfig, main
from hilbertfield.field import CurvatureConsistencyError
from hilbertfield.symbolic import json_text

from conftest import stirling2


def write_config(path, **overrides):
    data = {
        "connection": {"g": (S * SBAR).to_json_terms()},
        "indices": [0, 1],
        "functions": [ONE.to_json_terms(), S.to_json_terms()],
        "rectangle": {"re_min": "-1", "re_max": "1", "im_min": "-1", "im_max": "1", "grid_n": 9},
        "m_identity": 3,
        "m_splittings": 5,
        "m_bijection": 4,
        "m_decay": 5,
        "m_greedy": 7,
        "curvature_j_max": 6,
        "eval_points": [[0.0, 0.0], [1.0, 0.0]],
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestVerifyIdentity:
    def test_passes_and_writes_reports(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["verify-identity", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "verify_identity.json").read_text())
        assert report["all_pass"] is True
        assert len(report["cells"]) == (1 + 2 + 4 + 8) * 2 * 2
        assert (out / "verify_identity.csv").exists()

    def test_corrupted_expansion_fails(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", m_identity=2)
        out = tmp_path / "out"
        code = main(
            ["verify-identity", "--config", str(config), "--out", str(out), "--corrupt-expansion"]
        )
        assert code == 1
        report = json.loads((out / "verify_identity.json").read_text())
        assert report["all_pass"] is False

    def test_failed_cells_carry_witnesses(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", m_identity=2)
        out = tmp_path / "out"
        assert main(["verify-identity", "--config", str(config), "--out", str(out), "--corrupt-expansion"]) == 1
        report = json.loads((out / "verify_identity.json").read_text())
        conn = Connection.from_potential(S * SBAR)
        functions = (ONE, S)
        failed = [cell for cell in report["cells"] if not cell["ok"]]
        assert failed
        for cell in report["cells"]:
            if cell["ok"]:
                assert "witness" not in cell
                continue
            witness = cell["witness"]
            dirs = tuple(Direction(name) for name in cell["dirs"].split() if name != "-")
            section = conn.iterated(functions[cell["f_index"]] * FieldSection.basis(cell["j"]), dirs)
            coeff = section.coefficient(witness["basis_index"]).coefficient(witness["p"], witness["q"])
            # the corrupted expansion is the negated one
            assert (witness["direct"], witness["expansion"]) == (str(coeff), str(-coeff))
            assert coeff

    def test_hook_state_is_restored_after_corrupt_run(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", m_identity=1)
        out = tmp_path / "out"
        assert main(["verify-identity", "--config", str(config), "--out", str(out), "--corrupt-expansion"]) == 1
        assert main(["verify-identity", "--config", str(config), "--out", str(out)]) == 0

    def test_corrupt_expansion_config_key(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", m_identity=1, corrupt_expansion=True)
        assert main(["verify-identity", "--config", str(config), "--out", str(tmp_path / "out")]) == 1

    def test_one_sweep_per_function_and_one_covariant_derivative_per_cell(self, tmp_path, monkeypatch):
        calls, sweeps, steps = [], [], []
        derivative, sweep = Connection.covariant_derivative, hilbertfield.cli.IdentitySweep
        step = hilbertfield.splittings._States.step
        monkeypatch.setattr(
            Connection, "covariant_derivative", lambda *args: calls.append(args[2]) or derivative(*args)
        )
        monkeypatch.setattr(
            hilbertfield.cli, "IdentitySweep", lambda *args: sweeps.append(args) or sweep(*args)
        )
        monkeypatch.setattr(hilbertfield.splittings._States, "step", lambda *args: steps.append(args[2]) or step(*args))
        config = write_config(tmp_path / "cfg.json")
        assert main(["verify-identity", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        # two functions, each serving both indices: every cell of order m >= 1
        # derives its prefix's section once, and every direction sequence of
        # order m >= 1 steps its prefix's states once per function
        assert len(sweeps) == 2
        assert len(calls) == (2 + 4 + 8) * 2 * 2
        assert len(steps) == (2 + 4 + 8) * 2

    def test_one_graded_sum_per_function_and_direction_sequence(self, tmp_path, monkeypatch):
        # the default model: three functions, three indices, m <= 6; the indices
        # of a function share one graded sum of each direction sequence's states
        sums = Counter()
        graded = hilbertfield.splittings._States.graded

        def counted(states, level):
            dirs = next(dirs for dirs, kept in states.items() if kept is level)
            sums[states.terms.bases[0], dirs] += 1
            return graded(states, level)

        monkeypatch.setattr(hilbertfield.splittings._States, "graded", counted)
        assert main(["verify-identity", "--out", str(tmp_path / "out")]) == 0
        sequences = [dirs for m in range(7) for dirs in direction_sequences(m)]
        assert sums == Counter({(f, dirs): 1 for f in (ONE, S, S * SBAR) for dirs in sequences})
        assert sum(sums.values()) == 381

    def test_each_direction_sequence_formatted_once(self, tmp_path, monkeypatch):
        labels = []
        format_dirs = hilbertfield.cli._format_dirs
        monkeypatch.setattr(hilbertfield.cli, "_format_dirs", lambda dirs: labels.append(dirs) or format_dirs(dirs))
        config = write_config(tmp_path / "cfg.json")
        assert main(["verify-identity", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(labels) == len(set(labels)) == 1 + 2 + 4 + 8

    def test_empty_index_list_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", indices=[])
        assert main(["verify-identity", "--config", str(config)]) == 2

    def test_deterministic_reports(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", m_identity=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify-identity", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["verify-identity", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "verify_identity.json").read_text() == (out2 / "verify_identity.json").read_text()


class TestSplittings:
    def test_count_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["splittings", "--out", str(out), "--m-max", "7"]) == 0
        with (out / "splittings.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0] == {"m": "0", "k": "1", "total": "1", "type1": "", "type2": "", "recursion_ok": ""}
        totals = {}
        for row in rows:
            totals[int(row["m"])] = totals.get(int(row["m"]), 0) + int(row["total"])
            if row["recursion_ok"]:
                assert row["recursion_ok"] == "True"
        assert totals[2] == 5
        assert totals[3] == 15
        # closed-form oracle, sharing no code with the enumerator or the recursion:
        # N(m, k) = S(m+1, k), of which S(m, k-1) are type 1 and k S(m, k) type 2
        assert rows[1:] == [
            {
                "m": str(m),
                "k": str(k),
                "total": str(stirling2(m + 1, k)),
                "type1": str(stirling2(m, k - 1)),
                "type2": str(k * stirling2(m, k)),
                "recursion_ok": "True",
            }
            for m in range(1, 8)
            for k in range(1, m + 2)
        ]
        # type 1 pairs off the N(m, k-1) splittings, type 2 covers the N(m, k)
        expected = []
        for m in range(RunConfig().m_bijection + 1):
            expected += [("type1", m, k, stirling2(m + 1, k - 1)) for k in range(2, m + 3)]
            expected += [("type2", m, k, stirling2(m + 1, k)) for k in range(1, m + 2)]
        with (out / "correspondences.csv").open() as handle:
            pairings = list(csv.DictReader(handle))
        assert [(r["kind"], int(r["m"]), int(r["k"]), int(r["pairings"])) for r in pairings] == expected
        assert all(r["ok"] == "True" for r in pairings)

    def test_failed_correspondence_leaves_a_witness(self, tmp_path, monkeypatch, capsys):
        # every insertion lands in the first block, so the k >= 2 type-2 covers collide;
        # the enumerator grows its levels by the same move, so they are cached unpatched first
        all_splittings(RunConfig().m_bijection + 1)
        original = hilbertfield.splittings._insert_top_element
        monkeypatch.setattr(
            hilbertfield.splittings, "_insert_top_element", lambda spl, position: original(spl, 0)
        )
        out = tmp_path / "out"
        assert main(["splittings", "--out", str(out), "--m-max", "3"]) == 1
        report = json.loads((out / "splittings.json").read_text())
        assert report["all_pass"] is False
        failed = [row for row in report["correspondences"] if not row["ok"]]
        assert failed and all(row["kind"] == "type2" and row["k"] >= 2 for row in failed)
        assert all("witness" not in row for row in report["correspondences"] if row["ok"])
        # the first failure is the cover of the one two-block splitting of {1}
        assert (failed[0]["m"], failed[0]["k"], failed[0]["pairings"]) == (1, 2, 0)
        assert failed[0]["witness"] == Splitting(1, ((), ()), (1,)).to_json()
        for row in failed:
            witness = Splitting.from_json(row["witness"])
            assert (witness.m, witness.num_blocks) == (row["m"], row["k"])
        assert "type-2 correspondence failed at (m=1, k=2)" in capsys.readouterr().err
        with (out / "correspondences.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row for row in rows if row["ok"] == "False"] == [
            {"kind": "type2", "m": str(row["m"]), "k": str(row["k"]), "pairings": "0", "ok": "False"}
            for row in failed
        ]


class TestCurvature:
    def test_modulus_squared_potential(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
        with (out / "curvature.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        values = [float(row["abs_at_0+0i"]) for row in rows]
        assert values == [2.0 * (j + 1) for j in range(7)]
        assert all(row["matches_closed_form"] == "True" for row in rows)
        report = json.loads((out / "curvature.json").read_text())
        assert report["growth"] == {"0+0i": True, "1+0i": True}

    def test_harmonic_potential_flat(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json", connection={"g": (S**2 + SBAR**2).to_json_terms()}
        )
        out = tmp_path / "out"
        assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "curvature.json").read_text())
        assert report["growth"] == {"0+0i": False, "1+0i": False}
        assert all(row["eigenvalue"] == "0" for row in report["rows"])

    def test_quartic_potential_grows_away_from_origin(self, tmp_path):
        # laplacian of (s sbar)^2 vanishes at 0 but not at 1
        config = write_config(
            tmp_path / "cfg.json", connection={"g": ((S * SBAR) ** 2).to_json_terms()}
        )
        out = tmp_path / "out"
        assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "curvature.json").read_text())
        assert report["growth"] == {"0+0i": False, "1+0i": True}
        rows = report["rows"]
        assert all(row["abs_at_0+0i"] == 0.0 for row in rows)
        assert rows[0]["abs_at_1+0i"] == pytest.approx(8.0)

    def test_tiny_laplacian_still_grows(self, tmp_path):
        # laplacian 4e-13 is nonzero, so the spectrum grows at every point;
        # the float magnitudes (below 1e-11) stay as report columns
        config = write_config(tmp_path / "cfg.json", connection={"g": [[1, 1, "1/10000000000000", "0"]]})
        out = tmp_path / "out"
        assert main(["curvature", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "curvature.json").read_text())
        assert report["growth"] == {"0+0i": True, "1+0i": True}
        assert report["rows"][0]["abs_at_0+0i"] == pytest.approx(2e-13)

    def test_consistency_failure_writes_failing_row(self, tmp_path, monkeypatch):
        original = Connection.curvature_eigenvalue

        def fails_at_three(conn, j):
            if j == 3:
                raise CurvatureConsistencyError("injected failure at j=3")
            return original(conn, j)

        monkeypatch.setattr(Connection, "curvature_eigenvalue", fails_at_three)
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["curvature", "--config", str(config), "--out", str(out)]) == 1
        report = json.loads((out / "curvature.json").read_text())
        assert report["all_pass"] is False
        rows = report["rows"]
        assert [row["j"] for row in rows] == list(range(7))
        assert rows[3]["matches_closed_form"] is False
        assert rows[3]["error"] == "injected failure at j=3"
        assert all(row["matches_closed_form"] for row in rows if row["j"] != 3)
        with (out / "curvature.csv").open() as handle:
            csv_rows = list(csv.DictReader(handle))
        assert [row["matches_closed_form"] for row in csv_rows] == ["True"] * 3 + ["False"] + ["True"] * 3

    def test_connection_without_potential_is_config_error(self, tmp_path, capsys):
        # refused with the other config problems, before any suite starts
        for k in (SBAR.to_json_terms(), [[0, 0, "1", "1"]]):
            config = write_config(tmp_path / "cfg.json", connection={"k": k})
            for command in ("curvature", "all"):
                assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
                message = "config error: curvature report needs a connection given by a potential g\n"
                assert capsys.readouterr() == ("", message)
                assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify-identity", "splittings", "analyticity"])
    def test_other_suites_run_on_k_alone(self, tmp_path, command):
        config = write_config(tmp_path / "cfg.json", connection={"k": [[0, 0, "1", "1"]]}, m_decay=2, m_greedy=3)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert list(out.iterdir())

    def test_non_real_potential_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", connection={"g": S.to_json_terms()})
        assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


class TestAnalyticity:
    def test_certificates_and_decay(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", indices=[0], functions=[ONE.to_json_terms()])
        out = tmp_path / "out"
        assert main(["analyticity", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "analyticity.json").read_text())
        assert summary["all_pass"] is True
        with (out / "decay_j0_f0.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["m"] for row in rows] == [str(m) for m in range(8)]
        assert all(row["pass"] == "True" for row in rows)
        assert float(rows[0]["delta_scaled"]) == pytest.approx(1.0)

    def test_emitted_certificate_revalidates(self, tmp_path):
        # round trip: the JSON certificate re-validates through the audit path
        config = write_config(tmp_path / "cfg.json", indices=[1], functions=[S.to_json_terms()])
        out = tmp_path / "out"
        assert main(["analyticity", "--config", str(config), "--out", str(out)]) == 0
        data = json.loads((out / "certificate_j1_f0.json").read_text())
        assert data["audited"] is True
        conn = Connection.from_potential(S * SBAR)
        from hilbertfield import Direction

        h_polys = (S, conn.coefficient(1, Direction.D), conn.coefficient(1, Direction.DBAR))
        cert = AnalyticityCertificate.from_json(data, h_polys)
        assert audit_certificate(cert)

    def test_each_certificate_audited_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(certificate, audit=hilbertfield.analyticity.audit_certificate, **options):
            calls.append(certificate)
            return audit(certificate, **options)

        monkeypatch.setattr(hilbertfield.analyticity, "audit_certificate", counted)
        monkeypatch.setattr(hilbertfield.cli, "audit_certificate", counted)
        config = write_config(tmp_path / "cfg.json", indices=[0], functions=[ONE.to_json_terms()])
        assert main(["analyticity", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_failed_audit_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hilbertfield.cli, "audit_certificate", lambda certificate, **options: False)
        config = write_config(tmp_path / "cfg.json", indices=[0], functions=[ONE.to_json_terms()])
        out = tmp_path / "out"
        assert main(["analyticity", "--config", str(config), "--out", str(out)]) == 1
        summary = json.loads((out / "analyticity.json").read_text())
        assert summary["all_pass"] is False
        assert [cell["audited"] for cell in summary["cells"]] == [False]
        assert [cell["all_rows_pass"] for cell in summary["cells"]] == [False]
        assert json.loads((out / "certificate_j0_f0.json").read_text())["audited"] is False
        assert (out / "decay_j0_f0.csv").exists()

    def test_failed_decay_row_leaves_a_witness(self, tmp_path, monkeypatch):
        # U_m is pushed past (m+1) M (1/2)^m at m = 2 of the cell j = 1, f = s only; the
        # cell j = 1, f = 1 has the same M, so the fault goes where a row reads the run's
        # table of U_m, which scaled_level_bound fills once per (M, epsilon, m)
        original = hilbertfield.analyticity._level_bound
        target = (S, 2 * SBAR)  # (f, multiplier along d/ds) of that cell, k = sbar

        def patched(certificate, m, bounds):
            if certificate.h_polys[:2] == target and m == 2:
                return 3 * certificate.M
            return original(certificate, m, bounds)

        monkeypatch.setattr(hilbertfield.analyticity, "_level_bound", patched)
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["analyticity", "--config", str(config), "--out", str(out)]) == 1
        summary = json.loads((out / "analyticity.json").read_text())
        assert summary["all_pass"] is False
        failed = [cell for cell in summary["cells"] if "witness" in cell]
        assert [(cell["j"], cell["f_index"]) for cell in failed] == [(1, 1)]
        assert [cell["all_rows_pass"] for cell in summary["cells"]] == [True, True, True, False]
        M = Fraction(failed[0]["M"])
        with (out / "decay_j1_f1.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["pass"] for row in rows].count("False") == 1 and rows[2]["pass"] == "False"
        assert failed[0]["witness"] == {
            "m": 2,
            "delta_scaled": float(rows[2]["delta_scaled"]),
            "U_m": str(3 * M),
            "decay_bound": str(3 * M / 4),
        }

    def test_each_exact_bound_once_per_run(self, tmp_path, monkeypatch):
        # the default run: the three functions share each index's two multipliers, the
        # audit reads the estimate's derivative bounds, and the 117 decay rows of the
        # nine cells read U_m at 52 distinct (M, epsilon, m)
        radius_bounds, level_bounds = Counter(), Counter()
        radius_bound = hilbertfield.analyticity._radius_bound
        level_bound = hilbertfield.analyticity.scaled_level_bound

        def counted_radius(h, a, b, radius):
            radius_bounds[h, a, b, radius] += 1
            return radius_bound(h, a, b, radius)

        def counted_level(certificate, m):
            level_bounds[certificate.M, certificate.epsilon, m] += 1
            return level_bound(certificate, m)

        monkeypatch.setattr(hilbertfield.analyticity, "_radius_bound", counted_radius)
        monkeypatch.setattr(hilbertfield.analyticity, "scaled_level_bound", counted_level)
        assert main(["analyticity", "--out", str(tmp_path / "out")]) == 0
        assert len(radius_bounds) == sum(radius_bounds.values()) == 82
        assert len(level_bounds) == sum(level_bounds.values()) == 52

    def test_single_point_rectangle_warns_nothing(self, tmp_path, capsys):
        # on the point 0, r = 0 fails the range guard of every read below a built level: those
        # reads are inf, and no 0 * inf is formed on the way, so a run with warnings as errors is quiet
        rectangle = {"re_min": "0", "re_max": "0", "im_min": "0", "im_max": "0", "grid_n": 2}
        config = write_config(tmp_path / "cfg.json", rectangle=rectangle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyticity", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


# the report set of `all` on the default indices (0, 1, 4) and functions (1, s, s*sbar)
ALL_REPORTS = [
    "analyticity.json",
    "correspondences.csv",
    "curvature.csv",
    "curvature.json",
    "splittings.csv",
    "splittings.json",
    "verify_identity.csv",
    "verify_identity.json",
    *(f"certificate_j{j}_f{f}.json" for j in (0, 1, 4) for f in range(3)),
    *(f"decay_j{j}_f{f}.csv" for j in (0, 1, 4) for f in range(3)),
]


class TestAll:
    def test_runs_every_suite(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            indices=[0],
            functions=[ONE.to_json_terms()],
            m_identity=2,
            m_splittings=4,
            m_bijection=3,
            m_decay=4,
            m_greedy=6,
            curvature_j_max=4,
        )
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        for name in (
            "verify_identity.json",
            "splittings.csv",
            "curvature.csv",
            "analyticity.json",
        ):
            assert (out / name).exists(), name

    def test_prints_every_suite_line_in_suite_order(self, tmp_path, capsys):
        assert main(["all", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "verify-identity",
            "splittings",
            "curvature",
            *(f"analyticity j={j} f={f}" for j in (0, 1, 4) for f in ("1", "s", "s*sbar")),
        ]
        assert all(line.endswith("=True") for line in lines)

    def test_failed_check_still_writes_every_file(self, tmp_path, capsys):
        assert main(["all", "--corrupt-expansion", "--m-max", "2", "--grid", "9", "--out", str(tmp_path)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ALL_REPORTS)
        cells = json.loads((tmp_path / "verify_identity.json").read_text())["cells"]
        failed = [cell for cell in cells if not cell["ok"]]
        assert failed and all("witness" in cell for cell in failed)
        assert len(capsys.readouterr().out.splitlines()) == 12

    def test_late_overflow_writes_no_file_and_prints_no_line(self, tmp_path, capsys):
        # g = 10^50 s sbar: identity, splittings and curvature pass, and the
        # analyticity levels of j = 99 overflow; nothing is written before that
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "connection": {"g": [[1, 1, "1" + "0" * 50, "0"]]},
                    "indices": [0, 99],
                    "functions": [ONE.to_json_terms(), S.to_json_terms()],
                }
            )
        )
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--m-max", "1", "--grid", "9", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {SQUARED_NORM} does not fit a float\n"
        assert captured.out == ""
        assert not list(out.iterdir())




# JSON values as the reports hold them, and the edges of the encoding: non-ASCII
# and lone-surrogate strings, big ints, -0.0, +-inf, nan, tuples, empty containers
json_strings = st.one_of(st.text(), st.sampled_from(["", "\u00e9", "\u2028", "\U0001f600", "\ud800", '"\\\n\t']))
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([10**40, -(2**64), math.inf, -math.inf, math.nan, -0.0, 5e-324]),
    json_strings,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonWriter:
    """``json_text``, the report writer, writes what ``json.dumps(value, indent=2)`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    @example([math.inf, -math.inf, math.nan, -0.0, 10**40, True, None, (), [], {}, {"\u00e9": ("\ud800",)}])
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [[object()], {"a": {1, 2}}, {"a": b"bytes"}])
    def test_what_json_refuses_is_refused(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            json_text(value)

    @pytest.mark.parametrize("key", [None, True, 1, 0.5, (1, 2)])
    def test_keys_must_be_strings(self, key):
        with pytest.raises(TypeError):
            json_text({key: 0})

    def test_every_file_of_all_matches_json_dumps(self, tmp_path, monkeypatch):
        written = {}
        write = hilbertfield.cli._write_json

        def recorded(path, payload):
            written[path] = payload
            write(path, payload)

        monkeypatch.setattr(hilbertfield.cli, "_write_json", recorded)
        assert main(["all", "--out", str(tmp_path)]) == 0
        assert sorted(written) == sorted(tmp_path.glob("*.json"))
        for path, payload in written.items():
            text, expected = path.read_text(), json.dumps(payload, indent=2) + "\n"
            # assert a bool and the first differing offset, not the two texts:
            # pytest's diff of two whole reports takes minutes
            same = text == expected
            first = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), len(text))
            assert same, (path.name, first)


class _Label(str):
    pass


class _Count(enum.IntEnum):
    TWO = 2


class _Ratio(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        _Label("s"),
        _Count.TWO,
        _Ratio(0.5),
        _Ratio(math.inf),
        [_Label("a"), _Count.TWO, _Ratio(-0.0)],
        {"k": _Ratio(math.nan)},
    ],
)
def test_json_text_writes_scalar_subclasses_as_json_dumps(value):
    # scalar members are written by exact type; a subclass takes the isinstance fallback
    assert json_text(value) == json.dumps(value, indent=2)


class TestRunConfig:
    def test_default_is_valid(self):
        assert RunConfig().validate() == []

    def test_problems_are_collected(self):
        cfg = RunConfig(indices=(), m_decay=-1, eval_points=())
        problems = cfg.validate()
        assert len(problems) >= 3

    def test_greedy_cap_below_decay_cap_rejected(self):
        assert RunConfig(m_decay=10, m_greedy=8).validate()

    def test_default_and_readme_configs_load(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        assert RunConfig.from_json(json.loads(config.read_text())).validate() == []
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"### Configuration.*?```json\n(.*?)```", readme, re.S).group(1)
        assert RunConfig.from_json(json.loads(example)).validate() == []

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"curvature_j_maxx": 3}, "curvature_j_maxx"),
            ({"curvature_j_max": 2.9}, "curvature_j_max"),
            ({"indices": [0.5]}, "indices"),
            (
                {"rectangle": {"re_min": "-1", "re_max": "1", "im_min": "-1", "im_max": "1", "grid": 5}},
                "grid",
            ),
            ({"connection": {"g": (S * SBAR).to_json_terms(), "kk": []}}, "kk"),
            ({"functions": [[[1.9, 0, "1", "0"]]]}, "functions"),
            ({"connection": {"g": (S * SBAR).to_json_terms(), "k": [[0, True, "1", "0"]]}}, "connection"),
            ({"safety": "1"}, "safety"),
            ({"eval_points": [[True, 0]]}, "eval_points"),
            ({"eval_points": [[1, False]]}, "eval_points"),
            ({"eval_points": [5]}, "eval_points"),
            ({"safety": "2"}, "safety"),
            ({"eval_points": [[float("nan"), 0]]}, "eval_points"),
            ({"eval_points": [[0, float("inf")]]}, "eval_points"),
            ({"eval_points": [[10**400, 0]]}, "eval_points"),
            ({"eval_points": [[0.1234567, 0], [0.1234568, 0]]}, "eval_points"),
            ({"eval_points": [[1, 0], [1, 0]]}, "eval_points"),
            ({"curvature_j_max": 0}, "curvature_j_max"),
            ({"indices": [0, 0]}, "indices"),
            ({"functions": [[[0, 0, "1/0", "0"]]]}, "functions"),
            ({"connection": {"k": [[0, 0, "0/0", "0"]]}}, "connection"),
            ({"connection": {"g": [[1, 1, "1", "1/0"]]}}, "connection"),
            (
                {"rectangle": {"re_min": "-1", "re_max": "1/0", "im_min": "-1", "im_max": "1", "grid_n": 5}},
                "rectangle",
            ),
            ({"connection": "kg"}, "connection must be a JSON object"),
            ({"rectangle": "abc"}, "rectangle must be a JSON object"),
            ({"rectangle": [1, 2]}, "rectangle must be a JSON object"),
            ({"formats": ["json"]}, "formats"),
            ({"indices": [0, -1]}, "basis indices must be nonnegative"),
            ({"functions": []}, "function list must not be empty"),
            ({"indices": 4}, "indices: expected a JSON list, got 4"),
            ({"corrupt_expansion": "yes"}, "corrupt_expansion: expected a JSON boolean, got 'yes'"),
            ({"connection": {}}, "connection record needs at least one of 'k', 'g'"),
        ],
    )
    def test_silently_accepted_config_is_rejected(self, tmp_path, capsys, overrides, key):
        config = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, sign", [("re_min", "-"), ("im_max", "")])
    def test_rectangle_bound_beyond_float_range_is_rejected(self, tmp_path, capsys, name, sign):
        # the grid needs float bounds, so the bound is refused before any suite starts
        rectangle = {"re_min": "-1", "re_max": "1", "im_min": "-1", "im_max": "1", "grid_n": 5}
        rectangle[name] = sign + str(10**400)
        message = f"rectangle: {name} does not fit a float"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            RunConfig.from_json({"rectangle": rectangle})
        config = write_config(tmp_path / "cfg.json", rectangle=rectangle)
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: could not load config {config}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("low, high", [("re_min", "re_max"), ("im_min", "im_max")])
    def test_rectangle_wider_than_float_range_is_rejected(self, tmp_path, capsys, recwarn, low, high):
        # each bound fits a float, their difference does not: the grid would be NaN
        rectangle = {"re_min": "-1", "re_max": "1", "im_min": "-1", "im_max": "1", "grid_n": 33}
        rectangle[low], rectangle[high] = str(-(10**308)), str(10**308)
        message = f"rectangle: {high} - {low} does not fit a float"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig.from_json({"rectangle": rectangle})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rectangle": rectangle}))
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: could not load config {config}: {message}\n"
        assert captured.out == ""
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"functions": [[[0, 0, "1/0", "0"]]]}, "functions: zero denominator in '1/0'"),
            ({"connection": {"k": [[0, 0, "1", "0/0"]]}}, "connection: zero denominator in '0/0'"),
            (
                {"rectangle": {"re_min": "-1", "re_max": "1/0", "im_min": "-1", "im_max": "1", "grid_n": 5}},
                "rectangle: zero denominator in '1/0'",
            ),
            ({"rectangle": "abc"}, "rectangle must be a JSON object, got 'abc'"),
            ({"connection": "kg"}, "connection must be a JSON object, got 'kg'"),
            (
                {"rectangle": {"re_min": "-1", "re_max": "1", "im_min": "-1", "im_max": "1", "grid": 5}},
                "rectangle has unknown key(s): grid",
            ),
        ],
    )
    def test_config_error_names_the_key_once_and_the_bad_value(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: could not load config {config}: {message}\n"


SQUARED_NORM = "the squared fiber norm of a section on the grid"


class TestFloatOverflow:
    @pytest.mark.parametrize(
        "command, config, value",
        [
            (
                "analyticity",
                {"functions": [[[0, 0, "1" + "0" * 200, "0"]]], "indices": [0]},
                "the squared fiber norm of a section on the grid",
            ),
            (
                "analyticity",
                {"functions": [[[0, 0, str(10**400), "0"]]], "indices": [0]},
                "the coefficient of s^0 sbar^0",
            ),
            (
                "curvature",
                {"connection": {"g": [[1, 1, str(10**400), "0"]]}},
                "the eigenvalue for j=0 at 0+0i",
            ),
        ],
    )
    def test_value_beyond_float_range_is_config_error(
        self, tmp_path, capsys, recwarn, command, config, value
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {value} does not fit a float" in capsys.readouterr().err
        # the overflow is reported once, as the config error, and not also by numpy
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "terms, value",
        [
            # D f = 2 s fits and comes first in enumeration order; Dbar f = 10^200
            # has the infinite bound, so it is evaluated first, and overflows
            ([[2, 0, "1", "0"], [0, 1, str(10**200), "0"]], SQUARED_NORM),
            # both sections overflow and tie at an infinite bound: the one first
            # in enumeration order, D f with the coefficient 2 * 10^308, wins
            ([[2, 0, str(10**308), "0"], [0, 1, str(10**200), "0"]], "the coefficient of s^1 sbar^0"),
            # the same with the kinds swapped: D f = 10^200 overflows when squared
            ([[1, 0, str(10**200), "0"], [0, 2, str(10**308), "0"]], SQUARED_NORM),
        ],
    )
    def test_level_overflow_follows_enumeration_order(self, tmp_path, capsys, monkeypatch, terms, value):
        # flat connection on a square of side 2 * 10^-80: level 0 fits a float,
        # and the overflow is met at the first section level 1 evaluates
        evaluated = []
        section_sup = hilbertfield.analyticity._section_sup

        def recorded(section, tables):
            evaluated.append(section)
            return section_sup(section, tables)

        monkeypatch.setattr(hilbertfield.analyticity, "_section_sup", recorded)
        side = str(Fraction(1, 10**80))
        config = {
            "connection": {"k": []},
            "indices": [0],
            "functions": [terms],
            "rectangle": {
                "re_min": f"-{side}", "re_max": side, "im_min": f"-{side}", "im_max": side, "grid_n": 9
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["analyticity", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {value} does not fit a float\n"
        assert len(evaluated) == 2

    @pytest.mark.parametrize("indices", [[0, 99], [99, 0]])
    # --m-max 1 meets the overflow of j = 99 in a greedy level (m_greedy = 3),
    # the caps m_decay = m_greedy = 3 in an exhaustive one
    @pytest.mark.parametrize("caps, flags", [({}, ["--m-max", "1"]), ({"m_decay": 3, "m_greedy": 3}, [])])
    def test_overflowing_run_writes_no_file(self, tmp_path, capsys, indices, caps, flags):
        # k = 10^50 sbar: the levels of j = 0 fit a float and those of j = 99
        # overflow; the sweeps are built before any cell, so no cell is written
        # or printed, whichever index comes first
        config = {
            "connection": {"k": [[0, 1, "1" + "0" * 50, "0"]]},
            "indices": indices,
            "functions": [[[0, 0, "1", "0"]], [[1, 0, "1", "0"]]],
            **caps,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = ["analyticity", "--config", str(path), *flags, "--grid", "9", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {SQUARED_NORM} does not fit a float\n"
        assert "analyticity j=" not in captured.out
        assert not list(out.iterdir())

    def test_certificate_bound_beyond_float_range_writes_no_cell(self, tmp_path, capsys):
        # k = 10^300 and f = 10^-470: every level fits a float, and M fits for j = 0
        # but not for j = 10^10, so the cells of j = 0 are decided and not written;
        # the message names M and its cell
        config = {
            "connection": {"k": [[0, 0, str(10**300), "0"]]},
            "indices": [0, 10**10],
            "functions": [[[0, 0, f"1/{10**470}", "0"]]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["analyticity", "--config", str(path), "--m-max", "0", "--grid", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: the certificate bound M of j={10**10} f=0 does not fit a float\n"
        assert captured.out == ""
        assert not list(out.iterdir())

    def test_stopped_run_leaves_no_certificate(self, tmp_path):
        # the run stops in the level suprema, before any certificate is estimated
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"functions": [[[0, 0, "1" + "0" * 200, "0"]]], "indices": [0]}))
        out = tmp_path / "out"
        assert main(["analyticity", "--config", str(path), "--out", str(out)]) == 2
        assert not list(out.glob("certificate_*.json"))


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["splittings", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_grid(self, tmp_path):
        assert main(["splittings", "--grid", "1", "--out", str(tmp_path / "out")]) == 2

    def test_negative_m_max(self, tmp_path):
        assert main(["splittings", "--m-max", "-3", "--out", str(tmp_path / "out")]) == 2

    def test_report_format_flags_are_refused(self, tmp_path, capsys):
        # every suite writes its whole report set; no flag drops part of it
        for flag in ("--json", "--csv"):
            with pytest.raises(SystemExit) as excinfo:
                main(["splittings", "--m-max", "1", "--out", str(tmp_path / "out"), flag])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["FILE", "FILE/sub"])
    def test_unwritable_out_stops_before_the_suite(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "FILE").write_text("")
        # the suite must not start: its first call would fail on None
        monkeypatch.setattr(hilbertfield.cli, "all_splittings", None)
        assert main(["splittings", "--m-max", "1", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write reports to {tmp_path / out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["curvature", "all"])
    def test_single_eigenvalue_cannot_show_growth(self, tmp_path, capsys, command):
        assert main([command, "--m-max", "0", "--out", str(tmp_path / "out")]) == 2
        assert "curvature_j_max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
