"""Exit codes, report files and determinism of the command-line suites."""

import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

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
    ONE,
    S,
    SBAR,
)
from hilbertfield.cli import RunConfig, main
from hilbertfield.field import CurvatureConsistencyError

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

    def test_one_sweep_per_pair_and_one_covariant_derivative_per_cell(self, tmp_path, monkeypatch):
        calls, sweeps = [], []
        derivative, sweep = Connection.covariant_derivative, hilbertfield.cli.IdentitySweep
        monkeypatch.setattr(
            Connection, "covariant_derivative", lambda *args: calls.append(args[2]) or derivative(*args)
        )
        monkeypatch.setattr(
            hilbertfield.cli, "IdentitySweep", lambda *args: sweeps.append(args) or sweep(*args)
        )
        config = write_config(tmp_path / "cfg.json")
        assert main(["verify-identity", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        # two indices times two functions; every cell of order m >= 1 derives its prefix's section once
        assert len(sweeps) == 2 * 2
        assert len(calls) == (2 + 4 + 8) * 2 * 2

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

    def test_json_only(self, tmp_path):
        out = tmp_path / "out"
        assert main(["splittings", "--out", str(out), "--m-max", "3", "--json"]) == 0
        assert (out / "splittings.json").exists()
        assert not (out / "splittings.csv").exists()

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

    def test_connection_without_potential_is_config_error(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", connection={"k": SBAR.to_json_terms()})
        assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

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

        def counted(certificate, audit=hilbertfield.analyticity.audit_certificate):
            calls.append(certificate)
            return audit(certificate)

        monkeypatch.setattr(hilbertfield.analyticity, "audit_certificate", counted)
        monkeypatch.setattr(hilbertfield.cli, "audit_certificate", counted)
        config = write_config(tmp_path / "cfg.json", indices=[0], functions=[ONE.to_json_terms()])
        assert main(["analyticity", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_failed_audit_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hilbertfield.cli, "audit_certificate", lambda certificate: False)
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
        # U_m is pushed past (m+1) M (1/2)^m at m = 2 of the cell j = 1, f = s only
        original = hilbertfield.analyticity.scaled_level_bound
        target = (S, 2 * SBAR)  # (f, multiplier along d/ds) of that cell, k = sbar

        def patched(certificate, m):
            if certificate.h_polys[:2] == target and m == 2:
                return 3 * certificate.M
            return original(certificate, m)

        monkeypatch.setattr(hilbertfield.analyticity, "scaled_level_bound", patched)
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


class TestRunConfig:
    def test_default_is_valid(self):
        assert RunConfig().validate() == []

    def test_problems_are_collected(self):
        cfg = RunConfig(indices=(), m_decay=-1, formats=("yaml",))
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
        ],
    )
    def test_silently_accepted_config_is_rejected(self, tmp_path, capsys, overrides, key):
        config = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["curvature", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_stopped_run_leaves_no_certificate(self, tmp_path):
        # the cell stops in its level suprema, after its certificate was estimated and audited
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
