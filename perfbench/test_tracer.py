"""Self-time accounting of the span recorder on a small real suite.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hilbertfield  # noqa: E402
from hilbertfield import cli, splittings, symbolic  # noqa: E402

import tracer as tracing  # noqa: E402


def _traced_suite(tmp_path):
    tracer = tracing.Tracer("test")
    originals = (cli.verify_expansion_identity, splittings.splitting_expansion, symbolic.WirtingerPolynomial.__mul__)
    installation = tracing.install(tracer)
    try:
        assert cli.verify_expansion_identity is not originals[0]
        assert hilbertfield.splitting_expansion is splittings.splitting_expansion is not originals[1]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = hilbertfield.cli.main(["verify-identity", "--m-max", "3", "--out", str(tmp_path)])
        symbolic.S * symbolic.SBAR  # a top-level call outside any span
        suite_s = time.perf_counter() - start
    finally:
        installation.uninstall()
    assert (cli.verify_expansion_identity, splittings.splitting_expansion, symbolic.WirtingerPolynomial.__mul__) == originals
    assert status == 0
    return tracer, suite_s


def test_self_times_plus_untraced_gap_sum_to_traced_suite(tmp_path):
    tracer, suite_s = _traced_suite(tmp_path)
    self_s = tracer.self_seconds()
    gap_s = suite_s - tracer.covered_s
    assert set(self_s) == set(tracing.LAYERS)
    assert all(value >= 0 for value in self_s.values())
    assert 0 <= gap_s < 0.05 * suite_s
    assert abs(sum(self_s.values()) + gap_s - suite_s) < 1e-6 * suite_s
    assert self_s["splittings"] > 0 and self_s["symbolic"] > 0 and self_s["cli"] > 0


def test_spans_nest_inside_their_parents(tmp_path):
    tracer, _ = _traced_suite(tmp_path)
    by_id = {span[0]: span for span in tracer.spans}
    assert tracer.totals["cli.main"][0] == 1
    assert tracer.totals["splittings.verify_expansion_identity"][0] == 15 * 9
    for _, parent, _, start, end in tracer.spans:
        assert start <= end
        if parent:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]


def test_poly_mul_counts_coefficient_products():
    counters = {"poly_mul_term_pairs": 0, "complex_coeff_muls": 0}
    real = symbolic.WirtingerPolynomial({(0, 0): 1, (1, 0): 2})
    mixed = symbolic.WirtingerPolynomial({(0, 1): symbolic.GaussianRational(1, 1), (1, 1): 3, (2, 0): 1})
    tracing._poly_mul_counts(counters, (real, mixed))
    assert counters == {"poly_mul_term_pairs": 6, "complex_coeff_muls": 2}
    tracing._poly_mul_counts(counters, (real, 3))
    assert counters == {"poly_mul_term_pairs": 8, "complex_coeff_muls": 2}
