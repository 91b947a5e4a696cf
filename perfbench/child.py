"""One workload process: import hilbertfield, run one suite, report as JSON lines.

Run by ``run.py`` as a fresh process per repetition, because every user of
the command line pays for import and for the cold ``all_splittings``
cache.  It writes two lines to standard output:

* ``{"event": "ready", "t": ...}`` once imports are done and the inputs
  are built, stamped with ``time.monotonic()`` (the same clock as
  ``run.py``'s, so ``run.py`` can measure set-up from spawn);
* ``{"event": "done", ...}`` with the suite's status, its time to verdict,
  the process's peak resident set at the verdict and the answers the
  correctness gate compares.

Modes: ``setup`` stops after the ready line, ``run`` times the suite,
``trace`` runs it under the span recorder and adds the per-layer metrics
and the isolated layer timings.  Anything the suite prints goes to
standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import timeit
from fractions import Fraction
from pathlib import Path

import hilbertfield
from hilbertfield import cli
from hilbertfield.field import Connection, FieldSection
from hilbertfield.grid import CompactRectangle, evaluate_on_grid
from hilbertfield.splittings import all_splittings, splitting_expansion, splitting_term
from hilbertfield.symbolic import SBAR, Direction, GaussianRational, S, WirtingerPolynomial

import tracer as tracing
import workloads

_DIRECTIONS = {"d": Direction.D, "dbar": Direction.DBAR}


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _poly(terms) -> WirtingerPolynomial:
    return WirtingerPolynomial.from_json_terms(terms)


def _dirs(names) -> tuple[Direction, ...]:
    return tuple(_DIRECTIONS[name] for name in names)


class Workload:
    """A suite ready to run: ``suite()`` returns (status, answers for the gate)."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name = name
        if name == "recursion":
            data = workloads.recursion_data(seed)
            self.connection = Connection(k=_poly(data["k"]))
            self.functions = [_poly(terms) for terms in data["functions"]]
            self.cells = [(_dirs(names), j, f) for names, j, f in workloads.recursion_cells()]
        else:
            command, _ = workloads.CLI_SUITES[name]
            self.argv = [command, "--config", str(out / "config.json"), "--out", str(out / "reports")]
            config = cli.RunConfig.from_json(json.loads((out / "config.json").read_text()))
            self.connection, self.functions = config.connection, list(config.functions)

    def suite(self):
        if self.name == "recursion":
            check = hilbertfield.splittings.check_splitting_recursion
            results = [
                check(workloads.RECURSION_M, dirs, self.connection, j, self.functions[f])
                for dirs, j, f in self.cells
            ]
            return (0 if all(results) else 1), {"recursion": results}
        with contextlib.redirect_stdout(sys.stderr):
            # looked up at call time, so that a traced run calls the wrapper
            return hilbertfield.cli.main(self.argv), {}


def pinned_answers(cells: list[dict]) -> list[dict]:
    """Exact expansion and direct-route answers for the gate's pinned cells."""
    out = []
    for cell in cells:
        conn, dirs, f = Connection(k=_poly(cell["k"])), _dirs(cell["dirs"].split()), _poly(cell["f"])
        out.append(
            {
                "expansion": splitting_expansion(cell["m"], dirs, conn, cell["j"], f).to_json_terms(),
                "iterated": conn.iterated(f * FieldSection.basis(cell["j"]), dirs).to_json(),
            }
        )
    return out


# fixed cell sample for the nonzero-term ratio: level 6, j = 1, every function
_SAMPLE_DIRS = ("d d d d d d", "dbar dbar dbar dbar dbar dbar", "d dbar d dbar d dbar", "d d d dbar dbar dbar")


def nonzero_terms(workload: Workload) -> tuple[int, int]:
    """Nonzero splitting terms and terms evaluated on the fixed sample."""
    nonzero = total = 0
    for names in _SAMPLE_DIRS:
        dirs = _dirs(names.split())
        for f in workload.functions:
            for spl in all_splittings(len(dirs)):
                total += 1
                nonzero += not splitting_term(spl, dirs, workload.connection, 1, f).is_zero
    return nonzero, total


def _median_seconds(call, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def isolated_timings() -> dict[str, float]:
    """Layers timed on their own, on fixed inputs (the ROADMAP's baseline cell)."""
    out = {}
    real = GaussianRational(Fraction(3, 7)), GaussianRational(Fraction(-5, 11))
    complex_ = GaussianRational(Fraction(3, 7), Fraction(2, 5)), GaussianRational(Fraction(-5, 11), 1)
    for label, (a, b) in (("real", real), ("complex", complex_)):
        runs = timeit.repeat("a * b", globals={"a": a, "b": b}, number=20000, repeat=7)
        out[f"symbolic.gauss_mul_ns.{label}"] = statistics.median(runs) / 20000 * 1e9
    conn, j, f = Connection.from_potential(S * SBAR), 4, S * SBAR
    all_splittings(8)  # enumeration is not part of the expansion timing
    for m, repeats in ((6, 7), (7, 5), (8, 3)):
        dirs = tuple(Direction.D if i % 2 == 0 else Direction.DBAR for i in range(m))
        seconds = _median_seconds(lambda: splitting_expansion(m, dirs, conn, j, f), repeats)
        out[f"splittings.expansion_ms.m{m}"] = seconds * 1e3
    section = f * FieldSection.basis(j)
    dirs = tuple(Direction.D if i % 2 == 0 else Direction.DBAR for i in range(8))
    out["field.iterated_ms.m8"] = _median_seconds(lambda: conn.iterated(section, dirs), 51) * 1e3
    poly = (WirtingerPolynomial.one() + S + SBAR) ** 4
    for n in (33, 64):
        points = CompactRectangle(-1, 1, -1, 1, n).grid_points()
        out[f"grid.evaluate_us.n{n}"] = _median_seconds(lambda: evaluate_on_grid(poly, points), 101) * 1e6
    return out


def _percentile(values: list[float], q: float) -> float:
    """Value at quantile ``q`` (0..1) by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def traced_metrics(tracer: tracing.Tracer, suite_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced suite run."""
    totals, counters = tracer.totals, tracer.counters

    def calls(name):
        return totals[name][0] if name in totals else 0

    def seconds(name):
        return totals[name][1] if name in totals else 0.0

    def self_seconds(name):
        return totals[name][2] if name in totals else 0.0

    mul = "symbolic.WirtingerPolynomial.__mul__"
    pairs = counters["poly_mul_term_pairs"]
    cells_ms = [d * 1e3 for d in tracer.durations("splittings.verify_expansion_identity")]
    layer_self = tracer.self_seconds()
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in tracing.LAYERS}
    metrics.update(
        {
            "symbolic.poly_mul_calls": calls(mul),
            "symbolic.poly_mul_s": seconds(mul),
            "symbolic.poly_mul_term_pairs": pairs,
            "symbolic.poly_mul_ns_per_term_pair": seconds(mul) / pairs * 1e9 if pairs else 0.0,
            "symbolic.complex_coeff_muls": counters["complex_coeff_muls"],
            "symbolic.complex_coeff_mul_share": counters["complex_coeff_muls"] / pairs if pairs else 0.0,
            "symbolic.poly_add_calls": calls("symbolic.WirtingerPolynomial.__add__"),
            "symbolic.poly_add_s": seconds("symbolic.WirtingerPolynomial.__add__"),
            "symbolic.derivative_calls": calls("symbolic.WirtingerPolynomial.derivative"),
            "symbolic.derivative_s": seconds("symbolic.WirtingerPolynomial.derivative"),
            "symbolic.evaluate_calls": calls("symbolic.WirtingerPolynomial.evaluate"),
            "symbolic.evaluate_s": seconds("symbolic.WirtingerPolynomial.evaluate"),
            "splittings.expansion_calls": calls("splittings.splitting_expansion"),
            "splittings.expansion_s": seconds("splittings.splitting_expansion"),
            "splittings.expansion_self_s": self_seconds("splittings.splitting_expansion"),
            "splittings.recursion_calls": calls("splittings.check_splitting_recursion"),
            "splittings.recursion_self_s": self_seconds("splittings.check_splitting_recursion"),
            "splittings.verify_cell_ms.p50": _percentile(cells_ms, 0.50),
            "splittings.verify_cell_ms.p99": _percentile(cells_ms, 0.99),
            "splittings.enumerate_s": tracer.outermost_seconds(
                frozenset({"splittings.all_splittings", "splittings.enumerate_splittings"})
            ),
            "splittings.splittings_built": calls("splittings.Splitting.__post_init__"),
            "splittings.correspondence_s": seconds("splittings.type1_bijection")
            + seconds("splittings.type2_correspondence"),
            "field.iterated_calls": calls("field.Connection.iterated"),
            "field.iterated_s": seconds("field.Connection.iterated"),
            "field.covariant_derivative_calls": calls("field.Connection.covariant_derivative"),
            "field.covariant_derivative_s": seconds("field.Connection.covariant_derivative"),
            "field.metric_pair_calls": calls("field.metric_pair"),
            "field.metric_pair_s": seconds("field.metric_pair"),
            "grid.evaluate_calls": calls("grid.evaluate_on_grid"),
            "grid.evaluate_s": seconds("grid.evaluate_on_grid"),
            "grid.points_evaluated": counters["grid_points_evaluated"],
            "analyticity.certificate_search_s": seconds("analyticity.estimate_certificate")
            - tracer.child_seconds("analyticity.audit_certificate", "analyticity.estimate_certificate"),
            "analyticity.audit_s": seconds("analyticity.audit_certificate"),
            "analyticity.audit_calls": calls("analyticity.audit_certificate"),
            "analyticity.level_sups_s": seconds("analyticity.covariant_level_sups"),
            "analyticity.bound_chain_s": seconds("analyticity.verify_bound_chain"),
            "trace.suite_s": suite_s,
            "trace.gap_s": suite_s - tracer.covered_s,
            "trace.spans": len(tracer.spans),
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args()
    workload = Workload(args.workload, args.seed, args.out)
    _emit("ready", t=time.monotonic(), hilbertfield=hilbertfield.__file__)
    if args.mode == "setup":
        return 0
    tracer = installation = None
    if args.mode == "trace":
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        installation = tracing.install(tracer)
    start = time.perf_counter()
    status, answers = workload.suite()
    suite_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {}
    if tracer is not None:
        installation.uninstall()
        (args.out / "spans.json").write_text(json.dumps(tracer.to_json()))
        metrics = traced_metrics(tracer, suite_s)
        nonzero, sampled = nonzero_terms(workload) if args.workload in ("identity", "recursion") else (0, 0)
        metrics.update(
            {
                "splittings.nonzero_terms": nonzero,
                "splittings.sampled_terms": sampled,
                "splittings.nonzero_term_ratio": nonzero / sampled if sampled else 0.0,
            }
        )
        metrics.update(isolated_timings())
        extra["layers"] = metrics
    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text()).get(args.workload, [])
    answers["pinned"] = pinned_answers(pinned)
    _emit("done", status=status, suite_s=suite_s, rss_mb=rss_mb, answers=answers, **extra)
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
