"""Benchmark for hilbertfield: time to verdict of four suites, and per-layer costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity --seed 1 --seconds 55 --trace 0

Load is a closed loop with one client: one workload process at a time,
each repetition a fresh process (``child.py``), because every command-line
user pays for import and for the cold ``all_splittings`` cache.  A run
repeats the suite until the next repetition would end after ``--seconds``,
with at least three repetitions, and reports medians.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:

* ``suite_s``: time to verdict, from calling the suite until it returns
  with its reports written, after import, scaled to a fixed host speed:
  a fixed reference computation (``calibrate.py``) is timed before and
  after every repetition, and the repetition's time is divided by the
  square root of the mean of the two over ``calibrate.NOMINAL_S``, which
  cancels most of the drift of a shared host's speed over minutes;
* ``setup_s``: process spawn until ready: interpreter start, ``import
  hilbertfield`` and the inputs or config loaded, scaled in the same way
  by a fresh interpreter that imports numpy, timed just before each
  workload process;
* ``peak_rss_mb``: peak resident set of the workload process at its verdict.

With ``--trace 1`` it runs a few untraced repetitions, then one traced
repetition, and prints the per-layer metrics (see ``tracer.py``), the
isolated layer timings and ``trace.overhead_ratio``.

Every repetition passes the correctness gate (``gate.py``) or counts all of
its checks as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports,
spans, logs and a result file with an environment record are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import gate
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
SETUP_SAMPLES = 9
# share of --seconds spent on untraced repetitions in a traced run
TRACE_UNTRACED_SHARE = 0.3
# a run must end well within three minutes
RUN_DEADLINE_S = 165.0
PYTHONHASHSEED = "0"


@dataclass
class Rep:
    """One workload process: its timings and its verdict."""

    setup_s: float | None = None
    suite_s: float | None = None
    rss_mb: float | None = None
    wall_s: float = 0.0
    # reference time around the repetition over its nominal time: above 1 on a slow host
    host_factor: float | None = None
    # import reference time before the process over its nominal time
    import_factor: float | None = None
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None

    @property
    def scaled_suite_s(self) -> float:
        """Suite time at the nominal host speed (see ``calibrate.py``)."""
        return self.suite_s / self.host_factor**calibrate.SENSITIVITY

    @property
    def scaled_setup_s(self) -> float:
        """Set-up time at the nominal host speed (see ``calibrate.py``)."""
        return self.setup_s / self.import_factor


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, out: Path, deadline: float):
        self.root, self.workload, self.seed, self.out, self.deadline = root, workload, seed, out, deadline
        self.pinned = json.loads((HERE / "pinned.json").read_text()).get(workload, [])
        self.reference_s: float | None = None

    def spawn(self, mode: str) -> tuple[Rep, dict | None]:
        env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        command = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--out", str(self.out), "--mode", mode,
        ]  # fmt: skip
        rep = Rep()
        rep.import_factor = calibrate.time_import_reference(env, self.root) / calibrate.NOMINAL_IMPORT_S
        with (self.out / "child.log").open("ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log, env=env, cwd=self.root)
            try:
                stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, _ = proc.communicate()
                rep.problems.append(f"{mode} process killed at the run deadline")
            rep.wall_s = time.monotonic() - start
        messages = {}
        for line in stdout.decode().splitlines():
            if line.startswith("{"):
                message = json.loads(line)
                messages[message.get("event")] = message
        if "ready" in messages:
            rep.setup_s = messages["ready"]["t"] - start
            if not Path(messages["ready"]["hilbertfield"]).resolve().is_relative_to(self.root / "src"):
                rep.problems.append(f"imported hilbertfield from {messages['ready']['hilbertfield']}")
        if proc.returncode != 0:
            rep.problems.append(f"{mode} process exited with status {proc.returncode}")
        return rep, messages.get("done")

    def run_rep(self, mode: str) -> Rep:
        # stale reports from an earlier repetition must not pass the gate
        shutil.rmtree(self.out / "reports", ignore_errors=True)
        before = self.reference_s if self.reference_s is not None else calibrate.time_reference()
        rep, done = self.spawn(mode)
        self.reference_s = calibrate.time_reference()
        rep.host_factor = (before + self.reference_s) / 2 / calibrate.NOMINAL_S
        if done is None:
            rep.problems.append("no verdict")
            rep.attempted = self.expected_checks()
            return rep
        rep.suite_s, rep.rss_mb, rep.layers = done["suite_s"], done["rss_mb"], done.get("layers")
        if done["status"] != 0:
            rep.problems.append(f"suite status {done['status']}")
        attempted, problems = self.check(done["answers"])
        rep.attempted = attempted
        rep.problems += problems
        return rep

    def check(self, answers: dict) -> tuple[int, list[str]]:
        reports = self.out / "reports"
        if self.workload == "recursion":
            attempted, problems = gate.check_recursion(answers.get("recursion", []), len(workloads.recursion_cells()))
        else:
            _, config = workloads.CLI_SUITES[self.workload]
            n_functions = len(config["functions"])
            if self.workload == "identity":
                attempted, problems = gate.check_identity_report(
                    reports, config["m_identity"], config["indices"], n_functions
                )
            elif self.workload == "analyticity":
                attempted, problems = gate.check_analyticity_report(
                    reports, config["indices"], n_functions, config["m_greedy"]
                )
            else:
                attempted, problems = gate.check_splittings_report(
                    reports, config["m_splittings"], config["m_bijection"]
                )
        pinned_attempted, pinned_problems = gate.check_pinned(answers.get("pinned", []), self.pinned)
        return attempted + pinned_attempted, problems + pinned_problems

    def expected_checks(self) -> int:
        # the gate sizes its checks before it reads anything, so empty answers give the count
        return self.check({})[0]

    def repeat(self, seconds: float, min_reps: int) -> list[Rep]:
        """Fresh untraced repetitions until the next would end after ``seconds``."""
        reps: list[Rep] = []
        rounds: list[float] = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            reps.append(self.run_rep("run"))
            if reps[-1].suite_s is None:
                break
            now = time.monotonic()
            rounds.append(now - round_start)
            typical = statistics.median(rounds)
            if now + typical > self.deadline or (len(reps) >= min_reps and now - start + typical > seconds):
                break
        return reps


def _git(root: Path, *args: str) -> str | None:
    try:
        result = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    """What a result must match to be compared like for like."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    in_repo = _git(root, "rev-parse", "--show-toplevel")
    is_checkout = in_repo is not None and Path(in_repo).resolve() == root
    status = _git(root, "status", "--porcelain") if is_checkout else None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": _git(root, "rev-parse", "HEAD") if is_checkout else None,
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
        "pythonhashseed": PYTHONHASHSEED,
    }


def _report_bytes(reports: Path) -> int:
    return sum(path.stat().st_size for path in reports.rglob("*") if path.is_file()) if reports.is_dir() else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="hilbertfield benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "hilbertfield" / "__init__.py").is_file():
        print(f"no hilbertfield source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.workload in workloads.CLI_SUITES:
        (out / "config.json").write_text(json.dumps(workloads.CLI_SUITES[args.workload][1]))
    runner = Runner(root, args.workload, args.seed, out, time.monotonic() + RUN_DEADLINE_S)

    if args.trace:
        untraced = runner.repeat(args.seconds * TRACE_UNTRACED_SHARE, min_reps=1)
        traced = runner.run_rep("trace")
        reps = untraced + [traced]
        timed = [rep.scaled_suite_s for rep in untraced if rep.suite_s is not None]
        if traced.layers is None or not timed:
            print("the traced or untraced repetitions produced no timing; see child.log", file=sys.stderr)
            return 1
        metrics = dict(traced.layers)
        metrics["trace.overhead_ratio"] = traced.scaled_suite_s / statistics.median(timed)
        metrics["cli.report_bytes"] = _report_bytes(out / "reports")
    else:
        reps = runner.repeat(args.seconds, MIN_REPS)
        setups = [rep.scaled_setup_s for rep in reps if rep.setup_s is not None]
        while reps[-1].suite_s is not None and len(setups) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
            probe, _ = runner.spawn("setup")
            if probe.setup_s is None or probe.problems:
                break
            setups.append(probe.scaled_setup_s)
        timed = [rep for rep in reps if rep.suite_s is not None]
        if not timed or not setups:
            print("no repetition produced a timing; see child.log", file=sys.stderr)
            return 1
        metrics = {
            "suite_s": statistics.median(rep.scaled_suite_s for rep in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep.rss_mb for rep in timed),
        }
        print(
            f"unscaled suite_s median {statistics.median(rep.suite_s for rep in timed):.6g} s, "
            f"host factor median {statistics.median(rep.host_factor for rep in timed):.4g}, "
            f"import factor median {statistics.median(rep.import_factor for rep in timed):.4g}"
        )
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.attempted for rep in reps if rep.problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment(root, args.seed)
    details = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "nominal_reference_s": calibrate.NOMINAL_S,
        "host_factor_exponent": calibrate.SENSITIVITY,
        "nominal_import_reference_s": calibrate.NOMINAL_IMPORT_S,
        "reps": [vars(rep) | {"layers": None} for rep in reps],
        "result": result,
    }
    (out / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    for rep in reps:
        for problem in rep.problems[:5]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: {len(reps)} repetitions, {attempted} checks, {failed} failed")
    for name in units:
        print(f"  {name}: {metrics[name]:.6g} {units[name]}")

    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
