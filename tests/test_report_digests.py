"""The exact report files of four fixed runs against committed sha256 digests.

Each run goes through ``cli.main`` in process; its exit status, its stdout
and the digest of every exact report file it writes must match
``report_digests.json``.  A changed file is named, so a refactor that
should leave the reports alone shows the first file it changed.  Files
with float columns are not digested; the digest file says why.

Rewrite the digest file from the current code with::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import fnmatch
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hilbertfield.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")

COMPLEX_K = {"k": [[0, 0, "1", "1"], [1, 2, "1/2", "-1/3"]]}

# name, argv without --out and --config, config (None: the default)
RUNS = (
    ("default-all", ["all"], None),
    ("corrupt-identity", ["verify-identity", "--m-max", "3", "--corrupt-expansion"], None),
    ("complex-k-identity", ["verify-identity", "--m-max", "6"], {"connection": COMPLEX_K, "indices": [0, 2, 7]}),
    (
        "complex-k-analyticity",
        ["analyticity", "--m-max", "6", "--grid", "9"],
        {"connection": COMPLEX_K, "indices": [0, 2, 7]},
    ),
)

EXACT_FILES = ("verify_identity.*", "splittings.*", "correspondences.csv", "certificate_*.json", "analyticity.json")

ABOUT = (
    "sha256 of the exact report files of each run, with its exit status and stdout. "
    "decay_*.csv and curvature.* are left out: their float columns are printed from numpy "
    "grid values, whose last bits depend on the numpy build and the CPU."
)


def run(argv, config, workdir: Path) -> dict:
    """One run in process: its exit status, stdout lines and exact-file digests."""
    out = workdir / "out"
    extra = ["--out", str(out)]
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        extra += ["--config", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main([*argv, *extra])
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if any(fnmatch.fnmatch(path.name, pattern) for pattern in EXACT_FILES)
    }
    return {"exit": status, "stdout": stdout.getvalue().splitlines(), "files": files}


@pytest.mark.parametrize("name, argv, config", RUNS, ids=[name for name, _, _ in RUNS])
def test_exact_reports_match_their_digests(tmp_path, name, argv, config):
    expected = json.loads(DIGESTS.read_text())["runs"][name]
    got = run(argv, config, tmp_path)
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]
    assert sorted(got["files"]) == sorted(expected["files"])
    changed = [file for file in sorted(expected["files"]) if got["files"][file] != expected["files"][file]]
    assert not changed, f"{name}: {changed[0]} differs from its digest"


if __name__ == "__main__":
    import tempfile

    runs = {}
    for name, argv, config in RUNS:
        with tempfile.TemporaryDirectory() as workdir:
            runs[name] = run(argv, config, Path(workdir))
        print(f"{name}: exit {runs[name]['exit']}, {len(runs[name]['files'])} files", file=sys.stderr)
    DIGESTS.write_text(json.dumps({"about": ABOUT, "runs": runs}, indent=2) + "\n")
