"""Write ``pinned.json``: exact answers the correctness gate compares against.

For a fixed set of cells it records the JSON terms of
``splitting_expansion`` and of ``Connection.iterated``.  Regenerate only
from a commit whose expansion identity and recursion checks pass:

    PYTHONPATH=src python3 perfbench/pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

import child
import workloads

SBAR = [[0, 1, "1", "0"]]  # k = d(s*sbar)/ds for the CLI model

_IDENTITY_CELLS = [
    (5, "d dbar d dbar d", 4, workloads.S_SBAR),
    (4, "dbar dbar dbar dbar", 1, workloads.S),
    (6, "d d dbar d dbar dbar", 0, workloads.ONE),
    (3, "d d d", 4, workloads.S_SBAR),
]


def _recursion_cells() -> list[tuple]:
    data = workloads.recursion_data(0)
    f = data["functions"]
    return [
        (6, "d dbar d dbar d dbar", 1, f[2]),
        (6, "dbar dbar d d dbar d", 4, f[1]),
        (6, "d d d d d dbar", 0, f[0]),
        (5, "dbar d dbar d dbar", 1, f[2]),
    ], data["k"]


def main() -> None:
    recursion_cells, recursion_k = _recursion_cells()
    pinned = {}
    for name, k, cells in (("identity", SBAR, _IDENTITY_CELLS), ("recursion", recursion_k, recursion_cells)):
        inputs = [{"k": k, "m": m, "dirs": dirs, "j": j, "f": f} for m, dirs, j, f in cells]
        pinned[name] = [{**cell, **answer} for cell, answer in zip(inputs, child.pinned_answers(inputs))]
    path = Path(__file__).parent / "pinned.json"
    # one cell per line keeps diffs of this file readable
    blocks = [
        f' "{name}": [\n' + ",\n".join(f"  {json.dumps(cell)}" for cell in cells) + "\n ]"
        for name, cells in pinned.items()
    ]
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
