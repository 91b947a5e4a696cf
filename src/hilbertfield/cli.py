"""Batch verification suites with JSON/CSV reports and meaningful exit codes.

Subcommands: ``verify-identity``, ``splittings``, ``curvature``,
``analyticity``, ``all``.  Exit status 0 means every check in the invoked
suite passed, 1 means a verification failed, 2 means the invocation or
configuration was invalid.  Reports are deterministic given a
configuration: rows are emitted in a fixed sweep order.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

from .analyticity import (
    audit_certificate,
    covariant_level_sups,
    decay_row,
    decay_witness,
    estimate_certificate,
)
from .field import Connection, CurvatureConsistencyError
from .grid import CompactRectangle
from .splittings import (
    CorrespondenceError,
    IdentitySweep,
    all_splittings,
    classify,
    direction_sequences,
    identity_witness,
    type1_bijection,
    type2_correspondence,
    verify_expansion_identity,
)
from .symbolic import (
    Direction,
    GaussianRational,
    WirtingerPolynomial,
    json_int,
    json_record,
    laplacian,
    ONE,
    S,
    SBAR,
)

__all__ = ["RunConfig", "ConfigError", "main", "entrypoint"]


class ConfigError(ValueError):
    """The run configuration is unusable (exit status 2)."""


_DEFAULT_RECTANGLE = CompactRectangle(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
_DEFAULT_FUNCTIONS = (ONE, S, S * SBAR)


@dataclass
class RunConfig:
    """Everything a subcommand needs: model data, sweep caps, output options."""

    connection: Connection = field(
        default_factory=lambda: Connection.from_potential(S * SBAR)
    )
    indices: tuple[int, ...] = (0, 1, 4)
    functions: tuple[WirtingerPolynomial, ...] = _DEFAULT_FUNCTIONS
    rectangle: CompactRectangle = _DEFAULT_RECTANGLE
    m_identity: int = 6
    m_splittings: int = 8
    m_bijection: int = 6
    m_decay: int = 10
    m_greedy: int = 12
    curvature_j_max: int = 9
    eval_points: tuple[complex, ...] = (0j, 1 + 0j)
    out_dir: Path = Path("reports")
    formats: tuple[str, ...] = ("json", "csv")
    corrupt_expansion: bool = False

    def validate(self) -> list[str]:
        problems = []
        if not self.indices:
            problems.append("index list must not be empty")
        elif any(j < 0 for j in self.indices):
            problems.append("basis indices must be nonnegative")
        elif len(set(self.indices)) < len(self.indices):
            problems.append("indices must be distinct")
        if not self.functions:
            problems.append("function list must not be empty")
        for name, kind in _FIELD_TYPES.items():
            if kind is int and getattr(self, name) < 0:
                problems.append(f"{name} must be nonnegative")
        if self.curvature_j_max < 1:
            problems.append("curvature_j_max must be at least 1: growth compares consecutive eigenvalues")
        if self.m_greedy < self.m_decay:
            problems.append("m_greedy must be at least m_decay")
        if not self.formats or any(fmt not in ("json", "csv") for fmt in self.formats):
            problems.append("formats must be a nonempty subset of {json, csv}")
        if not self.eval_points:
            problems.append("eval_points must not be empty")
        labels = [_format_point(pt) for pt in self.eval_points]
        if len(set(labels)) < len(labels):
            problems.append(f"eval_points must have distinct labels, got {', '.join(labels)}")
        return problems

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """Decode a JSON object whose keys are field names; any other key is an error."""
        data = json_record(data, _FIELD_TYPES, "config", ConfigError)
        return cls(**{name: _decode(name, _FIELD_TYPES[name], value) for name, value in data.items()})


_FIELD_TYPES = get_type_hints(RunConfig)


def _complex(pair) -> complex:
    re, im = pair
    # type(), not isinstance(): a JSON boolean is a Python int; the growth
    # flags read each coordinate as an exact rational, which needs it finite
    numbers = type(re) in (int, float) and type(im) in (int, float)
    if not (numbers and math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"expected [re, im] as two finite JSON numbers, got {pair!r}")
    return complex(re, im)


# how a JSON value becomes a field (or tuple element) of each declared type;
# types not listed are built by calling the type on the value
_DECODERS = {
    Connection: Connection.from_json,
    WirtingerPolynomial: WirtingerPolynomial.from_json_terms,
    CompactRectangle: CompactRectangle.from_json,
    complex: _complex,
}


def _decode(name: str, kind, value):
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a JSON list, got {value!r}")
        return tuple(_decode(name, get_args(kind)[0], item) for item in value)
    if kind is int:
        return json_int(value, name, ConfigError)
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{name}: expected a JSON boolean, got {value!r}")
    try:
        return _DECODERS.get(kind, kind)(value)
    # ArithmeticError: a zero denominator in a fraction, or a value beyond the float range
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# --- report helpers -------------------------------------------------------


def _format_dirs(dirs: Sequence[Direction]) -> str:
    return " ".join(str(d) for d in dirs) if dirs else "-"


def _format_point(point: complex) -> str:
    return f"{point.real:g}{point.imag:+g}i"


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands ----------------------------------------------------------


def cmd_verify_identity(cfg: RunConfig) -> int:
    """Sweep the expansion identity and report every cell.

    One (j, f) pair at a time, so that only one pair's prefixes are held:
    its cells share one :class:`IdentitySweep`, which gives each failed
    cell's witness from the same states and sections as its verdict.
    Cells are reported level by level, then by direction sequence, index
    and function.
    """
    conn = cfg.connection
    verdicts = {}
    for j_position, j in enumerate(cfg.indices):
        for f_index, f in enumerate(cfg.functions):
            sweep = IdentitySweep(conn, j, f)
            for m in range(cfg.m_identity + 1):
                for dirs in direction_sequences(m):
                    args = (m, dirs, conn, j, f)
                    options = {"corrupt": cfg.corrupt_expansion, "sweep": sweep}
                    ok = verify_expansion_identity(*args, **options)
                    witness = None if ok else identity_witness(*args, **options)
                    verdicts[dirs, j_position, f_index] = ok, witness
    names = [str(f) for f in cfg.functions]
    cells = []
    all_pass = True
    for m in range(cfg.m_identity + 1):
        for dirs in direction_sequences(m):
            for j_position, j in enumerate(cfg.indices):
                for f_index, name in enumerate(names):
                    ok, witness = verdicts[dirs, j_position, f_index]
                    all_pass = all_pass and ok
                    cell = {
                        "m": m,
                        "dirs": _format_dirs(dirs),
                        "j": j,
                        "f": name,
                        "f_index": f_index,
                        "ok": ok,
                    }
                    if not ok:
                        cell["witness"] = witness
                    cells.append(cell)
    report = {
        "check": "expansion-identity",
        "connection": cfg.connection.to_json(),
        "m_max": cfg.m_identity,
        "cells": cells,
        "all_pass": all_pass,
    }
    if "json" in cfg.formats:
        _write_json(cfg.out_dir / "verify_identity.json", report)
    if "csv" in cfg.formats:
        _write_csv(
            cfg.out_dir / "verify_identity.csv",
            ("m", "dirs", "j", "f", "ok"),
            [(c["m"], c["dirs"], c["j"], c["f"], c["ok"]) for c in cells],
        )
    print(f"verify-identity: {len(cells)} cells, all_pass={all_pass}")
    return 0 if all_pass else 1


def cmd_splittings(cfg: RunConfig) -> int:
    """Count table with type breakdown plus both correspondence verifications.

    The table makes one pass over the splittings of each m, counting them
    by block count and type; each row's recursion check reads the previous
    m's totals.
    """
    totals = Counter(s.num_blocks for s in all_splittings(0))
    all_pass = totals[1] == 1
    rows = [(0, 1, totals[1], "", "", "")]
    for m in range(1, cfg.m_splittings + 1):
        table = Counter((s.num_blocks, classify(s).value) for s in all_splittings(m))
        previous, totals = totals, Counter()
        for k in range(1, m + 2):
            type1, type2 = table[k, "type1"], table[k, "type2"]
            totals[k] = type1 + type2
            recursion_ok = totals[k] == previous[k - 1] + k * previous[k]
            all_pass = all_pass and recursion_ok
            rows.append((m, k, totals[k], type1, type2, recursion_ok))
    correspondences = []
    for m in range(cfg.m_bijection + 1):
        for kind, verify, ks in (
            ("type1", type1_bijection, range(2, m + 3)),
            ("type2", type2_correspondence, range(1, m + 2)),
        ):
            for k in ks:
                row = {"kind": kind, "m": m, "k": k}
                try:
                    row.update(pairings=len(verify(m, k)), ok=True)
                except CorrespondenceError as exc:
                    # the failed row carries the splitting the check stopped at
                    row.update(pairings=0, ok=False, witness=exc.splitting.to_json())
                    print(f"type-{kind[-1]} correspondence failed at (m={m}, k={k}): {exc}", file=sys.stderr)
                    all_pass = False
                correspondences.append(row)
    if "csv" in cfg.formats:
        _write_csv(
            cfg.out_dir / "splittings.csv",
            ("m", "k", "total", "type1", "type2", "recursion_ok"),
            rows,
        )
        header = ("kind", "m", "k", "pairings", "ok")
        _write_csv(
            cfg.out_dir / "correspondences.csv",
            header,
            [[row[key] for key in header] for row in correspondences],
        )
    if "json" in cfg.formats:
        _write_json(
            cfg.out_dir / "splittings.json",
            {
                "check": "splittings",
                "counts": [
                    dict(zip(("m", "k", "total", "type1", "type2", "recursion_ok"), row))
                    for row in rows
                ],
                "correspondences": correspondences,
                "all_pass": all_pass,
            },
        )
    print(f"splittings: table to m={cfg.m_splittings}, correspondences to m={cfg.m_bijection}, all_pass={all_pass}")
    return 0 if all_pass else 1


def _magnitude(value: GaussianRational, name: str) -> float:
    try:
        return abs(value.to_complex())
    except OverflowError:
        raise OverflowError(f"{name} does not fit a float") from None


def cmd_curvature(cfg: RunConfig) -> int:
    """Eigenvalue spectrum of the curvature with growth flags at sample points."""
    conn = cfg.connection
    if conn.potential is None:
        raise ConfigError("curvature report needs a connection given by a potential g")
    lap = laplacian(conn.potential)
    point_headers = tuple(f"abs_at_{_format_point(pt)}" for pt in cfg.eval_points)
    header = ("j", "eigenvalue", "matches_closed_form", *point_headers)
    # a float is an exact binary rational, so each point converts without loss
    points = [GaussianRational(Fraction(pt.real), Fraction(pt.imag)) for pt in cfg.eval_points]
    all_pass = True
    rows = []
    spectrum = []
    for j in range(cfg.curvature_j_max + 1):
        # curvature_eigenvalue raises unless the eigenvalue is -(j+1)*laplacian(g)/2
        try:
            eigen = conn.curvature_eigenvalue(j)
        except CurvatureConsistencyError as exc:
            print(f"curvature consistency failure at j={j}: {exc}", file=sys.stderr)
            all_pass = False
            rows.append({**dict.fromkeys(header), "j": j, "matches_closed_form": False, "error": str(exc)})
            continue
        values = [eigen.evaluate_exact(point) for point in points]
        spectrum.append(values)
        magnitudes = [
            _magnitude(value, f"the eigenvalue for j={j} at {_format_point(pt)}")
            for pt, value in zip(cfg.eval_points, values)
        ]
        rows.append(dict(zip(header, (j, str(eigen), True, *magnitudes))))
    growth = {}
    for i, (pt, point) in enumerate(zip(cfg.eval_points, points)):
        squares = [values[i].re ** 2 + values[i].im ** 2 for values in spectrum]
        flat = not lap.evaluate_exact(point)
        grows = not flat and all(a < b for a, b in zip(squares, squares[1:]))
        growth[_format_point(pt)] = grows
        all_pass = all_pass and (not any(squares) if flat else grows)
    if "csv" in cfg.formats:
        _write_csv(
            cfg.out_dir / "curvature.csv", header, [[row[h] for h in header] for row in rows]
        )
    if "json" in cfg.formats:
        _write_json(
            cfg.out_dir / "curvature.json",
            {
                "check": "curvature",
                "potential": str(conn.potential),
                "laplacian": str(lap),
                "rows": rows,
                "growth": growth,
                "all_pass": all_pass,
            },
        )
    print(f"curvature: spectrum to j={cfg.curvature_j_max}, growth={growth}, all_pass={all_pass}")
    return 0 if all_pass else 1


def cmd_analyticity(cfg: RunConfig) -> int:
    """Audited certificates plus decay rows proved from them."""
    conn = cfg.connection
    summary = []
    all_pass = True
    for j in cfg.indices:
        for f_index, f in enumerate(cfg.functions):
            certificate = estimate_certificate(f, conn, j, cfg.rectangle)
            audited = audit_certificate(certificate)
            levels = covariant_level_sups(
                conn, j, f, cfg.rectangle, cfg.m_greedy, full_cap=cfg.m_decay
            )
            decay_rows = []
            witness = None
            for level in levels:
                scaled, bound, row_ok = decay_row(certificate, level.m, level.sup)
                if not row_ok and witness is None:
                    witness = decay_witness(certificate, level.m, scaled)
                decay_rows.append((level.m, level.sup, scaled, bound, row_ok))
            cell_pass = audited and witness is None
            # the cell's files are written only once its verdict is complete
            _write_json(
                cfg.out_dir / f"certificate_j{j}_f{f_index}.json",
                {**certificate.to_json(), "audited": audited},
            )
            _write_csv(
                cfg.out_dir / f"decay_j{j}_f{f_index}.csv",
                ("m", "sup_norm", "delta_scaled", "decay_bound", "pass"),
                decay_rows,
            )
            all_pass = all_pass and cell_pass
            summary.append(
                {
                    "j": j,
                    "f": str(f),
                    "f_index": f_index,
                    "epsilon": str(certificate.epsilon),
                    "M": str(certificate.M),
                    "delta": str(certificate.delta),
                    "audited": audited,
                    "all_rows_pass": cell_pass,
                }
            )
            if witness is not None:
                summary[-1]["witness"] = witness
            print(
                f"analyticity j={j} f={f}: epsilon={certificate.epsilon} "
                f"M~{float(certificate.M):.6g} audited={audited} pass={cell_pass}"
            )
    if "json" in cfg.formats:
        _write_json(
            cfg.out_dir / "analyticity.json",
            {"check": "analyticity", "cells": summary, "all_pass": all_pass},
        )
    return 0 if all_pass else 1


def cmd_all(cfg: RunConfig) -> int:
    status = 0
    for command in (cmd_verify_identity, cmd_splittings, cmd_curvature, cmd_analyticity):
        status = max(status, command(cfg))
    return status


_COMMANDS = {
    "verify-identity": cmd_verify_identity,
    "splittings": cmd_splittings,
    "curvature": cmd_curvature,
    "analyticity": cmd_analyticity,
    "all": cmd_all,
}

# --m-max retargets the cap that drives the invoked suite
_M_MAX_TARGETS = {
    "verify-identity": ("m_identity",),
    "splittings": ("m_splittings",),
    "curvature": ("curvature_j_max",),
    "analyticity": ("m_decay",),
    "all": ("m_identity", "m_splittings", "curvature_j_max", "m_decay"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON run configuration")
    common.add_argument("--out", type=Path, help="output directory for reports")
    common.add_argument("--m-max", type=int, dest="m_max", help="override the suite's sweep cap")
    common.add_argument("--grid", type=int, help="override grid points per axis")
    common.add_argument("--json", action="store_true", help="emit JSON reports only")
    common.add_argument("--csv", action="store_true", help="emit CSV reports only")
    common.add_argument("--corrupt-expansion", action="store_true", help=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="hilbertfield",
        description="Verification suites for the diagonal Hilbert field model",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        subparsers.add_parser(name, parents=[common])
    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
            cfg = RunConfig.from_json(data)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"could not load config {args.config}: {exc}") from exc
    else:
        cfg = RunConfig()
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.grid is not None:
        if args.grid < 2:
            raise ConfigError("--grid must be at least 2")
        cfg = replace(cfg, rectangle=cfg.rectangle.with_grid_n(args.grid))
    if args.m_max is not None:
        if args.m_max < 0:
            raise ConfigError("--m-max must be nonnegative")
        updates = {name: args.m_max for name in _M_MAX_TARGETS[args.command]}
        if "m_decay" in updates:
            updates["m_greedy"] = args.m_max + 2
        cfg = replace(cfg, **updates)
    if args.json and not args.csv:
        cfg = replace(cfg, formats=("json",))
    elif args.csv and not args.json:
        cfg = replace(cfg, formats=("csv",))
    if args.corrupt_expansion:
        cfg = replace(cfg, corrupt_expansion=True)
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _configure(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out stops the run before it starts
        return _COMMANDS[args.command](cfg)
    # an OverflowError names a value, given in the config or derived from it, beyond the float range
    except (ConfigError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write reports to {cfg.out_dir}: {exc.strerror}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
