"""Span recorder that wraps hilbertfield's public functions from outside.

The benchmark edits nothing under ``src/``.  Instead :func:`install`
replaces each public function and method of the layer modules with a timing
wrapper, and rebinds every ``hilbertfield`` namespace that imported the
original by name (``cli`` does ``from .splittings import ...``).

Two kinds of wrapper exist:

* span wrappers keep one span per call: (id, parent id, name, start, end);
* hot wrappers, used for the ``symbolic`` layer and ``Splitting``
  construction, keep only per-name call counts and times, because the
  ``identity`` workload makes about 1.5 million polynomial multiplies.

Both kinds push a frame on one stack, so a span's self time (its duration
minus the time its children took) is exact whatever kind the children are.
``GaussianRational`` is not wrapped: its arithmetic runs inside the
polynomial operations, and a wrapper per coefficient product would dwarf
the product itself.  The benchmark times it on its own instead.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "splittings", "field", "symbolic", "grid", "analyticity")

# arithmetic dunders traced alongside public methods
_TRACED_DUNDERS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
)
_UNWRAPPED_CLASSES = frozenset({"GaussianRational"})
# Splitting construction is counted (splittings built) but too frequent for spans
_HOT_EXTRA = frozenset({"splittings.Splitting.__post_init__"})


def _poly_mul_counts(counters: dict, args) -> None:
    """Coefficient products of one multiply, and how many leave the real fast path."""
    a, b = args[0], args[1]
    a_len = len(a._terms)
    a_complex = sum(1 for c in a._terms.values() if c.im)
    if hasattr(b, "_terms"):
        b_len = len(b._terms)
        b_complex = sum(1 for c in b._terms.values() if c.im)
    else:
        b_len, b_complex = 1, int(bool(getattr(b, "im", 0)))
    counters["poly_mul_term_pairs"] += a_len * b_len
    counters["complex_coeff_muls"] += a_complex * b_len + a_len * b_complex - a_complex * b_complex


def _grid_points_count(counters: dict, args) -> None:
    counters["grid_points_evaluated"] += args[1].size


_COUNTERS = {
    "symbolic.WirtingerPolynomial.__mul__": _poly_mul_counts,
    "grid.evaluate_on_grid": _grid_points_count,
}


class Tracer:
    """In-memory span store plus per-name call counts and times.

    ``spans`` holds (id, parent id, name, start, end) tuples for span
    wrappers; ``totals`` maps every traced name to [calls, inclusive
    seconds, self seconds]; ``counters`` holds work counts; ``covered_s``
    is the time spent inside top-level traced calls.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        # frames: [id of the nearest enclosing span, seconds covered by children]
        self._stack: list[list] = []
        self._next_id = 1

    def wrapper(self, fn, name: str, keep_spans: bool):
        """Timing wrapper for ``fn``; hot names (``keep_spans`` false) record no spans."""
        stack, spans, entry = self._stack, self.spans, self.totals[name]
        count = _COUNTERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            if count is not None:
                count(counters, args)
            parent = stack[-1][0] if stack else 0
            if keep_spans:
                span_id = self._next_id
                self._next_id = span_id + 1
            else:
                # spans caused by a hot call take the nearest recorded span as parent
                span_id = parent
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_s += duration
                if keep_spans:
                    spans.append((span_id, parent, name, start, end))
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]

        return traced

    # -- accounting -----------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span and hot-call durations minus their children."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, span_name, start, end in self.spans if span_name == name]

    def outermost_seconds(self, names: frozenset) -> float:
        """Inclusive time of spans in ``names`` not nested inside another of them."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span_id, parent, name, start, end in self.spans:
            if name not in names:
                continue
            while parent and by_id[parent][2] not in names:
                parent = by_id[parent][1]
            if not parent:
                total += end - start
        return total

    def child_seconds(self, name: str, parent_name: str) -> float:
        """Inclusive time of ``name`` spans whose direct parent span is ``parent_name``."""
        names = {span[0]: span[2] for span in self.spans}
        return sum(
            end - start
            for _, parent, span_name, start, end in self.spans
            if span_name == name and names.get(parent) == parent_name
        )

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": [list(span) for span in self.spans],
            "totals": {name: list(entry) for name, entry in sorted(self.totals.items())},
            "counters": dict(self.counters),
        }


class Installation:
    """The rebindings :func:`install` made, so they can be undone."""

    def __init__(self):
        self.restore: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def _wrap(tracer: Tracer, fn, name: str, hot: bool):
    return functools.update_wrapper(tracer.wrapper(fn, name, keep_spans=not hot), fn)


def _wrap_class(tracer: Tracer, cls, layer: str, installation: Installation) -> None:
    wrappers: dict = {}
    for attr, member in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr.startswith("_") and attr not in _TRACED_DUNDERS and name not in _HOT_EXTRA:
            continue
        hot = layer == "symbolic" or name in _HOT_EXTRA
        if isinstance(member, classmethod):
            replacement = classmethod(_wrap(tracer, member.__func__, name, hot))
        elif inspect.isfunction(member):
            # aliases such as __rmul__ = __mul__ share one wrapper and one name
            if member not in wrappers:
                wrappers[member] = _wrap(tracer, member, name, hot)
            replacement = wrappers[member]
        else:
            continue
        installation.restore.append((cls, attr, member))
        setattr(cls, attr, replacement)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer's public functions and methods; returns the undo record."""
    installation = Installation()
    # keyed by id: module namespaces also hold unhashable values
    replacements: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hilbertfield.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, (enum.Enum, BaseException)) or attr in _UNWRAPPED_CLASSES:
                    continue
                _wrap_class(tracer, obj, layer, installation)
            elif callable(obj):
                replacements[id(obj)] = (obj, _wrap(tracer, obj, f"{layer}.{attr}", layer == "symbolic"))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "hilbertfield" or module_name.startswith("hilbertfield.")):
            continue
        for attr, obj in list(vars(module).items()):
            original, wrapper = replacements.get(id(obj), (None, None))
            if original is obj:
                installation.restore.append((module, attr, obj))
                setattr(module, attr, wrapper)
    return installation
