"""Span tracer that wraps commspec's public functions from outside the program.

A target is named ``<layer>.<attribute>``, where the layer is a module of the
``commspec`` package and the attribute is a function (``groups.center``) or
a method of a class in that module (``groups.FiniteGroup.is_abelian``).
While installed, each target is replaced in every ``commspec.*`` namespace
that binds the very same object, so calls through any import path are seen.
Restoring puts each original object back, also when the traced code raised.

Spans stay in memory as ``[name, start, end, parent, op]`` lists, where
``parent`` is the index of the enclosing span (-1 at the top) and ``op`` is
the operation id the caller set.  A span's self time is its duration minus
the time covered by its direct children.  Size counters are computed from
arguments and return values after the pass, outside every timed span.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

TARGETS: dict[str, tuple[str, ...]] = {
    "catalog": ("parse_family", "build"),
    "groups": (
        "parse_cayley_text",
        "load_cayley_file",
        "from_cayley_table",
        "FiniteGroup.is_abelian",
        "center",
        "centralizer_count",
        "quotient_by_center",
        "recognize_small",
        "max_noncommuting_set",
    ),
    "graphs": ("build_commuting_graph", "clique_decomposition", "graph_json"),
    "spectra": ("is_integral", "char_poly", "exact_determinant", "integer_spectrum"),
    "predictions": (
        "verify_group",
        "verify_centralizer_corollaries",
        "report_json_dict",
    ),
    "cli": ("main", "render_json"),
}

# Size counters and their units; each is a sum over one pass except the
# two maxima.
COUNTERS: dict[str, str] = {
    "groups.table_entries": "count",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "graphs.largest_block": "count",
    "spectra.degree": "count",
    "spectra.fl_mults": "count",
    "spectra.coeff_bits_max": "bits",
    "spectra.root_candidates": "count",
    "spectra.remainder_degree": "count",
}

# Targets whose arguments and results feed the counters.
_COUNTED = frozenset(
    {
        "groups.from_cayley_table",
        "graphs.build_commuting_graph",
        "graphs.clique_decomposition",
        "spectra.char_poly",
        "spectra.integer_spectrum",
    }
)


def target_names(targets: dict[str, tuple[str, ...]] = TARGETS) -> list[str]:
    return [f"{layer}.{attr}" for layer, attrs in targets.items() for attr in attrs]


class Tracer:
    """Install wrappers around the targets, collect spans, restore on exit."""

    def __init__(self, targets: dict[str, tuple[str, ...]] = TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.calls_io: list[tuple] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._restore()

    def _install(self) -> None:
        self.absent = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "commspec" or key.startswith("commspec."))
        ]
        for name in target_names(self.targets):
            layer, _, attr = name.partition(".")
            module = sys.modules.get(f"commspec.{layer}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                if vars(m).get(attr) is original:
                    self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counted = name in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                self.calls_io.append((name, args, kwargs, result))
            return result

        return wrapper


def layer_totals(spans: list[list], start: int = 0) -> dict[str, dict[str, float]]:
    """Self time and call count per span name, over ``spans[start:]``.

    Parent indices are absolute, so a slice taken from ``start`` must begin
    at a top-level span.
    """
    covered = [0.0] * (len(spans) - start)
    for name, t0, t1, parent, _ in spans[start:]:
        if parent >= start:
            covered[parent - start] += t1 - t0
    totals: dict[str, dict[str, float]] = {}
    for k, (name, t0, t1, _, _) in enumerate(spans[start:]):
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (t1 - t0) - covered[k]
        entry["calls"] += 1
    return totals


def size_counters(calls_io: list[tuple]) -> tuple[dict[str, int], set[str]]:
    """Fold the recorded arguments and results into the size counters.

    Returns the counters and the names of targets whose arguments or results
    no longer have the expected shape; those are skipped, not fatal.
    """
    c = dict.fromkeys(COUNTERS, 0)
    unreadable: set[str] = set()
    for record in calls_io:
        try:
            _count(c, *record)
        except (AttributeError, IndexError, KeyError, TypeError):
            unreadable.add(record[0])
    return c, unreadable


def _count(c: dict[str, int], name: str, args, kwargs, result) -> None:
    if name == "groups.from_cayley_table":
        c["groups.table_entries"] += result.order**2
    elif name == "graphs.build_commuting_graph":
        c["graphs.vertices"] += result.vertex_count
        c["graphs.edges"] += result.edge_count
    elif name == "graphs.clique_decomposition":
        c["graphs.largest_block"] = max(
            c["graphs.largest_block"], max(result.component_sizes, default=0)
        )
    elif name == "spectra.char_poly":
        matrix = args[0] if args else kwargs["matrix"]
        c["spectra.degree"] += result.degree
        c["spectra.fl_mults"] += sum(k**4 for k in block_sizes(matrix))
        c["spectra.coeff_bits_max"] = max(
            c["spectra.coeff_bits_max"],
            max(abs(x).bit_length() for x in result.coeffs),
        )
    elif name == "spectra.integer_spectrum":
        bound = args[1] if len(args) > 1 else kwargs["max_abs_root"]
        c["spectra.root_candidates"] += 2 * bound
        c["spectra.remainder_degree"] += result[1].degree


def block_sizes(matrix) -> list[int]:
    """Sizes of the connected blocks of a square matrix's support."""
    n = len(matrix)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            row = matrix[u]
            for v in range(n):
                if not seen[v] and row[v]:
                    seen[v] = True
                    stack.append(v)
        sizes.append(size)
    return sizes
