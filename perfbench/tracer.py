"""Outside-in layer tracer for the `singlestrip` package.

`Tracer.install` replaces each traced function with a wrapper in every
module namespace that binds it (the pipeline looks names up in its own
module's globals, so patching only the defining module would miss calls),
plus three `Mesh` methods on the class itself. `uninstall` puts every
original back. Each call appends one span `[name, start, end, parent]` to
an in-memory list; self times and counts are derived from the spans after
the run. A traced function that no longer exists is reported in `missing`
and its metrics are left out.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "singlestrip"

# (module, attribute, metric stem); "Mesh.x" names a method of mesh.Mesh.
# A stem ending in "_self" marks a function whose traced callees are
# reported separately, so its metric is the time spent in its own body.
TRACED = [
    ("mesh", "Mesh.__init__", "Mesh_init"),
    ("mesh", "Mesh.copy", "copy"),
    ("mesh", "Mesh.compact", "compact"),
    ("mesh", "validate", "validate"),
    ("mesh", "build_dual", "build_dual"),
    ("mesh", "split_pair", "split_pair"),
    ("matching", "perfect_match_dual", "perfect_match_dual_self"),
    ("matching", "replay_reductions", "replay_reductions"),
    ("matching", "validate_matching", "validate_matching"),
    ("matching", "blossom_maximum_matching", "blossom_maximum_matching"),
    ("striploop", "eliminate_three_cycles", "eliminate_three_cycles"),
    ("striploop", "restore_three_cycles", "restore_three_cycles"),
    ("striploop", "extract_cycles", "extract_cycles"),
    ("striploop", "merge_nodal", "merge_nodal"),
    ("striploop", "spanning_tree_splits", "spanning_tree_splits"),
    ("striploop", "assemble_cycle", "assemble_cycle"),
    ("striploop", "verify_order", "verify_order"),
    ("striploop", "stripify", "stripify_self"),
    ("boundary", "dual_spanning_tree", "dual_spanning_tree"),
    ("boundary", "balance_edge", "balance_edge"),
    ("boundary", "spine_path", "spine_path"),
    ("boundary", "euler_strip", "euler_strip_self"),
    ("boundary", "strip_with_boundary", "strip_with_boundary_self"),
    ("sfc", "direct_cycle", "direct_cycle"),
    ("sfc", "generate_curve", "generate_curve"),
    ("sfc", "dumps_curve_obj", "dumps_curve_obj"),
    ("sfc", "export_curve", "export_curve_self"),
    ("fileio", "load_mesh", "load_mesh"),
    ("fileio", "save_mesh", "save_mesh"),
    ("fileio", "write_strip_order", "write_strip_order"),
    ("fileio", "write_stats", "write_stats"),
    ("cli", "main", "main_self"),
]

# Counts read off a traced function's return value: span name -> (counter, fn).
# Span names are "<module>.<metric stem>".
RETURN_COUNTS = {
    "striploop.eliminate_three_cycles": ("striploop.removed_configs", len),
    "striploop.merge_nodal": ("striploop.nodal_merges", lambda r: len(r[1])),
    "striploop.spanning_tree_splits": ("striploop.splits", len),
    "boundary.euler_strip_self": ("boundary.splits", lambda r: len(r[1])),
}


class Tracer:
    """Spans, return-value counts and exception counts of traced calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]
        self.missing = []
        for module_name, attr, stem in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{stem}")
                continue
            wrapper = self._wrap(f"{module_name}.{stem}", original)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = RETURN_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return wrapper


def self_times(spans: list[list], first: int, last: int) -> dict[str, tuple[float, int]]:
    """Per span name, (self seconds, calls) over spans[first:last].

    A span's self time is its duration minus the durations of the spans
    whose parent it is; spans of one traced call are contiguous and their
    parents lie inside the same range.
    """
    child = [0.0] * (last - first)
    for i in range(first, last):
        name, start, end, parent = spans[i]
        if parent >= first:
            child[parent - first] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i in range(first, last):
        name, start, end, _ = spans[i]
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[i - first], calls + 1)
    return out
