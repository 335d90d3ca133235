"""Per-layer tracing from outside the package.

The tracer replaces each traced function in every ``subuniform`` module
namespace that binds it (the names callers import, e.g.
``subuniform.pipeline.bucket_colouring``) with a timing wrapper, and
restores the originals afterwards.  Every wrapped call adds its duration
to its caller's child time, so a layer's self time is its busy time
minus the time its traced callees took, and the self times of one task
add up to the traced ``run_command`` time.

Layers called about 10^5 times per task (the packed kernel and the
radix-3 transform) are kept as a count and a total at their boundary;
the others also record one span each (task, name, parent span, start,
end), kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Callable, Optional

# (layer name, module, attribute, kind); kind "span" records spans,
# "count" only aggregates, "gen" times each resume of a generator.
LAYERS = (
    ("cli.run_command", "subuniform.cli", "run_command", "span"),
    ("cli.parse_set_file", "subuniform.cli", "parse_set_file", "span"),
    ("pipeline.find_uniform_subspace", "subuniform.pipeline", "find_uniform_subspace", "span"),
    ("pipeline.exhaustive_best_subspace", "subuniform.pipeline", "exhaustive_best_subspace", "span"),
    ("pipeline.scan_leading_one_set", "subuniform.pipeline", "scan_leading_one_set", "span"),
    ("increments.regularity_decompose", "subuniform.increments", "regularity_decompose", "span"),
    ("increments.density_increment", "subuniform.increments", "density_increment", "span"),
    ("ramsey.bucket_colouring", "subuniform.ramsey", "bucket_colouring", "span"),
    ("ramsey.find_union_structure", "subuniform.ramsey", "find_union_structure", "span"),
    ("spectra.uniformity_sup", "subuniform.spectra", "uniformity_sup", "span"),
    ("spectra.restricted_spectrum", "subuniform.spectra", "restricted_spectrum", "span"),
    ("spectra.wht2", "subuniform.spectra", "wht2", "span"),
    ("spectra._dft3_pairs", "subuniform.spectra", "_dft3_pairs", "count"),
    ("spectra.packed_max_coef_sq", "subuniform.spectra", "packed_max_coef_sq", "count"),
    ("gf_core.enumerate_subspaces", "subuniform.gf_core", "enumerate_subspaces", "gen"),
    ("gf_core.coset_reps", "subuniform.gf_core", "coset_reps", "span"),
    ("gf_core.membership_table", "subuniform.gf_core", "PointSet.membership_table", "span"),
)

# Work counts kept at the layer boundaries.  "computed" ones are derived
# from call arguments rather than counted events.
COUNTS = {
    "pipeline.oracle.subspaces": "kernel calls made directly by exhaustive_best_subspace, one per subspace",
    "spectra.packed.mask_ops": "computed: sum of 2^k over packed_max_coef_sq calls",
    "increments.cosets_scanned": "packed_max_coef_sq calls made by regularity_decompose, one per coset",
    "increments.rounds": "sum of RegularityResult.rounds",
    "increments.steps": "sum of IncrementTrace.step_count",
    "ramsey.cosets_coloured": "computed: good coset representatives passed to bucket_colouring",
    "ramsey.found": "find_union_structure calls that returned a structure",
    "spectra.transform_points": "computed: table entries passed to wht2 and _dft3_pairs",
    "gf_core.enumerate_subspaces.yielded": "subspaces yielded by enumerate_subspaces",
}

# Every per-layer metric run.py prints, with its unit; BENCHMARK.json
# must list the same.
UNITS = {
    **{f"{name}.{stat}": unit for name, *_ in LAYERS
       for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    **dict.fromkeys(COUNTS, "count"),
    "ramsey.found_ratio": "ratio",
    "trace.self_sum_s": "s",
    "trace.task_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

_ORACLE = "pipeline.exhaustive_best_subspace"


def _hook_packed(counts, args, result, parent):
    counts["spectra.packed.mask_ops"] += 1 << args[2]
    if parent == _ORACLE:
        counts["pipeline.oracle.subspaces"] += 1
    elif parent == "increments.regularity_decompose":
        counts["increments.cosets_scanned"] += 1


def _hook_dft3(counts, args, result, parent):
    counts["spectra.transform_points"] += len(args[0])
    if parent == _ORACLE:
        counts["pipeline.oracle.subspaces"] += 1


def _hook_wht2(counts, args, result, parent):
    counts["spectra.transform_points"] += len(args[0])


def _hook_regularity(counts, args, result, parent):
    counts["increments.rounds"] += result.rounds


def _hook_increment(counts, args, result, parent):
    counts["increments.steps"] += result.step_count


def _hook_colouring(counts, args, result, parent):
    counts["ramsey.cosets_coloured"] += len(args[3])


def _hook_search(counts, args, result, parent):
    counts["ramsey.found"] += result is not None


HOOKS: dict[str, Callable] = {
    "spectra.packed_max_coef_sq": _hook_packed,
    "spectra._dft3_pairs": _hook_dft3,
    "spectra.wht2": _hook_wht2,
    "increments.regularity_decompose": _hook_regularity,
    "increments.density_increment": _hook_increment,
    "ramsey.bucket_colouring": _hook_colouring,
    "ramsey.find_union_structure": _hook_search,
}


class Tracer:
    """Holds the call stack, per-layer totals, work counts and spans."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [layer, child_s, span index]
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list = []
        self.task = ""
        self._restore: list[tuple[object, str, object]] = []

    def reset_totals(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def _account(self, name: str, frame: list, parent: Optional[list], t0: float, t1: float) -> None:
        dt = t1 - t0
        if parent is not None:
            parent[1] += dt
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[1]
        if frame[2] is not None:
            parent_span = parent[2] if parent is not None else None
            self.spans[frame[2]] = (self.task, name, parent_span, t0, t1)

    def _wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        stack = self.stack
        spans = self.spans
        account = self._account
        hook = HOOKS.get(name)
        counts = self.counts
        record = kind != "count"

        if kind == "gen":
            yielded = f"{name}.yielded"

            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    parent = stack[-1] if stack else None
                    frame = [name, 0.0, len(spans)]
                    spans.append(None)
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        account(name, frame, parent, t0, t1)
                    counts[yielded] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            if record:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                account(name, frame, parent, t0, t1)
            if hook is not None:
                hook(counts, args, result, parent[0] if parent is not None else None)
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in the package."""
        modules = [m for key, m in sys.modules.items()
                   if key == "subuniform" or key.startswith("subuniform.")]
        for name, module_name, attr, kind in LAYERS:
            owner: object = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, kind, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, kind, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics for the calls since the last reset."""
        out: dict[str, float] = {}
        for name, (calls, busy, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        searches = self.stats["ramsey.find_union_structure"][0]
        out["ramsey.found_ratio"] = self.counts["ramsey.found"] / searches if searches else 0.0
        out["trace.self_sum_s"] = sum(stat[2] for stat in self.stats.values())
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **meta,
                    "span_fields": ["task", "layer", "parent_span", "start_s", "end_s"],
                    "spans": [s for s in self.spans if s is not None],
                    "counts_doc": COUNTS,
                },
                handle,
            )
