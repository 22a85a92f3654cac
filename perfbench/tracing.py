"""Spans around the public functions of each effdyn module, from outside it.

`Tracer.patched()` replaces each traced function where callers look it up:
every module attribute bound to it in the effdyn package (so `dy.iterate`
and a `from ... import` binding both go through the wrapper), or the class
attribute for a method.  On exit every original object is put back.  A
span is (name, start, end, parent span, task); spans stay in memory and
are written out once the run ends.  Counters are taken at the same
boundaries from the arguments and results.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, float, float, int, int]  # name index, start, end, parent, task


def _count_bits_len(counts, args, kwargs, result):
    word = args[1] if len(args) > 1 else kwargs["word"]
    counts["coding.bits_len.symbols"] += len(word)


def _branch_counter(coding):
    names = ("enum", "lz78", "lz77")

    def count(counts, args, kwargs, result):
        counts["coding.encode.bits"] += len(result)
        _, pos = coding.elias_decode(result, 0)
        selector, _ = coding.phased_decode(result, pos, 3)
        counts[f"coding.branch.{names[selector]}"] += 1

    return count


def _count_exact_orbit(counts, args, kwargs, result):
    counts["dynamics.exact_orbit.steps"] += len(result)


def _count_iterate(counts, args, kwargs, result):
    counts["dynamics.iterate.steps"] += result.length


def _count_code_orbit(counts, args, kwargs, result):
    counts["symbolic.code_orbit.symbols"] += len(result.symbols)
    counts["symbolic.code_orbit.unknown"] += sum(1 for s in result.symbols if s is None)


def _count_spanning(counts, args, kwargs, result):
    space = result.system.space
    base = space.alphabet if space.kind.name == "CANTOR" else 2
    counts["entropy.spanning_separated.grid_points"] += base**result.grid_level
    counts["entropy.spanning_separated.kept"] += result.count


def targets(lib) -> List[Tuple[str, object, str, Optional[Callable]]]:
    """(span name, owner module or class, attribute, counter) per traced function."""
    cd, dy, en, ms = lib.coding, lib.dynamics, lib.entropy, lib.measure
    cfc = cd.PrefixFreeCompressor
    return [
        ("coding.bits_len", cfc, "bits_len", _count_bits_len),
        ("coding.encode", cfc, "encode", _branch_counter(cd)),
        ("coding.decode", cfc, "decode", None),
        ("coding.gap", cd, "gap_encode", None),
        ("coding.gap", cd, "gap_apply", None),
        ("dynamics.exact_orbit", dy, "exact_orbit", _count_exact_orbit),
        ("dynamics.iterate", dy, "iterate", _count_iterate),
        ("dynamics.preimage_pieces", dy, "preimage_pieces", None),
        ("symbolic.code_orbit", lib.symbolic, "code_orbit", _count_code_orbit),
        ("symbolic.cylinder_measure", lib.symbolic, "cylinder_measure", None),
        ("entropy.symbol_rate", en, "symbol_rate", None),
        ("entropy.orbit_rate", en, "orbit_rate", None),
        ("entropy.pseudo_orbit_code_bits", en, "pseudo_orbit_code_bits", None),
        ("entropy.spanning_separated", en, "spanning_separated", _count_spanning),
        ("entropy.verify_separated", en, "verify_separated", None),
        ("entropy.h1_estimate", en, "h1_estimate", None),
        ("entropy.block_entropy", en, "block_entropy", None),
        ("entropy.local_info", en, "local_info", None),
        ("entropy.cover_from_spanning", en, "cover_from_spanning", None),
        ("entropy.verify_null_s_cover", en, "verify_null_s_cover", None),
        ("measure.LineRegion.intersect", ms.LineRegion, "intersect", None),
        ("measure.CircleRegion.intersect", ms.CircleRegion, "intersect", None),
        ("measure.word_measure", ms.ComputableMeasure, "word_measure", None),
        ("stats.birkhoff_average", lib.stats, "birkhoff_average", None),
        ("stats.typicality_test", lib.stats, "typicality_test", None),
        ("stats.recurrence_stat", lib.stats, "recurrence_stat", None),
        ("numerics.eval_f", lib.numerics, "eval_f", None),
        ("numerics.log2", lib.numerics, "log2", None),
        ("space.Point.enclosure", lib.space.Point, "enclosure", None),
        ("cli.run_config", lib.cli, "run_config", None),
        ("reporting.rows_to_csv", lib.reporting, "rows_to_csv", None),
    ]


class Tracer:
    """Records spans and counters while `patched()` is active."""

    def __init__(self, lib):
        self.lib = lib
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]
        self._task = -1

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        name_index = self._name_index(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self._task)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def _bindings(self, owner, attribute: str) -> List[Tuple[object, str, object]]:
        """Every (holder, name, original) through which callers reach the target."""
        original = owner.__dict__[attribute]
        if isinstance(owner, type):
            return [(owner, attribute, original)]
        found = []
        for module_name, module in list(sys.modules.items()):
            if module is None:
                continue
            if module_name != "effdyn" and not module_name.startswith("effdyn."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    found.append((module, name, original))
        return found

    @contextmanager
    def patched(self):
        restore: List[Tuple[object, str, object]] = []
        try:
            wrappers: Dict[int, Callable] = {}
            for name, owner, attribute, counter in targets(self.lib):
                for holder, bound_name, original in self._bindings(owner, attribute):
                    wrapper = wrappers.get(id(original))
                    if wrapper is None:
                        wrapper = wrappers[id(original)] = self._wrap(name, original, counter)
                    restore.append((holder, bound_name, original))
                    setattr(holder, bound_name, wrapper)
            yield self
        finally:
            for holder, bound_name, original in reversed(restore):
                setattr(holder, bound_name, original)

    @contextmanager
    def task(self, task_index: int):
        """A root span named "task" around one task; spans inside it carry
        its index."""
        name_index = self._name_index("task")
        self._task = task_index
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_index, start, end, -1, task_index)
            self._task = -1

    def write(self, path) -> None:
        payload = {"fields": ["name", "start", "end", "parent", "task"],
                   "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: List[List[int]] = [[] for _ in spans]
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_table(names: Sequence[str], spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, self time and total time (children included) per span name."""
    table: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = table.setdefault(names[span[0]], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span[2] - span[1]
    return table
