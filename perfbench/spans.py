"""Spans recorded from outside the program, by wrapping the public functions
that ``pipeline``, ``reporting`` and ``lockchain`` call.

A wrapper replaces a module (or class) attribute, so every caller that looks
the name up at call time goes through it.  Modules that imported a function
by name hold their own reference; those references are wrapped as well.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Optional


def _len_of_result(args, kwargs, result) -> dict:
    return {"out": len(result)}


def _interval_merge(args, kwargs, result) -> dict:
    starts = kwargs.get("starts", args[0] if args else ())
    return {"in": len(starts), "out": len(result)}


def _dead_time(args, kwargs, result) -> dict:
    return {"in": len(result), "out": int(result.sum())}


def _photons(args, kwargs, result) -> dict:
    return {"in": len(result)}


def _lock_steps(args, kwargs, result) -> dict:
    return {"steps": len(result.t) - 1}


#: (span name, [(module, attribute path)], counter); pipeline imports most
#: of its kernels by name, and reporting imports run_raw by name
TARGETS: list[tuple[str, list[tuple[str, str]], Optional[Callable]]] = [
    ("intervals.sample_poisson", [("afclink.intervals", "sample_poisson")], _len_of_result),
    ("intervals.intersect", [("afclink.intervals", "intersect")], None),
    ("intervals.complement", [("afclink.intervals", "complement")], None),
    ("intervals.as_interval_set", [("afclink.intervals", "as_interval_set")], _interval_merge),
    ("intervals.contains", [("afclink.intervals", "contains")], None),
    ("channel.as_closures",
     [("afclink.channel", "as_closures"), ("afclink.pipeline", "as_closures")], _len_of_result),
    ("detection.dead_time_filter",
     [("afclink.detection", "dead_time_filter"), ("afclink.pipeline", "dead_time_filter")],
     _dead_time),
    ("detection.accumulate_histogram",
     [("afclink.detection", "accumulate_histogram"),
      ("afclink.pipeline", "accumulate_histogram")], None),
    ("memory.storage_branches",
     [("afclink.memory", "storage_branches"), ("afclink.pipeline", "storage_branches")],
     _photons),
    ("memory.exit_times",
     [("afclink.memory", "exit_times"), ("afclink.pipeline", "exit_times")], None),
    ("pipeline.run_raw",
     [("afclink.pipeline", "run_raw"), ("afclink.reporting", "run_raw")], None),
    ("lockchain.simulate_lock_run",
     [("afclink.lockchain", "simulate_lock_run"), ("afclink.pipeline", "simulate_lock_run")],
     _lock_steps),
    ("lockchain.LockRunResult.to_csv", [("afclink.lockchain", "LockRunResult.to_csv")], None),
    ("reporting.analyze", [("afclink.reporting", "analyze")], None),
    ("reporting.RunReport.write", [("afclink.reporting", "RunReport.write")], None),
]


class Tracer:
    """Records spans ``{name, start, end, parent, run, counts}`` in memory.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 at the
    top); ``run`` is set by the caller before each traced main call.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded in
        ``missing`` and skipped."""
        self.missing = []
        for name, places, counter in self.targets:
            for module_name, attr_path in places:
                owner, attr = self._resolve(module_name, attr_path)
                if owner is None:
                    self.missing.append(f"{module_name}.{attr_path}")
                    continue
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, counter))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(module_name: str, attr_path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, None
        return owner, attr

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else -1,
                "run": self.run,
                "counts": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict], run: Optional[int] = None) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of its interval that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if run is not None and span["run"] != run:
            continue
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for lo, hi in sorted(
            (max(spans[c]["start"], start), min(spans[c]["end"], end)) for c in children[i]
        ):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span["name"]] += (end - start) - covered
    return dict(totals)


def count_totals(spans: list[dict], run: Optional[int] = None) -> dict[str, dict[str, int]]:
    """Sum of every recorded count per span name."""
    totals: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span["counts"] and (run is None or span["run"] == run):
            for key, value in span["counts"].items():
                totals[span["name"]][key] += value
    return {name: dict(c) for name, c in totals.items()}
