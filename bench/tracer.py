"""Span tracer for the traced benchmark run.

The tracer wraps ifsseq from outside: one wrapper per public function,
installed at every module namespace where that function is bound (so
``collage.hausdorff`` and ``attractor.hausdorff`` share one wrapper), plus a
few class methods.  Private helpers are never wrapped.  Each call records a
span (name, start, end, parent span, job id) in memory; ``aggregate`` turns
the spans into calls, total time and self time (the span minus the time its
child spans cover) per name.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("attractor", "cli", "collage", "formats", "maps", "sequences", "systems")

# (module, class, method) -> span name.  Constructors report under the class.
METHODS = {
    ("attractor", "PointSet", "__init__"): "attractor.PointSet",
    ("maps", "Box", "vertices"): "maps.Box.vertices",
    ("maps", "AffineMap", "__init__"): "maps.AffineMap",
    ("systems", "IFS", "__init__"): "systems.IFS",
}

# Foreign functions worth a span, under the module that binds them.
FOREIGN = (("systems", "linear_sum_assignment"),)


def _count_hausdorff(counts, args, kwargs, result):
    counts["points"] += len(args[0]) + len(args[1])


def _count_pointset(counts, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["points_in"] += np.atleast_2d(np.asarray(points)).shape[0]
    counts["points_kept"] += len(args[0])


def _count_hutchinson(counts, args, kwargs, result):
    counts["points_out"] += len(result)


def _count_fit(counts, args, kwargs, result):
    counts["improvements"] += len(result.history) - 1
    counts["baseline_fallbacks"] += int(result.baseline_fallback)


def _count_written(counts, args, kwargs, result):
    counts["bytes"] += os.path.getsize(args[0])


# Work counters taken after a call returns, keyed by span name.
COUNTERS = {
    "attractor.hausdorff": _count_hausdorff,
    "attractor.PointSet": _count_pointset,
    "attractor.hutchinson": _count_hutchinson,
    "collage.fit_ifs": _count_fit,
    "formats.write_points_csv": _count_written,
    "formats.write_pgm": _count_written,
    "formats.write_ifs": _count_written,
}


class Tracer:
    """Installs span-recording wrappers into the imported ifsseq modules.

    Spans are kept in flat arrays: name index, start and end in ns from
    perf_counter_ns, parent span index (-1 for a root) and job index.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job_of = array("q")
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.job = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        counter = COUNTERS.get(name)
        counts = self.counts[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(self.name_of)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job_of.append(self.job)
            self.start.append(0)
            self.end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self) -> dict[int, tuple]:
        """id(function) -> (function, span name) for everything to wrap."""
        targets = {}
        for short in MODULES:
            module = sys.modules.get(f"ifsseq.{short}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        for short, attr in FOREIGN:
            obj = getattr(sys.modules.get(f"ifsseq.{short}"), attr, None)
            if obj is not None:
                targets[id(obj)] = (obj, f"{short}.{attr}")
        return targets

    def install(self):
        """Wrap every target at every ifsseq binding site, and the listed
        class methods.  Names missing from the code are skipped."""
        targets = self._targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "ifsseq" and not modname.startswith("ifsseq."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][0] is obj:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for (short, cls_name, method), name in METHODS.items():
            cls = getattr(sys.modules.get(f"ifsseq.{short}"), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is not None:
                self._installed.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path):
        """Write the spans, the name table and the work counters to an .npz."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_of=np.frombuffer(self.name_of, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job_of, dtype=np.int64),
            counts=np.array(
                [f"{name}.{key}={value}" for name, c in self.counts.items() for key, value in c.items()],
                dtype=str,
            ),
        )


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s and any work counters.

    `spans` is the mapping written by Tracer.dump (an opened .npz works)."""
    names = list(spans["names"])
    name_of, parent = spans["name_of"], spans["parent"]
    duration = (spans["end"] - spans["start"]).astype(float) * 1e-9
    child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(duration))
    own = duration - child
    k = len(names)
    calls = np.bincount(name_of, minlength=k)
    total = np.bincount(name_of, weights=duration, minlength=k)
    self_s = np.bincount(name_of, weights=own, minlength=k)
    table = {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }
    for entry in spans["counts"]:
        key, value = str(entry).rsplit("=", 1)
        name, stat = key.rsplit(".", 1)
        table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})[stat] = int(value)
    return table
