"""Span recorder for the traced benchmark run.

``install`` wraps public functions of the ``tirex`` package from outside: each
wrapper records a span (name, start, end, parent) around the call, plus work
counts computed from the call's arguments and result.  A wrapped function is
rebound under every name that refers to it in any loaded ``tirex`` module
(``tirex.estimators.sym_eigen``, ``tirex.data.inv_sqrt``, ...), so calls made
through imported names are caught too.  ``uninstall`` puts every original
back.  Nothing under ``src/`` is edited.

Work counts (flops, pairs, rows, bytes) are computed from array sizes, not
measured.  Time spent computing them is recorded as a hidden ``_tracer`` span,
so it is not charged to the caller's self time.
"""

import functools
import hashlib
import inspect
import os
import sys
import time


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _flops(power):
    def count(fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"flops": 2 * int(a["k"]) * a["z"].shape[1] ** power}
    return count


def _knn_pairs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"pairs": len(a["train_pts"]) * len(a["query_pts"])}


def _sweep_cells(fn, args, kwargs, result):
    return {
        "cells": sum(c.reps_ok + c.failures for c in result.cells),
        "failed_cells": sum(c.failures for c in result.cells),
    }


def _sample_rows(fn, args, kwargs, result):
    return {"rows": int(_bound(fn, args, kwargs)["n"])}


def _order_rows(fn, args, kwargs, result):
    return {"rows": len(_bound(fn, args, kwargs)["y"])}


def _csv_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _dataset_key(fn, args, kwargs, result):
    """Content hash of the input covariates, to count distinct inputs."""
    x = _bound(fn, args, kwargs)["ds"].x
    return {"key": hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest()}


# (layer name, module, attribute path, work counter or None).  The layer name
# is the module name without the package prefix plus the attribute path.
LAYERS = [
    ("cli.run", "tirex.cli", "run", None),
    ("linalg.sym_eigen", "tirex.linalg", "sym_eigen", None),
    ("linalg.inv_sqrt", "tirex.linalg", "inv_sqrt", None),
    ("estimators.tirex1_matrix", "tirex.estimators", "tirex1_matrix", _flops(2)),
    ("estimators.tirex2_matrix", "tirex.estimators", "tirex2_matrix", _flops(3)),
    ("estimators.fit", "tirex.estimators", "fit", None),
    ("evaluation.knn_scores", "tirex.evaluation", "knn_scores", _knn_pairs),
    ("evaluation.cross_validate_k", "tirex.evaluation", "cross_validate_k", None),
    ("evaluation.classify_experiment", "tirex.evaluation", "classify_experiment", None),
    ("evaluation.auc", "tirex.evaluation", "auc", None),
    ("evaluation.sweep", "tirex.evaluation", "sweep", _sweep_cells),
    ("data.standardize", "tirex.data", "standardize", _dataset_key),
    ("data.load_csv", "tirex.data", "load_csv", _csv_bytes),
    ("data.descending_order", "tirex.data", "descending_order", _order_rows),
    ("synthetic.sample", "tirex.synthetic", "sample", _sample_rows),
    ("process_verify.IndependentNormalModel.sample", "tirex.process_verify",
     "IndependentNormalModel.sample", None),
    ("process_verify.covariance_check", "tirex.process_verify", "covariance_check", None),
    ("rng.stream", "tirex.rng", "stream", None),
]

HIDDEN = "_tracer"


class Recorder:
    """Spans kept in memory: dicts with name, start, end, parent, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None, "counts": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                hidden = {"name": HIDDEN, "start": time.perf_counter(), "end": None,
                          "parent": span["parent"], "counts": {}}
                span["counts"] = counter(fn, args, kwargs, result)
                hidden["end"] = time.perf_counter()
                self.spans.append(hidden)
            return result

        return functools.wraps(fn)(wrapper)


def _tirex_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "tirex" or n.startswith("tirex."))]


def install(recorder):
    """Wrap every layer in LAYERS; return the patches that ``uninstall`` undoes."""
    modules = _tirex_modules()
    patches = []
    for name, module, path, counter in LAYERS:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = recorder.wrap(name, original, counter)
        # A class attribute is reached through the class; a module-level
        # function through every module that imported it by name.
        owners = [owner] if outer else [
            m for m in modules if any(v is original for v in vars(m).values())
        ]
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    patches.append((target, key, original))
    return patches


def uninstall(patches):
    """Restore every name rebound by ``install``."""
    for target, key, original in reversed(patches):
        setattr(target, key, original)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (clipped to the span)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s["start"]
        for c in sorted(kids, key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_totals(spans):
    """Aggregate spans by layer name: calls, summed self time, summed work
    counts and the number of distinct input keys.  Hidden spans are dropped."""
    totals = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s["name"] == HIDDEN:
            continue
        t = totals.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "keys": set()})
        t["calls"] += 1
        t["self_s"] += self_s
        for key, value in s["counts"].items():
            if key == "key":
                t["keys"].add(value)
            else:
                t[key] = t.get(key, 0) + value
    for t in totals.values():
        t["distinct"] = len(t.pop("keys"))
    return totals
