"""Span tracing of stablepot from outside the package.

``Tracer.install`` wraps the public functions of each layer module after
the package is imported, and rebinds every name in the package that refers
to one of them: ``from .specfun import gauss_2f1`` leaves a second binding
in ``sphere`` that must be wrapped too.  ``Tracer.uninstall`` puts the
originals back.  Nothing in ``src/`` knows about the wrappers.

Each call records one span ``(id, parent, op, name, start_ns, end_ns)``.
A span opened with no span open starts a new op, so every span of one
CLI command shares its op id.  Spans stay in memory; ``summary`` reduces
them to calls, total and self time per name.  Self time is a span's
duration minus the time its child spans cover.  Times are integer
nanoseconds, so the self times of one op sum exactly to its root span.
The tracer assumes one thread, which is what ``STABLEPOT_THREADS=1`` gives.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "sphere", "halfspace", "analysis", "relativistic",
          "montecarlo", "suites", "report", "cli")
METHODS = (("montecarlo", "EmpiricalSample", "to_csv"),
           ("report", "VerificationReport", "to_json"))


def _first(result):
    return result[0] if isinstance(result, tuple) else result


def _csv_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


# work counts taken at a layer boundary, from the call's arguments or result
COUNTERS = {
    # elements: the size of the broadcast result
    "sphere.poisson_kernel": lambda a, k, r: {"elements": int(np.size(r))},
    "halfspace.poisson_kernel": lambda a, k, r: {"elements": int(np.size(r))},
    "analysis.hardy_norm": lambda a, k, r: {"slices": len(r.slices)},
    "montecarlo.walk_on_balls_hitting": lambda a, k, r: {
        "walkers": r.n, "conclusive": r.hits + r.escapes},
    "montecarlo.sample_ball_exit_center": lambda a, k, r: {"draws": len(_first(r))},
    "montecarlo.sample_halfplane_hit": lambda a, k, r: {"draws": len(_first(r))},
    "montecarlo.gamma_small_shape": lambda a, k, r: {"draws": len(r)},
    "montecarlo.EmpiricalSample.to_csv": _csv_bytes,
    "report.VerificationReport.to_json": lambda a, k, r: {"bytes": len(r.encode())},
}


def _suite_checks(args, kwargs, result):
    return {"checks": len(result.entries)}


class Tracer:
    """Wraps stablepot's layers and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._next_id = 1
        self._op = 0
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            if stack:
                parent = stack[-1]
            else:
                parent = 0
                self._op += 1
            op = self._op
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, op, name, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def _patch(self, owner, key, value, is_item=False):
        old = owner[key] if is_item else getattr(owner, key)
        self._patched.append((owner, key, old, is_item))
        if is_item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods."""
        import stablepot.cli  # noqa: F401  (loads every layer module)
        suites = sys.modules["stablepot.suites"]
        suite_names = {fn: key for key, fn in suites.SUITES.items()}
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"stablepot.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if obj in suite_names:
                    name, counter = f"suites.{suite_names[obj]}", _suite_checks
                else:
                    name = f"{layer}.{attr}"
                    counter = COUNTERS.get(name)
                wrappers[obj] = self.wrap(name, obj, counter)
        for modname, mod in list(sys.modules.items()):
            if modname != "stablepot" and not modname.startswith("stablepot."):
                continue
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and not inspect.isclass(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for key, fn in list(suites.SUITES.items()):
            self._patch(suites.SUITES, key, wrappers[fn], is_item=True)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"stablepot.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], COUNTERS.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, old, is_item = self._patched.pop()
            if is_item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def self_ns(self) -> dict[int, int]:
        """Self time of every span, by span id."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, _op, _name, start, end in self.spans:
            if parent:
                covered[parent] += end - start
        return {sid: end - start - covered[sid]
                for sid, _parent, _op, _name, start, end in self.spans}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and the work counts."""
        self_ns = self.self_ns()
        rows: dict[str, list[int]] = {}
        for sid, _parent, _op, name, start, end in self.spans:
            row = rows.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_ns[sid]
        return {name: {"calls": calls, "total_s": total * 1e-9, "self_s": own * 1e-9,
                       **self.counts.get(name, {})}
                for name, (calls, total, own) in rows.items()}
