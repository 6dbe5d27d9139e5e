"""Spans around the calls into each mwmlab layer, installed from outside the package.

Each entry of ``WRAPPED`` names a module attribute that the package looks up
at call time, the span it is counted under, and how it is wrapped. Spans are
aggregated in memory per name (count, total, self time, time spent as a
direct child of a simulation loop), never written one by one. A name that no
longer exists in the package is listed in ``Tracer.unmeasured`` instead of
failing the run, so the table survives refactors that remove it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (module, attribute, span, kind). ``dict`` wraps every value of a dict;
# ``ci`` also records the distinct arguments; ``lines`` also counts the
# lines and bytes a writer emits.
WRAPPED = (
    ("harness", "run_experiment", "harness.run_experiment", "call"),
    ("harness", "per_slot_preceq_audit", "harness.audit", "call"),
    ("harness", "_build_report", "harness.report", "call"),
    ("harness", "SamplePath", "rng.sample_path", "call"),
    ("rng", "path_uniforms", "rng.path_uniforms", "call"),
    ("harness", "serve", "queueing.serve", "call"),
    ("policies", "DETERMINISTIC_DECIDERS", "policies.decide", "dict"),
    ("policies", "max_weight_matching", "matching.solve", "call"),
    ("balance", "max_weight_matching", "matching.solve", "call"),
    ("policies", "random_maximal_from_uniforms", "policies.random_maximal", "call"),
    ("harness", "clopper_pearson", "harness.ci", "ci"),
    ("harness", "write_lines", "harness.csv", "lines"),
    ("harness", "reachable_below", "balance.order", "call"),
    ("balance", "balancing_condition", "balance.condition", "call"),
    ("balance", "sweep_lemmas", "balance.sweep", "call"),
)

# Spans whose self time is the per-slot loop of the harness.
LOOP_SPANS = ("harness.run_experiment", "harness.audit")


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.count = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.in_loop_s = defaultdict(float)  # as a direct child of a loop span
        self.ci_args: set = set()
        self.lines = 0
        self.bytes = 0
        self.unmeasured: list[str] = []
        self._stack = [_Frame(None)]

    def span(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent.child_s += dur
                self.count[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame.child_s
                if parent.name in LOOP_SPANS:
                    self.in_loop_s[name] += dur

        return wrapper

    def _wrap(self, name, kind, fn):
        if kind == "ci":
            timed = self.span(name, fn)

            def record_ci(successes, trials, *rest, **kw):
                self.ci_args.add((successes, trials, rest, tuple(sorted(kw.items()))))
                return timed(successes, trials, *rest, **kw)

            return record_ci
        if kind == "lines":
            def counted_writer(path, lines):
                def counting(it):
                    for line in it:
                        self.lines += 1
                        yield line

                fn(path, counting(lines))
                self.bytes += os.path.getsize(path)

            return self.span(name, counted_writer)
        return self.span(name, fn)

    def install(self) -> None:
        """Replace each listed attribute in the imported package by its span."""
        for module_name, attr, name, kind in WRAPPED:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"mwmlab.{module_name}")
                target = getattr(module, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(label)
                continue
            if kind == "dict":
                if not isinstance(target, dict):
                    self.unmeasured.append(label)
                    continue
                for key, fn in list(target.items()):
                    target[key] = self.span(name, fn)
            else:
                setattr(module, attr, self._wrap(name, kind, target))

    def summary(self) -> dict:
        return {
            "count": dict(self.count),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "in_loop_s": dict(self.in_loop_s),
            "ci_distinct": len(self.ci_args),
            "lines": self.lines,
            "bytes": self.bytes,
        }
