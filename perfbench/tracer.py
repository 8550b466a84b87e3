"""Outside-in span tracer for glfit.

The tracer replaces public attributes of glfit's modules with timing
shims for the length of a traced phase and puts the originals back
afterwards; no file of the program changes. A function bound by name in
several modules (``estimate`` and ``cli`` import ``gamma_rule`` directly)
is replaced in every module that holds it.

Each call of a wrapped function is a span: name, start, end, parent span
and the benchmark op it belongs to. Self time is a span's duration minus
the durations of its child spans, and is summed per name as calls finish,
so the aggregates cover every call. Only the first ``MAX_KEPT_SPANS``
spans are kept for the span file: the oracle workload makes millions of
13-microsecond calls in one run.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict

MAX_KEPT_SPANS = 100_000
GLFIT_MODULES = ("glfit", "glfit.specfun", "glfit.quadrature", "glfit.gl",
                 "glfit.circular", "glfit.estimate", "glfit.simharness", "glfit.cli")


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.op = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.pairs = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next = 0
        self._patched = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``; ``count(tracer,
        args, kwargs, result)`` may add to ``counts`` after each call.
        ``pairs`` counts calls by (parent span name, span name)."""
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        total_s, pairs = self.total_s, self.pairs
        perf = time.perf_counter

        def traced(*args, **kwargs):
            index = self._next
            self._next = index + 1
            if stack:
                parent, parent_name = stack[-1][1], stack[-1][2]
            else:
                parent, parent_name = -1, None
            pairs[(parent_name, name)] += 1
            frame = [0.0, index, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if len(spans) < MAX_KEPT_SPANS:
                    spans.append((index, name, start, end, parent, self.op))
                else:
                    self.dropped += 1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each target of a ``{name: count}`` mapping, where the name
        is ``module.attribute`` relative to the glfit package."""
        modules = [importlib.import_module(m) for m in GLFIT_MODULES]
        for name, count in targets.items():
            module, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"glfit.{module}"), attr)
            wrapped = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "op"))
            writer.writerows(sorted(self.spans))
