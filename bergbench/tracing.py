"""Spans around the calls into each bergkit layer, recorded from outside.

bergkit imports its functions by name (``from .linalg import jacobi_eigh``
in ``kernels`` and ``opnorm``, ``from .space import inner_product`` in
``laplace``), so a wrapper is bound in place of the original in every
``bergkit`` namespace that holds it; ``QuadratureScheme.build`` is
patched on the class.  Spans stay in memory: (op, id, parent, name,
start_ns, end_ns, self_ns), where self time is the span's duration minus
that of its child spans.  The benchmark runs single-threaded, so spans
nest and a plain stack finds each parent.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter

TRACED = (
    ("cli", "main"),
    ("opnorm", "boundedness_verdict"),
    ("opnorm", "gram_norm_estimate"),
    ("opnorm", "spectral_radius_estimate"),
    ("symbols", "angular_derivative_estimate"),
    ("symbols", "validate_self_map"),
    ("symbols", "compose"),
    ("kernels", "psd_check"),
    ("kernels", "gram_matrix"),
    ("kernels", "defect_kernel_matrix"),
    ("kernels", "nevanlinna_kernel"),
    ("linalg", "jacobi_eigh"),
    ("linalg", "pivoted_cholesky"),
    ("linalg", "solve_lower_triangular"),
    ("space", "inner_product"),
    ("laplace", "isometry_check"),
)
SCHEME_BUILD = "space.QuadratureScheme.build"
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED) + (SCHEME_BUILD,)


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans = []
        self.counts = Counter()   # extra work counters, by metric name
        self._stack = []          # [span id, child ns] of each open span

    def wrap(self, name, fn, count=None):
        """``fn`` timed as span ``name``; ``count(arguments)`` adds to
        ``self.counts`` after the call."""
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append([sid, 0])
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _, child_ns = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[sid] = (self.op, sid, parent, name, start, end,
                                   end - start - child_ns)
                if count:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(bound.arguments)

        return traced

    def _count_jacobi(self, arguments):
        self.counts["linalg.jacobi_eigh.n"] += len(arguments["matrix"])
        if arguments["compute_vectors"]:
            self.counts["linalg.jacobi_eigh.vector_calls"] += 1

    def _count_nodes(self, arguments):
        from bergkit.space import default_scheme
        scheme = arguments["scheme"] or default_scheme()
        self.counts["space.inner_product.nodes"] += (scheme.x_nodes.size
                                                     * scheme.y_nodes.size)

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers into every loaded bergkit module, and undo it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bergkit" or n.startswith("bergkit.")]
        counters = {"linalg.jacobi_eigh": self._count_jacobi,
                    "space.inner_product": self._count_nodes}
        undo = []
        for mod, fn_name in TRACED:
            original = getattr(importlib.import_module(f"bergkit.{mod}"), fn_name)
            name = f"{mod}.{fn_name}"
            wrapper = self.wrap(name, original, counters.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        scheme_cls = importlib.import_module("bergkit.space").QuadratureScheme
        build = scheme_cls.__dict__["build"]
        scheme_cls.build = classmethod(self.wrap(SCHEME_BUILD, build.__func__))
        undo.append((scheme_cls, "build", build))
        try:
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def totals(self):
        """Calls and self time (ns) per span name, over all spans."""
        calls, self_ns = Counter(), Counter()
        for span in self.spans:
            calls[span[3]] += 1
            self_ns[span[3]] += span[6]
        return calls, self_ns

    def root_ns(self) -> int:
        return sum(s[5] - s[4] for s in self.spans if s[2] == -1)

    def write(self, path):
        """All spans as JSON, written once when the run ends."""
        names = {name: i for i, name in enumerate(NAMES)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"names": list(NAMES),
                       "fields": ["op", "id", "parent", "name", "start_ns",
                                  "end_ns", "self_ns"],
                       "spans": [[*s[:3], names[s[3]], *s[4:]]
                                 for s in self.spans]}, handle)
