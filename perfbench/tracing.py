"""Span tracing from outside the package, by rebinding its public names.

A target is ``(home module, public name)``.  Installing a tracer replaces the
function object under that name in every loaded ``vqa_poisson`` module that
holds it, so calls across layers (``optimize`` calling
``prepare_ansatz_state``, ``sampling`` calling its own ``sample_term``) and
calls the benchmark makes through the module attribute are both recorded.
Nothing is patched until ``install`` runs, and ``uninstall`` puts every
original back.  A target whose name no longer exists is reported as absent
with a warning; the run carries on without that span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "vqa_poisson"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """In-memory span recorder; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()

        return traced

    def install(self, targets: list[tuple[str, str]]) -> None:
        """Rebind each ``(module, name)`` target in every package module holding it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr in targets:
            span_name = f"{module_name}.{attr}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                home = None
            original = getattr(home, attr, None)
            if not callable(original):
                warnings.warn(f"trace target {PACKAGE}.{span_name} is absent; "
                              "its span is not recorded", stacklevel=2)
                self.absent.append(span_name)
                continue
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def mark(self) -> int:
        """Position to pass to :meth:`summary` for the spans recorded after now."""
        return len(self.spans)

    def summary(self, since: int = 0, until: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds over spans[since:until].

        Self time is a span's duration minus the time its direct children
        cover; the tracer is single-threaded, so children never overlap.
        """
        spans = self.spans[since:until]
        child_time = defaultdict(float)
        for span in spans:
            if span.parent >= since:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for offset, span in enumerate(spans):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[since + offset]
        return out

    def count_children(self, parent_name: str, child_name: str,
                       since: int = 0, until: int | None = None) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        spans = self.spans
        return sum(1 for span in spans[since:until]
                   if span.name == child_name and span.parent >= 0
                   and spans[span.parent].name == parent_name)
