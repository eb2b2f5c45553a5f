"""In-memory span recorder for the traced pass.

A span is one call into a layer of aalpha: its name (``layer.function``),
the pass it belongs to, its parent span, start and end in perf_counter
nanoseconds, and a dict of counts recorded at the boundary. Spans stay in
memory until ``write`` dumps them as JSON lines.

``installed(hooks)`` wraps public functions in the modules that call them,
so a traced pass runs the same library code as an untraced one.
"""

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, NamedTuple

_now = time.perf_counter_ns


class Hook(NamedTuple):
    """Trace every call of ``module.attr`` as one span.

    name is the span name, or a function of no arguments that gives it at
    call time. counts(args, result) and on_error(exc) return the counts to
    record on the span after a return or a raise.
    """

    module: Any
    attr: str
    name: str | Callable[[], str]
    counts: Callable | None = None
    on_error: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans = []  # [id, pass_id, parent, name, start_ns, end_ns, attrs]
        self.pass_id = 0
        self.active = False  # True while hooks are installed
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        """Time the body as one span; the yielded dict takes counts."""
        rec = [len(self.spans), self.pass_id,
               self._stack[-1] if self._stack else -1, name, 0, 0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = _now()
        try:
            yield attrs
        finally:
            rec[5] = _now()
            self._stack.pop()

    def maybe_span(self, name, **attrs):
        """A span while hooks are installed, else a no-op yielding a dict."""
        return self.span(name, **attrs) if self.active else nullcontext(attrs)

    def _wrap(self, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = hook.name if isinstance(hook.name, str) else hook.name()
            with self.span(name) as attrs:
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if hook.on_error is not None:
                        attrs.update(hook.on_error(exc))
                    raise
                if hook.counts is not None:
                    attrs.update(hook.counts(args, out))
                return out
        return traced

    @contextmanager
    def installed(self, hooks):
        """Replace each hooked function by its traced wrapper for the body,
        then put the originals back."""
        saved = []
        try:
            for hook in hooks:
                fn = getattr(hook.module, hook.attr)
                saved.append((hook.module, hook.attr, fn))
                setattr(hook.module, hook.attr, self._wrap(fn, hook))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self, pass_ids):
        """Per span name: summed seconds, call count and numeric attributes
        (summed, or the largest for max_* keys) over the given passes."""
        out = {}
        for _, pid, _, name, t0, t1, attrs in self.spans:
            if pid not in pass_ids:
                continue
            agg = out.setdefault(name, {"s": 0.0, "calls": 0})
            agg["s"] += (t1 - t0) * 1e-9
            agg["calls"] += 1
            for key, val in attrs.items():
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    continue
                if key.startswith("max_"):
                    agg[key] = max(agg.get(key, val), val)
                else:
                    agg[key] = agg.get(key, 0) + val
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for sid, pid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "pass": pid, "parent": parent,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1, **attrs}) + "\n")
