"""Outside-in tracing of the pintbench layers.

The tracer records a span per propagator ``advance`` and per parent call
(``sequential_solve``, ``run_parareal``), and aggregates the much more
frequent inner calls (rhs evaluations, Newton solves, dense solves) as a
count and a time per call path inside the enclosing span, so a heat run
with about a million rhs calls keeps a few hundred records. Inner calls
made on a thread with no open span (the corrector's weight and update
run on worker threads between advances) are recorded as spans of their
own, parented to the run's root span.

Stacks are thread-local, every span of one tracer carries its run id,
and spans stay in memory until :func:`write_trace_events` writes them as
Trace Event Format JSON, which Perfetto and chrome://tracing open.
Everything here wraps public entry points from outside; the traced
program is not modified.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    tid: int
    start: float
    end: float = 0.0
    args: dict = field(default_factory=dict)
    # call path -> [count, seconds] of aggregated inner calls
    inner: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def inner_count(self, path: str) -> int:
        return self.inner.get(path, (0, 0.0))[0]

    def inner_seconds(self, path: str) -> float:
        return self.inner.get(path, (0, 0.0))[1]

    def self_seconds(self, path: str, children=None) -> float:
        """Time of inner ``path`` minus its direct children.

        ``children`` names the children to subtract (all when None), so a
        layer can keep the time of children that belong to it.
        """
        depth = path.count("/") + 1
        subtracted = sum(
            seconds
            for p, (_, seconds) in self.inner.items()
            if p.startswith(path + "/") and p.count("/") == depth
            and (children is None or p.rsplit("/", 1)[1] in children)
        )
        return self.inner_seconds(path) - subtracted


@dataclass
class _Frame:
    """Open inner call: aggregated into ``owner`` under ``path``."""

    owner: Span
    path: str


class Tracer:
    """Collects spans of one run; ``clock`` is injectable for tests."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span(self, name: str, args: dict) -> Span:
        stack = self._stack()
        owner = stack[-1] if stack else None
        if isinstance(owner, _Frame):
            owner = owner.owner
        parent = owner if owner is not None else self.root
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        return Span(span_id, parent.span_id if parent else None, name,
                    threading.get_ident(), 0.0, args=dict(args))

    @staticmethod
    def _count_error(span: Span, exc: BaseException) -> None:
        """Count ``exc`` once, at the innermost traced call it escapes."""
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        key = type(exc).__name__
        span.errors[key] = span.errors.get(key, 0) + 1

    def _finish(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **args):
        """Record one span; the first span opened with no root becomes the root."""
        span = self._new_span(name, args)
        stack = self._stack()
        is_root = self.root is None and not stack
        if is_root:
            self.root = span
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        except BaseException as exc:
            self._count_error(span, exc)
            raise
        finally:
            span.end = self.clock()
            stack.pop()
            if is_root:
                self.root = None
            self._finish(span)

    def inner(self, name: str, fn):
        """Wrap ``fn`` so each call is aggregated into the enclosing span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:
                with self.span(name):
                    return fn(*args, **kwargs)
            top = stack[-1]
            if isinstance(top, _Frame):
                frame = _Frame(top.owner, top.path + "/" + name)
            else:
                frame = _Frame(top, name)
            stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(frame.owner, exc)
                raise
            finally:
                elapsed = self.clock() - start
                stack.pop()
                # only this thread touches its own spans until they finish
                agg = frame.owner.inner.setdefault(frame.path, [0, 0.0])
                agg[0] += 1
                agg[1] += elapsed

        return traced


class TracedPropagator:
    """``Propagator``-protocol proxy giving one span per ``advance``."""

    def __init__(self, inner, kind: str, tracer: Tracer):
        self.inner = inner
        self.kind = kind
        self.tracer = tracer
        self.step = inner.step
        self.cost_hint = inner.cost_hint

    def advance(self, state, t_end):
        with self.tracer.span(self.kind + ".advance", kind=self.kind,
                              t_from=state.time, t_to=t_end):
            return self.inner.advance(state, t_end)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Replace ``(module, attribute, name)`` targets by traced wrappers.

    The originals are restored on exit, even when the traced run fails.
    """
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.inner(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_trace_events(tracer: Tracer, path, metadata: dict) -> int:
    """Write the spans as Trace Event Format JSON; returns the event count."""
    if not tracer.spans:
        raise ValueError("no spans recorded")
    t0 = min(s.start for s in tracer.spans)
    pid = os.getpid()
    tids = {}
    events = []
    for s in sorted(tracer.spans, key=lambda s: (s.start, s.span_id)):
        tid = tids.setdefault(s.tid, len(tids) + 1)
        args = {"run_id": tracer.run_id, "span_id": s.span_id, "parent_id": s.parent_id}
        args.update(s.args)
        if s.inner:
            args["inner"] = {p: {"count": c, "us": sec * 1e6} for p, (c, sec) in s.inner.items()}
        if s.errors:
            args["errors"] = dict(s.errors)
        events.append({
            "name": s.name, "cat": s.args.get("kind", "call"), "ph": "X",
            "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
            "pid": pid, "tid": tid, "args": args,
        })
    for ident, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": "main" if tid == 1 else f"worker {ident}"}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}, fh)
    return len(events)


def check_trace_events(path) -> int:
    """Re-read a written trace and check the Trace Event Format fields."""
    with open(path) as fh:
        payload = json.load(fh)
    events = payload["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        raise ValueError("trace holds no complete events")
    for e in complete:
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in e:
                raise ValueError(f"event without {key!r}: {e}")
        if e["dur"] < 0:
            raise ValueError(f"negative duration in {e['name']}")
    return len(events)
