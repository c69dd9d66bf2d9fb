"""Span recorder for the traced run: wrappers installed from outside.

The program under test carries no instrumentation.  A :class:`Tracer`
replaces selected public functions and methods with thin wrappers that
record one :class:`Span` per call (name, thread, start, end, parent,
unit id, items in and out) and restores every original on
:meth:`Tracer.remove`.  Spans stay in memory until the run ends.

A *unit* is one cell or one job: a span opened by a ``boundary``
wrapper while no unit is active on its thread starts a new unit id, and
every span nested under it inherits that id.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

__all__ = ["Span", "Tracer"]

_MISSING = object()


class Span:
    """One recorded call."""

    __slots__ = (
        "index", "name", "thread", "parent", "unit", "start", "end",
        "items_in", "items_out", "meta", "children",
    )

    def __init__(self, index, name, thread, parent, unit, start):
        self.index = index
        self.name = name
        self.thread = thread
        self.parent = parent
        self.unit = unit
        self.start = start
        self.end = start
        self.items_in = 0
        self.items_out = 0
        self.meta: dict = {}
        self.children: list[int] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span({self.index}, {self.name!r}, unit={self.unit}, "
            f"parent={self.parent}, {self.duration * 1e3:.3f} ms)"
        )


class Tracer:
    """Records spans from wrappers it installs; removes them on demand."""

    HOOK_SPAN = "trace.hooks"

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_unit = 0
        self._installed: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_unit(self) -> int:
        with self._lock:
            self._next_unit += 1
            return self._next_unit

    def _open(self, name: str, boundary: bool) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.unit:
            unit = parent.unit
        elif boundary:
            unit = self._new_unit()
        else:
            unit = 0
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                threading.get_ident(),
                None if parent is None else parent.index,
                unit,
                time.perf_counter(),
            )
            self.spans.append(span)
        if parent is not None:
            parent.children.append(span.index)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if not stack:
            roots = getattr(self._local, "roots", None)
            if roots is None:
                roots = self._local.roots = {}
            roots[span.name] = span

    def last_root(self, name: str) -> Span | None:
        """The most recent span called ``name`` that closed with an empty
        stack on this thread (for a lane: the job it just finished)."""
        return getattr(self._local, "roots", {}).get(name)

    def _run_hook(self, hook, *args) -> object:
        """Run a measurement hook inside a ``trace.hooks`` span, so the
        time it costs is attributed to tracing, not to the caller."""
        scope = self._open(self.HOOK_SPAN, False)
        try:
            return hook(*args)
        finally:
            self._close(scope)

    # -- installation --------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        boundary: bool = False,
        before=None,
        after=None,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call and its return
        value is handed to ``after(span, state, args, kwargs, result)``
        once the span has closed.  ``generator=True`` records one span
        per item the returned iterator yields, so lazily produced work is
        timed where it is consumed.
        """
        original = inspect.getattr_static(owner, attr)
        own = (
            owner.__dict__.get(attr, _MISSING)
            if isinstance(owner, type)
            else original
        )
        if getattr(original, "__e2ebench_wrapped__", False):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        tracer = self

        if generator:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = iter(original(*args, **kwargs))
                while True:
                    span = tracer._open(name, boundary)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer._close(span)
                        return
                    except BaseException:
                        tracer._close(span)
                        raise
                    tracer._close(span)
                    if after is not None:
                        tracer._run_hook(after, span, None, args, kwargs, item)
                    yield item

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                state = (
                    tracer._run_hook(before, args, kwargs)
                    if before is not None
                    else None
                )
                span = tracer._open(name, boundary)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                if after is not None:
                    tracer._run_hook(after, span, state, args, kwargs, result)
                return result

        wrapper.__e2ebench_wrapped__ = True
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, own))

    def remove(self) -> list[str]:
        """Restore every wrapped attribute; return what failed to restore.

        Each restored attribute must be the original object again
        (``is``), and an attribute that a class only inherited must be
        inherited again rather than copied onto the class.
        """
        problems = []
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
            now = inspect.getattr_static(owner, attr, _MISSING)
            if now is not original:
                problems.append(f"{owner!r}.{attr} was not restored")
            if isinstance(owner, type) and (
                (own is _MISSING) != (attr not in owner.__dict__)
            ):
                problems.append(f"{owner!r}.{attr} changed where it lives")
        return problems

    @property
    def installed(self) -> int:
        return len(self._installed)
