"""Span recorder: host-time attribution by wrapping calls into the program.

The benchmark records spans from its own files.  A :class:`Point` names a
function or method of the program (``"module:func"`` or
``"module:Class.method"``) and the layer its time belongs to.
:class:`SpanRecorder` replaces each point with a timing wrapper for as long
as it is installed, and puts every original back on exit.  A module-level
function is replaced in every ``repro`` module that imported it by name, so
``from .engine import run_transformer`` call sites are covered too.

Each span has a name, a start, an end, a parent span id and a group id.
Spans opened under a group root (one batch, one round trip, one training
step) share the root's group id.  Spans stay in memory.  They are written
out at the end as Chrome trace-event JSON, which Perfetto opens directly.

Self time is a span's duration minus the time its child spans cover.  Every
recorded span adds its self time to exactly one layer.  So the layer self
times sum to the time the root spans cover, and the rest of the traced wall
time is unattributed.

Only the thread and process that created the recorder are traced.  Calls
from other threads, or from a forked worker process, pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Point:
    """One wrapped call site and how its time is attributed."""

    #: ``"package.module:func"`` or ``"package.module:Class.method"``.
    target: str
    #: Span name, also the key of the per-name statistics.
    name: str
    #: Layer that receives this span's self time.
    layer: str
    #: False keeps the span out of the exported event list (hot leaves are
    #: only counted and timed in aggregate).
    export: bool = True
    #: Marks a cold Algorithm 1 search: spans below it run "in cold".
    cold: bool = False
    #: Record only inside a cold search; pass straight through elsewhere.
    cold_only: bool = False
    #: Name and layer to use instead when the call runs inside a cold search.
    cold_name: Optional[str] = None
    cold_layer: Optional[str] = None
    #: Opens a new group (one batch, round trip or step) unless already in one.
    group_root: bool = False
    #: False folds a recursive call into the outermost call of the same point.
    reentrant: bool = True
    #: ``tag(result, child_names) -> str`` appended to the name on return.
    tag: Optional[Callable] = None
    #: Index of a positional argument to keep a reference to (for post-run
    #: measurements that must not run inside a span).
    keep_arg: Optional[int] = None
    #: The span's duration is excluded from the traced wall time and nothing
    #: below it is recorded (set-up work inside a measured call).
    mute: bool = False


class _Frame:
    __slots__ = ("point", "name", "layer", "start", "child", "span_id",
                 "parent", "group", "cold", "kids")

    def __init__(self, point, name, layer, span_id, parent, group, cold):
        self.point = point
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent
        self.group = group
        self.cold = cold
        self.kids = [] if point.tag is not None else None


def resolve_target(target: str) -> tuple:
    """``(owner, attribute)`` for a point's target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """Installs wrappers for a set of points and records their spans.

    ``clock`` returns seconds; tests pass a fake one.  Recording happens only
    while :attr:`enabled` is set (see :meth:`active`), so set-up work between
    measured calls leaves no spans.
    """

    def __init__(self, points, *, clock: Callable = time.perf_counter,
                 package: str = "repro"):
        self.points = tuple(points)
        self.clock = clock
        self.package = package
        self.enabled = False
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._patches: list = []
        self._ids = itertools.count(1)
        self._groups = itertools.count(1)
        self._stack: list = []
        self._mute_depth = 0
        self.reset()

    # ------------------------------------------------------------------
    # Recorded data
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        #: ``(span_id, parent_id, name, layer, start, end, group)`` per
        #: exported span, in close order.
        self.events: list = []
        #: name -> ``[calls, inclusive_s, self_s, layer]``.
        self.stats: dict = {}
        #: layer -> summed self seconds.
        self.layer_self: dict = {}
        #: Summed duration of root spans (spans without a parent).
        self.root_s = 0.0
        #: Summed duration of muted spans.
        self.muted_s = 0.0
        #: Arguments kept by points with ``keep_arg``, as ``(name, value)``.
        self.kept: list = []

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry[0] if entry else 0

    def inclusive_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry[1] if entry else 0.0

    def self_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry[2] if entry else 0.0

    def durations(self, name: str) -> list:
        """Durations (seconds) of the exported spans called ``name``."""
        return [end - start for _, _, n, _, start, end, _ in self.events
                if n == name]

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Install every point's wrapper; restore the originals on exit."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def active(self):
        """Record spans inside the block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder is already installed")
        try:
            for point in self.points:
                owner, attr = resolve_target(point.target)
                if isinstance(owner, type):
                    if attr not in owner.__dict__:
                        raise AttributeError(
                            f"{point.target}: {owner.__name__} does not "
                            f"define {attr} itself"
                        )
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original,
                                self._wrap(point, original))
                else:
                    original = getattr(owner, attr)
                    self._patch_everywhere(original,
                                           self._wrap(point, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, original, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, original))

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace a function in every loaded module of the package that
        holds it, whatever name it was imported under."""
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package or mod_name.startswith(prefix)
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------
    def _wrap(self, point: Point, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (
                not rec.enabled
                or rec._mute_depth
                or os.getpid() != rec._pid
                or threading.get_ident() != rec._tid
            ):
                return fn(*args, **kwargs)
            frame = rec._open(point)
            if frame is None:
                return fn(*args, **kwargs)
            if point.keep_arg is not None:
                rec.kept.append((frame.name, args[point.keep_arg]))
            frame.start = rec.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec._close(frame, rec.clock(), None, failed=True)
                raise
            rec._close(frame, rec.clock(), result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _open(self, point: Point) -> Optional[_Frame]:
        stack = self._stack
        parent = stack[-1] if stack else None
        in_cold = parent is not None and parent.cold
        if point.cold_only and not in_cold:
            return None
        if (
            not point.reentrant
            and parent is not None
            and parent.point is point
        ):
            return None
        name, layer = point.name, point.layer
        if in_cold and point.cold_name is not None:
            name = point.cold_name
            layer = point.cold_layer or layer
        group = parent.group if parent is not None else 0
        if point.group_root and group == 0:
            group = next(self._groups)
        frame = _Frame(point, name, layer, next(self._ids), parent, group,
                       in_cold or point.cold)
        if point.mute:
            self._mute_depth += 1
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame, end: float, result, *,
               failed: bool = False) -> None:
        self._stack.pop()
        point = frame.point
        duration = end - frame.start
        if point.mute:
            # Muted time counts neither as the parent's self time nor as
            # root-span time: it leaves the traced wall time altogether.
            self._mute_depth -= 1
            self.muted_s += duration
            if frame.parent is not None:
                frame.parent.child += duration
                self.root_s -= duration
            return
        name = frame.name
        if failed:
            name += ".error"
        elif point.tag is not None:
            name = f"{name}.{point.tag(result, frame.kids)}"
        self_s = duration - frame.child
        parent = frame.parent
        if parent is None:
            self.root_s += duration
        else:
            parent.child += duration
            if parent.kids is not None:
                parent.kids.append(name)
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, frame.layer]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        self.layer_self[frame.layer] = (
            self.layer_self.get(frame.layer, 0.0) + self_s
        )
        if point.export:
            self.events.append((
                frame.span_id,
                parent.span_id if parent is not None else 0,
                name,
                frame.layer,
                frame.start,
                end,
                frame.group,
            ))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The exported spans as Chrome trace-event JSON (Perfetto opens it).

        Timestamps are microseconds from the first exported span.
        """
        if not self.events:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(event[4] for event in self.events)
        trace_events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id, "group": group},
            }
            for span_id, parent_id, name, layer, start, end, group
            in sorted(self.events, key=lambda e: (e[4], -e[5]))
        ]
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
