"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces public entry points of the ``repro`` package with
thin wrappers, runs the workload, and puts every original back.  Methods are
patched on the class that defines them (and on each already-imported subclass
that overrides them); functions are patched at every ``repro.*`` module
binding, because modules import them by name.

Each span records its entry point, start, end, parent span and round.  Spans
live in compact arrays until the run ends.  Three rules keep the per-layer
self times adding up to the round's wall time:

* spans are only recorded inside a round, which the root entry point
  (``FederatedSimulation.run_round``) opens and closes;
* a call into a key that is already open on the stack records nothing, so a
  layer's outermost call is its span (``Module.__call__`` of a ``Sequential``
  covers the calls into its children);
* calls on any thread other than the one that installed the tracer record
  nothing: their wall time already lies inside the span that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

_MARK = "__perfbench_original__"


@dataclass(frozen=True)
class EntryPoint:
    """A public function or method to time, and the key its spans record under.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.  ``hook``
    runs inside the span after the call returns, as ``hook(tracer, args,
    kwargs, result)``, to read counts at the boundary.  The ``root`` entry
    point opens a round.
    """

    target: str
    key: str
    hook: Callable | None = None
    root: bool = False


class Tracer:
    """Wrapper installer and in-memory span store."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: span name table: entry-point name and the key it records under
        self.names: list[str] = []
        self.keys: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_round = array("i")
        #: rounds completed under the tracer (the round identifier of a span)
        self.rounds = 0
        #: counts summed at the boundaries by hooks, and per-round maxima
        self.tallies: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._round = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps its id
        self._wrappers: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def tally(self, name: str, value: float = 1.0) -> None:
        self.tallies[name] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def _intern(self, name: str, key: str) -> int:
        self.names.append(name)
        self.keys.append(key)
        return len(self.names) - 1

    def _wrap(self, entry: EntryPoint, original, name: str):
        tracer = self
        name_id = self._intern(name, entry.key)
        key, hook, root = entry.key, entry.hook, entry.root
        clock = self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if (
                (tracer._round < 0 and not root)
                or key in tracer._open
                or threading.get_ident() != tracer._thread
            ):
                return original(*args, **kwargs)
            if root:
                tracer._round = tracer.rounds
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_round.append(tracer._round)
            tracer.span_end.append(0.0)
            stack.append(index)
            tracer._open.add(key)
            tracer.span_start.append(clock())
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                tracer.span_end[index] = clock()
                stack.pop()
                tracer._open.discard(key)
                if root:
                    tracer._round = -1
                    tracer.rounds += 1

        setattr(traced, _MARK, original)
        self._wrappers[id(traced)] = (traced, original)
        return traced

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, entry_points: Iterable[EntryPoint]) -> None:
        """Patch every entry point; the calling thread is the traced one."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._thread = threading.get_ident()
        for entry in entry_points:
            module_name, _, qualname = entry.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                cls = getattr(module, class_name)
                for owner in (cls, *_subclasses(cls)):
                    if attr in owner.__dict__:
                        original = owner.__dict__[attr]
                        name = f"{owner.__module__}.{owner.__qualname__}.{attr}"
                        self._patch(owner, attr, self._wrap(entry, original, name))
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(entry, original, f"{module_name}.{qualname}")
                for bound in _repro_modules():
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            self._patch(bound, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, including bindings made while tracing."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module first imported while the tracer was installed bound the
        # wrapper by name; give it the original too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        return self_times(self.span_start, self.span_end, self.span_parent)


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in out:
            out.append(sub)
            pending.extend(sub.__subclasses__())
    return out


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def remaining_wrappers() -> list[str]:
    """Every ``repro`` binding or class attribute that is still a wrapper."""
    found: list[str] = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, None) is not None:
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(value.__dict__.items()):
                    if getattr(member, _MARK, None) is not None:
                        found.append(f"{module.__name__}.{value.__qualname__}.{name}")
    return found


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: duration minus its children's covered time.

    Child intervals are clipped to the parent's, so a child that outlived its
    parent (which nesting on one thread rules out) cannot drive a self time
    negative.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        covered = 0.0
        if kids:
            covered = union_length(
                [(max(starts[k], start), min(ends[k], end)) for k in kids if ends[k] > start and starts[k] < end]
            )
        out.append((end - start) - covered)
    return out
