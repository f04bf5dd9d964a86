"""Per-layer self time, measured by wrapping entry points from outside.

A :class:`Tracer` owns one :class:`LayerStats` per layer and a stack of
open spans.  :meth:`Tracer.install` replaces a function or method with a
timing wrapper everywhere callers look it up, and :meth:`Tracer.uninstall`
puts every original back.  The program under test is not edited.

Accounting rules:

* a layer's **self time** is the duration of its spans minus the part
  covered by spans of other layers opened inside them;
* a call into a layer from inside the same layer (``load`` calling
  ``access``) opens no new span: it is part of the outer span, so busy
  time is counted once and ``calls`` counts entries into the layer;
* a layer re-entered through another layer (A -> B -> A) gets a new
  span; its duration is removed from B's self time and added to A's,
  while A's busy time still covers only the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional


class LayerStats:
    """Counters of one layer: entries, busy and self seconds, extras."""

    __slots__ = ("name", "calls", "busy_s", "self_s", "depth", "extra")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0           #: open spans of this layer on the stack
        self.extra: Dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


#: ``enter(stats, args, kwargs) -> token`` runs before the wrapped call.
Enter = Callable[[LayerStats, tuple, dict], object]
#: ``leave(stats, token, args, result)`` runs after it returns.
Leave = Callable[[LayerStats, object, tuple, object], None]


class Tracer:
    """Span stack plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {}
        #: Open spans, innermost last: ``[stats, child_seconds]``.
        self._stack: List[list] = []
        #: One undo callable per patch made, oldest first.
        self._restores: List[Callable[[], None]] = []

    def layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats(name)
        return stats

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, func: Callable, layer: str, enter: Optional[Enter] = None,
             leave: Optional[Leave] = None) -> Callable:
        """A wrapper around ``func`` that records spans of ``layer``."""
        stats = self.layer(layer)
        stack = self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = enter(stats, args, kwargs) if enter is not None else None
            if stack and stack[-1][0] is stats:
                result = func(*args, **kwargs)
            else:
                stats.calls += 1
                frame = [stats, 0.0]
                stack.append(frame)
                stats.depth += 1
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stats.depth -= 1
                    stats.self_s += elapsed - frame[1]
                    if not stats.depth:
                        stats.busy_s += elapsed
                    if stack:
                        stack[-1][1] += elapsed
            if leave is not None:
                leave(stats, token, args, result)
            return result

        return traced

    def install(self, module_name: str, qualname: str, layer: str,
                enter: Optional[Enter] = None,
                leave: Optional[Leave] = None) -> None:
        """Wrap ``module_name:qualname`` wherever callers look it up.

        A method (``Class.name``) is replaced on its defining class, which
        every instance and non-overriding subclass resolves through; a
        staticmethod/classmethod keeps its descriptor type.  A module
        function is replaced in ``module_name`` *and* in every loaded
        ``repro`` module that imported it by name, since ``from m import f``
        binds the caller's own global.
        """
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = module
            for part in owner_name.split("."):
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, layer, enter, leave))
            else:
                wrapped = self.wrap(raw, layer, enter, leave)
            self._patch(owner, attr, raw, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self.wrap(original, layer, enter, leave)
        self._patch(module, attr, original, wrapped)
        self.replace_everywhere(original, wrapped)

    def replace_everywhere(self, original: object, wrapped: object) -> None:
        """Rebind every ``repro`` module global that holds ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapped)

    def patch_item(self, mapping: dict, key: object, value: object) -> None:
        """Replace ``mapping[key]``, restored by :meth:`uninstall`."""
        original = mapping[key]
        self._restores.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def _patch(self, owner: object, attr: str, original: object,
               wrapped: object) -> None:
        self._restores.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._restores:
            self._restores.pop()()
