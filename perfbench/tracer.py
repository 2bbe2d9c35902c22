"""Span recorder for the benchmark's traced run.

The traced run wraps entry points of the ``repro`` layers from the
benchmark's own files; nothing under ``src/`` changes and ``repro.obs``
stays disabled.  The wrappers keep four rules:

* A callable is patched at every name its callers use.  ``from m import f``
  copies ``f`` into the importing module, so every loaded module of the
  caller packages that holds the original object gets the wrapper, unless
  the layer is defined by one caller (``where=``), as the flow's stages
  are.
* A re-entrant primitive records only its outermost call (``outermost``):
  ``BddManager.ite`` recurses through ``self.ite``.
* Every thread has its own span stack.  The workloads make every traced
  call on the main thread (campaign jobs and orchestrate candidates run
  one at a time); a span on another thread would be a root of its own,
  so :attr:`Tracer.threads` lets the caller reject such a run.
* A forked pool worker restores the originals at once: its spans could
  never reach the parent.

A span's self time is its duration minus the time its child spans cover.
Primitive layers (``detail=False``) only keep per-layer call counts and
self time; the other layers also keep one record per span, written out by
:meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

# Span slots: [layer id, start, child time, owning thread state, span id
# (0 for primitives), parent span]
_LAYER, _START, _COVERED, _OWNER, _ID, _PARENT = range(6)


class _ThreadState:
    __slots__ = ("stack", "totals", "records", "name")

    def __init__(self, name: str) -> None:
        self.stack: List[list] = []
        #: layer id -> [calls, self seconds]
        self.totals: Dict[int, List[float]] = {}
        #: (span id, parent id, layer id, start, end, self seconds)
        self.records: List[Tuple[int, int, int, float, float, float]] = []
        self.name = name


class Tracer:
    """Installs layer wrappers and aggregates what they record."""

    def __init__(self, callers: Tuple[str, ...] = ("repro",)) -> None:
        #: top-level packages whose modules are scanned for bound callables
        self._callers = callers
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self._span_ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: work counts harvested from returned stats objects
        self.counts: Dict[str, float] = defaultdict(float)
        os.register_at_fork(after_in_child=self.uninstall)

    # -- thread state -----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    @property
    def threads(self) -> int:
        """Threads that recorded at least one span."""
        return len(self._states)

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self._layers)
            self._layers.append(layer)
        return self._layer_ids[layer]

    # -- spans --------------------------------------------------------------

    def _open(self, state: _ThreadState, lid: int, detail: bool) -> list:
        stack = state.stack
        span = [lid, 0.0, 0.0, state, next(self._span_ids) if detail else 0,
                stack[-1] if stack else None]
        stack.append(span)
        span[_START] = clock()
        return span

    def _close(self, span: list) -> None:
        end = clock()
        state = span[_OWNER]
        state.stack.pop()
        start = span[_START]
        duration = end - start
        self_s = max(0.0, duration - span[_COVERED])
        total = state.totals.get(span[_LAYER])
        if total is None:
            state.totals[span[_LAYER]] = [1, self_s]
        else:
            total[0] += 1
            total[1] += self_s
        parent = span[_PARENT]
        if span[_ID]:
            state.records.append((span[_ID], parent[_ID] if parent else 0,
                                  span[_LAYER], start, end, self_s))
        if parent is not None:
            parent[_COVERED] += duration

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one detailed span of *layer* around the block."""
        span = self._open(self._state(), self.layer_id(layer), True)
        try:
            yield
        finally:
            self._close(span)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, outermost: bool, detail: bool,
              harvest: Optional[Callable]) -> Callable:
        lid = self.layer_id(layer)
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state     # the fast path of _state()
            except AttributeError:
                state = tracer._state()
            stack = state.stack
            if outermost and stack and stack[-1][_LAYER] == lid:
                return fn(*args, **kwargs)
            span = tracer._open(state, lid, detail)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if harvest is not None:
                with tracer._lock:
                    harvest(tracer.counts, result)
            return result
        return wrapper

    def _counter(self, fn: Callable, layer: str,
                 harvest: Optional[Callable]) -> Callable:
        key = f"{layer}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with tracer._lock:
                tracer.counts[key] += 1
                if harvest is not None:
                    harvest(tracer.counts, result)
            return result
        return wrapper

    def _make(self, fn: Callable, layer: str, span: bool, outermost: bool,
              detail: bool, harvest: Optional[Callable]) -> Callable:
        if span:
            return self._wrap(fn, layer, outermost, detail, harvest)
        return self._counter(fn, layer, harvest)

    def patch_function(self, module: str, name: str, layer: str, *,
                       where: Optional[List[str]] = None, span: bool = True,
                       outermost: bool = False, detail: bool = True,
                       harvest: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` at every name bound to it in a loaded module
        of the caller packages (or only in the modules *where* lists)."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self._make(original, layer, span, outermost, detail,
                             harvest)
        if where is None:
            holders = [mod for mod_name, mod in list(sys.modules.items())
                       if mod is not None
                       and mod_name.split(".")[0] in self._callers]
        else:
            holders = [importlib.import_module(mod_name) for mod_name in where]
        patched = 0
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)
                    patched += 1
        if patched < (len(holders) if where is not None else 1):
            raise RuntimeError(f"{module}.{name}: no caller binds it "
                               f"({where or self._callers})")

    def patch_method(self, owner: type, name: str, layer: str, *,
                     span: bool = True, outermost: bool = False,
                     detail: bool = True,
                     harvest: Optional[Callable] = None) -> None:
        """Wrap a method (plain or classmethod) on its class."""
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._make(
                raw.__func__, layer, span, outermost, detail, harvest))
        else:
            wrapped = self._make(raw, layer, span, outermost, detail, harvest)
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Put every original back (also runs in forked children)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per-layer ``(calls, self seconds)`` over every thread."""
        merged: Dict[str, List[float]] = {}
        for state in self._states:
            for lid, (calls, self_s) in state.totals.items():
                entry = merged.setdefault(self._layers[lid], [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return {layer: (int(calls), self_s)
                for layer, (calls, self_s) in merged.items()}

    def write(self, path: str) -> int:
        """Save the detailed spans as JSON lines; returns how many."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._states:
                for span_id, parent, lid, start, end, self_s in state.records:
                    handle.write(json.dumps({
                        "id": span_id, "parent": parent,
                        "layer": self._layers[lid], "thread": state.name,
                        "start": round(start, 6), "end": round(end, 6),
                        "self_s": round(self_s, 6)}) + "\n")
                    count += 1
        return count

