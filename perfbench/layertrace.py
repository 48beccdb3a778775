"""Per-layer wall-clock attribution by wrapping the program's callables.

:func:`install` replaces every function and method defined in the
layer modules of :data:`LAYERS` with a wrapper that opens a span on a
call stack held in memory.  When the span closes, its duration minus
the time covered by its child spans is its *self time*; the fold adds
it to the callable's counters, and adds the full duration to the
parent's child time.  By construction, the layers' self-times plus
the time spent outside every wrapped layer (``other``) add up to the
traced wall clock.  :meth:`LayerTrace.check` re-derives that sum, and
checks that the stack unwound and that the top-level spans fit inside
the traced wall clock.

Wrapping happens from outside the program: class attributes and module
globals are swapped, including names other modules imported with
``from x import f``.  Install before building a scenario, so methods
bound at build time (timers, scheduled callbacks) resolve to the
wrappers.  Generator functions are left alone; their bodies run in the
frame that consumes them, and their time counts there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from enum import Enum
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> module prefixes it owns.  ``repro.api`` (a thin facade)
#: and ``repro.ioutil`` are not layers: their time counts in the caller.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine",),
    "sim.link": ("repro.sim.link",),
    "sim.queues": ("repro.sim.queues",),
    "sim.node": ("repro.sim.node", "repro.sim.topology"),
    "sim.packet": ("repro.sim.packet",),
    "sack": ("repro.sack",),
    "tcp": ("repro.tcp",),
    "tfrc": ("repro.tfrc",),
    "core": ("repro.core",),
    "reliability": ("repro.reliability",),
    "qos": ("repro.qos",),
    "metrics": ("repro.metrics",),
    "traffic": ("repro.traffic",),
    "fluid": ("repro.fluid",),
    "topo": ("repro.topo",),
    "harness": ("repro.harness",),
    "campaign": ("repro.campaign",),
    "obs": ("repro.obs",),
}
OTHER = "other"
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + (OTHER,)

#: Dunder methods that are real entry points; the rest (hash, eq,
#: repr, pickling hooks) are left unwrapped.
_DUNDERS = {"__init__", "__call__", "__len__", "__iter__", "__next__",
            "__getitem__", "__contains__", "__enter__", "__exit__"}


def layer_of(module: str) -> Optional[str]:
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


def import_layer_modules() -> None:
    """Import every module of every layer, so lazy imports get wrapped too."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        if layer_of(info.name) is not None:
            importlib.import_module(info.name)


class LayerTrace:
    """The span stack, the per-callable counters and the installed wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []  # callable id -> "module:qualname"
        self.layer_ids: List[int] = []  # callable id -> layer index
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self.entries = [0] * len(LAYER_NAMES)  # spans entered from another layer
        self.root = [0.0, len(LAYERS)]  # [child time, layer index of "other"]
        self.stack = [self.root]
        self._undo: List[Tuple[object, str, object]] = []
        self._t0 = 0.0
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: int, name: str) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        self.layer_ids.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        stack, push, pop = self.stack, self.stack.append, self.stack.pop
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        entries, clock = self.entries, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[1] != layer:
                entries[layer] += 1
            frame = [0.0, layer]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                parent[0] += dt
                self_s[fid] += dt - frame[0]
                incl_s[fid] += dt
                calls[fid] += 1

        return traced

    def start(self) -> None:
        """Zero every counter and start the traced wall clock."""
        for seq in (self.calls, self.self_s, self.incl_s):
            for i in range(len(seq)):
                seq[i] = 0
        self.entries[:] = [0] * len(LAYER_NAMES)
        self.root[0] = 0.0
        self._t0 = perf_counter()

    def stop(self) -> None:
        self.wall_s = perf_counter() - self._t0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every callable defined in a layer module."""
        import_layer_modules()
        originals: Dict[int, Callable] = {}
        for modname in sorted(sys.modules):
            layer = layer_of(modname)
            module = sys.modules[modname]
            if layer is None or module is None:
                continue
            index = list(LAYERS).index(layer)
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isfunction(value) and _wrappable(value):
                    wrapper = self._wrap(value, index, f"{modname}:{attr}")
                    originals[id(value)] = wrapper
                    self._set(module, attr, wrapper)
                elif inspect.isclass(value) and _class_wrappable(value):
                    self._wrap_class(value, index, modname)
        # re-point names imported elsewhere with ``from module import f``
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper is not value:
                    self._set(module, attr, wrapper)

    def _wrap_class(self, cls: type, layer: int, modname: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            name = f"{modname}:{cls.__qualname__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                if _wrappable(value.__func__):
                    wrapped = self._wrap(value.__func__, layer, name)
                    self._set(cls, attr, type(value)(wrapped))
            elif isinstance(value, property):
                if value.fget is not None and _wrappable(value.fget):
                    fset = value.fset
                    if fset is not None and _wrappable(fset):
                        fset = self._wrap(fset, layer, name + ".setter")
                    self._set(cls, attr, property(
                        self._wrap(value.fget, layer, name), fset,
                        value.fdel, value.__doc__))
            elif inspect.isfunction(value) and _wrappable(value):
                self._set(cls, attr, self._wrap(value, layer, name))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        """Self time per layer, ``other`` included."""
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        for fid, value in enumerate(self.self_s):
            totals[LAYER_NAMES[self.layer_ids[fid]]] += value
        totals[OTHER] = self.wall_s - self.root[0]
        return totals

    def elapsed(self) -> float:
        """Traced wall clock so far (since :meth:`start`)."""
        return perf_counter() - self._t0

    def layer_entries(self) -> Dict[str, int]:
        return dict(zip(LAYER_NAMES, self.entries))

    def select(self, prefix: str, what: str = "calls",
               suffix: str = "") -> float:
        """Sum ``calls``/``self_s``/``incl_s`` over matching callables.

        A callable matches when its ``module:qualname`` starts with
        ``prefix`` and ends with ``suffix``, e.g. prefix
        ``"repro.sim.link:Link._deliver"``.
        """
        values = getattr(self, what)
        return sum(values[fid] for fid, name in enumerate(self.names)
                   if name.startswith(prefix) and name.endswith(suffix))

    def check(self) -> Optional[str]:
        """None when the stack unwound and the split fits and sums to the wall."""
        if len(self.stack) != 1:
            return f"span stack left {len(self.stack) - 1} frames open"
        split = self.layer_self()
        if split[OTHER] < -1e-9:
            return (f"top-level spans cover {self.root[0]!r}s, more than the "
                    f"traced wall clock {self.wall_s!r}s")
        total = sum(split.values())
        if abs(total - self.wall_s) > 1e-6 * max(self.wall_s, 1.0):
            return (f"layer self-times sum to {total!r}s, traced wall "
                    f"clock is {self.wall_s!r}s")
        return None


def _wrappable(fn: Callable) -> bool:
    return not (inspect.isgeneratorfunction(fn)
                or inspect.iscoroutinefunction(fn)
                or inspect.isasyncgenfunction(fn))


def _class_wrappable(cls: type) -> bool:
    return not (issubclass(cls, (Enum, BaseException))
                or getattr(cls, "_is_protocol", False))
