"""Per-layer spans recorded from the benchmark, around calls into the package.

The package itself carries no instrumentation.  :meth:`Tracer.install` wraps
every public function of each layer module, and every public method and
property of its public classes, and rebinds the wrapper wherever a package
module holds the original by name.  A wrapper opens a span only when the
innermost open span belongs to another layer, so a call counts when it
crosses into a layer from another module or from the harness; calls inside
one module pass straight through.

A layer's self time is its span time minus the time of its child spans,
which belong to other layers by construction.  The harness is the root
layer, so the self times of all layers and the harness add up to the traced
op time.  Spans stay in memory (up to ``SPAN_CAP``) and are written out by
:meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "mpemba_thermometry"
LAYERS = (
    "qubit",
    "spectral",
    "fisher",
    "mpemba",
    "instances",
    "certificates",
    "protocol",
    "oracle",
    "config",
    "cli",
)
HARNESS = "harness"
SPAN_CAP = 50_000  # spans kept in memory and written out per run

# Element counters, kept only on calls that cross into the layer: a point
# counts once per crossing, however many helpers of the same module evaluate
# it.  Elements are counted from the argument that carries the evaluation
# points: a scalar is 1, an array its size.
_ELEMENT_COUNTERS = {
    "qubit": ("qubit.points", ("t",)),
    "spectral": ("spectral.modal_rows", ("t", "times")),
}


def _size(value) -> int:
    return int(np.size(value))


def _argument_getter(fn, name):
    """Return get(args, kwargs) for parameter ``name`` of ``fn``, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for index, param in enumerate(params):
        if param.name == name:
            default = param.default

            def get(args, kwargs, index=index, name=name, default=default):
                if len(args) > index:
                    return args[index]
                return kwargs.get(name, default)

            return get
    return None


def rk4_steps(times, dt) -> int:
    """Steps the fixed-step RK4 oracle takes on a checkpoint grid (computed)."""
    gaps = np.diff(np.asarray(times, dtype=float))
    return int(sum(max(1, int(round(gap / dt))) for gap in gaps))


class Tracer:
    """Spans and counts at the layer boundaries of one benchmark process."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[list] = [[HARNESS, 0.0, -1]]  # [layer, child_s, span]
        self._patches: list[tuple[object, str, object]] = []
        self.op_index = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.fn_self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.traced_op_s = 0.0

    # -- bookkeeping -----------------------------------------------------
    def op(self, fn, *args):
        """Run one traced op as a root span; returns (result, seconds)."""
        root = self._stack[0]
        root[1] = 0.0
        self.op_index += 1
        self.enabled = True
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        finally:
            elapsed = time.perf_counter() - start
            self.enabled = False
            del self._stack[1:]
            self.traced_op_s += elapsed
            self.self_s[HARNESS] += elapsed - root[1]

    def accounted_gap(self) -> float:
        """|sum of self times - traced op time| / traced op time."""
        total = sum(self.self_s.values())
        return abs(total - self.traced_op_s) / max(self.traced_op_s, 1e-300)

    # -- wrapping --------------------------------------------------------
    def _span(self, layer: str, qualname: str, fn, args, kwargs):
        stack = self._stack
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([self.op_index, qualname, stack[-1][2], 0.0, 0.0])
        frame = [layer, 0.0, index]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if stack and stack[-1] is frame:
                stack.pop()
                elapsed = end - start
                stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.calls[layer] += 1
                self.self_s[layer] += own
                self.fn_calls[qualname] += 1
                self.fn_self_s[qualname] += own
                if index >= 0:
                    self.spans[index][3] = start
                    self.spans[index][4] = end

    def _wrap(self, layer: str, qualname: str, fn):
        every_call = []  # work counts: each call is one stream or one integration
        crossing = []  # element counts: once per call into the layer
        counter = _ELEMENT_COUNTERS.get(layer)
        if counter is not None:
            key, names = counter
            for name in names:
                get = _argument_getter(fn, name)
                if get is not None:
                    crossing.append(lambda a, k, get=get, key=key: self._add(key, _size(get(a, k))))
                    break
        if qualname == "protocol.sampling_stream":
            every_call.append(lambda a, k: self._add("protocol.cells_sampled", 1))
        if qualname == "oracle.integrate_rate_equation":
            get_times = _argument_getter(fn, "times")
            get_dt = _argument_getter(fn, "dt")
            every_call.append(
                lambda a, k: self._add("oracle.rk4_steps", rk4_steps(get_times(a, k), get_dt(a, k)))
            )
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            for hook in every_call:
                hook(args, kwargs)
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            for hook in crossing:
                hook(args, kwargs)
            return tracer._span(layer, qualname, fn, args, kwargs)

        return traced

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them package-wide."""
        if self._patches:
            return
        replaced: dict[int, object] = {}
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replaced[id(value)] = self._wrap(layer, f"{layer}.{name}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(value):
                wrapped = self._wrap(layer, qualname, value)
            elif isinstance(value, property) and value.fset is None and value.fget is not None:
                wrapped = property(self._wrap(layer, qualname, value.fget), doc=value.__doc__)
            else:
                continue
            self._patches.append((cls, name, value))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        """Write the recorded spans (op, name, parent, start, end) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for op_index, name, parent, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op_index, "name": name, "parent": parent, "start": start, "end": end}
                    )
                    + "\n"
                )
