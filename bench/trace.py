"""Benchmark-side span tracer: where the host time of a workload goes.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` wraps, from
outside and for the duration of one traced run:

- every callback handed to ``EventScheduler.schedule`` /
  ``schedule_at`` / ``schedule_every``, every port handler given to
  ``Node.listen`` and every bus handler given to ``SignalBus.register``,
  in a span named after the layer of the callback's *owner* — in a
  discrete-event program that dispatch is the layer boundary;
- the public entry points the probes time (:data:`ENTRY_POINTS`);
- ``EventScheduler.run`` and ``schedule`` themselves, so heap and
  dispatch-loop time is the event core's own.

Spans nest on a stack.  A span's self time is its duration minus its
children's; per-layer self times therefore partition the traced wall
time exactly (the remainder outside every span is ``other``).
Aggregates are kept per layer and per (parent, layer) edge, with the
first :data:`MAX_RAW_SPANS` raw spans (name, start, end, parent index,
operation id where the arguments expose a generation or session).
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

MAX_RAW_SPANS = 50_000

#: Module prefix -> layer, longest prefix wins.  Layer names are module
#: names; a few small modules ride with the layer they serve.
LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.gf", "gf"),
    ("repro.rlnc.header", "wire"),
    ("repro.rlnc.packet", "wire"),
    ("repro.rlnc", "rlnc"),
    ("repro.net.events", "net.events"),
    ("repro.net.buffer", "core.vnf"),
    ("repro.net", "net.link"),
    ("repro.core.vnf", "core.vnf"),
    ("repro.core.forwarding", "core.vnf"),
    ("repro.core.signals", "core.signals"),
    ("repro.core.daemon", "core.signals"),
    ("repro.core.controller", "shard"),  # only HeartbeatMonitor runs in these workloads
    ("repro.apps", "apps"),
    ("repro.adapt", "adapt"),
    ("repro.lp", "lp"),
    ("repro.fleet", "fleet"),
    ("repro.shard", "shard"),
)
OTHER = "other"

#: (module, class or None, attribute) of every wrapped public entry point.
ENTRY_POINTS: tuple[tuple[str, str | None, str], ...] = (
    ("repro.gf.field", "GaloisField", "matmul"),
    ("repro.gf.field", "GaloisField", "linear_combination"),
    ("repro.gf.field", "GaloisField", "random_elements"),
    ("repro.gf.field", "GaloisField", "random_nonzero"),
    ("repro.rlnc.encoder", "Encoder", "next_packets"),
    ("repro.rlnc.encoder", "Encoder", "coded_packets"),
    ("repro.rlnc.recoder", "Recoder", "add"),
    ("repro.rlnc.recoder", "Recoder", "recode"),
    ("repro.rlnc.recoder", "Recoder", "recode_batch"),
    ("repro.rlnc.decoder", "Decoder", "add"),
    ("repro.rlnc.decoder", "Decoder", "decode"),
    ("repro.rlnc.generation", None, "segment"),
    ("repro.rlnc.generation", None, "reassemble"),
    ("repro.rlnc.packet", "CodedPacket", "encode"),
    ("repro.rlnc.packet", "CodedPacket", "decode"),
    ("repro.rlnc.packet", "CodedPacket", "verify"),
    ("repro.net.link", "Link", "send"),
    ("repro.net.node", "Node", "send"),
    ("repro.core.vnf", "CodingVnf", "inject"),
    ("repro.core.signals", "SignalBus", "send"),
    ("repro.fleet.manager", "FleetManager", "admit"),
    ("repro.fleet.manager", "FleetManager", "depart"),
    ("repro.fleet.manager", "FleetManager", "replan_session"),
    ("repro.shard.plane", "ShardedControlPlane", "submit"),
    ("repro.shard.plane", "ShardedControlPlane", "depart"),
    ("repro.lp.model", "LinearProgram", "solve"),
    ("repro.lp.simplex", None, "solve_simplex"),
    # ``from repro.lp.simplex import solve_simplex`` binds a second name.
    ("repro.fleet.planner", None, "solve_simplex"),
)


def layer_of_module(module: str | None) -> str:
    if module:
        best = ""
        layer = OTHER
        for prefix, name in LAYERS:
            if len(prefix) > len(best) and (module == prefix or module.startswith(prefix + ".")):
                best, layer = prefix, name
        return layer
    return OTHER


def _operation_id(args: tuple[Any, ...]) -> str | None:
    """``gen:<id>`` / ``session:<id>`` when a leading argument exposes one."""
    for subject in args[:2]:
        for candidate in (subject, getattr(subject, "payload", None)):
            generation = getattr(candidate, "generation_id", None)
            if isinstance(generation, int):
                return f"gen:{generation}"
        session = getattr(subject, "session_id", None)
        if isinstance(session, int):
            return f"session:{session}"
    return None


class Tracer:
    """Span stack, per-layer aggregates and the monkey-patch bookkeeping."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # frames: [layer, child_time, raw index or -1]
        self.layers: dict[str, list[float]] = {}  # layer -> [count, total_s, self_s]
        self.edges: dict[tuple[str, str], list[float]] = {}  # (parent, layer) -> [count, total_s]
        self.raw: list[tuple[str, float, float, int, str | None] | None] = []
        #: Spans are recorded only while this is set (the workload's timed
        #: regions); outside it a wrapped call is a plain call.
        self.recording = False
        self._layer_cache: dict[Any, str] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span attributed to ``layer``."""
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack
        raw = self.raw
        index = -1
        if len(raw) < MAX_RAW_SPANS:
            index = len(raw)
            raw.append(None)
        frame = [layer, 0.0, index]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            parent = stack[-1] if stack else None
            totals = self.layers.get(layer)
            if totals is None:
                totals = self.layers[layer] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[1]
            parent_layer = OTHER
            if parent is not None:
                parent[1] += duration
                parent_layer = parent[0]
            edge = self.edges.get((parent_layer, layer))
            if edge is None:
                edge = self.edges[(parent_layer, layer)] = [0, 0.0]
            edge[0] += 1
            edge[1] += duration
            if index >= 0:
                parent_index = parent[2] if parent is not None else -1
                raw[index] = (layer, start, end, parent_index, _operation_id(args))

    def layer_of(self, fn: Callable[..., Any]) -> str:
        """Layer of a callback's owner (bound instance's class, else module)."""
        if isinstance(fn, functools.partial):
            fn = fn.func
        owner = getattr(fn, "__self__", None)
        key = type(owner) if owner is not None else getattr(fn, "__module__", None)
        layer = self._layer_cache.get(key)
        if layer is None:
            module = key.__module__ if isinstance(key, type) else key
            layer = self._layer_cache[key] = layer_of_module(module)
        return layer

    def _wrapped_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return functools.partial(self.call, self.layer_of(fn), fn)

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap_entry_point(self, owner: Any, name: str) -> None:
        """Span a public callable under the layer of the module that defines it."""
        original = owner.__dict__[name]
        tracer_call = self.call
        layer = layer_of_module(getattr(original, "__func__", original).__module__)
        if isinstance(original, classmethod):
            inner = original.__func__

            def class_wrapper(cls: type, *args: Any, **kwargs: Any) -> Any:
                return tracer_call(layer, inner, cls, *args, **kwargs)

            replacement: Any = classmethod(functools.wraps(inner)(class_wrapper))
        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer_call(layer, original, *args, **kwargs)

            replacement = functools.wraps(original)(wrapper)
        self._patch(owner, name, replacement)

    def install(self) -> None:
        """Patch the program's layer boundaries; undo with :meth:`uninstall`."""
        from repro.core.signals import SignalBus
        from repro.net.events import EventScheduler, PeriodicEvent
        from repro.net.node import Node

        for module_name, class_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._wrap_entry_point(owner, attr)

        tracer = self
        schedule = EventScheduler.__dict__["schedule"]
        schedule_every = EventScheduler.__dict__["schedule_every"]
        run = EventScheduler.__dict__["run"]
        listen = Node.__dict__["listen"]
        register = SignalBus.__dict__["register"]
        events = "net.events"

        def traced_schedule(self: Any, delay: float, fn: Callable[..., Any], *args: Any) -> Any:
            # schedule_at funnels through here.  A PeriodicEvent's tick is
            # left bare: its inner callback was wrapped by schedule_every.
            if not isinstance(getattr(fn, "__self__", None), PeriodicEvent):
                args = (tracer.layer_of(fn), fn, *args)
                fn = tracer.call
            return tracer.call(events, schedule, self, delay, fn, *args)

        def traced_schedule_every(
            self: Any, interval: float, fn: Callable[..., Any], *args: Any, **kwargs: Any
        ) -> Any:
            return schedule_every(self, interval, tracer._wrapped_callback(fn), *args, **kwargs)

        def traced_run(self: Any, *args: Any, **kwargs: Any) -> Any:
            return tracer.call(events, run, self, *args, **kwargs)

        def traced_listen(self: Any, port: int, handler: Callable[..., Any]) -> None:
            listen(self, port, tracer._wrapped_callback(handler))

        def traced_register(self: Any, name: str, handler: Callable[..., Any]) -> None:
            register(self, name, tracer._wrapped_callback(handler))

        self._patch(EventScheduler, "schedule", traced_schedule)
        self._patch(EventScheduler, "schedule_every", traced_schedule_every)
        self._patch(EventScheduler, "run", traced_run)
        self._patch(Node, "listen", traced_listen)
        self._patch(SignalBus, "register", traced_register)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def self_shares(self, wall_s: float) -> dict[str, float]:
        """Per-layer self time over ``wall_s``; the unattributed rest is ``other``."""
        shares = {layer: totals[2] / wall_s for layer, totals in self.layers.items() if layer != OTHER}
        shares[OTHER] = 1.0 - sum(shares.values())
        return shares

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        document = {
            **header,
            "layers": [
                {"layer": layer, "count": int(t[0]), "total_s": t[1], "self_s": t[2]}
                for layer, t in sorted(self.layers.items())
            ],
            "edges": [
                {"parent": parent, "layer": layer, "count": int(t[0]), "total_s": t[1]}
                for (parent, layer), t in sorted(self.edges.items())
            ],
            "raw_spans": [span for span in self.raw if span is not None],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")
