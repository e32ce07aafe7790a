"""Span tracing of the program's layers, done entirely from outside.

The benchmark never edits ``src/``.  For a traced session it replaces the
public entry points of each layer with thin wrappers (``Patches``) that
record one span per call: layer, call name, start, end, parent span, the
frame slot the call ran in, and an optional size (bytes copied, effects
returned, the frame an input was requested for).  Spans stay in memory
until the session ends; :class:`SpanSummary` then folds them into per-layer
self times, where a span's self time is its duration minus the durations
of its direct children.

Asyncio note: only synchronous calls become spans.  ``AsyncUdpEndpoint.wait``
is the one awaiting call that is wrapped, and it records how late the
driver woke instead of a span, so spans of concurrently running site
coroutines never nest into each other.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: One presented frame of simulated or wall time.
SLOT_S = 1.0 / 60.0

#: Layers in the order reports list them.
LAYERS = (
    "emulator",
    "state",
    "inputs",
    "lockstep",
    "codec",
    "engine",
    "sim",
    "obs",
    "aio",
)

#: Span tuple fields.
LAYER, NAME, START, END, PARENT, FRAME, SIZE = range(7)


class Tracer:
    """Collects spans for one traced session."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        #: Frame slot stamped onto every span (set by the session driver).
        self.frame = 0
        #: Seconds each awaited wakeup landed after its deadline (aio).
        self.wake_late: List[float] = []

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        size: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent, tracer.frame, 0)
            if size is not None:
                spans[index] = spans[index][:SIZE] + (size(args, result),)
            return result

        return traced

    def wrap_wait(self, fn: Callable, origin: float) -> Callable:
        """Wrap ``AsyncUdpEndpoint.wait``: record lateness, advance the slot."""
        tracer = self
        late = self.wake_late
        clock = time.monotonic

        async def traced_wait(endpoint, timeout):
            called = clock()
            await fn(endpoint, timeout)
            now = clock()
            if timeout is not None and now >= called + timeout:
                late.append(now - called - timeout)
            tracer.frame = int((now - origin) / SLOT_S)

        return traced_wait


class Patches:
    """Reversible attribute replacement on classes and modules."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def _result_len(args: tuple, result: object) -> int:
    return len(result)


def _arg_len(args: tuple, result: object) -> int:
    return len(args[1])


def _frame_arg(args: tuple, result: object) -> int:
    return args[1]


def instrument(
    tracer: Tracer,
    patches: Patches,
    machine_cls: type,
    engine_cls: type,
    aio_origin: Optional[float] = None,
) -> None:
    """Wrap every layer's public calls for the session about to be built.

    ``machine_cls`` and ``engine_cls`` are the concrete classes the session
    uses, so calls that subclasses override are the ones wrapped.
    ``aio_origin`` (a ``time.monotonic`` reading) enables the asyncio
    endpoint wrappers.
    """
    from repro.core import engine as engine_module
    from repro.core import messages
    from repro.core.inputs import PadSource
    from repro.core.lockstep import LockstepSync
    from repro.net.simnet import SimSocket
    from repro.obs.registry import Counter, Gauge, Histogram
    from repro.obs.site import SiteMetrics
    from repro.obs.trace import EventTrace
    from repro.sim.eventloop import EventLoop

    def wrap(layer, owner, name, label=None, size=None):
        fn = getattr(owner, name)
        patches.replace(
            owner, name, tracer.wrap(layer, label or name, fn, size)
        )

    wrap("emulator", machine_cls, "step")
    wrap("state", machine_cls, "checksum")
    wrap("state", machine_cls, "save_state", size=_result_len)
    wrap("state", machine_cls, "save_delta", size=_result_len)
    wrap("state", machine_cls, "load_state", size=_arg_len)
    wrap("state", machine_cls, "apply_delta", size=_arg_len)

    wrap("inputs", PadSource, "get", size=_frame_arg)

    for name in ("buffer_local_input", "build_sync_for", "on_sync", "deliver"):
        wrap("lockstep", LockstepSync, name)

    # The engine's outbox encodes each body once (``_encode_body``) and
    # frames it with ``encode_packet`` / ``pack_batch`` bound in its own
    # namespace; ``Message.encode`` serves every other sender.
    wrap("codec", messages.Message, "encode")
    body_classes = [
        klass
        for klass in vars(messages).values()
        if isinstance(klass, type)
        and issubclass(klass, messages.Message)
        and "_encode_body" in vars(klass)
    ]
    for klass in body_classes:
        wrap("codec", klass, "_encode_body", label="encode_body")
    wrap("codec", engine_module, "encode_packet")
    wrap("codec", engine_module, "pack_batch")
    wrap("codec", messages, "decode")

    for name in ("start", "handle", "poll"):
        wrap("engine", engine_cls, name, size=_result_len)

    wrap("sim", EventLoop, "step")
    wrap("sim", SimSocket, "send")
    wrap("sim", SimSocket, "deliver")

    wrap("obs", EventTrace, "emit")
    for name in ("on_begin_frame", "on_commit", "on_rollback", "on_frame_latency"):
        wrap("obs", SiteMetrics, name)
    wrap("obs", Counter, "inc", label="counter_inc")
    wrap("obs", Gauge, "set", label="gauge_set")
    wrap("obs", Histogram, "observe", label="histogram_observe")

    if aio_origin is not None:
        from repro.net.udp import AsyncUdpEndpoint

        wrap("aio", AsyncUdpEndpoint, "send")
        wrap("aio", AsyncUdpEndpoint, "receive_all")
        patches.replace(
            AsyncUdpEndpoint,
            "wait",
            tracer.wrap_wait(AsyncUdpEndpoint.wait, aio_origin),
        )


class SpanSummary:
    """Per-layer and per-call totals folded from one or more span lists."""

    def __init__(self) -> None:
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.name_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.name_self: Dict[Tuple[str, str], float] = defaultdict(float)
        self.name_size: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Inclusive seconds of layer-root spans (a layer's calls not
        #: nested in another call of the same layer), per call name.
        self.name_inclusive: Dict[Tuple[str, str], float] = defaultdict(float)
        self.root_seconds = 0.0
        self.spans = 0
        #: ``inputs.get`` calls for the last tenth of frames: (count, seconds).
        self.late_inputs = [0, 0.0]

    def add(self, spans: List[tuple], frames: int) -> None:
        """Fold one session's spans in; ``frames`` sets the last decile."""
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                child[parent] += span[END] - span[START]
        last_decile = frames - frames // 10
        for index, span in enumerate(spans):
            layer, name = span[LAYER], span[NAME]
            duration = span[END] - span[START]
            own = duration - child[index]
            key = (layer, name)
            self.layer_self[layer] += own
            self.name_calls[key] += 1
            self.name_self[key] += own
            self.name_size[key] += span[SIZE]
            parent = span[PARENT]
            if parent < 0:
                self.root_seconds += duration
            if parent < 0 or spans[parent][LAYER] != layer:
                self.name_inclusive[key] += duration
            if layer == "inputs" and span[SIZE] >= last_decile:
                self.late_inputs[0] += 1
                self.late_inputs[1] += duration
        self.spans += len(spans)

    def merge(self, other: "SpanSummary") -> None:
        for mine, theirs in (
            (self.layer_self, other.layer_self),
            (self.name_calls, other.name_calls),
            (self.name_self, other.name_self),
            (self.name_size, other.name_size),
            (self.name_inclusive, other.name_inclusive),
        ):
            for key, value in theirs.items():
                mine[key] += value
        self.root_seconds += other.root_seconds
        self.spans += other.spans
        self.late_inputs[0] += other.late_inputs[0]
        self.late_inputs[1] += other.late_inputs[1]

    def counts(self) -> dict:
        """Call counts and sizes per call name: what must repeat exactly."""
        return {
            f"{layer}.{name}": (calls, self.name_size[(layer, name)])
            for (layer, name), calls in sorted(self.name_calls.items())
        }

    def self_total(self) -> float:
        return sum(self.layer_self.values())

    def calls(self, layer: str, names: Optional[Tuple[str, ...]] = None) -> int:
        return sum(
            count
            for (span_layer, name), count in self.name_calls.items()
            if span_layer == layer and (names is None or name in names)
        )

    def inclusive(self, layer: str, names: Tuple[str, ...]) -> float:
        return sum(
            seconds
            for (span_layer, name), seconds in self.name_inclusive.items()
            if span_layer == layer and name in names
        )

    def size(self, layer: str, names: Tuple[str, ...]) -> int:
        return sum(
            total
            for (span_layer, name), total in self.name_size.items()
            if span_layer == layer and name in names
        )


def reconcile(summary: SpanSummary, total_seconds: float) -> Dict[str, float]:
    """Check that self times add up; return the unattributed remainder.

    Two identities must hold: the layers' self times sum to the duration
    of the root spans (every traced second is owned by exactly one
    layer), and the roots fit inside the traced total, leaving a
    non-negative remainder for the untraced glue between calls.
    """
    attributed = summary.self_total()
    tolerance = 1e-9 * max(1, summary.spans) + 1e-9 * total_seconds
    if abs(attributed - summary.root_seconds) > tolerance:
        raise AssertionError(
            f"layer self times {attributed:.9f}s do not add up to the "
            f"root spans {summary.root_seconds:.9f}s"
        )
    remainder = total_seconds - attributed
    if remainder < -tolerance:
        raise AssertionError(
            f"spans cover {attributed:.6f}s, more than the traced total "
            f"{total_seconds:.6f}s"
        )
    return {"attributed_s": attributed, "unattributed_s": remainder}


def write_spans(path: str, spans: List[tuple]) -> None:
    """Write spans as tab-separated rows, one per line, with a header."""
    with open(path, "w") as handle:
        handle.write("id\tparent\tframe\tlayer\tname\tstart_s\tend_s\tsize\n")
        for index, span in enumerate(spans):
            handle.write(
                f"{index}\t{span[PARENT]}\t{span[FRAME]}\t{span[LAYER]}\t"
                f"{span[NAME]}\t{span[START]:.9f}\t{span[END]:.9f}\t{span[SIZE]}\n"
            )
