"""In-memory spans around the calls into each layer, for the traced run.

The library carries no instrumentation. `Tracer.installed()` replaces each
layer's public functions with timing wrappers at the name where the caller
looks them up: `uwqkd.harness.generate_pulse_train`, not only
`uwqkd.source.generate_pulse_train`, because the harness imported the name
into its own namespace. Methods are replaced on their classes. Everything is
put back when the block ends.

A span records its name, start, end, parent span, session id and thread,
plus counts taken at the same boundary (frames and bytes per frame type,
bits into and out of the Toeplitz hash, and so on). A span's self time is its
duration minus the durations of its direct children; children always run in
the parent's thread, so they never overlap one another.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

import uwqkd.harness as harness
import uwqkd.postprocess as postprocess
import uwqkd.protocol as protocol
import uwqkd.transport as transport


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    session: int
    thread: str
    role: str = ""  # endpoint role, for protocol steps
    counts: dict = field(default_factory=dict)


def _count_pulses(span, args, kwargs, train):
    span.counts["source.pulses"] = len(train.kind)


def _count_clicks(span, args, kwargs, batch):
    span.counts["detection.slots"] = len(batch.clicked)
    span.counts["detection.clicks"] = int(np.count_nonzero(batch.clicked))


def _note_role(span, args, kwargs, frames):
    span.role = args[0].role


def _count_frame(span, args, kwargs, data):
    kind = args[0].frame_type.name
    span.counts[f"protocol.frames.{kind}"] = 1
    span.counts[f"protocol.bytes.{kind}"] = len(data)


def _count_pa_bits(span, args, kwargs, key):
    seed = args[1]
    span.counts["postprocess.toeplitz_in_bits"] = seed.input_length
    span.counts["postprocess.toeplitz_out_bits"] = seed.output_length


def _count_parity_reply(span, args, kwargs, reply):
    span.counts["postprocess.cascade_round_trips"] = 1
    if reply[0] == "pass_parities":
        span.counts["postprocess.parity_bits"] = len(reply[2])
    elif reply[0] == "range_reply":
        span.counts["postprocess.parity_bits"] = len(reply[1])


# (owner, attribute, span name, count hook). Cascade's constructors are
# included because they build the per-pass permutations, which is Cascade work.
_TRACED = [
    (harness, "simulate_quantum_phase", "harness.quantum", None),
    (harness, "generate_pulse_train", "source", _count_pulses),
    (harness, "simulate_detection", "detection", _count_clicks),
    (protocol.AliceSession, "start", "protocol.step", _note_role),
    (protocol.AliceSession, "step", "protocol.step", _note_role),
    (protocol.BobSession, "step", "protocol.step", _note_role),
    (transport, "encode_frame", "protocol.codec", _count_frame),
    (protocol, "decode_frame", "protocol.codec", None),
    (protocol, "toeplitz_hash", "postprocess.toeplitz", _count_pa_bits),
    (postprocess.CascadeCorrector, "__init__", "postprocess.cascade", None),
    (postprocess.CascadeCorrector, "start", "postprocess.cascade", None),
    (postprocess.CascadeCorrector, "on_reply", "postprocess.cascade", None),
    (postprocess.CascadeResponder, "__init__", "postprocess.cascade", None),
    (postprocess.CascadeResponder, "on_message", "postprocess.cascade", _count_parity_reply),
    (postprocess, "key_hash_64", "postprocess.key_hash", None),
    (protocol, "estimate_bounds", "analysis", None),
    (protocol, "secure_key_rate", "analysis", None),
    (transport.InProcessPump, "run", "transport", None),
    (harness, "run_socket_session", "transport", None),
    (transport, "read_frame_bytes", "transport.wait", None),
]


class Tracer:
    """Records spans in memory; `session` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.session = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name. The count hook
        runs inside the span, so its small cost lands on the layer it counts."""
        stack = self._stack()
        span = Span(
            name, 0.0, 0.0, stack[-1] if stack else -1, self.session,
            threading.current_thread().name,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(span, args, kwargs, result)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced name with its wrapper for the block's duration."""
        saved = []
        try:
            for owner, attr, name, count in _TRACED:
                saved.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)  # the name was inherited; uncover it again
                else:
                    setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def session_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per session: '<name>.busy' (time in outermost spans of that name),
    '<name>.self' (time minus direct children), summed counts, and
    'transport.step_gaps' (time each endpoint sat between its own steps)."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    steps = defaultdict(list)
    for index, span in enumerate(spans):
        out = totals[span.session]
        duration = span.end - span.start
        parent = spans[span.parent] if span.parent >= 0 else None
        if parent is None or parent.name != span.name:
            out[f"{span.name}.busy"] += duration
        out[f"{span.name}.self"] += duration - child_time[index]
        for key, value in span.counts.items():
            out[key] += value
        if span.name == "protocol.step" and parent is not None and parent.name == "transport":
            steps[(span.session, span.role)].append(span)
    for (session, _), endpoint_steps in steps.items():
        endpoint_steps.sort(key=lambda s: s.start)
        totals[session]["transport.step_gaps"] += sum(
            later.start - earlier.end for earlier, later in zip(endpoint_steps, endpoint_steps[1:])
        )
    return totals
