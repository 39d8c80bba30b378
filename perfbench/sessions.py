"""Run one complete key-exchange session and check what it produced.

A session is `run_experiment(cfg)` in process, or the `serve`/`connect` pair
over loopback TCP with `serve` in a second thread. The harness builds both
endpoint machines; `EndpointCapture` keeps a reference to each, so the checks
read every endpoint's own final state rather than one report.

A session fails if it raises, if either endpoint is not DONE, if either
endpoint's residual check is not True, or if the two endpoints' key hashes
differ. A failure is recorded on the session, never raised out of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

import uwqkd.harness as harness
from uwqkd import AliceSession, BobSession, Phase, StateClass, binary_entropy, run_experiment
from uwqkd.harness import connect, serve

from .workloads import Workload

LOOPBACK = "127.0.0.1"


@dataclass
class SessionRecord:
    seed: int
    wall_s: float
    n_pulses: int
    failure: str | None = None
    clicks: int = 0
    reconciled_bits: int = 0  # sifted signal bits minus the disclosed sample
    final_key_bits: int = 0
    key_bound_bits: int = 0  # floor(N_signal * R_per_pulse)
    key_sha256: str = ""
    leak_ratio: float | None = None  # leaked / (n * H2(e)), None when e = 0

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def key_over_bound(self) -> bool:
        return self.final_key_bits > self.key_bound_bits


class EndpointCapture:
    """Swap the harness's session classes for subclasses that remember the
    endpoints they build, keyed by role."""

    def __init__(self):
        self.endpoints: dict = {}

    @contextlib.contextmanager
    def installed(self):
        endpoints = self.endpoints

        class CapturedAlice(AliceSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                endpoints["alice"] = self

        class CapturedBob(BobSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                endpoints["bob"] = self

        saved = harness.AliceSession, harness.BobSession
        harness.AliceSession, harness.BobSession = CapturedAlice, CapturedBob
        try:
            yield self
        finally:
            harness.AliceSession, harness.BobSession = saved


def key_sha256(endpoint) -> str:
    return hashlib.sha256(np.packbits(endpoint.final_key).tobytes()).hexdigest()


def _exchange_over_tcp(cfg) -> None:
    with socket.socket() as probe:
        probe.bind((LOOPBACK, 0))
        port = probe.getsockname()[1]
    receiver_error: list[Exception] = []

    def receiver() -> None:
        try:
            serve(cfg, LOOPBACK, port)
        except Exception as exc:  # re-raised in the calling thread below
            receiver_error.append(exc)

    thread = threading.Thread(target=receiver, name="bob")
    thread.start()
    try:
        connect(cfg, LOOPBACK, port)
    finally:
        thread.join(cfg.protocol.timeout_s + 10.0)
    if thread.is_alive():
        raise TimeoutError("receiver thread still running after its timeout")
    if receiver_error:
        raise receiver_error[0]


def _check(endpoints: dict) -> str | None:
    for role in ("alice", "bob"):
        endpoint = endpoints.get(role)
        if endpoint is None:
            return f"{role} endpoint was never built"
        if endpoint.phase is not Phase.DONE:
            return f"{role} ended in phase {endpoint.phase.value}"
        if endpoint.residual_check is not True:
            return f"{role} residual check is {endpoint.residual_check}"
    if key_sha256(endpoints["alice"]) != key_sha256(endpoints["bob"]):
        return "endpoint key hashes differ"
    return None


def _describe(record: SessionRecord, alice) -> None:
    record.clicks = alice.n_clicked
    record.reconciled_bits = len(alice.matched_signal_bits) - len(alice.sample_positions)
    record.final_key_bits = len(alice.final_key)
    record.key_sha256 = key_sha256(alice)
    if alice.rate_report is not None:
        n_signal = alice.emitted_per_class[StateClass.SIGNAL]
        record.key_bound_bits = math.floor(n_signal * alice.rate_report.r_per_pulse)
    n = record.reconciled_bits
    if n > 0 and alice.corrections > 0:
        record.leak_ratio = alice.leaked_bits / (n * binary_entropy(alice.corrections / n))


def run_session(workload: Workload, seed: int, capture: EndpointCapture, run=None) -> SessionRecord:
    """Run and check one session; `run` wraps the call (the tracer's span)."""
    cfg = workload.config(seed)
    exchange = _exchange_over_tcp if workload.transport == "tcp" else run_experiment
    capture.endpoints.clear()
    record = SessionRecord(seed=seed, wall_s=0.0, n_pulses=cfg.n_pulses)
    start = time.perf_counter()
    try:
        if run is None:
            exchange(cfg)
        else:
            run(exchange, cfg)
    except Exception as exc:  # a failing session is counted, not allowed to end the run
        record.failure = f"raised {type(exc).__name__}: {exc}"
    record.wall_s = time.perf_counter() - start
    if record.failure is None:
        record.failure = _check(capture.endpoints)
    if "alice" in capture.endpoints:
        _describe(record, capture.endpoints["alice"])
    return record
