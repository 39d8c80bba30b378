"""Frame delivery between the two session endpoints.

Two interchangeable carriers: an in-process queue pump (deterministic, used
by the single-process harness and tests) and a length-delimited TCP stream.
Both deliver whole encoded frames to `Session.step(IncomingFrame(...))` and
record a transcript of every frame that crosses, in order; for the same
seeds the two transcripts are byte-equal.

A session only ever sees frames and, when its driver gives up waiting, one
`Timeout`. The in-process pump can drop frames with a seeded probability to
exercise the abort paths; the TCP carrier never reorders or drops (TCP
guarantees), so loss there shows up as a timeout.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .protocol import Frame, IncomingFrame, Phase, Timeout, encode_frame

_TERMINAL = (Phase.DONE, Phase.ABORTED)
MAX_DELIVERIES = 1_000_000  # a pump that delivers more frames than this has looped


@dataclass(frozen=True)
class TranscriptEntry:
    direction: str  # "alice->bob" or "bob->alice"
    data: bytes
    dropped: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {"direction": self.direction, "hex": self.data.hex(), "dropped": self.dropped}
        )


def save_transcript(entries: list[TranscriptEntry], path) -> None:
    with open(path, "w") as fh:
        for e in entries:
            fh.write(e.to_json() + "\n")


def load_transcript(path) -> list[TranscriptEntry]:
    entries = []
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            entries.append(
                TranscriptEntry(obj["direction"], bytes.fromhex(obj["hex"]), obj["dropped"])
            )
    return entries


class InProcessPump:
    """Run both sessions to completion over an in-memory FIFO.

    Delivery order is deterministic: frames are delivered strictly in the
    order they were emitted, one at a time. A stall (nothing in flight, a
    machine not terminal) times out both machines, transmitter first.
    """

    def __init__(
        self,
        alice,
        bob,
        *,
        drop_probability: float = 0.0,
        drop_seed: int = 0,
    ):
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self.alice = alice
        self.bob = bob
        self.drop_probability = drop_probability
        self._drop_rng = np.random.default_rng(drop_seed)
        self.transcript: list[TranscriptEntry] = []
        self._pending: deque[tuple[str, bytes]] = deque()

    def _send(self, sender, frames: list[Frame]) -> None:
        direction = f"{sender.role}->{'bob' if sender.role == 'alice' else 'alice'}"
        for frame in frames:
            data = encode_frame(frame)
            dropped = (
                self.drop_probability > 0.0
                and float(self._drop_rng.random()) < self.drop_probability
            )
            self.transcript.append(TranscriptEntry(direction, data, dropped))
            if not dropped:
                self._pending.append((sender.role, data))

    def run(self) -> list[TranscriptEntry]:
        self._send(self.alice, self.alice.start())
        deliveries = 0
        while self._pending or not (self.alice.phase in _TERMINAL and self.bob.phase in _TERMINAL):
            if not self._pending:  # a stall; a timed-out machine is terminal
                self._send(self.alice, self.alice.step(Timeout()))
                self._send(self.bob, self.bob.step(Timeout()))
                continue
            deliveries += 1
            if deliveries > MAX_DELIVERIES:
                raise RuntimeError("frame delivery budget exhausted")
            sender_role, data = self._pending.popleft()
            receiver = self.bob if sender_role == "alice" else self.alice
            if receiver.phase not in _TERMINAL:
                self._send(receiver, receiver.step(IncomingFrame(data)))
        return self.transcript


def _read_exact(sock: socket.socket, n: int, deadline: float) -> bytes | None:
    """Read exactly n bytes, into one buffer, or None on clean EOF; raises
    TimeoutError at deadline."""
    buf, got = bytearray(n), 0
    view = memoryview(buf)
    while got < n:
        if time.monotonic() > deadline:
            raise TimeoutError("socket read deadline exceeded")
        try:
            size = sock.recv_into(view[got:])
        except socket.timeout:
            continue
        if not size:
            if got:
                raise ConnectionError("peer closed mid-frame")
            return None
        got += size
    return bytes(buf)


def read_frame_bytes(sock: socket.socket, deadline: float) -> bytes | None:
    """Read one length-delimited frame off a stream; None on clean EOF."""
    header = _read_exact(sock, 8, deadline)
    if header is None:
        return None
    length = int.from_bytes(header[5:8], "big")
    rest = _read_exact(sock, length + 4, deadline)
    if rest is None:
        raise ConnectionError("peer closed mid-frame")
    return header + rest


def run_socket_session(session, sock: socket.socket) -> list[TranscriptEntry]:
    """Drive one session over a connected TCP socket until it terminates.

    The deadline is re-armed each time the session starts waiting for a
    frame, so `timeout_s` bounds a stall, not the session, as in
    `InProcessPump`. A missed deadline, a closed or reset connection and a
    failed send all end a session that is still running the same way: one
    `Timeout`, whose ABORT notice goes out if the peer is still there to take
    it."""
    other = "bob" if session.role == "alice" else "alice"
    transcript: list[TranscriptEntry] = []

    def ship(frames: list[Frame]) -> bool:
        """Send the frames in order; False once the peer is gone."""
        for frame in frames:
            data = encode_frame(frame)
            transcript.append(TranscriptEntry(f"{session.role}->{other}", data))
            try:
                sock.sendall(data)
            except OSError:
                return False
        return True

    sock.settimeout(0.2)
    connected = ship(session.start()) if session.role == "alice" else True
    while connected and session.phase not in _TERMINAL:
        try:
            data = read_frame_bytes(sock, time.monotonic() + session.options.timeout_s)
        except OSError:  # the deadline (TimeoutError), a reset, a close mid-frame
            data = None
        if data is None:
            break
        transcript.append(TranscriptEntry(f"{other}->{session.role}", data))
        connected = ship(session.step(IncomingFrame(data)))
    if session.phase not in _TERMINAL:
        ship(session.step(Timeout()))
    return transcript
