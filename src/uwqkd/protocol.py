"""Classical coordination protocol between transmitter and receiver.

Wire format (all integers big-endian):

    tag(1) | sequence(4) | payload_length(3) | payload | crc32(4)

The CRC-32 (standard reflected 0x04C11DB7, as in zlib) covers every byte
before it. Sequence numbers count from 0 independently per direction; a gap
means the transport lost a frame and the session aborts.

The quantum phase is over before either endpoint exists. The transmitter
reads her `source.AliceView`, one word a slot; the receiver reads his
`detection.BobView`, his packed bases and his clicks.

Message flow:

    Alice SYNC_HELLO        config digest and slot count
    Bob   SYNC_HELLO        his reply; the digests must match
    Bob   BASIS_REVEAL      clicked slot indices + measurement bases, in the
                            same step as his reply
    Alice SIFT_ACK          per-class totals, sample/cascade seeds, the sample
                            fraction, and per click its class byte and a
                            match bit (the bases agreed)
    Bob   QBER_SAMPLE       his bits: sampled signal, all matched decoy/vacuum
    Alice QBER_SAMPLE       her bits for the same slots
    both  RECON_MSG ...     Cascade (Bob corrects toward Alice's key); a range
                            query is one pass index and two index columns
    Alice PA_SEED           Toeplitz seed and final length
    both  Done

Every payload layout is one row of PAYLOAD_LAYOUTS, the payload spec;
encode_payload and decode_payload are its only writer and reader.

Sampled signal bits are the only signal-class key material ever put on the
wire; they are removed from the key on both sides. Decoy and vacuum class
bits are fully disclosed for exact estimation, never used as key.

Each session holds one Cascade party, `cascade`: the transmitter's
responder or the receiver's corrector. The party owns Cascade's outcome
(corrections, the residual digest check) and the ledger of disclosed parity
bits and digests; the session reads them in place, as 0 or None when Cascade
was skipped, and both sides end reconciliation on one path once the last
digest is in.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .analysis import (
    DecoyStatistics,
    KeyRateReport,
    SinglePhotonBounds,
    estimate_bounds,
    secure_key_rate,
)
from .postprocess import (
    CascadeCorrector,
    CascadeResponder,
    KeyLengthDecision,
    PASeed,
    ReconciliationFailed,
    final_key_length,
    generate_pa_seed,
    toeplitz_hash,
)
from .config import ProtocolOptions
from .detection import BobView, _ascending_in_range
from .source import AliceView, StateClass

MAX_PAYLOAD = (1 << 24) - 1
_HEADER = struct.Struct(">BI")  # tag, sequence; then 3 length bytes
HEADER_SIZE = 1 + 4 + 3
_MIN_FRAME = HEADER_SIZE + 4


class FrameType(IntEnum):
    SYNC_HELLO = 0x01
    BASIS_REVEAL = 0x02
    SIFT_ACK = 0x04
    QBER_SAMPLE = 0x05
    RECON_MSG = 0x06
    PA_SEED = 0x07
    ABORT = 0x08


class FrameDecodeError(ValueError):
    pass


class FrameTruncatedError(FrameDecodeError):
    counter = "truncated"  # its key in a session's error_counters


class FrameChecksumError(FrameDecodeError):
    counter = "crc"


class UnknownFrameTypeError(FrameDecodeError):
    counter = "unknown_type"


# the frames a session drops and counts, in the order of their error_counters keys
_FRAME_ERRORS = (FrameChecksumError, FrameTruncatedError, UnknownFrameTypeError)


class PayloadTooLargeError(ValueError):
    """A frame payload longer than the 3-byte length field can carry."""


@dataclass(frozen=True)
class Frame:
    frame_type: FrameType
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.sequence <= 0xFFFFFFFF:
            raise ValueError("sequence must fit in 32 bits")
        if len(self.payload) > MAX_PAYLOAD:
            raise PayloadTooLargeError("payload exceeds 2^24 - 1 bytes")


def encode_frame(frame: Frame) -> bytes:
    body = (
        _HEADER.pack(int(frame.frame_type), frame.sequence)
        + len(frame.payload).to_bytes(3, "big")
        + frame.payload
    )
    return body + struct.pack(">I", zlib.crc32(body))


def bytes_after_header(header: bytes) -> int:
    """How many bytes follow a frame's HEADER_SIZE-byte header: payload and CRC."""
    return int.from_bytes(header[5:HEADER_SIZE], "big") + 4


def decode_frame(data: bytes) -> Frame:
    if len(data) < _MIN_FRAME:
        raise FrameTruncatedError(f"frame needs at least {_MIN_FRAME} bytes, got {len(data)}")
    tag, sequence = _HEADER.unpack_from(data)
    total = HEADER_SIZE + bytes_after_header(data)
    if len(data) != total:
        raise FrameTruncatedError(f"frame declares {total} bytes, got {len(data)}")
    (crc,) = struct.unpack_from(">I", data, total - 4)
    if zlib.crc32(data[: total - 4]) != crc:
        raise FrameChecksumError("checksum mismatch")
    try:
        frame_type = FrameType(tag)
    except ValueError:
        raise UnknownFrameTypeError(f"unknown frame type 0x{tag:02x}") from None
    return Frame(frame_type, sequence, data[HEADER_SIZE : total - 4])


# ---------------------------------------------------------------------------
# payload layouts: the wire spec of every frame payload
#
# A layout is an ordered tuple of fields. A scalar is (name, big-endian struct
# code). An array is (name, kind, count): kind is "bits" (packed MSB first,
# padded to a whole byte), ">u4" (slot or key indices, read as int64) or "u1"
# (bytes); count is the earlier field holding its length, which the encoder
# fills in (arrays that share it must be as long), or a function of the fields
# before it. RECON_MSG payloads open with a subkind byte that picks the
# layout; a Cascade range query is one pass index and two index columns, lo
# and hi. A QBER_SAMPLE's sender role tells Bob's disclosure from Alice's echo.

PAYLOAD_LAYOUTS = {
    FrameType.SYNC_HELLO: (("role", ">B"), ("digest", ">16s"), ("n_slots", ">Q")),
    FrameType.BASIS_REVEAL: (("n", ">I"), ("slots", ">u4", "n"), ("bases", "bits", "n")),
    # per click of the BASIS_REVEAL, in its order: class byte and match bit
    FrameType.SIFT_ACK: (
        ("n_signal", ">Q"), ("n_decoy", ">Q"), ("n_vacuum", ">Q"),
        ("sample_seed", ">Q"), ("cascade_seed", ">Q"), ("fraction", ">d"),
        ("n", ">I"), ("kinds", "u1", "n"), ("matched", "bits", "n"),
    ),
    # sampled signal bits, all matched decoy and vacuum bits
    FrameType.QBER_SAMPLE: (
        ("n_signal", ">I"), ("signal", "bits", "n_signal"),
        ("n_decoy", ">I"), ("decoy", "bits", "n_decoy"),
        ("n_vacuum", ">I"), ("vacuum", "bits", "n_vacuum"),
    ),
    # RECON_MSG subkind i carries Cascade's message RECON_KINDS[i]
    (FrameType.RECON_MSG, 0): (("subkind", ">B"), ("pass_index", ">B")),
    (FrameType.RECON_MSG, 1): (
        ("subkind", ">B"), ("pass_index", ">B"), ("n", ">I"), ("parities", "bits", "n"),
    ),
    (FrameType.RECON_MSG, 2): (
        ("subkind", ">B"), ("pass_index", ">B"), ("n", ">I"), ("lo", ">u4", "n"), ("hi", ">u4", "n"),
    ),
    (FrameType.RECON_MSG, 3): (("subkind", ">B"), ("n", ">I"), ("parities", "bits", "n")),
    (FrameType.RECON_MSG, 4): (("subkind", ">B"), ("digest", ">Q"), ("corrections", ">I")),
    (FrameType.RECON_MSG, 5): (("subkind", ">B"), ("ok", ">?")),
    FrameType.PA_SEED: (
        ("m", ">I"), ("n", ">I"), ("flags", ">B"),
        ("seed", "bits", lambda fields: max(fields["n"] + fields["m"] - 1, 0)),
    ),
    FrameType.ABORT: (("reason", ">B"), ("length", ">H"), ("message", "u1", "length")),
}
RECON_KINDS = ("pass_begin", "pass_parities", "range_query", "range_reply", "verify", "verify_result")
# the fields a caller passes and gets back: all but the filled-in counts
_VALUES = {
    key: tuple(f[0] for f in layout if f[0] not in {c[2] for c in layout if len(c) == 3})
    for key, layout in PAYLOAD_LAYOUTS.items()
}


def _array_bytes(kind, count: int) -> int:
    return (count + 7) // 8 if kind == "bits" else count * np.dtype(kind).itemsize


def _write_array(kind, values) -> bytes:
    if kind == "bits":
        return np.packbits(np.asarray(values, dtype=np.uint8)).tobytes()
    return np.asarray(values, dtype=kind).tobytes()


def _read_array(kind, data, count: int):
    if kind == "bits":
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    values = np.frombuffer(data, dtype=kind)
    return values.astype(np.int64) if kind == ">u4" else values


def encode_payload(frame_type: FrameType, *values) -> bytes:
    """The payload holding `values` in the order of their layout's fields,
    counts left out; a RECON_MSG subkind comes first. ValueError if arrays
    that share a count differ in length."""
    key = (frame_type, values[0]) if frame_type is FrameType.RECON_MSG else frame_type
    layout = PAYLOAD_LAYOUTS[key]
    fields = dict(zip(_VALUES[key], values, strict=True))
    for name, _, *count in layout:
        if count and isinstance(count[0], str):
            n = len(fields[name])
            if fields.setdefault(count[0], n) != n:
                raise ValueError(f"{frame_type.name} field {name} has {n} values, not {fields[count[0]]}")
    return b"".join(
        _write_array(kind, fields[name]) if count else struct.pack(kind, fields[name])
        for name, kind, *count in layout
    )


def decode_payload(frame_type: FrameType, payload: bytes) -> tuple:
    """The values encode_payload took; FrameDecodeError unless the payload is
    exactly one of the frame type's layouts."""
    key = frame_type
    if frame_type is FrameType.RECON_MSG:
        if not payload:
            raise FrameDecodeError(f"empty {frame_type.name} payload")
        key = (frame_type, payload[0])
        if key not in PAYLOAD_LAYOUTS:
            raise FrameDecodeError(f"unknown {frame_type.name} subkind {payload[0]}")
    data = memoryview(payload)
    fields = {}
    offset = 0
    for name, kind, *count in PAYLOAD_LAYOUTS[key]:
        if count:
            n = fields[count[0]] if isinstance(count[0], str) else count[0](fields)
            size = _array_bytes(kind, n)
        else:
            size = struct.calcsize(kind)
        if offset + size > len(data):
            raise FrameDecodeError(f"{frame_type.name} field {name} truncated")
        chunk = data[offset : offset + size]
        fields[name] = _read_array(kind, chunk, n) if count else struct.unpack(kind, chunk)[0]
        offset += size
    if offset != len(data):
        raise FrameDecodeError(f"{len(data) - offset} trailing {frame_type.name} payload bytes")
    return tuple(fields[name] for name in _VALUES[key])


# ---------------------------------------------------------------------------
# session state machines


class Phase(Enum):
    IDLE = "idle"
    SIFTING = "sifting"
    ESTIMATION = "estimation"
    RECONCILIATION = "reconciliation"
    AMPLIFICATION = "amplification"
    DONE = "done"
    ABORTED = "aborted"


class AbortReason(IntEnum):
    CONFIG_MISMATCH = 1
    PHASE_VIOLATION = 2
    SEQUENCE_GAP = 3
    VERIFY_FAILED = 4
    LENGTH_MISMATCH = 5
    TIMEOUT = 6
    PEER_ABORT = 7
    INTERNAL = 8


@dataclass(frozen=True)
class IncomingFrame:
    data: bytes


@dataclass(frozen=True)
class Timeout:
    """The driver gave up waiting for the peer; the session aborts."""


# aborts that each count once in error_counters, under the reason's lower-case name
_COUNTED_ABORTS = (AbortReason.SEQUENCE_GAP, AbortReason.PHASE_VIOLATION, AbortReason.TIMEOUT)


class _Session:
    """Shared state-machine mechanics for both endpoints."""

    role = "?"

    def __init__(self, options: ProtocolOptions, config_digest: bytes, n_slots: int):
        if len(config_digest) != 16:
            raise ValueError("config digest must be 16 bytes")
        self.options = options
        self.config_digest = config_digest
        self.n_slots = n_slots
        self.phase = Phase.IDLE
        self.next_send_seq = 0
        self.next_recv_seq = 0
        self.error_counters = dict.fromkeys(
            (*(e.counter for e in _FRAME_ERRORS), *(r.name.lower() for r in _COUNTED_ABORTS)), 0
        )
        self.abort_reason: AbortReason | None = None
        self.abort_message = ""
        self.flags: list[str] = []
        # filled in as the protocol runs
        self.n_clicked = 0
        self.n_matched = 0
        self.matched_signal_bits = np.zeros(0, dtype=np.uint8)
        self.matched_decoy_bits = np.zeros(0, dtype=np.uint8)
        self.matched_vacuum_bits = np.zeros(0, dtype=np.uint8)
        self.emitted_per_class: dict[StateClass, int] = {}
        self.clicks_per_class: dict[StateClass, int] = {}
        self.sample_positions = np.zeros(0, dtype=np.int64)
        self.sample_errors = 0
        self.decoy_errors = 0
        self.qber_hint: float | None = None
        self.cascade_seed = 0
        self.remaining_key = np.zeros(0, dtype=np.uint8)
        self.cascade: CascadeResponder | CascadeCorrector | None = None
        self.statistics: DecoyStatistics | None = None
        self.bounds: SinglePhotonBounds | None = None
        self.rate_report: KeyRateReport | None = None
        self.decision: KeyLengthDecision | None = None
        self.final_key = np.zeros(0, dtype=np.uint8)
        self.no_key = False

    # -- plumbing ----------------------------------------------------------

    def _emit(self, frame_type: FrameType, *values) -> Frame:
        frame = Frame(frame_type, self.next_send_seq, encode_payload(frame_type, *values))
        self.next_send_seq += 1
        return frame

    def _emit_recon(self, msg: tuple) -> Frame:
        return self._emit(FrameType.RECON_MSG, RECON_KINDS.index(msg[0]), *msg[1:])

    def _abort(self, reason: AbortReason, message: str, *, notify: bool = True) -> list[Frame]:
        if reason in _COUNTED_ABORTS:
            self.error_counters[reason.name.lower()] += 1
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        self.abort_message = message
        self.no_key = True
        if isinstance(self.cascade, CascadeCorrector):
            self.cascade.close()  # a Cascade cut short: its generator holds the corrector
        if not notify:
            return []
        return [self._emit(FrameType.ABORT, int(reason), np.frombuffer(message.encode(), np.uint8))]

    def step(self, event) -> list[Frame]:
        """Advance the machine; returns frames to transmit."""
        if self.phase in (Phase.DONE, Phase.ABORTED):
            return []
        if isinstance(event, Timeout):
            return self._abort(AbortReason.TIMEOUT, "no progress before timeout")
        if isinstance(event, IncomingFrame):
            try:
                frame = decode_frame(event.data)
            except _FRAME_ERRORS as exc:
                self.error_counters[exc.counter] += 1
                return []
            if frame.sequence != self.next_recv_seq:
                return self._abort(
                    AbortReason.SEQUENCE_GAP,
                    f"expected sequence {self.next_recv_seq}, got {frame.sequence}",
                )
            self.next_recv_seq += 1
            if frame.frame_type is FrameType.ABORT:
                try:
                    reason = AbortReason(decode_payload(FrameType.ABORT, frame.payload)[0])
                except ValueError:
                    reason = AbortReason.PEER_ABORT  # a malformed payload or a reason we do not know
                self._abort(AbortReason.PEER_ABORT, f"peer aborted ({reason.name})", notify=False)
                return []
            handler = self._HANDLERS.get((frame.frame_type, self.phase))
            if handler is None:
                return self._abort(
                    AbortReason.PHASE_VIOLATION,
                    f"{frame.frame_type.name} not valid in phase {self.phase.value}",
                )
            sent = self.next_send_seq
            try:
                return handler(self, *decode_payload(frame.frame_type, frame.payload))
            except ReconciliationFailed as exc:
                problem = f"reconciliation broke down: {exc}"
            except (FrameDecodeError, IndexError) as exc:
                # a payload that is not its layout, or with indices out of range
                problem = f"malformed payload: {exc}"
            except PayloadTooLargeError as exc:
                # a reply this session cannot put on the wire
                problem = f"reply too large: {exc}"
            # frames the handler built before it raised are never sent
            self.next_send_seq = sent
            return self._abort(AbortReason.INTERNAL, problem)
        raise TypeError(f"unknown event {event!r}")

    # -- what the session knows, read in place -----------------------------

    @property
    def n_matched_signal(self) -> int:
        return len(self.matched_signal_bits)

    @property
    def n_sampled(self) -> int:
        return len(self.sample_positions)

    @property
    def qber_sample(self) -> float | None:
        return self.sample_errors / self.n_sampled if self.n_sampled else None

    # Cascade's outcome and ledger, off the session's party: 0 or None when skipped
    corrections = property(lambda self: 0 if self.cascade is None else self.cascade.corrections)
    parity_bits = property(lambda self: 0 if self.cascade is None else self.cascade.parity_bits)
    leaked_bits = property(lambda self: 0 if self.cascade is None else self.cascade.leaked_bits)
    residual_check = property(lambda self: None if self.cascade is None else self.cascade.residual_check)

    @property
    def result(self) -> _Session:
        """The session itself: its outcome is read off its attributes."""
        return self

    # -- shared estimation logic --------------------------------------------

    def _sample_selection(self, sample_seed: int) -> np.ndarray:
        """Sorted positions of the sampled matched signal bits: the sample
        fraction of them, rounded half up, and at least one."""
        n = self.n_matched_signal
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        k = max(1, min(int(np.floor(self.options.sample_fraction * n + 0.5)), n))
        rng = np.random.default_rng(sample_seed)
        return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)

    def _empty_class(self) -> StateClass | None:
        """A class with no emitted pulses, if any: its gain would divide by zero."""
        return next((v for v in StateClass if self.emitted_per_class[v] == 0), None)

    def _tally_classes(
        self, clicked_kind: np.ndarray, matched_kind: np.ndarray, matched_bits: np.ndarray
    ) -> None:
        """Clicks per class, and the matched-basis bits split by class."""
        counts = np.bincount(clicked_kind, minlength=3)
        self.clicks_per_class = {v: int(counts[v]) for v in StateClass}
        self.matched_signal_bits = matched_bits[matched_kind == StateClass.SIGNAL]
        self.matched_decoy_bits = matched_bits[matched_kind == StateClass.DECOY]
        self.matched_vacuum_bits = matched_bits[matched_kind == StateClass.VACUUM]

    def _sample_disclosure(self) -> Frame:
        """This side's sampled signal bits and all its matched decoy and vacuum bits."""
        signal = self.matched_signal_bits[self.sample_positions]
        return self._emit(FrameType.QBER_SAMPLE, signal, self.matched_decoy_bits, self.matched_vacuum_bits)

    def _tally_sample(self, signal: np.ndarray, decoy: np.ndarray, vacuum: np.ndarray) -> bool:
        """Count errors against the peer's disclosure, drop the sample from the
        key and set the Cascade hint; False if the peer's sizes differ from ours."""
        sizes = (self.n_sampled, len(self.matched_decoy_bits), len(self.matched_vacuum_bits))
        if (len(signal), len(decoy), len(vacuum)) != sizes:
            return False
        self.sample_errors = int(np.sum(self.matched_signal_bits[self.sample_positions] ^ signal))
        self.decoy_errors = int(np.sum(self.matched_decoy_bits ^ decoy))
        self.remaining_key = np.delete(self.matched_signal_bits, self.sample_positions)
        self.qber_hint = float(min(0.25, (self.sample_errors + 1) / (self.n_sampled + 2)))
        return True

    def _skip_reconciliation(self) -> bool:
        """Finish at once, with no key, when the corrected key is too short
        for Cascade; True if so."""
        if len(self.remaining_key) >= self.options.min_key_bits:
            return False
        self._finish()
        return True

    def _end_reconciliation(self) -> list[Frame]:
        """Once Cascade's last digest is in: flag a second round, abort on
        a failed check, or take the corrected key and finish."""
        if self.cascade.digests > 1:
            self.flags.append("reconciliation_retried")
        if not self.residual_check:
            return self._abort(AbortReason.VERIFY_FAILED, "reconciliation digest mismatch")
        self.remaining_key = self.cascade.key
        self._finish()
        return []

    def _finish(self) -> None:
        """Estimate, size the final key and move to AMPLIFICATION.

        Reached once Cascade has verified, or with residual_check still None
        when reconciliation was skipped; a skipped session keeps no key."""
        n_signal_matched = self.n_matched_signal
        flags = []
        if n_signal_matched > 0:
            e_mu = (self.sample_errors + self.corrections) / n_signal_matched
            if self.residual_check is None:
                flags.append("qber_from_sample_only")
        else:
            e_mu = 0.0
            flags.append("no_matched_signal_clicks")
        n_decoy_matched = len(self.matched_decoy_bits)
        e_nu = self.decoy_errors / n_decoy_matched if n_decoy_matched else 0.0
        if n_decoy_matched == 0:
            flags.append("no_matched_clicks_decoy")
        self.statistics = DecoyStatistics(
            q_mu=self.clicks_per_class[StateClass.SIGNAL] / self.emitted_per_class[StateClass.SIGNAL],
            e_mu=min(e_mu, 1.0),
            q_nu=self.clicks_per_class[StateClass.DECOY] / self.emitted_per_class[StateClass.DECOY],
            e_nu=min(e_nu, 1.0),
            y0=self.clicks_per_class[StateClass.VACUUM] / self.emitted_per_class[StateClass.VACUUM],
            mu=self.options.mu,
            nu=self.options.nu,
        )
        self.flags.extend(flags)
        self.flags.extend(self.statistics.flags)
        self.bounds = estimate_bounds(self.statistics)
        self.flags.extend(self.bounds.clamped)
        self.rate_report = secure_key_rate(
            self.statistics,
            self.bounds,
            q=self.options.q,
            error_correction_efficiency=self.options.error_correction_efficiency,
            repetition_rate_hz=self.options.repetition_rate_hz,
        )
        if self.rate_report.clamped_to_zero:
            self.flags.append("rate_clamped_to_zero")
        self.decision = final_key_length(
            self.n_slots, self.rate_report.r_per_pulse, len(self.remaining_key), self.leaked_bits
        )
        if self.residual_check is None and self.decision.length > 0:
            self.decision = KeyLengthDecision(length=0, capped=self.decision.capped)
            self.flags.append("insufficient_key_bits")
        if self.decision.capped:
            self.flags.append("final_length_capped")
        self.phase = Phase.AMPLIFICATION

    def _pa_flags(self) -> int:
        """The PA_SEED flags byte of this side's key-length decision."""
        return (1 if self.decision.capped else 0) | (2 if self.decision.length == 0 else 0)

    def _apply_pa(self, seed: PASeed) -> None:
        self.final_key = toeplitz_hash(self.remaining_key, seed)
        self.no_key = self.decision.length == 0
        if self.no_key:
            self.flags.append("no_key")
        self.phase = Phase.DONE


class AliceSession(_Session):
    """Transmitter endpoint: reference key holder and protocol initiator."""

    role = "alice"

    def __init__(
        self,
        view: AliceView,
        options: ProtocolOptions,
        config_digest: bytes,
        coin_rng: np.random.Generator,
    ):
        super().__init__(options, config_digest, len(view))
        self.view = view
        self.coin_rng = coin_rng

    def start(self) -> list[Frame]:
        if self.phase is not Phase.IDLE or self.next_send_seq:  # the hello is her first frame
            return []
        return [self._emit(FrameType.SYNC_HELLO, 0, self.config_digest, self.n_slots)]

    def _handle_hello_ack(self, role: int, digest: bytes, n_slots: int) -> list[Frame]:
        if role != 1 or digest != self.config_digest or n_slots != self.n_slots:
            return self._abort(AbortReason.CONFIG_MISMATCH, "peer configuration digest differs")
        self.phase = Phase.SIFTING
        return []

    def _handle_basis_reveal(self, slots: np.ndarray, bases: np.ndarray) -> list[Frame]:
        if not _ascending_in_range(slots, self.n_slots):
            return self._abort(AbortReason.INTERNAL, "clicked slot list not strictly ascending in range")
        self.n_clicked = len(slots)
        clicked = self.view.at(slots)
        kind = clicked.kind
        matched = clicked.basis == bases
        self.n_matched = int(np.count_nonzero(matched))
        self._tally_classes(kind, kind[matched], clicked.bit[matched])
        self.emitted_per_class = self.view.class_totals()
        empty = self._empty_class()
        if empty is not None:
            return self._abort(AbortReason.INTERNAL, f"no emitted pulses in class {empty.name}")
        sample_seed = int(self.coin_rng.integers(0, 2**63))
        self.cascade_seed = int(self.coin_rng.integers(0, 2**63))
        self.sample_positions = self._sample_selection(sample_seed)
        self.phase = Phase.ESTIMATION
        return [self._emit(
            FrameType.SIFT_ACK,
            *(self.emitted_per_class[v] for v in (StateClass.SIGNAL, StateClass.DECOY, StateClass.VACUUM)),
            sample_seed, self.cascade_seed, self.options.sample_fraction, kind, matched,
        )]

    def _handle_sample_bits(self, *disclosure) -> list[Frame]:
        if not self._tally_sample(*disclosure):
            return self._abort(AbortReason.LENGTH_MISMATCH, "sample disclosure sizes differ from sift result")
        reply = self._sample_disclosure()
        if self._skip_reconciliation():
            return [reply] + self._send_pa_seed()
        self.cascade = CascadeResponder(
            self.remaining_key, self.qber_hint, self.cascade_seed, self.options.n_cascade_passes
        )
        self.phase = Phase.RECONCILIATION
        return [reply]

    def _handle_recon(self, subkind: int, *values) -> list[Frame]:
        frames = [self._emit_recon(self.cascade.on_message((RECON_KINDS[subkind], *values)))]
        if self.residual_check is None:
            return frames
        frames += self._end_reconciliation()
        return frames if self.phase is Phase.ABORTED else frames + self._send_pa_seed()

    def _send_pa_seed(self) -> list[Frame]:
        n = len(self.remaining_key)
        m = self.decision.length
        seed = generate_pa_seed(n, m, self.coin_rng)
        frame = self._emit(FrameType.PA_SEED, m, n, self._pa_flags(), seed.bits)
        self._apply_pa(seed)
        return [frame]

    _HANDLERS = {
        (FrameType.SYNC_HELLO, Phase.IDLE): _handle_hello_ack,
        (FrameType.BASIS_REVEAL, Phase.SIFTING): _handle_basis_reveal,
        (FrameType.QBER_SAMPLE, Phase.ESTIMATION): _handle_sample_bits,
        (FrameType.RECON_MSG, Phase.RECONCILIATION): _handle_recon,
    }


class BobSession(_Session):
    """Receiver endpoint: corrects its key toward the transmitter's."""

    role = "bob"

    def __init__(
        self,
        view: BobView,
        options: ProtocolOptions,
        config_digest: bytes,
    ):
        super().__init__(options, config_digest, len(view))
        self.view = view

    def _handle_hello(self, role: int, digest: bytes, n_slots: int) -> list[Frame]:
        if role != 0:
            return self._abort(AbortReason.PHASE_VIOLATION, "unexpected hello role")
        if digest != self.config_digest or n_slots != self.n_slots:
            return self._abort(AbortReason.CONFIG_MISMATCH, "peer configuration digest differs")
        self.phase = Phase.SIFTING
        slots = self.view.slots
        self.n_clicked = len(slots)
        return [
            self._emit(FrameType.SYNC_HELLO, 1, self.config_digest, self.n_slots),
            self._emit(FrameType.BASIS_REVEAL, slots, self.view.basis_at(slots)),
        ]

    def _handle_sift_ack(
        self, n_signal: int, n_decoy: int, n_vacuum: int, sample_seed: int, cascade_seed: int,
        fraction: float, kinds: np.ndarray, matched: np.ndarray,
    ) -> list[Frame]:
        if len(kinds) != self.n_clicked:
            return self._abort(AbortReason.LENGTH_MISMATCH, "sift reply size differs from clicks")
        if np.any(kinds >= len(StateClass)):
            raise FrameDecodeError("class byte out of range")
        if n_signal + n_decoy + n_vacuum != self.n_slots:
            return self._abort(AbortReason.LENGTH_MISMATCH, "per-class totals do not cover all slots")
        self.emitted_per_class = {
            StateClass.SIGNAL: int(n_signal),
            StateClass.DECOY: int(n_decoy),
            StateClass.VACUUM: int(n_vacuum),
        }
        empty = self._empty_class()
        if empty is not None:
            return self._abort(AbortReason.INTERNAL, f"no emitted pulses in class {empty.name}")
        if not abs(fraction - self.options.sample_fraction) <= 1e-12:  # NaN fails too
            return self._abort(AbortReason.CONFIG_MISMATCH, "sample fraction differs from shared options")
        matched = matched.view(bool)
        self.n_matched = int(np.count_nonzero(matched))
        self._tally_classes(kinds, kinds[matched], self.view.bits[matched])
        self.cascade_seed = cascade_seed
        self.sample_positions = self._sample_selection(sample_seed)
        self.phase = Phase.ESTIMATION
        return [self._sample_disclosure()]

    def _handle_sample_echo(self, *echo) -> list[Frame]:
        if not self._tally_sample(*echo):
            return self._abort(AbortReason.LENGTH_MISMATCH, "sample echo sizes differ")
        if self._skip_reconciliation():
            return []
        self.cascade = CascadeCorrector(
            self.remaining_key, self.qber_hint, self.cascade_seed, self.options.n_cascade_passes
        )
        self.phase = Phase.RECONCILIATION
        return [self._emit_recon(self.cascade.start())]

    def _handle_recon(self, subkind: int, *values) -> list[Frame]:
        nxt = self.cascade.on_reply((RECON_KINDS[subkind], *values))
        return self._end_reconciliation() if nxt is None else [self._emit_recon(nxt)]

    def _handle_pa_seed(self, m: int, n: int, flags: int, seed_bits: np.ndarray) -> list[Frame]:
        if n != len(self.remaining_key):
            return self._abort(AbortReason.LENGTH_MISMATCH, "amplification input length differs")
        if m != self.decision.length:
            return self._abort(
                AbortReason.LENGTH_MISMATCH,
                f"peer final length {m} != local decision {self.decision.length}",
            )
        if flags != self._pa_flags():
            return self._abort(
                AbortReason.LENGTH_MISMATCH, f"peer length flags {flags} != local flags {self._pa_flags()}"
            )
        seed = PASeed(bits=seed_bits, input_length=n, output_length=m)
        self._apply_pa(seed)
        return []

    _HANDLERS = {
        (FrameType.SYNC_HELLO, Phase.IDLE): _handle_hello,
        (FrameType.SIFT_ACK, Phase.SIFTING): _handle_sift_ack,
        (FrameType.QBER_SAMPLE, Phase.ESTIMATION): _handle_sample_echo,
        (FrameType.RECON_MSG, Phase.RECONCILIATION): _handle_recon,
        (FrameType.PA_SEED, Phase.AMPLIFICATION): _handle_pa_seed,
    }
