"""End-to-end experiment orchestration.

A single JSON config describes one experiment: pulse budget, three rng seeds
(transmitter, receiver, channel), source intensities, water channel, receiver
losses, detector noise and frame misalignment. Physics parameters carry units
in their key names and have no implicit defaults; protocol conventions
(sample fraction, Cascade passes, timeout) do default.

The quantum phase draws one stream per seed: the transmitter's 4-bit words
(a byte a slot), the receiver's bases (a bit a slot, drawn already packed)
and the channel's clicks (their cost follows the clicks).

`run_experiment` plays the whole protocol between two session machines over
an in-memory transport. `serve` and `connect` play the identical protocol
over TCP, each endpoint simulating only its own side from the shared config
(guarded by a config digest in the handshake): the receiver listens, then
runs the quantum phase for its view, while the transmitter draws only its own
stream. The classical traffic is the only coordination channel.
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    DecoyStatistics,
    SinglePhotonBounds,
    sweep_distance,
    SweepPoint,
)
from .channel import (
    ReceiverLoss,
    WaterChannel,
    end_to_end_transmittance,
    jerlov_coefficient,
)
from .detection import BobView, DetectorConfig, DoubleClickPolicy, simulate_detection
from .polarization import (
    Polarization,
    ideal_state,
    misalignment_error_prob,
    rotate,
    simulate_tomography_counts,
    fidelity,
    tomography,
)
from .protocol import (
    AliceSession,
    BobSession,
    Phase,
    ProtocolOptions,
)
from .source import AliceView, SourceConfig, chunk_slices, generate_pulse_train, uniform_bytes
from .transport import InProcessPump, run_socket_session, save_transcript


class ConfigError(ValueError):
    """A config file is missing required keys or holds invalid values."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_pulses: int
    seed_alice: int
    seed_bob: int
    seed_channel: int
    source: SourceConfig
    channel: WaterChannel
    receiver: ReceiverLoss
    detector: DetectorConfig
    misalignment_deg: float
    protocol: ProtocolOptions
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.n_pulses < 1 << 32:
            # slot indices travel as u32 on the wire
            raise ConfigError("n_pulses must be in [1, 2^32 - 1]")
        if min(self.seed_alice, self.seed_bob, self.seed_channel) < 0:
            raise ConfigError("seeds must be >= 0")
        if not math.isfinite(self.misalignment_deg):
            raise ConfigError("misalignment must be finite")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError("drop probability must be in [0, 1)")
        p, s = self.protocol, self.source
        if (p.mu, p.nu, p.repetition_rate_hz) != (s.mu, s.nu, s.repetition_rate_hz):
            # the digest lists only the source's values, so a mismatch would
            # estimate with the wrong intensities on both agreeing endpoints
            raise ConfigError("protocol mu, nu and repetition rate must equal the source's")

    @property
    def misalignment_rad(self) -> float:
        return math.radians(self.misalignment_deg)

    @property
    def total_loss_db(self) -> float:
        return self.channel.loss_db + self.receiver.total_db

    @property
    def eta(self) -> float:
        return end_to_end_transmittance(self.channel, self.receiver)

    def to_dict(self) -> dict:
        return {
            "n_pulses": self.n_pulses,
            "seeds": {"alice": self.seed_alice, "bob": self.seed_bob, "channel": self.seed_channel},
            "source": {
                "mu": self.source.mu,
                "nu": self.source.nu,
                "repetition_rate_hz": self.source.repetition_rate_hz,
            },
            "channel": {
                "attenuation_coefficient_per_m": self.channel.attenuation_coefficient,
                "length_m": self.channel.length_m,
                "preset": self.channel.preset_tag,
            },
            "receiver": {
                "optics_loss_db": self.receiver.optics_loss_db,
                "detector_efficiency": self.receiver.detector_efficiency,
            },
            "detector": {
                "dark_count_prob_per_gate": self.detector.dark_count_prob_per_gate,
                "double_click_policy": self.detector.double_click_policy.value,
            },
            "misalignment_deg": self.misalignment_deg,
            "protocol": {
                "sample_fraction": self.protocol.sample_fraction,
                "q": self.protocol.q,
                "error_correction_efficiency": self.protocol.error_correction_efficiency,
                "n_cascade_passes": self.protocol.n_cascade_passes,
                "min_key_bits": self.protocol.min_key_bits,
                "timeout_s": self.protocol.timeout_s,
            },
            "transport": {"drop_probability": self.drop_probability},
        }

    def digest(self) -> bytes:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).digest()[:16]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required config key {context}{key}")
    return mapping[key]


def _cast(value, cast, key: str):
    """cast(value), or a ConfigError naming the key. A cast `[item]` takes a
    JSON array and casts each entry (named `key[i]`), and `_Section` gives a
    sub-section; an int key takes only a whole number, so a fraction or a
    bool is an error, not a value int() truncates."""
    if isinstance(cast, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} must be a JSON array")
        return [_cast(item, cast[0], f"{key}[{i}]") for i, item in enumerate(value)]
    if cast is _Section:
        return _Section(value, key)
    try:
        if cast is int and (isinstance(value, bool) or not float(value).is_integer()):
            raise ValueError(f"must be an integer, got {value!r}")
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config key {key}: {exc}") from exc


class _Section:
    """One JSON object of a config, named by its key. It records the keys
    read from it, so that a key nothing reads (misspelt, or left from an
    older format) is rejected rather than ignored."""

    def __init__(self, mapping, name: str):
        if not isinstance(mapping, dict):
            raise ConfigError(f"config key {name} must be a JSON object")
        self.mapping, self.name, self.read, self.parts = mapping, name, set(), []

    def get(self, key: str, cast):
        """A required key, cast."""
        self.read.add(key)
        return _cast(_require(self.mapping, key, f"{self.name}."), cast, f"{self.name}.{key}")

    def present(self, **casts) -> dict:
        """The optional keys given, cast; those left out take the defaults of
        the callee they are passed to."""
        self.read.update(casts)
        given = {key: cast for key, cast in casts.items() if key in self.mapping}
        return {key: _cast(self.mapping[key], cast, f"{self.name}.{key}") for key, cast in given.items()}

    def sections(self, key: str) -> list["_Section"]:
        """A required JSON array of objects, one sub-section each, which
        `reject_unread` checks too."""
        parts = self.get(key, [_Section])
        self.parts += parts
        return parts

    def reject_unread(self) -> None:
        unread = sorted(set(self.mapping) - self.read)
        if unread:
            raise ConfigError("unused config key " + ", ".join(f"{self.name}.{k}" for k in unread))
        for part in self.parts:
            part.reject_unread()


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a config dict. Inside a section, a key this does not read is an
    error; other top-level keys (`sweep`, `calibration`) are left to their
    readers."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    try:
        seeds, source_d, channel_d, receiver_d, detector_d = (
            _Section(_require(data, name, ""), name)
            for name in ("seeds", "source", "channel", "receiver", "detector")
        )
        protocol_d, transport_d = (_Section(data.get(name, {}), name) for name in ("protocol", "transport"))
        source = SourceConfig(
            mu=source_d.get("mu", float),
            nu=source_d.get("nu", float),
            repetition_rate_hz=source_d.get("repetition_rate_hz", float),
            rng_seed=seeds.get("alice", int),
        )
        length_m = channel_d.get("length_m", float)
        if "jerlov_type" in channel_d.mapping:
            channel = WaterChannel.jerlov(channel_d.get("jerlov_type", str), length_m)
        else:
            channel = WaterChannel(channel_d.get("attenuation_coefficient_per_m", float), length_m)
        receiver = ReceiverLoss(
            optics_loss_db=receiver_d.get("optics_loss_db", float),
            detector_efficiency=receiver_d.get("detector_efficiency", float),
        )
        detector = DetectorConfig(
            dark_count_prob_per_gate=detector_d.get("dark_count_prob_per_gate", float),
            **detector_d.present(double_click_policy=DoubleClickPolicy),
        )
        protocol = ProtocolOptions(
            mu=source.mu,
            nu=source.nu,
            repetition_rate_hz=source.repetition_rate_hz,
            **protocol_d.present(
                sample_fraction=float,
                q=float,
                error_correction_efficiency=float,
                n_cascade_passes=int,
                min_key_bits=int,
                timeout_s=float,
            ),
        )
        cfg = ExperimentConfig(
            n_pulses=_cast(_require(data, "n_pulses", ""), int, "n_pulses"),
            seed_alice=seeds.get("alice", int),
            seed_bob=seeds.get("bob", int),
            seed_channel=seeds.get("channel", int),
            source=source,
            channel=channel,
            receiver=receiver,
            detector=detector,
            misalignment_deg=_cast(_require(data, "misalignment_deg", ""), float, "misalignment_deg"),
            protocol=protocol,
            **transport_d.present(drop_probability=float),
        )
        for section in (seeds, source_d, channel_d, receiver_d, detector_d, protocol_d, transport_d):
            section.reject_unread()
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def read_config(path) -> dict:
    """A config file's JSON, for `config_from_dict` and the readers of the
    other top-level sections."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_config(path))


def override_seeds(cfg: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Derive the three role seeds from one master seed (master, +1, +2).

    Every other field, a Jerlov preset included, is kept.
    """
    return replace(
        cfg,
        seed_alice=master_seed,
        seed_bob=master_seed + 1,
        seed_channel=master_seed + 2,
        source=replace(cfg.source, rng_seed=master_seed),
    )


# ---------------------------------------------------------------------------
# quantum phase


@dataclass(frozen=True)
class QuantumPhaseResult:
    alice_view: AliceView
    bob_view: BobView
    basis_match_fraction: float


def simulate_transmitter(cfg: ExperimentConfig) -> AliceView:
    """The transmitter's own stream: Alice's view from `seed_alice` only, in
    one `generate_pulse_train` call (the top nibble of a byte per slot)."""
    return generate_pulse_train(cfg.source, cfg.n_pulses, np.random.default_rng(cfg.seed_alice))


def simulate_quantum_phase(cfg: ExperimentConfig) -> QuantumPhaseResult:
    """Deterministic quantum phase from the three role seeds.

    Alice's view is `simulate_transmitter`'s. Then, per `chunk_slices`
    chunk, Bob's bases and his clicks (the channel stream, see the
    `detection` module docstring) are drawn, one call each, giving the
    chunk's `BobView`; `BobView.concatenate` joins them into the session's
    view. Bob's bases are one fair bit a slot, drawn already packed: the
    chunk's (m + 7) // 8 `uniform_bytes` bytes, slot by slot from each
    byte's top bit, with the pad bits of a short last chunk cleared. A full
    chunk draws 2^14 PCG64 words, so chunk k of Bob's stream starts at
    `advance(k * 2^14)`. Each stream has its own generator, so a run of n
    slots is a prefix of any longer run with the same seeds.

    The basis match fraction is counted on packed bytes: per chunk, the set
    bits of Alice's packed bases XOR Bob's are the mismatched slots.
    """
    n = cfg.n_pulses
    alice_view = simulate_transmitter(cfg)
    bob_rng, channel_rng = (np.random.default_rng(seed) for seed in (cfg.seed_bob, cfg.seed_channel))
    eta, class_means = cfg.eta, cfg.source.class_means
    chunks, n_differ = [], 0
    for lo, hi in chunk_slices(n):
        pulses, m = alice_view.at(slice(lo, hi)), hi - lo
        bob_basis = uniform_bytes(bob_rng, (m + 7) // 8)
        bob_basis[-1] &= 0xFF << (-m % 8) & 0xFF  # clear the pad bits after slot m
        chunks.append(simulate_detection(
            pulses, bob_basis, class_means, eta, cfg.detector, cfg.misalignment_rad, channel_rng
        ))
        # Alice's basis is bit 1 of her word; both pads are clear
        n_differ += int(np.count_nonzero(np.unpackbits(np.packbits(pulses.word & 2) ^ bob_basis)))
    return QuantumPhaseResult(alice_view, BobView.concatenate(chunks), (n - n_differ) / n)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RunReport:
    status: str
    abort: dict | None
    n_pulses: int
    config_digest: str
    config: dict
    quantum: dict
    statistics: dict | None
    bounds: dict | None
    rate: dict | None
    reconciliation: dict
    key: dict
    flags: list[str]
    error_counters: dict
    duration_s: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def _stats_dict(stats: DecoyStatistics | None) -> dict | None:
    if stats is None:
        return None
    return {
        "Q_mu": stats.q_mu,
        "E_mu": stats.e_mu,
        "Q_nu": stats.q_nu,
        "E_nu": stats.e_nu,
        "Y0": stats.y0,
        "mu": stats.mu,
        "nu": stats.nu,
        "flags": list(stats.flags),
    }


def _bounds_dict(bounds: SinglePhotonBounds | None) -> dict | None:
    if bounds is None:
        return None
    return {
        "Y1_L": bounds.y1_lower,
        "Q1": bounds.q1,
        "e1_U": bounds.e1_upper,
        "clamped": list(bounds.clamped),
    }


def _build_report(
    cfg: ExperimentConfig,
    quantum: QuantumPhaseResult | None,
    session,
    peer_error_counters: dict | None,
    duration_s: float,
) -> RunReport:
    res = session.result
    aborted = session.phase is Phase.ABORTED
    rate = res.rate_report
    key_bits = res.final_key
    realized_bps = len(key_bits) * cfg.source.repetition_rate_hz / cfg.n_pulses
    rate_dict = None
    if rate is not None:
        rate_dict = {
            "R_per_pulse": rate.r_per_pulse,
            "R_bps": rate.r_bits_per_second,
            "q": cfg.protocol.q,
            "error_correction_efficiency": cfg.protocol.error_correction_efficiency,
            "repetition_rate_hz": cfg.source.repetition_rate_hz,
            "clamped_to_zero": rate.clamped_to_zero,
        }
    counters = {"local": dict(session.error_counters)}
    if peer_error_counters is not None:
        counters["peer"] = dict(peer_error_counters)
    return RunReport(
        status="aborted" if aborted else "done",
        abort=(
            {
                "reason": session.abort_reason.name if session.abort_reason else "UNKNOWN",
                "message": session.abort_message,
            }
            if aborted
            else None
        ),
        n_pulses=cfg.n_pulses,
        config_digest=cfg.digest().hex(),
        config=cfg.to_dict(),
        # the transmitter (quantum None) knows only the clicks Bob reported
        quantum={
            "basis_match_fraction": quantum.basis_match_fraction if quantum else None,
            "n_clicks": len(quantum.bob_view.slots) if quantum else res.n_clicked,
            "n_multi_clicks": len(quantum.bob_view.multi_slots) if quantum else None,
            "discarded_doubles": quantum.bob_view.discarded_doubles if quantum else None,
            "total_loss_db": cfg.total_loss_db,
            "eta": cfg.eta,
        },
        statistics=_stats_dict(res.statistics),
        bounds=_bounds_dict(res.bounds),
        rate=rate_dict,
        reconciliation={
            "qber_sample": res.qber_sample,
            "qber_hint": res.qber_hint,
            "leaked_bits": res.leaked_bits,
            "parity_bits": res.parity_bits,
            "corrections": res.corrections,
            "residual_check": res.residual_check,
            "n_clicked": res.n_clicked,
            "n_matched": res.n_matched,
            "n_matched_signal": res.n_matched_signal,
            "n_sampled": res.n_sampled,
        },
        key={
            "length": int(len(key_bits)),
            "sha256": hashlib.sha256(np.packbits(key_bits).tobytes()).hexdigest(),
            "no_key": res.no_key,
            "capped": bool(res.decision.capped) if res.decision else False,
            "realized_rate_bps": realized_bps,
        },
        flags=list(res.flags),
        error_counters=counters,
        duration_s=duration_s,
    )


def _coin_rng(cfg: ExperimentConfig) -> np.random.Generator:
    # independent of the pulse-train stream but still derived from alice's seed
    return np.random.default_rng([cfg.seed_alice, 0xC0125EED])


def _drop_seed(cfg: ExperimentConfig) -> int:
    return (cfg.seed_channel * 2654435761 + 0xD20) % (1 << 63)


def run_experiment(cfg: ExperimentConfig, *, transcript_path=None) -> RunReport:
    """Full in-process run: quantum phase, then both sessions over a queue."""
    t0 = time.perf_counter()
    quantum = simulate_quantum_phase(cfg)
    digest = cfg.digest()
    alice = AliceSession(quantum.alice_view, cfg.protocol, digest, _coin_rng(cfg))
    bob = BobSession(quantum.bob_view, cfg.protocol, digest)
    pump = InProcessPump(
        alice, bob, drop_probability=cfg.drop_probability, drop_seed=_drop_seed(cfg)
    )
    transcript = pump.run()
    if transcript_path is not None:
        save_transcript(transcript, transcript_path)
    aborted_session = next((s for s in (alice, bob) if s.phase is Phase.ABORTED), None)
    session = aborted_session if aborted_session is not None else alice
    if aborted_session is None:
        if not np.array_equal(alice.final_key, bob.final_key):
            raise RuntimeError("endpoint keys differ after a completed session")
    duration = time.perf_counter() - t0
    peer = bob if session is alice else alice
    return _build_report(cfg, quantum, session, peer.error_counters, duration)


# ---------------------------------------------------------------------------
# two-party mode


def serve(cfg: ExperimentConfig, host: str, port: int, *, transcript_path=None) -> RunReport:
    """Receiver endpoint: listen, run the quantum phase, then accept one
    connection and run the session.

    Listening first lets the transmitter connect at once; its connection
    waits in the backlog until the phase is done.
    """
    t0 = time.perf_counter()
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        quantum = simulate_quantum_phase(cfg)
        bob = BobSession(quantum.bob_view, cfg.protocol, cfg.digest())
        server.settimeout(cfg.protocol.timeout_s)
        conn, _ = server.accept()
        # each endpoint writes several frames before it reads; with Nagle's
        # algorithm the last could wait ~40 ms for the peer's delayed ACK
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn:
            transcript = run_socket_session(bob, conn)
    if transcript_path is not None:
        save_transcript(transcript, transcript_path)
    return _build_report(cfg, quantum, bob, None, time.perf_counter() - t0)


def connect(cfg: ExperimentConfig, host: str, port: int, *, transcript_path=None) -> RunReport:
    """Transmitter endpoint: draw its own stream, connect to a listening
    receiver and run the session.

    The report's quantum section holds only what the transmitter knows: the
    receiver's click count (from its BASIS_REVEAL), and None for the basis
    match fraction, multi-clicks and discarded doubles.
    """
    t0 = time.perf_counter()
    alice = AliceSession(simulate_transmitter(cfg), cfg.protocol, cfg.digest(), _coin_rng(cfg))
    deadline = time.monotonic() + cfg.protocol.timeout_s
    last_err = ""
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=cfg.protocol.timeout_s)
            break
        except OSError as exc:
            # only the text: the exception's traceback holds this frame, and
            # so `alice`, until the cyclic GC runs
            last_err = str(exc)
            time.sleep(0.005)
    else:
        raise ConnectionError(f"could not reach {host}:{port}: {last_err}")
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as in serve
    with sock:
        transcript = run_socket_session(alice, sock)
    if transcript_path is not None:
        save_transcript(transcript, transcript_path)
    return _build_report(cfg, None, alice, None, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# sweeps and tomography


def run_sweep(
    cfg: ExperimentConfig,
    distances_m,
    water_types=("I", "II", "III"),
    *,
    y0: float | None = None,
    e_detector: float | None = None,
) -> dict[str, list[SweepPoint]]:
    """Analytic rate curves; noise defaults to the configured detector physics."""
    y0 = y0 if y0 is not None else cfg.detector.background_yield
    e_d = e_detector if e_detector is not None else misalignment_error_prob(cfg.misalignment_rad)
    out = {}
    for wt in water_types:
        out[wt] = sweep_distance(
            jerlov_coefficient(wt),
            distances_m,
            receiver=cfg.receiver,
            y0=y0,
            e_detector=e_d,
            mu=cfg.source.mu,
            nu=cfg.source.nu,
            q=cfg.protocol.q,
            error_correction_efficiency=cfg.protocol.error_correction_efficiency,
            repetition_rate_hz=cfg.source.repetition_rate_hz,
        )
    return out


def tomography_report(theta_deg: float, shots_per_basis: int, seed: int) -> dict:
    """Reconstruct all four transmitted states under a frame rotation."""
    rng = np.random.default_rng(seed)
    theta = math.radians(theta_deg)
    per_state = {}
    fidelities = []
    for pol in Polarization:
        sent = rotate(ideal_state(pol), theta)
        counts = simulate_tomography_counts(sent, shots_per_basis, rng)
        rho = tomography(counts)
        f = fidelity(rho, pol)
        fidelities.append(f)
        per_state[pol.name] = {
            "density_matrix_re": np.real(rho).tolist(),
            "density_matrix_im": np.imag(rho).tolist(),
            "fidelity_vs_ideal": f,
            "counts": {
                "H": counts.n_h, "V": counts.n_v,
                "P": counts.n_p, "M": counts.n_m,
                "R": counts.n_r, "L": counts.n_l,
            },
        }
    return {
        "misalignment_deg": theta_deg,
        "shots_per_basis": shots_per_basis,
        "seed": seed,
        "states": per_state,
        "average_fidelity": float(np.mean(fidelities)),
        "misalignment_error_prob": misalignment_error_prob(theta),
    }
