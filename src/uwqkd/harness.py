"""End-to-end experiment orchestration, from a `config.ExperimentConfig`.

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
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (
    DecoyStatistics,
    SinglePhotonBounds,
    sweep_distance,
    SweepPoint,
)
from .channel import jerlov_coefficient
from .config import ExperimentConfig
from .detection import BobView, simulate_detection
from .polarization import (
    Polarization,
    ideal_state,
    misalignment_error_prob,
    rotate,
    simulate_tomography_counts,
    fidelity,
    tomography,
)
from .protocol import AliceSession, BobSession, Phase
from .source import AliceView, chunk_slices, generate_pulse_train, uniform_bytes
from .transport import InProcessPump, run_socket_session, save_transcript


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
    """Deterministic quantum phase from the three role seeds, one call per
    stream.

    Alice's view is `simulate_transmitter`'s. Bob's bases are one fair bit a
    slot, drawn already packed: (n + 7) // 8 `uniform_bytes` bytes from his
    seed, slot by slot from each byte's top bit, with the pad bits after
    slot n cleared. One `simulate_detection` call then draws his clicks (the
    channel stream, chunk by chunk, see the `detection` module docstring),
    giving the session's `BobView`. A 2^20-slot chunk is 2^17 PCG64 words of
    Alice's stream and 2^14 of Bob's, so chunk k of hers starts at
    `advance(k * 2^17)` and of his at `advance(k * 2^14)`.

    Each stream has its own generator. The words and bases of a run of n
    slots are the first n of any longer run with the same seeds; its clicks
    are only up to the last whole 2^20-slot chunk, since the candidates of a
    chunk are a binomial draw over its length, so the clicks of a short last
    chunk change when the run grows.

    The basis match fraction is counted on packed bytes: per chunk, the set
    bits of Alice's packed bases XOR Bob's are the mismatched slots.
    """
    n = cfg.n_pulses
    alice_view = simulate_transmitter(cfg)
    bob_basis = uniform_bytes(np.random.default_rng(cfg.seed_bob), (n + 7) // 8)
    bob_basis[-1] &= 0xFF << (-n % 8) & 0xFF  # clear the pad bits after slot n
    bob_view = simulate_detection(
        alice_view, bob_basis, cfg.source.class_means, cfg.eta, cfg.detector, cfg.misalignment_rad,
        np.random.default_rng(cfg.seed_channel),
    )
    n_differ = 0
    for lo, hi in chunk_slices(n):
        # Alice's basis is bit 1 of her word; both pads are clear
        alice_basis = np.packbits(alice_view.word[lo:hi] & 2)
        n_differ += int(np.count_nonzero(np.unpackbits(alice_basis ^ bob_basis[lo >> 3 : (hi + 7) >> 3])))
    return QuantumPhaseResult(alice_view, bob_view, (n - n_differ) / n)


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
    aborted = session.phase is Phase.ABORTED
    rate = session.rate_report
    key_bits = session.final_key
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
            "n_clicks": len(quantum.bob_view.slots) if quantum else session.n_clicked,
            "n_multi_clicks": len(quantum.bob_view.multi_slots) if quantum else None,
            "discarded_doubles": quantum.bob_view.discarded_doubles if quantum else None,
            "total_loss_db": cfg.total_loss_db,
            "eta": cfg.eta,
        },
        statistics=_stats_dict(session.statistics),
        bounds=_bounds_dict(session.bounds),
        rate=rate_dict,
        reconciliation={
            "qber_sample": session.qber_sample,
            "qber_hint": session.qber_hint,
            "leaked_bits": session.leaked_bits,
            "parity_bits": session.parity_bits,
            "corrections": session.corrections,
            "residual_check": session.residual_check,
            "n_clicked": session.n_clicked,
            "n_matched": session.n_matched,
            "n_matched_signal": session.n_matched_signal,
            "n_sampled": session.n_sampled,
        },
        key={
            "length": int(len(key_bits)),
            "sha256": hashlib.sha256(np.packbits(key_bits).tobytes()).hexdigest(),
            "no_key": session.no_key,
            "capped": bool(session.decision.capped) if session.decision else False,
            "realized_rate_bps": realized_bps,
        },
        flags=list(dict.fromkeys(session.flags)),
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
