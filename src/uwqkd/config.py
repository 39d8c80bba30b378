"""Experiment configs.

A single JSON config describes one experiment: pulse budget, three rng seeds
(transmitter, receiver, channel), source intensities, water channel, receiver
losses, detector noise and frame misalignment. Physics parameters carry units
in their key names and have no implicit defaults; protocol conventions
(sample fraction, Cascade passes, timeout) do default.

Building a config loads only this module and the `source`, `channel` and
`detection` settings it validates with: not the session machines, Cascade,
the analysis, sockets or hashing, so each endpoint process reaches its first
config without paying for them.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from .channel import ReceiverLoss, WaterChannel, transmittance
from .detection import DetectorConfig, DoubleClickPolicy
from .source import SourceConfig, check_means

MIN_KEY_BITS = 64  # Cascade's shortest key


class ConfigError(ValueError):
    """A config file is missing required keys or holds invalid values."""


@dataclass(frozen=True)
class ProtocolOptions:
    mu: float = 0.8
    nu: float = 0.1
    sample_fraction: float = 0.1
    q: float = 0.5
    error_correction_efficiency: float = 1.16
    repetition_rate_hz: float = 20e6
    n_cascade_passes: int = 4
    min_key_bits: int = MIN_KEY_BITS
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        check_means(self.mu, self.nu)
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample fraction must be in (0, 1)")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("sifting factor q must be in (0, 1]")
        if not 1.0 <= self.error_correction_efficiency < math.inf:
            raise ValueError("error correction efficiency must be finite and >= 1")
        if not 1 <= self.n_cascade_passes <= 128:
            # pass indices travel as one byte, and a retried Cascade runs twice as many
            raise ValueError("reconciliation passes must be in [1, 128]")
        if self.min_key_bits < MIN_KEY_BITS:
            raise ValueError(f"min_key_bits must be >= {MIN_KEY_BITS}, Cascade's shortest key")
        if not 0.0 < self.timeout_s <= threading.TIMEOUT_MAX:
            # sockets and locks refuse a longer wait
            raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX:.0f}] s")


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
        """Probability that a photon at the source aperture yields a click chance."""
        return transmittance(self.total_loss_db)

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
        import hashlib  # only sessions need a digest; building a config does not

        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).digest()[:16]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required config key {context}{key}")
    return mapping[key]


def _cast(value, cast, key: str):
    """cast(value), or a ConfigError naming the key. A cast `[item]` takes a
    JSON array and casts each entry (named `key[i]`), and `_Section` gives a
    sub-section. No key takes a bool, so true or false is an error, not the 1
    or 0 that float() or int() would read; an int key takes only a whole
    number, so a fraction is an error, not a value int() truncates."""
    if isinstance(cast, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} must be a JSON array")
        return [_cast(item, cast[0], f"{key}[{i}]") for i, item in enumerate(value)]
    if cast is _Section:
        return _Section(value, key)
    try:
        if isinstance(value, bool):
            raise ValueError(f"must not be a boolean, got {value!r}")
        if cast is int and not float(value).is_integer():
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
