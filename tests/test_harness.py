"""End-to-end harness: config handling, reports, transports, CLI."""

import copy
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import socket
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from uwqkd import (
    AliceSession,
    BobSession,
    ConfigError,
    DetectorConfig,
    DoubleClickPolicy,
    ExperimentConfig,
    InProcessPump,
    Phase,
    ProtocolOptions,
    RunReport,
    StateClass,
    TranscriptEntry,
    WaterChannel,
    config_from_dict,
    decode_frame,
    expected_gain,
    jerlov_coefficient,
    load_config,
    load_transcript,
    misalignment_error_prob,
    override_seeds,
    run_experiment,
    run_sweep,
    save_transcript,
    simulate_quantum_phase,
    sweep_distance,
    tomography_report,
    validate_density_matrix,
)
from uwqkd import harness, protocol
from uwqkd.cli import EXIT_ABORT, EXIT_OK, EXIT_VALIDATION, main
from uwqkd.harness import connect, serve, simulate_transmitter
from uwqkd.source import chunk_slices, uniform_bytes
from uwqkd.protocol import AbortReason
from uwqkd.transport import read_frame_bytes, run_socket_session

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Short low-loss link: enough clicks from 1.2e5 pulses to finish every phase.
BASE = {
    "n_pulses": 120_000,
    "seeds": {"alice": 11, "bob": 22, "channel": 33},
    "source": {"mu": 0.8, "nu": 0.1, "repetition_rate_hz": 20e6},
    "channel": {"attenuation_coefficient_per_m": 0.05, "length_m": 10.0},
    "receiver": {"optics_loss_db": 0.5, "detector_efficiency": 0.9},
    "detector": {"dark_count_prob_per_gate": 1e-5},
    "misalignment_deg": 8.0,
}


def base_dict() -> dict:
    return copy.deepcopy(BASE)


@pytest.fixture(scope="module")
def base_cfg() -> ExperimentConfig:
    return config_from_dict(base_dict())


@pytest.fixture(scope="module")
def base_report(base_cfg) -> RunReport:
    return run_experiment(base_cfg)


# ---------------------------------------------------------------------------
# config parsing


def test_config_from_dict_wires_every_section(base_cfg):
    cfg = base_cfg
    assert cfg.n_pulses == 120_000
    assert (cfg.seed_alice, cfg.seed_bob, cfg.seed_channel) == (11, 22, 33)
    assert cfg.source.mu == 0.8 and cfg.source.nu == 0.1
    assert cfg.channel.attenuation_coefficient == 0.05
    assert cfg.channel.length_m == 10.0
    assert cfg.receiver.optics_loss_db == 0.5
    # detector efficiency lives in the receiver section only
    assert cfg.receiver.detector_efficiency == 0.9
    assert cfg.detector.dark_count_prob_per_gate == 1e-5
    assert cfg.misalignment_deg == 8.0
    # defaults fill in whatever the dict left out
    assert cfg.protocol == ProtocolOptions(
        mu=0.8, nu=0.1, sample_fraction=0.1, q=0.5, error_correction_efficiency=1.16,
        repetition_rate_hz=20e6, n_cascade_passes=4, min_key_bits=64, timeout_s=30.0,
    )
    assert cfg.detector == DetectorConfig(
        dark_count_prob_per_gate=1e-5, double_click_policy=DoubleClickPolicy.RANDOM_BIT
    )
    assert cfg.drop_probability == 0.0


def test_config_jerlov_channel_variant():
    data = base_dict()
    data["channel"] = {"jerlov_type": "II", "length_m": 25.0}
    cfg = config_from_dict(data)
    assert cfg.channel.attenuation_coefficient == jerlov_coefficient("II")
    assert cfg.channel.preset_tag == "JerlovII"


SHIPPED_CONFIG_COMMAND = {
    "calibrate_detector.json": "calibrate",
    "ocean_sweep.json": "sweep",
    "tank_run.json": "run",
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name)
def test_every_shipped_config_loads(path, capsys):
    """Each shipped config runs its own subcommand, so a section that its
    reader no longer takes fails here."""
    assert main([SHIPPED_CONFIG_COMMAND[path.name], "--config", str(path)]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("source", "class_probabilities", [0.5, 0.25, 0.25]),  # the word's mix, no longer a key
        ("detector", "gate_width_ns", 1.0),
        ("detector", "gates_per_frame", 4),
        ("protocol", "sample_fracton", 0.1),
        ("seeds", "eve", 4),
        ("channel", "jerlov_typ", "I"),
        ("receiver", "dark_count_prob_per_gate", 1e-5),
        ("transport", "drop_prob", 0.0),
    ],
)
def test_config_unread_key_raises(section, key, value):
    """A key a section does not read is rejected, not ignored, even where
    its value is the one that would have been assumed."""
    data = base_dict()
    data.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict(data)


def test_config_channel_takes_one_attenuation():
    """A Jerlov preset and an explicit coefficient together are rejected;
    neither silently wins."""
    data = base_dict()
    data["channel"]["jerlov_type"] = "I"
    with pytest.raises(ConfigError, match="channel.attenuation_coefficient_per_m"):
        config_from_dict(data)


def test_config_top_level_keys_are_left_to_their_readers():
    data = base_dict()
    data["sweep"] = {"distances_m": [0, 10]}
    data["notes"] = "top-level keys other than the sections are not parsed"
    assert config_from_dict(data).digest() == config_from_dict(base_dict()).digest()


def test_config_protocol_and_transport_sections():
    data = base_dict()
    data["protocol"] = {"sample_fraction": 0.2, "min_key_bits": 128, "timeout_s": 5.0}
    data["transport"] = {"drop_probability": 0.25}
    cfg = config_from_dict(data)
    assert cfg.protocol.sample_fraction == 0.2
    assert cfg.protocol.min_key_bits == 128
    assert cfg.protocol.timeout_s == 5.0
    assert cfg.drop_probability == 0.25
    # protocol options inherit the source and clock settings
    assert cfg.protocol.mu == cfg.source.mu
    assert cfg.protocol.repetition_rate_hz == cfg.source.repetition_rate_hz


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("seeds"),
        lambda d: d.pop("source"),
        lambda d: d.pop("channel"),
        lambda d: d.pop("receiver"),
        lambda d: d.pop("detector"),
        lambda d: d.pop("n_pulses"),
        lambda d: d.pop("misalignment_deg"),
        lambda d: d["seeds"].pop("channel"),
        lambda d: d["source"].pop("mu"),
        lambda d: d["channel"].pop("length_m"),
        lambda d: d["receiver"].pop("optics_loss_db"),
        lambda d: d["detector"].pop("dark_count_prob_per_gate"),
    ],
    ids=[
        "seeds", "source", "channel", "receiver", "detector", "n_pulses",
        "misalignment", "seeds.channel", "source.mu", "channel.length",
        "receiver.optics", "detector.dark",
    ],
)
def test_config_missing_key_raises(mutate):
    data = base_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        config_from_dict(data)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__("n_pulses", 0),
        lambda d: d.__setitem__("n_pulses", 2**32),  # slot indices travel as u32
        lambda d: d["source"].__setitem__("mu", "eight tenths"),
        lambda d: d["source"].__setitem__("nu", 0.9),  # decoy must sit below signal
        lambda d: d["channel"].__setitem__("length_m", -3.0),
        lambda d: d["receiver"].__setitem__("detector_efficiency", 1.5),
        lambda d: d.setdefault("transport", {}).__setitem__("drop_probability", 1.0),
        lambda d: d["detector"].__setitem__("double_click_policy", "keep_both"),
        lambda d: d.setdefault("protocol", {}).__setitem__("min_key_bits", 8),  # Cascade needs 64
        # each of these was accepted and then failed, or reported nonsense, mid-run
        lambda d: d["seeds"].__setitem__("alice", -1),
        lambda d: d["seeds"].__setitem__("bob", -1),
        lambda d: d["seeds"].__setitem__("channel", -1),
        lambda d: d["channel"].__setitem__("attenuation_coefficient_per_m", math.nan),
        lambda d: d["channel"].__setitem__("length_m", math.nan),
        lambda d: d["receiver"].__setitem__("optics_loss_db", math.nan),
        lambda d: d.__setitem__("misalignment_deg", math.nan),
        lambda d: d["source"].__setitem__("repetition_rate_hz", math.inf),
        lambda d: d["source"].__setitem__("repetition_rate_hz", math.nan),
        lambda d: d.setdefault("protocol", {}).__setitem__("timeout_s", math.nan),
        lambda d: d.setdefault("protocol", {}).__setitem__("timeout_s", math.inf),
        lambda d: d.setdefault("protocol", {}).__setitem__("q", 0.0),
        lambda d: d.setdefault("protocol", {}).__setitem__("q", 1.5),
        lambda d: d.setdefault("protocol", {}).__setitem__("error_correction_efficiency", 0.9),
        # integer keys were truncated by int(), and the digest hashed the result
        lambda d: d.__setitem__("n_pulses", 1500.7),
        lambda d: d.__setitem__("n_pulses", True),
        lambda d: d["seeds"].__setitem__("alice", 1.9),
        lambda d: d.setdefault("protocol", {}).__setitem__("n_cascade_passes", 4.6),
        lambda d: d.setdefault("protocol", {}).__setitem__("min_key_bits", 100.5),
        # float() read true as 1.0 and false as 0.0
        lambda d: d["source"].__setitem__("mu", True),
        lambda d: d.__setitem__("misalignment_deg", False),
    ],
    ids=[
        "n_pulses", "n_pulses_u32", "mu_type", "nu_order", "length",
        "efficiency", "drop", "policy", "min_key_bits",
        "seed_alice", "seed_bob", "seed_channel", "attenuation_nan", "length_nan",
        "optics_nan", "misalignment_nan", "rate_inf", "rate_nan", "timeout_nan",
        "timeout_inf", "q_zero", "q_above_one", "efficiency_below_one",
        "n_pulses_fraction", "n_pulses_bool", "seed_fraction", "cascade_passes_fraction",
        "min_key_bits_fraction", "mu_bool", "misalignment_bool",
    ],
)
def test_config_bad_value_raises(mutate):
    data = base_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        config_from_dict(data)


@pytest.mark.parametrize(
    "mu", [math.inf, json.loads("1e400"), 710.0, 1e6], ids=["inf", "json_1e400", "710", "1e6"]
)
def test_config_rejects_a_signal_mean_whose_exponential_overflows(mu):
    """The decoy bounds take e^mu. These means once passed validation and
    then raised out of the transmitter's step() after Cascade: inf as a NaN
    key length, 1e6 as an OverflowError in estimate_bounds."""
    data = base_dict()
    data["source"]["mu"] = mu
    with pytest.raises(ConfigError, match=r"e\^mu"):
        config_from_dict(data)


def test_config_takes_a_large_finite_signal_mean():
    data = base_dict()
    data["source"]["mu"] = 709.0  # e^709 is still a finite float
    cfg = config_from_dict(data)
    assert cfg.source.mu == cfg.protocol.mu == 709.0


def test_config_integer_error_names_the_key():
    data = base_dict()
    data["seeds"]["channel"] = 2.5
    with pytest.raises(ConfigError, match=r"seeds\.channel"):
        config_from_dict(data)
    data = base_dict()
    data["n_pulses"] = float(data["n_pulses"])  # a whole float keeps its value
    assert config_from_dict(data).digest() == config_from_dict(base_dict()).digest()


def test_load_config_round_trip(tmp_path, base_cfg):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(BASE))
    assert load_config(path) == base_cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "cannot load config"), ("5", "must be a JSON object"), ("[1]", "must be a JSON object")],
    ids=["broken", "number", "array"],
)
def test_load_config_invalid_json(tmp_path, text, message):
    path = tmp_path / "broken.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize("origin", ["loaded", "built-in-python"])
def test_override_seeds(base_cfg, origin):
    if origin == "loaded":
        cfg0 = base_cfg
    else:  # a Jerlov preset to keep
        cfg0 = dataclasses.replace(base_cfg, channel=WaterChannel.jerlov("I", 50.0))
    cfg = override_seeds(cfg0, 700)
    assert (cfg.seed_alice, cfg.seed_bob, cfg.seed_channel) == (700, 701, 702)
    assert cfg.source.rng_seed == 700
    # only the seeds move
    before = cfg0.to_dict()
    after = cfg.to_dict()
    before.pop("seeds"), after.pop("seeds")
    assert before == after
    assert cfg.channel == cfg0.channel


@pytest.mark.parametrize("field", ["mu", "nu", "repetition_rate_hz"])
def test_protocol_must_match_source(base_cfg, field):
    """The digest covers only the source's intensities and clock, so options
    that differ from them are refused rather than estimated with."""
    value = getattr(base_cfg.protocol, field) * 0.5
    with pytest.raises(ConfigError, match="source"):
        dataclasses.replace(base_cfg, protocol=dataclasses.replace(base_cfg.protocol, **{field: value}))


def test_digest_stable_and_sensitive(base_cfg):
    d = base_cfg.digest()
    assert isinstance(d, bytes) and len(d) == 16
    assert d == base_cfg.digest()
    assert d == config_from_dict(base_dict()).digest()
    # key order in the source dict is irrelevant
    shuffled = {k: base_dict()[k] for k in reversed(list(BASE))}
    assert config_from_dict(shuffled).digest() == d
    # any physics change shows up
    assert override_seeds(base_cfg, 700).digest() != d
    tweaked = base_dict()
    tweaked["misalignment_deg"] = 8.0001
    assert config_from_dict(tweaked).digest() != d


# ---------------------------------------------------------------------------
# quantum phase


def test_quantum_phase_deterministic(base_cfg):
    a = simulate_quantum_phase(base_cfg)
    b = simulate_quantum_phase(base_cfg)
    assert np.array_equal(a.alice_view.kind, b.alice_view.kind)
    assert np.array_equal(a.alice_view.bit, b.alice_view.bit)
    assert np.array_equal(a.bob_view.clicked, b.bob_view.clicked)
    assert np.array_equal(a.bob_view.bit, b.bob_view.bit)
    assert a.basis_match_fraction == b.basis_match_fraction


def test_quantum_phase_matches_link_model(base_cfg):
    res = simulate_quantum_phase(base_cfg)
    n = base_cfg.n_pulses
    assert len(res.alice_view.kind) == n
    assert len(res.bob_view.clicked) == n
    assert res.basis_match_fraction == pytest.approx(0.5, abs=0.01)
    y0 = base_cfg.detector.background_yield
    eta = base_cfg.eta
    p_click = (
        0.5 * expected_gain(y0, eta, 0.8)
        + 0.25 * expected_gain(y0, eta, 0.1)
        + 0.25 * y0
    )
    sigma = np.sqrt(p_click * (1.0 - p_click) * n)
    assert abs(len(res.bob_view.slots) - p_click * n) < 4 * sigma


def test_quantum_phase_seed_changes_outcome(base_cfg):
    other = override_seeds(base_cfg, 900)
    a = simulate_quantum_phase(base_cfg)
    b = simulate_quantum_phase(other)
    assert not np.array_equal(a.alice_view.kind, b.alice_view.kind)
    assert len(a.bob_view.slots) != len(b.bob_view.slots)


def _tank_variant(**changes) -> ExperimentConfig:
    data = json.loads((CONFIGS / "tank_run.json").read_text())
    for key, value in changes.items():
        section, _, name = key.rpartition("__")
        (data[section] if section else data)[name] = value
    return config_from_dict(data)


def test_quantum_phase_extends_a_shorter_run():
    """Every stream draws in slot order (the words and bases in one call
    each, the clicks chunk by chunk), so a run one chunk long is the first
    chunk of a longer run from the same seeds."""
    short, long = (
        simulate_quantum_phase(_tank_variant(n_pulses=n)) for n in (1 << 20, (1 << 20) + 4096)
    )
    columns = {"alice_view": ("kind", "polarization", "basis"), "bob_view": ("basis", "clicked", "bit")}
    for view, names in columns.items():
        for column in names:
            values = getattr(getattr(short, view), column)
            assert np.array_equal(getattr(getattr(long, view), column)[: 1 << 20], values), (view, column)


def test_clicks_of_a_short_last_chunk_are_no_prefix():
    """Words and bases of a run of n slots are the first n of a longer run
    at any n, but its clicks only up to its last whole chunk: a chunk's
    candidates are a binomial draw over its length, so the clicks of a short
    last chunk change when the run grows (12 against 8 clicks in these 4097
    slots of the tank link)."""
    short, long = (simulate_quantum_phase(_tank_variant(n_pulses=n)) for n in (4097, 8193))
    assert np.array_equal(long.alice_view.word[:4097], short.alice_view.word)
    assert np.array_equal(long.bob_view.basis[:4097], short.bob_view.basis)
    first_slots = long.bob_view.slots[long.bob_view.slots < 4097]
    assert (len(short.bob_view.slots), len(first_slots)) == (12, 8)


def test_chunk_k_of_each_slot_stream_starts_at_its_advance():
    """A 2^20-slot chunk is 2^17 PCG64 words of Alice's stream and 2^14 of
    Bob's, so chunk k of either, drawn after advancing k whole chunks,
    equals that slice of the run's one-call draw, the short last chunk
    included."""
    n = 3 * (1 << 20) + 4099
    cfg = _tank_variant(n_pulses=n)
    res = simulate_quantum_phase(cfg)
    for k, (lo, hi) in enumerate(chunk_slices(n)):
        alice, bob = (np.random.default_rng(seed) for seed in (cfg.seed_alice, cfg.seed_bob))
        alice.bit_generator.advance(k << 17)
        bob.bit_generator.advance(k << 14)
        assert np.array_equal(uniform_bytes(alice, hi - lo) >> 4, res.alice_view.word[lo:hi]), k
        packed = uniform_bytes(bob, (hi - lo + 7) // 8)
        packed[-1] &= 0xFF << (lo - hi) % 8 & 0xFF
        assert np.array_equal(packed, res.bob_view.packed_basis[lo >> 3 : (hi + 7) >> 3]), k


@pytest.mark.parametrize("n", [(1 << 20) + 4099, 1 << 20, 1001])
def test_bob_bases_are_packed_uniform_bytes(n):
    """Bob's packed bases are the (n + 7) // 8 bytes one `uniform_bytes`
    call draws from his seed, with the pad bits after the last slot
    cleared, so they are `np.packbits` of his per-slot bases. The match
    fraction counted on packed bytes equals the dense per-slot comparison,
    on an unaligned tail and on runs of whole and part bytes."""
    cfg = _tank_variant(n_pulses=n)
    res = simulate_quantum_phase(cfg)
    view = res.bob_view
    expected = uniform_bytes(np.random.default_rng(cfg.seed_bob), (n + 7) // 8)
    expected[-1] &= 0xFF << (-n % 8) & 0xFF
    assert np.array_equal(view.packed_basis, expected)
    assert np.array_equal(view.packed_basis, np.packbits(view.basis))
    dense = np.count_nonzero(res.alice_view.basis == view.basis)
    assert res.basis_match_fraction == dense / n


@pytest.mark.parametrize(
    "changes, digest, clicks, multi, discarded, match",
    [
        ({}, "037d02f2902ffa9d74d8c2226dea54c26fd60e7a6723206c10287609b5f4d08c",
         12665, 13, 0, "0.50013125"),
        ({"detector__double_click_policy": "discard", "detector__dark_count_prob_per_gate": 2e-3,
          "n_pulses": 1_500_000},
         "84ecad3b6dcff3a46292b0fe68161b7a44b695dcfa00d32b6248708624f77e3a",
         10651, 0, 12, "0.499902"),
        # the last chunk, 4099 slots, is no whole number of 8-byte words
        ({"n_pulses": (1 << 20) + 4099},
         "fa06b1468f29cec7e2e37026725bfadb247deb4da7d2b0c14de4d8db4cd7709d",
         3290, 1, 0, "0.4998171325432826"),
    ],
    ids=["tank", "discard-dark", "unaligned-tail"],
)
def test_quantum_phase_pinned(changes, digest, clicks, multi, discarded, match, request):
    """Every view column and counter of the tank link and of a dark discard
    variant. Equal seeds must keep giving these bytes."""
    res = simulate_quantum_phase(_tank_variant(**changes))
    h = hashlib.sha256()
    for column in (
        res.alice_view.kind, res.alice_view.basis, res.alice_view.bit,
        res.bob_view.basis, res.bob_view.clicked, res.bob_view.bit,
    ):
        h.update(column.tobytes())
    assert h.hexdigest() == digest
    view = res.bob_view
    assert (len(view.slots), len(view.multi_slots), view.discarded_doubles) == (clicks, multi, discarded)
    assert repr(res.basis_match_fraction) == match
    if request.node.callspec.id == "discard-dark":  # still takes the discard path
        assert view.discarded_doubles > 0 and len(view.multi_slots) == 0


def _traced_peak(call):
    """call()'s result and the peak of the memory it allocated, numpy's
    buffers included."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quantum_phase_memory_follows_the_clicks():
    """Per slot, the quantum phase keeps one byte for the transmitter and one
    bit for the receiver's basis; everything else it holds scales with a
    chunk or the clicks."""
    cfg = load_config(CONFIGS / "tank_run.json")
    res, peak = _traced_peak(lambda: simulate_quantum_phase(cfg))
    assert len(res.bob_view.slots) == 12665
    assert peak < 4 * cfg.n_pulses, peak


def test_basis_reveal_memory_follows_the_clicks():
    """The transmitter's reply to BASIS_REVEAL reads her words at the clicked
    slots and counts her class totals without a full-length intp temporary."""
    cfg = load_config(CONFIGS / "tank_run.json")
    res = simulate_quantum_phase(cfg)
    alice = AliceSession(res.alice_view, cfg.protocol, cfg.digest(), np.random.default_rng(0))
    bob = BobSession(res.bob_view, cfg.protocol, cfg.digest())
    reply, reveal = bob.step(protocol.IncomingFrame(protocol.encode_frame(alice.start()[0])))
    alice.step(protocol.IncomingFrame(protocol.encode_frame(reply)))
    event = protocol.IncomingFrame(protocol.encode_frame(reveal))
    frames, peak = _traced_peak(lambda: alice.step(event))
    assert [f.frame_type.name for f in frames] == ["SIFT_ACK"]
    assert sum(alice.emitted_per_class.values()) == cfg.n_pulses
    assert peak < 2 * cfg.n_pulses, peak


@pytest.mark.parametrize(
    "changes, digest",
    [
        (None, "6dd70be5ec71b1381b20a37e30fe5268ab6cd020d59b9f8c279bfc827a9f2041"),
        ({}, "24ae07a79b0d3c796e6dfe9f46e20d68841447e4370aa38f998cd345a231f0c1"),
        ({"n_pulses": 900}, "b3e1ccb86c26b73c392837c92af1a40706afe42cd630d9404e7d4f34468d5ca1"),
        ({"n_pulses": 950, "misalignment_deg": 30.0},
         "ac48be8a463ccf8e40d870f4335a741c47d542a7336f405da22818559000c9c6"),
        ({"n_pulses": 1200}, "8440fc3deceecef71881b3c25015bde01cb91f18ff5aa4a1b0d13d79c927978d"),
        ({"n_pulses": 1950}, "00d6e4b6cbed5e574851e9663841efcbcdb65f555cb8d12f4ad897e38a48c6e4"),
    ],
    ids=["tank", "reconciled", "cascade-skipped", "cascade-skipped-no-rate", "capped-to-zero", "capped"],
)
def test_report_pinned(changes, digest, request):
    """The whole report, timing aside, along every key-sizing path: the tank
    link, and the short link reconciled, with Cascade skipped for too few
    bits (once with a rate clamped to zero, which keeps no key without the
    insufficient_key_bits flag), reconciled but capped to no key, and capped
    to a short key."""
    cfg = _tank_variant() if changes is None else config_from_dict({**base_dict(), **changes})
    report = run_experiment(cfg).to_dict()
    del report["duration_s"]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
    # each case still takes the path its id names
    key, flags = report["key"], report["flags"]
    skipped = report["reconciliation"]["residual_check"] is None
    path = {
        "tank": not skipped and key["length"] > 0,
        "reconciled": not skipped and key["length"] > 0 and not key["capped"],
        "cascade-skipped": skipped and key["no_key"] and "insufficient_key_bits" in flags,
        "cascade-skipped-no-rate": skipped and key["no_key"] and "rate_clamped_to_zero" in flags
        and "insufficient_key_bits" not in flags,
        "capped-to-zero": not skipped and key["capped"] and key["no_key"] and key["length"] == 0,
        "capped": not skipped and key["capped"] and key["length"] > 0,
    }
    assert path[request.node.callspec.id]


# ---------------------------------------------------------------------------
# full in-process run


def test_run_experiment_completes(base_report):
    r = base_report
    assert r.status == "done"
    assert r.abort is None
    assert r.key["length"] > 0
    assert not r.key["no_key"]
    assert r.reconciliation["residual_check"] is True
    assert all(v == 0 for v in r.error_counters["local"].values())
    assert all(v == 0 for v in r.error_counters["peer"].values())


def test_run_experiment_report_consistency(base_cfg, base_report):
    r = base_report
    assert r.n_pulses == base_cfg.n_pulses
    assert r.config_digest == base_cfg.digest().hex()
    assert r.config == base_cfg.to_dict()
    assert r.quantum["total_loss_db"] == pytest.approx(base_cfg.total_loss_db)
    assert r.quantum["eta"] == pytest.approx(base_cfg.eta)
    # disclosed parity plus the 64-bit digest is the whole leak
    assert r.reconciliation["leaked_bits"] == r.reconciliation["parity_bits"] + 64
    rate = r.key["length"] * base_cfg.source.repetition_rate_hz / base_cfg.n_pulses
    assert r.key["realized_rate_bps"] == pytest.approx(rate)
    assert r.reconciliation["n_matched"] <= r.reconciliation["n_clicked"]
    assert r.reconciliation["n_matched_signal"] <= r.reconciliation["n_matched"]


def test_run_experiment_statistics_track_model(base_cfg, base_report):
    stats = base_report.statistics
    y0 = base_cfg.detector.background_yield
    q_mu = expected_gain(y0, base_cfg.eta, 0.8)
    q_nu = expected_gain(y0, base_cfg.eta, 0.1)
    n_mu = base_cfg.n_pulses // 2
    assert stats["Q_mu"] == pytest.approx(q_mu, abs=4 * np.sqrt(q_mu / n_mu))
    assert stats["Q_nu"] == pytest.approx(q_nu, abs=4 * np.sqrt(q_nu / (n_mu / 2)))
    e_d = misalignment_error_prob(base_cfg.misalignment_rad)
    assert stats["E_mu"] == pytest.approx(e_d, abs=0.01)


def test_run_experiment_deterministic(base_cfg, base_report):
    again = run_experiment(base_cfg)
    a, b = base_report.to_dict(), again.to_dict()
    a.pop("duration_s"), b.pop("duration_s")
    assert a == b


def test_run_report_serialization_round_trip(base_report):
    assert json.loads(base_report.to_json()) == base_report.to_dict()


def test_transcript_written_and_replayable(tmp_path, base_cfg, base_report):
    path = tmp_path / "transcript.jsonl"
    run_experiment(base_cfg, transcript_path=path)
    entries = load_transcript(path)
    assert entries[0].direction == "alice->bob"
    assert not any(e.dropped for e in entries)
    directions = {e.direction for e in entries}
    assert directions == {"alice->bob", "bob->alice"}
    for e in entries:  # every logged frame is a valid wire frame
        decode_frame(e.data)
    # the wire bytes of the whole session, in transcript order
    assert hashlib.sha256(b"".join(e.data for e in entries)).hexdigest() == (
        "b2457f762a3302d64ed77fad3f81378055bf3b2dc9f222ed920ae610d9585b3b"
    )
    # save/load is lossless
    copy_path = tmp_path / "copy.jsonl"
    save_transcript(entries, copy_path)
    assert load_transcript(copy_path) == entries


def test_transcript_entry_round_trip():
    entry = TranscriptEntry("bob->alice", b"\x01\x02\xff", dropped=True)
    obj = json.loads(entry.to_json())
    assert obj == {"direction": "bob->alice", "hex": "0102ff", "dropped": True}


def test_lossy_transport_aborts_cleanly():
    data = base_dict()
    data["n_pulses"] = 30_000
    data["transport"] = {"drop_probability": 0.3}
    data["protocol"] = {"timeout_s": 1.0}
    report = run_experiment(config_from_dict(data))
    assert report.status == "aborted"
    assert report.abort["reason"] in {"SEQUENCE_GAP", "PEER_ABORT", "TIMEOUT"}
    assert report.key["length"] == 0 and report.key["no_key"]


def test_class_never_emitted_aborts_cleanly():
    # a few-slot train can miss a class by chance; with no vacuum slot, Y0 has
    # no denominator, so the session must abort
    data = base_dict()
    data["n_pulses"] = 8
    data["seeds"]["alice"] = 17
    cfg = config_from_dict(data)
    assert not np.any(simulate_quantum_phase(cfg).alice_view.kind == StateClass.VACUUM)
    report = run_experiment(cfg)
    assert report.status == "aborted"
    assert report.abort["reason"] == "INTERNAL"
    assert "VACUUM" in report.abort["message"]
    assert report.key["length"] == 0 and report.key["no_key"]


def test_oversized_reply_aborts_instead_of_raising(monkeypatch, base_cfg):
    # With a 4096-byte payload limit, Bob's clicked-slot list cannot be sent:
    # Bob aborts with INTERNAL, and Alice learns it from his ABORT frame.
    monkeypatch.setattr(protocol, "MAX_PAYLOAD", 4096)
    quantum = simulate_quantum_phase(base_cfg)
    digest = base_cfg.digest()
    alice = AliceSession(quantum.alice_view, base_cfg.protocol, digest, np.random.default_rng(0))
    bob = BobSession(quantum.bob_view, base_cfg.protocol, digest)
    InProcessPump(alice, bob).run()
    assert bob.phase is Phase.ABORTED
    assert bob.abort_reason is AbortReason.INTERNAL
    assert "too large" in bob.abort_message
    assert alice.phase is Phase.ABORTED
    assert alice.abort_reason is AbortReason.PEER_ABORT
    assert not alice.final_key.size and not bob.final_key.size


def test_drop_probability_recorded_in_transcript(tmp_path):
    data = base_dict()
    data["n_pulses"] = 30_000
    data["transport"] = {"drop_probability": 0.3}
    data["protocol"] = {"timeout_s": 1.0}
    path = tmp_path / "lossy.jsonl"
    run_experiment(config_from_dict(data), transcript_path=path)
    assert any(e.dropped for e in load_transcript(path))


# ---------------------------------------------------------------------------
# stream framing and the two-party mode


def test_read_frame_bytes_reassembles_stream(base_cfg, tmp_path):
    run_experiment(base_cfg, transcript_path=tmp_path / "t.jsonl")
    frames = [e.data for e in load_transcript(tmp_path / "t.jsonl")[:3]]
    left, right = socket.socketpair()
    with left, right:
        left.sendall(b"".join(frames))
        left.shutdown(socket.SHUT_WR)
        right.settimeout(0.2)
        deadline = time.monotonic() + 5.0
        for expected in frames:
            assert read_frame_bytes(right, deadline) == expected
        assert read_frame_bytes(right, deadline) is None  # clean EOF


def test_read_frame_bytes_reads_a_large_frame():
    """A frame with a 4 MiB payload, written by another thread while it is
    read, comes back byte-equal."""
    payload = np.random.default_rng(5).integers(0, 256, size=4 << 20, dtype=np.uint8).tobytes()
    frame = protocol.encode_frame(protocol.Frame(protocol.FrameType.BASIS_REVEAL, 1, payload))
    left, right = socket.socketpair()
    with left, right:
        writer = threading.Thread(target=left.sendall, args=(frame,))
        writer.start()
        right.settimeout(0.2)
        try:
            assert read_frame_bytes(right, time.monotonic() + 10.0) == frame
        finally:
            writer.join()


def test_read_frame_bytes_mid_frame_close():
    left, right = socket.socketpair()
    with left, right:
        left.sendall(b"\x01\x00\x00\x00\x00\x00\x00\x0a")  # header promises 10 bytes
        left.close()
        right.settimeout(0.2)
        deadline = time.monotonic() + 5.0
        with pytest.raises(ConnectionError):
            read_frame_bytes(right, deadline)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _strip_runtime(report: RunReport) -> dict:
    d = report.to_dict()
    d.pop("duration_s")
    d.pop("error_counters")
    return d


def test_socket_session_matches_in_process(base_cfg, base_report, tmp_path):
    port = _free_port()
    results = {}

    def server():
        results["bob"] = serve(base_cfg, "127.0.0.1", port, transcript_path=tmp_path / "bob.jsonl")

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    results["alice"] = connect(base_cfg, "127.0.0.1", port, transcript_path=tmp_path / "alice.jsonl")
    thread.join(timeout=60)
    assert not thread.is_alive()
    alice, bob = results["alice"], results["bob"]
    assert alice.status == bob.status == "done"
    # the receiver's report matches the queue transport's; the transmitter's
    # differs only in the receiver-side quantum fields it cannot know (None),
    # and its click count equals the receiver's
    assert _strip_runtime(bob) == _strip_runtime(base_report)
    expected = _strip_runtime(bob)
    expected["quantum"].update(basis_match_fraction=None, n_multi_clicks=None, discarded_doubles=None)
    assert _strip_runtime(alice) == expected
    assert alice.key["sha256"] == bob.key["sha256"]
    # and each endpoint logged the queue transport's frames, in the same order
    run_experiment(base_cfg, transcript_path=tmp_path / "pump.jsonl")
    in_process = load_transcript(tmp_path / "pump.jsonl")
    assert load_transcript(tmp_path / "alice.jsonl") == in_process
    assert load_transcript(tmp_path / "bob.jsonl") == in_process


def test_socket_session_with_vanished_peer_times_out(base_cfg):
    # Alice's hello and Bob's ABORT notice both go to a closed socket
    quantum = simulate_quantum_phase(base_cfg)
    digest = base_cfg.digest()
    for session in (
        AliceSession(quantum.alice_view, base_cfg.protocol, digest, np.random.default_rng(0)),
        BobSession(quantum.bob_view, base_cfg.protocol, digest),
    ):
        ours, theirs = socket.socketpair()
        theirs.close()
        with ours:
            run_socket_session(session, ours)
        assert session.phase is Phase.ABORTED, session.role
        assert session.abort_reason is AbortReason.TIMEOUT, session.role


@pytest.mark.parametrize("role", ["alice", "bob"])
def test_socket_session_times_out_on_a_stall_not_on_its_length(role):
    # A peer replays a clean in-process transcript and pauses 0.1 s before
    # every `every`-th of its frames, at least ten times: each gap is a quarter
    # of timeout_s, the whole session more than twice timeout_s. Only a stall
    # may time a session out.
    data = base_dict()
    data["protocol"] = {"timeout_s": 0.4}
    cfg = config_from_dict(data)
    quantum = simulate_quantum_phase(cfg)
    digest = cfg.digest()

    def make_session(which):
        if which == "alice":
            return AliceSession(quantum.alice_view, cfg.protocol, digest, np.random.default_rng(0))
        return BobSession(quantum.bob_view, cfg.protocol, digest)

    recorded = InProcessPump(make_session("alice"), make_session("bob")).run()
    peer_frames = [e.data for e in recorded if not e.direction.startswith(role)]
    every = max(1, len(peer_frames) // 10)  # at least ten pauses
    assert 0.1 * len(peer_frames[::every]) > 2 * cfg.protocol.timeout_s
    session = make_session(role)
    ours, theirs = socket.socketpair()
    seen = []

    def replay_peer():
        theirs.settimeout(0.2)
        sent = 0
        for entry in recorded:
            if entry.direction.startswith(role):
                seen.append(read_frame_bytes(theirs, time.monotonic() + 10.0))
                continue
            if sent % every == 0:
                time.sleep(0.1)
            theirs.sendall(entry.data)
            sent += 1

    peer = threading.Thread(target=replay_peer, daemon=True)
    with ours, theirs:
        peer.start()
        transcript = run_socket_session(session, ours)
        peer.join(timeout=30)
    assert not peer.is_alive()
    assert session.phase is Phase.DONE, session.abort_reason
    assert transcript == recorded
    assert seen == [e.data for e in recorded if e.direction.startswith(role)]


def test_serve_accepts_a_connection_made_during_its_quantum_phase(monkeypatch, base_cfg):
    # a plain connect from inside the receiver's quantum phase is refused
    # unless serve already listens; the session then runs over that socket
    port = _free_port()
    phase = harness.simulate_quantum_phase
    transmitter = {}

    def phase_with_early_peer(cfg):
        sock = socket.create_connection(("127.0.0.1", port), timeout=cfg.protocol.timeout_s)
        alice = AliceSession(
            simulate_transmitter(cfg), cfg.protocol, cfg.digest(), np.random.default_rng(0)
        )

        def run():
            with sock:
                run_socket_session(alice, sock)

        transmitter["session"] = alice
        transmitter["thread"] = threading.Thread(target=run, daemon=True)
        transmitter["thread"].start()
        return phase(cfg)

    monkeypatch.setattr(harness, "simulate_quantum_phase", phase_with_early_peer)
    report = serve(base_cfg, "127.0.0.1", port)
    transmitter["thread"].join(timeout=60)
    assert not transmitter["thread"].is_alive()
    assert report.status == "done"
    assert transmitter["session"].phase is Phase.DONE


def test_transmitter_never_simulates_the_receiver(monkeypatch, base_cfg):
    callers = {"simulate_quantum_phase": set(), "simulate_detection": set()}
    for name, seen in callers.items():
        original = getattr(harness, name)

        def recorded(*args, _original=original, _seen=seen, **kwargs):
            _seen.add(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, recorded)
    port = _free_port()
    receiver = threading.Thread(target=serve, args=(base_cfg, "127.0.0.1", port), daemon=True)
    receiver.start()
    report = connect(base_cfg, "127.0.0.1", port)
    receiver.join(timeout=60)
    assert not receiver.is_alive()
    assert report.status == "done"
    assert callers == {"simulate_quantum_phase": {receiver}, "simulate_detection": {receiver}}


def test_both_endpoints_send_without_delay(monkeypatch, base_cfg):
    # without TCP_NODELAY the last of several frames written in a row waits
    # for the peer's delayed ACK, a 40 ms stall in some sessions
    no_delay = {}
    session = harness.run_socket_session

    def recorded(endpoint, sock):
        no_delay[endpoint.role] = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        return session(endpoint, sock)

    monkeypatch.setattr(harness, "run_socket_session", recorded)
    port = _free_port()
    receiver = threading.Thread(target=serve, args=(base_cfg, "127.0.0.1", port), daemon=True)
    receiver.start()
    report = connect(base_cfg, "127.0.0.1", port)
    receiver.join(timeout=60)
    assert not receiver.is_alive()
    assert report.status == "done"
    assert no_delay == {"alice": 1, "bob": 1}


def test_connect_without_listener_fails():
    data = base_dict()
    data["protocol"] = {"timeout_s": 0.3}
    with pytest.raises(ConnectionError):
        connect(config_from_dict(data), "127.0.0.1", _free_port())


def test_refused_connect_keeps_no_session_alive(monkeypatch, base_cfg):
    """A refused first attempt must not tie the transmitter's session to a
    reference cycle: with the cyclic GC off, its view dies with the report."""
    views = {}

    def transmitter(cfg, _original=harness.simulate_transmitter):
        view = _original(cfg)
        views[threading.current_thread()] = weakref.ref(view)
        return view

    attempts = []

    def create_connection(*args, _original=socket.create_connection, **kwargs):
        attempts.append(args)
        if len(attempts) == 1:
            raise ConnectionRefusedError("refused")
        return _original(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_transmitter", transmitter)
    monkeypatch.setattr(harness.socket, "create_connection", create_connection)
    port = _free_port()
    receiver = threading.Thread(target=serve, args=(base_cfg, "127.0.0.1", port), daemon=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        receiver.start()
        report = connect(base_cfg, "127.0.0.1", port)
        receiver.join(timeout=60)
        assert not receiver.is_alive()
        assert report.status == "done" and len(attempts) == 2
        del report
        assert views[threading.current_thread()]() is None
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# sweeps and tomography


def test_run_sweep_defaults_to_configured_physics(base_cfg):
    distances = [10.0, 50.0, 100.0]
    curves = run_sweep(base_cfg, distances)
    assert set(curves) == {"I", "II", "III"}
    expected = sweep_distance(
        jerlov_coefficient("I"),
        distances,
        receiver=base_cfg.receiver,
        y0=base_cfg.detector.background_yield,
        e_detector=misalignment_error_prob(base_cfg.misalignment_rad),
        mu=0.8,
        nu=0.1,
        q=0.5,
        error_correction_efficiency=1.16,
        repetition_rate_hz=20e6,
    )
    assert curves["I"] == expected


def test_run_sweep_overrides_and_selection(base_cfg):
    curves = run_sweep(base_cfg, [20.0, 40.0], water_types=("III",), y0=1e-5, e_detector=0.012)
    assert set(curves) == {"III"}
    assert len(curves["III"]) == 2
    direct = sweep_distance(
        jerlov_coefficient("III"),
        [20.0, 40.0],
        receiver=base_cfg.receiver,
        y0=1e-5,
        e_detector=0.012,
    )
    assert curves["III"] == direct


def test_tomography_report_structure_and_fidelity():
    report = tomography_report(6.859, shots_per_basis=200_000, seed=5)
    assert set(report["states"]) == {"H", "V", "P", "M"}
    assert report["average_fidelity"] == pytest.approx(0.98574, abs=2e-3)
    assert report["misalignment_error_prob"] == pytest.approx(
        misalignment_error_prob(np.radians(6.859))
    )
    for entry in report["states"].values():
        rho = np.array(entry["density_matrix_re"]) + 1j * np.array(entry["density_matrix_im"])
        validate_density_matrix(rho)
        counts = entry["counts"]
        assert counts["H"] + counts["V"] == 200_000
        assert counts["P"] + counts["M"] == 200_000
        assert counts["R"] + counts["L"] == 200_000
        assert entry["fidelity_vs_ideal"] == pytest.approx(0.98574, abs=5e-3)


def test_tomography_report_zero_rotation_is_ideal():
    report = tomography_report(0.0, shots_per_basis=50_000, seed=1)
    assert report["average_fidelity"] == pytest.approx(1.0, abs=1e-3)
    assert report["misalignment_error_prob"] == 0.0


# ---------------------------------------------------------------------------
# command line


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_cli_run_writes_report_and_transcript(tmp_path, capsys):
    data = base_dict()
    data["n_pulses"] = 40_000
    cfg_path = _write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert json.loads(stdout) == report
    assert report["status"] == "done"
    assert (out / "transcript.jsonl").exists()


def test_cli_run_seed_override(tmp_path, capsys):
    data = base_dict()
    data["n_pulses"] = 40_000
    cfg_path = _write_config(tmp_path, data)
    code = main(["run", "--config", str(cfg_path), "--seed", "42"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seeds"] == {"alice": 42, "bob": 43, "channel": 44}


def test_cli_run_csv_format(tmp_path, capsys):
    data = base_dict()
    data["n_pulses"] = 40_000
    cfg_path = _write_config(tmp_path, data)
    code = main(["run", "--config", str(cfg_path), "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    header, row = rows[0], rows[1]
    assert len(header) == len(row)
    assert "status" in header
    assert row[header.index("status")] == "done"


def test_cli_run_bad_config_is_validation_error(tmp_path, capsys):
    data = base_dict()
    data.pop("detector")
    code = main(["run", "--config", str(_write_config(tmp_path, data))])
    assert code == EXIT_VALIDATION
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == EXIT_VALIDATION
    capsys.readouterr()
    for not_an_object in (5, [1]):
        code = main(["run", "--config", str(_write_config(tmp_path, not_an_object))])
        assert code == EXIT_VALIDATION
        assert "config must be a JSON object" in capsys.readouterr().err


def test_cli_run_unread_key_is_validation_error(tmp_path, capsys):
    data = base_dict()
    data["detector"]["gates_per_frame"] = 4
    code = main(["run", "--config", str(_write_config(tmp_path, data))])
    assert code == EXIT_VALIDATION
    assert "detector.gates_per_frame" in capsys.readouterr().err


def test_cli_run_abort_exit_code(tmp_path, capsys):
    data = base_dict()
    data["n_pulses"] = 30_000
    data["transport"] = {"drop_probability": 0.3}
    data["protocol"] = {"timeout_s": 1.0}
    code = main(["run", "--config", str(_write_config(tmp_path, data))])
    assert code == EXIT_ABORT
    assert json.loads(capsys.readouterr().out)["status"] == "aborted"


def test_cli_sweep(tmp_path, capsys):
    data = base_dict()
    data["sweep"] = {"distances_m": [10.0, 60.0], "jerlov_types": ["I", "II"]}
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(_write_config(tmp_path, data)), "--out", str(out)])
    assert code == EXIT_OK
    csv_text = (out / "sweep_jerlov_I.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("distance_m,loss_db,")
    assert len(lines) == 3
    assert (out / "sweep_jerlov_II.csv").exists()
    capsys.readouterr()


SWEEP_DIGESTS = {
    "sweep_jerlov_I.csv": "a4f8e463c3ea0921fc1f7ab0963756bbf63265c892021786844589a2f4731ed4",
    "sweep_jerlov_II.csv": "01b188e0bfde82b6fca6852cf858107aa82be07372b42154d9b72632bb0e8ae3",
    "sweep_jerlov_III.csv": "178495d064832105f8ca187ce48703938467fa354dfc3a3a0d3f8402680bbd09",
    "sweep.json": "c8d8914d50e334f7548ceb697e272658973afc56f6685a3ef3e684df76304d85",
}


def test_cli_sweep_outputs_pinned(tmp_path, capsys):
    """The shipped ocean sweep, as CSV and as JSON, hashes to fixed digests:
    any change to the analytic link model shows here to the last bit."""
    config = str(CONFIGS / "ocean_sweep.json")
    for fmt in ("csv", "json"):
        assert main(["sweep", "--config", config, "--out", str(tmp_path), "--format", fmt]) == EXIT_OK
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SWEEP_DIGESTS}
    assert digests == SWEEP_DIGESTS


def test_cli_sweep_requires_section(tmp_path, capsys):
    code = main(["sweep", "--config", str(_write_config(tmp_path, base_dict()))])
    assert code == EXIT_VALIDATION
    assert "sweep.distances_m" in capsys.readouterr().err
    for sweep, key in (
        ({"distances_m": 5}, "sweep.distances_m"),
        ({"distances_m": [10.0, "far"]}, "sweep.distances_m[1]"),
        ({"distances_m": [True, 50]}, "sweep.distances_m[0]"),  # not a sweep from 1.0 m
        ({"distances_m": [10.0], "jerlov_type": ["III"]}, "sweep.jerlov_type"),
        ({"distances_m": [10.0], "y0": None}, "sweep.y0"),  # leave it out for the default
        ([10.0], "config key sweep must be a JSON object"),
    ):
        data = base_dict()
        data["sweep"] = sweep
        code = main(["sweep", "--config", str(_write_config(tmp_path, data))])
        assert code == EXIT_VALIDATION, sweep
        assert key in capsys.readouterr().err


def test_cli_calibrate(tmp_path, capsys):
    data = base_dict()
    data["calibration"] = {
        "anchors": [
            {"total_loss_db": 30.0, "kind": "q_mu", "value": 8.105e-4},
            {"total_loss_db": 30.0, "kind": "e_mu", "value": 0.0182},
        ],
    }
    code = main(["calibrate", "--config", str(_write_config(tmp_path, data))])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert 0.0 < payload["y0"] < 1e-3
    assert 0.0 < payload["e_detector"] < 0.05


def test_cli_calibrate_needs_two_anchors(tmp_path, capsys):
    data = base_dict()
    data["calibration"] = {
        "anchors": [{"total_loss_db": 30.0, "kind": "q_mu", "value": 8e-4}]
    }
    code = main(["calibrate", "--config", str(_write_config(tmp_path, data))])
    assert code == EXIT_VALIDATION
    assert "calibration.anchors needs at least two anchors" in capsys.readouterr().err
    good = {"total_loss_db": 30.0, "kind": "e_mu", "value": 0.0182}
    pair = [{"total_loss_db": 30.0, "kind": "q_mu", "value": 8.105e-4}, good]
    for calibration, key in (
        ({"anchors": [{"total_loss_db": 30.0, "value": 8e-4}, good]}, "calibration.anchors[0].kind"),
        ({"anchors": [pair[0], {**good, "kind": "e_muu"}]}, "calibration.anchors[1].kind"),
        ({"anchors": [{**pair[0], "total_loss_db": -1.0}, good]}, "calibration.anchors[0].total_loss_db"),
        ({"anchors": [pair[0], {**good, "value": True}]}, "calibration.anchors[1].value"),
        ({"anchors": [5, good]}, "calibration.anchors[0]"),
        ({"anchors": 5}, "calibration.anchors"),
        ({"anchors": [{**pair[0], "valu": 8.105e-4}, good]}, "calibration.anchors[0].valu"),
        ({"anchors": pair, "residual_treshold": 1e-30}, "calibration.residual_treshold"),
        ({"anchors": pair, "mu": 0.8}, "calibration.mu"),  # the source's mu is the one used
        (pair, "config key calibration must be a JSON object"),
    ):
        data["calibration"] = calibration
        code = main(["calibrate", "--config", str(_write_config(tmp_path, data))])
        assert code == EXIT_VALIDATION, calibration
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tomography", "--config", "x"],
        ["tomography", "--format", "json"],
        ["calibrate", "--config", "x", "--format", "csv"],
        ["sweep", "--config", "x", "--seed", "1"],  # both are analytic: no output reads the seeds
        ["calibrate", "--config", "x", "--seed", "1"],
    ],
)
def test_cli_rejects_flags_nothing_reads(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()


def test_cli_tomography(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["tomography", "--theta-deg", "6.859", "--shots-per-basis", "50000",
         "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads((out / "tomography.json").read_text())
    assert payload["average_fidelity"] == pytest.approx(0.9857, abs=5e-3)
    capsys.readouterr()


def test_cli_serve_connect_loopback(tmp_path, capsys):
    data = base_dict()
    data["n_pulses"] = 40_000
    cfg_path = _write_config(tmp_path, data)
    port = _free_port()
    codes = {}

    def server():
        codes["serve"] = main(
            ["serve", "--config", str(cfg_path), "--port", str(port),
             "--out", str(tmp_path / "bob")]
        )

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    codes["connect"] = main(
        ["connect", "--config", str(cfg_path), "--port", str(port),
         "--out", str(tmp_path / "alice")]
    )
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert codes == {"serve": EXIT_OK, "connect": EXIT_OK}
    alice = json.loads((tmp_path / "alice" / "report_connect.json").read_text())
    bob = json.loads((tmp_path / "bob" / "report_serve.json").read_text())
    assert alice["key"]["sha256"] == bob["key"]["sha256"]
    capsys.readouterr()


def test_cli_connect_refused_is_abort(tmp_path, capsys):
    data = base_dict()
    data["protocol"] = {"timeout_s": 0.3}
    code = main(
        ["connect", "--config", str(_write_config(tmp_path, data)),
         "--port", str(_free_port())]
    )
    assert code == EXIT_ABORT


def test_cli_serve_busy_port_is_abort(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, base_dict())
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        code = main(["serve", "--config", str(cfg_path), "--port", str(port)])
    assert code == EXIT_ABORT
    assert "network error" in capsys.readouterr().err
