import math

import numpy as np
import pytest

from uwqkd.detection import DetectorConfig, simulate_detection
from uwqkd.polarization import Basis, Polarization
from uwqkd.source import (
    WORD_CLASS,
    AliceView,
    SourceConfig,
    StateClass,
    chunk_slices,
    generate_pulse_train,
    uniform_bytes,
)
from views import multi_click, words

# Full 4-bit slot table. b0 (MSB) and b1 select the class, b2 b3 the state.
WORD_TABLE = {
    0b0000: (StateClass.VACUUM, Polarization.H),
    0b0001: (StateClass.VACUUM, Polarization.V),
    0b0010: (StateClass.VACUUM, Polarization.P),
    0b0011: (StateClass.VACUUM, Polarization.M),
    0b0100: (StateClass.DECOY, Polarization.H),
    0b0101: (StateClass.DECOY, Polarization.V),
    0b0110: (StateClass.DECOY, Polarization.P),
    0b0111: (StateClass.DECOY, Polarization.M),
    0b1000: (StateClass.SIGNAL, Polarization.H),
    0b1001: (StateClass.SIGNAL, Polarization.V),
    0b1010: (StateClass.SIGNAL, Polarization.P),
    0b1011: (StateClass.SIGNAL, Polarization.M),
    0b1100: (StateClass.SIGNAL, Polarization.H),
    0b1101: (StateClass.SIGNAL, Polarization.V),
    0b1110: (StateClass.SIGNAL, Polarization.P),
    0b1111: (StateClass.SIGNAL, Polarization.M),
}


@pytest.mark.parametrize("word", sorted(WORD_TABLE))
def test_word_table(word):
    cls, expected_pol = WORD_TABLE[word]
    assert WORD_CLASS[word] == cls
    assert Polarization(word & 0x3) is expected_pol
    view = AliceView(np.array([word], dtype=np.uint8))
    assert (view.kind[0], view.polarization[0]) == (cls, expected_pol)
    assert (view.basis[0], view.bit[0]) == (expected_pol.basis, expected_pol.bit)
    assert np.array_equal(AliceView(words([cls], [expected_pol])).kind, [cls])


def test_word_class_means():
    cfg = SourceConfig(mu=0.8, nu=0.1)
    assert cfg.class_means[WORD_CLASS[0b1000]] == 0.8
    assert cfg.class_means[WORD_CLASS[0b0100]] == 0.1
    assert cfg.class_means[WORD_CLASS[0b0000]] == 0.0


def test_source_config_defaults_and_validation():
    cfg = SourceConfig()
    assert cfg.mu == 0.8
    assert cfg.nu == 0.1
    assert cfg.repetition_rate_hz == 20e6
    with pytest.raises(ValueError):
        SourceConfig(mu=0.1, nu=0.8)  # decoy must be weaker
    with pytest.raises(ValueError):
        SourceConfig(mu=0.8, nu=0.0)


def test_train_class_and_state_frequencies():
    """2:1:1 class mix and uniform states, within binomial noise."""
    n = 400_000
    train = generate_pulse_train(SourceConfig(rng_seed=3), n)
    counts = np.bincount(train.kind, minlength=3)
    assert train.class_totals() == {v: int(counts[v]) for v in StateClass}
    assert counts[StateClass.SIGNAL] / n == pytest.approx(0.5, abs=0.004)
    assert counts[StateClass.DECOY] / n == pytest.approx(0.25, abs=0.004)
    assert counts[StateClass.VACUUM] / n == pytest.approx(0.25, abs=0.004)
    pol_counts = np.bincount(train.polarization, minlength=4)
    for c in pol_counts:
        assert c / n == pytest.approx(0.25, abs=0.004)
    # bases and key bits derive from the polarization index
    assert np.array_equal(train.basis, train.polarization >> 1)
    assert np.array_equal(train.bit, train.polarization & 1)
    assert train.basis.dtype == train.bit.dtype == np.uint8


def test_train_photon_statistics():
    """A slot's photon number is Poisson with its class mean; detection
    samples it without drawing it. At eta = 1, with no darks, a signal slot
    clicks iff it holds a photon, and at unmatched bases the two detectors
    see independent Poisson(mu/2) counts, which only a Poisson number gives."""
    n = 400_000
    cfg = SourceConfig(mu=0.8, nu=0.1, rng_seed=5)
    train = generate_pulse_train(cfg, n)
    means = cfg.class_means[train.kind]
    sig = train.kind == StateClass.SIGNAL
    dec = train.kind == StateClass.DECOY
    vac = train.kind == StateClass.VACUUM
    assert np.all(means[vac] == 0)
    assert np.all(means[sig] == 0.8)
    assert np.all(means[dec] == 0.1)
    bob_basis = np.random.default_rng(6).integers(0, 2, size=n, dtype=np.uint8)
    batch = simulate_detection(
        train, bob_basis, cfg.class_means, 1.0, DetectorConfig(), 0.0, np.random.default_rng(7)
    )
    assert not batch.clicked[vac].any()
    # P(n >= 1 | mu = 0.8) = 1 - exp(-0.8)
    assert batch.clicked[sig].mean() == pytest.approx(1.0 - math.exp(-0.8), abs=0.002)
    # both detectors fire with probability (1 - exp(-mu/2))^2
    unmatched_sig = sig & (train.basis != bob_basis)
    assert multi_click(batch)[unmatched_sig].mean() == pytest.approx(
        (1.0 - math.exp(-0.4)) ** 2, abs=0.004
    )


def test_train_determinism_same_seed():
    cfg = SourceConfig(rng_seed=42)
    a = generate_pulse_train(cfg, 50_000)
    b = generate_pulse_train(cfg, 50_000)
    assert np.array_equal(a.kind, b.kind)
    assert np.array_equal(a.polarization, b.polarization)


@pytest.mark.parametrize("n", [0, 1, 1 << 20, (1 << 20) + 1, 3 << 20])
def test_chunk_slices_tile_the_train(n):
    """The one chunk rule: consecutive 2^20-slot slices that cover [0, n) once."""
    slices = list(chunk_slices(n))
    assert len(slices) == -(-n // (1 << 20))
    edges = [0] + [hi for _, hi in slices]
    assert [lo for lo, _ in slices] == edges[:-1]
    assert edges[-1] == n
    assert all(0 < hi - lo <= 1 << 20 for lo, hi in slices)


def test_train_different_seeds_differ():
    # Two independent trains agree on a slot only by chance. Per slot:
    # P(same class and polarization) = 4 (1/8)^2 + 8 (1/16)^2 = 3/32, since
    # each signal state has two words.
    n = 200_000
    a = generate_pulse_train(SourceConfig(rng_seed=1), n)
    b = generate_pulse_train(SourceConfig(rng_seed=2), n)
    same = (a.kind == b.kind) & (a.polarization == b.polarization)
    differ_fraction = 1.0 - same.mean()
    assert differ_fraction > 0.89
    assert differ_fraction == pytest.approx(29 / 32, abs=0.003)


def test_train_draws_per_slot_in_one_batch():
    """One word per slot, in one batch, and nothing else: the stream ends
    where these draws alone leave it."""
    n = (2 << 20) + 5
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    generate_pulse_train(SourceConfig(), n, rng)
    reference.integers(0, 16, size=n, dtype=np.uint8)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_full_range_byte_top_bits_are_the_bounded_draw():
    """The top k bits of `integers(0, 256, uint8)` are `integers(0, 2**k,
    uint8)` from an equal generator, value for value and call after call,
    odd sizes included: numpy's bounded uint8 draw (Lemire's multiply-shift)
    never rejects on a power-of-two range and keeps the top bits of one
    stream byte. This is why the quantum phase's words and bases, drawn as
    full-range bytes, keep the pinned goldens; if it fails, a numpy release
    changed its bounded draw and every stream with it."""
    sizes = (1, 3, 5, 4097, (1 << 20) + 3)
    for shift, high in ((4, 16), (7, 2), (6, 4)):
        full, bounded = np.random.default_rng(29), np.random.default_rng(29)
        for n in sizes:
            top = full.integers(0, 256, size=n, dtype=np.uint8) >> shift
            assert np.array_equal(top, bounded.integers(0, high, size=n, dtype=np.uint8)), (high, n)
        assert full.bit_generator.state == bounded.bit_generator.state


def test_uniform_bytes_is_the_full_range_draw():
    """`uniform_bytes` gives `integers(0, 256, uint8)`'s values and leaves
    the generator's state as it would, call after call: odd sizes leave a
    buffered half-word, so later calls start both with and without one."""
    sizes = (*range(10), 1023, 4097, (1 << 20) + 3, 7, 8, 12, 1 << 20)
    fast, reference = np.random.default_rng(31), np.random.default_rng(31)
    buffered = set()
    for n in sizes:
        buffered.add(fast.bit_generator.state["has_uint32"])
        drawn = uniform_bytes(fast, n)
        assert drawn.dtype == np.uint8
        assert np.array_equal(drawn, reference.integers(0, 256, size=n, dtype=np.uint8)), n
        assert fast.bit_generator.state == reference.bit_generator.state, n
    assert buffered == {0, 1}


def test_uniform_bytes_aligned_draw_is_the_raw_buffer():
    """With no buffered half-word, a multiple of 8 bytes is the raw words'
    own buffer, not a copy."""
    drawn = uniform_bytes(np.random.default_rng(2), 1 << 20)
    assert drawn.base is not None and drawn.base.dtype == np.uint64
    assert drawn.base.size == (1 << 20) // 8


def test_uniform_bytes_needs_pcg64():
    with pytest.raises(TypeError):
        uniform_bytes(np.random.Generator(np.random.MT19937(0)), 8)


def test_train_follows_word_table():
    """Each slot's class and polarization are the table entry for the word
    drawn from the same seed, across consecutive odd-sized calls."""
    cfg = SourceConfig(rng_seed=0)
    rng, reference = np.random.default_rng(cfg.rng_seed), np.random.default_rng(cfg.rng_seed)
    for n in (4097, 1023):
        train = generate_pulse_train(cfg, n, rng)
        words = reference.integers(0, 16, size=n, dtype=np.uint8)
        assert len(train) == n
        assert np.array_equal(train.kind, WORD_CLASS[words])
        assert np.array_equal(train.polarization, words & 3)


def test_generate_count_validation():
    with pytest.raises(ValueError):
        generate_pulse_train(SourceConfig(), -1)
    assert len(generate_pulse_train(SourceConfig(), 0)) == 0

