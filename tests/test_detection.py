import math

import numpy as np
import pytest

from uwqkd.detection import (
    BobView,
    DetectorConfig,
    DoubleClickPolicy,
    _outcome_table,
    dark_prob_for_background_yield,
    expected_gain,
    expected_qber,
    simulate_detection,
)
from uwqkd.source import AliceView, SourceConfig, StateClass, chunk_slices, generate_pulse_train
from views import multi_click, words


def _batch(n, seed, *, eta, p_dark=0.0, theta=0.0, policy=DoubleClickPolicy.RANDOM_BIT,
           bob_seed=None, mu=0.8):
    cfg = SourceConfig(mu=mu, rng_seed=seed)
    train = generate_pulse_train(cfg, n)
    rng_bob = np.random.default_rng(seed + 1 if bob_seed is None else bob_seed)
    bob_basis = rng_bob.integers(0, 2, size=n, dtype=np.uint8)
    det = DetectorConfig(dark_count_prob_per_gate=p_dark, double_click_policy=policy)
    rng = np.random.default_rng(seed + 2)
    batch = simulate_detection(
        train, np.packbits(bob_basis), cfg.class_means, channel_eta=eta, cfg=det, misalignment_theta=theta,
        rng=rng,
    )
    return train, bob_basis, batch


def test_expected_gain_formula():
    # Q = Y0 + 1 - exp(-eta * mean), clamped to 1
    assert expected_gain(0.0, 1.0, 0.8) == pytest.approx(1.0 - math.exp(-0.8), rel=1e-12)
    assert expected_gain(1e-4, 0.0, 0.8) == pytest.approx(1e-4, rel=1e-12)
    assert expected_gain(0.0, 0.0, 0.8) == 0.0
    assert expected_gain(1.0, 1.0, 50.0) == 1.0  # clamp
    y0, eta, mu = 6.4e-5, 3.2e-3, 0.8
    assert expected_gain(y0, eta, mu) == pytest.approx(y0 - math.expm1(-eta * mu), rel=1e-12)
    with pytest.raises(ValueError):
        expected_gain(-0.1, 0.5, 0.8)
    with pytest.raises(ValueError):
        expected_gain(0.0, 1.5, 0.8)
    with pytest.raises(ValueError):
        expected_gain(0.0, 0.5, -0.8)


def test_expected_qber_formula():
    # E*Q = 0.5*Y0 + e_d*(1 - exp(-eta*mean)): background clicks are random,
    # photon clicks err with the misalignment probability.
    e = expected_qber(4e-4, 5.9e-3, 1.0, 0.012)
    assert e == pytest.approx(0.043069794894137634, rel=1e-12)
    # dark-free channel errs at exactly e_d
    assert expected_qber(0.0, 0.01, 0.8, 0.02) == pytest.approx(0.02, rel=1e-12)
    # photon-free channel is pure noise
    assert expected_qber(1e-4, 0.0, 0.8, 0.02) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        expected_qber(0.0, 0.0, 0.8, 0.02)  # zero gain
    with pytest.raises(ValueError):
        expected_qber(1e-4, 0.01, 0.8, 0.6)  # e_d > 1/2


def test_detector_config_validation():
    assert DetectorConfig().background_yield == 0.0
    cfg = DetectorConfig(dark_count_prob_per_gate=1e-3)
    assert cfg.background_yield == pytest.approx(1.0 - (1.0 - 1e-3) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        DetectorConfig(dark_count_prob_per_gate=1.0)


def test_dark_prob_inverts_background_yield():
    for y0 in (0.0, 1e-6, 1e-4, 0.3):
        p = dark_prob_for_background_yield(y0)
        cfg = DetectorConfig(dark_count_prob_per_gate=p)
        assert cfg.background_yield == pytest.approx(y0, rel=1e-9, abs=1e-15)
    with pytest.raises(ValueError):
        dark_prob_for_background_yield(1.0)


def test_mc_gain_matches_analytic():
    """Empirical click rate within 3 binomial sigma of Y0 + 1 - exp(-eta*mu)."""
    n = 1_000_000
    eta, p_dark = 5e-3, 1e-4
    train, _, batch = _batch(n, seed=17, eta=eta, p_dark=p_dark)
    y0 = DetectorConfig(dark_count_prob_per_gate=p_dark).background_yield
    for kind, mean in ((2, 0.8), (1, 0.1), (0, 0.0)):
        mask = train.kind == kind
        q = expected_gain(y0, eta, mean)
        emp = batch.clicked[mask].mean()
        sigma = math.sqrt(q * (1 - q) / mask.sum())
        assert abs(emp - q) < 3 * sigma, f"class {kind}: {emp} vs {q}"


def test_mc_qber_matches_analytic():
    n = 2_000_000
    eta, p_dark, theta = 4e-3, 5e-5, math.asin(math.sqrt(0.02))
    train, bob_basis, batch = _batch(n, seed=23, eta=eta, p_dark=p_dark, theta=theta)
    y0 = DetectorConfig(dark_count_prob_per_gate=p_dark).background_yield
    matched = (train.basis == bob_basis) & batch.clicked & (train.kind == 2)
    errors = batch.bit[matched] != train.bit[matched]
    e_expected = expected_qber(y0, eta, 0.8, 0.02)
    emp = errors.mean()
    sigma = math.sqrt(e_expected * (1 - e_expected) / matched.sum())
    assert abs(emp - e_expected) < 3 * sigma


def test_mismatched_bases_are_random():
    n = 500_000
    train, bob_basis, batch = _batch(n, seed=31, eta=0.05)
    mism = (train.basis != bob_basis) & batch.clicked
    frac_ones = (batch.bit[mism] == train.bit[mism]).mean()
    sigma = math.sqrt(0.25 / mism.sum())
    assert abs(frac_ones - 0.5) < 4 * sigma


def test_dark_only_channel():
    # eta = 0: every click is a dark count, bits are fair coins.
    n = 2_000_000
    p_dark = 5e-4
    train, _, batch = _batch(n, seed=7, eta=0.0, p_dark=p_dark)
    y0 = 1.0 - (1.0 - p_dark) ** 2
    emp = batch.clicked.mean()
    assert abs(emp - y0) < 3 * math.sqrt(y0 * (1 - y0) / n)
    bits = batch.bit[batch.clicked]
    assert abs(bits.mean() - 0.5) < 4 * math.sqrt(0.25 / len(bits))


def test_double_click_policies():
    n = 300_000
    # strong light forces frequent double clicks
    train, _, rand_batch = _batch(n, seed=5, eta=0.9, mu=5.0)
    assert multi_click(rand_batch).sum() > 0
    assert rand_batch.discarded_doubles == 0
    _, _, disc_batch = _batch(n, seed=5, eta=0.9, mu=5.0, policy=DoubleClickPolicy.DISCARD)
    assert disc_batch.discarded_doubles > 0
    assert not multi_click(disc_batch).any()
    # a discarded double reads as no-click
    assert disc_batch.clicked.sum() + disc_batch.discarded_doubles == pytest.approx(
        rand_batch.clicked.sum(), abs=0
    )


def test_double_click_bit_is_fair():
    n = 400_000
    _, _, batch = _batch(n, seed=13, eta=0.9, mu=5.0)
    doubles = multi_click(batch)
    assert doubles.sum() > 10_000
    mean_bit = batch.bit[doubles].mean()
    assert abs(mean_bit - 0.5) < 4 * math.sqrt(0.25 / doubles.sum())


def test_detection_determinism():
    _, _, a = _batch(100_000, seed=3, eta=0.01, p_dark=1e-4, theta=0.1)
    _, _, b = _batch(100_000, seed=3, eta=0.01, p_dark=1e-4, theta=0.1)
    assert np.array_equal(a.clicked, b.clicked)
    assert np.array_equal(a.bit, b.bit)
    assert np.array_equal(a.multi_slots, b.multi_slots)


def test_batch_columns_consistent():
    for policy in DoubleClickPolicy:
        _, _, batch = _batch(20_000, seed=41, eta=0.9, mu=5.0, p_dark=1e-3, policy=policy)
        assert len(batch) == 20_000
        assert set(np.unique(batch.bit)) <= {0, 1}
        assert not batch.bit[~batch.clicked].any()  # no click reads as bit 0
        assert not (multi_click(batch) & ~batch.clicked).any()  # a no-click is never a double


def test_sparse_batch_invariants():
    """The clicks are strictly ascending slots in range, one bit in {0, 1}
    each, with the doubles among them; under DISCARD the same draws keep
    every click but the doubles."""
    batches = {
        policy: _batch(20_000, seed=41, eta=0.9, mu=5.0, p_dark=1e-3, policy=policy)[2]
        for policy in DoubleClickPolicy
    }
    for batch in batches.values():
        assert batch.slots.dtype == np.int64 and batch.bits.dtype == np.uint8
        assert len(batch.bits) == len(batch.slots) > 0
        assert np.all(np.diff(batch.slots) > 0)
        assert 0 <= batch.slots[0] and batch.slots[-1] < batch.n_slots
        assert set(np.unique(batch.bits)) <= {0, 1}
        assert np.isin(batch.multi_slots, batch.slots).all()
    rand, disc = batches[DoubleClickPolicy.RANDOM_BIT], batches[DoubleClickPolicy.DISCARD]
    assert len(rand.multi_slots) == disc.discarded_doubles > 0
    assert len(disc.multi_slots) == 0
    assert not np.isin(disc.slots, rand.multi_slots).any()
    assert np.array_equal(np.union1d(disc.slots, rand.multi_slots), rand.slots)


def test_detection_view_keeps_bob_basis():
    _, bob_basis, view = _batch(20_001, seed=43, eta=0.01)
    assert np.array_equal(view.basis, bob_basis)
    assert np.array_equal(view.basis_at(view.slots), bob_basis[view.slots])


@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
def test_one_call_is_its_chunk_calls_joined(policy):
    """One call over a full chunk and a short one equals a call per chunk on
    one generator, joined: slots and doubles offset by the first chunk's
    length, the discarded doubles summed, every dtype kept."""
    sizes = (1 << 20, 4099)
    n = sum(sizes)
    train = generate_pulse_train(BRIGHT, n)
    packed = np.packbits(np.random.default_rng(44).integers(0, 2, size=n, dtype=np.uint8))
    cfg = DetectorConfig(dark_count_prob_per_gate=1e-3, double_click_policy=policy)
    whole = simulate_detection(train, packed, MEANS, 0.05, cfg, 0.1, np.random.default_rng(45))
    rng = np.random.default_rng(45)
    chunks = [
        simulate_detection(train.at(slice(lo, hi)), packed[lo // 8 : -(-hi // 8)], MEANS, 0.05, cfg, 0.1, rng)
        for lo, hi in ((0, sizes[0]), (sizes[0], n))
    ]
    expected = {
        "packed_basis": np.concatenate([chunk.packed_basis for chunk in chunks]),
        "slots": np.concatenate([chunks[0].slots, chunks[1].slots + sizes[0]]),
        "bits": np.concatenate([chunk.bits for chunk in chunks]),
        "multi_slots": np.concatenate([chunks[0].multi_slots, chunks[1].multi_slots + sizes[0]]),
    }
    assert len(whole) == n
    for column, values in expected.items():
        assert np.array_equal(getattr(whole, column), values), column
        assert getattr(whole, column).dtype == values.dtype, column
    assert whole.discarded_doubles == sum(chunk.discarded_doubles for chunk in chunks)
    if policy is DoubleClickPolicy.RANDOM_BIT:
        assert all(len(chunk.multi_slots) for chunk in chunks)
    else:
        assert all(chunk.discarded_doubles for chunk in chunks)


def test_perfect_channel_reproduces_key_bits():
    # mu = 40: a signal pulse is empty with probability e^-40, so at eta = 1
    # every matched signal slot is lit and reads Alice's bit
    train, bob_basis, batch = _batch(4096, seed=2, eta=1.0, mu=40.0)
    lit = (train.basis == bob_basis) & (train.kind == StateClass.SIGNAL)
    assert lit.any()
    assert batch.clicked[lit].all()
    assert np.array_equal(batch.bit[lit], train.bit[lit])
    # no darks and no misalignment: a vacuum slot never clicks, and a
    # matched slot never fires the wrong detector
    matched = (train.basis == bob_basis) & batch.clicked
    assert not batch.clicked[train.kind == StateClass.VACUUM].any()
    assert not multi_click(batch)[matched].any()
    assert np.array_equal(batch.bit[matched], train.bit[matched])


@pytest.mark.parametrize("n", [4, 9, 4099])
def test_simulate_detection_validation(n):
    """A transmittance outside [0, 1] is refused, and so are Bob's bases
    unless packed, (n + 7) // 8 bytes: a per-slot column is refused before
    anything is drawn."""
    z = np.zeros(n, dtype=np.uint8)
    alice = AliceView(z)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_detection(alice, np.packbits(z), MEANS, 1.5, DetectorConfig(), 0.0, rng)
    packed_length = (n + 7) // 8
    for basis in (z, z.astype(bool), z[: packed_length - 1], z[: packed_length + 1]):
        with pytest.raises(ValueError, match="packed"):
            simulate_detection(alice, basis, MEANS, 0.5, DetectorConfig(), 0.0, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_dark_free_empty_channel_draws_nothing():
    """With no light and no darks no slot can fire: nothing is drawn."""
    n = 1 << 20
    z = np.zeros(n, dtype=np.uint8)
    kind = np.full(n, StateClass.SIGNAL, dtype=np.uint8)
    rng = np.random.default_rng(65)
    before = rng.bit_generator.state
    alice = AliceView(words(kind, z))
    batch = simulate_detection(alice, np.packbits(z), MEANS, 0.0, DetectorConfig(), 0.1, rng)
    assert rng.bit_generator.state == before
    assert not batch.clicked.any()


def _p_bit_one(matched, alice_bit, theta):
    """Per-photon probability of reaching the bit-1 detector."""
    sin2 = math.sin(theta) ** 2
    return np.where(matched, np.where(alice_bit == 1, 1.0 - sin2, sin2), 0.5)


def _dense_detection(alice, bob_basis, class_means, eta, cfg, theta, rng):
    """Oracle: per slot, a Poisson photon number, binomial survivors, their
    binomial routing to the bit-1 detector, two dark counts and a coin."""
    n = len(alice)
    photons = rng.poisson(np.asarray(class_means)[alice.kind])
    survivors = rng.binomial(photons, eta)
    matched = alice.basis == bob_basis
    n_one = rng.binomial(survivors, _p_bit_one(matched, alice.bit, theta))
    fire0 = (survivors - n_one > 0) | (rng.random(n) < cfg.dark_count_prob_per_gate)
    fire1 = (n_one > 0) | (rng.random(n) < cfg.dark_count_prob_per_gate)
    coin = rng.integers(0, 2, size=n, dtype=np.uint8)
    both = fire0 & fire1
    clicked = fire0 | fire1
    bit = np.where(both, coin, fire1).astype(np.uint8)
    multi = both.copy()
    discarded = 0
    if cfg.double_click_policy is DoubleClickPolicy.DISCARD:
        discarded = int(both.sum())
        clicked &= ~both
        multi[:] = False
    slots = np.flatnonzero(clicked)
    return BobView(n, np.packbits(bob_basis), slots, bit[slots], np.flatnonzero(multi), discarded)


ORACLE_SLOTS = (1 << 20) + 4096
BRIGHT = SourceConfig(mu=5.0, rng_seed=61)
MEANS = BRIGHT.class_means


@pytest.fixture(scope="module")
def bright_slots():
    """mu = 5 so photon counts above 1 are common; vacuum slots stay empty."""
    train = generate_pulse_train(BRIGHT, ORACLE_SLOTS)
    bob_basis = np.random.default_rng(62).integers(0, 2, size=ORACLE_SLOTS, dtype=np.uint8)
    return train, bob_basis


def _assert_poisson_splitting(batch, slots, eta, p_dark, theta, policy):
    """det0-only, det1-only and double-click counts per (class, basis match,
    Alice bit) group within 4 sigma of the closed form P0(1-P1), (1-P0)P1 and
    P0*P1, where P_d = 1 - (1 - p_dark) exp(-eta * mean * p_d). One count is
    added to each bound of a possible outcome: some groups expect far below
    one double click, where a normal bound is too tight. Under DISCARD the
    doubles are checked as one total."""
    alice, bob_basis = slots
    group = (alice.kind.astype(np.int64) * 2 + (alice.basis == bob_basis)) * 2 + alice.bit
    # outcome 0: det0 only, 1: det1 only, 2: double, 3: no click
    outcome = np.where(multi_click(batch), 2, np.where(batch.clicked, batch.bit, 3))
    counts = np.bincount(group * 4 + outcome, minlength=48).reshape(12, 4)
    sin2 = math.sin(theta) ** 2
    expected_doubles = variance_doubles = 0.0
    for cls in StateClass:
        for match in (0, 1):
            for a_bit in (0, 1):
                row = counts[(cls * 2 + match) * 2 + a_bit]
                n = int(row.sum())
                p_one = (1.0 - sin2 if a_bit else sin2) if match else 0.5
                x = eta * MEANS[cls]
                p0 = 1.0 - (1.0 - p_dark) * math.exp(-x * (1.0 - p_one))
                p1 = 1.0 - (1.0 - p_dark) * math.exp(-x * p_one)
                expected_doubles += n * p0 * p1
                variance_doubles += n * p0 * p1 * (1 - p0 * p1)
                probs = [p0 * (1 - p1), (1 - p0) * p1]
                if policy is DoubleClickPolicy.RANDOM_BIT:
                    probs.append(p0 * p1)
                for count, p in zip(row, probs):
                    bound = 4.0 * math.sqrt(n * p * (1.0 - p)) + (1.0 if p > 0.0 else 0.0)
                    assert abs(count - n * p) <= bound, (cls.name, match, a_bit, count, n * p)
    if policy is DoubleClickPolicy.DISCARD:
        assert not multi_click(batch).any()
        bound = 4.0 * math.sqrt(variance_doubles) + (1.0 if expected_doubles > 0.0 else 0.0)
        assert abs(batch.discarded_doubles - expected_doubles) <= bound


@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
@pytest.mark.parametrize("theta", [0.0, 0.12])
@pytest.mark.parametrize("p_dark", [0.0, 1e-3])
@pytest.mark.parametrize("eta", [0.0, 7.4e-3, 0.9, 1.0])
def test_sparse_detection_matches_dense_oracle(bright_slots, eta, p_dark, theta, policy):
    """The sampler and a dense photon-by-photon oracle both give each
    outcome at the rate Poisson splitting predicts, group by group."""
    cfg = DetectorConfig(dark_count_prob_per_gate=p_dark, double_click_policy=policy)
    train, bob_basis = bright_slots
    sparse = simulate_detection(train, np.packbits(bob_basis), MEANS, eta, cfg, theta,
                                np.random.default_rng(63))
    dense = _dense_detection(*bright_slots, MEANS, eta, cfg, theta, np.random.default_rng(66))
    for batch in (sparse, dense):
        _assert_poisson_splitting(batch, bright_slots, eta, p_dark, theta, policy)


@pytest.mark.parametrize("eta, p_dark, theta", [(0.0, 1e-3, 0.0), (7.4e-3, 2e-5, 0.12), (0.9, 0.0, 0.3)])
def test_outcome_table_rows(eta, p_dark, theta):
    """Each group's row is the cumulative P0(1-P1), (1-P0)P1 and P0*P1."""
    table = _outcome_table(MEANS, eta, p_dark, theta)
    assert table.shape == (12, 3)
    sin2 = math.sin(theta) ** 2
    for cls in StateClass:
        for match in (0, 1):
            for a_bit in (0, 1):
                p_one = (1.0 - sin2 if a_bit else sin2) if match else 0.5
                x = eta * MEANS[cls]
                p0 = 1.0 - (1.0 - p_dark) * math.exp(-x * (1.0 - p_one))
                p1 = 1.0 - (1.0 - p_dark) * math.exp(-x * p_one)
                row = np.diff(table[cls * 4 + match * 2 + a_bit], prepend=0.0)
                assert np.allclose(row, [p0 * (1 - p1), (1 - p0) * p1, p0 * p1], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
def test_draw_order(bright_slots, policy):
    """One call leaves the generator where the documented draws leave it,
    chunk by chunk: the binomial count at p_max over the chunk, the
    candidates, one uniform per candidate, then one coin per double of the
    chunk under RANDOM_BIT."""
    eta, p_dark, theta = 0.9, 1e-3, 0.12
    cfg = DetectorConfig(dark_count_prob_per_gate=p_dark, double_click_policy=policy)
    rng = np.random.default_rng(68)
    train, bob_basis = bright_slots
    view = simulate_detection(train, np.packbits(bob_basis), MEANS, eta, cfg, theta, rng)
    assert len(view.multi_slots) + view.discarded_doubles > 0
    reference = np.random.default_rng(68)
    p_max = _outcome_table(MEANS, eta, p_dark, theta)[:, 2].max()
    chunks = list(chunk_slices(ORACLE_SLOTS))
    assert len(chunks) == 2
    for lo, hi in chunks:
        k = reference.binomial(hi - lo, p_max)
        reference.choice(hi - lo, size=k, replace=False, shuffle=False)
        reference.random(k)
        if policy is DoubleClickPolicy.RANDOM_BIT:
            n_doubles = np.count_nonzero((lo <= view.multi_slots) & (view.multi_slots < hi))
            reference.integers(0, 2, size=n_doubles, dtype=np.uint8)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n", [1, 3])
def test_short_batches_click_at_the_dark_rate(n):
    """At eta 0 every slot of a short batch, its last one too, clicks at the
    empty-slot yield 1 - (1 - p_dark)^2."""
    p_dark, calls = 1e-3, 10_000
    cfg = DetectorConfig(dark_count_prob_per_gate=p_dark)
    z = np.zeros(n, dtype=np.uint8)
    kind = np.full(n, StateClass.SIGNAL, dtype=np.uint8)
    rng = np.random.default_rng(67)
    alice, packed = AliceView(words(kind, z)), np.packbits(z)
    clicks = np.zeros(n, dtype=np.int64)
    for _ in range(calls):
        clicks += simulate_detection(alice, packed, MEANS, 0.0, cfg, 0.0, rng).clicked
    y0 = cfg.background_yield
    bound = 4.0 * math.sqrt(calls * y0 * (1.0 - y0)) + 1.0
    assert np.all(np.abs(clicks - calls * y0) <= bound), clicks
