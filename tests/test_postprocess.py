import hashlib
import math

import numpy as np
import pytest

from uwqkd.postprocess import (
    CascadeCorrector,
    CascadeResponder,
    PASeed,
    ReconciliationFailed,
    _block_parities,
    _layouts,
    _parity_prefix,
    binary_entropy,
    final_key_length,
    generate_pa_seed,
    key_hash_64,
    toeplitz_hash,
)
from uwqkd.analysis import DecoyStatistics, SinglePhotonBounds, secure_key_rate


def _keys_with_errors(n, n_errors, seed):
    rng = np.random.default_rng(seed)
    reference = rng.integers(0, 2, size=n, dtype=np.uint8)
    noisy = reference.copy()
    flips = rng.choice(n, size=n_errors, replace=False)
    noisy[flips] ^= 1
    return reference, noisy


def _cascade(noisy, reference, qber_hint, seed=0, responder_seed=None):
    """Run a corrector holding `noisy` to completion against a responder
    holding `reference`; returns both."""
    corrector = CascadeCorrector(noisy, qber_hint, seed)
    responder = CascadeResponder(reference, qber_hint, seed if responder_seed is None else responder_seed)
    msg = corrector.start()
    while msg is not None:
        msg = corrector.on_reply(responder.on_message(msg))
    return corrector, responder


def test_key_hash_is_sensitive():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=1000, dtype=np.uint8)
    h = key_hash_64(bits)
    assert h == key_hash_64(bits.copy())
    for i in (0, 499, 999):
        flipped = bits.copy()
        flipped[i] ^= 1
        assert key_hash_64(flipped) != h
    # length is part of the digest: a zero-padded key hashes differently
    assert key_hash_64(np.append(bits, 0)) != h
    assert key_hash_64(bits[:999]) != h


def test_key_hash_is_blake2b_64():
    """The digest is BLAKE2b-64, big-endian, of the packed bits followed by
    the bit length as 8 big-endian bytes."""
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 64, 129):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        data = np.packbits(bits).tobytes() + n.to_bytes(8, "big")
        assert key_hash_64(bits) == int(hashlib.blake2b(data, digest_size=8).hexdigest(), 16)


@pytest.mark.parametrize("n, block_size", [(1024, 37), (1000, 8), (64, 64), (100, 200)])
def test_parities_read_off_the_prefix_match_direct_sums(n, block_size):
    """Every block and range parity Cascade reads off a pass's prefix
    parities equals the sum, mod 2, of the permuted key's bits."""
    rng = np.random.default_rng(n)
    key = rng.integers(0, 2, size=n, dtype=np.uint8)
    lay = _layouts(n, block_size, seed=3, first=0, n_passes=2)[1]
    permuted = key[lay.permutation].astype(np.int64)
    pref = _parity_prefix(key, lay)
    size = lay.block_size
    direct = [permuted[lo : lo + size].sum() & 1 for lo in range(0, n, size)]
    assert _block_parities(pref, size).tolist() == direct
    for lo, hi in rng.integers(0, n + 1, size=(200, 2)):
        lo, hi = sorted((int(lo), int(hi)))
        assert pref[hi] ^ pref[lo] == permuted[lo:hi].sum() & 1


def test_cascade_error_free_key():
    reference, _ = _keys_with_errors(1024, 0, seed=1)
    result, _ = _cascade(reference.copy(), reference, 0.02)
    assert result.residual_check
    assert result.corrections == 0
    assert np.array_equal(result.key, reference)
    # initial block 37 bits (half-up rounding of 0.73/0.02), doubling per pass:
    # 28 + 14 + 7 + 4 block parities, plus the 64-bit verification digest.
    assert result.parity_bits == 53
    assert result.leaked_bits == 117


def test_cascade_repairs_two_percent():
    n, n_err = 10_000, 200
    reference, noisy = _keys_with_errors(n, n_err, seed=7)
    result, _ = _cascade(noisy, reference, 0.02)
    assert result.residual_check
    assert np.array_equal(result.key, reference)
    # every flip lands on a true error, so corrections count them exactly
    assert result.corrections == n_err
    assert result.leaked_bits <= 1.5 * n * binary_entropy(0.02)
    assert result.parity_bits <= 4 * n


@pytest.mark.parametrize("qber", [0.005, 0.05, 0.10])
def test_cascade_across_error_rates(qber):
    n = 6000
    reference, noisy = _keys_with_errors(n, int(n * qber), seed=int(qber * 1000))
    result, _ = _cascade(noisy, reference, qber)
    assert result.residual_check
    assert np.array_equal(result.key, reference)
    assert result.parity_bits <= 4 * n


@pytest.mark.parametrize(
    "n_errors, seed, qber_hint",
    [(80, 9, 0.05), (70, 0, 0.002)],
    ids=["hint_too_high", "hint_too_low"],
)
def test_cascade_survives_wrong_hint(n_errors, seed, qber_hint):
    # the hint only sizes blocks; convergence does not depend on it. Blocks
    # sized for a hint 8x too low leave errors after four passes, so this one
    # needs the second round that the first digest mismatch starts.
    reference, noisy = _keys_with_errors(4096, n_errors, seed=seed)
    result, responder = _cascade(noisy, reference, qber_hint)
    assert result.residual_check
    assert np.array_equal(result.key, reference)
    assert result.leaked_bits == result.parity_bits + 64 * result.digests
    # both sides keep the same ledger, second round included
    assert result.digests == responder.digests == (2 if qber_hint < 0.01 else 1)
    assert (result.parity_bits, result.leaked_bits) == (responder.parity_bits, responder.leaked_bits)


def test_cascade_deterministic():
    reference, noisy = _keys_with_errors(4096, 80, seed=11)
    r1, _ = _cascade(noisy.copy(), reference, 0.02, seed=5)
    r2, _ = _cascade(noisy.copy(), reference, 0.02, seed=5)
    assert r1.leaked_bits == r2.leaked_bits
    assert r1.corrections == r2.corrections
    assert np.array_equal(r1.key, r2.key)


def test_cascade_mismatched_seeds_fail_verification():
    # different permutation seeds make the transcripts inconsistent; the final
    # digest comparison has to catch it
    reference, noisy = _keys_with_errors(2048, 40, seed=13)
    try:
        result, _ = _cascade(noisy, reference, 0.02, seed=2, responder_seed=1)
        assert not result.residual_check
    except ReconciliationFailed:
        pass  # budget guard tripping is also a loud failure


def test_cascade_rejects_wrong_parity_count():
    reference, noisy = _keys_with_errors(1024, 10, seed=7)
    corrector = CascadeCorrector(noisy, 0.02, seed=1)
    responder = CascadeResponder(reference, 0.02, seed=1)
    kind, p, parities = responder.on_message(corrector.start())
    with pytest.raises(ReconciliationFailed):
        corrector.on_reply((kind, p, parities[:-1]))


@pytest.mark.parametrize("ask", [("pass_begin", 1), ("verify", 0, 0)])
def test_corrector_takes_only_the_reply_it_asked_for(ask):
    """While a range reply is due, another kind of reply fails and counts
    nothing: no digest, no second round, no parities. So do a second start
    and a reply before the first message, after a failure or after the end."""
    reference, noisy = _keys_with_errors(1024, 10, seed=7)
    corrector = CascadeCorrector(noisy, 0.02, seed=1)
    responder = CascadeResponder(reference, 0.02, seed=1)
    reply = CascadeResponder(reference, 0.02, seed=1).on_message(ask)  # well formed, but out of turn
    msg = corrector.start()
    while msg[0] != "range_query":
        msg = corrector.on_reply(responder.on_message(msg))
    counted = corrector.parity_bits
    with pytest.raises(ReconciliationFailed, match="unexpected reconciliation message"):
        corrector.on_reply(reply)
    assert (corrector.parity_bits, corrector.digests, len(corrector.layouts)) == (counted, 0, 4)
    with pytest.raises(ReconciliationFailed, match="already started"):
        corrector.start()
    with pytest.raises(ReconciliationFailed, match="not running"):
        corrector.on_reply(responder.on_message(msg))

    for corrector in (CascadeCorrector(noisy, 0.02, seed=1), _cascade(noisy, reference, 0.02, seed=1)[0]):
        with pytest.raises(ReconciliationFailed, match="not running"):
            corrector.on_reply(reply)


def test_cascade_parity_budget_guards_both_sides():
    """Past 8 n parity bits either side gives up: the responder once the
    range queries it is asked would cross the budget, the corrector once the
    replies it consumes would. Neither counts the parities it refused, so
    both ledgers stop at the budget."""
    key, _ = _keys_with_errors(1024, 0, seed=7)
    responder = CascadeResponder(key, 0.02, seed=1)
    for _ in range(8):
        responder.on_message(("range_query", 0, [0] * 1024, [1] * 1024))
    assert responder.parity_bits == 8 * 1024
    with pytest.raises(ReconciliationFailed, match="budget"):
        responder.on_message(("range_query", 0, [0], [1]))

    corrector = CascadeCorrector(key, 0.02, seed=1)

    def lying_reply(msg):
        # a responder whose key differs from the corrector's current key at
        # bit 5, however often that bit is corrected: the searches never end
        liar = corrector.key.copy()
        liar[5] ^= 1
        return CascadeResponder(liar, 0.02, seed=1).on_message(msg)

    msg = corrector.start()
    with pytest.raises(ReconciliationFailed, match="budget"):
        for _ in range(8 * 1024):
            msg = corrector.on_reply(lying_reply(msg))
    assert corrector.parity_bits == 8 * 1024  # the refused reply is not counted


def test_responder_answers_a_level_in_one_gather():
    """Each answer to a range query is the parity of the named pass's
    permuted key over that range [lo, hi), in the order of the ranges."""
    key, _ = _keys_with_errors(1024, 0, seed=5)
    responder = CascadeResponder(key, 0.02, seed=4)
    rng = np.random.default_rng(6)
    for p in range(4):
        permuted = key[responder.layouts[p].permutation].astype(np.int64)
        lo = rng.integers(0, 1024, size=300)
        hi = lo + 1 + rng.integers(0, 1024 - lo)  # in (lo, 1024]
        kind, answers = responder.on_message(("range_query", p, lo, hi))
        assert kind == "range_reply" and answers.dtype == np.uint8
        assert answers.tolist() == [permuted[a:b].sum() & 1 for a, b in zip(lo, hi)]
    assert responder.parity_bits == 4 * 300


def _double_hit_keys():
    """Two errors in pass 0's first block (so pass 0 sees neither) that pass 1
    puts in two of its blocks: pass 1's one search finds both, and both toggle
    pass 0's first block, which must end matched."""
    reference, noisy = _keys_with_errors(1024, 0, seed=8)
    pass1 = _layouts(1024, 37, seed=1, first=0, n_passes=2)[1]  # 0.02 hint: blocks of 37, then 74
    second = next(b for b in range(1, 37) if pass1.inverse[b] // 74 != pass1.inverse[0] // 74)
    noisy[[0, second]] ^= 1
    return reference, noisy


@pytest.mark.parametrize(
    "keys", [_double_hit_keys, lambda: _keys_with_errors(36_000, 700, seed=21)], ids=["double_hit", "lowloss"]
)
def test_corrector_mismatch_records_follow_its_key(keys):
    """At every message the corrector sends, so after every finished search,
    each begun pass's mismatch record is the responder's block parities XOR
    the corrector's own, read off its current key through its prefix cache."""
    reference, noisy = keys()
    corrector = CascadeCorrector(noisy, 0.02, seed=1)
    responder = CascadeResponder(reference, 0.02, seed=1)
    msg = corrector.start()
    while msg is not None:
        for p, mismatch in enumerate(corrector._mismatch):
            lay, pref = corrector.layouts[p], corrector._prefix(p)
            assert np.array_equal(pref, _parity_prefix(corrector.key, lay))
            remote = _block_parities(_parity_prefix(reference, lay), lay.block_size)
            assert np.array_equal(mismatch, remote ^ _block_parities(pref, lay.block_size))
        msg = corrector.on_reply(responder.on_message(msg))
    assert corrector.residual_check and np.array_equal(corrector.key, reference)
    assert corrector.corrections == np.count_nonzero(noisy != reference)


def _party(state):
    """A responder, a corrector awaiting its first pass parities, or one
    awaiting a range reply; and the call that takes its next message."""
    reference, noisy = _keys_with_errors(1024, 10, seed=7)
    responder = CascadeResponder(reference, 0.02, seed=1)
    if state == "responder":
        return responder, responder.on_message
    corrector = CascadeCorrector(noisy, 0.02, seed=1)
    msg = corrector.start()
    while state == "searching" and msg[0] != "range_query":
        msg = corrector.on_reply(responder.on_message(msg))
    return corrector, corrector.on_reply


@pytest.mark.parametrize(
    "state, msg",
    [
        ("responder", ("pass_begin", 9)),
        ("responder", ("pass_begin", -1)),
        ("responder", ("pass_begin", 1.0)),
        ("responder", ("pass_begin",)),
        ("responder", ("verify", 1)),
        ("responder", ("verify", None, 0)),
        ("responder", ("range_query", [(0, 0, 1)])),
        ("responder", ("range_query", 4, [0], [1])),
        ("responder", ("range_query", 0, [0, 1], [1])),
        ("responder", ("range_query", 0, [2], [1])),
        ("responder", ("range_query", 0, [0], [1025])),
        ("responder", ("range_query", 0, [-1], [1])),
        ("responder", ("range_query", 0, [[0, 1]], [[1, 2]])),
        ("responder", ("range_query", 0, 0, 1)),
        ("responder", ("range_reply", [0])),
        ("responder", "pass_begin"),
        ("responder", ()),
        ("corrector", ("pass_parities",)),
        ("corrector", ("pass_parities", 0, None)),
        ("corrector", ("pass_parities", 0, [[0, 1]])),
        ("corrector", ("pass_parities", None, [0])),
        ("corrector", ("pass_parities", 9, [0])),
        ("corrector", ("pass_parities", 0, [0] * 3)),
        ("searching", ("range_reply",)),
        ("searching", ("range_reply", None)),
        ("searching", ("range_reply", 1)),
        ("searching", ("range_reply", [0, 1], [1])),
    ],
)
def test_cascade_parties_refuse_malformed_messages(state, msg):
    """A message of a kind the party does not take now, of another arity,
    with a field of the wrong type or shape, naming a pass that is not laid
    out, or with a range outside the key fails with ReconciliationFailed and
    counts nothing."""
    party, take = _party(state)
    counted = party.parity_bits
    with pytest.raises(ReconciliationFailed):
        take(msg)
    assert (party.parity_bits, party.digests) == (counted, 0)


def test_cascade_hint_domain():
    reference, noisy = _keys_with_errors(256, 4, seed=3)
    with pytest.raises(ValueError):
        _cascade(noisy, reference, 0.0)
    with pytest.raises(ValueError):
        _cascade(noisy, reference, 0.3)
    with pytest.raises(ValueError):
        _cascade(noisy[:32], reference, 0.02)  # too short


def test_toeplitz_hand_example():
    # n=4, m=2, seed bits (1,0,1,1,0): T = [[1,1,0,1],[0,1,1,0]]
    seed = PASeed(bits=np.array([1, 0, 1, 1, 0], dtype=np.uint8),
                  input_length=4, output_length=2)
    out = toeplitz_hash(np.array([1, 1, 0, 1], dtype=np.uint8), seed)
    assert out.tolist() == [1, 1]


def test_toeplitz_matches_explicit_matrix():
    rng = np.random.default_rng(21)
    for n, m in [(8, 3), (16, 16), (33, 7), (50, 1), (5, 5)]:
        seed = generate_pa_seed(n, m, rng)
        key = rng.integers(0, 2, size=n, dtype=np.uint8)
        T = np.zeros((m, n), dtype=np.uint8)
        for i in range(m):
            for j in range(n):
                T[i, j] = seed.bits[i - j + n - 1]
        expected = (T @ key) & 1
        assert np.array_equal(toeplitz_hash(key, seed), expected)


def test_toeplitz_is_linear():
    rng = np.random.default_rng(8)
    seed = generate_pa_seed(256, 100, rng)
    for _ in range(100):
        x = rng.integers(0, 2, size=256, dtype=np.uint8)
        y = rng.integers(0, 2, size=256, dtype=np.uint8)
        lhs = toeplitz_hash(x ^ y, seed)
        rhs = toeplitz_hash(x, seed) ^ toeplitz_hash(y, seed)
        assert np.array_equal(lhs, rhs)


def test_toeplitz_edge_sizes():
    rng = np.random.default_rng(0)
    empty = toeplitz_hash(rng.integers(0, 2, 10, dtype=np.uint8), generate_pa_seed(10, 0, rng))
    assert empty.size == 0
    with pytest.raises(ValueError):
        toeplitz_hash(np.zeros(9, dtype=np.uint8), generate_pa_seed(10, 4, rng))


def test_pa_seed_validation():
    rng = np.random.default_rng(2)
    seed = generate_pa_seed(100, 40, rng)
    assert len(seed.bits) == 139
    with pytest.raises(ValueError):
        PASeed(bits=np.zeros(10, dtype=np.uint8), input_length=100, output_length=40)
    with pytest.raises(ValueError):
        PASeed(bits=np.zeros(139, dtype=np.uint8), input_length=40, output_length=100)
    with pytest.raises(ValueError):
        PASeed(bits=np.full(139, 2, dtype=np.uint8), input_length=100, output_length=40)


def _rate():
    stats = DecoyStatistics(q_mu=1.48e-2, e_mu=0.0121, q_nu=1.89e-3, e_nu=0.0181, y0=0.0)
    bounds = SinglePhotonBounds(y1_lower=4.84e-3 / (0.8 * math.exp(-0.8)),
                                q1=4.84e-3, e1_upper=0.0118)
    return secure_key_rate(stats, bounds).r_per_pulse


def test_final_key_length_from_rate():
    decision = final_key_length(10**7, _rate(), 10**6, 0)
    assert decision.length == 13856  # floor(1e7 * 1.38569655e-3)
    assert not decision.capped


def test_final_key_length_cap():
    # 100 sifted bits less a 20-bit disclosed sample leave an 80-bit key
    decision = final_key_length(10**7, _rate(), 80, 50)
    assert decision.length == 30
    assert decision.capped
    starved = final_key_length(10**7, _rate(), 20, 50)
    assert starved.length == 0
    assert starved.capped


def test_final_key_length_zero_rate():
    stats = DecoyStatistics(q_mu=1e-2, e_mu=0.11, q_nu=1.3e-3, e_nu=0.11, y0=0.0)
    dead = secure_key_rate(stats, SinglePhotonBounds(0.0, 0.0, 0.5))
    decision = final_key_length(10**7, dead.r_per_pulse, 10**6, 0)
    assert decision.length == 0
    assert not decision.capped


def test_final_key_length_validation():
    with pytest.raises(ValueError):
        final_key_length(10**7, _rate(), -1, 0)
    with pytest.raises(ValueError):
        final_key_length(10**7, _rate(), 10, -2)
    with pytest.raises(ValueError):
        final_key_length(-1, _rate(), 10, 0)


def _full_convolution_hash(key, seed):
    """The direct O(n·m) reference: the whole integer convolution, windowed."""
    n, m = seed.input_length, seed.output_length
    conv = np.convolve(seed.bits.astype(np.int64), key.astype(np.int64))
    return (conv[n - 1 : n - 1 + m] & 1).astype(np.uint8)


def _pa_inputs(n, m, all_ones, rng):
    if all_ones:  # every window value is n, the largest the FFT has to round
        return np.ones(n, dtype=np.uint8), PASeed(np.ones(n + m - 1, dtype=np.uint8), n, m)
    return rng.integers(0, 2, size=n, dtype=np.uint8), generate_pa_seed(n, m, rng)


@pytest.mark.parametrize("all_ones", [False, True], ids=["random", "all-ones"])
@pytest.mark.parametrize(
    "n, m", [(1, 1), (2, 1), (7, 7), (64, 64), (1000, 999), (5921, 2901), (40_000, 22_000)]
)
def test_toeplitz_fft_matches_full_convolution(n, m, all_ones):
    key, seed = _pa_inputs(n, m, all_ones, np.random.default_rng([n, m]))
    out = toeplitz_hash(key, seed)
    assert out.dtype == np.uint8
    assert np.array_equal(out, _full_convolution_hash(key, seed))


@pytest.mark.parametrize("all_ones", [False, True], ids=["random", "all-ones"])
def test_toeplitz_fft_exact_rows_at_300k(all_ones):
    n, m = 300_000, 150_000
    rng = np.random.default_rng(300)
    key, seed = _pa_inputs(n, m, all_ones, rng)
    out = toeplitz_hash(key, seed)
    seed_bits, key_bits = seed.bits.astype(np.int64), key.astype(np.int64)
    for i in rng.choice(m, size=256, replace=False):
        row = seed_bits[i : i + n][::-1]  # T[i][j] = seed[i - j + n - 1]
        assert out[i] == int(row @ key_bits) & 1, i


@pytest.mark.parametrize("offset", [0.3, 0.7])
def test_toeplitz_falls_back_to_exact_convolution(monkeypatch, offset):
    # an offset of 0.3 rounds back to the right integer, 0.7 to the wrong one;
    # both are 0.3 from the nearest integer, so both must take the exact path
    key, seed = _pa_inputs(3000, 1700, False, np.random.default_rng(17))
    expected = _full_convolution_hash(key, seed)
    irfft, convolve = np.fft.irfft, np.convolve
    exact_calls = []

    def spy_convolve(*args, **kwargs):
        exact_calls.append(kwargs.get("mode"))
        return convolve(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + offset)
    monkeypatch.setattr(np, "convolve", spy_convolve)
    assert np.array_equal(toeplitz_hash(key, seed), expected)
    assert exact_calls == ["valid"]
