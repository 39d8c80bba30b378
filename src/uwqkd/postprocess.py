"""Classical key distillation: Cascade, privacy amplification, final key length.

Cascade runs over four passes with block halving searches. The corrector
(holder of the noisy key) drives; the responder (holder of the reference key)
only ever answers parity questions about fixed ranges of its own key, plus a
64-bit digest comparison after the last pass. A correction found in pass p
re-checks the containing blocks of every earlier pass (backtracking). That
still leaves errors when the sampled QBER hint is far too low: the blocks are
then too large for four passes. So the first digest mismatch starts a second
round of as many fresh passes, block sizes again from the first pass's, and
then a second digest; only a second mismatch fails the reconciliation.
Both sides derive from one party, which owns the layouts, the second round,
Cascade's outcome (the corrections, the residual digest check) and the
ledger of parity bits and digests under one 8n parity budget; a parity is
counted only once it is within that budget, so the ledger never exceeds it.
A session holds one party and reads that outcome off it in place.
Every parity either side computes, of a whole block or of a search range
[lo, hi), is read off one array, the prefix sums mod 2 of the pass's permuted
key: pref[hi] ^ pref[lo].

Privacy amplification is a Toeplitz-matrix hash over GF(2) with
T[i][j] = seed[i - j + n - 1]. Its m output bits are the window
conv(seed, key)[n-1 : n-1+m] of an integer convolution, taken mod 2. The
window is read off a float64 FFT product of power-of-two length
L >= n + m - 1 (wrap-around reaches only indices <= n - 2, outside it), in
O(L log L) rather than O(n·m). Each value is rounded to the nearest integer;
if any lies 0.25 or more from it, the float result is not trusted and the
window is recomputed exactly with an integer convolution.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import MIN_KEY_BITS


class ReconciliationFailed(RuntimeError):
    """Cascade exceeded its parity budget or was fed an inconsistent transcript."""


def binary_entropy(x):
    """H2(x) = -x log2 x - (1-x) log2 (1-x), elementwise, H2(0)=H2(1)=0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("binary entropy argument must be in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -arr * np.log2(arr) - (1.0 - arr) * np.log2(1.0 - arr)
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    return float(h) if np.isscalar(x) or np.ndim(x) == 0 else h


# ---------------------------------------------------------------------------
# 64-bit polynomial digest (table-driven CRC-64, poly 0x42F0E1EBA9EA3693).

_CRC64_POLY = 0x42F0E1EBA9EA3693
_MASK64 = (1 << 64) - 1


def _build_crc64_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ _CRC64_POLY) & _MASK64
            else:
                crc = (crc << 1) & _MASK64
        table.append(crc)
    return table


_CRC64_TABLE = _build_crc64_table()


def key_hash_64(bits: np.ndarray) -> int:
    """Degree-64 polynomial digest of a bit string; bit length is mixed in."""
    bits = np.asarray(bits, dtype=np.uint8)
    data = np.packbits(bits).tobytes() + struct.pack(">Q", len(bits))
    crc = 0
    for b in data:
        crc = (_CRC64_TABLE[((crc >> 56) ^ b) & 0xFF] ^ (crc << 8)) & _MASK64
    return crc


# ---------------------------------------------------------------------------
# Cascade

_PARITY_BUDGET_FACTOR = 8  # hard loop guard; observed usage stays under 4n


def _initial_block_size(qber_hint: float) -> int:
    if not 0.0 < qber_hint <= 0.25:
        raise ValueError("qber hint must be in (0, 0.25]")
    return max(8, math.floor(0.73 / qber_hint + 0.5))


def _pass_permutation(n: int, seed: int, pass_index: int) -> np.ndarray:
    if pass_index == 0:
        return np.arange(n)
    return np.random.default_rng([seed & _MASK64, pass_index]).permutation(n)


@dataclass
class _PassLayout:
    permutation: np.ndarray
    inverse: np.ndarray
    block_size: int


def _layouts(n: int, k1: int, seed: int, first: int, n_passes: int) -> list[_PassLayout]:
    """Passes first .. first + n_passes - 1, with block sizes k1, 2 k1, 4 k1, ..."""
    layouts = []
    for p in range(first, first + n_passes):
        perm = _pass_permutation(n, seed, p)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        block = min(n, k1 << (p - first))
        layouts.append(_PassLayout(perm, inv, block))
    return layouts


def _parity_prefix(key: np.ndarray, lay: _PassLayout) -> np.ndarray:
    """Prefix sums mod 2 of the permuted key: pref[i] is the parity of its
    first i bits, so [lo, hi) has parity pref[hi] ^ pref[lo]."""
    pref = np.zeros(len(key) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(key[lay.permutation], out=pref[1:])
    return pref


def _range_parity(pref: np.ndarray, lo: int, hi: int) -> int:
    return int(pref[hi] ^ pref[lo])


def _block_parities(pref: np.ndarray, block_size: int) -> np.ndarray:
    """Parity of every block of one pass, the last one possibly short."""
    n = len(pref) - 1
    edges = pref[np.append(np.arange(0, n, block_size), n)]
    return edges[1:] ^ edges[:-1]


class _CascadeParty:
    """What the two sides of Cascade share: the key (a copy), the pass
    layouts, the second round, each pass's prefix parities, the outcome
    (corrections, and the residual check: None until the last digest is in)
    and one ledger of what was disclosed (parity bits and 64-bit digests)
    under one parity budget."""

    def __init__(self, key: np.ndarray, qber_hint: float, seed: int, n_passes: int = 4):
        self.key = np.array(key, dtype=np.uint8)
        if self.key.ndim != 1 or len(self.key) < MIN_KEY_BITS:
            raise ValueError(f"key must be 1-D with at least {MIN_KEY_BITS} bits")
        self.n = len(self.key)
        self.n_passes = n_passes
        self._k1, self._seed = _initial_block_size(qber_hint), seed
        self.layouts = _layouts(self.n, self._k1, seed, 0, n_passes)
        self._prefixes: dict[int, np.ndarray] = {}  # by pass, until the key changes
        self.parity_bits = 0
        self.digests = 0
        self.corrections = 0
        self.residual_check: bool | None = None

    def _prefix(self, p: int) -> np.ndarray:
        pref = self._prefixes.get(p)
        if pref is None:
            pref = self._prefixes[p] = _parity_prefix(self.key, self.layouts[p])
        return pref

    def _disclose(self, n_parities: int) -> None:
        """Count parities within the budget; past it, count none and fail."""
        if self.parity_bits + n_parities > _PARITY_BUDGET_FACTOR * self.n:
            raise ReconciliationFailed("parity disclosure budget exhausted")
        self.parity_bits += n_parities

    def _compare_digests(self, match: bool) -> bool:
        """Count one digest. The first mismatch adds a second round of
        passes, block sizes again from the first pass's; True if it did.
        Otherwise that digest was the last, and residual_check is its match."""
        self.digests += 1
        if match or self.digests > 1:
            self.residual_check = bool(match)
            return False
        self.layouts += _layouts(self.n, self._k1, self._seed, self.n_passes, self.n_passes)
        return True

    @property
    def leaked_bits(self) -> int:
        return self.parity_bits + 64 * self.digests


class CascadeResponder(_CascadeParty):
    """Reference-key side of Cascade: answers parity questions, never mutates."""

    def _answers(self, queries):
        """The parity of each queried range, in order; a range outside the key fails."""
        for p, lo, hi in queries:
            pref = self._prefix(p)
            if not 0 <= lo < hi <= self.n:
                raise ReconciliationFailed(f"bad parity range [{lo}, {hi})")
            yield _range_parity(pref, lo, hi)

    def on_message(self, msg: tuple) -> tuple:
        kind = msg[0]
        if kind == "pass_begin":
            p = msg[1]
            parities = _block_parities(self._prefix(p), self.layouts[p].block_size)
            self._disclose(len(parities))
            return ("pass_parities", p, parities)
        if kind == "range_query":
            answers = np.fromiter(self._answers(msg[1]), dtype=np.uint8, count=len(msg[1]))
            self._disclose(len(answers))
            return ("range_reply", answers)
        if kind == "verify":
            self.corrections = int(msg[2])
            mine = key_hash_64(self.key)
            self._compare_digests(msg[1] == mine)
            return ("verify_result", msg[1] == mine, mine)
        raise ReconciliationFailed(f"unexpected reconciliation message {kind!r}")


@dataclass
class _Search:
    pass_index: int
    lo: int
    hi: int
    prefix: np.ndarray  # the pass's prefix parities


class CascadeCorrector(_CascadeParty):
    """Noisy-key side of Cascade. Emits one message, consumes one reply."""

    def __init__(self, key: np.ndarray, qber_hint: float, seed: int, n_passes: int = 4):
        super().__init__(key, qber_hint, seed, n_passes)
        self._mismatch: list[np.ndarray] = []  # per begun pass: remote ^ own block parities
        self.searches: list[_Search] = []

    def _flip(self, real_pos: int) -> None:
        self.key[real_pos] ^= 1
        self._prefixes.clear()
        self.corrections += 1
        for lay, mismatch in zip(self.layouts, self._mismatch):
            mismatch[int(lay.inverse[real_pos]) // lay.block_size] ^= 1

    def _pending(self) -> list[_Search]:
        return [s for s in self.searches if s.hi - s.lo > 1]

    def start(self) -> tuple:
        return ("pass_begin", 0)

    def on_reply(self, msg: tuple):
        """Consume the responder's reply; return the next message or None."""
        if self.residual_check is not None:
            raise ReconciliationFailed("reconciliation already finished")
        kind = msg[0]
        if kind == "pass_parities":
            p = msg[1]
            if p != len(self._mismatch):
                raise ReconciliationFailed("pass parities out of order")
            remote = np.asarray(msg[2], dtype=np.uint8)
            mine = _block_parities(self._prefix(p), self.layouts[p].block_size)
            if len(remote) != len(mine):
                raise ReconciliationFailed("pass parity count mismatch")
            self._mismatch.append(remote ^ mine)
            self._disclose(len(remote))
        elif kind == "range_reply":
            self._consume_range_reply(np.asarray(msg[1], dtype=np.uint8))
            self._disclose(len(msg[1]))
        elif kind == "verify_result":
            if not self._compare_digests(msg[1]):
                return None
        else:
            raise ReconciliationFailed(f"unexpected reconciliation reply {kind!r}")
        return self._next_action()

    def _next_action(self) -> tuple:
        pending = self._pending()
        if pending:
            return ("range_query", [(s.pass_index, s.lo, (s.lo + s.hi) // 2) for s in pending])
        # all searches done: apply flips, then look for new mismatches
        for pos in {self.layouts[s.pass_index].permutation[s.lo] for s in self.searches}:
            self._flip(int(pos))
        self.searches = []
        for p, mismatch in enumerate(self._mismatch):
            blocks = np.flatnonzero(mismatch)
            if len(blocks):
                size, pref = self.layouts[p].block_size, self._prefix(p)
                self.searches = [_Search(p, int(b) * size, min((int(b) + 1) * size, self.n), pref) for b in blocks]
                return self._next_action()
        if len(self._mismatch) < len(self.layouts):
            return ("pass_begin", len(self._mismatch))
        return ("verify", key_hash_64(self.key), self.corrections)

    def _consume_range_reply(self, answers: np.ndarray) -> None:
        pending = self._pending()
        if len(answers) != len(pending):
            raise ReconciliationFailed("range reply length mismatch")
        for s, remote_left in zip(pending, answers):
            mid = (s.lo + s.hi) // 2
            if int(remote_left) != _range_parity(s.prefix, s.lo, mid):
                s.hi = mid
            else:
                s.lo = mid


# ---------------------------------------------------------------------------
# Privacy amplification


@dataclass(frozen=True)
class PASeed:
    """Seed bits defining an output_length x input_length Toeplitz matrix."""

    bits: np.ndarray
    input_length: int
    output_length: int

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)
        if self.input_length < 0 or self.output_length < 0:
            raise ValueError("lengths must be >= 0")
        if self.output_length > self.input_length:
            raise ValueError("output cannot be longer than input")
        expected = max(self.input_length + self.output_length - 1, 0)
        if len(bits) != expected:
            raise ValueError(f"seed needs {expected} bits, got {len(bits)}")
        if bits.size and not np.isin(bits, (0, 1)).all():
            raise ValueError("seed bits must be 0/1")


def generate_pa_seed(input_length: int, output_length: int, rng: np.random.Generator) -> PASeed:
    n_bits = max(input_length + output_length - 1, 0)
    return PASeed(
        bits=rng.integers(0, 2, size=n_bits, dtype=np.uint8),
        input_length=input_length,
        output_length=output_length,
    )


def toeplitz_hash(key_bits: np.ndarray, seed: PASeed) -> np.ndarray:
    """GF(2) product T @ key for T[i][j] = seed[i - j + n - 1].

    out[i] = conv(seed, key)[i + n - 1] mod 2, for the m outputs only: read
    from a circular FFT convolution of length L >= n + m - 1 and rounded. If
    any rounded value is 0.25 or more away from the float one, the window is
    recomputed exactly by np.convolve(..., mode="valid"), which returns just
    those m values.
    """
    key = np.asarray(key_bits, dtype=np.uint8)
    if key.ndim != 1 or len(key) != seed.input_length:
        raise ValueError("key length must equal the seed's input length")
    n, m = seed.input_length, seed.output_length
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    size = 1 << (n + m - 2).bit_length()  # smallest power of two >= n + m - 1
    spectrum = np.fft.rfft(seed.bits, size) * np.fft.rfft(key, size)
    window = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + m]
    exact = np.rint(window)
    if np.max(np.abs(window - exact)) >= 0.25:
        exact = np.convolve(seed.bits.astype(np.int64), key.astype(np.int64), mode="valid")
    return (exact.astype(np.int64) & 1).astype(np.uint8)


@dataclass(frozen=True)
class KeyLengthDecision:
    length: int
    capped: bool


def final_key_length(
    n_pulses: int, r_per_pulse: float, n_key_bits: int, leaked_bits: int
) -> KeyLengthDecision:
    """Secure output length: floor(n_pulses * r_per_pulse), capped by the bits on hand.

    n_key_bits is the corrected key's length (sifted signal bits minus the
    publicly disclosed sample); the cap is that minus every bit leaked during
    reconciliation, and the capped flag records when the rate formula asked
    for more than the cap.
    """
    if n_pulses < 0 or n_key_bits < 0 or leaked_bits < 0:
        raise ValueError("pulse and bit counts must be >= 0")
    raw = math.floor(n_pulses * r_per_pulse)
    cap = max(n_key_bits - leaked_bits, 0)
    return KeyLengthDecision(length=max(min(raw, cap), 0), capped=raw > cap)
