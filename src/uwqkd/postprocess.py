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

MIN_KEY_BITS = 64
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


def _block_parities(key: np.ndarray, lay: _PassLayout) -> np.ndarray:
    """Parity of every block of one pass over the permuted key."""
    starts = np.arange(0, len(key), lay.block_size)
    return (np.add.reduceat(key[lay.permutation].astype(np.int64), starts) & 1).astype(np.uint8)


def _parity_prefix(key: np.ndarray, lay: _PassLayout) -> np.ndarray:
    """Prefix sums of the permuted key: [lo, hi) has parity (pref[hi] - pref[lo]) & 1."""
    return np.concatenate([[0], np.cumsum(key[lay.permutation], dtype=np.int64)])


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


class CascadeResponder:
    """Reference-key side of Cascade: answers parity questions, never mutates."""

    def __init__(self, key: np.ndarray, qber_hint: float, seed: int, n_passes: int = 4):
        self.key = np.asarray(key, dtype=np.uint8)
        if self.key.ndim != 1 or len(self.key) < MIN_KEY_BITS:
            raise ValueError(f"key must be 1-D with at least {MIN_KEY_BITS} bits")
        self.n = len(self.key)
        self.n_passes = n_passes
        self._k1, self._seed = _initial_block_size(qber_hint), seed
        self.layouts = _layouts(self.n, self._k1, seed, 0, n_passes)
        # prefix sums of the permuted key per pass give O(1) range parities
        self._prefix = [_parity_prefix(self.key, lay) for lay in self.layouts]
        self.parity_bits_disclosed = 0
        self.digests_disclosed = 0

    def _range_parity(self, pass_index: int, lo: int, hi: int) -> int:
        pref = self._prefix[pass_index]
        if not 0 <= lo < hi <= self.n:
            raise ReconciliationFailed(f"bad parity range [{lo}, {hi})")
        return int((pref[hi] - pref[lo]) & 1)

    def on_message(self, msg: tuple) -> tuple:
        kind = msg[0]
        if kind == "pass_begin":
            p = msg[1]
            parities = _block_parities(self.key, self.layouts[p])
            self.parity_bits_disclosed += len(parities)
            self._check_budget()
            return ("pass_parities", p, parities)
        if kind == "range_query":
            answers = np.fromiter(
                (self._range_parity(p, lo, hi) for p, lo, hi in msg[1]),
                dtype=np.uint8,
                count=len(msg[1]),
            )
            self.parity_bits_disclosed += len(answers)
            self._check_budget()
            return ("range_reply", answers)
        if kind == "verify":
            mine = key_hash_64(self.key)
            self.digests_disclosed += 1
            if msg[1] != mine and self.digests_disclosed == 1:
                new = _layouts(self.n, self._k1, self._seed, self.n_passes, self.n_passes)
                self.layouts += new
                self._prefix += [_parity_prefix(self.key, lay) for lay in new]
            return ("verify_result", msg[1] == mine, mine)
        raise ReconciliationFailed(f"unexpected reconciliation message {kind!r}")

    def _check_budget(self) -> None:
        if self.parity_bits_disclosed > _PARITY_BUDGET_FACTOR * self.n:
            raise ReconciliationFailed("parity disclosure budget exhausted")

    @property
    def leaked_bits(self) -> int:
        return self.parity_bits_disclosed + 64 * self.digests_disclosed


@dataclass
class _Search:
    pass_index: int
    lo: int
    hi: int
    done: bool = False


class CascadeCorrector:
    """Noisy-key side of Cascade. Emits one message, consumes one reply."""

    def __init__(self, key: np.ndarray, qber_hint: float, seed: int, n_passes: int = 4):
        self.key = np.array(key, dtype=np.uint8)
        if self.key.ndim != 1 or len(self.key) < MIN_KEY_BITS:
            raise ValueError(f"key must be 1-D with at least {MIN_KEY_BITS} bits")
        self.n = len(self.key)
        self.n_passes = n_passes
        self._k1, self._seed = _initial_block_size(qber_hint), seed
        self.layouts = _layouts(self.n, self._k1, seed, 0, n_passes)
        self.remote_parities: dict[int, np.ndarray] = {}
        self.my_parities: dict[int, np.ndarray] = {}
        self.passes_begun = 0
        self.searches: list[_Search] = []
        self._search_prefix: np.ndarray | None = None
        self.corrections = 0
        self.parity_bits_received = 0
        self.digests_received = 0
        self.residual_check: bool | None = None
        self.finished = False

    # -- parity bookkeeping ------------------------------------------------

    def _flip(self, real_pos: int) -> None:
        self.key[real_pos] ^= 1
        self.corrections += 1
        for p in range(self.passes_begun):
            lay = self.layouts[p]
            block = int(lay.inverse[real_pos]) // lay.block_size
            self.my_parities[p][block] ^= 1

    def _mismatched_blocks(self, p: int) -> np.ndarray:
        return np.flatnonzero(self.remote_parities[p] ^ self.my_parities[p])

    # -- driving -----------------------------------------------------------

    def start(self) -> tuple:
        return ("pass_begin", 0)

    def on_reply(self, msg: tuple):
        """Consume the responder's reply; return the next message or None."""
        if self.finished:
            raise ReconciliationFailed("reconciliation already finished")
        kind = msg[0]
        if kind == "pass_parities":
            p = msg[1]
            if p != self.passes_begun:
                raise ReconciliationFailed("pass parities out of order")
            self.remote_parities[p] = np.asarray(msg[2], dtype=np.uint8)
            self.my_parities[p] = _block_parities(self.key, self.layouts[p])
            if len(self.remote_parities[p]) != len(self.my_parities[p]):
                raise ReconciliationFailed("pass parity count mismatch")
            self.parity_bits_received += len(msg[2])
            self.passes_begun += 1
            return self._next_action()
        if kind == "range_reply":
            self.parity_bits_received += len(msg[1])
            self._consume_range_reply(np.asarray(msg[1], dtype=np.uint8))
            return self._next_action()
        if kind == "verify_result":
            self.digests_received += 1
            if not msg[1] and self.digests_received == 1:
                # the responder has added the same second round of passes
                self.layouts += _layouts(self.n, self._k1, self._seed, self.n_passes, self.n_passes)
                return self._next_action()
            self.residual_check = bool(msg[1])
            self.finished = True
            return None
        raise ReconciliationFailed(f"unexpected reconciliation reply {kind!r}")

    def _next_action(self) -> tuple:
        if self.parity_bits_received > _PARITY_BUDGET_FACTOR * self.n:
            raise ReconciliationFailed("parity disclosure budget exhausted")
        pending = [s for s in self.searches if not s.done]
        if pending:
            return self._emit_queries(pending)
        # all searches done: apply flips, then look for new mismatches
        if self.searches:
            found = {self.layouts[s.pass_index].permutation[s.lo] for s in self.searches}
            for pos in found:
                self._flip(int(pos))
            self.searches = []
        for p in range(self.passes_begun):
            blocks = self._mismatched_blocks(p)
            if len(blocks):
                return self._begin_searches(p, blocks)
        if self.passes_begun < len(self.layouts):
            return ("pass_begin", self.passes_begun)
        return ("verify", key_hash_64(self.key), self.corrections)

    def _begin_searches(self, p: int, blocks: np.ndarray) -> tuple:
        lay = self.layouts[p]
        self._search_prefix = _parity_prefix(self.key, lay)
        self.searches = []
        for b in blocks:
            lo = int(b) * lay.block_size
            hi = min(lo + lay.block_size, self.n)
            self.searches.append(_Search(p, lo, hi, done=hi - lo == 1))
        pending = [s for s in self.searches if not s.done]
        if not pending:
            return self._next_action()
        return self._emit_queries(pending)

    def _my_range_parity(self, lo: int, hi: int) -> int:
        pref = self._search_prefix
        return int((pref[hi] - pref[lo]) & 1)

    def _emit_queries(self, pending: list[_Search]) -> tuple:
        queries = []
        for s in pending:
            mid = (s.lo + s.hi) // 2
            queries.append((s.pass_index, s.lo, mid))
        return ("range_query", queries)

    def _consume_range_reply(self, answers: np.ndarray) -> None:
        pending = [s for s in self.searches if not s.done]
        if len(answers) != len(pending):
            raise ReconciliationFailed("range reply length mismatch")
        for s, remote_left in zip(pending, answers):
            mid = (s.lo + s.hi) // 2
            my_left = self._my_range_parity(s.lo, mid)
            if int(remote_left) != my_left:
                s.hi = mid
            else:
                s.lo = mid
            if s.hi - s.lo == 1:
                s.done = True

    @property
    def leaked_bits(self) -> int:
        return self.parity_bits_received + 64 * self.digests_received


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
