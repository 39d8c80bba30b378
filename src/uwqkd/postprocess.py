"""Classical key distillation: Cascade, privacy amplification, final key length.

Cascade runs over four passes with block halving searches. The corrector
(holder of the noisy key) drives; the responder (holder of the reference key)
only ever answers parity questions about fixed ranges of its own key, plus a
comparison of 64-bit digests (BLAKE2b-64 of the key) after the last pass,
whose reply carries only the match bit. A correction found in pass p
re-checks the containing blocks of every earlier pass (backtracking). That
still leaves errors when the sampled QBER hint is far too low: the blocks are
then too large for four passes. So the first digest mismatch starts a second
round of as many fresh passes, block sizes again from the first pass's, and
then a second digest; only a second mismatch fails the reconciliation.
Both sides derive from one party, which owns the layouts, the second round,
Cascade's outcome (the corrections, the residual digest check) and the
ledger of parity bits and digests under one 8n parity budget; a parity is
counted only once it is within that budget, so the ledger never exceeds it.
A session holds one party and reads that outcome off it in place. Each
party takes a message only of the kind it expects, with that kind's fields
and a pass index of a laid-out pass; anything else fails. A search level is
one range query: one pass index and two index columns, answered in one gather.
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

import hashlib
import math
import operator
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


def key_hash_64(bits: np.ndarray) -> int:
    """64-bit BLAKE2b digest of a bit string's packed bits and its bit length."""
    bits = np.asarray(bits, dtype=np.uint8)
    data = np.packbits(bits).tobytes() + struct.pack(">Q", len(bits))
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# Cascade

_PARITY_BUDGET_FACTOR = 8  # hard loop guard; observed usage stays under 4n
_MASK64 = (1 << 64) - 1


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


def _block_parities(pref: np.ndarray, block_size: int) -> np.ndarray:
    """Parity of every block of one pass, the last one possibly short."""
    n = len(pref) - 1
    edges = pref[np.append(np.arange(0, n, block_size), n)]
    return edges[1:] ^ edges[:-1]


def _column(dtype):
    """A converter of a message field to a 1-D array of dtype: a scalar fails in len, 2-D in reshape."""
    return lambda values: np.asarray(values, dtype=dtype).reshape(len(values))


# each Cascade message's fields after its kind, as converters; a pass index
# opens those of the _PASS_INDEXED kinds
_BITS, _INDICES = _column(np.uint8), _column(np.int64)
_FIELDS = {
    "pass_begin": (operator.index,), "pass_parities": (operator.index, _BITS),
    "range_query": (operator.index, _INDICES, _INDICES), "range_reply": (_BITS,),
    "verify": (operator.index, operator.index), "verify_result": (bool,),
}
_PASS_INDEXED = ("pass_begin", "pass_parities", "range_query")


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

    def _expect(self, msg, *kinds: str) -> tuple:
        """msg with its fields converted, if it is a tuple of one of `kinds` with
        that kind's fields and a laid-out pass index; else ReconciliationFailed."""
        if not (isinstance(msg, tuple) and msg and isinstance(msg[0], str) and msg[0] in kinds):
            raise ReconciliationFailed(f"unexpected reconciliation message, expected {' or '.join(kinds)}")
        kind, fields = msg[0], _FIELDS[msg[0]]
        if len(msg) != 1 + len(fields):
            raise ReconciliationFailed(f"{kind} has {len(msg) - 1} fields, not {len(fields)}")
        try:
            msg = (kind, *(convert(value) for convert, value in zip(fields, msg[1:])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ReconciliationFailed(f"malformed {kind}: {exc}") from None
        if kind in _PASS_INDEXED and not 0 <= msg[1] < len(self.layouts):
            raise ReconciliationFailed(f"{kind} names pass {msg[1]} of {len(self.layouts)}")
        return msg

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

    def on_message(self, msg: tuple) -> tuple:
        kind, *fields = self._expect(msg, "pass_begin", "range_query", "verify")
        if kind == "pass_begin":
            (p,) = fields
            parities = _block_parities(self._prefix(p), self.layouts[p].block_size)
            self._disclose(len(parities))
            return ("pass_parities", p, parities)
        if kind == "range_query":  # one pass's ranges [lo, hi), answered in one gather
            p, lo, hi = fields
            if len(lo) != len(hi) or not np.all((0 <= lo) & (lo < hi) & (hi <= self.n)):
                raise ReconciliationFailed("range query bounds unpaired or outside the key")
            self._disclose(len(lo))
            pref = self._prefix(p)
            return ("range_reply", pref[hi] ^ pref[lo])
        digest, self.corrections = fields
        match = digest == key_hash_64(self.key)
        self._compare_digests(match)
        return ("verify_result", match)


class CascadeCorrector(_CascadeParty):
    """Noisy-key side of Cascade: one generator yields each message and takes
    the reply at that yield, in protocol order; a reply of another kind fails."""

    def __init__(self, key: np.ndarray, qber_hint: float, seed: int, n_passes: int = 4):
        super().__init__(key, qber_hint, seed, n_passes)
        self._mismatch: list[np.ndarray] = []  # per begun pass: remote ^ own block parities
        self._run = None  # the _messages generator, once started

    def start(self) -> tuple:
        if self._run is not None:
            raise ReconciliationFailed("reconciliation already started")
        self._run = self._messages()
        return next(self._run)

    def on_reply(self, msg: tuple):
        """Consume the responder's reply; return the next message, or None once Cascade is over."""
        if self._run is None or self._run.gi_frame is None:  # not started, or over
            raise ReconciliationFailed("reconciliation not running")
        try:
            return self._run.send(msg)
        except StopIteration:
            return None

    def close(self) -> None:
        """End a Cascade cut short: a suspended generator holds this corrector."""
        if self._run is not None:
            self._run.close()

    def _messages(self):
        """Cascade's messages; it ends with `return`, so a finished run holds nothing."""
        while True:
            for p in range(len(self._mismatch), len(self.layouts)):
                _, p_remote, remote = self._expect((yield ("pass_begin", p)), "pass_parities")
                mine = _block_parities(self._prefix(p), self.layouts[p].block_size)
                if p_remote != p or len(remote) != len(mine):
                    raise ReconciliationFailed(f"pass parities are not the {len(mine)} of pass {p}")
                self._disclose(len(remote))
                self._mismatch.append(remote ^ mine)
                while mismatched := [q for q, m in enumerate(self._mismatch) if m.any()]:
                    q = mismatched[0]  # search the lowest such pass; one range query a level
                    lay, pref = self.layouts[q], self._prefix(q)
                    lo = np.flatnonzero(self._mismatch[q]) * lay.block_size  # [lo, hi): one per block
                    hi = np.minimum(lo + lay.block_size, self.n)
                    while (open_ := np.flatnonzero(hi - lo > 1)).size:
                        mid = (lo[open_] + hi[open_]) // 2
                        _, remote = self._expect((yield ("range_query", q, lo[open_], mid)), "range_reply")
                        if len(remote) != len(open_):
                            raise ReconciliationFailed("range reply length mismatch")
                        self._disclose(len(open_))
                        left = remote != pref[mid] ^ pref[lo[open_]]
                        hi[open_[left]] = mid[left]  # the error is left of mid
                        lo[open_[~left]] = mid[~left]
                    # one error per searched block, all distinct; a block of a pass hit twice toggles back
                    found = lay.permutation[lo]
                    self.key[found] ^= 1
                    self._prefixes.clear()
                    self.corrections += len(found)
                    for other, mismatch in zip(self.layouts, self._mismatch):
                        np.bitwise_xor.at(mismatch, other.inverse[found] // other.block_size, 1)
            verdict = yield ("verify", key_hash_64(self.key), self.corrections)
            _, match = self._expect(verdict, "verify_result")
            if not self._compare_digests(match):
                return


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
