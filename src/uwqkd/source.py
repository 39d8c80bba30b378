"""Decoy-state pulse source.

Each 20 MHz clock slot carries one phase-randomized weak coherent pulse whose
intensity class and polarization are chosen by a uniform 4-bit random word:

    bits (b0, b1) -> class:  00 vacuum, 01 decoy, 10 signal, 11 signal
    bits (b2, b3) -> state:  00 H, 01 V, 10 P, 11 M

b0 is the most significant bit of the word, so signal:decoy:vacuum occur in
an exact 8:4:4 = 2:1:1 ratio and the four states are equiprobable. This is
the only class mix: a config sets the class means, not the mix. The word
is the top nibble of one uniform byte per slot, `uniform_bytes(rng, n) >> 4`.
From a fresh generator that is the stream of `integers(0, 16, uint8)`, at
the cost of a full-range draw: numpy draws a bounded uint8 by Lemire's multiply-shift,
which for a power-of-two range never rejects and keeps the top bits of one
stream byte. `uniform_bytes` reads the stream of `integers(0, 256, uint8)`
as whole 64-bit PCG64 outputs, see its docstring, and `tests/test_source.py`
pins both equivalences. The receiver's bases are drawn the same way, one
fair bit a slot: the bits of one `uniform_bytes` byte for each 8 slots
(`harness.simulate_quantum_phase`). Photon number per pulse is Poisson
with the class mean (`SourceConfig.class_means`); clicks are drawn from the
class means by `detection.simulate_detection`, see its module docstring.

`AliceView` is the one per-slot column type of the transmitter, and it
stores one byte per slot: the 4-bit word. Class, polarization, basis and bit
are derived from it on access. The source writes it, detection reads it at
the slots where a detector may fire, and the transmitter's session reads it
at the slots the receiver reports and counts its class totals. It is drawn
in one call, the same stream as one `chunk_slices` chunk at a time, since
`uniform_bytes` reads whole PCG64 words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class StateClass(IntEnum):
    VACUUM = 0
    DECOY = 1
    SIGNAL = 2


@dataclass(frozen=True)
class SourceConfig:
    """Transmitter settings. The class mix is the 4-bit word's 2:1:1
    (`WORD_CLASS`); only the class means and the clock are set here."""

    mu: float = 0.8
    nu: float = 0.1
    repetition_rate_hz: float = 20e6
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.mu > self.nu >= 0.0:
            raise ValueError("require mu > nu >= 0")
        if self.nu == 0.0:
            raise ValueError("decoy mean must be > 0 (vacuum is its own class)")
        if not 0.0 < self.repetition_rate_hz < math.inf:
            raise ValueError("repetition rate must be finite and > 0")

    @property
    def class_means(self) -> np.ndarray:
        """Means indexed by StateClass value: [vacuum, decoy, signal]."""
        return np.array([0.0, self.nu, self.mu])


def _word_class(word: np.ndarray) -> np.ndarray:
    """Class of each 4-bit word, whose top two bits are (b0, b1), with 11
    folded into signal (words 0..3 vacuum, 4..7 decoy, 8..15 signal). Built
    from two compares, with no intp temporary."""
    kind = (word >= 4).view(np.uint8)
    kind += word >= 8
    return kind


# class of each 4-bit word
WORD_CLASS = _word_class(np.arange(16, dtype=np.uint8))


@dataclass(frozen=True)
class AliceView:
    """Transmitter ground truth: one 4-bit word per slot (see the module
    docstring), the only stored column.

    kind, polarization, basis and bit are read-only uint8 columns derived
    from the words on each access, so bind one to a name to read it twice. A
    slot's mean photon number is `SourceConfig.class_means[kind]`.
    """

    word: np.ndarray  # uint8, 4-bit slot words

    def __len__(self) -> int:
        return len(self.word)

    def at(self, slots: np.ndarray | slice) -> AliceView:
        """The view of the given slots only: a slice shares the column, an
        index array copies it."""
        return AliceView(self.word[slots])

    def class_totals(self) -> dict[StateClass, int]:
        """Slots per class, from two compares over each chunk of words: no
        temporary is longer than a chunk."""
        n_signal = n_lit = 0
        for lo, hi in chunk_slices(len(self.word)):
            word = self.word[lo:hi]
            n_signal += int(np.count_nonzero(word >= 8))
            n_lit += int(np.count_nonzero(word >= 4))
        return {
            StateClass.VACUUM: len(self.word) - n_lit,
            StateClass.DECOY: n_lit - n_signal,
            StateClass.SIGNAL: n_signal,
        }

    @property
    def kind(self) -> np.ndarray:
        """StateClass values."""
        return _word_class(self.word)

    @property
    def polarization(self) -> np.ndarray:
        """Polarization values: the word's two low bits."""
        return self.word & 3

    @property
    def basis(self) -> np.ndarray:
        basis = self.word >> 1
        basis &= 1
        return basis

    @property
    def bit(self) -> np.ndarray:
        return self.word & 1


_CHUNK = 1 << 20


def chunk_slices(n: int):
    """(lo, hi) bounds of consecutive 2^20-slot slices covering n slots.

    The channel stream is drawn chunk by chunk in this order
    (`detection.simulate_detection`). The per-slot streams are drawn in one
    call each, the same stream as drawn a chunk at a time, since a chunk is
    a whole number of PCG64 words.
    """
    for lo in range(0, n, _CHUNK):
        yield lo, min(lo + _CHUNK, n)


def uniform_bytes(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` bytes of `rng`'s stream: the little-endian bytes of
    its next ceil(count / 8) raw PCG64 outputs (`random_raw`), cut to
    `count`, as a view on those words on a little-endian host.

    From a fresh generator these are the values of
    `rng.integers(0, 256, size=count, dtype=np.uint8)`: numpy's full-range
    uint8 draw takes each byte from a 32-bit output, lowest byte first, and
    PCG64's 32-bit output is the low half, then the high half, of one 64-bit
    output. Only the end state differs: this consumes whole words, so a
    stream drawn in chunks of whole words is the stream drawn in one call,
    and chunk k of c words starts at `rng.bit_generator.advance(k * c)`.

    Raises TypeError for any bit generator but PCG64 (`default_rng`'s).
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"uniform_bytes needs a PCG64 generator, got {type(bitgen).__name__}")
    raw = bitgen.random_raw(-(-count // 8))
    # little-endian bytes: a view on little-endian hosts, a swapped copy elsewhere
    return raw.astype("<u8", copy=False).view(np.uint8)[:count]


def generate_pulse_train(
    cfg: SourceConfig, count: int, rng: np.random.Generator | None = None
) -> AliceView:
    """Generate `count` slots of pulses in one batch.

    Draw order is fixed: one 4-bit word per slot, the top nibble of one
    `uniform_bytes` byte (the same stream as drawing the word itself, see
    the module docstring), and nothing else. The transmitter calls this
    once for the whole run, so a run of n slots is a prefix of any longer
    run with the same seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    word = uniform_bytes(rng, count)
    word >>= 4
    return AliceView(word)
