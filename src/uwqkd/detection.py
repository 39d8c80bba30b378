"""Gated single-photon detection at the receiver.

A passive 50/50 basis choice routes each arriving photon to one of two gated
detectors in the chosen basis. Photon survival through water, receive optics
and detector quantum efficiency is a single thinning probability (the
end-to-end transmittance). Misalignment of the polarization frames sends a
surviving photon to the wrong detector of a matched basis with probability
sin(theta)^2; when bases differ each photon picks a detector 50/50. Each
detector also fires on its own (a dark count) once per gate with a fixed
probability.

Detection draws no photon numbers. A Poisson(mean) pulse thinned by eta and
split so that each survivor reaches the bit-1 detector with probability p1
leaves independent Poisson(eta*mean*(1 - p1)) and Poisson(eta*mean*p1) photon
counts at the two detectors (Poisson splitting). Detector d therefore fires,
from light or from a dark count, with probability

    P_d = 1 - (1 - p_dark) * exp(-eta * mean * p_d)

independently of the other detector, where p_d is the slot's probability of
routing a photon to d. This is the same distribution as drawing each slot's
photon number, its survivors, their routing and two dark counts.

A slot has one of four outcomes: no click, detector 0 only, detector 1 only,
or both, at rates set by its group (class, basis match, Alice's bit). Each
call builds the 12-group table of P0(1 - P1), (1 - P0)P1 and P0*P1, kept
cumulative. At a lossy link almost every slot stays dark, so clicks are
drawn in one sparse pass a chunk: candidate slots, each in with p_max, the
largest P(any click) of a group (a Binomial(slots, p_max) count of slots
chosen uniformly), then one uniform in [0, p_max) per candidate, read
against its group's row: below the first edge detector 0 fires, below the
second detector 1, below the third both, else none. The cost follows the
clicks.

The transmitter's side of each slot arrives as a `source.AliceView`; the
receiver's side is a `BobView`, his bases packed one bit a slot and only the
slots that clicked, with their bits. His bases arrive packed, as the quantum
phase draws them (one uniform byte for 8 slots), are read only at the
candidate slots and are kept as they are. One call draws the whole run's
`BobView`, one `source.chunk_slices` chunk at a time: the channel stream is
the one stream drawn in chunks, since its draw count follows the clicks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .source import AliceView, chunk_slices


class DoubleClickPolicy(Enum):
    RANDOM_BIT = "random_bit"
    DISCARD = "discard"


@dataclass(frozen=True)
class DetectorConfig:
    dark_count_prob_per_gate: float = 0.0
    double_click_policy: DoubleClickPolicy = DoubleClickPolicy.RANDOM_BIT

    def __post_init__(self) -> None:
        if not 0.0 <= self.dark_count_prob_per_gate < 1.0:
            raise ValueError("dark count probability must be in [0, 1)")

    @property
    def background_yield(self) -> float:
        """Click probability of an empty slot: either of two detectors darks."""
        return 1.0 - (1.0 - self.dark_count_prob_per_gate) ** 2


def dark_prob_for_background_yield(y0: float) -> float:
    """Per-detector dark probability reproducing a target empty-slot yield."""
    if not 0.0 <= y0 < 1.0:
        raise ValueError("background yield must be in [0, 1)")
    return 1.0 - math.sqrt(1.0 - y0)


def _ascending_in_range(slots: np.ndarray, n_slots: int) -> bool:
    """Whether slot indices are strictly ascending and in [0, n_slots)."""
    return not len(slots) or (0 <= slots[0] and slots[-1] < n_slots and bool(np.all(np.diff(slots) > 0)))


def _bits_at(packed: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The bits (uint8) at the given slots of a column packed as by
    `np.packbits`, 8 slots a byte, the first in the top bit."""
    shift = (7 - (slots & 7)).astype(np.uint8)
    return (packed[slots >> 3] >> shift) & 1


@dataclass(frozen=True)
class BobView:
    """Receiver knowledge of n_slots slots: his basis for every slot, one bit
    a slot, and his clicks, kept as the clicked slots in ascending order with
    the bit read at each.

    multi_slots are the clicked slots where both detectors fired and the bit
    is a fair coin (RANDOM_BIT policy). Under DISCARD those slots read as
    no-click, multi_slots is empty, and discarded_doubles counts them.

    packed_basis is `np.packbits` of the per-slot basis column, pad bits
    clear. basis, clicked and bit are full-length uint8/bool columns (bit 0
    where no detector clicked), built on each access; the session reads
    only `basis_at` its clicks.
    """

    n_slots: int
    packed_basis: np.ndarray  # uint8, 8 slots a byte, first slot in the top bit
    slots: np.ndarray         # int64, strictly ascending, in [0, n_slots)
    bits: np.ndarray          # uint8, one per clicked slot
    multi_slots: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))  # int64, within slots
    discarded_doubles: int = 0

    def __post_init__(self) -> None:
        if len(self.packed_basis) != (self.n_slots + 7) // 8:
            raise ValueError("one basis bit per slot")
        if len(self.bits) != len(self.slots):
            raise ValueError("one bit per clicked slot")
        if not _ascending_in_range(self.slots, self.n_slots):
            raise ValueError("clicked slots must be strictly ascending and in range")

    def __len__(self) -> int:
        return self.n_slots

    def basis_at(self, slots: np.ndarray) -> np.ndarray:
        """His basis (uint8) at the given slots."""
        return _bits_at(self.packed_basis, slots)

    @property
    def basis(self) -> np.ndarray:
        return np.unpackbits(self.packed_basis, count=self.n_slots)

    @property
    def clicked(self) -> np.ndarray:
        clicked = np.zeros(self.n_slots, dtype=bool)
        clicked[self.slots] = True
        return clicked

    @property
    def bit(self) -> np.ndarray:
        bit = np.zeros(self.n_slots, dtype=np.uint8)
        bit[self.slots] = self.bits
        return bit


def _outcome_table(class_means: np.ndarray, eta: float, p_dark: float, theta: float) -> np.ndarray:
    """(12, 3) cumulative P(detector 0 only), P(detector 1 only), P(both), a
    row per group g = kind*4 + match*2 + alice_bit; the last is P(any click)."""
    sin2 = math.sin(theta) ** 2
    p_one = np.array([0.5, 0.5, sin2, 1.0 - sin2])  # by match*2 + alice_bit
    x = eta * np.asarray(class_means, dtype=float)[:, None]
    p0 = p_dark - (1.0 - p_dark) * np.expm1(-x * (1.0 - p_one))
    p1 = p_dark - (1.0 - p_dark) * np.expm1(-x * p_one)
    outcomes = np.stack((p0 * (1.0 - p1), (1.0 - p0) * p1, p0 * p1), axis=-1)
    return np.cumsum(outcomes.reshape(12, 3), axis=1)


def _bernoulli_slots(p: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending positions in [0, m), each one in independently with
    probability p: a Binomial(m, p) count of distinct slots chosen uniformly.
    Draws nothing when p is 0."""
    if p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    k = rng.binomial(m, p)
    return np.sort(rng.choice(m, size=k, replace=False, shuffle=False))


def simulate_detection(
    alice: AliceView,
    packed_basis: np.ndarray,
    class_means: np.ndarray,
    channel_eta: float,
    cfg: DetectorConfig,
    misalignment_theta: float,
    rng: np.random.Generator,
) -> BobView:
    """Gated detection of a run of slots, drawn only where a detector may
    fire: the run's `BobView`, which keeps packed_basis as it is.

    packed_basis holds Bob's basis one bit a slot, as `np.packbits` packs
    it: (len(alice) + 7) // 8 bytes, with the pad bits of the last byte
    clear. alice.kind indexes class_means, the mean photon number per
    StateClass value; alice's columns are read only at candidate slots.
    channel_eta is the end-to-end transmittance INCLUDING detector
    efficiency.

    One pass over `_outcome_table` per `chunk_slices` chunk (see the module
    docstring). Draw order, fixed so a given rng seed reproduces the run:
    per chunk, the binomial count of candidate slots at p_max over the
    chunk, the candidate slots, one uniform per candidate, then one coin per
    double under RANDOM_BIT. With p_max 0 nothing is drawn.
    """
    if not 0.0 <= channel_eta <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    n = len(alice)
    if len(packed_basis) != (n + 7) // 8:
        raise ValueError("Bob's bases must be packed, one bit a slot")
    table = _outcome_table(class_means, channel_eta, cfg.dark_count_prob_per_gate, misalignment_theta)
    p_max = table[:, 2].max()
    random_bit = cfg.double_click_policy is DoubleClickPolicy.RANDOM_BIT
    # each list starts with an empty part, so that a run of 0 slots joins too
    slot_parts, outcome_parts = [np.zeros(0, np.int64)], [np.zeros(0, np.uint8)]
    coin_parts = [np.zeros(0, np.uint8)]
    for lo, hi in chunk_slices(n):
        slots = _bernoulli_slots(p_max, hi - lo, rng)
        slots += lo
        lit = alice.at(slots)
        group = 4 * lit.kind + 2 * (lit.basis == _bits_at(packed_basis, slots)) + lit.bit
        u = rng.random(len(slots)) * p_max
        # the number of its group's edges u passes: 0: detector 0 only (bit 0),
        # 1: detector 1 only (bit 1), 2: both, 3: no click
        edges = table.T[:, group]
        outcome = (u >= edges[0]).view(np.uint8)
        outcome += u >= edges[1]
        outcome += u >= edges[2]
        clicked = outcome < 3
        slot_parts.append(slots[clicked])
        outcome_parts.append(outcome[clicked])
        if random_bit:
            n_doubles = int(np.count_nonzero(outcome == 2))
            coin_parts.append(rng.integers(0, 2, size=n_doubles, dtype=np.uint8))
    slots, bits = np.concatenate(slot_parts), np.concatenate(outcome_parts)
    double = bits == 2
    if not random_bit:
        single = ~double
        return BobView(n, packed_basis, slots[single], bits[single], slots[:0], int(np.count_nonzero(double)))
    bits[double] = np.concatenate(coin_parts)
    return BobView(n, packed_basis, slots, bits, slots[double])


def expected_gain(y0: float, eta: float, mean: float) -> float:
    """Click probability per emitted pulse: Q = Y0 + 1 - exp(-eta*mean)."""
    if not 0.0 <= y0 <= 1.0:
        raise ValueError("background yield must be in [0, 1]")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    if mean < 0.0:
        raise ValueError("mean photon number must be >= 0")
    return min(y0 - math.expm1(-eta * mean), 1.0)


def expected_qber(y0: float, eta: float, mean: float, e_detector: float) -> float:
    """Error fraction of clicks: background is random, signal errs at e_detector."""
    if not 0.0 <= e_detector <= 0.5:
        raise ValueError("detector error probability must be in [0, 0.5]")
    gain = expected_gain(y0, eta, mean)
    if gain <= 0.0:
        raise ValueError("gain is zero: QBER undefined")
    signal = -math.expm1(-eta * mean)
    return (0.5 * y0 + e_detector * signal) / gain
