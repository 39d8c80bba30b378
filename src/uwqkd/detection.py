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

At a lossy link almost every slot stays dark, so the fired slots of each
detector are drawn sparsely: candidate slots, each in with p_max, the largest
P_d any slot can have (a Binomial(slots, p_max) count of slots chosen
uniformly), then each candidate kept with probability P_d / p_max. The cost
of the draws follows the clicks, not the slots.

The transmitter's side of each slot arrives as a `source.AliceView`; the
receiver's side is a `BobView`, his bases packed one bit a slot and only the
slots that clicked, with their bits. One call draws one chunk's `BobView`;
the quantum phase makes one call per `source.chunk_slices` chunk and joins
them with `BobView.concatenate` into the session's view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .source import AliceView


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


@dataclass(frozen=True)
class BobView:
    """Receiver knowledge of n_slots slots: his basis for every slot, one bit
    a slot, and his clicks, kept as the clicked slots in ascending order with
    the bit read at each.

    multi_slots are the clicked slots where both detectors fired and the bit
    is a fair coin (RANDOM_BIT policy). Under DISCARD those slots read as
    no-click, multi_slots is empty, and discarded_doubles counts them.

    packed_basis is `np.packbits` of the per-slot basis column. basis,
    clicked and bit are full-length uint8/bool columns (bit 0 where no
    detector clicked), built on each access; the session reads only
    `basis_at` its clicks.
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

    @classmethod
    def concatenate(cls, views: list[BobView]) -> BobView:
        """One view of consecutive chunks: slots offset by each chunk's start,
        the packed bases joined and the discarded doubles summed. Every chunk
        but the last must fill whole bytes of packed bases."""
        if any(len(view) % 8 for view in views[:-1]):
            raise ValueError("every chunk but the last must be a multiple of 8 slots")
        starts = [0]
        for view in views:
            starts.append(starts[-1] + len(view))
        return cls(
            starts[-1],
            np.concatenate([view.packed_basis for view in views]),
            np.concatenate([view.slots + lo for view, lo in zip(views, starts)]),
            np.concatenate([view.bits for view in views]),
            np.concatenate([view.multi_slots + lo for view, lo in zip(views, starts)]),
            sum(view.discarded_doubles for view in views),
        )

    def __len__(self) -> int:
        return self.n_slots

    def basis_at(self, slots: np.ndarray) -> np.ndarray:
        """His basis (uint8) at the given slots."""
        shift = (7 - (slots & 7)).astype(np.uint8)
        return (self.packed_basis[slots >> 3] >> shift) & 1

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


def _wrong_detector_prob(matched: np.ndarray, alice_bit: np.ndarray, theta: float) -> np.ndarray:
    """Per-photon probability of landing on the bit-1 detector."""
    sin2 = math.sin(theta) ** 2
    p_one = np.where(alice_bit == 1, 1.0 - sin2, sin2)
    return np.where(matched, p_one, 0.5)


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
    bob_basis: np.ndarray,
    class_means: np.ndarray,
    channel_eta: float,
    cfg: DetectorConfig,
    misalignment_theta: float,
    rng: np.random.Generator,
) -> BobView:
    """Gated detection of a chunk of slots, drawn only where detectors fire:
    the chunk's `BobView`, bob_basis packed.

    alice.kind indexes class_means, the mean photon number per StateClass
    value; alice's columns are read only at candidate slots. channel_eta is
    the end-to-end transmittance INCLUDING detector efficiency.

    The click model is in the module docstring. Draw order, for detector 0
    and then detector 1: the binomial count of candidate slots at p_max, the
    candidate slots, then one uniform per candidate, kept if below
    P_d / p_max. Then, under RANDOM_BIT, one coin per slot where both fired.
    Fixed so a given rng seed reproduces the chunk exactly; with p_max 0
    nothing is drawn.
    """
    if not 0.0 <= channel_eta <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    n = len(alice)
    if len(bob_basis) != n:
        raise ValueError("input columns must have equal length")
    p_dark = cfg.dark_count_prob_per_gate
    means = np.asarray(class_means, dtype=float)
    sin2 = math.sin(misalignment_theta) ** 2
    # the brightest class routed to the likelier detector of a matched basis
    x_max = channel_eta * means.max() * max(sin2, 1.0 - sin2)
    p_max = p_dark - (1.0 - p_dark) * math.expm1(-x_max)
    fired = []
    for detector in (0, 1):
        slots = _bernoulli_slots(p_max, n, rng)
        lit = alice.at(slots)
        p_route = _wrong_detector_prob(lit.basis == bob_basis[slots], lit.bit, misalignment_theta)
        if detector == 0:
            p_route = 1.0 - p_route
        p_fire = p_dark - (1.0 - p_dark) * np.expm1(-channel_eta * means[lit.kind] * p_route)
        fired.append(slots[rng.random(len(slots)) < p_fire / p_max])
    fire0, fire1 = fired
    slots = np.union1d(fire0, fire1)
    bits = np.isin(slots, fire1).view(np.uint8)
    both = np.intersect1d(fire0, fire1, assume_unique=True)
    at_both = np.searchsorted(slots, both)
    packed_basis = np.packbits(bob_basis)
    if cfg.double_click_policy is DoubleClickPolicy.DISCARD:
        return BobView(
            n, packed_basis, np.delete(slots, at_both), np.delete(bits, at_both), both[:0], len(both)
        )
    bits[at_both] = rng.integers(0, 2, size=len(both), dtype=np.uint8)
    return BobView(n, packed_basis, slots, bits, both)


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
