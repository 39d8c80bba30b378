"""Gated single-photon detection at the receiver.

A passive 50/50 basis choice routes each arriving photon to one of two gated
detectors in the chosen basis. Photon survival through water, receive optics
and detector quantum efficiency is a single thinning probability (the
end-to-end transmittance). Misalignment of the polarization frames sends a
surviving photon to the wrong detector of a matched basis with probability
sin(theta)^2; when bases differ each photon picks a detector 50/50. Each
detector also fires on its own (a dark count) once per gate with a fixed
probability.

At a lossy link few slots click, so detection draws its binomials only where
photons are. The draw order is that of a dense draw over every slot, and a
binomial draw with zero trials consumes no randomness, so equal seeds give the
same stream and the same batch either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .source import chunk_slices


class DoubleClickPolicy(Enum):
    RANDOM_BIT = "random_bit"
    DISCARD = "discard"


@dataclass(frozen=True)
class DetectorConfig:
    dark_count_prob_per_gate: float = 0.0
    gate_width_ns: float = 1.0
    gates_per_frame: int = 4
    double_click_policy: DoubleClickPolicy = DoubleClickPolicy.RANDOM_BIT

    def __post_init__(self) -> None:
        if not 0.0 <= self.dark_count_prob_per_gate < 1.0:
            raise ValueError("dark count probability must be in [0, 1)")
        if self.gate_width_ns <= 0.0:
            raise ValueError("gate width must be > 0")
        if self.gates_per_frame < 1:
            raise ValueError("gates per frame must be >= 1")

    @property
    def background_yield(self) -> float:
        """Click probability of an empty slot: either of two detectors darks."""
        return 1.0 - (1.0 - self.dark_count_prob_per_gate) ** 2


def dark_prob_for_background_yield(y0: float) -> float:
    """Per-detector dark probability reproducing a target empty-slot yield."""
    if not 0.0 <= y0 < 1.0:
        raise ValueError("background yield must be in [0, 1)")
    return 1.0 - math.sqrt(1.0 - y0)


@dataclass(frozen=True)
class DetectionBatch:
    """Receiver outcomes for a batch of slots, one column entry per slot.

    bit is 0 wherever clicked is False. multi_click marks slots where both
    detectors fired and the bit is a fair coin (RANDOM_BIT policy). Under
    DISCARD those slots read as no-click, multi_click stays all False, and
    discarded_doubles counts them.
    """

    basis: np.ndarray    # uint8, Basis values
    clicked: np.ndarray  # bool
    bit: np.ndarray      # uint8
    multi_click: np.ndarray  # bool
    discarded_doubles: int = 0

    def __len__(self) -> int:
        return len(self.clicked)


def _wrong_detector_prob(matched: np.ndarray, alice_bit: np.ndarray, theta: float) -> np.ndarray:
    """Per-photon probability of landing on the bit-1 detector."""
    sin2 = math.sin(theta) ** 2
    p_one = np.where(alice_bit == 1, 1.0 - sin2, sin2)
    return np.where(matched, p_one, 0.5)


def simulate_detection(
    alice_basis: np.ndarray,
    alice_bit: np.ndarray,
    photon_count: np.ndarray,
    bob_basis: np.ndarray,
    channel_eta: float,
    cfg: DetectorConfig,
    misalignment_theta: float,
    rng: np.random.Generator,
) -> DetectionBatch:
    """Slot-by-slot detection, drawn only where it can change the outcome.

    channel_eta is the end-to-end transmittance INCLUDING detector efficiency.
    Draw order per chunk of 2^20 slots: survivors, bit-1 routing, dark counts
    on detector 0 then 1, then double-click coins. Fixed so a given rng seed
    reproduces the batch exactly.

    The survivor draw runs only at slots that hold photons, and the routing
    draw only at slots with survivors. A binomial draw with zero trials
    returns 0 without consuming randomness, so skipping the other slots
    leaves the stream, and every later draw, as a dense draw over all slots
    would. Dark uniforms and coins are drawn for every slot.
    """
    if not 0.0 <= channel_eta <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    n = len(photon_count)
    if not (len(alice_basis) == len(alice_bit) == len(bob_basis) == n):
        raise ValueError("input columns must have equal length")
    clicked = np.zeros(n, dtype=bool)
    bit = np.zeros(n, dtype=np.uint8)
    multi = np.zeros(n, dtype=bool)
    discarded = 0
    p_dark = cfg.dark_count_prob_per_gate
    for lo, hi in chunk_slices(n):
        count = photon_count[lo:hi]
        lit = np.flatnonzero(count > 0)
        survivors = rng.binomial(count[lit], channel_eta)
        hit = lit[survivors > 0]
        survivors = survivors[survivors > 0]
        matched = alice_basis[lo:hi][hit] == bob_basis[lo:hi][hit]
        p_one = _wrong_detector_prob(matched, alice_bit[lo:hi][hit], misalignment_theta)
        n_one = rng.binomial(survivors, p_one)
        fire0 = rng.random(hi - lo) < p_dark
        fire1 = rng.random(hi - lo) < p_dark
        coin = rng.integers(0, 2, size=hi - lo, dtype=np.uint8)
        fire0[hit[n_one < survivors]] = True
        fire1[hit[n_one > 0]] = True
        fired = np.flatnonzero(fire0 | fire1)
        one = fire1[fired]
        both = fire0[fired] & one
        fired_bit = np.where(both, coin[fired], one)
        if cfg.double_click_policy is DoubleClickPolicy.DISCARD:
            discarded += int(np.count_nonzero(both))
            fired, fired_bit = fired[~both], fired_bit[~both]
        else:
            multi[lo:hi][fired[both]] = True
        clicked[lo:hi][fired] = True
        bit[lo:hi][fired] = fired_bit
    return DetectionBatch(
        basis=np.asarray(bob_basis, dtype=np.uint8),
        clicked=clicked,
        bit=bit,
        multi_click=multi,
        discarded_doubles=discarded,
    )


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
