"""Seawater optical channel model.

Absorption and scattering are lumped into a single Beer-Lambert attenuation
coefficient c (units 1/m); link loss is expressed in dB throughout so channel
loss and receiver insertion loss add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 10*log10(e): converts a Beer-Lambert exponent c*L (nepers) into decibels.
DB_PER_NEPER = 10.0 * math.log10(math.e)

# Attenuation coefficients for standard open-water clarity classes, 1/m.
JERLOV_COEFFICIENTS = {
    "I": 0.018,
    "II": 0.13,
    "III": 0.29,
}


def _jerlov_key(water_type: str) -> str:
    """The key of a Jerlov water type in JERLOV_COEFFICIENTS: "jerlov_ii",
    "Jerlov II" and "II" all give "II"."""
    key = water_type.strip().upper().removeprefix("JERLOV").strip("_- ")
    if key not in JERLOV_COEFFICIENTS:
        raise ValueError(
            f"unknown Jerlov water type {water_type!r}; expected one of "
            f"{sorted(JERLOV_COEFFICIENTS)}"
        )
    return key


def jerlov_coefficient(water_type: str) -> float:
    """Look up the attenuation coefficient for a Jerlov water type."""
    return JERLOV_COEFFICIENTS[_jerlov_key(water_type)]


def loss_db(attenuation_coefficient: float, length_m: float) -> float:
    """Channel loss in dB over a path of given length.

    loss_dB = 10*log10(e) * c * L, the dB form of exp(-c*L).
    """
    if attenuation_coefficient < 0.0:
        raise ValueError("attenuation coefficient must be >= 0")
    if length_m < 0.0:
        raise ValueError("path length must be >= 0")
    return DB_PER_NEPER * attenuation_coefficient * length_m


def distance_for_loss(attenuation_coefficient: float, loss: float) -> float:
    """Invert loss_db: the path length that produces `loss` dB."""
    if attenuation_coefficient < 0.0:
        raise ValueError("attenuation coefficient must be >= 0")
    if loss < 0.0:
        raise ValueError("loss must be >= 0")
    if attenuation_coefficient == 0.0:
        if loss == 0.0:
            return 0.0
        raise ValueError("no finite distance gives nonzero loss at c = 0")
    return loss / (DB_PER_NEPER * attenuation_coefficient)


def transmittance(total_loss_db: float) -> float:
    """Power transmittance 10^(-loss/10) for a nonnegative dB loss."""
    if total_loss_db < 0.0:
        raise ValueError("loss must be >= 0 dB")
    return 10.0 ** (-total_loss_db / 10.0)


@dataclass(frozen=True)
class WaterChannel:
    """A straight underwater path with uniform attenuation."""

    attenuation_coefficient: float
    length_m: float
    preset_tag: str = "Custom"

    def __post_init__(self) -> None:
        # finite, so that their product, the loss, is never NaN
        if not 0.0 <= self.attenuation_coefficient < math.inf:
            raise ValueError("attenuation coefficient must be finite and >= 0")
        if not 0.0 <= self.length_m < math.inf:
            raise ValueError("path length must be finite and >= 0")

    @classmethod
    def jerlov(cls, water_type: str, length_m: float) -> "WaterChannel":
        key = _jerlov_key(water_type)
        return cls(JERLOV_COEFFICIENTS[key], length_m, preset_tag=f"Jerlov{key}")

    @property
    def loss_db(self) -> float:
        return loss_db(self.attenuation_coefficient, self.length_m)


@dataclass(frozen=True)
class ReceiverLoss:
    """Fixed losses on the receive side: collection optics plus detector.

    Detector quantum efficiency is folded into the link budget as
    10*log10(1/efficiency) dB so a single end-to-end transmittance covers
    photon survival from source aperture to a detector click opportunity.
    """

    optics_loss_db: float = 4.1
    detector_efficiency: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.optics_loss_db < math.inf:
            raise ValueError("optics loss must be finite and >= 0 dB")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must be in (0, 1]")

    @property
    def total_db(self) -> float:
        return self.optics_loss_db + 10.0 * math.log10(1.0 / self.detector_efficiency)
