import math

import numpy as np
import pytest

from uwqkd.channel import (
    DB_PER_NEPER,
    JERLOV_COEFFICIENTS,
    ReceiverLoss,
    WaterChannel,
    distance_for_loss,
    jerlov_coefficient,
    loss_db,
    transmittance,
)
from uwqkd.config import config_from_dict

# Measured tank points: attenuation coefficient (1/m) over a 2.4 m path and
# the link loss reported for each concentration.
TANK_POINTS = [
    (0.98, 10.22),
    (1.187, 12.36),
    (1.383, 14.4),
    (1.569, 16.35),
]


@pytest.mark.parametrize("c,expected_db", TANK_POINTS)
def test_tank_loss_conversions(c, expected_db):
    assert loss_db(c, 2.4) == pytest.approx(expected_db, abs=0.05)


def test_loss_db_formula():
    # dB form of exp(-c*L): 10*log10(e) * c * L
    assert loss_db(0.98, 2.4) == pytest.approx(4.342944819 * 0.98 * 2.4, rel=1e-9)
    assert loss_db(0.018, 209.0) == pytest.approx(16.35, abs=0.05)
    assert loss_db(0.0, 1e6) == 0.0
    assert loss_db(0.13, 0.0) == 0.0


def test_db_per_neper_constant():
    assert DB_PER_NEPER == pytest.approx(4.342944819, abs=1e-9)


def test_distance_for_loss_inverts_loss_db():
    d = distance_for_loss(0.018, 21.7)
    assert d == pytest.approx(277.589, abs=0.01)
    assert loss_db(0.018, d) == pytest.approx(21.7, rel=1e-12)


@pytest.mark.parametrize("c", [0.018, 0.13, 0.29, 1.569])
@pytest.mark.parametrize("length", [0.0, 2.4, 209.0, 500.0])
def test_loss_roundtrip(c, length):
    assert distance_for_loss(c, loss_db(c, length)) == pytest.approx(length, abs=1e-9)


def test_loss_is_linear_in_length_and_coefficient():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c, length, k = rng.uniform(0.01, 2.0, 3)
        assert loss_db(c, k * length) == pytest.approx(k * loss_db(c, length), rel=1e-12)
        assert loss_db(k * c, length) == pytest.approx(k * loss_db(c, length), rel=1e-12)


def test_transmittance_matches_beer_lambert():
    # 10^(-dB/10) must agree with exp(-c*L) exactly.
    for c, length in [(0.018, 209.0), (0.98, 2.4), (0.29, 30.0)]:
        assert transmittance(loss_db(c, length)) == pytest.approx(math.exp(-c * length), rel=1e-12)
    assert transmittance(0.0) == 1.0
    assert transmittance(10.0) == pytest.approx(0.1, rel=1e-12)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        loss_db(-0.1, 10.0)
    with pytest.raises(ValueError):
        loss_db(0.1, -10.0)
    with pytest.raises(ValueError):
        transmittance(-0.01)
    with pytest.raises(ValueError):
        distance_for_loss(0.018, -1.0)


def test_distance_for_loss_degenerate_coefficient():
    assert distance_for_loss(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        distance_for_loss(0.0, 3.0)


def test_jerlov_lookup():
    assert JERLOV_COEFFICIENTS == {"I": 0.018, "II": 0.13, "III": 0.29}
    assert jerlov_coefficient("I") == 0.018
    assert jerlov_coefficient("jerlov ii") == 0.13
    assert jerlov_coefficient("JerlovIII") == 0.29
    with pytest.raises(ValueError):
        jerlov_coefficient("IV")


def test_water_channel_properties():
    ch = WaterChannel.jerlov("I", 209.0)
    assert ch.attenuation_coefficient == 0.018
    assert ch.preset_tag == "JerlovI"
    assert ch.loss_db == pytest.approx(16.338, abs=0.001)
    assert transmittance(ch.loss_db) == pytest.approx(math.exp(-0.018 * 209.0), rel=1e-12)
    with pytest.raises(ValueError):
        WaterChannel(-0.1, 5.0)


def test_receiver_loss_budget():
    rx = ReceiverLoss()
    assert rx.optics_loss_db == 4.1
    assert rx.detector_efficiency == 0.2
    # 4.1 dB optics plus 10*log10(1/0.2) = 6.99 dB for the 20% detector
    assert rx.total_db == pytest.approx(11.0897, abs=1e-4)
    assert ReceiverLoss(0.0, 1.0).total_db == 0.0
    with pytest.raises(ValueError):
        ReceiverLoss(detector_efficiency=0.0)
    with pytest.raises(ValueError):
        ReceiverLoss(detector_efficiency=1.2)
    with pytest.raises(ValueError):
        ReceiverLoss(optics_loss_db=-1.0)


def test_end_to_end_transmittance_combines_losses():
    cfg = config_from_dict({
        "n_pulses": 1000,
        "seeds": {"alice": 1, "bob": 2, "channel": 3},
        "source": {"mu": 0.8, "nu": 0.1, "repetition_rate_hz": 20e6},
        "channel": {"jerlov_type": "I", "length_m": 277.589},
        "receiver": {"optics_loss_db": 4.1, "detector_efficiency": 0.2},
        "detector": {"dark_count_prob_per_gate": 2e-5},
        "misalignment_deg": 0.0,
    })
    ch, rx = cfg.channel, cfg.receiver
    assert cfg.eta == pytest.approx(transmittance(ch.loss_db) * transmittance(rx.total_db), rel=1e-12)
    # 21.7 dB channel + 11.09 dB receiver = 32.8 dB total
    assert cfg.total_loss_db == pytest.approx(32.79, abs=0.01)
