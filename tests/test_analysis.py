import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uwqkd
from uwqkd.analysis import (
    Anchor,
    CalibrationResult,
    DecoyStatistics,
    KeyRateReport,
    SWEEP_CSV_HEADER,
    SinglePhotonBounds,
    calibrate,
    cutoff_distance,
    estimate_bounds,
    expected_statistics,
    q1_from_yield,
    secure_key_rate,
    sweep_distance,
    sweep_to_csv,
)
from uwqkd.channel import ReceiverLoss, jerlov_coefficient, loss_db, transmittance
from uwqkd.detection import expected_gain, expected_qber
from uwqkd.postprocess import binary_entropy

# Measured row used throughout: signal/decoy gains and QBERs at the shortest
# tank setting, mu = 0.8, nu = 0.1.
ROW1 = DecoyStatistics(q_mu=1.48e-2, e_mu=0.0121, q_nu=1.89e-3, e_nu=0.0181, y0=0.0)


def test_y1_lower_reference_row():
    y1 = estimate_bounds(ROW1).y1_lower
    assert y1 == pytest.approx(1.799e-2, abs=5e-6)
    assert y1 == pytest.approx(0.017989905090846753, rel=1e-12)


def test_q1_chains_from_y1():
    bounds = estimate_bounds(ROW1)
    q1 = q1_from_yield(bounds.y1_lower, 0.8)
    assert q1 == bounds.q1
    assert q1 == pytest.approx(6.467e-3, abs=5e-7)
    assert q1 == pytest.approx(bounds.y1_lower * 0.8 * math.exp(-0.8), rel=1e-12)
    assert q1_from_yield(0.0, 0.8) == 0.0
    # Y1*mu*exp(-mu) peaks at mu = 1
    assert q1_from_yield(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        q1_from_yield(-0.1, 0.8)


def test_e1_upper_reference_row():
    e1 = estimate_bounds(ROW1).e1_upper
    assert e1 == pytest.approx(2.10e-2, abs=5e-5)
    assert e1 == pytest.approx(0.021015559418201654, rel=1e-11)


def test_e1_upper_error_free_decoy():
    stats = DecoyStatistics(q_mu=1e-2, e_mu=0.01, q_nu=1.3e-3, e_nu=0.0, y0=0.0)
    bounds = estimate_bounds(stats)
    assert bounds.y1_lower > 0.0
    assert bounds.e1_upper == 0.0
    assert bounds.clamped == ()


def test_y1_bound_dead_channel():
    # eta = 0 collapses both gains to Y0; the bound stays just below Y0.
    y0 = 3e-4
    stats = DecoyStatistics(q_mu=y0, e_mu=0.5, q_nu=y0, e_nu=0.5, y0=y0)
    y1 = estimate_bounds(stats).y1_lower
    coeff = y1 / y0
    assert coeff == pytest.approx(0.9832, abs=2e-4)
    assert coeff == pytest.approx(0.98310675506232, rel=1e-10)
    assert y1 <= y0


def test_y1_bound_is_sound_at_model_point():
    y0, eta = 1e-4, 1e-2
    stats = expected_statistics(y0, eta, 0.8, 0.1, 0.01)
    y1_true = y0 + eta
    assert estimate_bounds(stats).y1_lower <= y1_true + 1e-12


def test_bounds_soundness_sweep():
    """Vacuum+weak bounds never cross the true single-photon values."""
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(1000):
        y0 = rng.uniform(0.0, 1e-3)
        eta = 10.0 ** rng.uniform(-4.0, -1.0)
        e_d = rng.uniform(0.0, 0.05)
        stats = expected_statistics(y0, eta, 0.8, 0.1, e_d)
        y1_true = y0 + eta
        e1_true = (0.5 * y0 + e_d * eta) / y1_true
        b = estimate_bounds(stats)
        if b.y1_lower > y1_true + 1e-12:
            violations += 1
        if b.y1_lower > 0.0 and b.e1_upper < e1_true - 1e-12:
            violations += 1
    assert violations == 0


def test_estimate_bounds_flags_clamps():
    # decoy gain far too low drives the yield bound negative
    starved = DecoyStatistics(q_mu=2e-2, e_mu=0.01, q_nu=1e-5, e_nu=0.01, y0=0.0)
    b = estimate_bounds(starved)
    assert b.y1_lower == 0.0
    assert b.q1 == 0.0
    assert b.e1_upper == 0.5
    assert "y1_floor" in b.clamped
    assert "no_single_photon_yield" in b.clamped
    # strong background with error-free decoy clicks drives e1 negative
    floor = DecoyStatistics(q_mu=2e-2, e_mu=0.01, q_nu=3e-3, e_nu=0.0, y0=5e-4)
    bf = estimate_bounds(floor)
    assert bf.e1_upper == 0.0
    assert "e1_floor" in bf.clamped
    # a noisy decoy class saturates the error bound at 1/2
    noisy = DecoyStatistics(q_mu=2e-2, e_mu=0.01, q_nu=3e-3, e_nu=0.5, y0=0.0)
    bn = estimate_bounds(noisy)
    assert bn.e1_upper == 0.5
    assert "e1_ceiling" in bn.clamped
    # clean row has no clamps
    assert estimate_bounds(ROW1).clamped == ()


def test_decoy_statistics_validation_and_ordering_flag():
    with pytest.raises(ValueError):
        DecoyStatistics(q_mu=1.2, e_mu=0.0, q_nu=0.1, e_nu=0.0, y0=0.0)
    with pytest.raises(ValueError):
        DecoyStatistics(q_mu=0.1, e_mu=0.0, q_nu=0.1, e_nu=0.0, y0=0.0, mu=0.1, nu=0.8)
    # the source's rule for the means: e^mu must be a finite float, or
    # estimate_bounds would overflow
    with pytest.raises(ValueError, match=r"e\^mu"):
        DecoyStatistics(q_mu=0.1, e_mu=0.01, q_nu=0.01, e_nu=0.01, y0=0.0, mu=800.0)
    with pytest.raises(ValueError, match=r"e\^mu"):
        expected_statistics(1e-5, 0.1, math.inf, 0.1, 0.01)
    flagged = DecoyStatistics(q_mu=1e-3, e_mu=0.0, q_nu=2e-3, e_nu=0.0, y0=0.0)
    assert "gain_ordering" in flagged.flags
    assert ROW1.flags == ()


def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
    assert binary_entropy(0.0121) == pytest.approx(0.09441364355945278, rel=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_binary_entropy_symmetry_and_concavity():
    xs = np.linspace(0.001, 0.999, 199)
    h = binary_entropy(xs)
    assert np.allclose(h, binary_entropy(1.0 - xs), atol=1e-12)
    # midpoint concavity on random pairs
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.0, 1.0, (2, 200))
    mid = binary_entropy((a + b) / 2.0)
    assert np.all(mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12)


def test_secure_key_rate_reference_row():
    bounds = SinglePhotonBounds(y1_lower=4.84e-3 / (0.8 * math.exp(-0.8)),
                                q1=4.84e-3, e1_upper=0.0118)
    report = secure_key_rate(ROW1, bounds, q=0.5, error_correction_efficiency=1.16)
    assert report.r_per_pulse == pytest.approx(1.386e-3, abs=1e-6)
    assert report.r_per_pulse == pytest.approx(1.3856965518827236e-3, rel=1e-12)
    # per-second rate is exactly rate-per-slot times the clock
    assert report.r_bits_per_second == report.r_per_pulse * 20e6
    assert report.r_bits_per_second == pytest.approx(27713.93, abs=0.01)
    assert not report.clamped_to_zero


def test_secure_key_rate_trivia():
    clean = DecoyStatistics(q_mu=1e-2, e_mu=0.0, q_nu=1.3e-3, e_nu=0.0, y0=0.0)
    b = SinglePhotonBounds(y1_lower=1e-2, q1=5e-3, e1_upper=0.0)
    r = secure_key_rate(clean, b, q=0.5, error_correction_efficiency=3.0)
    assert r.r_per_pulse == pytest.approx(0.5 * 5e-3, rel=1e-12)  # q * Q1
    # zero single-photon gain clamps the negative rate to 0
    dead = SinglePhotonBounds(y1_lower=0.0, q1=0.0, e1_upper=0.5)
    noisy = DecoyStatistics(q_mu=1e-2, e_mu=0.05, q_nu=1.3e-3, e_nu=0.05, y0=0.0)
    r0 = secure_key_rate(noisy, dead)
    assert r0.r_per_pulse == 0.0
    assert r0.clamped_to_zero
    with pytest.raises(ValueError):
        secure_key_rate(clean, b, q=0.0)
    with pytest.raises(ValueError):
        secure_key_rate(clean, b, error_correction_efficiency=0.9)


def test_expected_statistics_consistency():
    y0, eta, e_d = 1e-4, 3e-3, 0.015
    stats = expected_statistics(y0, eta, 0.8, 0.1, e_d)
    assert stats.q_mu == expected_gain(y0, eta, 0.8)
    assert stats.e_mu == expected_qber(y0, eta, 0.8, e_d)
    assert stats.q_nu == expected_gain(y0, eta, 0.1)
    assert stats.e_nu == expected_qber(y0, eta, 0.1, e_d)
    assert stats.y0 == y0


def test_sweep_monotone_and_ordered():
    distances = np.linspace(0.0, 400.0, 81)
    kw = dict(y0=1e-5, e_detector=0.012)
    curves = {wt: sweep_distance(jerlov_coefficient(wt), distances, **kw) for wt in ("I", "II", "III")}
    for wt, pts in curves.items():
        rates = [p.r_per_pulse for p in pts]
        assert all(a >= b for a, b in zip(rates, rates[1:])), wt
        assert rates[0] == max(rates)
    for pI, pII, pIII in zip(curves["I"], curves["II"], curves["III"]):
        assert pI.r_per_pulse >= pII.r_per_pulse >= pIII.r_per_pulse


def test_sweep_point_columns():
    pts = sweep_distance(0.018, [100.0], y0=1e-5, e_detector=0.012)
    p = pts[0]
    assert p.loss_db == pytest.approx(loss_db(0.018, 100.0), rel=1e-12)
    eta = transmittance(p.loss_db + ReceiverLoss().total_db)
    stats = expected_statistics(1e-5, eta, 0.8, 0.1, 0.012)
    assert p.q_mu == pytest.approx(stats.q_mu, rel=1e-12)
    assert p.r_bps == pytest.approx(p.r_per_pulse * 20e6, rel=1e-12)


def test_sweep_csv_format():
    pts = sweep_distance(0.018, [0.0, 50.0, 100.0], y0=1e-5, e_detector=0.012)
    text = sweep_to_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 4
    for line, p in zip(lines[1:], pts):
        cells = line.split(",")
        assert len(cells) == 11
        assert float(cells[0]) == p.distance_m
        assert float(cells[9]) == p.r_per_pulse  # repr round-trips exactly


def test_cutoff_distance_brackets_floor():
    kw = dict(y0=1e-5, e_detector=0.012)
    floor = 1e-5
    d = cutoff_distance(0.018, rate_floor_per_pulse=floor, **kw)
    just_above = sweep_distance(0.018, [d - 0.5], **kw)[0].r_per_pulse
    just_below = sweep_distance(0.018, [d + 0.5], **kw)[0].r_per_pulse
    assert just_above > floor >= just_below
    assert cutoff_distance(0.018, rate_floor_per_pulse=1.0, **kw) == 0.0
    with pytest.raises(ValueError):
        cutoff_distance(0.018, rate_floor_per_pulse=1e-12, d_max_m=10.0, **kw)
    # every keyword of sweep_distance passes through, and only those
    assert cutoff_distance(0.018, rate_floor_per_pulse=floor, repetition_rate_hz=1e6, **kw) == d
    with pytest.raises(TypeError, match="repetition_rate"):
        cutoff_distance(0.018, rate_floor_per_pulse=floor, repetition_rate=1e6, **kw)


@pytest.mark.parametrize(
    "coefficient, floor, link",
    [
        (0.018, 1e-5, dict(y0=1e-5, e_detector=0.012)),
        (jerlov_coefficient("I"), 1e-5, dict(receiver=ReceiverLoss(), y0=2.578e-5, e_detector=0.01223, mu=0.7)),
        (0.13, 1e-7, dict(y0=3e-5, e_detector=0.02)),
        (1.569, 1e-6, dict(y0=1e-6, e_detector=0.005, mu=0.5, nu=0.05)),
    ],
)
def test_cutoff_distance_stops_once_the_interval_stands_still(monkeypatch, coefficient, floor, link):
    """Once the midpoint equals lo or hi, every further bisection step repeats
    it: the search returns that float, the one 200 steps end on, after far
    fewer model evaluations."""

    def rate_at(d):
        return sweep_distance(coefficient, [d], **link)[0].r_per_pulse

    lo, hi = 0.0, 2000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rate_at(mid) > floor else (lo, mid)
    calls = []
    monkeypatch.setattr(uwqkd.analysis, "sweep_distance", lambda *a, **k: calls.append(a) or sweep_distance(*a, **k))
    assert cutoff_distance(coefficient, rate_floor_per_pulse=floor, **link) == 0.5 * (lo + hi)
    assert 0 < len(calls) <= 64


def test_calibrate_roundtrip():
    """Anchors generated from known parameters fit back to those parameters."""
    y0_true, e_d_true = 3e-5, 0.012
    def model(db, kind):
        stats = expected_statistics(y0_true, transmittance(db), 0.8, 0.1, e_d_true)
        if kind == "r_per_pulse":
            return secure_key_rate(stats, estimate_bounds(stats)).r_per_pulse
        return getattr(stats, kind)
    anchors = [
        Anchor(30.0, "r_per_pulse", model(30.0, "r_per_pulse")),
        Anchor(24.0, "e_mu", model(24.0, "e_mu")),
    ]
    result = calibrate(anchors)
    assert result.ok
    assert result.y0 == pytest.approx(y0_true, rel=0.05)
    assert result.e_detector == pytest.approx(e_d_true, rel=0.05)
    assert result.residual <= 0.05
    assert len(result.per_anchor) == 2


def test_calibrate_requires_two_anchors():
    with pytest.raises(ValueError):
        calibrate([Anchor(30.0, "r_per_pulse", 1e-5)])


def test_calibrate_reports_failure_not_silence():
    # a 90% signal gain behind 60 dB of loss is unreachable for any (Y0, e_d)
    impossible = [
        Anchor(60.0, "q_mu", 0.9),
        Anchor(20.0, "e_mu", 0.01),
    ]
    result = calibrate(impossible)
    assert not result.ok
    assert result.residual > result.threshold


def test_anchor_validation():
    with pytest.raises(ValueError):
        Anchor(30.0, "q_sigma", 0.1)
    with pytest.raises(ValueError):
        Anchor(-1.0, "q_mu", 0.1)


# Run in a fresh interpreter: build the tank config, note what that loaded
# beyond numpy's own imports, then resolve every public name.
LIGHT_PATH_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
from uwqkd import config_from_dict, override_seeds
with open(sys.argv[1]) as fh:
    override_seeds(config_from_dict(json.load(fh)), 7)
loaded = sorted(set(sys.modules) - before)
import uwqkd
for name in uwqkd.__all__:
    getattr(uwqkd, name)
print(json.dumps({"config": loaded, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def test_import_does_not_load_scipy():
    # scipy serves calibrate() alone; sessions, demos and the CLI start without
    # it. Building a config loads neither the sessions, Cascade, the analysis
    # nor sockets and hashing: each endpoint process starts with one.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LIGHT_PATH_PROBE, str(root / "configs" / "tank_run.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout)
    assert loaded["scipy"] == []
    heavy = [f"uwqkd.{m}" for m in ("harness", "protocol", "postprocess", "analysis", "polarization", "transport")]
    assert not set(loaded["config"]) & {*heavy, "socket", "hashlib"}, loaded["config"]
    assert "uwqkd.config" in loaded["config"]
    # in this process too, every name of the package's table resolves
    assert [name for name in uwqkd.__all__ if not hasattr(uwqkd, name)] == []
