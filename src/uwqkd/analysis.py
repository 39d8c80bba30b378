"""Decoy-state estimation and secure key rate.

Given measured gains and error rates of the signal and decoy classes plus the
background yield, the vacuum+weak-decoy bounds give a lower bound on the
single-photon yield and an upper bound on the single-photon error rate; those
feed the one-way key rate

    R = q * ( -Q_mu * f * H2(E_mu) + Q1 * (1 - H2(e1)) )

per clock slot, clamped at zero. The same estimator path serves both analytic
model statistics and empirical tallies from a run.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .channel import ReceiverLoss, loss_db, transmittance
from .detection import expected_gain, expected_qber
from .postprocess import binary_entropy


@dataclass(frozen=True)
class DecoyStatistics:
    """Measured or modeled per-class gains and error rates.

    flags lists soft consistency problems (kept, not rejected), e.g. a decoy
    gain above the signal gain in a noisy empirical batch.
    """

    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y0: float
    mu: float = 0.8
    nu: float = 0.1
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("q_mu", "q_nu", "y0"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("e_mu", "e_nu"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.mu > self.nu > 0.0:
            raise ValueError("require mu > nu > 0")
        if self.q_mu < self.q_nu and "gain_ordering" not in self.flags:
            object.__setattr__(self, "flags", self.flags + ("gain_ordering",))


@dataclass(frozen=True)
class SinglePhotonBounds:
    y1_lower: float
    q1: float
    e1_upper: float
    clamped: tuple[str, ...] = ()


def q1_from_yield(y1: float, mu: float) -> float:
    """Single-photon gain of the signal class: Y1 * mu * exp(-mu)."""
    if y1 < 0.0:
        raise ValueError("yield must be >= 0")
    return y1 * mu * math.exp(-mu)


def estimate_bounds(stats: DecoyStatistics) -> SinglePhotonBounds:
    """Vacuum+weak-decoy bounds: Y1 from below, Q1 from Y1, e1 from above.

    Each clamp is recorded in `clamped` instead of raised; a zero yield bound
    leaves e1 at its ceiling of 1/2.
    """
    mu, nu = stats.mu, stats.nu
    coeff = mu / (mu * nu - nu * nu)
    raw_y1 = coeff * (
        stats.q_nu * math.exp(nu)
        - stats.q_mu * math.exp(mu) * (nu * nu) / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * stats.y0
    )
    clamps: list[str] = []
    y1 = raw_y1
    if y1 < 0.0:
        y1 = 0.0
        clamps.append("y1_floor")
    if y1 == 0.0:
        clamps.append("no_single_photon_yield")
        return SinglePhotonBounds(0.0, 0.0, 0.5, tuple(clamps))
    raw_e1 = (stats.e_nu * stats.q_nu * math.exp(nu) - 0.5 * stats.y0) / (y1 * nu)
    e1 = raw_e1
    if e1 < 0.0:
        e1 = 0.0
        clamps.append("e1_floor")
    if e1 > 0.5:
        e1 = 0.5
        clamps.append("e1_ceiling")
    return SinglePhotonBounds(y1, q1_from_yield(y1, mu), e1, tuple(clamps))


@dataclass(frozen=True)
class KeyRateReport:
    r_per_pulse: float
    r_bits_per_second: float
    clamped_to_zero: bool = False


def secure_key_rate(
    stats: DecoyStatistics,
    bounds: SinglePhotonBounds | None = None,
    *,
    q: float = 0.5,
    error_correction_efficiency: float = 1.16,
    repetition_rate_hz: float = 20e6,
) -> KeyRateReport:
    """Per-slot secure rate and its per-second equivalent, clamped at zero."""
    if bounds is None:
        bounds = estimate_bounds(stats)
    if not 0.0 < q <= 1.0:
        raise ValueError("sifting factor q must be in (0, 1]")
    if error_correction_efficiency < 1.0:
        raise ValueError("error correction efficiency must be >= 1")
    raw = q * (
        -stats.q_mu * error_correction_efficiency * binary_entropy(stats.e_mu)
        + bounds.q1 * (1.0 - binary_entropy(bounds.e1_upper))
    )
    r = max(raw, 0.0)
    return KeyRateReport(
        r_per_pulse=r,
        r_bits_per_second=r * repetition_rate_hz,
        clamped_to_zero=raw < 0.0,
    )


def expected_statistics(
    y0: float, eta: float, mu: float, nu: float, e_detector: float
) -> DecoyStatistics:
    """Model DecoyStatistics for a given transmittance and noise pair."""
    return DecoyStatistics(
        q_mu=expected_gain(y0, eta, mu),
        e_mu=expected_qber(y0, eta, mu, e_detector),
        q_nu=expected_gain(y0, eta, nu),
        e_nu=expected_qber(y0, eta, nu, e_detector),
        y0=y0,
        mu=mu,
        nu=nu,
    )


SWEEP_CSV_HEADER = (
    "distance_m,loss_db,Q_mu,E_mu,Q_nu,E_nu,Y1_L,Q1,e1_U,R_per_pulse,R_bps"
)


@dataclass(frozen=True)
class SweepPoint:
    distance_m: float
    loss_db: float
    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y1_lower: float
    q1: float
    e1_upper: float
    r_per_pulse: float
    r_bps: float

    def csv_row(self) -> list[str]:
        return [
            repr(float(v))
            for v in (
                self.distance_m,
                self.loss_db,
                self.q_mu,
                self.e_mu,
                self.q_nu,
                self.e_nu,
                self.y1_lower,
                self.q1,
                self.e1_upper,
                self.r_per_pulse,
                self.r_bps,
            )
        ]


def sweep_distance(
    attenuation_coefficient: float,
    distances_m,
    *,
    receiver: ReceiverLoss | None = None,
    y0: float,
    e_detector: float,
    mu: float = 0.8,
    nu: float = 0.1,
    q: float = 0.5,
    error_correction_efficiency: float = 1.16,
    repetition_rate_hz: float = 20e6,
) -> list[SweepPoint]:
    """Analytic rate curve along a distance grid for one water type."""
    receiver = receiver if receiver is not None else ReceiverLoss()
    points = []
    for d in distances_m:
        channel_db = loss_db(attenuation_coefficient, float(d))
        eta = transmittance(channel_db + receiver.total_db)
        stats = expected_statistics(y0, eta, mu, nu, e_detector)
        bounds = estimate_bounds(stats)
        report = secure_key_rate(
            stats,
            bounds,
            q=q,
            error_correction_efficiency=error_correction_efficiency,
            repetition_rate_hz=repetition_rate_hz,
        )
        points.append(
            SweepPoint(
                distance_m=float(d),
                loss_db=channel_db,
                q_mu=stats.q_mu,
                e_mu=stats.e_mu,
                q_nu=stats.q_nu,
                e_nu=stats.e_nu,
                y1_lower=bounds.y1_lower,
                q1=bounds.q1,
                e1_upper=bounds.e1_upper,
                r_per_pulse=report.r_per_pulse,
                r_bps=report.r_bits_per_second,
            )
        )
    return points


def sweep_to_csv(points: list[SweepPoint]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for p in points:
        writer.writerow(p.csv_row())
    return out.getvalue()


# ---------------------------------------------------------------------------
# Calibration of (Y0, e_detector) against anchor observations.


_ANCHOR_KINDS = ("r_per_pulse", "q_mu", "e_mu", "q_nu", "e_nu")


def anchor_kind(kind: str) -> str:
    """kind itself if it names an anchor observable, else a ValueError."""
    if kind not in _ANCHOR_KINDS:
        raise ValueError(f"anchor kind must be one of {_ANCHOR_KINDS}")
    return kind


def anchor_loss_db(total_loss_db) -> float:
    """total_loss_db as a float if it is a loss >= 0 dB, else a ValueError."""
    loss = float(total_loss_db)
    if not loss >= 0.0:
        raise ValueError("total loss must be >= 0 dB")
    return loss


@dataclass(frozen=True)
class Anchor:
    """One observable pinned at a total link loss (channel + receiver), in dB.

    kind is one of r_per_pulse, q_mu, e_mu, q_nu, e_nu.
    """

    total_loss_db: float
    kind: str
    value: float

    def __post_init__(self) -> None:
        anchor_kind(self.kind)
        anchor_loss_db(self.total_loss_db)


@dataclass(frozen=True)
class CalibrationResult:
    y0: float
    e_detector: float
    residual: float
    per_anchor: tuple[float, ...]
    ok: bool
    threshold: float


def _anchor_prediction(anchor: Anchor, y0: float, e_d: float, mu: float, nu: float, q: float, f: float) -> float:
    eta = transmittance(anchor.total_loss_db)
    stats = expected_statistics(y0, eta, mu, nu, e_d)
    if anchor.kind == "r_per_pulse":
        return secure_key_rate(stats, q=q, error_correction_efficiency=f).r_per_pulse
    # the other kinds are DecoyStatistics fields
    return getattr(stats, anchor.kind)


def calibrate(
    anchors: list[Anchor],
    *,
    mu: float = 0.8,
    nu: float = 0.1,
    q: float = 0.5,
    error_correction_efficiency: float = 1.16,
    residual_threshold: float = 0.05,
) -> CalibrationResult:
    """Fit (Y0, e_detector) so the analytic model reproduces the anchors.

    Residuals are relative. A coarse log grid seeds a local least-squares
    refinement; if the best fit still misses an anchor by more than the
    threshold the result is returned with ok=False (never silently).
    """
    from scipy import optimize  # imported here so that `import uwqkd` does not load scipy

    if len(anchors) < 2:
        raise ValueError("calibration needs at least two anchors")

    def residuals(params: np.ndarray) -> np.ndarray:
        y0 = 10.0 ** params[0]
        e_d = 10.0 ** params[1]
        if e_d > 0.5:
            return np.full(len(anchors), 1e6)
        out = []
        for a in anchors:
            try:
                pred = _anchor_prediction(a, y0, e_d, mu, nu, q, error_correction_efficiency)
            except (ValueError, ZeroDivisionError):
                out.append(1e6)
                continue
            scale = abs(a.value) if a.value != 0.0 else 1.0
            out.append((pred - a.value) / scale)
        return np.asarray(out)

    best = None
    for ly0 in np.linspace(-8.0, -2.0, 25):
        for led in np.linspace(-4.0, math.log10(0.3), 25):
            r = residuals(np.array([ly0, led]))
            cost = float(np.sum(r * r))
            if best is None or cost < best[0]:
                best = (cost, np.array([ly0, led]))
    fit = optimize.least_squares(
        residuals,
        best[1],
        bounds=([-12.0, -6.0], [math.log10(0.5), math.log10(0.5)]),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    per_anchor = residuals(fit.x)
    worst = float(np.max(np.abs(per_anchor)))
    return CalibrationResult(
        y0=float(10.0 ** fit.x[0]),
        e_detector=float(10.0 ** fit.x[1]),
        residual=worst,
        per_anchor=tuple(float(v) for v in per_anchor),
        ok=worst <= residual_threshold,
        threshold=residual_threshold,
    )


def cutoff_distance(
    attenuation_coefficient: float,
    *,
    receiver: ReceiverLoss | None = None,
    y0: float,
    e_detector: float,
    rate_floor_per_pulse: float,
    mu: float = 0.8,
    nu: float = 0.1,
    q: float = 0.5,
    error_correction_efficiency: float = 1.16,
    d_max_m: float = 2000.0,
) -> float:
    """Distance where the analytic R drops to the floor (bisection; R monotone)."""

    def rate_at(d: float) -> float:
        pts = sweep_distance(
            attenuation_coefficient,
            [d],
            receiver=receiver,
            y0=y0,
            e_detector=e_detector,
            mu=mu,
            nu=nu,
            q=q,
            error_correction_efficiency=error_correction_efficiency,
        )
        return pts[0].r_per_pulse

    lo, hi = 0.0, d_max_m
    if rate_at(lo) <= rate_floor_per_pulse:
        return 0.0
    if rate_at(hi) > rate_floor_per_pulse:
        raise ValueError("rate floor not reached inside the search interval")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > rate_floor_per_pulse:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
