"""Photon-source model: the law of the per-pulse mean photon number and
the waveplate state-preparation chain.

The source is deliberately simple — a Poisson mean photon number with
an optional per-pulse Gaussian intensity fluctuation (sunlight), and a
polarization state fixed by a half-wave plate and a quarter-wave plate
acting on horizontally polarized input. Neither the photon number nor
the mean is ever drawn: the detector model needs only the mean's
Laplace transform. Nothing downstream trusts any of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default relative intensity fluctuation for sunlight runs.
SUNLIGHT_FLUCTUATION = 0.05

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PolarizationState:
    """Jones vector (amplitude_H, amplitude_V), unit norm within 1e-12."""

    amplitude_H: complex
    amplitude_V: complex

    def __post_init__(self):
        norm = abs(self.amplitude_H) ** 2 + abs(self.amplitude_V) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"Jones vector norm^2 = {norm}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.amplitude_H, self.amplitude_V], dtype=complex)


@dataclass(frozen=True)
class SourceParams:
    """Source statistics and prepared polarization.

    mean_photons_lambda is the pre-detection mean photon number per pulse;
    intensity_fluctuation_rel_std the relative std of a per-pulse Gaussian
    intensity jitter (0 for a stable laser, 0.05 typical for sunlight):
    a pulse's mean is lambda_eff = max(0, mu + sigma Z), Z ~ N(0, 1), with
    mu = lambda and sigma = lambda * rel.
    """

    mean_photons_lambda: float = 14.4
    pulse_rate_G: float = 4.0e6
    hwp_angle: float = 22.5
    qwp_angle: float = 0.0
    intensity_fluctuation_rel_std: float = 0.0
    source_kind: str = "laser"

    def __post_init__(self):
        if self.mean_photons_lambda < 0:
            raise ValueError("mean photon number must be >= 0")
        if self.pulse_rate_G <= 0:
            raise ValueError("pulse rate must be positive")
        if self.intensity_fluctuation_rel_std < 0:
            raise ValueError("fluctuation must be >= 0")
        if self.source_kind not in ("laser", "sunlight"):
            raise ValueError(f"unknown source kind {self.source_kind!r}")

    def laplace(self, t: float) -> float:
        """E exp(-t lambda_eff) for t >= 0: the probability that a pulse
        thinned to Poisson(t lambda_eff) holds no photon.

        For sigma > 0 the Gaussian integral above the clip at 0 gives
        Phi(-mu/sigma) + exp(-t mu + (t sigma)^2 / 2) Phi(mu/sigma - t sigma).
        That product tends to inf * 0 as t sigma grows (at lambda = 1e12),
        so from x = t sigma - mu/sigma >= 8 on the second term is taken in
        the equal form phi(mu/sigma) R(x), with the Mills ratio
        R(x) = Phi(-x) / phi(x) from Laplace's continued fraction, which
        40 terms converge to rounding there.
        """
        mu = self.mean_photons_lambda
        sigma = mu * self.intensity_fluctuation_rel_std
        if sigma == 0.0 or t == 0.0:
            return math.exp(-t * mu)
        a = mu / sigma
        x = t * sigma - a
        clip = math.erfc(a / _SQRT2) / 2.0  # P(lambda_eff = 0)
        if x < 8.0:
            tail = math.erfc(x / _SQRT2) / 2.0
            return clip + math.exp((t * sigma) ** 2 / 2.0 - t * mu) * tail
        f = x
        for k in range(40, 0, -1):
            f = x + k / f
        return clip + math.exp(-a * a / 2.0) / (_SQRT_2PI * f)

    @classmethod
    def sunlight(cls, mean_photons_lambda: float = 11.6, **kw) -> "SourceParams":
        kw.setdefault("intensity_fluctuation_rel_std", SUNLIGHT_FLUCTUATION)
        return cls(
            mean_photons_lambda=mean_photons_lambda,
            source_kind="sunlight",
            **kw,
        )


def _rotation(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]], dtype=complex)


def waveplate_matrix(angle_deg: float, retardance_rad: float) -> np.ndarray:
    """Jones matrix of a retarder with its fast axis at the given angle.

    Convention: unit gain on the fast axis, phase e^(i*retardance) on the
    slow axis; any consistent convention gives the same measured
    probabilities.
    """
    a = math.radians(angle_deg)
    retarder = np.array([[1.0, 0.0], [0.0, np.exp(1j * retardance_rad)]])
    return _rotation(a) @ retarder @ _rotation(-a)


def half_wave_plate(angle_deg: float) -> np.ndarray:
    return waveplate_matrix(angle_deg, math.pi)


def quarter_wave_plate(angle_deg: float) -> np.ndarray:
    return waveplate_matrix(angle_deg, math.pi / 2.0)


def polarization_from_waveplates(
    hwp_angle: float, qwp_angle: float
) -> PolarizationState:
    """State prepared by sending |H> through the QWP and then the HWP."""
    vec = half_wave_plate(hwp_angle) @ quarter_wave_plate(qwp_angle) @ np.array(
        [1.0 + 0.0j, 0.0j]
    )
    vec = vec / np.linalg.norm(vec)
    return PolarizationState(amplitude_H=complex(vec[0]), amplitude_V=complex(vec[1]))

