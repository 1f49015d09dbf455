"""Optical model, in ``math`` and ``cmath`` alone: the law of the
per-pulse mean photon number, the waveplate state preparation, the
interferometer's basis settings and each basis's four-outcome detection
law, which the simulator draws from and the rate model evaluates.

The source is deliberately simple — a Poisson mean photon number with
an optional per-pulse Gaussian intensity fluctuation (sunlight), and a
polarization state fixed by a half-wave plate and a quarter-wave plate
acting on horizontally polarized input. Neither the photon number nor
the mean is ever drawn: the detection law needs only the mean's
Laplace transform. Nothing downstream trusts any of it. Jones vectors
are 2-tuples and Jones matrices 2x2 tuples of rows.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

#: Default relative intensity fluctuation for sunlight runs.
SUNLIGHT_FLUCTUATION = 0.05

BASIS_Z = 0
BASIS_X = 1

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class PolarizationState(namedtuple("PolarizationState", "amplitude_H amplitude_V")):
    """Jones vector (amplitude_H, amplitude_V), unit norm within 1e-12."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        norm = abs(self.amplitude_H) ** 2 + abs(self.amplitude_V) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"Jones vector norm^2 = {norm}, expected 1")
        return self


class SourceParams(
    namedtuple(
        "SourceParams",
        "mean_photons_lambda pulse_rate_G hwp_angle qwp_angle "
        "intensity_fluctuation_rel_std",
        defaults=(14.4, 4.0e6, 22.5, 0.0, 0.0),
    )
):
    """Source statistics and prepared polarization.

    mean_photons_lambda is the pre-detection mean photon number per pulse;
    intensity_fluctuation_rel_std the relative std of a per-pulse Gaussian
    intensity jitter (0 for a stable laser, 0.05 typical for sunlight):
    a pulse's mean is lambda_eff = max(0, mu + sigma Z), Z ~ N(0, 1), with
    mu = lambda and sigma = lambda * rel.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mean_photons_lambda < 0:
            raise ValueError("mean photon number must be >= 0")
        if self.pulse_rate_G <= 0:
            raise ValueError("pulse rate must be positive")
        if self.intensity_fluctuation_rel_std < 0:
            raise ValueError("fluctuation must be >= 0")
        return self

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


class MeasurementConfig(
    namedtuple(
        "MeasurementConfig", "prob_X phase_Z phase_X",
        defaults=(0.004, (0.0, 0.0), (-math.pi / 4.0, math.pi / 4.0)),
    )
):
    """Per-pulse basis selection and the interferometer phase settings."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.prob_X <= 1.0:
            raise ValueError(f"prob_X must be in [0, 1], got {self.prob_X}")
        return self


class DetectorParams(
    namedtuple(
        "DetectorParams", "eta0 eta1 dark_rate dead_time gate_width",
        defaults=(0.1, 0.1, 200.0, 50e-9, 100e-9),
    )
):
    """Threshold-detector pair parameters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.eta0 <= 1.0 or not 0.0 <= self.eta1 <= 1.0:
            raise ValueError("efficiencies must be in [0, 1]")
        if self.dark_rate < 0:
            raise ValueError("dark rate must be >= 0")
        if self.dead_time < 0:
            raise ValueError("dead time must be >= 0")
        if self.gate_width <= 0:
            raise ValueError("gate width must be positive")
        return self

    @property
    def dark_click_prob(self) -> float:
        """Per-detector dark-click probability inside one gate window."""
        return -math.expm1(-self.dark_rate * self.gate_width)


def _matmul(a, b):
    """Product of two 2x2 matrices."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )


def _apply(m, v):
    """A 2x2 matrix applied to a 2-vector."""
    (m00, m01), (m10, m11) = m
    return (m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1])


def _rotation(angle_rad: float):
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return ((c, -s), (s, c))


def waveplate_matrix(angle_deg: float, retardance_rad: float):
    """Jones matrix of a retarder with its fast axis at the given angle.

    Convention: unit gain on the fast axis, phase e^(i*retardance) on the
    slow axis; any consistent convention gives the same measured
    probabilities.
    """
    a = math.radians(angle_deg)
    retarder = ((1 + 0j, 0j), (0j, cmath.exp(1j * retardance_rad)))
    return _matmul(_matmul(_rotation(a), retarder), _rotation(-a))


def half_wave_plate(angle_deg: float):
    return waveplate_matrix(angle_deg, math.pi)


def quarter_wave_plate(angle_deg: float):
    return waveplate_matrix(angle_deg, math.pi / 2.0)


def polarization_from_waveplates(
    hwp_angle: float, qwp_angle: float
) -> PolarizationState:
    """State prepared by sending |H> through the QWP and then the HWP."""
    plates = _matmul(half_wave_plate(hwp_angle), quarter_wave_plate(qwp_angle))
    h, v = _apply(plates, (1 + 0j, 0j))
    norm = math.sqrt((h.real**2 + v.real**2) + (h.imag**2 + v.imag**2))
    return PolarizationState(amplitude_H=h / norm, amplitude_V=v / norm)


def phase_unitary(phi_c: float, phi_a: float):
    """Loop unitary: independent phases on the two polarization arms."""
    return ((cmath.exp(1j * phi_c), 0j), (0j, cmath.exp(1j * phi_a)))


#: Fixed polarization-controller unitary following the loop.
CONTROLLER_UNITARY = ((0.5 + 0.5j, 0.5 - 0.5j), (0.5 - 0.5j, 0.5 + 0.5j))


def measurement_unitary(phi_c: float, phi_a: float):
    return _matmul(CONTROLLER_UNITARY, phase_unitary(phi_c, phi_a))


def effective_projection_probs(
    state: PolarizationState, basis: int, config: MeasurementConfig
) -> tuple[float, float]:
    """Detector-hit probabilities (p0, p1) for a state under one basis
    setting.

    Applies the phase unitary of the chosen setting followed by the fixed
    polarization-controller unitary, then projects on the output
    polarizing splitter. p0 + p1 = 1 within 1e-12 for unit input.
    """
    vec = (state.amplitude_H, state.amplitude_V)
    norm = abs(vec[0]) ** 2 + abs(vec[1]) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm^2 = {norm}, expected 1")
    phases = config.phase_X if basis == BASIS_X else config.phase_Z
    out = _apply(measurement_unitary(*phases), vec)
    p0 = abs(out[0]) ** 2
    p1 = abs(out[1]) ** 2
    total = p0 + p1
    return p0 / total, p1 / total


def outcome_law(
    source: SourceParams, det: DetectorParams, probs: tuple[float, float]
) -> tuple[float, float, float]:
    """Cumulative law (t1, t2, t3) = (P00, P00 + P10, P00 + P10 + P01) of
    a pulse's raw clicks, P10 meaning detector 0 alone, for the detector-hit
    probabilities ``probs`` of one basis.

    Given a pulse's mean lambda_eff, arm i receives Poisson(lambda_eff *
    p_i) photons independently of the other arm, and efficiency thins
    that to Poisson(lambda_eff * a_i), a_i = p_i * eta_i. So arm i stays
    dark with probability keep * exp(-a_i lambda_eff), keep = 1 - d, and
    averaging over lambda_eff with M(t) = E exp(-t lambda_eff) gives
    P00 = keep^2 M(a0 + a1) and P(arm i dark) = keep M(a_i).
    """
    keep = 1.0 - det.dark_click_prob
    a0, a1 = probs[0] * det.eta0, probs[1] * det.eta1
    p00 = keep * keep * source.laplace(a0 + a1)
    t2 = keep * source.laplace(a1)  # detector 1 dark
    return p00, t2, t2 + keep * source.laplace(a0) - p00
