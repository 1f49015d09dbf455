"""Generation-rate model and the mean-photon-number operating point.

The model composes the single-click probability of a Poisson source
split over two threshold detectors with the per-pulse certified
randomness: rate = G * p_single * (coefficient - H(e + theta)) minus the
hashing cost amortized over the run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import NonUnimodalError
from .protocol_math import binary_entropy

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ConstantErrorModel:
    """Check-basis error rate pinned at a measured floor."""

    e_bx: float = 0.0033

    def __call__(self, lam_prime: float) -> float:
        return self.e_bx


@dataclass(frozen=True)
class DoubleClickErrorModel:
    """Error floor from multiphoton double clicks at per-photon
    wrong-arm fraction e_d: independent Poisson arms of mean
    lam' * e_d and lam' * (1 - e_d), wrong-only a full error, both a
    half error, normalized by the click probability.
    """

    e_d: float = 0.005

    def __call__(self, lam_prime: float) -> float:
        if lam_prime <= 0.0:
            return self.e_d
        p_wrong = -math.expm1(-lam_prime * self.e_d)
        p_right = -math.expm1(-lam_prime * (1.0 - self.e_d))
        p_any = -math.expm1(-lam_prime)
        return (p_wrong * (1.0 - p_right) + 0.5 * p_wrong * p_right) / p_any


@dataclass(frozen=True)
class RateModelParams:
    """Inputs of the analytic rate model."""

    rep_rate_G: float = 4.0e6
    coefficient: float = 0.952
    theta: float = 0.001
    t_e: int = 100
    eta: float = 0.1
    e_bx_model: Callable[[float], float] = field(
        default_factory=ConstantErrorModel
    )

    def __post_init__(self):
        if self.rep_rate_G <= 0:
            raise ValueError("repetition rate must be positive")
        if not 0.0 <= self.coefficient <= 1.0:
            raise ValueError("coefficient must be in [0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")


def p_single_click(lam: float, eta: float) -> float:
    """Probability that exactly one detector clicks for a Poisson pulse
    of mean lam split evenly over two detectors of efficiency eta:
    2 e^(-lam'/2) (1 - e^(-lam'/2)) with lam' = lam * eta the detected
    mean; maximum 1/2 at lam' = 2 ln 2."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    half = lam * eta / 2.0
    return 2.0 * math.exp(-half) * -math.expm1(-half)


def rate_from_single_click_prob(
    p_single: float,
    e_bx: float,
    params: RateModelParams,
    run_duration: float,
) -> float:
    """Bits per second at a given single-click probability and check
    error rate, hashing cost amortized over the run duration."""
    if run_duration <= 0:
        raise ValueError("run duration must be positive")
    arg = e_bx + params.theta
    if arg > 0.5:
        raise ValueError(
            f"entropy argument {arg} exceeds 1/2: nothing to certify"
        )
    per_bit = params.coefficient - binary_entropy(arg)
    return (
        params.rep_rate_G * p_single * per_bit - params.t_e / run_duration
    )


def rate_model(
    lam: float, params: RateModelParams, run_duration: float
) -> float:
    """Analytic generation rate (bits/second) at mean photon number lam."""
    lam_prime = lam * params.eta
    return rate_from_single_click_prob(
        p_single_click(lam, params.eta),
        params.e_bx_model(lam_prime),
        params,
        run_duration,
    )


def _assert_unimodal(values: list[float]) -> None:
    """Reject a grid whose discrete differences rise again after falling
    by more than a relative tolerance."""
    scale = max(abs(v) for v in values) or 1.0
    tol = 1e-9 * scale
    falling = False
    for a, b in zip(values, values[1:]):
        d = b - a
        if d < -tol:
            falling = True
        elif d > tol and falling:
            raise NonUnimodalError(
                "rate grid has multiple local maxima beyond tolerance"
            )


def optimize_lambda(
    params: RateModelParams,
    search_range: tuple[float, float],
    run_duration: float = 1800.0,
    grid_points: int = 81,
    tol: float = 0.02,
) -> tuple[float, float]:
    """Mean photon number maximizing the rate, to within 0.05.

    A grid pre-scan asserts unimodality, then golden-section search
    refines the bracket around the best grid point.
    """
    lo, hi = search_range
    if not 0.0 < lo < hi:
        raise ValueError("search range must be positive and ordered")

    def f(lam: float) -> float:
        return rate_model(lam, params, run_duration)

    step = (hi - lo) / (grid_points - 1)
    grid = [lo + i * step for i in range(grid_points)]
    values = [f(x) for x in grid]
    _assert_unimodal(values)
    best = max(range(grid_points), key=values.__getitem__)
    a = grid[max(0, best - 1)]
    b = grid[min(grid_points - 1, best + 1)]

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    lam_star = 0.5 * (a + b)
    return lam_star, f(lam_star)


def flatness_report(
    params: RateModelParams,
    lambda_values,
    run_duration: float = 1800.0,
) -> list[tuple[float, float]]:
    """(lambda, rate) rows for the rate-vs-mean-photon-number curve."""
    return [
        (float(lam), rate_model(float(lam), params, run_duration))
        for lam in lambda_values
    ]


def flatness_csv(rows: list[tuple[float, float]]) -> str:
    """CSV form of a flatness report: 6 significant digits per value."""
    lines = ["lambda,rate_bps"]
    for lam, rate in rows:
        lines.append(f"{lam:.6g},{rate:.6g}")
    return "\n".join(lines) + "\n"
