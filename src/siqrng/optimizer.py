"""Generation-rate model and the mean-photon-number operating point.

The model reads detection from the simulator's own law: at mean photon
number lam, a pulse of the configured source lands in the generation
basis and clicks exactly one detector with probability
(1 - prob_X) (t3 - t1) of source_sim.outcome_law, and the expected n_z
of a run goes through protocol_math.rate_breakdown, efficiency rescale
and hashing cost included, at a constant check-basis error floor.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import NonUnimodalError
from .protocol_math import MeasurementImperfection, rate_breakdown
from .source_sim import (
    BASIS_Z,
    DetectorParams,
    MeasurementConfig,
    SourceParams,
    effective_projection_probs,
    outcome_law,
    polarization_from_waveplates,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class RateModelParams(
    namedtuple(
        "RateModelParams", "source detector measurement coefficient theta t_e e_bx",
        defaults=(
            SourceParams(), DetectorParams(), MeasurementConfig(),
            0.952, 0.001, 100, 0.0033,
        ),
    )
):
    """Inputs of the rate model: the simulated source (its mean photon
    number is replaced by the one evaluated), detectors and basis
    settings, the calibrated coefficient, the security parameters, and
    e_bx, the check-basis error floor (the paper's measured misalignment).
    """

    __slots__ = ()


def rate_model(lam: float, params: RateModelParams, run_duration: float) -> float:
    """Generation rate (bits/second) at mean photon number lam: the
    certified length R_final of a run of run_duration seconds with its
    expected n_z, per second."""
    if run_duration <= 0:
        raise ValueError("run duration must be positive")
    arg = params.e_bx + params.theta
    if arg > 0.5:
        raise ValueError(f"entropy argument {arg} exceeds 1/2: nothing to certify")
    det, config = params.detector, params.measurement
    # through the class, not _replace, which would skip the lambda >= 0 check
    source = SourceParams(lam, *params.source[1:])
    state = polarization_from_waveplates(source.hwp_angle, source.qwp_angle)
    probs = effective_projection_probs(state, BASIS_Z, config)
    t1, _, t3 = outcome_law(source, det, probs)
    n_z = source.pulse_rate_G * run_duration * (1.0 - config.prob_X) * (t3 - t1)
    imperfection = MeasurementImperfection(params.coefficient, det.eta0, det.eta1)
    rates = rate_breakdown(n_z, params.e_bx, params.theta, params.t_e, imperfection)
    return rates.R_final / run_duration


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
        # a tie keeps the lower part: the rate's only plateau is its
        # large-lambda underflow
        if fc >= fd:
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
