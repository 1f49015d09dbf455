"""Source-independent quantum random number generation toolkit.

Simulates a two-basis polarization measurement on an untrusted photon
source, estimates the certifiable randomness at finite size, extracts it
with Toeplitz hashing, finds the rate-optimal mean photon number, and
sanity-checks the output with a statistical battery.
"""

from .detector_sim import (
    DetectorParams,
    EventStream,
    MeasurementConfig,
    effective_projection_probs,
    raw_bits_from_events,
    run_simulation,
    simulate_range,
    tally,
)
from .extractor import (
    ExtractionResult,
    RawBitBlock,
    ToeplitzSpec,
    extract,
    toeplitz_fast,
    toeplitz_naive,
)
from .io_formats import RunConfig
from .optimizer import (
    RateModelParams,
    optimize_lambda,
    p_single_click,
    rate_model,
)
from .protocol_math import (
    CalibrationResult,
    MeasurementImperfection,
    ProtocolEstimate,
    RateBreakdown,
    SecurityParams,
    TallySummary,
    binary_entropy,
    epsilon_theta_bound,
    estimate_protocol,
    failure_probability,
    overlap_bound_from_calibration,
    randomness_length_final,
    randomness_length_ideal,
    randomness_length_imperfect,
    rate_breakdown,
    regularize_error_rate,
    solve_theta,
    xi_theta,
)
from .source_sim import (
    PolarizationState,
    SourceParams,
    panel_lambda,
    polarization_from_waveplates,
)
from .stat_suite import TestReport, run_battery

__version__ = "0.1.0"

__all__ = [
    "DetectorParams",
    "EventStream",
    "MeasurementConfig",
    "effective_projection_probs",
    "raw_bits_from_events",
    "run_simulation",
    "simulate_range",
    "tally",
    "ExtractionResult",
    "RawBitBlock",
    "ToeplitzSpec",
    "extract",
    "toeplitz_fast",
    "toeplitz_naive",
    "RunConfig",
    "RateModelParams",
    "optimize_lambda",
    "p_single_click",
    "rate_model",
    "CalibrationResult",
    "MeasurementImperfection",
    "ProtocolEstimate",
    "RateBreakdown",
    "SecurityParams",
    "TallySummary",
    "binary_entropy",
    "epsilon_theta_bound",
    "estimate_protocol",
    "failure_probability",
    "overlap_bound_from_calibration",
    "randomness_length_final",
    "randomness_length_ideal",
    "randomness_length_imperfect",
    "rate_breakdown",
    "regularize_error_rate",
    "solve_theta",
    "xi_theta",
    "PolarizationState",
    "SourceParams",
    "panel_lambda",
    "polarization_from_waveplates",
    "TestReport",
    "run_battery",
]
