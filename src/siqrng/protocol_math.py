"""Closed-form quantities of the source-independent randomness protocol.

Everything here is a pure function of its arguments: binary entropy, the
finite-size sampling bound on the phase error rate, the certified
randomness lengths, the overall failure probability, and the
overlap-bound calibration.

Probability bounds that can underflow a float at realistic sample sizes
(2^(-n xi) with n ~ 1e9) are computed and carried in the log2 domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CalibrationError, EstimationAbort, UnreachableTargetError

_LN2 = math.log(2.0)

#: Smallest admissible max-overlap between two qubit measurement bases.
MIN_OVERLAP = 1.0 / math.sqrt(2.0)

#: Grid resolution used when inverting the sampling bound for theta.
THETA_GRID_STEP = 1e-6


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0.

    Raises ValueError outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    # log1p keeps the (1-x) term accurate near x = 0.
    return -x * math.log2(x) - (1.0 - x) * math.log1p(-x) / _LN2


def xi_theta(e_bx: float, theta: float, q_x: float) -> float:
    """Sampling exponent xi(theta) of the phase-error deviation bound.

    xi(theta) = H(e + theta - q*theta) - q*H(e) - (1-q)*H(e + theta),
    which is >= 0 by concavity of H and exactly 0 at theta = 0.
    """
    for name, v in (("e_bx", e_bx), ("theta", theta), ("q_x", q_x)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    if e_bx + theta > 1.0:
        raise ValueError(f"e_bx + theta must not exceed 1, got {e_bx + theta}")
    if theta == 0.0:
        return 0.0
    return (
        binary_entropy(e_bx + theta - q_x * theta)
        - q_x * binary_entropy(e_bx)
        - (1.0 - q_x) * binary_entropy(e_bx + theta)
    )


@dataclass(frozen=True)
class EpsilonThetaBound:
    """Sampling-bound value kept in log2 form next to its [0, 1] clamp.

    ``log2_raw`` is exact even when the linear value underflows;
    ``clamped`` is min(2**log2_raw, 1) and is what estimation consumes.
    """

    log2_raw: float
    clamped: float


def regularize_error_rate(e_bx: float, n_x: int) -> float:
    """Half-count regularization for the singular prefactor of the bound.

    An observed rate of exactly 0 (or 1) cannot certify a zero (or full)
    phase error rate at finite size, so the rate is pulled inside
    [1/(2 n_x), 1 - 1/(2 n_x)] before the bound is evaluated.
    """
    if n_x <= 0:
        raise ValueError(f"n_x must be positive, got {n_x}")
    half = 0.5 / n_x
    return min(max(e_bx, half), 1.0 - half)


def epsilon_theta_bound(
    n: int, q_x: float, e_bx: float, theta: float
) -> EpsilonThetaBound:
    """Upper bound on Prob(e_pZ > e_bX + theta) from the check sample.

    The bound is prefactor * 2^(-n xi(theta)) with
    prefactor = 1 / sqrt(q_x (1-q_x) e_bx (1-e_bx) n); it is evaluated in
    the log2 domain and clamped to 1 where the prefactor alone exceeds 1.

    The prefactor is singular at e_bx in {0, 1} and q_x in {0, 1}; the
    caller regularizes the observed rate first (`regularize_error_rate`).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < q_x < 1.0:
        raise ValueError(f"q_x must be in (0, 1), got {q_x}")
    if not 0.0 < e_bx < 1.0:
        raise ValueError(
            f"e_bx must be in (0, 1), got {e_bx}; regularize the tally first"
        )
    xi = xi_theta(e_bx, theta, q_x)
    log2_pref = -0.5 * math.log2(q_x * (1.0 - q_x) * e_bx * (1.0 - e_bx) * n)
    log2_raw = log2_pref - n * xi
    clamped = 1.0 if log2_raw >= 0.0 else 2.0 ** log2_raw
    return EpsilonThetaBound(log2_raw=log2_raw, clamped=clamped)


def solve_theta(n: int, q_x: float, e_bx: float, target_epsilon: float) -> float:
    """Smallest theta on the 1e-6 grid whose clamped bound is <= target.

    The bound is non-increasing in theta, so grid bisection is exact.
    Raises UnreachableTargetError when even the maximal theta fails.
    """
    if not 0.0 < target_epsilon <= 1.0:
        raise ValueError(
            f"target_epsilon must be in (0, 1], got {target_epsilon}"
        )
    target_log2 = math.log2(target_epsilon)
    # Largest grid index keeping e_bx + theta <= 1.
    hi = int(math.floor((1.0 - e_bx) / THETA_GRID_STEP))

    def ok(k: int) -> bool:
        b = epsilon_theta_bound(n, q_x, e_bx, k * THETA_GRID_STEP)
        return min(b.log2_raw, 0.0) <= target_log2

    if ok(0):
        return 0.0
    if not ok(hi):
        raise UnreachableTargetError(
            f"no theta <= {hi * THETA_GRID_STEP} reaches log2 bound "
            f"{target_log2}"
        )
    lo = 0  # ok(lo) is False, ok(hi) is True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi * THETA_GRID_STEP


def failure_probability(epsilon_theta: float, t_e: int) -> float:
    """Total failure probability (trace distance):
    sqrt((eps_theta + 2^-t_e) (2 - eps_theta - 2^-t_e)), and 1 once
    s = eps_theta + 2^-t_e reaches 1, where the root would fall again.

    Evaluated via log2 so that tiny inputs do not underflow the root.
    """
    if not 0.0 <= epsilon_theta <= 1.0:
        raise ValueError(
            f"epsilon_theta must be in [0, 1], got {epsilon_theta}"
        )
    if t_e < 0:
        raise ValueError(f"t_e must be non-negative, got {t_e}")
    if epsilon_theta + 2.0 ** -t_e >= 1.0:
        return 1.0
    # s = eps_theta + 2^-t_e, accumulated in log2 to survive large t_e.
    log2_pow = -float(t_e)
    if epsilon_theta == 0.0:
        log2_s = log2_pow
    else:
        a = math.log2(epsilon_theta)
        lo, hi_ = min(a, log2_pow), max(a, log2_pow)
        log2_s = hi_ + math.log2(1.0 + 2.0 ** (lo - hi_))
    s = 2.0 ** log2_s if log2_s > -1000 else 0.0
    log2_eps = 0.5 * (log2_s + math.log2(2.0 - s))
    return min(1.0, 2.0 ** log2_eps)


@dataclass(frozen=True)
class SecurityParams:
    """Finite-size security inputs and the resulting failure probability.

    theta is the allowed deviation of the phase error rate above the
    observed check-sample rate; t_e the hashing-failure exponent;
    epsilon_theta the estimation failure bound.
    """

    theta: float
    t_e: int
    epsilon_theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {self.theta}")
        if self.t_e < 0:
            raise ValueError(f"t_e must be >= 0, got {self.t_e}")
        if not 0.0 <= self.epsilon_theta <= 1.0:
            raise ValueError("epsilon_theta must be in [0, 1]")

    @property
    def epsilon_total(self) -> float:
        """Composed trace-distance failure of the whole run."""
        return failure_probability(self.epsilon_theta, self.t_e)


@dataclass(frozen=True)
class TallySummary:
    """Finite-size counts of one run, after the discard policy.

    n_x / n_z are detected events per basis (check doubles kept with half
    weight, generation-basis doubles discarded); e_bx is the check-sample
    bit error rate.
    """

    N_total: int
    N_X: int
    N_Z: int
    n_x: int
    n_z: int
    x_wrong_singles: int
    x_doubles: int
    z_doubles_discarded: int
    e_bx: float

    def __post_init__(self):
        if self.N_X + self.N_Z != self.N_total:
            raise ValueError("basis assignments must partition the run")
        if self.n_x > self.N_X or self.n_z > self.N_Z:
            raise ValueError("detected counts cannot exceed assigned counts")
        if self.n_x > 0:
            expected = (self.x_wrong_singles + 0.5 * self.x_doubles) / self.n_x
            if not math.isclose(self.e_bx, expected, rel_tol=1e-12, abs_tol=1e-15):
                raise ValueError(
                    f"e_bx {self.e_bx} inconsistent with counts ({expected})"
                )
        if not 0.0 <= self.e_bx <= 1.0:
            raise ValueError(f"e_bx must be in [0, 1], got {self.e_bx}")


def check_sample(tally: TallySummary) -> tuple[int, float, float]:
    """Sampling-bound inputs of a tally: the detected count n = n_x + n_z,
    the check ratio q_x = n_x / n and the regularized check error rate.

    Raises EstimationAbort when the check sample is empty.
    """
    if tally.n_x == 0:
        raise EstimationAbort("empty check sample: cannot estimate")
    n = tally.n_x + tally.n_z
    return n, tally.n_x / n, regularize_error_rate(tally.e_bx, tally.n_x)


@dataclass(frozen=True)
class MeasurementImperfection:
    """Calibrated measurement-device imperfections: the per-bit randomness
    coefficient -2 log2(c) of the basis pair and the detector efficiencies."""

    coefficient: float
    eta0: float
    eta1: float

    def __post_init__(self):
        if not 0.0 <= self.coefficient <= 1.0:
            raise ValueError(
                f"coefficient must be in [0, 1], got {self.coefficient}"
            )
        if not 0.0 < self.eta0 <= 1.0 or not 0.0 < self.eta1 <= 1.0:
            raise ValueError("efficiencies must be in (0, 1]")


@dataclass(frozen=True)
class RateBreakdown:
    """Certified randomness lengths with their per-term contributions.

    Lengths are real-valued; flooring to whole bits happens only at
    extraction time.
    """

    R0: float
    R1: float
    R_final: float
    rescale_factor: float
    entropy_cost: float
    coefficient: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.R0, self.R1, self.R_final))):
            raise ValueError("lengths must be finite")
        if not 0.0 < self.rescale_factor <= 1.0 + 1e-12:
            raise ValueError("rescale_factor must be in (0, 1]")
        if self.R1 > self.R0 + 1e-6:
            raise ValueError("R1 cannot exceed R0")
        if self.R1 >= 0.0 and self.R_final > self.R1 + 1e-6:
            raise ValueError("R_final cannot exceed a non-negative R1")

    @property
    def certifiable(self) -> bool:
        return self.R_final > 0.0

    @property
    def whole_bits(self) -> int:
        """Extractable bit count: floor of the final length, never rounded up."""
        return max(0, math.floor(self.R_final))


def rate_breakdown(
    n_z: int,
    e_bx: float,
    theta: float,
    t_e: int,
    imperfection: MeasurementImperfection,
) -> RateBreakdown:
    """Certified lengths of one set of tallies.

    R0 = n_z - n_z H(e_bx + theta) - t_e for perfect measurements;
    R1 = n_z (-2 log2 c) - n_z H(e_bx + theta) - t_e with the calibrated
    coefficient -2 log2 c; R_final = R1 * 2 min(eta0, eta1) / (eta0 + eta1),
    the detector-efficiency mismatch rescale. Lengths may be negative; a
    non-positive R_final means abort and extract nothing.
    """
    arg = e_bx + theta
    if arg < 0.0 or arg > 1.0:
        raise ValueError(f"e_bx + theta must be in [0, 1], got {arg}")
    # Beyond an argument of 1/2 no randomness is certifiable; the cost is
    # held at its maximum so the lengths stay non-positive there instead
    # of spuriously recovering.
    cost = n_z * (1.0 if arg >= 0.5 else binary_entropy(arg))
    coeff = imperfection.coefficient
    r1 = n_z * coeff - cost - t_e
    eta0, eta1 = imperfection.eta0, imperfection.eta1
    rescale = 2.0 * min(eta0, eta1) / (eta0 + eta1)
    return RateBreakdown(
        R0=n_z - cost - t_e,
        R1=r1,
        R_final=rescale * r1,
        rescale_factor=rescale,
        entropy_cost=cost,
        coefficient=coeff,
    )


@dataclass(frozen=True)
class ProtocolEstimate:
    """Joint result of finite-size estimation on one tally."""

    rates: RateBreakdown
    security: SecurityParams
    q_x: float
    warnings: tuple[str, ...] = ()


def estimate_protocol(
    tally: TallySummary,
    theta: float,
    t_e: int,
    imperfection: MeasurementImperfection,
) -> ProtocolEstimate:
    """Finite-size estimation: sampling bound at the regularized check
    rate, certified lengths at the observed rate, composed failure
    probability.

    Flags the run when the check basis's detected fraction n_x / N_X
    drifts more than 10% from the generation basis's, counted with its
    discarded doubles (loss is then suspiciously basis-dependent).
    """
    n, q_x, e_reg = check_sample(tally)
    bound = epsilon_theta_bound(n, q_x, e_reg, theta)
    security = SecurityParams(theta, t_e, bound.clamped)
    rates = rate_breakdown(tally.n_z, tally.e_bx, theta, t_e, imperfection)
    warnings = []
    if tally.N_Z > 0:
        check = tally.n_x / tally.N_X
        generation = (tally.n_z + tally.z_doubles_discarded) / tally.N_Z
        if abs(check - generation) > 0.1 * generation:
            warnings.append(
                f"detected check ratio {check:.6g} deviates >10% from the "
                f"generation-basis detected ratio {generation:.6g}"
            )
    return ProtocolEstimate(
        rates=rates, security=security, q_x=q_x, warnings=tuple(warnings)
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Overlap bound deduced from a calibration count pair, with the
    generation-basis extinction ratio when one was gated on."""

    overlap_c: float
    coefficient: float
    p_max: float
    z_gate_db: float | None = None


def z_gate_ratio_db(counts_d0: int, counts_d1: int) -> float:
    """Extinction ratio of the generation-basis calibration, in dB."""
    lo = min(counts_d0, counts_d1)
    hi = max(counts_d0, counts_d1)
    if hi <= 0:
        raise CalibrationError("no calibration counts recorded")
    if lo == 0:
        return math.inf
    return 10.0 * math.log10(hi / lo)


#: Minimum generation-basis extinction ratio for a valid calibration.
Z_GATE_MIN_DB = 30.0


def overlap_bound_from_calibration(
    counts_d0: int,
    counts_d1: int,
    z_counts: tuple[int, int] | None = None,
) -> CalibrationResult:
    """Overlap bound from the check-basis count split of a
    generation-basis eigenstate.

    The count fraction of the majority detector estimates the squared
    overlap; the result is clamped into [1/sqrt(2), 1]. When ``z_counts``
    is given, the generation-basis extinction must reach 30 dB, otherwise
    the input was not a valid eigenstate and calibration is rejected.
    This is a plug-in point estimate; no confidence interval is attached.
    """
    counts = (counts_d0, counts_d1, *(z_counts or ()))
    if min(counts) < 0:
        raise CalibrationError(f"calibration counts must be >= 0, got {counts}")
    ratio = None
    if z_counts is not None:
        ratio = z_gate_ratio_db(*z_counts)
        if ratio < Z_GATE_MIN_DB:
            raise CalibrationError(
                f"eigenstate gate not met: {ratio:.2f} dB < {Z_GATE_MIN_DB} dB"
            )
    total = counts_d0 + counts_d1
    if total <= 0:
        raise CalibrationError("calibration requires a positive total count")
    p = max(counts_d0, counts_d1) / total
    c = min(1.0, max(MIN_OVERLAP, math.sqrt(p)))
    return CalibrationResult(
        overlap_c=c,
        coefficient=min(1.0, max(0.0, -2.0 * math.log2(c))),
        p_max=p,
        z_gate_db=ratio,
    )
