"""Closed-form protocol quantities against independent oracles.

High-precision references come from 50-digit mpmath evaluations of the
defining formulas; the sampling bound is checked against exhaustive
partition enumeration on small instances.
"""
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from siqrng import protocol_math as pm
from siqrng.errors import CalibrationError, EstimationAbort, UnreachableTargetError

mpmath.mp.dps = 50


def mp_entropy(x):
    x = mpmath.mpf(x)
    if x == 0 or x == 1:
        return mpmath.mpf(0)
    return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def mp_xi(e, th, q):
    e, th, q = mpmath.mpf(e), mpmath.mpf(th), mpmath.mpf(q)
    return mp_entropy(e + th - q * th) - q * mp_entropy(e) - (1 - q) * mp_entropy(e + th)


# ---------------------------------------------------------------------------
# binary entropy


def test_entropy_extremes():
    assert pm.binary_entropy(0.5) == 1.0
    assert pm.binary_entropy(0.0) == 0.0
    assert pm.binary_entropy(1.0) == 0.0


def test_entropy_reference_point():
    # 50-digit evaluation of the defining formula at 0.0043
    assert pm.binary_entropy(0.0043) == pytest.approx(
        0.039994456588411956595, abs=1e-15
    )


def test_entropy_matches_high_precision_grid():
    xs = [k / 10001.0 for k in range(1, 10001)]
    worst = 0.0
    for x in xs:
        ref = float(mp_entropy(x))
        worst = max(worst, abs(pm.binary_entropy(x) - ref))
    assert worst <= 1e-12


@given(st_.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_symmetry_and_range(x):
    h = pm.binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(pm.binary_entropy(1.0 - x), abs=1e-12)


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-9])
def test_entropy_domain_error(bad):
    with pytest.raises(ValueError):
        pm.binary_entropy(bad)


# ---------------------------------------------------------------------------
# xi(theta)


def test_xi_zero_theta_cancels_exactly():
    assert pm.xi_theta(0.0033, 0.0, 0.004) == 0.0


def test_xi_reference_points():
    # arbitrary-precision evaluations of the same formula
    v = pm.xi_theta(0.0033, 0.001, 0.004)
    assert v > 0.0
    assert v == pytest.approx(7.3028815037898789562e-7, rel=1e-9)
    v2 = pm.xi_theta(0.25, 0.1, 0.5)
    ref = float(mp_xi("0.25", "0.1", "0.5"))
    # dual implementation agreement to 12 significant digits
    assert v2 == pytest.approx(ref, rel=1e-12)


def test_xi_domain_error():
    with pytest.raises(ValueError):
        pm.xi_theta(0.95, 0.1, 0.5)


@given(
    st_.floats(min_value=0.001, max_value=0.6),
    st_.floats(min_value=0.0, max_value=0.3),
    st_.floats(min_value=0.0, max_value=1.0),
)
def test_xi_nonnegative(e, theta, q):
    if e + theta > 1.0:
        theta = 1.0 - e
    assert pm.xi_theta(e, theta, q) >= -1e-15


# ---------------------------------------------------------------------------
# sampling bound


def test_bound_theta_zero_is_prefactor():
    n, q, e = 10_000, 0.1, 0.05
    b = pm.epsilon_theta_bound(n, q, e, 0.0)
    pref = 1.0 / math.sqrt(q * (1 - q) * e * (1 - e) * n)
    assert 2.0 ** b.log2_raw == pytest.approx(pref, rel=1e-12)
    assert b.clamped == pytest.approx(min(1.0, pref), rel=1e-12)


def test_bound_large_run_reference():
    b = pm.epsilon_theta_bound(900_000_000, 0.004, 0.0033, 0.001)
    assert b.log2_raw == pytest.approx(-664.02218338941898638, abs=1e-5)
    assert b.log2_raw <= -100.0
    assert b.clamped < 2.0 ** -100


def test_bound_singular_inputs_rejected():
    with pytest.raises(ValueError):
        pm.epsilon_theta_bound(100, 0.5, 0.0, 0.01)
    with pytest.raises(ValueError):
        pm.epsilon_theta_bound(100, 0.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        pm.epsilon_theta_bound(0, 0.5, 0.1, 0.01)


def test_bound_monotone_in_theta_and_n():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(100, 10**6))
        q = float(rng.uniform(0.01, 0.99))
        e = float(rng.uniform(0.01, 0.5))
        thetas = np.sort(rng.uniform(0.0, min(0.4, 1.0 - e), 4))
        vals = [pm.epsilon_theta_bound(n, q, e, float(t)).log2_raw for t in thetas]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        # larger n cannot weaken the bound once theta > 0
        t = float(thetas[-1]) or 0.01
        b1 = pm.epsilon_theta_bound(n, q, e, t).log2_raw
        b2 = pm.epsilon_theta_bound(4 * n, q, e, t).log2_raw
        assert b2 <= b1 + 1e-9


def enumerate_equal_split_probability(n, error_positions, theta):
    """Exhaustive oracle: Prob(e_pZ > e_bX + theta) over every equal
    split of n positions into check and generation halves."""
    half = n // 2
    err = np.zeros(n, dtype=bool)
    err[list(error_positions)] = True
    exceed = 0
    total = 0
    for combo in itertools.combinations(range(n), half):
        j = int(err[list(combo)].sum())  # errors landing in the check half
        k = int(err.sum())
        e_bx = j / half
        e_pz = (k - j) / half
        total += 1
        if e_pz > e_bx + theta:
            exceed += 1
    return exceed / total


@pytest.mark.parametrize(
    "n,k,theta",
    [
        (12, 3, 0.125),
        (12, 2, 0.25),
        (14, 4, 0.0625),
        (16, 4, 0.125),
        (16, 6, 0.1875),
    ],
)
def test_bound_dominates_exhaustive_enumeration(n, k, theta):
    rng = np.random.default_rng(n * 100 + k)
    positions = rng.choice(n, size=k, replace=False)
    empirical = enumerate_equal_split_probability(n, positions, theta)
    bound = pm.epsilon_theta_bound(n, 0.5, k / n, theta)
    assert empirical <= bound.clamped + 1e-12


# ---------------------------------------------------------------------------
# solve_theta


def test_solve_theta_inverse_consistency():
    n, q, e = 3_591_273_360, 0.004, 0.0033
    # at this scale the bound at theta = 0.001 underflows a float
    # (log2 ~ -2600); at 0.0005 it is ~2^-650 and still representable
    target = pm.epsilon_theta_bound(n, q, e, 0.0005).clamped
    assert target > 0.0
    theta = pm.solve_theta(n, q, e, target)
    assert theta <= 0.0005 + 1e-12

    n_small = 900_000
    target_lin = pm.epsilon_theta_bound(n_small, q, e, 0.001).clamped
    theta2 = pm.solve_theta(n_small, q, e, target_lin)
    assert theta2 <= 0.001 + 1e-12


def test_solve_theta_trivial_target():
    assert pm.solve_theta(10**6, 0.1, 0.05, 1.0) == 0.0


def test_solve_theta_unreachable():
    with pytest.raises(UnreachableTargetError):
        pm.solve_theta(40, 0.5, 0.5, 1e-300)


def test_solve_theta_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1000, 10**7))
        q = float(rng.uniform(0.002, 0.6))
        e = float(rng.uniform(0.001, 0.4))
        target = 10.0 ** float(rng.uniform(-30, -1))
        try:
            theta = pm.solve_theta(n, q, e, target)
        except UnreachableTargetError:
            continue
        back = pm.epsilon_theta_bound(n, q, e, theta)
        assert back.clamped <= target * (1 + 1e-9)


# ---------------------------------------------------------------------------
# randomness lengths


def imperfection(coefficient=0.952, eta0=0.1, eta1=0.1):
    return pm.MeasurementImperfection(coefficient, eta0, eta1)


#: Per-bit randomness -2 log2(c) of a basis pair with max overlap 0.72.
COEFF_072 = -2.0 * math.log2(0.72)


def test_length_ideal_trivials():
    assert pm.rate_breakdown(1000, 0.0, 0.0, 100, imperfection()).R0 == 900.0
    assert pm.rate_breakdown(100, 0.5, 0.0, 0, imperfection()).R0 == 0.0


def test_length_ideal_reference():
    r0 = pm.rate_breakdown(3_577_000_000, 0.0033, 0.001, 100, imperfection()).R0
    ref = 3_577_000_000 * (1.0 - float(mp_entropy("0.0043"))) - 100
    assert r0 == pytest.approx(ref, rel=1e-12)
    assert r0 == pytest.approx(3.434e9, rel=1e-3)


def test_length_imperfect_matches_ideal_at_complementary_bases():
    rb = pm.rate_breakdown(10**6, 0.01, 0.001, 100, imperfection(1.0))
    assert rb.R1 == pytest.approx(rb.R0, rel=1e-12)


def test_length_imperfect_reference_run():
    r1 = pm.rate_breakdown(3_577_108_266, 0.0033, 0.001, 100, imperfection()).R1
    assert r1 == pytest.approx(3.26e9, rel=5e-3)
    assert r1 == pytest.approx(3262342467.975, rel=1e-9)


def test_length_imperfect_identical_bases_certify_nothing():
    r1 = pm.rate_breakdown(10**6, 0.01, 0.001, 100, imperfection(0.0)).R1
    assert r1 <= 0.0


def test_length_imperfect_overlap_domain():
    # the coefficient -2 log2(c) of an overlap outside [1/sqrt(2), 1]
    for bad in (-0.1, 1.2, math.nan):
        with pytest.raises(ValueError):
            imperfection(bad)


def test_length_final_rescale():
    args = (10**6, 0.002, 0.001, 100)
    equal = pm.rate_breakdown(*args, imperfection(COEFF_072, 0.1, 0.1))
    assert equal.R_final == pytest.approx(equal.R1, rel=1e-12)
    r1 = equal.R1
    mismatched = pm.rate_breakdown(*args, imperfection(COEFF_072, 0.1, 0.2))
    assert mismatched.R_final == pytest.approx(r1 * (2.0 / 3.0), rel=1e-12)
    tiny = pm.rate_breakdown(*args, imperfection(COEFF_072, 0.1, 1e-12))
    assert abs(tiny.R_final) < r1 * 1e-10
    with pytest.raises(ValueError):
        imperfection(COEFF_072, 0.0, 0.1)


def test_lengths_saturate_beyond_half():
    # past an entropy argument of 1/2, nothing is certified
    assert pm.rate_breakdown(10**6, 0.7, 0.0, 0, imperfection()).R0 <= 0.0
    assert pm.rate_breakdown(10**6, 0.99, 0.0, 10, imperfection()).R0 <= 0.0


def test_lengths_reject_entropy_argument_outside_unit_interval():
    with pytest.raises(ValueError):
        pm.rate_breakdown(100, 0.95, 0.1, 0, imperfection())


@given(
    st_.integers(min_value=1, max_value=10**9),
    st_.floats(min_value=0.0, max_value=0.45),
    st_.floats(min_value=0.0, max_value=0.05),
    st_.integers(min_value=0, max_value=1000),
    st_.floats(min_value=0.0, max_value=1.0),
    st_.floats(min_value=0.01, max_value=1.0),
    st_.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=200)
def test_length_ordering(n_z, e, theta, t_e, coeff, eta0, eta1):
    rb = pm.rate_breakdown(n_z, e, theta, t_e, imperfection(coeff, eta0, eta1))
    assert rb.R1 <= rb.R0 + 1e-6
    if rb.R1 >= 0.0:
        assert rb.R_final <= rb.R1 + 1e-6
    rescale = 2.0 * min(eta0, eta1) / (eta0 + eta1)
    assert rb.R_final == pytest.approx(rescale * rb.R1, rel=1e-12)


def test_lengths_decrease_in_error_rate():
    es = np.linspace(0.0, 0.45, 40)
    imp = imperfection(COEFF_072, 0.1, 0.2)
    for field in ("R0", "R1", "R_final"):
        vals = [
            getattr(pm.rate_breakdown(10**6, float(e), 0.01, 100, imp), field)
            for e in es
        ]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# failure probability


def test_failure_probability_extremes():
    assert pm.failure_probability(0.0, 100000) == pytest.approx(0.0, abs=1e-300)
    assert pm.failure_probability(1.0, 100000) == pytest.approx(1.0, rel=1e-12)


def test_failure_probability_reference():
    # sqrt(2^-99 (2 - 2^-99)) evaluated at 50 digits
    assert pm.failure_probability(2.0 ** -100, 100) == pytest.approx(
        1.7763568394002504647e-15, rel=1e-12
    )


def test_failure_probability_log_domain_survives_underflow():
    v = pm.failure_probability(0.0, 2000)
    assert 0.0 < v < 1e-300


@given(
    st_.floats(min_value=0.0, max_value=1.0),
    st_.integers(min_value=0, max_value=500),
)
def test_failure_probability_in_unit_interval(eps, t_e):
    assert 0.0 <= pm.failure_probability(eps, t_e) <= 1.0


@given(
    st_.floats(min_value=0.0, max_value=1.0),
    st_.floats(min_value=0.0, max_value=1.0),
    st_.integers(min_value=0, max_value=1200),
    st_.integers(min_value=0, max_value=1200),
)
@settings(max_examples=500)
def test_failure_probability_monotone(eps_a, eps_b, t_a, t_b):
    # non-decreasing in eps_theta, non-increasing in t_e (up to round-off
    # of the log2 evaluation), and exactly 1 once s = eps_theta + 2^-t_e
    # reaches 1
    eps_lo, eps_hi = sorted((eps_a, eps_b))
    t_lo, t_hi = sorted((t_a, t_b))
    f = pm.failure_probability
    assert f(eps_lo, t_a) <= f(eps_hi, t_a) * (1 + 1e-12)
    assert f(eps_a, t_hi) <= f(eps_a, t_lo) * (1 + 1e-12)
    for eps, t_e in ((eps_a, t_a), (eps_b, t_b)):
        if Fraction(eps) + Fraction(1, 2**t_e) >= 1:
            assert f(eps, t_e) == 1.0


def test_failure_probability_does_not_fall_past_one():
    assert pm.failure_probability(1.0, 0) == 1.0
    assert pm.failure_probability(0.99, 0) == 1.0
    assert pm.failure_probability(0.9, 1) == 1.0
    assert pm.failure_probability(0.5, 1) == 1.0


# ---------------------------------------------------------------------------
# calibration


def test_calibration_balanced_counts():
    r = pm.overlap_bound_from_calibration(50, 50)
    assert r.overlap_c == pytest.approx(pm.MIN_OVERLAP, rel=1e-12)
    assert r.coefficient == pytest.approx(1.0, rel=1e-12)


def test_calibration_one_sided_counts():
    r = pm.overlap_bound_from_calibration(100, 0)
    assert r.overlap_c == 1.0
    assert r.coefficient == 0.0


def test_calibration_reference_coefficient():
    # counts in the ratio 2^-0.952 : 1 - 2^-0.952
    p = 2.0 ** -0.952
    r = pm.overlap_bound_from_calibration(
        round(p * 10**9), round((1 - p) * 10**9)
    )
    assert r.coefficient == pytest.approx(0.952, abs=1e-8)


def test_calibration_gate():
    ok = pm.overlap_bound_from_calibration(60, 40, z_counts=(100_000, 50))
    assert 0.0 <= ok.coefficient <= 1.0
    with pytest.raises(CalibrationError):
        pm.overlap_bound_from_calibration(60, 40, z_counts=(999, 1))
    with pytest.raises(CalibrationError):
        pm.overlap_bound_from_calibration(0, 0)
    with pytest.raises(CalibrationError):
        pm.overlap_bound_from_calibration(60, -10, z_counts=(100_000, 50))
    with pytest.raises(CalibrationError):
        pm.overlap_bound_from_calibration(60, 40, z_counts=(100_000, -50))


def test_z_gate_ratio():
    assert pm.z_gate_ratio_db(1000, 1) == pytest.approx(30.0, rel=1e-12)
    assert pm.z_gate_ratio_db(10, 0) == math.inf


# ---------------------------------------------------------------------------
# domain types


def test_security_params_consistency_enforced():
    # epsilon_total is derived, so it cannot disagree with its inputs
    sp = pm.SecurityParams(theta=0.001, t_e=100, epsilon_theta=1e-10)
    assert sp.epsilon_total == pytest.approx(
        pm.failure_probability(1e-10, 100), rel=1e-12
    )
    with pytest.raises(ValueError):
        pm.SecurityParams(theta=0.001, t_e=100, epsilon_theta=1.5)
    with pytest.raises(ValueError):
        pm.SecurityParams(theta=0.001, t_e=-1, epsilon_theta=1e-10)


def test_tally_summary_invariants():
    t = pm.TallySummary(
        N_total=100, N_X=10, N_Z=90, n_x=8, n_z=80,
        x_wrong_singles=1, x_doubles=2, z_doubles_discarded=3, e_bx=0.25,
    )
    assert pm.check_sample(t) == (88, pytest.approx(8 / 88), 0.25)
    with pytest.raises(ValueError):
        pm.TallySummary(
            N_total=100, N_X=10, N_Z=90, n_x=8, n_z=80,
            x_wrong_singles=1, x_doubles=2, z_doubles_discarded=3, e_bx=0.9,
        )
    with pytest.raises(ValueError):
        pm.TallySummary(
            N_total=100, N_X=20, N_Z=90, n_x=8, n_z=80,
            x_wrong_singles=1, x_doubles=2, z_doubles_discarded=3, e_bx=0.25,
        )


def test_rate_breakdown_and_estimate():
    imp = imperfection()
    assert imp.coefficient == 0.952
    rb = pm.rate_breakdown(10**6, 0.003, 0.001, 100, imp)
    assert rb.certifiable
    assert rb.R_final <= rb.R1 <= rb.R0
    assert rb.whole_bits == math.floor(rb.R_final)

    t = pm.TallySummary(
        N_total=2_000_000, N_X=8000, N_Z=1_992_000, n_x=4000, n_z=996_000,
        x_wrong_singles=12, x_doubles=2, z_doubles_discarded=1000,
        e_bx=13.0 / 4000,
    )
    est = pm.estimate_protocol(t, 0.001, 100, imp)
    assert est.rates.certifiable
    assert est.security.epsilon_theta <= 1.0
    assert est.q_x == pytest.approx(4000 / (4000 + 996_000))
    assert est.warnings == ()


def test_estimate_flags_basis_dependent_loss():
    imp = imperfection()
    # check-basis pulses detected far more often than generation-basis ones
    t = pm.TallySummary(
        N_total=2_000_000, N_X=8000, N_Z=1_992_000, n_x=7900, n_z=500_000,
        x_wrong_singles=20, x_doubles=0, z_doubles_discarded=0,
        e_bx=20.0 / 7900,
    )
    est = pm.estimate_protocol(t, 0.001, 100, imp)
    assert est.warnings


def test_estimate_check_ratio_counts_discarded_doubles():
    # a quarter of the pulses click in each basis; a third of the Z clicks
    # are discarded doubles, which the check sample keeps, so n_x / n sits
    # 50 % above N_X / N_total while the bases are detected alike
    t = pm.TallySummary(
        N_total=1_000_000, N_X=4000, N_Z=996_000, n_x=1000, n_z=166_000,
        x_wrong_singles=0, x_doubles=330, z_doubles_discarded=83_000,
        e_bx=165.0 / 1000,
    )
    est = pm.estimate_protocol(t, 0.001, 100, imperfection())
    assert est.q_x == pytest.approx(1.5 * t.N_X / t.N_total, rel=0.01)
    assert est.warnings == ()


def test_estimate_empty_check_sample_aborts():
    imp = imperfection()
    t = pm.TallySummary(
        N_total=100, N_X=10, N_Z=90, n_x=0, n_z=50,
        x_wrong_singles=0, x_doubles=0, z_doubles_discarded=0, e_bx=0.0,
    )
    with pytest.raises(EstimationAbort):
        pm.estimate_protocol(t, 0.001, 100, imp)
    with pytest.raises(EstimationAbort):
        pm.check_sample(t)


def test_regularize_error_rate():
    assert pm.regularize_error_rate(0.0, 1000) == pytest.approx(5e-4)
    assert pm.regularize_error_rate(1.0, 1000) == pytest.approx(1 - 5e-4)
    assert pm.regularize_error_rate(0.3, 1000) == 0.3
    with pytest.raises(ValueError):
        pm.regularize_error_rate(0.1, 0)
