"""Source model: waveplate chain against an independent matrix oracle,
click statistics of laser and sunlight pulses against closed forms."""
import cmath
import math

import numpy as np
import pytest
from scipy import stats

from siqrng import detector_sim as ds
from siqrng import source_sim as ss

import event_codes as ec
from sources import sunlight


def jones_oracle(hwp_deg, qwp_deg):
    """Independent 2x2 complex matrix-product construction."""

    def rot(a):
        return np.array(
            [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]],
            dtype=complex,
        )

    def retarder(angle_deg, phase):
        a = math.radians(angle_deg)
        return rot(a) @ np.diag([1.0, cmath.exp(1j * phase)]) @ rot(-a)

    vec = retarder(hwp_deg, math.pi) @ retarder(qwp_deg, math.pi / 2) @ np.array(
        [1.0, 0.0], dtype=complex
    )
    return vec / np.linalg.norm(vec)


def jones_vector(state):
    """The Jones vector of a state as a numpy array."""
    return np.array([state.amplitude_H, state.amplitude_V])


def same_up_to_phase(u, v, tol=1e-12):
    return abs(abs(np.vdot(u, v)) - 1.0) < tol


def test_plus_state_preparation():
    st = ss.polarization_from_waveplates(22.5, 0.0)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert same_up_to_phase(jones_vector(st), plus)


def test_identity_chain_keeps_horizontal():
    st = ss.polarization_from_waveplates(0.0, 0.0)
    assert same_up_to_phase(jones_vector(st), np.array([1.0, 0.0]))


def test_waveplates_match_matrix_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        h = float(rng.uniform(-180, 180))
        q = float(rng.uniform(-180, 180))
        got = jones_vector(ss.polarization_from_waveplates(h, q))
        assert abs(np.vdot(got, got).real - 1.0) < 1e-12
        want = jones_oracle(h, q)
        assert np.max(np.abs(got - want)) < 1e-12 or same_up_to_phase(got, want)


def test_error_rate_follows_hwp_offset():
    # wrong-outcome probability against the check projector is sin^2(2 delta)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    for delta in np.linspace(-60, 60, 41):
        st = jones_vector(ss.polarization_from_waveplates(22.5 + delta, 0.0))
        wrong = abs(np.vdot(minus, st)) ** 2
        assert wrong == pytest.approx(
            math.sin(math.radians(2 * delta)) ** 2, abs=1e-9
        )
        # 90-degree periodicity in the plate angle
        st2 = jones_vector(ss.polarization_from_waveplates(22.5 + delta + 90.0, 0.0))
        assert abs(np.vdot(minus, st2)) ** 2 == pytest.approx(wrong, abs=1e-9)


def test_state_requires_unit_norm():
    with pytest.raises(ValueError):
        ss.PolarizationState(amplitude_H=1.0, amplitude_V=1.0)


# ---------------------------------------------------------------------------
# click statistics: the source is only observed through its clicks. With
# every pulse in the generation basis, each arm sees a = p * eta = 0.05 of
# the mean photon number.

A = 0.5 * 0.1


def z_clicks(src, n, seed, det=None):
    """Per-pulse click indicators (c0, c1) of a generation-basis run."""
    det = det or ss.DetectorParams()
    cfg = ss.MeasurementConfig(prob_X=0.0)
    out = ec.outcome(ds.run_simulation(src, det, cfg, n, seed))
    return (out & 1).astype(bool), (out >> 1).astype(bool)


def laser_click(lam, d):
    """Single-arm click probability of a Poisson pulse: 1 - (1-d) e^(-a lam)."""
    return 1.0 - (1.0 - d) * math.exp(-A * lam)


def sunlight_click(lam, rel, d):
    """Same with lam Gaussian-jittered by rel: the Gaussian moment
    generating function gives 1 - (1-d) exp(-a lam + a^2 (rel lam)^2 / 2).
    The clip at lam = 0 moves this by 2e-5 at rel = 0.3."""
    return 1.0 - (1.0 - d) * math.exp(-A * lam + (A * rel * lam) ** 2 / 2.0)


def assert_rate(clicks, p, sigmas=3.0):
    n = len(clicks)
    assert abs(np.count_nonzero(clicks) / n - p) <= sigmas * math.sqrt(
        p * (1 - p) / n
    )


def test_zero_lambda_never_emits():
    det = ss.DetectorParams(dark_rate=0.0)
    for src in (
        ss.SourceParams(mean_photons_lambda=0.0),
        sunlight(mean_photons_lambda=0.0),
    ):
        c0, c1 = z_clicks(src, 100_000, seed=1, det=det)
        assert not c0.any() and not c1.any()


def test_poisson_moments_and_fit():
    # laser: independent Poisson arms, so each arm matches the closed
    # form and the four outcomes fit the product distribution
    lam = 14.4
    d = ss.DetectorParams().dark_click_prob
    c0, c1 = z_clicks(ss.SourceParams(mean_photons_lambda=lam), 1_000_000, seed=3)
    q = laser_click(lam, d)
    assert_rate(c0, q)
    assert_rate(c1, q)

    observed = np.bincount(c0 + 2 * c1.astype(np.int64), minlength=4)
    pmf = np.array([(1 - q) ** 2, q * (1 - q), (1 - q) * q, q * q])
    _, p = stats.chisquare(observed, pmf * len(c0))
    assert p > 1e-4


def test_sunlight_is_super_poissonian():
    # jitter raises the no-click probability (Jensen): fewer clicks than a
    # laser of the same mean, by the Gaussian moment generating function
    lam = 11.6
    d = ss.DetectorParams().dark_click_prob
    for rel in (ss.SUNLIGHT_FLUCTUATION, 0.3):
        src = sunlight(
            mean_photons_lambda=lam, intensity_fluctuation_rel_std=rel
        )
        c0, c1 = z_clicks(src, 1_000_000, seed=5)
        q = sunlight_click(lam, rel, d)
        assert_rate(c0, q)
        assert_rate(c1, q)
    sigma = math.sqrt(q * (1 - q) / len(c0))
    assert laser_click(lam, d) - np.count_nonzero(c0) / len(c0) > 5.0 * sigma


def test_sunlight_jitter_correlates_arms():
    # conditional on lam_eff the arms are independent; the shared jitter
    # makes P(double) - P(c0) P(c1) = (1-d)^2 Var(e^(-a lam_eff)),
    # 9.9e-3 (1-d)^2 at rel = 0.3
    lam, rel, n = 11.6, 0.3, 1_000_000
    d = ss.DetectorParams().dark_click_prob
    mu, var = A * lam, (A * rel * lam) ** 2
    expected = (1 - d) ** 2 * math.exp(-2 * mu + var) * math.expm1(var)
    for src, want in (
        (sunlight(lam, intensity_fluctuation_rel_std=rel), expected),
        (ss.SourceParams(mean_photons_lambda=lam), 0.0),
    ):
        c0, c1 = z_clicks(src, n, seed=7)
        p0, p1 = c0.mean(), c1.mean()
        cov = np.count_nonzero(c0 & c1) / n - p0 * p1
        sigma = math.sqrt(p0 * (1 - p0) * p1 * (1 - p1) / n)
        assert abs(cov - want) <= 3.0 * sigma


def test_stream_is_pure_function_of_seed_and_params():
    det, cfg = ss.DetectorParams(), ss.MeasurementConfig(prob_X=0.5)
    p = sunlight()

    def events(src, seed):
        return ds.run_simulation(src, det, cfg, 100_000, seed)

    a = events(p, 9)
    assert a == events(p, 9)
    assert a != events(p, 10)
    # the jitter and the mean both enter the law, so both move the events
    assert a != events(ss.SourceParams(mean_photons_lambda=p.mean_photons_lambda), 9)
    assert a != events(sunlight(2 * p.mean_photons_lambda), 9)


def test_indexed_access_matches_bulk():
    src = sunlight()
    det, cfg = ss.DetectorParams(), ss.MeasurementConfig()
    bulk = ds.run_simulation(src, det, cfg, 200_000, seed=9)
    for idx in (0, 1, 65_535, 65_536, 123_456):
        one = ds.simulate_range(src, det, cfg, 9, idx, 1)
        assert one.start == idx
        assert one.codes[0] == bulk.codes[idx]


def test_huge_lambda_saturates_both_arms():
    # no photon number is drawn, so no cap is needed: any mean saturates
    # both arms without memory growth
    for lam in (80_000.0, 1e12):
        c0, c1 = z_clicks(ss.SourceParams(mean_photons_lambda=lam), 1000, seed=2)
        assert c0.all() and c1.all()


def test_source_params_validation():
    with pytest.raises(ValueError):
        ss.SourceParams(mean_photons_lambda=-1.0)
    with pytest.raises(ValueError):
        ss.SourceParams(pulse_rate_G=0.0)
    with pytest.raises(ValueError):
        ss.SourceParams(source_kind="led")
