"""Detection model: projection probabilities against a matrix oracle,
click statistics against closed forms, tally against a reference
counter, and chunk-exact determinism."""
import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats

from siqrng import detector_sim as ds
from siqrng import source_sim as ss
from siqrng.errors import EstimationAbort
from siqrng.source_sim import (
    PolarizationState,
    SourceParams,
    polarization_from_waveplates,
)

import event_codes as ec
from sources import sunlight

PLUS = polarization_from_waveplates(22.5, 0.0)


# ---------------------------------------------------------------------------
# basis choice


def pulse_bases(prob_X, seed, start, count):
    cfg = ss.MeasurementConfig(prob_X=prob_X)
    det = ss.DetectorParams(dead_time=0.0)
    return ec.basis(ds.simulate_range(SourceParams(), det, cfg, seed, start, count))


def test_basis_extremes():
    for i in (0, 1, 99, 70000):
        assert pulse_bases(0.0, 5, i, 1)[0] == ss.BASIS_Z
        assert pulse_bases(1.0, 5, i, 1)[0] == ss.BASIS_X


def test_basis_fraction_matches_probability():
    n, p = 10_000_000, 0.004
    frac = np.count_nonzero(pulse_bases(p, 123, 0, n)) / n
    assert abs(frac - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


def test_basis_single_matches_block():
    block = pulse_bases(0.3, 77, 0, 200_000)
    for idx in (0, 1, 65535, 65536, 199_999):
        assert pulse_bases(0.3, 77, idx, 1)[0] == block[idx]
    # the jump-ahead at paper scale: six uniforms drawn at once equal the
    # same six drawn in two parts, split at every point
    for at in (2**32 - 3, 7_200_000_000 - 3):
        whole = ds._uniforms(77, ds.DOMAIN_DETECTION, at, 6)
        for k in range(1, 6):
            head = ds._uniforms(77, ds.DOMAIN_DETECTION, at, k)
            tail = ds._uniforms(77, ds.DOMAIN_DETECTION, at + k, 6 - k)
            assert np.array_equal(np.concatenate([head, tail]), whole)


# ---------------------------------------------------------------------------
# measurement transformation


def test_plus_state_projects_deterministically_in_check_basis():
    cfg = ss.MeasurementConfig()
    p0, p1 = ss.effective_projection_probs(PLUS, ss.BASIS_X, cfg)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.0, abs=1e-12)


def test_plus_state_is_uniform_in_generation_basis():
    cfg = ss.MeasurementConfig()
    p0, p1 = ss.effective_projection_probs(PLUS, ss.BASIS_Z, cfg)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)


def test_effective_settings_are_mutually_unbiased():
    # eigenvector oracle: the measurement bases are the unitary-rotated
    # splitter states; all four cross overlaps must be 1/2
    cfg = ss.MeasurementConfig()
    u_x = np.array(ss.measurement_unitary(*cfg.phase_X))
    u_z = np.array(ss.measurement_unitary(*cfg.phase_Z))
    basis_x = u_x.conj().T  # columns: states mapped onto each detector
    basis_z = u_z.conj().T
    for i in range(2):
        for j in range(2):
            ov = abs(np.vdot(basis_x[:, i], basis_z[:, j])) ** 2
            assert ov == pytest.approx(0.5, abs=1e-12)


def test_projection_probs_sum_to_one_for_random_states():
    rng = np.random.default_rng(4)
    cfg = ss.MeasurementConfig()
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        st = PolarizationState(amplitude_H=complex(v[0]), amplitude_V=complex(v[1]))
        for basis in (ss.BASIS_X, ss.BASIS_Z):
            p0, p1 = ss.effective_projection_probs(st, basis, cfg)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_unnormalized_state():
    st = PolarizationState._make((2.0, 0.0))  # _make skips the norm check
    with pytest.raises(ValueError):
        ss.effective_projection_probs(st, ss.BASIS_Z, ss.MeasurementConfig())


# ---------------------------------------------------------------------------
# detection


def test_detect_nothing_without_efficiency_or_darks():
    det = ss.DetectorParams(eta0=0.0, eta1=0.0, dark_rate=0.0)
    cfg = ss.MeasurementConfig(prob_X=0.5)
    for src in (SourceParams(mean_photons_lambda=50.0), sunlight()):
        stream = ds.run_simulation(src, det, cfg, 200_000, seed=0)
        assert not ec.outcome(stream).any()


def test_detect_dark_click_probability():
    det = ss.DetectorParams(
        eta0=0.1, eta1=0.1, dark_rate=5e4, gate_width=100e-9, dead_time=0.0
    )
    d = det.dark_click_prob
    n = 400_000
    stream = ds.run_simulation(
        SourceParams(mean_photons_lambda=0.0), det, ss.MeasurementConfig(), n, seed=1
    )
    clicks = np.count_nonzero(ec.outcome(stream) != ds.OUTCOME_NONE)
    expected = 1.0 - (1.0 - d) ** 2  # = 1 - exp(-2 * rate * gate)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(clicks / n - expected) <= 3.0 * sigma


def test_detect_single_click_matches_closed_form():
    lam, eta = 6.0, 0.1
    det = ss.DetectorParams(eta0=eta, eta1=eta, dark_rate=0.0, dead_time=0.0)
    cfg = ss.MeasurementConfig(prob_X=0.0)
    n = 300_000
    stream = ds.run_simulation(
        SourceParams(mean_photons_lambda=lam), det, cfg, n, seed=2
    )
    singles = np.count_nonzero(
        (ec.outcome(stream) == ds.OUTCOME_D0) | (ec.outcome(stream) == ds.OUTCOME_D1)
    )
    lp = lam * eta
    expected = 2.0 * math.exp(-lp / 2) * (1.0 - math.exp(-lp / 2))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(singles / n - expected) <= 3.0 * sigma


def test_dead_time_state_paralyzable_semantics():
    # window 2: an attempt suppresses the next two pulses, attempts made
    # while dead still count as attempts and keep the detector dead.
    # |+> in the check basis hits detector 0 only, which fires every pulse.
    det = ss.DetectorParams(
        eta0=1.0, eta1=1.0, dark_rate=0.0, dead_time=600e-9
    )
    src = SourceParams(mean_photons_lambda=100.0, pulse_rate_G=4.0e6)
    cfg = ss.MeasurementConfig(prob_X=1.0)
    outs = ec.outcome(ds.run_simulation(src, det, cfg, 6, seed=3)).tolist()
    assert outs == [
        ds.OUTCOME_D0,
        ds.OUTCOME_NONE,
        ds.OUTCOME_NONE,
        ds.OUTCOME_NONE,
        ds.OUTCOME_NONE,
        ds.OUTCOME_NONE,
    ]
    # without dead time every pulse clicks
    free = ss.DetectorParams(eta0=1.0, eta1=1.0, dark_rate=0.0, dead_time=0.0)
    outs = ec.outcome(ds.run_simulation(src, free, cfg, 6, seed=3)).tolist()
    assert outs == [ds.OUTCOME_D0] * 6
    # a dead time of hours: the look-back is cut at pulse 0, and pulse 1
    # still sees pulse 0's attempt, in a run or drawn alone
    hours = ss.DetectorParams(eta0=1.0, eta1=1.0, dark_rate=0.0, dead_time=1e4)
    outs = ec.outcome(ds.run_simulation(src, hours, cfg, 2, seed=3)).tolist()
    assert outs == [ds.OUTCOME_D0, ds.OUTCOME_NONE]
    outs = ec.outcome(ds.simulate_range(src, hours, cfg, 3, 1, 1)).tolist()
    assert outs == [ds.OUTCOME_NONE]


def oracle_law(lam, rel, d, a0, a1):
    """(t1, t2, t3) by quadrature of the two-stage model: lambda_eff =
    max(0, lam (1 + rel Z)) with Z ~ N(0, 1), then arm i clicks
    independently with probability 1 - (1 - d) exp(-a_i lambda_eff).
    mpmath's tanh-sinh quadrature in double precision (its fp context)
    keeps the 288-case grid under a second."""
    fp = mpmath.fp

    def cell(i, lam_eff):
        k0, k1 = (1 - d) * math.exp(-a0 * lam_eff), (1 - d) * math.exp(-a1 * lam_eff)
        return (k0 * k1, (1 - k0) * k1, k0 * (1 - k1))[i]

    cells = [cell(i, lam) for i in range(3)]
    if lam * rel > 0:
        # the clip puts mass Phi(-1/rel) at lambda_eff = 0
        z0 = -1.0 / rel
        cells = [
            fp.ncdf(z0) * cell(i, 0.0)
            + fp.quad(lambda z: cell(i, lam * (1 + rel * z)) * fp.npdf(z), [z0, 0, 40])
            for i in range(3)
        ]
    p00, p10, p01 = cells
    return p00, p00 + p10, p00 + p10 + p01


def test_outcome_law_matches_quadrature_oracle():
    # a state off the check eigenstate, so both arms see light in both bases
    state = polarization_from_waveplates(27.5, 0.0)
    cfg = ss.MeasurementConfig()
    for rel in (0.0, 0.05, 0.3, 1.0):
        for lam in (0.0, 1e-3, 1.0, 11.6, 14.4, 1e3):
            src = SourceParams(
                mean_photons_lambda=lam, intensity_fluctuation_rel_std=rel
            )
            for dark_rate in (0.0, 5e4):
                for eta in (0.0, 0.1, 1.0):
                    det = ss.DetectorParams(eta0=eta, eta1=eta, dark_rate=dark_rate)
                    for basis in (ss.BASIS_Z, ss.BASIS_X):
                        p0, p1 = ss.effective_projection_probs(state, basis, cfg)
                        got = ss.outcome_law(src, det, (p0, p1))
                        want = oracle_law(
                            lam, rel, det.dark_click_prob, p0 * eta, p1 * eta
                        )
                        assert got == pytest.approx(want, abs=1e-12, rel=0)


def test_outcome_law_is_finite_and_ordered_at_huge_lambda():
    # exp(-t mu + (t sigma)^2 / 2) Phi(mu/sigma - t sigma) is inf * 0 here
    det = ss.DetectorParams()
    for rel in (0.0, 0.05, 0.3, 1.0):
        src = SourceParams(mean_photons_lambda=1e12, intensity_fluctuation_rel_std=rel)
        for basis in (ss.BASIS_Z, ss.BASIS_X):
            probs = ss.effective_projection_probs(PLUS, basis, ss.MeasurementConfig())
            t1, t2, t3 = ss.outcome_law(src, det, probs)
            assert all(math.isfinite(t) for t in (t1, t2, t3))
            assert 0.0 <= t1 <= t2 <= t3 <= 1.0


def test_outcome_counts_fit_the_law():
    # per basis, the four outcome counts of 1e6 pulses against the law
    state = polarization_from_waveplates(27.5, 0.0)
    det = ss.DetectorParams(dark_rate=5e4, dead_time=0.0)
    cfg = ss.MeasurementConfig(prob_X=0.5)
    for src in (
        SourceParams(mean_photons_lambda=11.6, hwp_angle=27.5),
        sunlight(intensity_fluctuation_rel_std=0.3, hwp_angle=27.5),
    ):
        stream = ds.run_simulation(src, det, cfg, 1_000_000, seed=43)
        for basis in (ss.BASIS_Z, ss.BASIS_X):
            law = ss.outcome_law(
                src, det, ss.effective_projection_probs(state, basis, cfg)
            )
            pmf = np.diff((0.0, *law, 1.0))
            outcomes = ec.outcome(stream)[ec.basis(stream) == basis]
            observed = np.bincount(outcomes, minlength=4)
            _, p = stats.chisquare(observed, pmf * observed.sum())
            assert p > 1e-3


# ---------------------------------------------------------------------------
# full simulation


def default_setup(**kw):
    src = kw.pop("src", SourceParams())
    det = kw.pop("det", ss.DetectorParams())
    cfg = kw.pop("cfg", ss.MeasurementConfig())
    return src, det, cfg


def test_empty_run():
    src, det, cfg = default_setup()
    stream = ds.run_simulation(src, det, cfg, 0, seed=1)
    assert len(stream) == 0
    with pytest.raises(EstimationAbort):
        ds.tally(stream)


def test_generation_basis_single_click_rate_matches_model():
    src, det, cfg = default_setup()
    stream = ds.run_simulation(src, det, cfg, 1_000_000, seed=6)
    lam_p = src.mean_photons_lambda * det.eta0
    p_single = 2.0 * math.exp(-lam_p / 2) * (1.0 - math.exp(-lam_p / 2))
    is_z = ec.basis(stream) == ss.BASIS_Z
    z_out = ec.outcome(stream)[is_z]
    singles = np.count_nonzero((z_out == ds.OUTCOME_D0) | (z_out == ds.OUTCOME_D1))
    nz = int(np.count_nonzero(is_z))
    sigma = math.sqrt(p_single * (1 - p_single) / nz)
    assert abs(singles / nz - p_single) <= 3.0 * sigma


def test_error_rate_floor_from_darks_and_doubles():
    # aligned input: wrong-detector events can only come from dark counts
    src, det, _ = default_setup()
    cfg = ss.MeasurementConfig(prob_X=0.5)
    n = 1_000_000
    stream = ds.run_simulation(src, det, cfg, n, seed=7)
    d = det.dark_click_prob
    lam_p = src.mean_photons_lambda * det.eta0
    q0 = 1.0 - (1.0 - d) * math.exp(-lam_p)
    q1 = d
    # per check pulse: weighted error w in {0, 0.5, 1}
    mu_w = q1 * (1 - q0) + 0.5 * q0 * q1
    var_w = q1 * (1 - q0) + 0.25 * q0 * q1 - mu_w ** 2
    is_x = ec.basis(stream) == ss.BASIS_X
    nx_pulses = int(np.count_nonzero(is_x))
    x_out = ec.outcome(stream)[is_x]
    observed = np.count_nonzero(x_out == ds.OUTCOME_D1) + 0.5 * np.count_nonzero(
        x_out == ds.OUTCOME_DOUBLE
    )
    expect = nx_pulses * mu_w
    assert abs(observed - expect) <= 3.0 * math.sqrt(nx_pulses * var_w) + 1.0


def test_loss_is_basis_independent():
    src, det, cfg = default_setup()
    stream = ds.run_simulation(src, det, cfg, 1_000_000, seed=8)
    detected = ec.outcome(stream) != ds.OUTCOME_NONE
    is_x = ec.basis(stream) == ss.BASIS_X
    table = np.array(
        [
            [np.count_nonzero(is_x & detected), np.count_nonzero(is_x & ~detected)],
            [np.count_nonzero(~is_x & detected), np.count_nonzero(~is_x & ~detected)],
        ]
    )
    _, p, _, _ = stats.chi2_contingency(table)
    assert p >= 0.01


def test_double_click_rate_grows_with_lambda():
    det = ss.DetectorParams()
    cfg = ss.MeasurementConfig(prob_X=0.0)
    fractions = []
    for lam in (1.0, 4.0, 8.0, 12.0, 16.0):
        stream = ds.run_simulation(
            SourceParams(mean_photons_lambda=lam), det, cfg, 200_000, seed=11
        )
        frac = np.count_nonzero(ec.outcome(stream) == ds.OUTCOME_DOUBLE) / len(stream)
        d = det.dark_click_prob
        q = 1.0 - (1.0 - d) * math.exp(-lam * det.eta0 / 2)
        sigma = math.sqrt(q * q * (1 - q * q) / len(stream))
        assert abs(frac - q * q) <= 3.0 * sigma
        fractions.append(frac)
    assert all(a < b for a, b in zip(fractions, fractions[1:]))


def assert_serial_equals_chunked(src, det, cfg, seed, sizes):
    full = ds.run_simulation(src, det, cfg, sum(sizes), seed=seed)
    pos = 0
    for size in sizes:
        part = ds.simulate_range(src, det, cfg, seed, pos, size)
        end = pos + size
        assert np.array_equal(part, full[pos:end])
        pos = end


# each covers a laser and a sunlight source, so both laws are checked
# across the internal and the caller's chunk boundaries


def test_serial_equals_chunked_default_params():
    _, det, cfg = default_setup()
    for src in (SourceParams(), sunlight()):
        assert_serial_equals_chunked(
            src, det, cfg, 13, (37_777, 123_456, 250_000, 88_767)
        )


def test_serial_equals_chunked_with_active_dead_time():
    det = ss.DetectorParams(dead_time=600e-9)
    cfg = ss.MeasurementConfig(prob_X=0.1)
    for src in (
        SourceParams(mean_photons_lambda=30.0),
        sunlight(30.0, intensity_fluctuation_rel_std=0.3),
    ):
        assert_serial_equals_chunked(src, det, cfg, 17, (70_001, 99_999, 130_000))
        # look-backs reaching before pulse 0, then boundaries a pulse past
        # CHUNK and 2 * CHUNK
        assert_serial_equals_chunked(src, det, cfg, 17, (1, 2, 3, 65_531, 65_536))
    # a dead time of hours: each range's look-back is cut at pulse 0
    det = ss.DetectorParams(dead_time=1e4)
    assert_serial_equals_chunked(sunlight(), det, cfg, 17, (1, 2, 3, 65_531, 65_536))


def test_worker_count_does_not_change_events(monkeypatch):
    # 9 chunks, so the 2 * 3 chunks in flight wrap; dead time makes every
    # chunk's look-back reach into the one before
    det = ss.DetectorParams(dead_time=600e-9)
    cfg = ss.MeasurementConfig(prob_X=0.1)
    start, count = 70_001, 9 * 65_536
    for src in (
        SourceParams(mean_photons_lambda=30.0),
        sunlight(30.0, intensity_fluctuation_rel_std=0.3),
    ):
        streams = []
        for workers in (1, 3):
            monkeypatch.setattr(ds, "WORKERS", workers)
            streams.append(ds.simulate_range(src, det, cfg, 29, start, count))
        assert np.array_equal(streams[0], streams[1])


def test_simulation_holds_the_codes_and_a_few_panels(monkeypatch):
    # each worker writes its chunk's codes into the code array, so the
    # peak is that array and the temporaries of the chunks being drawn
    # (a chunk's uniforms are 8 bytes a pulse), with or without dead time,
    # up to a dead time of 1 s, whose window spans the whole run
    monkeypatch.setattr(ds, "WORKERS", 2)
    chunk_bytes = 8 * ds.CHUNK
    cfg = ss.MeasurementConfig(prob_X=0.1)
    for dead_time in (50e-9, 600e-9, 1.0):
        det = ss.DetectorParams(dead_time=dead_time)
        tracemalloc.start()
        try:
            events = ds.simulate_range(
                sunlight(), det, cfg, 37, 70_001, 64 * 65_536
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < events.nbytes + 2 * 2 * chunk_bytes, (
            (peak - events.nbytes) / chunk_bytes
        )


def test_worker_error_propagates_and_pool_shuts_down(monkeypatch):
    draw = ds._raw_clicks

    def failing(start, *args):
        if start == 5 * ds.CHUNK:
            raise RuntimeError("chunk 5 failed")
        return draw(start, *args)

    monkeypatch.setattr(ds, "WORKERS", 3)
    monkeypatch.setattr(ds, "_raw_clicks", failing)
    threads = threading.active_count()
    src, det, cfg = default_setup()
    with pytest.raises(RuntimeError, match="chunk 5 failed"):
        ds.run_simulation(src, det, cfg, 20 * 65_536, seed=31)
    assert threading.active_count() == threads


def test_dead_time_suppresses_clicks():
    src = SourceParams(mean_photons_lambda=30.0)
    cfg = ss.MeasurementConfig(prob_X=0.0)
    free = ds.run_simulation(
        src, ss.DetectorParams(dead_time=0.0), cfg, 200_000, seed=19
    )
    gated = ds.run_simulation(
        src, ss.DetectorParams(dead_time=600e-9), cfg, 200_000, seed=19
    )
    clicks_free = np.count_nonzero(ec.outcome(free) != ds.OUTCOME_NONE)
    clicks_gated = np.count_nonzero(ec.outcome(gated) != ds.OUTCOME_NONE)
    assert clicks_gated < clicks_free


def reference_suppress_dead(raw, window, warmup):
    """Dead-time mask from the int64 prefix sums of warm-up + raw."""
    ext = np.concatenate([warmup, raw]).astype(np.int64)
    total = np.concatenate([[0], np.cumsum(ext)])
    i = np.arange(len(raw))
    return raw & (total[i + window] - total[i] == 0)


def test_suppress_dead_matches_prefix_sum_form():
    # random codes of a block from pulse lo, with each detector's attempts
    # in the window before it drawn too: the block's codes cleared in place
    # against the prefix-sum form, and each detector's last attempt through
    # the block (the one before it where the block has none)
    rng = np.random.default_rng(41)
    lo = 1_000
    for window in range(1, 10):
        for rate in (0.02, 0.3, 0.9):
            clicks = rng.random((2, 5_000)) < rate
            warmup = rng.random((2, window)) < rate
            codes = rng.integers(0, 2, 5_000).astype(np.uint8)
            codes |= (clicks[0] << 1 | clicks[1] << 2).astype(np.uint8)
            want = codes & 1
            last, through = [], []
            for k, bit in enumerate((2, 4)):
                live = reference_suppress_dead(clicks[k], window, warmup[k])
                want |= bit * live.astype(np.uint8)
                before = np.flatnonzero(warmup[k])
                last.append(lo - window + before[-1] if len(before) else -1)
                at = np.flatnonzero(clicks[k])
                through.append(lo + at[-1] if len(at) else last[-1])
            got = codes.copy()
            assert ds._suppress_dead(got, lo, window, last) == through
            assert np.array_equal(got, want)


def test_dead_time_matches_prefix_sum_form_on_raw_clicks():
    # each detector's clicks under dead time against the prefix-sum form
    # on the raw clicks of the whole run, at windows within a chunk and
    # past it (mean photon numbers set so that attempts come about a
    # window apart), for the run and for ranges starting past pulse 0
    n, seed = 300_000, 47
    cfg = ss.MeasurementConfig(prob_X=0.1)
    for lam, window in ((0.5, 2), (0.01, 2_000), (0.0, 70_000), (0.0, 200_000)):
        src = SourceParams(mean_photons_lambda=lam)
        free = ss.DetectorParams(dead_time=0.0)
        raw = ds.run_simulation(src, free, cfg, n, seed=seed)
        want = raw & 1
        for bit in (2, 4):
            live = reference_suppress_dead((raw & bit) > 0, window, np.zeros(window))
            want |= bit * live.astype(np.uint8)
        assert np.count_nonzero(want >> 1) < np.count_nonzero(raw >> 1)
        det = ss.DetectorParams(dead_time=(window + 0.5) / src.pulse_rate_G)
        assert np.array_equal(ds.run_simulation(src, det, cfg, n, seed=seed), want)
        for start, count in ((1, 5), (65_537, 100_000), (250_000, 50_000)):
            part = ds.simulate_range(src, det, cfg, seed, start, count)
            assert np.array_equal(part, want[start : start + count]), (window, start)


def test_determinism_across_runs():
    src, det, cfg = default_setup()
    a = ds.run_simulation(src, det, cfg, 200_000, seed=23)
    b = ds.run_simulation(src, det, cfg, 200_000, seed=23)
    assert np.array_equal(a, b)
    c = ds.run_simulation(src, det, cfg, 200_000, seed=24)
    assert not np.array_equal(a, c)


def test_one_uniform_decides_basis_and_outcome():
    # pulse i's uniform u is the i-th double of the seed's stream, drawn
    # here from the start: the basis is X when u < p_X, and the outcome
    # places u among its basis's law moved into [0, p_X) for X and
    # [p_X, 1) for Z
    seed, start, n, p = 7, 3 * ds.CHUNK + 5, ds.CHUNK, 0.3
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(ds.DOMAIN_DETECTION,))
    u = np.random.Generator(np.random.PCG64DXSM(seq)).random(start + n)[start:]
    src, det = sunlight(), ss.DetectorParams(dead_time=0.0)
    cfg = ss.MeasurementConfig(prob_X=p)
    stream = ds.simulate_range(src, det, cfg, seed, start, n)
    basis = ec.basis(stream)
    assert np.array_equal(basis, u < p)
    for b in (ss.BASIS_Z, ss.BASIS_X):
        law = ss.outcome_law(src, det, ss.effective_projection_probs(PLUS, b, cfg))
        if b == ss.BASIS_X:
            moved = [t * p for t in law]
        else:
            moved = [p + t * (1 - p) for t in law]
        want = np.searchsorted(moved, u, side="right")
        assert np.array_equal(ec.outcome(stream)[basis == b], want[basis == b])


# ---------------------------------------------------------------------------
# tally


def build_stream(records):
    basis = np.array([b for b, _ in records], dtype=np.uint8)
    outcome = np.array([o for _, o in records], dtype=np.uint8)
    return ec.stream(basis, outcome)


def test_tally_hand_count():
    records = (
        [(ss.BASIS_X, ds.OUTCOME_D0)] * 97
        + [(ss.BASIS_X, ds.OUTCOME_D1)]
        + [(ss.BASIS_X, ds.OUTCOME_DOUBLE)] * 2
    )
    t = ds.tally(build_stream(records))
    assert t.n_x == 100
    assert t.e_bx == pytest.approx(0.02)
    assert t.n_z == 0


def test_tally_all_none_aborts():
    records = [(ss.BASIS_X, ds.OUTCOME_NONE)] * 10 + [
        (ss.BASIS_Z, ds.OUTCOME_NONE)
    ] * 10
    with pytest.raises(EstimationAbort):
        ds.tally(build_stream(records))


def reference_tally(stream):
    """Independent single-pass counter over the (basis, outcome) pairs."""
    N_X = N_Z = n_x = n_z = wrong = dbl_x = dbl_z = 0
    for basis, outcome in zip(ec.basis(stream), ec.outcome(stream)):
        if basis == ss.BASIS_X:
            N_X += 1
            if outcome != ds.OUTCOME_NONE:
                n_x += 1
            if outcome == ds.OUTCOME_D1:
                wrong += 1
            if outcome == ds.OUTCOME_DOUBLE:
                dbl_x += 1
        else:
            N_Z += 1
            if outcome in (ds.OUTCOME_D0, ds.OUTCOME_D1):
                n_z += 1
            if outcome == ds.OUTCOME_DOUBLE:
                dbl_z += 1
    return (N_X, N_Z, n_x, n_z, wrong, dbl_x, dbl_z, (wrong + 0.5 * dbl_x) / n_x)


def test_tally_matches_reference_counter():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(10, 5000))
        stream = ec.stream(
            rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, 4, n).astype(np.uint8),
        )
        try:
            t = ds.tally(stream)
        except EstimationAbort:
            continue
        ref = reference_tally(stream)
        assert (
            t.N_X, t.N_Z, t.n_x, t.n_z,
            t.x_wrong_singles, t.x_doubles, t.z_doubles_discarded,
        ) == ref[:7]
        assert t.e_bx == pytest.approx(ref[7])


def test_raw_bits_mapping():
    records = [
        (ss.BASIS_Z, ds.OUTCOME_D0),
        (ss.BASIS_Z, ds.OUTCOME_D1),
        (ss.BASIS_X, ds.OUTCOME_D1),
        (ss.BASIS_Z, ds.OUTCOME_DOUBLE),
        (ss.BASIS_Z, ds.OUTCOME_NONE),
        (ss.BASIS_Z, ds.OUTCOME_D1),
    ]
    bits = ds.raw_bits_from_events(build_stream(records))
    assert len(bits) == 3
    assert bits.data.tolist() == [0b01100000]


def test_raw_bits_match_mask_reference():
    # random codes with singles and doubles in both bases, nulls, and
    # streams of one basis only
    rng = np.random.default_rng(32)
    shapes = ((1, 0.5), (1000, 0.5), (5000, 0.004), (300, 0.0), (300, 1.0))
    for n, prob_x in shapes:
        basis = (rng.random(n) < prob_x).astype(np.uint8)
        outcome = rng.integers(0, 4, n).astype(np.uint8)
        is_z = basis == ss.BASIS_Z
        single = (outcome == ds.OUTCOME_D0) | (outcome == ds.OUTCOME_D1)
        keep = is_z & single
        want = (outcome[keep] == ds.OUTCOME_D1).astype(np.uint8)
        got = ds.raw_bits_from_events(ec.stream(basis, outcome))
        assert len(got) == len(want)
        assert np.array_equal(got.data, np.packbits(want))


def test_raw_bits_carry_across_chunks(monkeypatch):
    # the bits of each chunk that do not fill a byte go on to the next:
    # chunks of 1, 7, 8 and 13 events put every carry length in play
    rng = np.random.default_rng(33)
    codes = rng.integers(0, 8, 3001).astype(np.uint8)
    keep = (codes == 2) | (codes == 4)  # Z singles
    want = np.packbits(codes[keep] >> 2)
    for chunk in (1, 7, 8, 13, 3001, 5000):
        monkeypatch.setattr(ds, "RAW_BITS_CHUNK", chunk)
        got = ds.raw_bits_from_events(codes)
        assert len(got) == np.count_nonzero(keep)
        assert np.array_equal(got.data, want), chunk


def test_raw_bits_peak_allocation_is_under_a_quarter_byte_per_event():
    # the packed bits take at most an eighth of a byte per event and a
    # chunk's selection is bounded; a one-byte-per-event mask or an
    # 8-byte index took 1 to 8 bytes per event
    rng = np.random.default_rng(34)
    codes = rng.choice(
        np.array([2, 4, 6, 0, 3], np.uint8), 4_000_000, p=[0.25, 0.25, 0.26, 0.23, 0.01]
    )
    tracemalloc.start()
    try:
        bits = ds.raw_bits_from_events(codes)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bits) == np.count_nonzero((codes == 2) | (codes == 4))
    assert peak < 0.25 * len(codes), peak / len(codes)
    # the bits own exactly their bytes; the buffer sized for one bit per
    # event is not kept behind them
    assert bits.data.base is None and bits.data.nbytes == (len(bits) + 7) // 8
    assert held < bits.data.nbytes + 4096, held - bits.data.nbytes


def test_detector_params_validation():
    with pytest.raises(ValueError):
        ss.DetectorParams(eta0=1.5)
    with pytest.raises(ValueError):
        ss.DetectorParams(dark_rate=-1.0)
    with pytest.raises(ValueError):
        ss.DetectorParams(gate_width=0.0)
    with pytest.raises(ValueError):
        ss.MeasurementConfig(prob_X=1.5)
