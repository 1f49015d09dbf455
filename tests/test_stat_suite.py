"""Battery behaviour on analytically extreme inputs and null-distribution
calibration on a known-good generator."""
import math
import threading

import numpy as np
import pytest
import scipy.fft
from scipy.special import erfc

from siqrng import stat_suite as st
from siqrng.errors import InsufficientBitsError

ALTERNATING = np.tile(np.array([0, 1], dtype=np.uint8), 500_000)


def test_alternating_monobit_exact_one():
    assert st.monobit(ALTERNATING) == 1.0


def test_alternating_fails_runs():
    assert st.runs(ALTERNATING) < 1e-10


def test_all_zeros_fails_monobit():
    assert st.monobit(np.zeros(10**6, dtype=np.uint8)) < 1e-10


def test_battery_on_alternating():
    reports = st.run_battery(ALTERNATING, alpha=0.01)
    by_name = {r.test_name: r for r in reports}
    assert len(reports) == 8
    assert by_name["monobit"].passed
    assert not by_name["runs"].passed
    assert not by_name["serial"].passed
    assert not by_name["approximate_entropy"].passed
    for r in reports:
        assert r.passed == (r.p_value >= 0.01)


def test_each_test_passes_on_null_input():
    # counter-based generator with known-good statistics; per-test pass
    # rate over 100 seeds stays within binomial tolerance of alpha=0.01
    fails = {name: 0 for name, _ in st.BATTERY}
    for seed in range(100):
        bits = np.random.default_rng(seed + 1000).integers(
            0, 2, 1_000_000, dtype=np.uint8
        )
        for r in st.run_battery(bits, alpha=0.01):
            if not r.passed:
                fails[r.test_name] += 1
    for name, k in fails.items():
        assert k <= 5, f"{name} failed {k}/100 null runs"


def test_p_values_uniform_under_null():
    # fixed-seed Kolmogorov-Smirnov check per test, 1000 trials
    trials, nbits = 1000, 1 << 15
    rng = np.random.default_rng(11)
    pvals = {name: np.empty(trials) for name, _ in st.BATTERY}
    for t in range(trials):
        b = rng.integers(0, 2, nbits, dtype=np.uint8)
        for name, fn in st.BATTERY:
            pvals[name][t] = fn(b)
    critical = 1.627762 / np.sqrt(trials)  # 1% asymptotic KS
    for name, ps in pvals.items():
        ps = np.sort(ps)
        grid = np.arange(1, trials + 1) / trials
        ks = max(
            float(np.max(np.abs(grid - ps))),
            float(np.max(np.abs(ps - (grid - 1.0 / trials)))),
        )
        assert ks < critical, f"{name}: KS {ks:.4f} >= {critical:.4f}"


def test_deterministic_p_values():
    bits = np.random.default_rng(42).integers(0, 2, 1_000_000, dtype=np.uint8)
    a = st.run_battery(bits, alpha=0.01)
    b = st.run_battery(bits.copy(), alpha=0.01)
    assert [(r.test_name, r.p_value) for r in a] == [
        (r.test_name, r.p_value) for r in b
    ]


def test_battery_matches_tests_called_in_turn():
    # spectral runs on a worker beside the other seven; the reports keep
    # BATTERY's names, order and p-values
    bits = np.random.default_rng(21).integers(0, 2, 1_000_000, dtype=np.uint8)
    reports = st.run_battery(bits, alpha=0.01)
    assert [r.test_name for r in reports] == [name for name, _ in st.BATTERY]
    assert [r.p_value for r in reports] == [fn(bits) for _, fn in st.BATTERY]


def test_battery_spectral_error_propagates_and_leaves_no_thread(monkeypatch):
    def failing(bits):
        raise RuntimeError("spectral failed")

    monkeypatch.setattr(
        st,
        "BATTERY",
        tuple((name, failing if name == "spectral" else fn) for name, fn in st.BATTERY),
    )
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="spectral failed"):
        st.run_battery(np.ones(1_000_000, dtype=np.uint8), alpha=0.01)
    assert threading.active_count() == before


def test_individual_minimums():
    short = np.ones(8, dtype=np.uint8)
    for name, fn in st.BATTERY:
        with pytest.raises(InsufficientBitsError):
            fn(short)


def test_battery_minimum():
    with pytest.raises(InsufficientBitsError):
        st.run_battery(np.ones(999_999, dtype=np.uint8), alpha=0.01)


def test_longest_run_regimes():
    rng = np.random.default_rng(1)
    # each length regime picks its block size and still yields a p-value
    for n in (200, 10_000, 800_000):
        p = st.longest_run(rng.integers(0, 2, n, dtype=np.uint8))
        assert 0.0 <= p <= 1.0


def test_csv_format():
    bits = np.random.default_rng(2).integers(0, 2, 1_000_000, dtype=np.uint8)
    text = st.battery_csv(st.run_battery(bits, alpha=0.01))
    lines = text.strip().split("\n")
    assert lines[0] == "test,p_value,pass"
    assert len(lines) == 9
    assert lines[1].startswith("monobit,")


def reference_spectral(b):
    """The real-FFT form of the spectral test: magnitudes, N1 and p."""
    n = len(b)
    mags = np.abs(scipy.fft.rfft(2.0 * b - 1.0))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n1 = int(np.count_nonzero(mags < threshold))
    d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return mags, n1, float(erfc(abs(d) / math.sqrt(2.0)))


def test_spectral_matches_real_fft_form():
    # even lengths take the packed half-length FFT: 2 * prime, 5-smooth,
    # mixed factors; odd lengths take the real FFT
    rng = np.random.default_rng(3)
    lengths = (
        2 * 100_003, 100_000, 2 * 3 * 7 * 11 * 13 * 17, 1000, 1002,
        100_001, 99_999, 1001,
    )
    for n in lengths:
        inputs = (
            rng.integers(0, 2, n, dtype=np.uint8),
            (rng.random(n) < 0.53).astype(np.uint8),
            np.ones(n, dtype=np.uint8),
            (np.arange(n) % 7 < 3).astype(np.uint8),
        )
        for b in inputs:
            mags, n1, p = reference_spectral(b)
            got = st._dft_magnitudes(b)
            assert got.shape == mags.shape
            # relative to each magnitude, or to the threshold's scale
            # sqrt(n) for bins near zero
            np.testing.assert_allclose(
                got, mags, rtol=1e-9, atol=1e-9 * math.sqrt(n)
            )
            threshold = math.sqrt(math.log(1.0 / 0.05) * n)
            assert int(np.count_nonzero(got < threshold)) == n1
            assert st.spectral(b) == p


def reference_pattern_counts(b, m):
    """Cyclic m-gram counts from rotated copies of the sequence."""
    if m == 0:
        return np.array([len(b)], dtype=np.int64)
    idx = np.zeros(len(b), dtype=np.int64)
    for k in range(m):
        idx = (idx << 1) | np.roll(b, -k).astype(np.int64)
    return np.bincount(idx, minlength=1 << m)


def test_pattern_counts_match_rotation_reference():
    rng = np.random.default_rng(4)
    for n in (4, 5, 17, 1000, 65_537):
        b = rng.integers(0, 2, n, dtype=np.uint8)
        for m in range(5):
            got = st._pattern_counts(b, m)
            assert np.array_equal(got, reference_pattern_counts(b, m))
            assert got.sum() == n
