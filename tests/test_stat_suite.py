"""Battery behaviour on analytically extreme inputs and null-distribution
calibration on a known-good generator."""
import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.special import erfc, gammaincc, ndtr

from siqrng import extractor as ex
from siqrng import stat_suite as st
from siqrng.errors import InsufficientBitsError

from toeplitz_oracle import pack

ALTERNATING = pack(np.tile(np.array([0, 1], dtype=np.uint8), 500_000))


def test_alternating_monobit_exact_one():
    assert st.monobit(ALTERNATING) == 1.0


def test_alternating_fails_runs():
    assert st.runs(ALTERNATING) < 1e-10


def test_all_zeros_fails_monobit():
    assert st.monobit(pack(np.zeros(10**6, dtype=np.uint8))) < 1e-10


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
        for r in st.run_battery(pack(bits), alpha=0.01):
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
        b = pack(rng.integers(0, 2, nbits, dtype=np.uint8))
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
    a = st.run_battery(pack(bits), alpha=0.01)
    b = st.run_battery(pack(bits.copy()), alpha=0.01)
    assert [(r.test_name, r.p_value) for r in a] == [
        (r.test_name, r.p_value) for r in b
    ]


def test_battery_matches_tests_called_in_turn():
    # the reports keep BATTERY's names, order and p-values. 10^6 is
    # 5-smooth, so spectral reads every bit; 2 * 500 009 is not, so it
    # reads a prefix.
    rng = np.random.default_rng(21)
    for n in (1_000_000, 2 * 500_009):
        bits = pack(rng.integers(0, 2, n, dtype=np.uint8))
        reports = st.run_battery(bits, alpha=0.01)
        assert [r.test_name for r in reports] == [name for name, _ in st.BATTERY]
        assert [r.p_value for r in reports] == [fn(bits) for _, fn in st.BATTERY]


@pytest.mark.parametrize("failing_test", ["spectral", "monobit"])
def test_battery_error_propagates_and_leaves_no_thread(monkeypatch, failing_test):
    # the last test of the battery fails, or the first
    def failing(bits):
        raise RuntimeError(f"{failing_test} failed")

    monkeypatch.setattr(
        st,
        "BATTERY",
        tuple(
            (name, failing if name == failing_test else fn) for name, fn in st.BATTERY
        ),
    )
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing_test} failed"):
        st.run_battery(pack(np.ones(1_000_000, dtype=np.uint8)), alpha=0.01)
    assert threading.active_count() == before


def reference_cumulative_sums(b):
    """The float64 form of the forward cumulative-sums test."""
    n = len(b)
    z = float(np.max(np.abs(np.cumsum(2.0 * b.astype(np.float64) - 1.0))))
    sqrt_n = math.sqrt(n)
    k_hi = int(math.floor((n / z - 1.0) / 4.0))
    k1 = np.arange(int(math.floor((-n / z + 1.0) / 4.0)), k_hi + 1)
    total = float(
        np.sum(ndtr((4 * k1 + 1) * z / sqrt_n) - ndtr((4 * k1 - 1) * z / sqrt_n))
    )
    k2 = np.arange(int(math.floor((-n / z - 3.0) / 4.0)), k_hi + 1)
    total2 = float(
        np.sum(ndtr((4 * k2 + 3) * z / sqrt_n) - ndtr((4 * k2 + 1) * z / sqrt_n))
    )
    return float(min(max(1.0 - total + total2, 0.0), 1.0))


def test_cumulative_sums_matches_float_form():
    rng = np.random.default_rng(8)
    for n in (100, 1001, 250_000):
        for b in (
            rng.integers(0, 2, n, dtype=np.uint8),
            (rng.random(n) < 0.52).astype(np.uint8),
            (rng.random(n) < 0.3).astype(np.uint8),
            np.ones(n, dtype=np.uint8),
            np.zeros(n, dtype=np.uint8),
            (np.arange(n) % 2).astype(np.uint8),
        ):
            assert st.cumulative_sums(pack(b)) == reference_cumulative_sums(b)


@pytest.mark.parametrize("chunk", [8, 64, 1000])
def test_cumulative_sums_chunks_carry_the_walk(chunk, monkeypatch):
    # chunks of a few bits, ending mid-input and on its last bit, carry
    # the running sum and its extremes from one chunk to the next
    monkeypatch.setattr(st, "WALK_CHUNK", chunk)
    rng = np.random.default_rng(10)
    for n in (100, 1003, 40 * chunk + 3):
        for b in (
            rng.integers(0, 2, n, dtype=np.uint8),
            (rng.random(n) < 0.4).astype(np.uint8),
            np.ones(n, dtype=np.uint8),
            np.zeros(n, dtype=np.uint8),
        ):
            assert st.cumulative_sums(pack(b)) == reference_cumulative_sums(b)


def longest_run_per_block(blocks):
    """Longest run of ones in each row of a 0/1 matrix: a column sweep
    with a resetting counter, vectorized over the rows."""
    nblocks, m = blocks.shape
    current = np.zeros(nblocks, dtype=np.int64)
    best = np.zeros(nblocks, dtype=np.int64)
    for j in range(m):
        current = (current + 1) * blocks[:, j]
        np.maximum(best, current, out=best)
    return best


def reference_longest_run(b):
    """The longest-run test on 0/1 bits by the column sweep."""
    n = len(b)
    for m_block, min_n, bounds, probs in st._LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m_block
    longest = longest_run_per_block(b[: nblocks * m_block].reshape(nblocks, m_block))
    edges = (-1,) + bounds + (10**9,)
    counts = np.array(
        [np.count_nonzero((longest > lo) & (longest <= hi)) for lo, hi in zip(edges[:-1], edges[1:])],
        dtype=np.float64,
    )
    expected = nblocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(gammaincc((len(probs) - 1) / 2.0, chi2 / 2.0))


@pytest.mark.parametrize("m_block", [8, 128, 10_000])
def test_longest_runs_equal_the_column_sweep(m_block):
    # random blocks, all ones, all zeros, and runs of every length up to
    # past the cap that start in one block and end in the next
    rng = np.random.default_rng(m_block)
    nblocks = 40
    size = nblocks * m_block
    runs = np.zeros(size, dtype=np.uint8)
    for k, end in enumerate(range(m_block, size, m_block)):
        runs[end - k % 20 - 1 : end + k // 2] = 1
    for b in (
        rng.integers(0, 2, size, dtype=np.uint8),
        (rng.random(size) < 0.8).astype(np.uint8),
        np.ones(size, dtype=np.uint8),
        np.zeros(size, dtype=np.uint8),
        runs,
    ):
        want = longest_run_per_block(b.reshape(nblocks, m_block))
        blocks = np.packbits(b).reshape(nblocks, m_block // 8)
        for cap in (1, 4, 9, 16, m_block + 1):
            got = st._longest_runs(blocks, cap)
            assert np.array_equal(got, np.minimum(want, cap)), cap
    for n in (128, 1003, 6272, 6279, 750_000, 750_005):
        for b in (rng.integers(0, 2, n, dtype=np.uint8), np.ones(n, dtype=np.uint8)):
            assert st.longest_run(pack(b)) == reference_longest_run(b), n


def reference_runs(b):
    """The 0/1 form of the runs test: ones counted, runs from the
    differences of neighbouring bits."""
    n = len(b)
    pi = float(np.count_nonzero(b)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(np.diff(b.astype(np.int8))))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


def test_byte_counts_equal_the_0_1_forms():
    # monobit, block_frequency and runs count set bits and bit changes
    # in whole bytes; the 0/1 forms count ones, average 128-bit blocks
    # and difference neighbouring bits. Lengths end mid-byte and
    # mid-block, so padding bits and a partial block are in play; the
    # alternating input changes at every bit and, at the odd lengths,
    # ends on a one beside the zero padding.
    rng = np.random.default_rng(9)
    for n in (128, 1000, 1003, 128 * 97 + 77, 250_001):
        for b in (
            rng.integers(0, 2, n, dtype=np.uint8),
            (rng.random(n) < 0.52).astype(np.uint8),
            np.ones(n, dtype=np.uint8),
            (1 - np.arange(n) % 2).astype(np.uint8),
        ):
            assert st.runs(pack(b)) == reference_runs(b)
            s = abs(2.0 * int(np.count_nonzero(b)) - n)
            want = float(erfc(s / math.sqrt(n) / math.sqrt(2.0)))
            assert st.monobit(pack(b)) == want
            nblocks = n // 128
            pi = b[: nblocks * 128].reshape(nblocks, 128).mean(axis=1)
            chi2 = 4.0 * 128 * float(np.sum((pi - 0.5) ** 2))
            want = float(gammaincc(nblocks / 2.0, chi2 / 2.0))
            assert st.block_frequency(pack(b)) == want


def test_individual_minimums():
    short = pack(np.ones(8, dtype=np.uint8))
    for name, fn in st.BATTERY:
        with pytest.raises(InsufficientBitsError):
            fn(short)


def test_battery_minimum():
    with pytest.raises(InsufficientBitsError):
        st.run_battery(pack(np.ones(999_999, dtype=np.uint8)), alpha=0.01)


def test_longest_run_regimes():
    rng = np.random.default_rng(1)
    # each length regime picks its block size and still yields a p-value
    for n in (200, 10_000, 800_000):
        p = st.longest_run(pack(rng.integers(0, 2, n, dtype=np.uint8)))
        assert 0.0 <= p <= 1.0


def test_csv_format():
    bits = np.random.default_rng(2).integers(0, 2, 1_000_000, dtype=np.uint8)
    text = st.battery_csv(st.run_battery(pack(bits), alpha=0.01))
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


def smooth_prefix_len(n):
    """The largest 2^a 3^b 5^c <= n, by brute force."""
    for k in range(n, 0, -1):
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k


def test_prev_fast_len_is_largest_smooth_prefix():
    # the spectral test's prefix rule rests on scipy's real fast lengths
    # being exactly the 5-smooth numbers
    for n in range(1000, 6000):
        assert scipy.fft.prev_fast_len(n, real=True) == smooth_prefix_len(n)


def test_spectral_is_real_fft_form_on_smooth_prefix():
    # smooth lengths read every bit; the others the largest smooth prefix
    rng = np.random.default_rng(3)
    smooth = (100_000, 3**4 * 5**3, 1000, 2**3 * 3**2 * 5**4)
    other = (
        2 * 3 * 7 * 11 * 13 * 17, 1002, 2 * 256 * 397, 2 * 256 * 401,  # even
        3**4 * 5**3 * 7, 99_999, 1001,  # odd
        2 * 100_003, 2 * 1009,  # prime half
        100_003, 1009,  # prime
        100_001, 3 * 1009,  # odd with a large prime factor
    )
    for n in smooth + other:
        prefix = smooth_prefix_len(n)
        assert (prefix == n) == (n in smooth)
        assert prefix >= 1000
        inputs = (
            rng.integers(0, 2, n, dtype=np.uint8),
            (rng.random(n) < 0.53).astype(np.uint8),
            np.ones(n, dtype=np.uint8),
            (np.arange(n) % 7 < 3).astype(np.uint8),
        )
        for b in inputs:
            assert st.spectral(pack(b)) == reference_spectral(b[:prefix])[2]


SPECTRAL_COUNT_LENGTHS = (
    1000,  # N1 = 20, N2 = 50: bin n/2 on row 0
    1500,  # N1 = 20, N2 = 75: bin n/2 on row N1/2
    1250,  # N1 = 25, N2 = 50: N1 odd, bin n/2 on row 0
    1125,  # N1 = 25, N2 = 45: n odd, bin (n-1)/2 on row N1//2
    562_500,  # N1 = 375, N2 = 1500: R = 15, odd
    10**6,  # the battery's minimum: N1 = 500, N2 = 2000, R = 10
)


def test_spectral_count_lengths_take_every_kind_of_residue():
    # one residue class (R = 1), an odd R and an even R
    residues = {
        ex._residue(*ex._four_step_shape(n)) for n in SPECTRAL_COUNT_LENGTHS
    }
    assert 1 in residues
    assert any(r % 2 for r in residues - {1})
    assert any(r % 2 == 0 for r in residues)


@pytest.mark.parametrize("n", SPECTRAL_COUNT_LENGTHS)
def test_spectral_count_equals_real_fft_count(n):
    # the count over the residue-class bands against a count of the
    # first n//2 bins of the one-dimensional real FFT, at thresholds
    # below, at and above the test's own
    rng = np.random.default_rng(n)
    inputs = (
        rng.integers(0, 2, n, dtype=np.uint8),
        (rng.random(n) < 0.53).astype(np.uint8),
        (np.arange(n) % 7 < 3).astype(np.uint8),
    )
    for b in inputs:
        mags = reference_spectral(b)[0]
        for scale in (0.5, 1.0, 1.5):
            threshold = scale * math.sqrt(math.log(1.0 / 0.05) * n)
            want = int(np.count_nonzero(mags < threshold))
            assert st._below_threshold(pack(b), threshold) == want, (scale, want)


def test_spectral_peak_allocation_is_one_band():
    # class 0's real lookup and its real FFT, or one (L, N2) complex band
    # of another class, whichever is larger, with the uint16 pattern
    # index, the twiddle tables (twice, for their construction), the
    # packed prefix, the 2^R phasor table and two blocks of temporaries:
    # 0.43 of a half-spectrum at this shape. The whole half-spectrum
    # took 1.12 half-spectra
    n = 10**6
    b = pack(np.random.default_rng(5).integers(0, 2, n, dtype=np.uint8))
    n1, n2 = shape = ex._four_step_shape(n)
    residue = ex._residue(n1, n2)
    length = n1 // residue
    assert residue > 1
    bands = max(length * n2 * 8 + (length // 2 + 1) * n2 * 16, length * n2 * 16)
    tables = 2 * sum(t.nbytes for t in ex._band_twiddles(shape, residue)[:2])
    bound = bands + length * n2 * 2 + tables + n // 8 + (16 << residue)
    bound += 2 * ex.BLOCK_BYTES
    tracemalloc.start()
    try:
        st.spectral(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


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
            if m:  # serial and approximate_entropy take m-1 from m
                assert np.array_equal(
                    st._marginal(got), reference_pattern_counts(b, m - 1)
                )


@pytest.mark.parametrize("test", [st.serial, st.approximate_entropy])
def test_pattern_tests_hold_two_bytes_per_bit(test):
    # the unpacked bits and the m-gram index take a byte a bit each, and
    # bincount one PATTERN_CHUNK of intp; bincount of the whole index
    # took 11 bytes a bit
    n = 1 << 22
    bits = pack(np.random.default_rng(6).integers(0, 2, n, dtype=np.uint8))
    tracemalloc.start()
    try:
        test(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n + 8 * st.PATTERN_CHUNK + (1 << 16), peak / n


def test_battery_peak_per_bit():
    # the whole battery peaks at its largest test: serial and
    # approximate_entropy at two bytes a bit, the spectral test's band
    # under that. With the spectral test's half-spectrum it took 8.79
    # bytes a bit, and runs alone 3.00
    n = 1 << 22
    bits = pack(np.random.default_rng(10).integers(0, 2, n, dtype=np.uint8))
    tracemalloc.start()
    try:
        st.run_battery(bits, alpha=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * n, peak / n


def test_cumulative_sums_holds_bounded_chunks():
    # one WALK_CHUNK of unpacked bits and of int32 partial sums, whatever
    # n; the whole walk took 5 bytes a bit
    n = 1 << 22
    bits = pack(np.random.default_rng(7).integers(0, 2, n, dtype=np.uint8))
    tracemalloc.start()
    try:
        st.cumulative_sums(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * st.WALK_CHUNK + (1 << 16), peak
