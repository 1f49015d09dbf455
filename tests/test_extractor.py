"""Hashing paths against an explicit matrix oracle and each other."""
import threading

import numpy as np
import pytest
import scipy.fft

from siqrng import extractor as ex
from siqrng.errors import ConvolutionPrecisionError, EstimationAbort, FormatError
from siqrng.protocol_math import RateBreakdown

from toeplitz_oracle import toeplitz_naive


def explicit_matrix_oracle(spec: ex.ToeplitzSpec, x: np.ndarray) -> np.ndarray:
    """Independent construction: T[i][j] = seed[i - j + n - 1], then a
    plain mod-2 matrix-vector product."""
    n, m = spec.input_len_n, spec.output_len_m
    T = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            T[i, j] = spec.seed_bits[i - j + n - 1]
    return ((T @ x.astype(np.int64)) % 2).astype(np.uint8)


def random_instance(rng, n_max=4096):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, n + 1))
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    return ex.ToeplitzSpec(n, m, seed), x


def test_zero_seed_gives_zero_output():
    spec = ex.ToeplitzSpec(16, 8, np.zeros(23, dtype=np.uint8))
    x = np.ones(16, dtype=np.uint8)
    assert not toeplitz_naive(spec, x).any()
    assert not ex.toeplitz_fast(spec, x).any()


def test_identity_diagonal_copies_prefix():
    n, m = 12, 5
    seed = np.zeros(n + m - 1, dtype=np.uint8)
    seed[n - 1] = 1  # T[i][i] = seed[n-1]
    spec = ex.ToeplitzSpec(n, m, seed)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(toeplitz_naive(spec, x), x[:m])
        assert np.array_equal(ex.toeplitz_fast(spec, x), x[:m])


def test_naive_matches_explicit_matrix_oracle():
    rng = np.random.default_rng(1)
    spec, _ = random_instance(rng)  # warm rng stream
    spec = ex.ToeplitzSpec(
        64, 32, rng.integers(0, 2, 95, dtype=np.uint8)
    )
    for _ in range(20):
        x = rng.integers(0, 2, 64, dtype=np.uint8)
        want = explicit_matrix_oracle(spec, x)
        assert np.array_equal(toeplitz_naive(spec, x), want)
        assert np.array_equal(ex.toeplitz_fast(spec, x), want)


def test_fast_equals_naive_exhaustive_inputs():
    # every input for n <= 10, m <= 4, a few seeds per shape
    rng = np.random.default_rng(2)
    for n in range(1, 11):
        for m in range(1, min(4, n) + 1):
            for _ in range(3):
                seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
                spec = ex.ToeplitzSpec(n, m, seed)
                for val in range(1 << n):
                    x = np.array(
                        [(val >> k) & 1 for k in range(n)], dtype=np.uint8
                    )
                    assert np.array_equal(
                        toeplitz_naive(spec, x), ex.toeplitz_fast(spec, x)
                    )


def test_fast_equals_naive_hundred_seeds():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 6):
        for seed_trial in range(100):
            m = min(4, n)
            seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            spec = ex.ToeplitzSpec(n, m, seed)
            for val in range(1 << n):
                x = np.array([(val >> k) & 1 for k in range(n)], dtype=np.uint8)
                assert np.array_equal(
                    toeplitz_naive(spec, x), ex.toeplitz_fast(spec, x)
                )


def test_fast_equals_naive_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(200):
        spec, x = random_instance(rng)
        assert np.array_equal(
            toeplitz_naive(spec, x), ex.toeplitz_fast(spec, x)
        )


def test_fast_equals_naive_at_tight_cyclic_length():
    # regression set; tight case: test_fast_equals_naive_at_tight_half_length
    rng = np.random.default_rng(12)
    for length in (6, 9, 10, 16, 25, 81, 120, 243, 1000, 3125, 4096):
        assert scipy.fft.next_fast_len(length, real=True) == length
        for _ in range(20):
            m = int(rng.integers(1, (length + 1) // 2 + 1))
            n = length + 1 - m
            seed = rng.integers(0, 2, length, dtype=np.uint8)
            spec = ex.ToeplitzSpec(n, m, seed)
            x = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(
                toeplitz_naive(spec, x), ex.toeplitz_fast(spec, x)
            )


def full_length_fft_hash(spec: ex.ToeplitzSpec, x: np.ndarray) -> np.ndarray:
    """The earlier fast path, an independent reference for sizes the
    dense oracle cannot hold: one cyclic convolution at the smallest fast
    length >= n+m-1, so nothing wraps onto the slice [n-1, n-1+m)."""
    n, m = spec.input_len_n, spec.output_len_m
    length = scipy.fft.next_fast_len(n + m - 1, real=True)
    spectrum = scipy.fft.rfft(spec.seed_bits.astype(np.float64), length)
    spectrum *= scipy.fft.rfft(x.astype(np.float64), length)
    conv = scipy.fft.irfft(spectrum, length)[n - 1 : n - 1 + m]
    rounded = np.rint(conv)
    assert np.max(np.abs(conv - rounded)) < ex.ROUNDING_TOLERANCE
    return (rounded.astype(np.int64) & 1).astype(np.uint8)


def half_length(n, m):
    return scipy.fft.next_fast_len((n + m) // 2, real=True)


@pytest.mark.parametrize("n", [65_537, 65_538])  # n - 1 even, then odd
def test_fast_equals_reference_on_two_threads(n, monkeypatch):
    rng = np.random.default_rng(13 + n)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    for m in (1, 2, 30_001, n - 1, n):
        assert half_length(n, m) >= ex.THREADED_MIN_HALF_LEN
        spec = ex.ToeplitzSpec(
            n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        )
        want = full_length_fft_hash(spec, x)
        assert np.array_equal(ex.toeplitz_fast(spec, x), want)
        # the same shapes with both halves on the calling thread
        with monkeypatch.context() as patch:
            patch.setattr(ex, "THREADED_MIN_HALF_LEN", 1 << 62)
            assert np.array_equal(ex.toeplitz_fast(spec, x), want)
        windows = np.lib.stride_tricks.sliding_window_view(spec.seed_bits, n)
        for i in {0, m // 2, m - 1}:
            assert want[i] == int(windows[i][::-1].astype(np.int64) @ x) & 1


def test_fast_equals_naive_at_tight_half_length():
    # (n + m) // 2 is itself a fast length, so the half length is as short
    # as the polyphase slice allows: one sample shorter wraps the top
    # coefficient of a half onto the first output, or truncates s_e.
    # The dense oracle takes the small halves, the full-length reference
    # the large ones; 1 << 15 is above the thread crossover.
    rng = np.random.default_rng(14)
    halves = (1, 2, 3, 5, 6, 9, 16, 25, 81, 120, 243, 1000, 3125, 4096, 1 << 15)
    assert halves[-1] >= ex.THREADED_MIN_HALF_LEN
    for half in halves:
        assert half_length(half, half) == half
        oracle = toeplitz_naive if half <= 243 else full_length_fft_hash
        for total in (2 * half, 2 * half + 1):
            for _ in range(20 if half <= 4096 else 3):
                m = int(rng.integers(1, total // 2 + 1))
                n = total - m
                spec = ex.ToeplitzSpec(
                    n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8)
                )
                x = rng.integers(0, 2, n, dtype=np.uint8)
                assert half_length(n, m) == half
                assert np.array_equal(oracle(spec, x), ex.toeplitz_fast(spec, x))


@pytest.mark.parametrize("transform", ["rfft", "irfft"])
def test_worker_error_leaves_the_hash_and_no_thread(transform, monkeypatch):
    real = getattr(scipy.fft, transform)

    def failing_on_worker(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker transform failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, transform, failing_on_worker)
    rng = np.random.default_rng(15)
    n = m = 1 << 16
    assert half_length(n, m) >= ex.THREADED_MIN_HALF_LEN
    spec = ex.ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker transform failed"):
        ex.toeplitz_fast(spec, x)
    assert threading.active_count() == before


def test_large_instance_spot_window():
    rng = np.random.default_rng(5)
    n, m = 1 << 20, 1 << 19
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    spec = ex.ToeplitzSpec(n, m, seed)
    y = ex.toeplitz_fast(spec, x)
    assert len(y) == m
    windows = np.lib.stride_tricks.sliding_window_view(seed, n)
    xi = x.astype(np.int64)
    for i in rng.integers(0, m, 64):
        want = int(windows[int(i)][::-1].astype(np.int64) @ xi) & 1
        assert y[int(i)] == want


def test_capacity_failure_raises_precision_error(monkeypatch):
    # beyond the a-priori capacity (about 7e12 input bits) the hash is
    # refused rather than computed by a slower path
    monkeypatch.setattr(ex, "_fft_capacity_ok", lambda *args: False)
    spec, x = random_instance(np.random.default_rng(5), n_max=64)
    with pytest.raises(ConvolutionPrecisionError):
        ex.toeplitz_fast(spec, x)


def test_zero_input_zero_output():
    rng = np.random.default_rng(6)
    spec, _ = random_instance(rng, n_max=512)
    x = np.zeros(spec.input_len_n, dtype=np.uint8)
    assert not ex.toeplitz_fast(spec, x).any()


def test_linearity():
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec, a = random_instance(rng, n_max=512)
        b = rng.integers(0, 2, spec.input_len_n, dtype=np.uint8)
        lhs = ex.toeplitz_fast(spec, a ^ b)
        rhs = ex.toeplitz_fast(spec, a) ^ ex.toeplitz_fast(spec, b)
        assert np.array_equal(lhs, rhs)


def test_spec_validation():
    with pytest.raises(ValueError):
        ex.ToeplitzSpec(4, 5, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        ex.ToeplitzSpec(4, 2, np.zeros(9, dtype=np.uint8))
    with pytest.raises(ValueError):
        ex.ToeplitzSpec(4, 2, np.array([0, 1, 2, 0, 1], dtype=np.uint8))


def flat_rate(value: float) -> RateBreakdown:
    return RateBreakdown(
        R0=value, R1=value, R_final=value,
        rescale_factor=1.0, entropy_cost=0.0, coefficient=1.0,
    )


def test_extract_aborts_below_one_bit():
    block = np.ones(100, dtype=np.uint8)
    with pytest.raises(EstimationAbort):
        ex.extract(block, flat_rate(0.5), b"\xff" * 100)
    with pytest.raises(EstimationAbort):
        ex.extract(block, flat_rate(-10.0), b"\xff" * 100)


def test_extract_floors_fractional_bits():
    rng = np.random.default_rng(8)
    block = rng.integers(0, 2, 100, dtype=np.uint8)
    result = ex.extract(block, flat_rate(17.9), rng.bytes(20))
    assert len(result.bits) == 17
    assert result.spec.output_len_m == 17
    assert result.spec.input_len_n == 100
    # the audit record holds the exact seed used
    assert len(result.spec.seed_bits) == 116


def test_extract_rejects_short_seed():
    block = np.ones(100, dtype=np.uint8)
    with pytest.raises(FormatError):
        ex.extract(block, flat_rate(50.0), b"\x00" * 10)


def test_extract_biased_input_yields_zero_vector():
    # all-zero input hashes to zero for any seed: the hash cannot add
    # entropy, only the certified length guards output quality
    block = np.zeros(64, dtype=np.uint8)
    rng = np.random.default_rng(9)
    result = ex.extract(block, flat_rate(32.0), rng.bytes(12))
    assert not result.bits.any()


def test_extract_length_scales_with_reference_run():
    # a desk-size block certified at the laser reference parameters
    # yields the reference bit count scaled by block length (the fixed
    # t_e offset is the only deviation from exact proportionality)
    from siqrng.protocol_math import MeasurementImperfection, rate_breakdown

    n_block = 1_000_000
    imp = MeasurementImperfection(0.952, 0.1, 0.1)
    rate = rate_breakdown(n_block, 0.0033, 0.001, 100, imp)
    rng = np.random.default_rng(11)
    block = rng.integers(0, 2, n_block, dtype=np.uint8)
    seed = rng.bytes((n_block + rate.whole_bits) // 8 + 1)
    result = ex.extract(block, rate, seed)
    reference_bits = 3262342467  # full-scale run over 3577108266 raw bits
    scaled = reference_bits * (n_block / 3577108266)
    assert len(result.bits) == rate.whole_bits
    assert len(result.bits) == pytest.approx(scaled, rel=2e-4)


def test_seed_bits_msb_first():
    bits = ex.seed_bits_from_bytes(b"\x80\x01", 16)
    assert bits.tolist() == [1] + [0] * 14 + [1]
    with pytest.raises(FormatError):
        ex.seed_bits_from_bytes(b"\x80", 16)
