"""The hash against an explicit matrix oracle and full-length references."""
import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from siqrng import extractor as ex
from siqrng.errors import ConvolutionPrecisionError, EstimationAbort, FormatError
from siqrng.io_formats import PackedBits
from siqrng.protocol_math import RateBreakdown

from toeplitz_oracle import ToeplitzSpec, pack, toeplitz_fast, toeplitz_naive


def explicit_matrix_oracle(spec: ToeplitzSpec, x: np.ndarray) -> np.ndarray:
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
    return ToeplitzSpec(n, m, seed), x


def test_zero_seed_gives_zero_output():
    spec = ToeplitzSpec(16, 8, np.zeros(23, dtype=np.uint8))
    x = np.ones(16, dtype=np.uint8)
    assert not toeplitz_naive(spec, x).any()
    assert not toeplitz_fast(spec, x).any()


def test_identity_diagonal_copies_prefix():
    n, m = 12, 5
    seed = np.zeros(n + m - 1, dtype=np.uint8)
    seed[n - 1] = 1  # T[i][i] = seed[n-1]
    spec = ToeplitzSpec(n, m, seed)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(toeplitz_naive(spec, x), x[:m])
        assert np.array_equal(toeplitz_fast(spec, x), x[:m])


def test_naive_matches_explicit_matrix_oracle():
    rng = np.random.default_rng(1)
    spec, _ = random_instance(rng)  # warm rng stream
    spec = ToeplitzSpec(
        64, 32, rng.integers(0, 2, 95, dtype=np.uint8)
    )
    for _ in range(20):
        x = rng.integers(0, 2, 64, dtype=np.uint8)
        want = explicit_matrix_oracle(spec, x)
        assert np.array_equal(toeplitz_naive(spec, x), want)
        assert np.array_equal(toeplitz_fast(spec, x), want)


def test_fast_equals_naive_exhaustive_inputs():
    # every input for n <= 10, m <= 4, a few seeds per shape
    rng = np.random.default_rng(2)
    for n in range(1, 11):
        for m in range(1, min(4, n) + 1):
            for _ in range(3):
                seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
                spec = ToeplitzSpec(n, m, seed)
                for val in range(1 << n):
                    x = np.array(
                        [(val >> k) & 1 for k in range(n)], dtype=np.uint8
                    )
                    assert np.array_equal(
                        toeplitz_naive(spec, x), toeplitz_fast(spec, x)
                    )


def test_fast_equals_naive_hundred_seeds():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 6):
        for seed_trial in range(100):
            m = min(4, n)
            seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            spec = ToeplitzSpec(n, m, seed)
            for val in range(1 << n):
                x = np.array([(val >> k) & 1 for k in range(n)], dtype=np.uint8)
                assert np.array_equal(
                    toeplitz_naive(spec, x), toeplitz_fast(spec, x)
                )


def test_fast_equals_naive_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(200):
        spec, x = random_instance(rng)
        assert np.array_equal(
            toeplitz_naive(spec, x), toeplitz_fast(spec, x)
        )


def test_fast_equals_naive_at_tight_cyclic_length():
    # regression set; tight case: test_fast_equals_naive_at_tight_four_step_length
    rng = np.random.default_rng(12)
    for length in (6, 9, 10, 16, 25, 81, 120, 243, 1000, 3125, 4096):
        assert scipy.fft.next_fast_len(length, real=True) == length
        for _ in range(20):
            m = int(rng.integers(1, (length + 1) // 2 + 1))
            n = length + 1 - m
            seed = rng.integers(0, 2, length, dtype=np.uint8)
            spec = ToeplitzSpec(n, m, seed)
            x = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(
                toeplitz_naive(spec, x), toeplitz_fast(spec, x)
            )


def full_length_fft_hash(spec: ToeplitzSpec, x: np.ndarray) -> np.ndarray:
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


@pytest.mark.parametrize("n", [65_537, 65_538])  # n - 1 even, then odd
def test_fast_equals_full_length_reference(n):
    rng = np.random.default_rng(13 + n)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    for m in (1, 2, 30_001, n - 1, n):
        spec = ToeplitzSpec(
            n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        )
        want = full_length_fft_hash(spec, x)
        assert np.array_equal(toeplitz_fast(spec, x), want)
        windows = np.lib.stride_tricks.sliding_window_view(spec.seed_bits, n)
        for i in {0, m // 2, m - 1}:
            assert want[i] == int(windows[i][::-1].astype(np.int64) @ x) & 1


def smallest_smooth_len(target: int) -> int:
    """Brute force: the first 2·3·5-smooth integer from target on."""
    length = target
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def test_four_step_shape_is_the_smallest_fast_length():
    # the grid holds exactly next_fast_len(total) samples, whatever the
    # factorisation of that length; 78 125 = 5^7 has no fast divisor
    # within a factor 2 of its square root
    for total in [*range(1, 4097), 3125, 78_125, 1 << 15, 131_073, 19_036_477]:
        size = scipy.fft.next_fast_len(total, real=True)
        assert ex._fast_len(total) == size, total
        if total <= 131_073:
            assert smallest_smooth_len(total) == size, total
        n1, n2 = ex._four_step_shape(total)
        assert n1 * n2 == size
        assert n1 >= -(-math.isqrt(size) // 2)
    # the shape of the ingest_extract benchmark's hash (n + m - 1)
    assert ex._four_step_shape(19_036_477) == (2187, 8748)


def test_fast_equals_naive_at_tight_four_step_length():
    # n + m - 1 == N1 * N2 exactly, so the cyclic length is as short as
    # the slice allows: one sample shorter wraps c[2n+m-3] onto the first
    # output. The dense oracle checks the small totals, whose shapes
    # include N1 = 1, odd N1 and even N1; the full-length reference
    # checks the large ones. The input's spectrum is formed in the bin
    # rows [0, K/2) and [K/2, K), K = N1//2 + 1: K = 1 (N <= 8) leaves
    # the first band empty, K = 2 gives one row each and an odd K
    # unequal bands.
    rng = np.random.default_rng(14)
    small = (4, 6, 16, 18, 25, 27, 30, 81, 100, 120, 243, 1000, 2025, 4096)
    large = (1 << 16, 72_900, 118_098)
    column_lengths = set()
    for total in small + large:
        n1, n2 = ex._four_step_shape(total)
        assert n1 * n2 == total and n2 > 1
        if total in small:
            column_lengths.add(n1)
        oracle = toeplitz_naive if total in small else full_length_fft_hash
        for _ in range(20 if total in small else 3):
            m = int(rng.integers(1, (total + 1) // 2 + 1))
            n = total + 1 - m
            spec = ToeplitzSpec(
                n, m, rng.integers(0, 2, total, dtype=np.uint8)
            )
            x = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(oracle(spec, x), toeplitz_fast(spec, x))
    assert 1 in column_lengths
    assert any(n1 % 2 for n1 in column_lengths - {1})
    assert any(n1 % 2 == 0 for n1 in column_lengths)
    rows = {n1 // 2 + 1 for n1 in column_lengths}
    assert {1, 2} <= rows and any(k % 2 for k in rows - {1})


@pytest.mark.parametrize(
    "shape", [(2, 8), (32, 128), (9, 27), (135, 540), (1, 12), (12, 1)]
)
def test_four_step_forward_equals_rfft(shape):
    # bin k1 + N1*k2 of the length-N1*N2 DFT sits at [k1, k2]; bins past
    # N/2 are conjugates of the rfft's. (1, 12) is one row, (12, 1) one
    # column.
    n1, n2 = shape
    size = n1 * n2
    bits = np.random.default_rng(size).integers(0, 2, size - 3, dtype=np.uint8)
    twiddles = ex._twiddles(n1, n2)
    got = ex._forward(pack(bits), shape, twiddles)
    half = scipy.fft.rfft(bits.astype(np.float64), size)
    k = np.arange(n1 // 2 + 1)[:, None] + n1 * np.arange(n2)
    mirrored = k > size // 2
    want = half[np.where(mirrored, size - k, k)]
    want[mirrored] = want[mirrored].conj()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    # a band of bin rows is those rows of the whole half-spectrum
    rows = (n1 // 4, n1 // 2 + 1)
    band = ex._forward(pack(bits), shape, twiddles, rows)
    assert np.array_equal(band, got[rows[0] : rows[1]])


@pytest.mark.parametrize("n2", [40, 41, 42, 43, 44, 45, 46, 47])
def test_packed_gather_equals_rfft(n2, monkeypatch):
    # grid rows fall into 8 / gcd(N2, 8) bit-phase classes, so every
    # residue of N2 mod 8 takes its own strided views; bit counts end on
    # a byte and a row, mid-byte, mid-row, and short of one full row.
    # Blocks one twiddle step wide put column blocks at every bit phase.
    n1 = 12
    size = n1 * n2
    twiddles = ex._twiddles(n1, n2)
    monkeypatch.setattr(ex, "BLOCK_BYTES", 16 * (n1 // 2 + 1))
    assert len(ex._column_blocks(n1, n2, len(twiddles[1]))) > 1
    rng = np.random.default_rng(n2)
    k = np.arange(n1 // 2 + 1)[:, None] + n1 * np.arange(n2)
    mirrored = k > size // 2
    for count in {size, size - 8, size - 5, 3 * n2 + 7, n2 - 1, 8 * 23}:
        bits = rng.integers(0, 2, count, dtype=np.uint8)
        got = ex._forward(pack(bits), (n1, n2), twiddles)
        half = np.fft.rfft(bits.astype(np.float64), size)
        want = half[np.where(mirrored, size - k, k)]
        want[mirrored] = want[mirrored].conj()
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), count
        band = ex._forward(pack(bits), (n1, n2), twiddles, (2, 5))
        assert np.array_equal(band, got[2:5]), count


def test_transforms_run_on_the_calling_thread(monkeypatch):
    rng = np.random.default_rng(15)
    n = m = 1 << 16
    assert ex._four_step_shape(n + m - 1)[1] > 1
    spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    want = full_length_fft_hash(spec, x)
    calls = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        real = getattr(np.fft, name)

        def on_calling_thread(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, on_calling_thread)
    before = threading.active_count()
    assert np.array_equal(toeplitz_fast(spec, x), want)
    assert threading.active_count() == before
    assert {name for name, _ in calls} == {"rfft", "irfft", "fft", "ifft"}
    assert all(on_main for _, on_main in calls)


@pytest.mark.parametrize("transform", ["rfft", "irfft"])
def test_worker_error_leaves_the_hash_and_no_thread(transform, monkeypatch):
    # an error in a transform down the columns of a four-step grid (the
    # real transforms run only there) must reach the caller and leave no
    # thread behind
    def failing_on_columns(*args, **kwargs):
        raise RuntimeError("column transform failed")

    monkeypatch.setattr(np.fft, transform, failing_on_columns)
    rng = np.random.default_rng(15)
    n = m = 1 << 16
    assert ex._four_step_shape(n + m - 1)[1] > 1
    spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="column transform failed"):
        toeplitz_fast(spec, x)
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_rounding_is_checked_in_every_column_block(where, monkeypatch):
    # 0.3 added to one used coefficient of one column block, after the
    # inverse column transform, must stop the hash
    rng = np.random.default_rng(16)
    n = m = 1 << 16
    spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    n1, n2 = ex._four_step_shape(n + m - 1)
    monkeypatch.setattr(ex, "BLOCK_BYTES", 16 * (n1 // 2 + 1))  # one step wide
    blocks = ex._column_blocks(n1, n2, len(ex._twiddles(n1, n2)[1]))
    assert len(blocks) >= 3
    target = {"first": 0, "middle": len(blocks) // 2, "last": len(blocks) - 1}[where]
    lo, hi = blocks[target]
    row = (n - 1 + m // 2) // n2
    assert n - 1 <= row * n2 + lo < n - 1 + m
    calls = []
    real = np.fft.irfft

    def off_by_three_tenths(*args, **kwargs):
        # a block's columns come out as rows, each indexed by grid row
        out = real(*args, **kwargs)
        if len(calls) == target:
            assert out.shape == (hi - lo, n1)
            out[0, row] += 0.3
        calls.append(len(out))
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_three_tenths)
    with pytest.raises(ConvolutionPrecisionError, match="off an integer by 0.3"):
        toeplitz_fast(spec, x)
    assert len(calls) == target + 1


def test_peak_allocation_is_one_spectrum_a_band_and_a_block():
    # the seed's half-spectrum and a band of the input's take 1.5x; two
    # whole half-spectra took it to 2.2x and whole-grid transforms to 3.0x
    rng = np.random.default_rng(17)
    n, m = 1 << 20, 1 << 19
    spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    n1, n2 = ex._four_step_shape(n + m - 1)
    half_spectrum = (n1 // 2 + 1) * n2 * 16
    tracemalloc.start()
    try:
        toeplitz_fast(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * half_spectrum, peak / half_spectrum


def test_large_instance_spot_window():
    rng = np.random.default_rng(5)
    n, m = 1 << 20, 1 << 19
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    spec = ToeplitzSpec(n, m, seed)
    y = toeplitz_fast(spec, x)
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
        toeplitz_fast(spec, x)


def test_zero_input_zero_output():
    rng = np.random.default_rng(6)
    spec, _ = random_instance(rng, n_max=512)
    x = np.zeros(spec.input_len_n, dtype=np.uint8)
    assert not toeplitz_fast(spec, x).any()


def test_linearity():
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec, a = random_instance(rng, n_max=512)
        b = rng.integers(0, 2, spec.input_len_n, dtype=np.uint8)
        lhs = toeplitz_fast(spec, a ^ b)
        rhs = toeplitz_fast(spec, a) ^ toeplitz_fast(spec, b)
        assert np.array_equal(lhs, rhs)


def flat_rate(value: float) -> RateBreakdown:
    return RateBreakdown(
        R0=value, R1=value, R_final=value,
        rescale_factor=1.0, entropy_cost=0.0, coefficient=1.0,
    )


def test_extract_aborts_below_one_bit():
    block = pack(np.ones(100, dtype=np.uint8))
    with pytest.raises(EstimationAbort):
        ex.extract(block, flat_rate(0.5), b"\xff" * 100)
    with pytest.raises(EstimationAbort):
        ex.extract(block, flat_rate(-10.0), b"\xff" * 100)


def test_extract_floors_fractional_bits():
    rng = np.random.default_rng(8)
    block = rng.integers(0, 2, 100, dtype=np.uint8)
    seed = rng.bytes(20)
    result = ex.extract(pack(block), flat_rate(17.9), seed)
    assert len(result.bits) == 17
    # the hash takes the first n + m - 1 = 116 bits of the seed
    seed_bits = np.unpackbits(np.frombuffer(seed, np.uint8), count=116)
    spec = ToeplitzSpec(100, 17, seed_bits)
    # the 3 bytes written as they are: the 7 bits past the 17 are zero
    want = np.packbits(toeplitz_naive(spec, block))
    assert np.array_equal(result.bits.data, want)


def test_extract_rejects_short_seed():
    block = pack(np.ones(100, dtype=np.uint8))
    with pytest.raises(FormatError):
        ex.extract(block, flat_rate(50.0), b"\x00" * 10)


def test_extract_rejects_more_bits_than_input():
    block = pack(np.ones(100, dtype=np.uint8))
    with pytest.raises(ValueError, match="exceed the 100 raw bits"):
        ex.extract(block, flat_rate(101.0), b"\xff" * 100)


def test_extract_biased_input_yields_zero_vector():
    # all-zero input hashes to zero for any seed: the hash cannot add
    # entropy, only the certified length guards output quality
    block = pack(np.zeros(64, dtype=np.uint8))
    rng = np.random.default_rng(9)
    result = ex.extract(block, flat_rate(32.0), rng.bytes(12))
    assert not result.bits.data.any()


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
    result = ex.extract(pack(block), rate, seed)
    reference_bits = 3262342467  # full-scale run over 3577108266 raw bits
    scaled = reference_bits * (n_block / 3577108266)
    assert len(result.bits) == rate.whole_bits
    assert len(result.bits) == pytest.approx(scaled, rel=2e-4)


def test_seed_bits_msb_first():
    seed = PackedBits.prefix(b"\x80\x01", 16)
    assert len(seed) == 16
    assert np.unpackbits(seed.data).tolist() == [1] + [0] * 14 + [1]
    with pytest.raises(FormatError):
        PackedBits.prefix(b"\x80", 16)
    # only the bytes that hold the bits are taken, with the bits past
    # the count cleared, from bytes or from a uint8 array alike
    assert PackedBits.prefix(b"\xff\xff\xff", 12).data.tolist() == [0xFF, 0xF0]
    ones = np.full(3, 0xFF, np.uint8)
    assert PackedBits.prefix(ones, 12).data.tolist() == [0xFF, 0xF0]
    assert PackedBits.prefix(ones, 0).data.tolist() == []


def test_extract_peak_allocation_holds_no_unpacked_seed():
    # the seed's half-spectrum and a band of the input's take 1.5x, the
    # twiddle tables and a column block's temporaries come on top, and
    # the packed seed takes (n + m - 1) / 8 bytes; the seed unpacked at
    # one byte per bit took n + m - 1 bytes more
    rng = np.random.default_rng(18)
    n, m = 1 << 20, 1 << 19
    x = pack(rng.integers(0, 2, n, dtype=np.uint8))
    seed = rng.bytes((n + m - 1) // 8 + 1)
    n1, n2 = ex._four_step_shape(n + m - 1)
    half_spectrum = (n1 // 2 + 1) * n2 * 16
    fixed = sum(t.nbytes for t in ex._twiddles(n1, n2)) + 4 * ex.BLOCK_BYTES
    tracemalloc.start()
    try:
        result = ex.extract(x, flat_rate(float(m)), seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.bits) == m
    over = peak - 1.5 * half_spectrum - fixed
    assert over < (n + m - 1) / 4, over / (n + m - 1)
