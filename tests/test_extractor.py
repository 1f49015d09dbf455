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
    # checks the large ones, whose input spectra are formed in residue
    # bands (R > 1), odd and even R among them.
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
    residues = {ex._residue(*ex._four_step_shape(total)) for total in large}
    assert any(r % 2 for r in residues) and any(r % 2 == 0 for r in residues - {1})


def assert_bands_equal_forward(bits, shape, half):
    """Every residue-class band, for every R that divides N1 up to 16,
    holds the bins of the one-dimensional DFT of the same bits at length
    N = N1*N2, of which ``half`` is the real FFT, to 1e-12 of its largest
    bin: row k' of class r holds the bins k = k1 + N1*k2 with
    k1 = r + R*k', and a bin past N/2 is the conjugate of bin N - k."""
    n1, n2 = shape
    size = n1 * n2
    scale = max(1.0, np.abs(half).max())
    for residue in [r for r in range(1, 17) if n1 % r == 0]:
        length = n1 // residue
        index = ex._patterns(bits, shape, residue)
        tables = ex._band_twiddles(shape, residue)
        for r in range(residue // 2 + 1):
            out = np.empty((length, n2), dtype=complex)
            band = ex._band(index, shape, tables, residue, r, out)
            used = len(band) if r == 0 else ex._rows_used(shape, residue, r)
            k = (r + residue * np.arange(used))[:, None] + n1 * np.arange(n2)
            want = half[np.minimum(k, size - k)]
            want[k > size // 2] = want[k > size // 2].conj()
            got = band[:used]
            assert np.abs(got - want).max() <= 1e-12 * scale, (shape, residue, r)


def cyclic_convolution(a, b, shape):
    """The length-N1*N2 cyclic convolution of two 0/1 arrays by one
    full-length real FFT, as the row-major (N1, N2) grid."""
    size = shape[0] * shape[1]
    spectrum = np.fft.rfft(a.astype(np.float64), size)
    spectrum *= np.fft.rfft(b.astype(np.float64), size)
    return np.fft.irfft(spectrum, size).reshape(shape)


def test_residue_is_the_largest_divisor_with_a_band_of_a_block():
    # the benchmark's and the default pipeline's grids take the largest
    # divisor of N1 up to 16; a band under BLOCK_BYTES saves nothing
    assert ex._residue(2187, 8748) == 9  # ingest_extract
    assert ex._residue(1600, 6075) == 16  # the default pipeline
    assert ex._residue(768, 2048) == 16
    assert ex._residue(1, 1 << 20) == 1
    for n1 in range(1, 200):
        for n2 in (1, 64, 1000, 1 << 14):
            r = ex._residue(n1, n2)
            band = n1 // r * n2 * 16
            assert n1 % r == 0 and r <= 16 and (r == 1 or band >= ex.BLOCK_BYTES)
            assert not any(
                n1 % d == 0 and n1 // d * n2 * 16 >= ex.BLOCK_BYTES
                for d in range(r + 1, 17)
            )


@pytest.mark.parametrize("n1", range(1, 65))
def test_residue_bands_equal_forward(n1):
    # every N1 up to 64 with every R it admits: odd and even R, L = N1/R
    # odd and even, R = N1 (L = 1) and R = 1; N2 odd and even, with bit
    # counts that fill the grid, end mid-byte, stop inside a segment of
    # L grid rows, and hold one bit
    rng = np.random.default_rng(n1)
    for n2 in (7, 12):
        shape, size = (n1, n2), n1 * n2
        for count in sorted({size, size - 5, n1 // 2 * n2 + 3, 1}):
            bits = rng.integers(0, 2, count, dtype=np.uint8)
            half = np.fft.rfft(bits.astype(np.float64), size)
            assert_bands_equal_forward(pack(bits), shape, half)


@pytest.mark.parametrize("n1", range(1, 65))
def test_banded_inverse_equals_cyclic_convolution(n1):
    # every N1 up to 64 with every R it admits, N2 odd and even, and
    # the used grid rows at the start, in the middle, at the end and
    # all of the grid, against one full-length FFT convolution; the
    # inputs fill the grid or end mid-byte
    rng = np.random.default_rng(100 + n1)
    for n2 in (7, 12):
        shape, size = (n1, n2), n1 * n2
        a = rng.integers(0, 2, size, dtype=np.uint8)
        b = rng.integers(0, 2, max(1, size - 5), dtype=np.uint8)
        want = cyclic_convolution(a, b, shape)
        half = max(1, n1 // 2)
        spans = {(0, half), (n1 // 3, n1 // 3 + half), (n1 - half, n1), (0, n1)}
        for residue in [r for r in range(1, 17) if n1 % r == 0]:
            for first, last in spans:
                got = ex._convolve(pack(a), pack(b), shape, residue, (first, last))
                assert got.shape == (last - first, n2)
                assert np.abs(got - want[first:last]).max() < 1e-9, (n2, residue, first)


@pytest.mark.parametrize(
    "shape", [(2, 8), (32, 128), (9, 27), (135, 540), (1, 12), (12, 1)]
)
def test_four_step_forward_equals_rfft(shape):
    # bin k1 + N1*k2 of the length-N1*N2 DFT sits in row k1 of its
    # residue class's band; bins past N/2 are conjugates of the rfft's.
    # (1, 12) is one row, (12, 1) one column.
    n1, n2 = shape
    size = n1 * n2
    bits = np.random.default_rng(size).integers(0, 2, size - 3, dtype=np.uint8)
    half = scipy.fft.rfft(bits.astype(np.float64), size)
    assert_bands_equal_forward(pack(bits), shape, half)


@pytest.mark.parametrize("n2", [40, 41, 42, 43, 44, 45, 46, 47])
def test_packed_gather_equals_rfft(n2, monkeypatch):
    # segment b of the pattern index starts at bit b*L*N2, so every
    # residue of N2 mod 8 puts the segments at its own bit phases; bit
    # counts end on a byte and a row, mid-byte, mid-row, and short of
    # one full row. A BLOCK_BYTES of 112 makes the table lookups take
    # 14 indices at a time, fewer than a grid row.
    n1 = 12
    size = n1 * n2
    monkeypatch.setattr(ex, "BLOCK_BYTES", 16 * (n1 // 2 + 1))
    rng = np.random.default_rng(n2)
    for count in {size, size - 8, size - 5, 3 * n2 + 7, n2 - 1, 8 * 23}:
        bits = rng.integers(0, 2, count, dtype=np.uint8)
        half = np.fft.rfft(bits.astype(np.float64), size)
        assert_bands_equal_forward(pack(bits), (n1, n2), half)


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
def test_rounding_is_checked_in_every_accumulator_block(where, monkeypatch):
    # 0.3 added to one used coefficient of the first, a middle or the last
    # block of the accumulator that the rounding takes at a time must
    # stop the hash
    rng = np.random.default_rng(16)
    n = m = 1 << 16
    spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    n1, n2 = ex._four_step_shape(n + m - 1)
    monkeypatch.setattr(ex, "BLOCK_BYTES", 1 << 14)
    step = ex.BLOCK_BYTES // 8  # coefficients a block
    blocks = -(-m // step)
    assert blocks >= 3 and ex._residue(n1, n2) > 1
    at = {"first": step // 2, "middle": blocks // 2 * step + 5, "last": m - 1}[where]
    first = (n - 1) // n2
    real = ex._convolve

    def off_by_three_tenths(*args):
        acc = real(*args)
        acc.reshape(-1)[n - 1 - first * n2 + at] += 0.3
        return acc

    monkeypatch.setattr(ex, "_convolve", off_by_three_tenths)
    with pytest.raises(ConvolutionPrecisionError, match="off an integer by 0.3"):
        toeplitz_fast(spec, x)


def hash_peak_bound(n: int, m: int) -> int:
    """What the hash of n input bits to m may allocate: the accumulator
    of the used grid rows, 8 bytes a coefficient, two residue bands of
    (L, N2) complex and the two uint16 pattern indices, with the twiddle
    tables, the 2^R-entry phasor table and four blocks of temporaries on
    top."""
    n1, n2 = shape = ex._four_step_shape(n + m - 1)
    residue = ex._residue(n1, n2)
    first, last = (n - 1) // n2, (n + m - 2) // n2 + 1
    band = n1 // residue * n2 * 16
    tables = 2 * sum(t.nbytes for t in ex._band_twiddles(shape, residue)[:2])
    bound = 8 * (last - first) * n2 + 2 * band + 2 * band // 8 + tables
    return bound + (16 << residue) + 4 * ex.BLOCK_BYTES


def test_peak_allocation_is_one_spectrum_a_band_and_a_block():
    # hash_peak_bound, with the packed inputs on top: 0.87 of a
    # half-spectrum at this shape, and no spectrum is ever whole. The
    # seed's half-spectrum with one input band took 1.30 half-spectra,
    # two contiguous bands of bin rows 1.6, two whole half-spectra 2.2
    # and whole-grid transforms 3.0
    rng = np.random.default_rng(17)
    n, m = 1 << 20, 1 << 19
    spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
    x = rng.integers(0, 2, n, dtype=np.uint8)
    n1, n2 = ex._four_step_shape(n + m - 1)
    assert ex._residue(n1, n2) >= 8
    bound = hash_peak_bound(n, m) + (2 * n + m) // 8  # the packed inputs
    assert bound < (n1 // 2 + 1) * n2 * 16  # less than one half-spectrum
    tracemalloc.start()
    try:
        toeplitz_fast(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


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
    # the hash's own allocations (hash_peak_bound) and the packed seed,
    # (n + m - 1) / 8 bytes, with less than that again to spare; the
    # seed unpacked at one byte per bit took n + m - 1 bytes more
    rng = np.random.default_rng(18)
    n, m = 1 << 20, 1 << 19
    x = pack(rng.integers(0, 2, n, dtype=np.uint8))
    seed = rng.bytes((n + m - 1) // 8 + 1)
    tracemalloc.start()
    try:
        result = ex.extract(x, flat_rate(float(m)), seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.bits) == m
    over = peak - hash_peak_bound(n, m)
    assert over < (n + m - 1) / 4, over / (n + m - 1)
