"""Toeplitz hashing over GF(2): compress the raw generation-basis string
to the certified number of bits.

The matrix T is n columns by m rows with T[i][j] = seed[i - j + n - 1],
so row i reads the seed slice [i, i+n) reversed and the product equals a
slice of the integer convolution seed * input reduced mod 2. The hash
computes that convolution with FFTs in four-step form at every size
(Bailey, "FFTs in external or hierarchical memory", J. Supercomputing 4,
1990) and verifies — never assumes — that every used coefficient rounds
to an exact integer. The seed, the raw bits and the certified bits are
all io_formats.PackedBits: the hash reads its inputs packed and returns
its output packed, with the bits past m zero, as write_bits stores it.
The battery's spectral test (stat_suite) runs its DFT on the same
four-step forward transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvolutionPrecisionError, EstimationAbort
from .io_formats import PackedBits
from .protocol_math import RateBreakdown

#: Maximum tolerated distance of a convolution coefficient from its
#: nearest integer before the result is considered unverifiable.
ROUNDING_TOLERANCE = 0.25

#: Bytes of the bins of one block of grid columns (at least one twiddle
#: step wide). The column transforms, twiddles and rounding run a block
#: at a time, so the hash holds about one block besides the seed's
#: half-spectrum and a band of the input's, and the spectral test
#: (stat_suite) one block besides its half-spectrum. Blocks are
#: transposed in and out, which slows once a block leaves the cache: a
#: 1e5-point hash takes 6.2-6.7 ms with blocks of 64-256 KiB and 8.4 ms
#: from 1 MiB on. At the benchmark's shape one twiddle step already
#: exceeds 256 KiB (BENCH_numpy_hash.json).
BLOCK_BYTES = 1 << 18


def _fft_capacity_ok(seed: PackedBits, x: PackedBits, length: int) -> bool:
    """Conservative a-priori check that FFT round-off cannot reach 1/2.

    Round-off of a length-L real-FFT convolution is bounded by
    C * eps * log2(L) * ||a||_2 * ||b||_2; C = 8 is generous. The
    four-step form keeps that O(eps log L) growth: its short transforms
    along each axis add log2(N1) + log2(N2) = log2(L) levels, and its
    twiddle factors are accurate to a few eps (exact integer exponents,
    a coarse times a fine factor), which C absorbs.
    """
    norm = math.sqrt(float(np.bitwise_count(seed.data).sum())) * math.sqrt(
        float(np.bitwise_count(x.data).sum())
    )
    err = 8.0 * np.finfo(np.float64).eps * math.log2(max(2, length)) * norm
    return err < ROUNDING_TOLERANCE


def _fast_len(target: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= target, for target >= 1: for each
    3**b * 5**c below the best length so far, the power of two that lifts
    it to target."""
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            length = odd << (-(-target // odd) - 1).bit_length()
            if length < best:
                best = length
            odd *= 3
        odd5 *= 5
    return best


def _four_step_shape(total: int) -> tuple[int, int]:
    """(N1, N2) for the smallest fast length N >= total: N1 is the
    smallest divisor of N from isqrt(N)/2 on and N2 = N/N1, so that each
    transform is a batch of short ones. N <= 8 takes N1 = 1, one row."""
    size = _fast_len(total)
    n1 = -(-math.isqrt(size) // 2)
    while size % n1:
        n1 += 1
    return n1, size // n1


def _twiddles(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The four-step twiddle exp(-2 pi i k1 j2 / N1 N2) of the bins
    k1 = 0..N1//2 as a coarse and a fine factor, laid out for a column
    block with the columns j2 as rows: with j2 = a*B + b and B the
    largest divisor of N2 up to its square root, coarse[a, 0, k1] takes
    the exponent k1*a*B and fine[b, k1] the exponent k1*b. Exponents
    are exact integers below N1 N2 and each product is off by a few eps
    (bin 0's factor is exactly 1); the full table would be as large as
    a spectrum."""
    block = math.isqrt(n2)
    while n2 % block:
        block -= 1
    w = -2j * math.pi / (n1 * n2)
    k1 = np.arange(n1 // 2 + 1)
    coarse = np.exp(np.arange(0, n2, block)[:, None, None] * k1 * w)
    fine = np.exp(np.arange(block)[:, None] * k1 * w)
    return coarse, fine


def _column_blocks(n1: int, n2: int, step: int) -> list[tuple[int, int]]:
    """Column ranges [lo, hi) of the (N1, N2) grid, each a whole number of
    twiddle steps B wide, so that the block's bins, an
    (hi - lo, N1//2 + 1) complex array, take about BLOCK_BYTES."""
    width = step * max(1, BLOCK_BYTES // (16 * (n1 // 2 + 1) * step))
    return [(lo, min(lo + width, n2)) for lo in range(0, n2, width)]


def _twiddle(block: np.ndarray, coarse: np.ndarray, fine: np.ndarray, lo: int) -> None:
    """Multiply a column block, the grid columns lo, lo+1, ... as its
    rows, by their twiddles, in place."""
    step = len(fine)
    steps = block.reshape(len(block) // step, step, -1)
    steps *= coarse[lo // step : lo // step + len(steps)]
    steps *= fine


def _forward(bits, shape: tuple[int, int], twiddles, rows=None, rfft=None) -> np.ndarray:
    """Bins of the DFT of bits zero-padded to N = N1*N2, in four steps
    over the row-major (N1, N2) grid j = j1*N2 + j2: real FFTs of length
    N1 down the columns, the twiddles, and FFTs of length N2 along the
    rows. Bin k1 + N1*k2 lands at [k1, k2] for k1 = 0..N1//2; the other
    bins are their conjugates, since the input is real. Only the rows
    k1 in [lo, hi) = ``rows`` (all of them by default) are kept, twiddled
    and transformed along. The column steps run a block of columns at a
    time, unpacked straight from the PackedBits: grid row r starts at bit
    r*N2, so the full rows r, r + P, ... with P = 8/gcd(N2, 8) start at
    one bit phase, one strided byte view that one unpackbits call reads.
    The last partial row is padded, and the real FFT (``rfft``, by
    default numpy.fft.rfft as it is at the call) pads each column to N1.
    The row steps run in place."""
    n1, n2 = shape
    first, last = rows or (0, n1 // 2 + 1)
    rfft = rfft or np.fft.rfft
    coarse, fine = (table[..., first:last] for table in twiddles)
    full, rest = divmod(len(bits), n2)
    period = 8 // math.gcd(n2, 8)
    data, at = bits.data, full * n2
    tail = np.zeros(n2, dtype=np.uint8)
    tail[:rest] = np.unpackbits(data[at // 8 :], count=at % 8 + rest)[at % 8 :]
    spectrum = np.empty((last - first, n2), dtype=complex)
    for lo, hi in _column_blocks(n1, n2, len(fine)):
        columns = np.empty((hi - lo, full + (rest > 0)))
        for row in range(min(period, full)):
            byte, phase = divmod(row * n2 + lo, 8)
            view = np.ndarray(
                ((full - row - 1) // period + 1, (phase + hi - lo + 7) // 8),
                np.uint8, data, byte, (period * n2 // 8, 1),
            )
            unpacked = np.unpackbits(view, axis=1)[:, phase : phase + hi - lo]
            columns[:, row:full:period] = unpacked.T
        if rest:
            columns[:, full] = tail[lo:hi]
        block = rfft(columns, n1, axis=1)[:, first:last]
        _twiddle(block, coarse, fine, lo)
        spectrum[:, lo:hi] = block.T
    return np.fft.fft(spectrum, axis=1, out=spectrum)


def _hash(seed: PackedBits, x: PackedBits, m: int) -> PackedBits:
    """FFT-convolution product of n + m - 1 packed seed bits and n packed
    input bits as m packed bits, bit-identical to the dense matrix product.

    The Toeplitz product is the slice [n-1, n-1+m) of the integer
    convolution c = seed * input. It is computed as one cyclic
    convolution at the smallest fast length N >= n+m-1, laid out as an
    (N1, N2) grid (_four_step_shape): from index n-1 on, the wrapped
    coefficients c[k+N] lie past the linear length 2n+m-2, so nothing
    wraps onto the slice. Both forward transforms and the inverse run in
    four-step form at every size (_forward; the inverse takes the same
    steps backwards with conjugate twiddles), and the inverse's
    row-major grid is c in natural order. The hash holds the seed's
    half-spectrum, half of the input's and one block of columns: the
    input's spectrum is formed in two bands of bin rows, each multiplied
    into the seed's as it is done, so the input's column steps run
    twice; the inverse column transforms, the rounding and the parity
    run block by block, on the grid rows that hold the slice. Every
    transform runs on the calling thread alone: split over threads, a
    batch waits for its slowest share, so where the CPUs are shared with
    other work the hash's time would depend on that work.

    Every used coefficient is verified to sit within ROUNDING_TOLERANCE
    of an integer. An input too large for the a-priori capacity check
    (about 7e12 bits) is refused with ConvolutionPrecisionError.
    """
    n = len(x)
    n1, n2 = shape = _four_step_shape(n + m - 1)
    if not _fft_capacity_ok(seed, x, n1 * n2):
        raise ConvolutionPrecisionError(
            f"FFT length {n1 * n2} exceeds the verified-exact capacity"
        )
    coarse, fine = twiddles = _twiddles(n1, n2)
    spectrum = _forward(seed, shape, twiddles)
    bins = n1 // 2 + 1
    for rows in ((0, bins // 2), (bins // 2, bins)):
        if rows[0] < rows[1]:  # N1 = 1 leaves the first band empty
            spectrum[slice(*rows)] *= _forward(x, shape, twiddles, rows)
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    coarse, fine = coarse.conj(), fine.conj()
    # grid rows first..last-1 hold the slice [n-1, n-1+m)
    first, last = (n - 1) // n2, (n + m - 2) // n2 + 1
    parity = np.empty((last - first, n2), dtype=np.uint8)
    for lo, hi in _column_blocks(n1, n2, len(fine)):
        block = np.ascontiguousarray(spectrum[:, lo:hi].T)
        _twiddle(block, coarse, fine, lo)
        conv = np.fft.irfft(block, n1, axis=1)[:, first:last]
        conv = np.ascontiguousarray(conv.T)  # grid rows, contiguous
        rounded = np.rint(conv)
        conv -= rounded
        dev = float(np.abs(conv, out=conv).max())
        if dev >= ROUNDING_TOLERANCE:
            raise ConvolutionPrecisionError(
                f"convolution coefficient off an integer by {dev:.3g}"
            )
        whole = rounded.astype(np.int64)
        whole &= 1
        parity[:, lo:hi] = whole
    start = n - 1 - first * n2
    return PackedBits(np.packbits(parity.reshape(-1)[start : start + m]), m)


@dataclass(frozen=True)
class ExtractionResult:
    """Certified output bits."""

    bits: PackedBits


def extract(bits: PackedBits, rate: RateBreakdown, seed: bytes) -> ExtractionResult:
    """Hash the raw bits down to floor(R_final) certified bits.

    ``seed`` is the operator-provided seed material; it must cover
    n + m - 1 bits, and only those are read. Aborts when no positive
    whole bit count is certified.
    """
    m = rate.whole_bits
    if m <= 0:
        raise EstimationAbort(
            f"certified length {rate.R_final:.6g} floors to 0 bits; "
            "refusing to extract"
        )
    n = len(bits)
    if m > n:
        raise ValueError(f"certified {m} bits exceed the {n} raw bits")
    return ExtractionResult(bits=_hash(PackedBits.prefix(seed, n + m - 1), bits, m))
