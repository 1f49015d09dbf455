"""Toeplitz hashing over GF(2): compress the raw generation-basis string
to the certified number of bits.

The matrix T is n columns by m rows with T[i][j] = seed[i - j + n - 1],
so row i reads the seed slice [i, i+n) reversed and the product equals a
slice of the integer convolution seed * input reduced mod 2. The hash
computes that convolution with FFTs in four-step form at every size
(Bailey, "FFTs in external or hierarchical memory", J. Supercomputing 4,
1990) and verifies — never assumes — that every used coefficient rounds
to an exact integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConvolutionPrecisionError, EstimationAbort, FormatError
from .protocol_math import RateBreakdown

#: Maximum tolerated distance of a convolution coefficient from its
#: nearest integer before the result is considered unverifiable.
ROUNDING_TOLERANCE = 0.25


def _as_bits(x, length: int | None = None, name: str = "bits") -> np.ndarray:
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError(f"{name} must contain only 0/1 values")
    if length is not None and len(arr) != length:
        raise ValueError(f"{name} must have length {length}, got {len(arr)}")
    return arr


@dataclass(frozen=True)
class ToeplitzSpec:
    """Shape and seed of one Toeplitz hash instance."""

    input_len_n: int
    output_len_m: int
    seed_bits: np.ndarray

    def __post_init__(self):
        if self.input_len_n <= 0 or self.output_len_m <= 0:
            raise ValueError("lengths must be positive")
        if self.output_len_m > self.input_len_n:
            raise ValueError("output length cannot exceed input length")
        object.__setattr__(
            self,
            "seed_bits",
            _as_bits(
                self.seed_bits,
                self.input_len_n + self.output_len_m - 1,
                "seed_bits",
            ),
        )


def _fft_capacity_ok(seed: np.ndarray, x: np.ndarray, length: int) -> bool:
    """Conservative a-priori check that FFT round-off cannot reach 1/2.

    Round-off of a length-L real-FFT convolution is bounded by
    C * eps * log2(L) * ||a||_2 * ||b||_2; C = 8 is generous. The
    four-step form keeps that O(eps log L) growth: its short transforms
    along each axis add log2(N1) + log2(N2) = log2(L) levels, and its
    twiddle factors are accurate to a few eps (exact integer exponents,
    a coarse times a fine factor), which C absorbs.
    """
    norm = math.sqrt(float(np.count_nonzero(seed))) * math.sqrt(
        float(np.count_nonzero(x))
    )
    err = 8.0 * np.finfo(np.float64).eps * math.log2(max(2, length)) * norm
    return err < ROUNDING_TOLERANCE


def _four_step_shape(total: int) -> tuple[int, int]:
    """(N1, N2) for the smallest fast length N >= total: N1 is the
    smallest divisor of N from isqrt(N)/2 on and N2 = N/N1, so that each
    transform is a batch of short ones. N <= 8 takes N1 = 1, one row."""
    size = scipy.fft.next_fast_len(total, real=True)
    n1 = -(-math.isqrt(size) // 2)
    while size % n1:
        n1 += 1
    return n1, size // n1


def _twiddles(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The four-step twiddle exp(-2 pi i k1 j2 / N1 N2) of the rows
    k1 = 1..N1//2 (row 0 has none) as a coarse and a fine factor: with
    j2 = a*B + b and B the largest divisor of N2 up to its square root,
    coarse[k1, a, 0] takes the exponent k1*a*B and fine[k1, 0, b] the
    exponent k1*b. Exponents are exact integers below N1 N2 and each
    product is off by a few eps; the full table would be as large as a
    spectrum."""
    block = math.isqrt(n2)
    while n2 % block:
        block -= 1
    w = -2j * math.pi / (n1 * n2)
    k1 = np.arange(1, n1 // 2 + 1)[:, None, None]
    coarse = np.exp(k1 * np.arange(0, n2, block)[:, None] * w)
    fine = np.exp(k1 * np.arange(block) * w)
    return coarse, fine


def _twiddle(spectrum: np.ndarray, coarse: np.ndarray, fine: np.ndarray) -> None:
    """Multiply the rows 1..N1//2 of spectrum by coarse * fine, in place."""
    blocks = spectrum[1:].reshape(coarse.shape[:2] + fine.shape[2:])
    blocks *= coarse
    blocks *= fine


def _forward(bits, shape: tuple[int, int], twiddles) -> np.ndarray:
    """DFT of bits zero-padded to N = N1*N2, in four steps over the
    row-major (N1, N2) grid j = j1*N2 + j2: real FFTs of length N1 down
    the columns, the twiddles, and FFTs of length N2 along the rows. Bin
    k1 + N1*k2 lands at [k1, k2] for k1 = 0..N1//2; the other bins are
    their conjugates, since the input is real."""
    grid = np.zeros(shape)
    grid.reshape(-1)[: len(bits)] = bits
    spectrum = scipy.fft.rfft(grid, shape[0], axis=0)
    del grid
    _twiddle(spectrum, *twiddles)
    return scipy.fft.fft(spectrum, axis=1, overwrite_x=True)


def toeplitz_fast(spec: ToeplitzSpec, bits) -> np.ndarray:
    """FFT-convolution product, bit-identical to the dense matrix product.

    The Toeplitz product is the slice [n-1, n-1+m) of the integer
    convolution c = seed * input. It is computed as one cyclic
    convolution at the smallest fast length N >= n+m-1, laid out as an
    (N1, N2) grid (_four_step_shape): from index n-1 on, the wrapped
    coefficients c[k+N] lie past the linear length 2n+m-2, so nothing
    wraps onto the slice. Both forward transforms and the inverse run in
    four-step form at every size (_forward; the inverse takes the same
    steps backwards with conjugate twiddles), and the inverse's
    row-major grid is c in natural order. Every transform runs on the
    calling thread alone: split over threads, a batch waits for its
    slowest share, so where the CPUs are shared with other work the
    hash's time would depend on that work.

    Every used coefficient is verified to sit within ROUNDING_TOLERANCE
    of an integer. An input too large for the a-priori capacity check
    (about 7e12 bits) is refused with ConvolutionPrecisionError.
    """
    x = _as_bits(bits, spec.input_len_n, "input")
    seed = spec.seed_bits
    n, m = spec.input_len_n, spec.output_len_m
    n1, n2 = shape = _four_step_shape(n + m - 1)
    if not _fft_capacity_ok(seed, x, n1 * n2):
        raise ConvolutionPrecisionError(
            f"FFT length {n1 * n2} exceeds the verified-exact capacity"
        )
    coarse, fine = twiddles = _twiddles(n1, n2)
    spectrum = _forward(seed, shape, twiddles)
    spectrum *= _forward(x, shape, twiddles)
    spectrum = scipy.fft.ifft(spectrum, axis=1, overwrite_x=True)
    _twiddle(spectrum, coarse.conj(), fine.conj())
    conv = scipy.fft.irfft(spectrum, n1, axis=0)
    del spectrum
    conv = conv.reshape(-1)[n - 1 : n - 1 + m]
    rounded = np.rint(conv)
    conv -= rounded
    dev = float(np.abs(conv, out=conv).max())
    if dev >= ROUNDING_TOLERANCE:
        raise ConvolutionPrecisionError(
            f"convolution coefficient off an integer by {dev:.3g}"
        )
    parity = rounded.astype(np.int64)
    parity &= 1
    return parity.astype(np.uint8)


@dataclass(frozen=True)
class ExtractionResult:
    """Certified output bits."""

    bits: np.ndarray


def seed_bits_from_bytes(data: bytes, count: int) -> np.ndarray:
    """First ``count`` bits of a seed byte string, most significant bit
    first. Shorter data is an error; seeds are never stretched."""
    need = (count + 7) // 8
    if len(data) < need:
        raise FormatError(
            f"seed provides {len(data)} bytes, {need} required for {count} bits"
        )
    return np.unpackbits(
        np.frombuffer(data[:need], dtype=np.uint8), count=count
    )


def extract(bits, rate: RateBreakdown, seed: bytes) -> ExtractionResult:
    """Hash the raw bits down to floor(R_final) certified bits.

    ``seed`` is the operator-provided seed material; it must cover
    n + m - 1 bits. Aborts when no positive whole bit count is certified.
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
    seed_bits = seed_bits_from_bytes(seed, n + m - 1)
    spec = ToeplitzSpec(input_len_n=n, output_len_m=m, seed_bits=seed_bits)
    return ExtractionResult(bits=toeplitz_fast(spec, bits))
