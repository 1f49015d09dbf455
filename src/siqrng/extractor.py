"""Toeplitz hashing over GF(2): compress the raw generation-basis string
to the certified number of bits.

The matrix T is n columns by m rows with T[i][j] = seed[i - j + n - 1],
so row i reads the seed slice [i, i+n) reversed and the product equals a
slice of the integer convolution seed * input reduced mod 2. The fast
path computes that convolution with a real FFT and verifies — never
assumes — that every used coefficient rounds to an exact integer.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConvolutionPrecisionError, EstimationAbort, FormatError
from .protocol_math import RateBreakdown

#: Maximum tolerated distance of a convolution coefficient from its
#: nearest integer before the result is considered unverifiable.
ROUNDING_TOLERANCE = 0.25

#: Half length from which toeplitz_fast runs its transforms on two
#: threads; below it a thread costs more than it saves. scipy.fft's own
#: workers= runs a batch of two rows on one thread, and splits four rows
#: only by holding all four inputs and outputs at once (+290 MiB peak
#: at the 2e7-pulse ingest shape).
THREADED_MIN_HALF_LEN = 1 << 15


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
    C * eps * log2(L) * ||a||_2 * ||b||_2; C = 8 is generous. toeplitz_fast
    sums two such convolutions of the seed's and the input's even and odd
    phases per output coefficient, and by Cauchy-Schwarz
    ||s_e|| ||x_e|| + ||s_o|| ||x_o|| <= ||s|| ||x|| (likewise with the
    phases crossed), so the bound for the whole seed and input at the
    half length covers the sum; the one-sample delay's unit phase factors
    add a relative error of a few eps per bin, which C absorbs.
    """
    norm = math.sqrt(float(np.count_nonzero(seed))) * math.sqrt(
        float(np.count_nonzero(x))
    )
    err = 8.0 * np.finfo(np.float64).eps * math.log2(max(2, length)) * norm
    return err < ROUNDING_TOLERANCE


def _rowwise(pool: ThreadPoolExecutor | None, fn, rows):
    """The rows of fn(rows), for an fn that maps a sequence of rows to a
    stack of results row by row. Without a pool, one call on the calling
    thread takes all rows; with one, the rows go two at a time, the pool's
    worker computing fn(rows[i:i+1]) while the calling thread computes
    fn(rows[i+1:i+2])."""
    if pool is None:
        return fn(rows)
    out = []
    for i in range(0, len(rows), 2):
        pending = pool.submit(fn, rows[i : i + 1])
        second = fn(rows[i + 1 : i + 2])[0]
        out += [pending.result()[0], second]
    return out


def _unit_delay(length: int) -> np.ndarray:
    """exp(-2 pi i f / length) for the real-FFT bins f = 0..length//2:
    multiplying a spectrum by it delays the cyclic sequence one sample.

    From 320 bins on, each factor is the product of a coarse and a fine
    one, f = a*B + b with B about the square root of the bin count, so
    only 2B complex exponentials are evaluated (6x faster at 5e6 bins);
    the product is off by a few eps. Below that the product's extra numpy
    calls cost more than the exponentials they save (measured crossover
    about 300 bins), and each factor is evaluated directly.
    """
    bins = length // 2 + 1
    w = -2j * math.pi / length
    if bins < 320:
        return np.exp(np.arange(bins) * w)
    block = math.isqrt(bins) + 1
    coarse = np.exp(np.arange(0, bins, block) * w)
    return np.outer(coarse, np.exp(np.arange(block) * w)).ravel()[:bins]


def toeplitz_fast(spec: ToeplitzSpec, bits) -> np.ndarray:
    """FFT-convolution product, bit-identical to the dense matrix product.

    The Toeplitz product is the slice [n-1, n-1+m) of the integer
    convolution c = seed * input, of linear length 2n+m-2. It is computed
    in polyphase form from the even (e) and odd (o) phases of both:

        c[2k]   = (s_e * x_e)[k] + (s_o * x_o)[k-1]
        c[2k+1] = (s_e * x_o)[k] + (s_o * x_e)[k]

    four real FFTs of the phases and two inverse ones, all at the half
    length h, the smallest fast length >= (n+m)//2; the one-sample delay
    is a phase factor per bin. Transforms run two at a time, one on a
    worker thread beside one on the calling thread, once h reaches
    THREADED_MIN_HALF_LEN; below it both run in one call on the calling
    thread.

    Nothing wraps onto the slice: the cyclic convolution at h adds the
    coefficients k+h and k-h of each half c[p::2] onto k. In half p the
    used k run from ceil((n-1-p)/2) to (n+m-2-p)//2, and its last
    coefficient, (2n+m-3-p)//2, lies less than (n+m)//2 past the first
    used one; so any h >= (n+m)//2, which is also the length of s_e,
    wraps nothing onto the used k and truncates no phase, and one sample
    less would. Every used coefficient is verified to sit within
    ROUNDING_TOLERANCE of an integer. An input too large for the
    a-priori capacity check (about 7e12 bits) is refused with
    ConvolutionPrecisionError.
    """
    x = _as_bits(bits, spec.input_len_n, "input")
    seed = spec.seed_bits
    n, m = spec.input_len_n, spec.output_len_m
    h = scipy.fft.next_fast_len((n + m) // 2, real=True)
    if not _fft_capacity_ok(seed, x, h):
        raise ConvolutionPrecisionError(
            f"FFT length {h} exceeds the verified-exact capacity"
        )

    def forward(phases):
        rows = np.zeros((len(phases), h))
        for row, phase in zip(rows, phases):
            row[: len(phase)] = phase
        return scipy.fft.rfft(rows, h)

    def inverse(spectra):
        return scipy.fft.irfft(spectra, h)

    threaded = h >= THREADED_MIN_HALF_LEN
    # the pool's worker is joined when the block ends, also on an error
    with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as pool:
        se, so, xe, xo = _rowwise(
            pool, forward, [seed[0::2], seed[1::2], x[0::2], x[1::2]]
        )
        spectra = np.empty((2, h // 2 + 1), dtype=np.complex128)
        even, odd = spectra
        np.multiply(se, xo, out=odd)
        xo *= so
        so *= xe
        odd += so
        del so
        np.multiply(se, xe, out=even)
        del se, xe
        xo *= _unit_delay(h)
        even += xo
        del xo, even, odd
        halves = _rowwise(pool, inverse, spectra)  # c[0::2], c[1::2], cyclic
        del spectra
    conv = np.empty(m)
    for p in (0, 1):
        j = n - 1 + p  # conv[p::2] holds c[j], c[j+2], ...
        conv[p::2] = halves[j % 2][j // 2 : j // 2 + (m - p + 1) // 2]
    del halves
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
    """Certified output bits plus the exact hash instance used (the seed
    is retained for audit)."""

    bits: np.ndarray
    spec: ToeplitzSpec


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
    return ExtractionResult(bits=toeplitz_fast(spec, bits), spec=spec)
