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
    if not np.all(arr <= 1):
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
    C * eps * log2(L) * ||a||_2 * ||b||_2; C = 8 is generous.
    """
    norm = math.sqrt(float(np.count_nonzero(seed))) * math.sqrt(
        float(np.count_nonzero(x))
    )
    err = 8.0 * np.finfo(np.float64).eps * math.log2(max(2, length)) * norm
    return err < ROUNDING_TOLERANCE


def toeplitz_fast(spec: ToeplitzSpec, bits) -> np.ndarray:
    """FFT-convolution product, bit-identical to the dense matrix product.

    The Toeplitz product is the slice [n-1, n-1+m) of the integer
    convolution seed * input, whose linear length is 2n+m-2. A cyclic
    convolution of length L adds coefficient k+L and k-L onto k; for k in
    the slice, k+L > 2n+m-3 and k-L < 0 exactly when L >= n+m-1, so the
    slice is computed through a real FFT of the smallest fast length
    >= n+m-1, with nothing wrapped onto it. Every used coefficient is
    verified to sit within ROUNDING_TOLERANCE of an integer. An input
    too large for the a-priori capacity check (about 7e12 bits) is
    refused with ConvolutionPrecisionError.
    """
    x = _as_bits(bits, spec.input_len_n, "input")
    n, m = spec.input_len_n, spec.output_len_m
    length = scipy.fft.next_fast_len(n + m - 1, real=True)
    if not _fft_capacity_ok(spec.seed_bits, x, length):
        raise ConvolutionPrecisionError(
            f"FFT length {length} exceeds the verified-exact capacity"
        )
    spectrum = scipy.fft.rfft(
        spec.seed_bits.astype(np.float64), length, workers=-1
    )
    spectrum *= scipy.fft.rfft(x.astype(np.float64), length, workers=-1)
    conv = scipy.fft.irfft(spectrum, length, overwrite_x=True, workers=-1)
    del spectrum
    conv = conv[n - 1 : n - 1 + m]
    rounded = np.rint(conv)
    dev = float(np.max(np.abs(conv - rounded))) if m else 0.0
    if dev >= ROUNDING_TOLERANCE:
        raise ConvolutionPrecisionError(
            f"convolution coefficient off an integer by {dev:.3g}"
        )
    return (rounded.astype(np.int64) & 1).astype(np.uint8)


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
