"""Statistical randomness battery for the extracted bits.

Eight standard frequency/structure tests with their published default
parameters: monobit frequency, block frequency (block 128), runs,
longest run of ones, cumulative sums (forward), serial (m = 2, first
p-value), approximate entropy (m = 2), and the discrete-spectral test.
The spectral test reads the first n' = scipy.fft.prev_fast_len(n) bits,
the largest 2*3*5-smooth length that fits, so its DFT is fast whatever
n's factors (n' >= 1000 whenever n >= 1000, and n'/n > 0.976 from the
battery's 10^6-bit minimum up); the other seven read all n bits. Every
test takes the bits as io_formats.PackedBits, whose bits past the count
are zero: monobit and block frequency count set bits in whole bytes (a
128-bit block is 16 bytes), the spectral DFT runs in the hash's
four-step form (extractor._forward) on the packed n' bits and holds one
half-spectrum, and the other five unpack their input once. Tests that
define several p-values report their primary one so each test
contributes exactly one row. This battery is a sanity harness; the
security statement is the certified length, not these p-values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import erfc, gammaincc, ndtr

from .errors import InsufficientBitsError
from .extractor import _forward, _four_step_shape, _twiddles
from .io_formats import PackedBits

#: Aggregate precondition for run_battery.
BATTERY_MIN_BITS = 1_000_000


@dataclass(frozen=True)
class TestReport:
    test_name: str
    p_value: float
    passed: bool

    def csv_row(self) -> str:
        return f"{self.test_name},{self.p_value:.6g},{int(self.passed)}"


def _require(bits: PackedBits, minimum: int, name: str) -> None:
    if len(bits) < minimum:
        raise InsufficientBitsError(
            f"{name} needs >= {minimum} bits, got {len(bits)}"
        )


def monobit(bits: PackedBits) -> float:
    """Frequency of ones against one half."""
    _require(bits, 100, "monobit")
    s = abs(2.0 * int(np.bitwise_count(bits.data).sum()) - len(bits))
    return float(erfc(s / math.sqrt(len(bits)) / math.sqrt(2.0)))


def block_frequency(bits: PackedBits) -> float:
    """Ones fraction per 128-bit block, 16 bytes, against one half
    (chi-square)."""
    block = 128
    _require(bits, block, "block_frequency")
    nblocks = len(bits) // block
    ones = np.bitwise_count(bits.data[: nblocks * 16]).reshape(nblocks, 16)
    pi = ones.sum(axis=1) / block
    chi2 = 4.0 * block * float(np.sum((pi - 0.5) ** 2))
    return float(gammaincc(nblocks / 2.0, chi2 / 2.0))


def runs(bits: PackedBits) -> float:
    """Total number of runs against its expectation."""
    _require(bits, 100, "runs")
    b = np.unpackbits(bits.data, count=len(bits))
    n = len(b)
    pi = float(np.count_nonzero(b)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(np.diff(b.astype(np.int8))))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


# Longest-run-of-ones category tables: (block M, category bounds, probs).
_LONGEST_RUN_TABLES = (
    (
        10000,
        750_000,
        (10, 11, 12, 13, 14, 15),
        (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727),
    ),
    (
        128,
        6272,
        (4, 5, 6, 7, 8),
        (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124),
    ),
    (
        8,
        128,
        (1, 2, 3),
        (0.2148, 0.3672, 0.2305, 0.1875),
    ),
)


def _longest_run_per_block(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 0/1 matrix.

    Column sweep with a resetting counter: vectorized over blocks.
    """
    nblocks, m = blocks.shape
    current = np.zeros(nblocks, dtype=np.int64)
    best = np.zeros(nblocks, dtype=np.int64)
    for j in range(m):
        current = (current + 1) * blocks[:, j]
        np.maximum(best, current, out=best)
    return best


def longest_run(bits: PackedBits) -> float:
    """Longest run of ones per block against the reference category
    distribution; the block size follows the input length."""
    _require(bits, 128, "longest_run")
    b = np.unpackbits(bits.data, count=len(bits))
    n = len(b)
    for m_block, min_n, bounds, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m_block
    blocks = b[: nblocks * m_block].reshape(nblocks, m_block)
    longest = _longest_run_per_block(blocks)
    edges = (-1,) + bounds + (10 ** 9,)
    counts = np.array(
        [
            np.count_nonzero((longest > lo) & (longest <= hi))
            for lo, hi in zip(edges[:-1], edges[1:])
        ],
        dtype=np.float64,
    )
    expected = nblocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    k = len(probs) - 1
    return float(gammaincc(k / 2.0, chi2 / 2.0))


def cumulative_sums(bits: PackedBits) -> float:
    """Maximum excursion of the forward +/-1 partial sums."""
    _require(bits, 100, "cumulative_sums")
    n = len(bits)
    steps = np.unpackbits(bits.data, count=n).view(np.int8)
    steps *= 2
    steps -= 1
    # every partial sum lies in [-n, n]
    walk = np.cumsum(steps, dtype=np.int32 if n < 2**31 else np.int64)
    del steps
    z = float(max(int(walk.max()), -int(walk.min())))
    if z == 0.0:
        return 0.0
    sqrt_n = math.sqrt(n)
    k_hi = int(math.floor((n / z - 1.0) / 4.0))
    k1 = np.arange(int(math.floor((-n / z + 1.0) / 4.0)), k_hi + 1)
    total = float(
        np.sum(
            ndtr((4 * k1 + 1) * z / sqrt_n)
            - ndtr((4 * k1 - 1) * z / sqrt_n)
        )
    )
    k2 = np.arange(int(math.floor((-n / z - 3.0) / 4.0)), k_hi + 1)
    total2 = float(
        np.sum(
            ndtr((4 * k2 + 3) * z / sqrt_n)
            - ndtr((4 * k2 + 1) * z / sqrt_n)
        )
    )
    p = 1.0 - total + total2
    return float(min(max(p, 0.0), 1.0))


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Cyclic overlapping m-gram counts, length 2^m."""
    n = len(b)
    if m == 0:
        return np.array([n], dtype=np.int64)
    # the m-gram starting at i reads ext[i : i+m], wrapping past the end
    ext = np.concatenate([b, b[: m - 1]])
    idx = ext[:n].astype(np.min_scalar_type((1 << m) - 1))
    for k in range(1, m):
        idx <<= 1
        idx |= ext[k : k + n]
    return np.bincount(idx, minlength=1 << m)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    if len(counts) == 1:  # m = 0: exactly 0, which the float form misses by an ulp
        return 0.0
    return float(len(counts) / n * np.sum(counts.astype(np.float64) ** 2) - n)


def _marginal(counts: np.ndarray) -> np.ndarray:
    """Cyclic (m-1)-gram counts from the m-gram counts: the (m-1)-gram
    at i is the m-gram at i without its last bit."""
    return counts.reshape(-1, 2).sum(axis=1)


def serial(bits: PackedBits, m: int = 2) -> float:
    """Uniformity of overlapping m-grams (first p-value of the pair)."""
    _require(bits, 1 << (m + 2), "serial")
    b = np.unpackbits(bits.data, count=len(bits))
    n = len(b)
    counts = _pattern_counts(b, m)
    delta1 = _psi_sq(counts, n) - _psi_sq(_marginal(counts), n)
    return float(gammaincc(2 ** (m - 2), delta1 / 2.0))


def approximate_entropy(bits: PackedBits, m: int = 2) -> float:
    """Match of the m-gram entropy rate against ln 2."""
    _require(bits, 1 << (m + 3), "approximate_entropy")
    b = np.unpackbits(bits.data, count=len(bits))
    n = len(b)

    def phi(counts: np.ndarray) -> float:
        frac = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(frac * np.log(frac)))

    counts = _pattern_counts(b, m + 1)
    apen = phi(_marginal(counts)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(gammaincc(2 ** (m - 1), chi2 / 2.0))


def _below_threshold(bits: PackedBits, threshold: float) -> int:
    """How many bins k in [0, n/2) of the DFT of the +/-1 sequence 2b - 1,
    b the bits, have a magnitude below threshold, for a 2*3*5-smooth
    n = len(bits).

    The DFT is the hash's four-step transform at N1*N2 = n, with
    scipy.fft.rfft down the columns, of b itself: DFT(2b - 1) =
    2 DFT(b) - n at k = 0 and 2 DFT(b) elsewhere. The stored bin [k1, k2]
    is k = k1 + N1*k2. Rows 0 and N1/2 hold both k and its conjugate
    partner n - k; a row with 0 < k1 < N1/2 holds k alone, and its bins
    also stand for the partners, of the same magnitude."""
    n = len(bits)
    n1, n2 = shape = _four_step_shape(n)
    spectrum = _forward(bits, shape, _twiddles(n1, n2), rfft=scipy.fft.rfft)
    spectrum[0, 0] -= n / 2
    half = n // 2
    below = 0
    for k1, row in enumerate(spectrum):
        small = np.abs(row) < threshold / 2
        below += int(np.count_nonzero(small[: -(-(half - k1) // n1)]))  # k < n/2
        if 0 < 2 * k1 < n1:  # n - k < n/2
            below += int(np.count_nonzero(small[(n - half - k1) // n1 + 1 :]))
    return below


def spectral(bits: PackedBits) -> float:
    """Discrete-Fourier peak count below the 95% threshold, on the first
    n' = prev_fast_len(n) bits, the largest 2*3*5-smooth length that
    fits, so the DFT is fast whatever n's factors."""
    _require(bits, 1000, "spectral")
    n = scipy.fft.prev_fast_len(len(bits), real=True)
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = _below_threshold(PackedBits.prefix(bits.data, n), threshold)
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return float(erfc(abs(d) / math.sqrt(2.0)))


#: Battery composition: name -> single-p-value callable.
BATTERY = (
    ("monobit", monobit),
    ("block_frequency", block_frequency),
    ("runs", runs),
    ("longest_run", longest_run),
    ("cumulative_sums", cumulative_sums),
    ("serial", serial),
    ("approximate_entropy", approximate_entropy),
    ("spectral", spectral),
)


def run_battery(bits: PackedBits, alpha: float) -> list[TestReport]:
    """Run the eight-test battery in BATTERY order on the calling thread;
    requires at least 10^6 bits. Individual tests remain callable on
    shorter inputs subject to their own minima.
    """
    if len(bits) < BATTERY_MIN_BITS:
        raise InsufficientBitsError(
            f"battery needs >= {BATTERY_MIN_BITS} bits, got {len(bits)}"
        )
    reports = []
    for name, fn in BATTERY:  # looked up per call: a tracer may wrap the tests
        p = fn(bits)
        reports.append(TestReport(test_name=name, p_value=p, passed=p >= alpha))
    return reports


def battery_csv(reports: list[TestReport]) -> str:
    lines = ["test,p_value,pass"]
    lines += [r.csv_row() for r in reports]
    return "\n".join(lines) + "\n"
