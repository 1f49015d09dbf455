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
128-bit block is 16 bytes), runs counts bit changes in and across whole
bytes, longest run counts on the packed blocks (10^4, 128 and 8 bits are
whole bytes), cumulative sums unpacks WALK_CHUNK bits at a time, the
spectral DFT is formed from the packed n' bits one residue-class band of
the hash's four-step transform at a time (extractor._band), and serial
and approximate entropy count m-grams in 16-bit windows of consecutive
bytes (_pattern_counts). Tests that define several p-values report
their primary one so each test contributes exactly one row. This
battery is a sanity harness; the security statement is the certified
length, not these p-values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import erfc, gammaincc, ndtr

from .errors import InsufficientBitsError
from .extractor import (
    _band, _band_twiddles, _class_tables, _four_step_shape, _patterns, _residue,
    _rows_used,
)
from .io_formats import PackedBits

#: Aggregate precondition for run_battery.
BATTERY_MIN_BITS = 1_000_000

#: Bits per chunk of cumulative_sums' walk: a byte a bit unpacked and an
#: int32 partial sum a bit, where the whole walk took 5 bytes a bit.
WALK_CHUNK = 1 << 16

#: 16-bit byte-pair windows per bincount call in serial and
#: approximate_entropy (_pattern_counts): bincount casts its input to
#: intp, 8 bytes a window, which for a whole m-gram index at 9e6 bits
#: was the battery's largest allocation (72 MB).
PATTERN_CHUNK = 1 << 16


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
    """Total number of runs against its expectation, counted on the packed
    bytes: a run ends where a bit differs from the next one, inside a byte
    (the seven low bits of x ^ x >> 1) or across two (the last bit of one
    byte against the first of the next)."""
    _require(bits, 100, "runs")
    x, n = bits.data, len(bits)
    pi = float(np.bitwise_count(x).sum()) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    inside = np.right_shift(x, 1)
    inside ^= x
    inside &= 0x7F
    v = 1 + int(np.bitwise_count(inside, out=inside).sum())
    del inside
    across = np.right_shift(x[1:], 7)
    across ^= x[:-1]
    across &= 1
    v += int(np.count_nonzero(across))
    if n % 8:  # the last bit against a zero padding bit
        v -= int(x[-1]) >> (8 - n % 8) & 1
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


def _longest_runs(blocks: np.ndarray, cap: int) -> np.ndarray:
    """Longest run of ones, capped at ``cap``, in each row of packed
    bits. Round k ANDs each row's bits with themselves shifted by one
    bit, within the row, so a bit stays set where a run of k + 1 ones
    starts; the rows with a bit left after round k hold a run longer
    than k."""
    runs = blocks.copy()
    longest = np.zeros(len(runs), dtype=np.int64)
    shifted = np.empty_like(runs)
    for _ in range(cap):
        alive = runs.any(axis=1)
        if not alive.any():
            break
        longest += alive
        np.left_shift(runs, 1, out=shifted)
        shifted[:, :-1] |= runs[:, 1:] >> 7
        runs &= shifted
    return longest


def longest_run(bits: PackedBits) -> float:
    """Longest run of ones per block against the reference category
    distribution; the block size follows the input length. Every block
    size is a whole number of bytes, and the packed blocks are counted
    as they are, up to the last category's lower bound (_longest_runs)."""
    _require(bits, 128, "longest_run")
    n = len(bits)
    for m_block, min_n, bounds, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    nblocks = n // m_block
    blocks = bits.data[: nblocks * m_block // 8].reshape(nblocks, m_block // 8)
    longest = _longest_runs(blocks, bounds[-1] + 1)
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
    """Maximum excursion of the forward +/-1 partial sums, WALK_CHUNK
    bits at a time, carrying the running sum and its extremes."""
    _require(bits, 100, "cumulative_sums")
    n = len(bits)
    # every partial sum lies in [-n, n]
    walk = np.empty(WALK_CHUNK, dtype=np.int32 if n < 2**31 else np.int64)
    position = high = low = 0
    for lo in range(0, n, WALK_CHUNK):
        part = walk[: min(WALK_CHUNK, n - lo)]
        part[:] = np.unpackbits(bits.data[lo // 8 :], count=len(part))
        part *= 2
        part -= 1
        np.cumsum(part, out=part)
        part += position
        high, low = max(high, int(part.max())), min(low, int(part.min()))
        position = int(part[-1])
    z = float(max(high, -low))
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


def _pattern_counts(bits: PackedBits, m: int) -> np.ndarray:
    """Cyclic overlapping m-gram counts, length 2^m, for m <= min(n, 9),
    from the packed bytes. The grams that start in byte j and end by bit
    n - 1 all lie in the 16-bit window of bytes j and j + 1: bincount,
    PATTERN_CHUNK windows at a time, gives how many times each of the
    2^16 windows occurs, and the grams at bit offset k of the windows
    with pattern p are the window counts summed over the k bits before
    the gram and the 16 - m - k after it. The last partial byte's grams
    and the m - 1 that wrap past the end come from a few unpacked bits."""
    n, data = len(bits), bits.data
    if m == 0:
        return np.array([n], dtype=np.int64)
    counts = np.zeros(1 << m, dtype=np.int64)
    full = min((n - m + 1) // 8, len(data) - 1)  # bytes whose 8 grams fit
    windows = np.zeros(1 << 16, dtype=np.int64)
    for lo in range(0, full, PATTERN_CHUNK):
        hi = min(full, lo + PATTERN_CHUNK)
        pairs = np.left_shift(data[lo:hi], 8, dtype=np.uint16)
        pairs |= data[lo + 1 : hi + 1]
        windows += np.bincount(pairs, minlength=1 << 16)
    for k in range(8):
        counts += windows.reshape(1 << k, 1 << m, -1).sum(axis=(0, 2))
    # the grams from bit 8*full on, read across the end into bits 0..m-2
    rest = n - 8 * full
    tail = np.concatenate(
        [np.unpackbits(data[full:], count=rest), np.unpackbits(data[:2], count=m - 1)]
    )
    index = np.zeros(rest, dtype=np.int64)
    for j in range(m):
        index <<= 1
        index |= tail[j : j + rest]
    counts += np.bincount(index, minlength=1 << m)
    return counts


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
    n = len(bits)
    counts = _pattern_counts(bits, m)
    delta1 = _psi_sq(counts, n) - _psi_sq(_marginal(counts), n)
    return float(gammaincc(2 ** (m - 2), delta1 / 2.0))


def approximate_entropy(bits: PackedBits, m: int = 2) -> float:
    """Match of the m-gram entropy rate against ln 2."""
    _require(bits, 1 << (m + 3), "approximate_entropy")
    n = len(bits)

    def phi(counts: np.ndarray) -> float:
        frac = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(frac * np.log(frac)))

    counts = _pattern_counts(bits, m + 1)
    apen = phi(_marginal(counts)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(gammaincc(2 ** (m - 1), chi2 / 2.0))


def _below_threshold(bits: PackedBits, threshold: float) -> int:
    """How many bins k in [0, n/2) of the DFT of the +/-1 sequence 2b - 1,
    b the bits, have a magnitude below threshold, for a 2*3*5-smooth
    n = len(bits).

    The DFT is the hash's four-step transform at N1*N2 = n, formed one
    residue class at a time (extractor._band, with scipy.fft.rfft down
    class 0's columns), of b itself: DFT(2b - 1) = 2 DFT(b) - n at k = 0
    and 2 DFT(b) elsewhere. Row k' of class r's band holds the bins
    k = k1 + N1*k2 with k1 = r + R*k', and the classes r <= R/2 hold one
    row of each conjugate pair k1, N1 - k1. Rows 0 and N1/2, which fall
    in class 0 or R/2 since R divides N1, hold both k and its partner
    n - k; every other row holds k alone, and its bins also stand for
    the partners, of the same magnitude."""
    n = len(bits)
    n1, n2 = shape = _four_step_shape(n)
    residue = _residue(n1, n2)
    index = _patterns(bits, shape, residue)
    tables = _band_twiddles(shape, residue)
    half = n // 2

    def count(band: np.ndarray, r: int) -> int:
        below = 0
        for k1, row in zip(range(r, n1, residue), band[: _rows_used(shape, residue, r)]):
            small = np.abs(row) < threshold / 2
            below += int(np.count_nonzero(small[: -(-(half - k1) // n1)]))  # k < n/2
            if 2 * k1 % n1:  # n - k < n/2
                below += int(np.count_nonzero(small[(n - half - k1) // n1 + 1 :]))
        return below

    band = _band(index, shape, _class_tables(shape, tables, residue, 0), residue, rfft=scipy.fft.rfft)
    band[0, 0] -= n / 2
    below = count(band, 0)
    del band  # before the other classes' band is allocated
    if residue > 1:
        out = np.empty(index.shape, dtype=complex)
        for r in range(1, residue // 2 + 1):
            band = _band(index, shape, _class_tables(shape, tables, residue, r), residue, out)
            below += count(band, r)
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
