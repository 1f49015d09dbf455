"""Statistical randomness battery for the extracted bits.

Eight standard frequency/structure tests with their published default
parameters: monobit frequency, block frequency (block 128), runs,
longest run of ones, cumulative sums (forward), serial (m = 2, first
p-value), approximate entropy (m = 2), and the discrete-spectral test.
Tests that define several p-values report their primary one so each test
contributes exactly one row. This battery is a sanity harness; the
security statement is the certified length, not these p-values.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import erfc, gammaincc, ndtr

from .errors import InsufficientBitsError

#: Aggregate precondition for run_battery.
BATTERY_MIN_BITS = 1_000_000


@dataclass(frozen=True)
class TestReport:
    test_name: str
    p_value: float
    passed: bool

    def csv_row(self) -> str:
        return f"{self.test_name},{self.p_value:.6g},{int(self.passed)}"


def _bits(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim != 1 or (arr.size and arr.max() > 1):
        raise ValueError("bits must be a 1-d 0/1 array")
    return arr


def _require(bits: np.ndarray, minimum: int, name: str) -> None:
    if len(bits) < minimum:
        raise InsufficientBitsError(
            f"{name} needs >= {minimum} bits, got {len(bits)}"
        )


def monobit(bits) -> float:
    """Frequency of ones against one half."""
    b = _bits(bits)
    _require(b, 100, "monobit")
    s = abs(2.0 * int(np.count_nonzero(b)) - len(b))
    return float(erfc(s / math.sqrt(len(b)) / math.sqrt(2.0)))


def block_frequency(bits, block: int = 128) -> float:
    """Ones fraction per block against one half (chi-square)."""
    b = _bits(bits)
    _require(b, block, "block_frequency")
    nblocks = len(b) // block
    pi = b[: nblocks * block].reshape(nblocks, block).mean(axis=1)
    chi2 = 4.0 * block * float(np.sum((pi - 0.5) ** 2))
    return float(gammaincc(nblocks / 2.0, chi2 / 2.0))


def runs(bits) -> float:
    """Total number of runs against its expectation."""
    b = _bits(bits)
    _require(b, 100, "runs")
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


def longest_run(bits) -> float:
    """Longest run of ones per block against the reference category
    distribution; the block size follows the input length."""
    b = _bits(bits)
    _require(b, 128, "longest_run")
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


def cumulative_sums(bits) -> float:
    """Maximum excursion of the forward +/-1 partial sums."""
    b = _bits(bits)
    _require(b, 100, "cumulative_sums")
    n = len(b)
    steps = b.astype(np.int8)
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


def _psi_sq(b: np.ndarray, m: int) -> float:
    if m <= 0:
        return 0.0
    counts = _pattern_counts(b, m)
    n = len(b)
    return float((1 << m) / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial(bits, m: int = 2) -> float:
    """Uniformity of overlapping m-grams (first p-value of the pair)."""
    b = _bits(bits)
    _require(b, 1 << (m + 2), "serial")
    delta1 = _psi_sq(b, m) - _psi_sq(b, m - 1)
    return float(gammaincc(2 ** (m - 2), delta1 / 2.0))


def approximate_entropy(bits, m: int = 2) -> float:
    """Match of the m-gram entropy rate against ln 2."""
    b = _bits(bits)
    _require(b, 1 << (m + 3), "approximate_entropy")
    n = len(b)

    def phi(mm: int) -> float:
        counts = _pattern_counts(b, mm).astype(np.float64)
        frac = counts[counts > 0] / n
        return float(np.sum(frac * np.log(frac)))

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(gammaincc(2 ** (m - 1), chi2 / 2.0))


#: Largest prime factor of the bit count up to which the spectral DFT
#: runs as one real FFT at that length; above it, as a chirp-z transform.
#: Measured on a 2-vCPU Xeon VM at n = 2*k*p near 9.1e6 bits, k 5-smooth,
#: median of three in-process runs, real FFT against chirp-z with its
#: chirp spectrum on a second thread: p = 251 2.05 s against 2.31 s,
#: p = 397 2.25 against 2.14, p = 401 1.92 against 1.96, p = 509 2.32
#: against 2.06, p = 1471 5.78 against 2.14. The real FFT also needs less
#: memory (battery peak RSS 376 MB at 9 036 000 bits, against 587 MB for
#: the chirp-z transform at 9 080 462).
SPECTRAL_DIRECT_MAX_PRIME = 400

#: Elements per block when a chirp or a twiddle multiplies an array in
#: place: the factors stay a few MB rather than the array's size.
_CHIRP_BLOCK = 1 << 18


def _chirp_plan(n: int) -> tuple[int, int, int] | None:
    """(N, count, M) of the chirp-z transform the spectral test runs on n
    bits, or None when n has no prime factor above
    SPECTRAL_DIRECT_MAX_PRIME and one real FFT at n is cheaper.

    The transform gives the first ``count`` outputs of an N-point DFT by
    a cyclic convolution at L = 2M >= N + count - 1, M a fast length:
    N = n/2, count = N on the packed complex sequence of an even n, N = n
    and count = n//2 on the real sequence of an odd n.
    """
    rest = n
    for d in range(2, SPECTRAL_DIRECT_MAX_PRIME + 1):
        while rest % d == 0:
            rest //= d
    if rest == 1:
        return None
    npts, count = (n // 2, n // 2) if n % 2 == 0 else (n, n // 2)
    return npts, count, scipy.fft.next_fast_len((npts + count) // 2)


def _chirp_phases(npts: int) -> np.ndarray:
    """k^2 mod 2N for k = 0..N-1, exact in integers, in the narrowest
    unsigned dtype that holds 2N - 1: the chirp w_k = exp(-i pi k^2 / N)
    is exp(-i pi phase_k / N)."""
    k = np.arange(npts, dtype=np.int64)  # k^2 < 2^63 for N < 3e9
    k *= k
    k %= 2 * npts
    return k.astype(np.min_scalar_type(2 * npts - 1))


def _chirp_multiply(x: np.ndarray, phases: np.ndarray, npts: int, sign: int) -> None:
    """x *= exp(sign * i pi p / N) elementwise for the phases p in [0, 2N).

    Each factor is the product of a coarse and a fine exponential,
    p = a*B + b with B a power of two near sqrt(2N), so only about
    2 sqrt(2N) exponentials are evaluated; the product is off by a few
    eps. The factors are gathered block by block.
    """
    shift = (2 * npts).bit_length() // 2
    w = sign * 1j * math.pi / npts
    coarse = np.exp(np.arange(0, 2 * npts, 1 << shift) * w)
    fine = np.exp(np.arange(1 << shift) * w)
    mask = (1 << shift) - 1
    for lo in range(0, len(x), _CHIRP_BLOCK):
        p = phases[lo : lo + _CHIRP_BLOCK]
        factor = coarse[p >> shift]
        factor *= fine[p & mask]
        x[lo : lo + _CHIRP_BLOCK] *= factor


def _rotate(x: np.ndarray, length: int, sign: int) -> None:
    """x[j] *= exp(sign * 2 pi i j / length), block by block: each
    block's factors are one exponential times a table of fine ones."""
    w = sign * 2j * math.pi / length
    fine = np.exp(np.arange(min(len(x), _CHIRP_BLOCK)) * w)
    for lo in range(0, len(x), _CHIRP_BLOCK):
        block = x[lo : lo + _CHIRP_BLOCK]
        block *= fine[: len(block)] * np.exp(lo * w)


def _half_spectra(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L-point DFT of x, L = len(x) = 2M, at its even and at its odd
    bins, by two M-point FFTs (one radix-2 decimation-in-frequency step):
    X_2k = DFT_M(x_lo + x_hi)_k and X_2k+1 = DFT_M((x_lo - x_hi) e^(-2 pi i j/L))_k
    for the halves x_lo = x[:M], x_hi = x[M:]. Overwrites x. The plan and
    the work buffer of an M-point FFT take half the memory of an L-point
    one's."""
    half = len(x) // 2
    lo, hi = x[:half], x[half:]
    lo += hi
    hi *= -2.0
    hi += lo
    _rotate(hi, len(x), -1)
    return scipy.fft.fft(lo, overwrite_x=True), scipy.fft.fft(hi, overwrite_x=True)


def _chirp_spectrum(n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The L-point DFT, as _half_spectra's even and odd bins, of the
    conjugate chirp conj(w_m), m = -(N-1) .. count-1 placed cyclically,
    for the plan of an n-bit spectral test, or None when n takes the real
    FFT. It depends on n only."""
    plan = _chirp_plan(n)
    if plan is None:
        return None
    npts, count, half = plan
    filt = np.zeros(2 * half, dtype=np.complex128)
    tail = filt[2 * half - npts + 1 :]  # m = -(N-1) .. -1
    tail.fill(1.0)
    _chirp_multiply(tail, _chirp_phases(npts)[:0:-1], npts, +1)
    filt[0] = 1.0
    filt[1:count] = tail[::-1][: count - 1]  # w_m = w_{-m}
    return _half_spectra(filt)


def _dft_magnitudes(b: np.ndarray, chirp=None) -> np.ndarray:
    """|X_k| for k < n//2, X the n-point DFT of the +/-1 sequence 2b-1.

    A length whose prime factors are all at most SPECTRAL_DIRECT_MAX_PRIME
    takes one real FFT at n. Any other length takes a chirp-z transform
    (Bluestein): with w_k = exp(-i pi k^2 / N), jk = (j^2 + k^2 - (k-j)^2)/2
    gives Y_k = w_k sum_j (y_j w_j) conj(w_{k-j}), a cyclic convolution at
    L = 2M, M a fast length whatever N's factors. The chirped data's
    spectrum, its product with the chirp spectrum ``chirp()`` (see
    _chirp_spectrum; computed here when ``chirp`` is None) and the inverse
    transform give the convolution, each L-point transform as two M-point
    FFTs; the phases k^2 mod 2N are exact integers.

    An odd n transforms the real sequence (N = n); since |w_k| = 1, |X_k|
    is the convolution's magnitude. An even n transforms the packed
    sequence z = y[0::2] + i y[1::2] (N = h = n/2), and its DFT Z gives the
    even and odd half-sequences' DFTs E_k = (Z_k + conj Z_{h-k})/2 and
    O_k = (Z_k - conj Z_{h-k})/(2i), with X_k = E_k + e^(-2 pi i k/n) O_k.
    With S_k = Z_k + conj Z_{h-k}, D_k = Z_k - conj Z_{h-k} and
    t_k = sin(2 pi k/n) + i cos(2 pi k/n) this is 2 X_k = S_k - t_k D_k,
    and since S, D and t turn into conj S, -conj D and conj t at h-k,
    2 |X_{h-k}| = |S_k + t_k D_k|: the twiddles are needed for
    k <= h/2 only.
    """
    n = len(b)
    plan = _chirp_plan(n)
    if plan is None:
        return np.abs(scipy.fft.rfft(2.0 * b - 1.0))[: n // 2]
    npts, count, half = plan
    a = np.zeros(2 * half, dtype=np.complex128)
    y = a[:npts]
    if n % 2:
        y.real = b
        y *= 2.0
        y -= 1.0
    else:
        y.real = b[0::2]
        y.imag = b[1::2]
        y *= 2.0
        y -= 1.0 + 1.0j
    phases = _chirp_phases(npts)
    _chirp_multiply(y, phases, npts, -1)
    del y
    data_even, data_odd = _half_spectra(a)
    del a
    even, odd = chirp() if chirp is not None else _chirp_spectrum(n)
    even *= data_even
    odd *= data_odd
    del data_even, data_odd
    # the convolution's first M outputs: (IDFT_M(even) + e^(2 pi i j/L) IDFT_M(odd))/2
    conv = scipy.fft.ifft(even, overwrite_x=True)[:count]
    odd = scipy.fft.ifft(odd, overwrite_x=True)[:count]
    _rotate(odd, 2 * half, +1)
    conv += odd
    conv *= 0.5
    del even, odd
    if n % 2:
        return np.abs(conv)
    h, q = npts, npts // 2
    z = conv  # Z_k = w_k conv_k
    _chirp_multiply(z, phases, npts, -1)
    del phases
    mags = np.empty(h)
    mags[0] = 2.0 * abs(z[0].real + z[0].imag)  # X_0 = E_0 + O_0
    low = z[1 : q + 1]
    s = np.conjugate(z[h - 1 : h - q - 1 : -1])  # conj Z_{h-k}, k = 1..q
    d = low - s
    s += low
    del conv, z, low
    t = np.empty_like(d)
    angle = np.arange(1, q + 1) * (2.0 * math.pi / n)
    np.sin(angle, out=t.real)
    np.cos(angle, out=t.imag)
    del angle
    d *= t
    del t
    np.abs(s - d, out=mags[1 : q + 1])
    s += d
    np.abs(s, out=mags[h - 1 : h - q - 1 : -1])
    mags *= 0.5
    return mags


def spectral(bits, chirp=None) -> float:
    """Discrete-Fourier peak count below the 95% threshold.

    The magnitudes come from _dft_magnitudes: one real FFT at a smooth
    length, a chirp-z transform at any other. ``chirp``, if given, is a
    callable returning _chirp_spectrum(len(bits)), such as the result
    method of a future computing it on another thread; without it the
    test computes the chirp spectrum itself.
    """
    b = _bits(bits)
    _require(b, 1000, "spectral")
    n = len(b)
    mags = _dft_magnitudes(b, chirp)
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mags < threshold))
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


def run_battery(bits, alpha: float) -> list[TestReport]:
    """Run the eight-test battery; requires at least 10^6 bits.

    One worker thread first computes the chirp spectrum of the spectral
    test, which depends on the length only (None for a length that takes
    the real FFT), then the seven other tests in BATTERY order. The
    calling thread meanwhile runs ``spectral``, which transforms the
    chirped bits and waits for the chirp spectrum only to multiply. Each
    test reads the bits only, so the p-values do not depend on the
    overlap; the reports come back in BATTERY order. Individual tests
    remain callable on shorter inputs subject to their own minima.
    """
    b = _bits(bits)
    if len(b) < BATTERY_MIN_BITS:
        raise InsufficientBitsError(
            f"battery needs >= {BATTERY_MIN_BITS} bits, got {len(b)}"
        )
    battery = BATTERY  # looked up per call: a tracer may wrap the tests
    with ThreadPoolExecutor(max_workers=1) as pool:
        chirp = pool.submit(_chirp_spectrum, len(b))
        pending = {
            name: pool.submit(fn, b) for name, fn in battery if name != "spectral"
        }
        p = {"spectral": dict(battery)["spectral"](b, chirp=chirp.result)}
        p.update((name, future.result()) for name, future in pending.items())
    return [
        TestReport(test_name=name, p_value=p[name], passed=p[name] >= alpha)
        for name, _ in battery
    ]


def battery_csv(reports: list[TestReport]) -> str:
    lines = ["test,p_value,pass"]
    lines += [r.csv_row() for r in reports]
    return "\n".join(lines) + "\n"
