"""Toeplitz hashing over GF(2): compress the raw generation-basis string
to the certified number of bits.

The matrix T is n columns by m rows with T[i][j] = seed[i - j + n - 1],
so row i reads the seed slice [i, i+n) reversed and the product equals a
slice of the integer convolution seed * input reduced mod 2. The hash
computes that convolution with FFTs in four-step form at every size
(Bailey, "FFTs in external or hierarchical memory", J. Supercomputing 4,
1990), one residue class of bins at a time, and verifies — never
assumes — that every used coefficient rounds to an exact integer. The
seed, the raw bits and the certified bits are all io_formats.PackedBits:
the hash reads its inputs packed and returns its output packed, with the
bits past m zero, as write_bits stores it.
The battery's spectral test (stat_suite) forms its DFT from the same
residue-class bands (_band), one class at a time.
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

#: Bytes of the temporaries that the hash takes a block at a time: the
#: intp indices of its table lookups (_lookup), the accumulation of each
#: class's term, and the rounding and parity; and the least size of a
#: residue band (_residue). In process on 2 shared vCPUs (medians of two
#: sessions) a 1e5-point hash took 2.5-3.0 ms at 256 KiB (R = 5),
#: 5.3-6.2 ms at 64 KiB (R = 16, sixteen classes' fixed costs) and
#: 3.5-4.2 ms from 1 MiB on (R = 1, a band of the whole half-spectrum);
#: at 2e6 and 9e6 points the times moved by less than their run-to-run
#: spread.
BLOCK_BYTES = 1 << 18


def _fft_capacity_ok(seed: PackedBits, x: PackedBits, length: int) -> bool:
    """Conservative a-priori check that FFT round-off cannot reach 1/2.

    Round-off of a length-L real-FFT convolution is bounded by
    C * eps * log2(L) * ||a||_2 * ||b||_2; C = 8 is generous. The
    four-step form keeps that O(eps log L) growth: its short transforms
    along each axis add log2(N1) + log2(N2) = log2(L) levels, and its
    twiddle factors are accurate to a few eps (exact integer exponents,
    a product of up to four factors), which C absorbs. So does the
    radix-R lookup stage of both inputs' bands (_band): its table
    entries are sums of at most R <= 16 unit phasors, each within a few
    eps, and with the phasor of exact integer exponent that follows they
    are one radix-R step of a length-N1 column transform, whose
    length-N1/R transforms add the other log2(N1/R) levels. The inverse
    takes the same radix-R step backwards (_convolve): after length-N1/R
    column inverses, each coefficient accumulates R/2 + 1 terms, one per
    class r <= R/2, each the real part of a band's value rotated by a unit
    phasor of exact integer exponent r*j1 mod N1 (within a few eps) and
    weighted by 1/R or 2/R. Summed in turn, those terms grow the
    round-off by at most R/2 + 1 <= 9 roundings where a radix-2 stage
    would take log2(R) <= 4 levels; C absorbs that, as it absorbs the
    forward lookup's sums of R phasors.
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


def _root_divisor(n: int) -> int:
    """The largest divisor of n up to its square root."""
    block = math.isqrt(n)
    while n % block:
        block -= 1
    return block


def _residue(n1: int, n2: int) -> int:
    """R, the number of residue classes k1 mod R of the hash's bands
    (_band): the largest divisor of N1 up to 16 whose bands, N1/R*N2
    complex bins, take at least BLOCK_BYTES, or 1. Smaller bands save no
    memory worth a class's fixed cost of a few dozen numpy calls."""
    fits = (r for r in range(2, 17) if n1 % r == 0 and n1 // r * n2 * 16 >= BLOCK_BYTES)
    return max(fits, default=1)


def _patterns(bits, shape: tuple[int, int], residue: int) -> np.ndarray:
    """The (L, N2) uint16 pattern index of bits on the (N1, N2) grid,
    L = N1/R: bit b of [a, j2] is the bit at grid point (a + b*L, j2).
    Segment b, the grid rows [b*L, (b+1)*L), is one contiguous bit range,
    which one unpackbits call reads; bits past len(bits) are zero."""
    n1, n2 = shape
    size = n1 // residue * n2
    index = np.zeros(size, dtype=np.uint16)
    for b in range(residue):
        start = b * size
        count = min(size, len(bits) - start)
        if count <= 0:
            break
        byte, phase = divmod(start, 8)
        segment = np.unpackbits(
            bits.data[byte : (start + count + 7) // 8], count=phase + count
        )[phase:]
        index[:count] |= np.left_shift(segment, b, dtype=np.uint16) if b else segment
    return index.reshape(n1 // residue, n2)


def _phasors(residue: int, r: int) -> np.ndarray:
    """sum_b bit_b(p) * exp(-2 pi i b r / R) for every R-bit pattern p,
    each a sum of at most R unit phasors."""
    table = np.empty(1 << residue, dtype=complex)
    table[0] = 0
    for b in range(residue):
        phasor = np.exp(-2j * math.pi * (b * r % residue) / residue)
        np.add(table[: 1 << b], phasor, out=table[1 << b : 2 << b])
    return table


def _lookup(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = table[index], BLOCK_BYTES of the intp indices that take
    converts the index to at a time; mode="clip" (the indices are in
    range) writes straight into out, where the default buffers it."""
    index, flat, chunk = index.reshape(-1), out.reshape(-1), BLOCK_BYTES // 8
    for lo in range(0, flat.size, chunk):
        part = slice(lo, lo + chunk)
        np.take(table, index[part], out=flat[part], mode="clip")
    return out


def _band_twiddles(shape, residue: int) -> tuple:
    """Tables of the four-step twiddles exp(-2 pi i k1 j2 / N) of the band
    rows k1 = k + R*i (_twiddle_rows), i < L (N1/2 + 1 for R = 1, where
    class 0's real band is all). With i = g*C + l, each factors into
    exp(-2 pi i k j2 / N), formed per band, high[g, j2] with the exponent
    R*C*g*j2 and low[l, j2] with R*l*j2. Every exponent is an exact
    integer reduced mod N, so each factor is accurate to a few eps. C is
    isqrt(L), which keeps the tables small, or all L rows where they take
    at most BLOCK_BYTES, so that a small band is twiddled in one step;
    the rows, N2 long, broadcast whole."""
    n1, n2 = shape
    size = n1 * n2
    length = n1 // residue if residue > 1 else n1 // 2 + 1  # class 0 alone
    step = max(math.isqrt(length), min(length, BLOCK_BYTES // (16 * n2)), 1)
    groups, block = -(-length // step), _root_divisor(n2)
    e = residue * np.concatenate([step * np.arange(groups), np.arange(step)])[:, None]
    w = -2j * math.pi / size
    # j2 = a*block + b: a coarse times a fine factor
    coarse = np.exp(w * (e * np.arange(0, n2, block) % size))
    fine = np.exp(w * (e * np.arange(block) % size))
    table = (coarse[:, :, None] * fine[:, None, :]).reshape(len(e), n2)
    return table[:groups], table[groups:], -1


def _twiddle_rows(rows: np.ndarray, shape, tables, k: int) -> None:
    """Multiply row i of a band, bin k1 = k + R*i of every column, by its
    twiddle from ``tables`` (_band_twiddles, or their conjugates with
    the sign +1), in place. high[0] is all ones, a factor skipped for
    class 0."""
    high, low, sign = tables
    size = shape[0] * shape[1]
    if k:
        turns = k * np.arange(shape[1]) % size
        high = high * np.exp(sign * 2j * math.pi / size * turns)
    step = len(low)
    for g, lo in enumerate(range(0, len(rows), step)):
        part = rows[lo : lo + step]
        if g or k:
            part *= high[g]
        part *= low[: len(part)]


def _band(index: np.ndarray, shape, tables, residue: int, r: int, out=None, rfft=None):
    """The four-step bins of residue class r, the column bins
    k1 = r + R*k' transformed along the rows, of the bits whose pattern
    index (_patterns) is ``index``; ``out``, an (L, N2) complex array,
    takes the band of a class r > 0, and ``rfft`` (by default
    numpy.fft.rfft as it is at the call) is class 0's real column
    transform.

    With R = ``residue`` (a divisor of N1 up to 16), L = N1/R and the
    grid rows j1 = a + b*L, the column bins k1 = r + R*k' of class r are
    the length-L DFT over a of
    y_r[a] = exp(-2 pi i a r / N1) * sum_b x[a + b*L] * exp(-2 pi i b r / R)
    (Sorensen and Burrus, IEEE Trans. Signal Process. 41, 1184 (1993)).
    The inner sum is one lookup of the pattern index into a table of 2^R
    phasor sums. Row k' of the band is bin row k1 of the four-step
    spectrum, twiddled (``tables``, _band_twiddles) and transformed
    along the row. The columns are real, so column bin N1 - k1 is the
    conjugate of bin k1: class 0 takes a real FFT and keeps its
    L//2 + 1 rows k1 <= N1/2, and for 2r = R only the first U rows, the
    bins k1 <= N1/2, are twiddled and transformed; _unband recovers the
    others."""
    n1 = shape[0]
    if r == 0:
        real = _lookup(_phasors(residue, 0).real, index, np.empty(index.shape))
        band = (rfft or np.fft.rfft)(real, axis=0)
        del real
    else:
        band = _lookup(_phasors(residue, r), index, out)
        band *= np.exp(-2j * math.pi / n1 * r * np.arange(len(band)))[:, None]
        np.fft.fft(band, axis=0, out=band)
    used = band[: _rows_used(shape, residue, r)]
    _twiddle_rows(used, shape, tables, r)
    np.fft.fft(used, axis=1, out=used)
    return band


def _rows_used(shape, residue: int, r: int) -> int:
    """The rows of class r's band that _band forms: all L, but the
    U = ceil(L/2) bins k1 <= N1/2 for 2r = R."""
    length = shape[0] // residue
    return -(-length // 2) if 2 * r == residue else length


def _unband(band: np.ndarray, shape, tables, residue: int, r: int) -> np.ndarray:
    """z_r[a, j2], the length-L inverse column DFT over k' of class r's
    column bins, from the band of a product in _band's layout: the row
    inverse, the conjugate twiddles (``tables``) and the column inverse.
    For 2r = R the column bins past row U are the conjugates of the
    first ones, reversed: bin N1 - k1 of class R/2 sits in row L-1-k'.
    Class 0's z is real (irfft); the others' is computed in place. The
    two inverses scale by 1/N2 and 1/L."""
    length = shape[0] // residue
    used = band[: _rows_used(shape, residue, r)]
    np.fft.ifft(used, axis=1, out=used)
    _twiddle_rows(used, shape, tables, r)
    if r == 0:
        return np.fft.irfft(band, length, axis=0)
    if len(used) < length:
        np.conjugate(band[: length - len(used)][::-1], out=band[len(used) :])
    return np.fft.ifft(band, axis=0, out=band)


def _convolve(seed, x, shape, residue: int, rows: tuple[int, int]) -> np.ndarray:
    """Grid rows [first, last) of the cyclic convolution of the packed
    bits seed and x at length N = N1*N2, in the row-major (N1, N2) grid
    j = j1*N2 + j2, unrounded: the forward transforms and the inverse
    run one residue class at a time.

    For each class r <= R/2 both inputs' bands are formed (_band),
    multiplied, and taken back to z_r (_unband). Summing the length-N1
    inverse column DFT by classes gives
    c[j1] = 1/R * sum_r exp(2 pi i r j1 / N1) * z_r[j1 mod L],
    and since c is real, class R - r's term is the conjugate of class
    r's: c[j1] = 1/R * sum_{r <= R/2} w_r Re(exp(2 pi i r j1 / N1) z_r[...])
    with w_r = 1 for r = 0 and r = R/2 and 2 otherwise (Bailey's
    four-step inverse taken a band at a time). Each term is added into
    an accumulator of the used grid rows alone, BLOCK_BYTES of it at a
    time, with the phasor's exponent r*j1 mod N1 an exact integer. So
    the convolution holds the accumulator, 8 bytes per point, two
    (L, N2) complex bands, each 2/R of a half-spectrum, and the two
    (L, N2) uint16 pattern indices; no spectrum is ever whole. For
    R = 1 the accumulator is class 0's z itself."""
    n1, n2 = shape
    length = n1 // residue
    first, last = rows
    forward = _band_twiddles(shape, residue)
    inverse = forward[0].conj(), forward[1].conj(), 1
    indices = _patterns(seed, shape, residue), _patterns(x, shape, residue)
    band = _band(indices[0], shape, forward, residue, 0)
    band *= _band(indices[1], shape, forward, residue, 0)
    z = _unband(band, shape, inverse, residue, 0)
    del band
    if residue == 1:
        return z[first:last]
    # the grid rows [lo, hi) of a block read the z rows from lo mod L on
    step, blocks, lo = max(1, BLOCK_BYTES // (16 * n2)), [], first
    while lo < last:
        hi = min(last, lo + step, lo - lo % length + length)
        blocks.append((slice(lo - first, hi - first), slice(lo % length, lo % length + hi - lo)))
        lo = hi
    acc = np.empty((last - first, n2))
    for span, at in blocks:
        np.multiply(z[at], 1 / residue, out=acc[span])
    del z
    bands = np.empty((2, length, n2), dtype=complex)
    part = np.empty((step, n2), dtype=complex)
    for r in range(1, residue // 2 + 1):
        z = _band(indices[0], shape, forward, residue, r, bands[0])
        used = _rows_used(shape, residue, r)
        z[:used] *= _band(indices[1], shape, forward, residue, r, bands[1])[:used]
        _unband(z, shape, inverse, residue, r)
        weight = (1 if 2 * r == residue else 2) / residue
        phasor = weight * np.exp(2j * math.pi / n1 * (r * np.arange(first, last) % n1))
        for span, at in blocks:
            turned = np.multiply(z[at], phasor[span, None], out=part[: at.stop - at.start])
            acc[span] += turned.real
    return acc


def _hash(seed: PackedBits, x: PackedBits, m: int) -> PackedBits:
    """FFT-convolution product of n + m - 1 packed seed bits and n packed
    input bits as m packed bits, bit-identical to the dense matrix product.

    The Toeplitz product is the slice [n-1, n-1+m) of the integer
    convolution c = seed * input. It is computed as one cyclic
    convolution at the smallest fast length N >= n+m-1, laid out as an
    (N1, N2) grid (_four_step_shape): from index n-1 on, the wrapped
    coefficients c[k+N] lie past the linear length 2n+m-2, so nothing
    wraps onto the slice. The transforms run in four-step form, both
    inputs' forward ones and the inverse one residue-class band at a
    time (_convolve), into an accumulator of the grid rows that hold the
    slice: the hash holds 8 bytes per used coefficient, two bands of
    about 2/R of a half-spectrum each and the two pattern indices. The
    rounding and the parity then run BLOCK_BYTES of the accumulator at a
    time, straight into packed bytes. Every transform runs on the
    calling thread alone: split over threads, a batch waits for its
    slowest share, so where the CPUs are shared with other work the
    hash's time would depend on that work.

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
    # grid rows first..last-1 hold the slice [n-1, n-1+m)
    first, last = (n - 1) // n2, (n + m - 2) // n2 + 1
    conv = _convolve(seed, x, shape, _residue(n1, n2), (first, last)).reshape(-1)
    conv = conv[n - 1 - first * n2 :][:m]
    out = np.empty(-(-m // 8), dtype=np.uint8)
    step = BLOCK_BYTES // 8  # coefficients, whole output bytes
    for lo in range(0, m, step):
        block = conv[lo : lo + step]
        rounded = np.rint(block)
        block -= rounded
        dev = float(np.abs(block, out=block).max())
        if dev >= ROUNDING_TOLERANCE:
            raise ConvolutionPrecisionError(
                f"convolution coefficient off an integer by {dev:.3g}"
            )
        whole = rounded.astype(np.int64)
        whole &= 1
        out[lo // 8 : (lo + step) // 8] = np.packbits(whole)
    return PackedBits(out, m)


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
