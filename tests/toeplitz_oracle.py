"""Dense Toeplitz product: the test oracle for the FFT hash, and the 0/1
packing that feeds the packed hash and battery from 0/1 test inputs."""
from typing import NamedTuple

import numpy as np

from siqrng.extractor import _hash
from siqrng.io_formats import PackedBits


class ToeplitzSpec(NamedTuple):
    """Shape and 0/1 seed of one hash instance: n + m - 1 seed bits."""

    input_len_n: int
    output_len_m: int
    seed_bits: np.ndarray


def pack(bits) -> PackedBits:
    """A 0/1 array as PackedBits."""
    bits = np.asarray(bits, dtype=np.uint8)
    assert bits.ndim == 1 and not (bits > 1).any()
    return PackedBits(np.packbits(bits), len(bits))


def unpack(bits: PackedBits) -> np.ndarray:
    return np.unpackbits(bits.data, count=len(bits))


def toeplitz_fast(spec: ToeplitzSpec, bits) -> np.ndarray:
    """The packed hash of a 0/1 seed and input, unpacked to 0/1."""
    out = _hash(pack(spec.seed_bits), pack(bits), spec.output_len_m)
    y = unpack(out)
    assert np.array_equal(out.data, np.packbits(y))  # zero padding
    return y


def toeplitz_naive(spec: ToeplitzSpec, bits) -> np.ndarray:
    """Direct dense product: materialize the rows as seed slices."""
    x = np.asarray(bits, dtype=np.uint8)
    n, m = spec.input_len_n, spec.output_len_m
    assert x.shape == (n,) and spec.seed_bits.shape == (n + m - 1,)
    # rows[i] = seed[i : i+n] reversed
    rows = np.lib.stride_tricks.sliding_window_view(spec.seed_bits, n)[:m, ::-1]
    return ((rows.astype(np.int64) @ x.astype(np.int64)) & 1).astype(np.uint8)
