"""Dense Toeplitz product: the test oracle for the FFT hash path."""
import numpy as np

from siqrng.extractor import ToeplitzSpec, _as_bits


def toeplitz_naive(spec: ToeplitzSpec, bits) -> np.ndarray:
    """Direct dense product: materialize the rows as seed slices."""
    x = _as_bits(bits, spec.input_len_n, "input")
    n, m = spec.input_len_n, spec.output_len_m
    # rows[i] = seed[i : i+n] reversed
    rows = np.lib.stride_tricks.sliding_window_view(spec.seed_bits, n)[:m, ::-1]
    return ((rows.astype(np.int64) @ x.astype(np.int64)) & 1).astype(np.uint8)
