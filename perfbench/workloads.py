"""The benchmark workloads: inputs made from a seed, the CLI steps of one
iteration, and the checks on every iteration's outputs.

Every file the program reads is written here from the seed, using only
the documented file formats (README: SQEB events, hash seed, certified
bits with a `.len` sidecar). Output checks recompute what they can from
the inputs in this file's own code, never by calling the program.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

BASIS_Z, BASIS_X = 0, 1
NONE, D0, D1, DOUBLE = 0, 1, 2, 3

BATTERY_TESTS = (
    "monobit",
    "block_frequency",
    "runs",
    "longest_run",
    "cumulative_sums",
    "serial",
    "approximate_entropy",
    "spectral",
)
TOEPLITZ_ROWS = 64

# The battery verdict at alpha = 0.01 fails a uniformly random output
# now and then; the benchmark measures the battery's work and records
# its p-values, so a verdict must not turn a seed into a failed run.
NO_SUITE_GATE = str(len(BATTERY_TESTS))


class CheckError(Exception):
    """An output of the program is missing or wrong."""


# ---------------------------------------------------------------------------
# File formats, written and read independently of the program


def write_sqeb(path: str, basis: np.ndarray, outcome: np.ndarray) -> None:
    header = b"SQEB" + bytes([1]) + len(basis).to_bytes(8, "little")
    with open(path, "wb") as f:
        f.write(header)
        f.write((basis | (outcome << 1)).astype(np.uint8).tobytes())


def read_sqeb(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.fromfile(path, dtype=np.uint8)
    if len(data) < 13 or data[:4].tobytes() != b"SQEB" or data[4] != 1:
        raise CheckError(f"{path}: not an SQEB v1 events file")
    count = int.from_bytes(data[5:13].tobytes(), "little")
    body = data[13:]
    if len(body) != count:
        raise CheckError(f"{path}: header says {count} events, body has {len(body)}")
    return body & 1, (body >> 1) & 3


def read_keyvals(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for ln in f:
            ln = ln.strip()
            if ln and not ln.startswith("#"):
                k, _, v = ln.partition("=")
                out[k] = v
    return out


def read_certified(path: str) -> tuple[np.ndarray, int]:
    with open(path + ".len", encoding="utf-8") as f:
        count = int(f.readline())
    data = np.fromfile(path, dtype=np.uint8)
    if len(data) != (count + 7) // 8:
        raise CheckError(f"{path}: {len(data)} bytes for {count} bits")
    return np.unpackbits(data, count=count).astype(bool), count


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n)


# ---------------------------------------------------------------------------
# Checks


def event_tally(basis: np.ndarray, outcome: np.ndarray) -> dict[str, int]:
    """The tally counts, recounted from the events."""
    x_out = outcome[basis == BASIS_X]
    z_out = outcome[basis == BASIS_Z]
    return {
        "n_total": len(basis),
        "n_x": int(np.count_nonzero(x_out != NONE)),
        "n_z": int(np.count_nonzero((z_out == D0) | (z_out == D1))),
        "x_wrong_singles": int(np.count_nonzero(x_out == D1)),
        "x_doubles": int(np.count_nonzero(x_out == DOUBLE)),
        "z_doubles_discarded": int(np.count_nonzero(z_out == DOUBLE)),
    }


def check_tally(tally_path: str, basis: np.ndarray, outcome: np.ndarray) -> dict:
    kv = read_keyvals(tally_path)
    want = event_tally(basis, outcome)
    for key, value in want.items():
        if int(kv.get(key, -1)) != value:
            raise CheckError(f"tally {key}={kv.get(key)}, events give {value}")
    return want


def raw_bits(basis: np.ndarray, outcome: np.ndarray) -> np.ndarray:
    """Generation-basis singles in pulse order, D1 -> 1 (README)."""
    keep = (basis == BASIS_Z) & ((outcome == D0) | (outcome == D1))
    return outcome[keep] == D1


def check_toeplitz(seed_bits, x, out, rng) -> None:
    """Output row i must equal sum_j T[i][j] x[j] mod 2 with
    T[i][j] = seed[i - j + n - 1], on the first, last and 62 random rows.
    """
    n, m = len(x), len(out)
    if len(seed_bits) < n + m - 1:
        raise CheckError(f"seed has {len(seed_bits)} bits, {n + m - 1} needed")
    # with xr[k] = x[n-1-k], row i is the dot product seed[i:i+n] . xr
    xr = x[::-1].copy()
    rows = {0, m - 1, *rng.integers(0, m, TOEPLITZ_ROWS - 2).tolist()}
    for i in sorted(rows):
        want = np.count_nonzero(seed_bits[i : i + n] & xr) & 1
        if want != out[i]:
            raise CheckError(f"certified bit {i} is {int(out[i])}, Toeplitz gives {want}")


def check_certified(path: str, estimate_path: str) -> tuple[np.ndarray, int]:
    bits, m = read_certified(path)
    want = int(read_keyvals(estimate_path)["bits"])
    if m != want:
        raise CheckError(f"{path}.len holds {m} bits, estimate bits={want}")
    return bits, m


def check_battery(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    names = [ln.split(",")[0] for ln in lines[1:]]
    if lines[:1] != ["test,p_value,pass"] or tuple(names) != BATTERY_TESTS:
        raise CheckError(f"{path}: expected one row per battery test, got {names}")
    for ln in lines[1:]:
        p = float(ln.split(",")[1])
        if not 0.0 <= p <= 1.0:
            raise CheckError(f"{path}: p-value out of range in {ln!r}")


def seed_file_bits(path: str) -> np.ndarray:
    return np.unpackbits(np.fromfile(path, dtype=np.uint8)).astype(bool)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One named workload; ``seed`` fixes every input it writes."""

    name = ""
    pulses = 0
    #: spans the traced run must record; a missing one stops the run
    spans: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def make_inputs(self, d: str) -> None:
        raise NotImplementedError

    def prepare(self, d: str) -> list[list[str]]:
        """Untimed CLI steps that finish the set-up."""
        return []

    def plan(self, d: str, out: str) -> list[list[str]]:
        """CLI argument lists of one iteration, run in order."""
        raise NotImplementedError

    def check(self, d: str, out: str, iteration: int) -> dict:
        """Check one iteration's outputs and return its counts, the
        digests that must repeat, and the certified bit count."""
        raise NotImplementedError


class DeskLaser(Workload):
    """The default pipeline run; runnable, but not one of BENCHMARK.json's
    workloads, whose run budget fits two (see README)."""

    name = "desk_laser"
    pulses = 10_000_000
    spans = (
        "cli.main",
        "detector_sim.run_simulation",
        "io_formats.write_events",
        "detector_sim.tally",
        "protocol_math.estimate_protocol",
        "detector_sim.raw_bits_from_events",
        "extractor.extract",
        "io_formats.write_bits",
        "stat_suite.run_battery",
        *(f"stat_suite.{t}" for t in BATTERY_TESTS),
        "optimizer.optimize_lambda",
        "optimizer.flatness_report",
        "scipy.fft.rfft",
    )

    def make_inputs(self, d):
        # The simulation seed stays at the default 1 so that m, and with
        # it the spectral FFT length, is the same for every seed; the
        # seed draws the operator's hash seed (n + m - 1 <= 2 * pulses).
        with open(os.path.join(d, "hash.seed"), "wb") as f:
            f.write(self.rng(1).bytes(2 * self.pulses // 8))
        with open(os.path.join(d, "desk.conf"), "w", encoding="utf-8") as f:
            f.write(
                f"run.n_pulses = {self.pulses}\n"
                f"path.seed = {os.path.join(d, 'hash.seed')}\n"
                f"suite.max_failures = {NO_SUITE_GATE}\n"
            )

    def plan(self, d, out):
        return [["pipeline", "--config", os.path.join(d, "desk.conf"), "--outdir", out]]

    def check(self, d, out, iteration):
        basis, outcome = read_sqeb(os.path.join(out, "events.sqeb"))
        if len(basis) != self.pulses:
            raise CheckError(f"{len(basis)} events for {self.pulses} pulses")
        tally = check_tally(os.path.join(out, "tally.txt"), basis, outcome)
        cert = os.path.join(out, "certified.bits")
        bits, m = check_certified(cert, os.path.join(out, "estimate.txt"))
        check_battery(os.path.join(out, "battery.csv"))
        check_toeplitz(
            seed_file_bits(os.path.join(d, "hash.seed")),
            raw_bits(basis, outcome),
            bits,
            self.rng(2, iteration),
        )
        return {
            "counts": _counts(tally, m, spectral=True),
            "digests": {n: sha256(os.path.join(out, n)) for n in ("tally.txt", "certified.bits")},
            "certified_bits": m,
        }


class SunlightCheck(Workload):
    name = "sunlight_check"
    pulses = 20_000_000
    solve_theta_eps = "1e-6"
    spans = (
        "cli.main",
        "detector_sim.run_simulation",
        "io_formats.write_events",
        "io_formats.read_events",
        "detector_sim.tally",
        "protocol_math.solve_theta",
        "protocol_math.estimate_protocol",
        "optimizer.optimize_lambda",
        "optimizer.flatness_report",
    )

    def make_inputs(self, d):
        run_seed = int(self.rng(1).integers(1, 2**31))
        with open(os.path.join(d, "sun.conf"), "w", encoding="utf-8") as f:
            f.write(
                "source.kind = sunlight\n"
                "source.lambda = 11.6\n"
                "source.fluctuation = 0.05\n"
                "source.hwp_deg = 27.5\n"
                f"run.n_pulses = {self.pulses}\n"
                f"run.seed = {run_seed}\n"
            )

    def plan(self, d, out):
        conf = os.path.join(d, "sun.conf")
        events = os.path.join(out, "events.sqeb")
        tally = os.path.join(out, "tally.txt")
        return [
            ["simulate", "--config", conf, "--out", events],
            ["tally", "--events", events, "--out", tally],
            ["estimate", "--config", conf, "--tally", tally,
             "--solve-theta", self.solve_theta_eps,
             "--out", os.path.join(out, "estimate.txt")],
            ["optimize", "--config", conf, "--out", os.path.join(out, "rate_curve.csv")],
        ]

    def check(self, d, out, iteration):
        basis, outcome = read_sqeb(os.path.join(out, "events.sqeb"))
        if len(basis) != self.pulses:
            raise CheckError(f"{len(basis)} events for {self.pulses} pulses")
        tally = check_tally(os.path.join(out, "tally.txt"), basis, outcome)
        m = int(read_keyvals(os.path.join(out, "estimate.txt"))["bits"])
        if m <= 0:
            raise CheckError(f"estimate certifies {m} bits")
        with open(os.path.join(out, "rate_curve.csv"), encoding="utf-8") as f:
            rows = f.read().splitlines()[1:]
        if not rows or any(float(r.split(",")[1]) <= 0 for r in rows):
            raise CheckError("rate curve is empty or has a non-positive rate")
        names = ("events.sqeb", "tally.txt", "estimate.txt", "rate_curve.csv")
        return {
            "counts": _counts(tally, m, spectral=False),
            "digests": {n: sha256(os.path.join(out, n)) for n in names},
            "certified_bits": m,
        }


class IngestExtract(Workload):
    name = "ingest_extract"
    pulses = 20_000_000
    # Click fractions of the default laser point (seed-1 desk tally):
    # check-basis share, Z singles and doubles per Z pulse, X clicks per
    # X pulse; the X error rate is the source paper's e_bx.
    prob_x = 0.004
    z_single = 0.4998
    z_double = 0.2633
    x_click = 0.7632
    e_bx = 0.0033
    spans = (
        "cli.main",
        "io_formats.read_events",
        "detector_sim.raw_bits_from_events",
        "extractor.extract",
        "io_formats.write_bits",
        "io_formats.read_bits",
        "stat_suite.run_battery",
        *(f"stat_suite.{t}" for t in BATTERY_TESTS),
        "scipy.fft.rfft",
    )

    def __init__(self, seed):
        super().__init__(seed)
        self._reference = None

    def outcome_counts(self) -> dict[tuple[int, int], int]:
        """Events per (basis, outcome). The counts are fixed, so n, m and
        the FFT lengths are the same for every seed; the seed decides
        where each event falls and with it every bit value."""
        n_x_pulses = round(self.prob_x * self.pulses)
        n_z_pulses = self.pulses - n_x_pulses
        z_single = round(self.z_single * n_z_pulses)
        z_double = round(self.z_double * n_z_pulses)
        x_click = round(self.x_click * n_x_pulses)
        x_wrong = round(self.e_bx * x_click)
        return {
            (BASIS_Z, D0): z_single // 2,
            (BASIS_Z, D1): z_single - z_single // 2,
            (BASIS_Z, DOUBLE): z_double,
            (BASIS_Z, NONE): n_z_pulses - z_single - z_double,
            (BASIS_X, D0): x_click - x_wrong,
            (BASIS_X, D1): x_wrong,
            (BASIS_X, NONE): n_x_pulses - x_click,
        }

    def make_inputs(self, d):
        # A uniformly random arrangement of the fixed counts, made block
        # by block (a hypergeometric split of what is left, then a shuffle
        # inside the block), which is much faster than one global shuffle.
        counts = self.outcome_counts()
        values = np.array([b | (o << 1) for b, o in counts], dtype=np.uint8)
        left = np.array(list(counts.values()))
        codes = np.empty(self.pulses, dtype=np.uint8)
        rng = self.rng(1)
        block = 1 << 16
        for lo in range(0, self.pulses, block):
            take = rng.multivariate_hypergeometric(left, min(block, self.pulses - lo))
            left -= take
            part = np.repeat(values, take)
            rng.shuffle(part)
            codes[lo : lo + len(part)] = part
        write_sqeb(os.path.join(d, "events.sqeb"), codes & 1, codes >> 1)
        with open(os.path.join(d, "hash.seed"), "wb") as f:
            f.write(self.rng(2).bytes(2 * self.pulses // 8))

    def prepare(self, d):
        # the operator's estimate from the known counts (README: estimate
        # with direct counts); it equals the one tally + estimate give
        counts = self.outcome_counts()
        n_z = counts[BASIS_Z, D0] + counts[BASIS_Z, D1]
        n_x = counts[BASIS_X, D0] + counts[BASIS_X, D1]
        return [
            ["estimate", "--n-z", str(n_z), "--n-x", str(n_x),
             "--e-bx", repr(counts[BASIS_X, D1] / n_x),
             "--duration", repr(self.pulses / 4e6),
             "--out", os.path.join(d, "estimate.txt")],
        ]

    def plan(self, d, out):
        cert = os.path.join(out, "certified.bits")
        return [
            ["extract", "--events", os.path.join(d, "events.sqeb"),
             "--estimate", os.path.join(d, "estimate.txt"),
             "--seed-file", os.path.join(d, "hash.seed"), "--out", cert],
            ["testsuite", "--bits", cert, "--max-failures", NO_SUITE_GATE,
             "--out", os.path.join(out, "battery.csv")],
        ]

    def check(self, d, out, iteration):
        if self._reference is None:
            basis, outcome = read_sqeb(os.path.join(d, "events.sqeb"))
            self._reference = (
                event_tally(basis, outcome),
                raw_bits(basis, outcome),
                seed_file_bits(os.path.join(d, "hash.seed")),
            )
        tally, x, seed_bits = self._reference
        cert = os.path.join(out, "certified.bits")
        bits, m = check_certified(cert, os.path.join(d, "estimate.txt"))
        check_battery(os.path.join(out, "battery.csv"))
        check_toeplitz(seed_bits, x, bits, self.rng(3, iteration))
        return {
            "counts": _counts(tally, m, spectral=True),
            "digests": {"estimate.txt": sha256(os.path.join(d, "estimate.txt")),
                        "certified.bits": sha256(cert)},
            "certified_bits": m,
        }


def _counts(tally: dict, m: int, spectral: bool) -> dict[str, int]:
    counts = {"n_z": tally["n_z"], "n_x": tally["n_x"], "m": m}
    if spectral:
        # the battery's spectral test transforms all m certified bits
        counts["spectral_len"] = m
        counts["spectral_max_prime"] = largest_prime_factor(m)
    return counts


WORKLOADS = {w.name: w for w in (DeskLaser, SunlightCheck, IngestExtract)}
