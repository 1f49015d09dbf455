"""Bit-exact file formats and the run configuration.

Event files come in a text and a binary form that round-trip losslessly
for consecutive-index streams. Certified bits are packed MSB-first with
a `.len` sidecar holding the bit count and the failure probability.
Config files are flat `key = value` lines with `#` comments; unknown
keys are rejected.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .detector_sim import (
    BASIS_X,
    BASIS_Z,
    OUTCOME_D0,
    OUTCOME_D1,
    OUTCOME_DOUBLE,
    OUTCOME_NONE,
    DetectorParams,
    EventStream,
    MeasurementConfig,
)
from .errors import ConfigError, FormatError
from .protocol_math import TallySummary
from .source_sim import SUNLIGHT_FLUCTUATION, SourceParams

TEXT_MAGIC = "#SIQRNG-EVENTS v1"
BINARY_MAGIC = b"SQEB"
BINARY_VERSION = 1

_BASIS_TO_CHAR = {BASIS_Z: "Z", BASIS_X: "X"}
_CHAR_TO_BASIS = {v: k for k, v in _BASIS_TO_CHAR.items()}
_OUTCOME_TO_CHAR = {
    OUTCOME_NONE: "N",
    OUTCOME_D0: "A",
    OUTCOME_D1: "B",
    OUTCOME_DOUBLE: "D",
}
_CHAR_TO_OUTCOME = {v: k for k, v in _OUTCOME_TO_CHAR.items()}


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-siqrng-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Event files


def events_to_text(stream: EventStream) -> str:
    lines = [TEXT_MAGIC, "index,basis,outcome"]
    for i in range(len(stream)):
        lines.append(
            f"{stream.start + i},{_BASIS_TO_CHAR[int(stream.basis[i])]},"
            f"{_OUTCOME_TO_CHAR[int(stream.outcome[i])]}"
        )
    return "\n".join(lines) + "\n"


def events_from_text(text: str) -> EventStream:
    lines = text.split("\n")
    if not lines or lines[0] != TEXT_MAGIC:
        raise FormatError("missing event-file magic line")
    pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    if pos >= len(lines) or lines[pos] != "index,basis,outcome":
        raise FormatError("missing event-file column header")
    pos += 1
    records = [ln for ln in lines[pos:] if ln]
    basis = np.empty(len(records), dtype=np.uint8)
    outcome = np.empty(len(records), dtype=np.uint8)
    start = 0
    prev = -1
    for i, ln in enumerate(records):
        parts = ln.split(",")
        if len(parts) != 3:
            raise FormatError(f"bad event record: {ln!r}")
        try:
            idx = int(parts[0])
            basis[i] = _CHAR_TO_BASIS[parts[1]]
            outcome[i] = _CHAR_TO_OUTCOME[parts[2]]
        except (ValueError, KeyError) as exc:
            raise FormatError(f"bad event record: {ln!r}") from exc
        if i == 0:
            start = idx
        elif idx != prev + 1:
            raise FormatError(f"event indices not consecutive at {idx}")
        prev = idx
    return EventStream(basis, outcome, start=start)


def events_to_binary(stream: EventStream) -> bytes:
    if stream.start != 0:
        raise FormatError("binary form stores streams starting at index 0")
    header = BINARY_MAGIC + bytes([BINARY_VERSION]) + struct.pack(
        "<Q", len(stream)
    )
    body = np.left_shift(stream.outcome, 1)
    body |= stream.basis
    return header + memoryview(body)


def events_from_binary(data: bytes) -> EventStream:
    if len(data) < 13 or data[:4] != BINARY_MAGIC:
        raise FormatError("missing binary event-file magic")
    if data[4] != BINARY_VERSION:
        raise FormatError(f"unsupported event-file version {data[4]}")
    (count,) = struct.unpack("<Q", data[5:13])
    if len(data) != 13 + count:
        raise FormatError(
            f"event-file length {len(data)} does not match count {count}"
        )
    raw = np.frombuffer(data, dtype=np.uint8, offset=13)
    if raw.max(initial=0) > 7:
        raise FormatError("event byte has reserved bits set")
    return EventStream(raw & 1, raw >> 1, start=0)


def write_events(path: str, stream: EventStream, binary: bool = True) -> None:
    if binary:
        atomic_write_bytes(path, events_to_binary(stream))
    else:
        atomic_write_text(path, events_to_text(stream))


def read_events(path: str) -> EventStream:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] == BINARY_MAGIC:
        return events_from_binary(data)
    try:
        return events_from_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError("event file is neither binary nor UTF-8 text") from exc


# ---------------------------------------------------------------------------
# Certified bits files


def write_bits(path: str, bits: np.ndarray, epsilon_total: float) -> None:
    """Certified bits packed MSB-first, zero-padded; `.len` sidecar with
    the decimal bit count and the failure probability."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8))
    atomic_write_bytes(path, packed.tobytes())
    atomic_write_text(path + ".len", f"{len(bits)}\n{epsilon_total:.6e}\n")


def read_bits(path: str) -> tuple[np.ndarray, float | None]:
    """Bits of a certified file; the sidecar, when present, fixes the
    exact bit count and supplies epsilon."""
    with open(path, "rb") as f:
        data = f.read()
    sidecar = path + ".len"
    epsilon = None
    count = len(data) * 8
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as f:
            lines = f.read().splitlines()
        try:
            count = int(lines[0])
            if len(lines) > 1 and lines[1]:
                epsilon = float(lines[1])
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad sidecar {sidecar}") from exc
        if count < 0:
            raise FormatError(f"negative sidecar bit count {count}")
        if count > len(data) * 8:
            raise FormatError("sidecar bit count exceeds file size")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    return bits, epsilon


def read_seed_file(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------------
# Key-value artifacts (tally, estimate)


def dump_keyvals(pairs: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs.items())


def parse_keyvals(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise FormatError(f"bad key-value line: {ln!r}")
        k, v = ln.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def tally_to_text(t: TallySummary) -> str:
    return dump_keyvals(
        {
            "n_total": t.N_total,
            "n_x_assigned": t.N_X,
            "n_z_assigned": t.N_Z,
            "n_x": t.n_x,
            "n_z": t.n_z,
            "x_wrong_singles": t.x_wrong_singles,
            "x_doubles": t.x_doubles,
            "z_doubles_discarded": t.z_doubles_discarded,
            "e_bx": repr(t.e_bx),
        }
    )


def tally_from_text(text: str) -> TallySummary:
    kv = parse_keyvals(text)
    try:
        return TallySummary(
            N_total=int(kv["n_total"]),
            N_X=int(kv["n_x_assigned"]),
            N_Z=int(kv["n_z_assigned"]),
            n_x=int(kv["n_x"]),
            n_z=int(kv["n_z"]),
            x_wrong_singles=int(kv["x_wrong_singles"]),
            x_doubles=int(kv["x_doubles"]),
            z_doubles_discarded=int(kv["z_doubles_discarded"]),
            e_bx=float(kv["e_bx"]),
        )
    except KeyError as exc:
        raise FormatError(f"tally file missing key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"tally file has a bad value: {exc}") from exc


# ---------------------------------------------------------------------------
# Run configuration

_PHASE_QUARTER = math.pi / 4.0


def _default_config() -> dict:
    return {
        "source.kind": "laser",
        "source.lambda": 14.4,
        "source.pulse_rate": 4.0e6,
        "source.hwp_deg": 22.5,
        "source.qwp_deg": 0.0,
        "source.fluctuation": None,  # resolved from source.kind
        "detector.eta0": 0.1,
        "detector.eta1": 0.1,
        "detector.dark_rate": 200.0,
        "detector.dead_time": 50e-9,
        "detector.gate_width": 100e-9,
        "measure.prob_x": 0.004,
        "measure.phase_z_c": 0.0,
        "measure.phase_z_a": 0.0,
        "measure.phase_x_c": -_PHASE_QUARTER,
        "measure.phase_x_a": _PHASE_QUARTER,
        "measure.basis_seed": 2,
        "security.theta": 0.001,
        "security.t_e": 100,
        "calibration.coefficient": 0.952,
        "optimize.lambda_lo": 1.0,
        "optimize.lambda_hi": 40.0,
        "optimize.e_model": "constant",
        "optimize.e_bx": 0.0033,
        "optimize.e_d": 0.005,
        "suite.alpha": 0.01,
        "suite.max_failures": 1,
        "run.n_pulses": 10_000_000,
        "run.seed": 1,
        "run.duration": None,  # None -> n_pulses / pulse_rate
        "run.extractor_seed": 20190919,
        "path.events": "events.sqeb",
        "path.seed": "",
        "path.output": "certified.bits",
    }


_CONFIG_TYPES = {
    "source.kind": str,
    "optimize.e_model": str,
    "path.events": str,
    "path.seed": str,
    "path.output": str,
    "measure.basis_seed": int,
    "security.t_e": int,
    "suite.max_failures": int,
    "run.n_pulses": int,
    "run.seed": int,
    "run.extractor_seed": int,
}


@dataclass
class RunConfig:
    """Flat dotted-key configuration; defaults are the bundled laser
    operating point."""

    values: dict

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(values=_default_config())

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls.defaults()
        for ln in text.splitlines():
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ConfigError(f"bad config line: {ln!r}")
            key, raw = (s.strip() for s in ln.split("=", 1))
            cfg.set(key, raw)
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_text(f.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def set(self, key: str, raw: str) -> None:
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        typ = _CONFIG_TYPES.get(key, float)
        try:
            self.values[key] = typ(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key!r}: {raw!r} ({typ.__name__})"
            ) from exc

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def fluctuation(self) -> float:
        v = self.values["source.fluctuation"]
        if v is None:
            return (
                SUNLIGHT_FLUCTUATION
                if self.values["source.kind"] == "sunlight"
                else 0.0
            )
        return float(v)

    @property
    def duration(self) -> float:
        """Run seconds for the rate: run.duration, else n_pulses / pulse_rate."""
        v = self.values["run.duration"]
        if v is not None:
            return check_duration(v, "run.duration")
        rate = self.values["source.pulse_rate"]
        derived = self.values["run.n_pulses"] / rate if rate > 0 else math.nan
        return check_duration(derived, "run.n_pulses / source.pulse_rate")

    def source_params(self) -> SourceParams:
        return SourceParams(
            mean_photons_lambda=self.values["source.lambda"],
            pulse_rate_G=self.values["source.pulse_rate"],
            hwp_angle=self.values["source.hwp_deg"],
            qwp_angle=self.values["source.qwp_deg"],
            intensity_fluctuation_rel_std=self.fluctuation,
            source_kind=self.values["source.kind"],
        )

    def detector_params(self) -> DetectorParams:
        return DetectorParams(
            eta0=self.values["detector.eta0"],
            eta1=self.values["detector.eta1"],
            dark_rate=self.values["detector.dark_rate"],
            dead_time=self.values["detector.dead_time"],
            gate_width=self.values["detector.gate_width"],
        )

    def measurement_config(self) -> MeasurementConfig:
        return MeasurementConfig(
            prob_X=self.values["measure.prob_x"],
            phase_Z=(
                self.values["measure.phase_z_c"],
                self.values["measure.phase_z_a"],
            ),
            phase_X=(
                self.values["measure.phase_x_c"],
                self.values["measure.phase_x_a"],
            ),
            basis_seed=self.values["measure.basis_seed"],
        )


def check_duration(seconds: float, name: str) -> float:
    """``seconds`` if it is finite and positive; ConfigError otherwise."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(
            f"{name} must be a positive number of seconds, got {seconds!r}"
        )
    return float(seconds)


def derived_seed_bytes(extractor_seed: int, nbits: int) -> bytes:
    """Deterministic seed material for simulation runs without an
    operator seed file; hardware deployments must supply a real file."""
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=extractor_seed))
    )
    return gen.bytes((nbits + 7) // 8)
