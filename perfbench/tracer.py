"""Spans around the public entry points of each siqrng module.

``Tracer.install`` replaces each entry point below with a wrapper that
records a span: name, start, end, parent span, run id, and the peak
``tracemalloc`` allocation above the level at the span's start (numpy
reports its buffers to tracemalloc). Spans stay in memory; the caller
writes them out when the run ends. An entry point that no longer exists
raises ``MissingEntryPoint``, so a rename cannot leave a layer silently
unmeasured.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc


class MissingEntryPoint(RuntimeError):
    """A wrapped function is gone from its module."""


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _rfft_len(args, kwargs, result):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return {"n": int(n) if n is not None else int(args[0].shape[-1])}


#: (module, attribute, span name, attributes taken from the call)
ENTRY_POINTS = (
    ("siqrng.cli", "main", "cli.main", lambda a, kw, r: {"command": a[0][0]}),
    ("siqrng.detector_sim", "run_simulation", "detector_sim.run_simulation",
     lambda a, kw, r: {"pulses": len(r)}),
    ("siqrng.detector_sim", "tally", "detector_sim.tally",
     lambda a, kw, r: {"n_z": r.n_z, "n_x": r.n_x}),
    ("siqrng.detector_sim", "raw_bits_from_events", "detector_sim.raw_bits_from_events",
     lambda a, kw, r: {"bits": len(r)}),
    ("siqrng.io_formats", "write_events", "io_formats.write_events", _file_size),
    ("siqrng.io_formats", "read_events", "io_formats.read_events", _file_size),
    ("siqrng.io_formats", "write_bits", "io_formats.write_bits", None),
    ("siqrng.io_formats", "read_bits", "io_formats.read_bits", None),
    ("siqrng.protocol_math", "solve_theta", "protocol_math.solve_theta", None),
    ("siqrng.protocol_math", "estimate_protocol", "protocol_math.estimate_protocol", None),
    ("siqrng.optimizer", "optimize_lambda", "optimizer.optimize_lambda", None),
    ("siqrng.optimizer", "flatness_report", "optimizer.flatness_report", None),
    ("siqrng.extractor", "extract", "extractor.extract",
     lambda a, kw, r: {"n": len(a[0]), "m": len(r.bits)}),
    ("siqrng.stat_suite", "run_battery", "stat_suite.run_battery", None),
    ("scipy.fft", "rfft", "scipy.fft.rfft", _rfft_len),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def install(self) -> None:
        """Wrap every entry point and start tracemalloc."""
        for module, attr, name, attrs in ENTRY_POINTS:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr, None)
            if orig is None:
                raise MissingEntryPoint(f"{module}.{attr} no longer exists")
            wrapped = self.wrap(name, orig, attrs)
            setattr(mod, attr, wrapped)
            # rebind names imported with `from module import attr`
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("siqrng") and getattr(other, attr, None) is orig:
                    setattr(other, attr, wrapped)
        stat_suite = importlib.import_module("siqrng.stat_suite")
        try:
            stat_suite.BATTERY = tuple(
                (test, self.wrap(f"stat_suite.{test}", fn, None))
                for test, fn in stat_suite.BATTERY
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise MissingEntryPoint(f"stat_suite.BATTERY is not (name, test) pairs: {exc}")
        tracemalloc.start()

    def wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _open(self, name: str) -> dict:
        current, peak = tracemalloc.get_traced_memory()
        for open_span in self._stack:
            open_span["_peak"] = max(open_span["_peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "_base": current,
            "_peak": current,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        self._stack.pop()
        base, top = span.pop("_base"), max(span.pop("_peak"), peak)
        span["peak_alloc_mb"] = (top - base) / 1e6
