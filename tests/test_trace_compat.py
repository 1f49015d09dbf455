"""The benchmark's traced run, in small: perfbench's tracer wrapped around
``extract`` and ``testsuite`` must record every span its ingest workload
requires, each nested inside its parent, and a ``scipy.fft.rfft`` span
inside the spectral test. The spans' bit counts, which the tracer takes
from ``len()`` of the raw bits and of the certified bits, must be the
workload's n_z and certified length.

perfbench is imported read-only from the repository root; its workload
writes the inputs (a smaller SQEB file, the hash seed and the estimate),
so the test drives the program exactly as the benchmark does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import siqrng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD = """
import json, os, sys
sys.path.insert(0, {perfbench!r})
from siqrng import cli, io_formats
from tracer import Tracer
from workloads import BASIS_Z, D0, D1, IngestExtract

class SmallIngest(IngestExtract):
    pulses = 3_000_000  # about 1.36e6 certified bits, above the battery's 1e6

d = {tmp!r}
wl = SmallIngest(7)
wl.make_inputs(d)
setup = [cli.main(argv) for argv in wl.prepare(d)]
tracer = Tracer("compat")
tracer.install()
codes = [cli.main(argv) for argv in wl.plan(d, d)]
with open(os.path.join(d, "estimate.txt")) as f:
    est = io_formats.parse_keyvals(f.read())
counts = wl.outcome_counts()
print(json.dumps({{"setup": setup, "codes": codes, "spans": tracer.spans,
                  "required": list(IngestExtract.spans),
                  "n_z": counts[BASIS_Z, D0] + counts[BASIS_Z, D1],
                  "m": int(est["bits"])}}))
"""


def test_traced_ingest_records_every_required_span(tmp_path):
    src = os.path.dirname(os.path.dirname(siqrng.__file__))
    code = CHILD.format(perfbench=str(PERFBENCH), tmp=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["setup"] == [0]
    assert result["codes"] == [0, 0], proc.stderr
    spans = result["spans"]
    recorded = {span["name"] for span in spans}
    assert set(result["required"]) <= recorded, set(result["required"]) - recorded
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["start"] <= span["end"], span
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"], (parent, span)
            assert span["end"] <= parent["end"], (parent, span)
    # the benchmark reads the spectral test's transform length from the
    # scipy.fft.rfft spans under it, so the test must run its DFT there
    spectral = {span["id"] for span in spans if span["name"] == "stat_suite.spectral"}
    assert any(
        span["name"] == "scipy.fft.rfft" and span["parent"] in spectral
        for span in spans
    )
    # perfbench's per-layer bit counts come from these attributes
    (raw,) = [s for s in spans if s["name"] == "detector_sim.raw_bits_from_events"]
    (extract,) = [s for s in spans if s["name"] == "extractor.extract"]
    assert result["m"] > 1_000_000
    assert raw["bits"] == extract["n"] == result["n_z"]
    assert extract["m"] == result["m"]
