"""Compare two sets of benchmark runs, per workload.

    python3 perfbench/compare.py BASE CHANGE [--bounds BENCHMARK.json]

BASE and CHANGE are files of run records, as ``run.py --record PATH``
appends them (one JSON object a line), or ``perfbench/baseline.json``,
whose last entry is used (``BASE@0`` picks entry 0). For every workload
and end-to-end metric it prints both medians and quartiles and a verdict:
``worse`` when the change's median is worse than the base's by more than
the metric's bound, ``unresolved`` when the base's own quartile spread is
wider than the bound, otherwise ``better`` or ``same``. Traced records
are compared the same way for the per-layer metrics, without a verdict.
The work counts (n_z, n_x, m, FFT and spectral lengths) must be equal to
the base's for the same workload and seed, or to the value all base runs
of the workload share; a difference is flagged, since the time of the
spectral test depends on how its length factors. Exits 1 when a metric
is worse or a count differs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(spec: str) -> list[dict]:
    path, _, entry = spec.partition("@")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".jsonl"):
        return [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    doc = json.loads(text)
    return doc["entries"][int(entry) if entry else -1]["records"]


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    q1, med, q3 = quartiles(base)
    change_med = statistics.median(change)
    worse_by = (change_med - med) / med if better == "lower" else (med - change_med) / med
    if worse_by > bound:
        return "worse"
    if med and (q3 - q1) / abs(med) > bound:
        return "unresolved"
    return "better" if worse_by < -(q3 - q1) / abs(med) else "same"


def compare_metrics(base, change, specs, with_verdict: bool) -> bool:
    worse = False
    for wl in sorted(set(base) & set(change)):
        print(f"\n{wl}: {len(base[wl])} base runs, {len(change[wl])} change runs")
        for spec in specs:
            name = spec["name"]
            b = [r["metrics"][name] for r in base[wl] if name in r["metrics"]]
            c = [r["metrics"][name] for r in change[wl] if name in r["metrics"]]
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            line = (
                f"  {name:40s} base {bq[1]:<11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                f"change {cq[1]:<11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]  x{ratio:.3f} {spec['unit']}"
            )
            if with_verdict:
                v = verdict(b, c, spec["better"], spec["bound"])
                worse |= v == "worse"
                line += f"  {v}"
            print(line)
    return worse


def compare_counts(base: list[dict], change: list[dict]) -> bool:
    """Each change count against the base's count for the same workload
    and seed or, for a seed the base lacks, against a count that every
    base run of the workload shares (counts that do not depend on the
    seed, such as ingest_extract's)."""
    by_seed: dict[tuple, dict] = {}
    shared: dict[str, dict[str, set]] = {}
    for r in base:
        by_seed.setdefault((r["workload"], r["seed"]), {}).update(r["counts"])
        for k, v in r["counts"].items():
            shared.setdefault(r["workload"], {}).setdefault(k, set()).add(v)
    differ, checked = False, 0
    for r in change:
        for k, v in sorted(r["counts"].items()):
            same_seed = by_seed.get((r["workload"], r["seed"]), {})
            values = shared.get(r["workload"], {}).get(k, set())
            ref = same_seed.get(k, next(iter(values)) if len(values) == 1 else None)
            if ref is None:
                continue
            checked += 1
            if ref != v:
                differ = True
                print(f"COUNTS DIFFER {r['workload']} seed {r['seed']}: {k} {ref} -> {v}")
    if not differ:
        print(f"work counts equal ({checked} compared)")
    return differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--bounds", default="BENCHMARK.json")
    args = p.parse_args(argv)
    with open(args.bounds, encoding="utf-8") as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)
    print("end-to-end metrics (untraced runs)")
    worse = compare_metrics(by_workload(base, 0), by_workload(change, 0), bench["end_to_end"], True)
    print("\nper-layer metrics (traced runs)")
    compare_metrics(by_workload(base, 1), by_workload(change, 1), bench["per_layer"], False)
    print()
    differ = compare_counts(base, change)
    return 1 if worse or differ else 0


if __name__ == "__main__":
    sys.exit(main())
