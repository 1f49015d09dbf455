"""Run one workload iteration inside this process through siqrng.cli.main.

    python3 perfbench/inproc.py PLAN.json RESULT.json

PLAN holds ``src`` (the directory holding the siqrng package), ``argv``
(the CLI argument lists, the same ones the timed run passes to
``python -m siqrng.cli``), ``trace`` and ``run_id``. RESULT receives the
import time of siqrng.cli, the wall time of the argument lists, their
exit codes and, when tracing, the spans; or, when an entry point to be
traced is missing, only ``error``.
"""
from __future__ import annotations

import json
import sys
import time


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])
    t0 = time.perf_counter()
    import siqrng.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if plan["trace"]:
        from tracer import MissingEntryPoint, Tracer

        tracer = Tracer(plan["run_id"])
        try:
            tracer.install()
        except MissingEntryPoint as exc:
            with open(result_path, "w", encoding="utf-8") as f:
                json.dump({"error": str(exc)}, f)
            sys.exit(3)
    codes = []
    t0 = time.perf_counter()
    for argv in plan["argv"]:
        codes.append(cli.main(argv))
    wall_s = time.perf_counter() - t0
    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "exit_codes": codes,
        "spans": tracer.spans if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
