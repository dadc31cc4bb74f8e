"""Code that runs inside the benchmark's child processes.

    python perfbench/child.py setup            import tflow.cli, report when ready
    python perfbench/child.py cli TRACE ARGS   one `tflow ARGS` run; TRACE is a
                                               span file to write, or - for none
    python perfbench/child.py sweep JOB        the library-sweep process

Only the standard library is imported before tflow, so the time to
"ready" is the program's own start-up. Times are CLOCK_MONOTONIC
readings (``time.perf_counter``), comparable with the parent's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _setup() -> int:
    import tflow.cli  # noqa: F401

    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "modules": len(sys.modules)}))
    return 0


def _cli(trace_path: str, argv: list[str]) -> int:
    import tflow.cli

    if trace_path == "-":
        return tflow.cli.main(argv)
    sys.path.insert(0, str(HERE))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return tflow.cli.main(argv)
    finally:
        tracing.dump(tracer, trace_path)


def _tolist(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _tolist(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_tolist(v) for v in value]
    return value


def _same(a, b) -> bool:
    """Exact equality of nested results (arrays compared element by element)."""
    import numpy as np

    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _sweep(job_path: str) -> int:
    """Warm-up pass, then whole rounds of the sweep until the time is up.

    In a traced job the first half of the time runs untraced rounds and
    the second half traced ones, so the two can be compared in one process.
    """
    import resource

    sys.path.insert(0, str(HERE))
    import sweep

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    points = job["points"]
    for pt in points:
        sweep.run_point(pt)
    print(json.dumps({"ready": time.perf_counter(),
                      "modules": len(sys.modules)}), flush=True)
    if job["setup_only"]:
        return 0

    def cpu() -> float:
        use = resource.getrusage(resource.RUSAGE_SELF)
        return use.ru_utime + use.ru_stime

    tracer = None
    rounds = []
    first = None
    start = time.perf_counter()
    phases = [(False, job["seconds"] / 2), (True, job["seconds"])] if job["trace"] \
        else [(False, job["seconds"])]
    for traced, until in phases:
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        while True:
            t0, c0 = time.perf_counter(), cpu()
            ops = []
            for pt in points:
                s = time.perf_counter()
                outcome = sweep.run_point(pt)
                ops.append({"seconds": time.perf_counter() - s, "outcome": outcome})
            wall, used = time.perf_counter() - t0, cpu() - c0
            # later rounds keep only whether they repeat the first round's
            # results, so memory does not grow with the number of rounds
            if first is None:
                first = [op["outcome"] for op in ops]
            else:
                for op, ref in zip(ops, first):
                    if _same(op["outcome"], ref):
                        op["outcome"] = "same"
            rounds.append({"traced": traced, "wall": wall, "cpu": used, "ops": ops})
            if time.perf_counter() - start >= until:
                break
    result = {"rounds": _tolist(rounds),
              "trace": tracer.summary() if tracer is not None else None}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return _setup()
    if mode == "cli":
        return _cli(argv[1], argv[2:])
    if mode == "sweep":
        return _sweep(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
