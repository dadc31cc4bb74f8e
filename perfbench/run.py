"""tflow benchmark: the main process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tflow checkout. Workloads: cli-propagate,
cli-closed-form (one fresh `tflow` process per operation) and
library-sweep (one long-lived process sweeping the public API). The
main process runs one operation at a time and has at most one child.
It prints progress on stderr and, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer split from
a traced run. Every output is checked against references computed apart
from tflow (see checks.py); the two kept faults named in README.md are
counted in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# fresh set-up processes per run: import alone for the CLI workloads, import
# plus a warm-up pass (about 2.5 s) for library-sweep
CLI_SETUP_SAMPLES = 6
SWEEP_SETUP_SAMPLES = 3
DEADLINE_S = 170
PROBLEMS_SHOWN = 3


class Deadline(Exception):
    pass


class Children:
    """Runs one child at a time and collects its resource usage."""

    def __init__(self, env: dict, scratch: Path):
        self.env = env
        self.scratch = scratch
        self.current: subprocess.Popen | None = None
        self.count = 0

    def run(self, args: list[str]) -> dict:
        """Run ``python3 <args>``; return exit code, times, rusage and output."""
        self.count += 1
        out_path = self.scratch / f"child-{self.count}.out"
        err_path = self.scratch / f"child-{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self.current = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                            stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(self.current.pid, 0)
            wall = time.perf_counter() - start
        code = self.current.returncode = os.waitstatus_to_exitcode(status)
        self.current = None
        return {"code": code, "start": start, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kib": usage.ru_maxrss,
                "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
                "stderr": err_path.read_text(encoding="utf-8", errors="replace")}

    def kill(self) -> None:
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:
                pass
            proc.returncode = -signal.SIGKILL


def child_env(out: Path) -> dict:
    """The fixed environment every child gets, whatever the caller's.

    Bytecode is written (to __pycache__ in the checkout), so after the
    priming import no child recompiles tflow. BLAS and OpenMP pools get one
    thread: on a shared 2-core machine their start-up and spin-waiting add
    0.1 to 0.3 s of CPU per process and make wall time depend on whether
    the second core happens to be free, while tflow's small matrices gain
    nothing from them.
    """
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(out),
            "LANG": "C.UTF-8", "LC_ALL": "C.UTF-8", "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0", "PYTHONNOUSERSITE": "1",
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def self_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def ready_time(run: dict) -> float:
    if run["code"] != 0:
        raise RuntimeError(f"set-up process failed: {run['stderr'][-400:]}")
    return json.loads(run["stdout"].splitlines()[-1])["ready"] - run["start"]


def scipy_import_seconds(stderr: str) -> float:
    """Sum of -X importtime self times of scipy modules, in seconds."""
    total = 0
    for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", stderr):
        if m.group(2).split(".")[0] == "scipy":
            total += int(m.group(1))
    return total * 1e-6


class Outcome:
    """Attempted/failed tally and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.kept: set[str] = set()

    def record(self, name: str, kept_fault: bool, problems: list[str], counted=True):
        if counted:
            self.attempted += 1
        if not problems:
            return
        if counted:
            self.failed += 1
        if kept_fault:
            self.kept.add(f"{name}: {problems[0]}")
        else:
            self.unexpected.extend(f"{name}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli_workload(name, seed, seconds, trace, kids: Children, out: Path) -> tuple:
    ops = workloads.CLI_WORKLOADS[name](seed)
    config = out / "optimize-config.json"
    config.write_text(json.dumps(workloads.OPTIMIZE_CONFIG), encoding="utf-8")
    wants = {op.name: checks.cli_reference(op) for op in ops}
    tally = Outcome()

    def argv(op, dest: Path, trace_file: str = "-"):
        args = [str(config) if a == "{config}" else a for a in op.argv]
        return [str(HERE / "child.py"), "cli", trace_file, *args, "--outdir", str(dest)]

    def run_round(tag: str, trace_dir: Path | None = None) -> dict:
        walls, cpus, rss = [], 0.0, 0
        t0, c0 = time.perf_counter(), self_cpu()
        for op in ops:
            dest = out / tag / op.name
            trace_file = str(trace_dir / f"{op.name}.json") if trace_dir else "-"
            r = kids.run(argv(op, dest, trace_file))
            walls.append(r["wall"])
            cpus += r["cpu"]
            rss = max(rss, r["maxrss_kib"])
            if r["code"] != 0:
                (dest / "exit.txt").parent.mkdir(parents=True, exist_ok=True)
                (dest / "exit.txt").write_text(f"exit {r['code']}: {r['stderr'][-300:]}")
        return {"tag": tag, "wall": time.perf_counter() - t0,
                "cpu": cpus + self_cpu() - c0, "op_walls": walls, "rss_kib": rss}

    def check_round(tag: str, counted: bool, baseline: str | None):
        for op in ops:
            dest = out / tag / op.name
            if (dest / "exit.txt").exists():
                problems = [(dest / "exit.txt").read_text()]
            else:
                problems = checks.check_cli(op, dest, wants[op.name])
                if baseline is not None:
                    problems += checks.same_outputs(out / baseline / op.name, dest)
            tally.record(op.name, op.kept_fault, problems, counted)

    # priming import: compiles tflow's bytecode once, untimed
    kids.run([str(HERE / "child.py"), "setup"])
    if not trace:
        def setup_samples(n):
            return [ready_time(kids.run([str(HERE / "child.py"), "setup"])) for _ in range(n)]

        # half the set-up samples before the rounds and half after, so a
        # slow spell of the machine weighs on fewer of them
        setups = setup_samples(CLI_SETUP_SAMPLES // 2)
        run_round("warmup")
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(f"round{len(rounds)}"))
        setups += setup_samples(CLI_SETUP_SAMPLES - len(setups))
        log(f"setup samples {['%.3f' % s for s in setups]}")
        check_round("warmup", False, None)
        for r in rounds:
            check_round(r["tag"], True, "warmup")
        metrics = {
            "wall_s": (median([r["wall"] for r in rounds]), "s"),
            "cpu_s": (median([r["cpu"] for r in rounds]), "s"),
            "op_p50_s": (median([w for r in rounds for w in r["op_walls"]]), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (max(r["rss_kib"] for r in rounds) / 1024.0, "MiB"),
        }
        log(f"{len(rounds)} rounds, walls {['%.3f' % r['wall'] for r in rounds]}")
        return tally, metrics

    imp = kids.run(["-X", "importtime", str(HERE / "child.py"), "setup"])
    modules = json.loads(imp["stdout"].splitlines()[-1])["modules"]
    run_round("warmup")
    # untraced and traced rounds alternate, so drift hits both alike
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_round(f"untraced{len(traced)}"))
        tdir = out / f"trace{len(traced)}"
        tdir.mkdir(parents=True)
        traced.append((run_round(f"traced{len(traced)}", tdir), tdir))
    check_round("warmup", False, None)
    for r in plain + [r for r, _ in traced]:
        check_round(r["tag"], True, "warmup")
    summaries = [json.loads(p.read_text(encoding="utf-8"))
                 for _, tdir in traced for p in sorted(tdir.glob("*.json"))]
    written = median([sum(f.stat().st_size for f in (out / r["tag"]).rglob("*")
                          if f.is_file() and f.name != "exit.txt") for r, _ in traced])
    overhead = median([r["wall"] for r, _ in traced]) - median([r["wall"] for r in plain])
    metrics = layer_metrics(summaries, len(traced), scipy_import_seconds(imp["stderr"]),
                            modules, written, overhead)
    return tally, metrics


# ---------------------------------------------------------------------------
# library sweep


def run_sweep_workload(seed, seconds, trace, kids: Children, out: Path) -> tuple:
    points = workloads.library_sweep(seed)
    wants = [checks.sweep_reference(pt) for pt in points]
    tally = Outcome()

    def job(setup_only: bool) -> Path:
        path = out / f"job-{'setup' if setup_only else 'run'}.json"
        path.write_text(json.dumps({"points": points, "seconds": seconds, "trace": trace,
                                    "setup_only": setup_only,
                                    "result": str(out / "sweep-result.json")}),
                        encoding="utf-8")
        return path

    child = str(HERE / "child.py")
    kids.run([child, "setup"])  # priming import, untimed
    if trace:
        imp = kids.run(["-X", "importtime", child, "sweep", str(job(True))])
        modules = json.loads(imp["stdout"].splitlines()[-1])["modules"]
        run = kids.run([child, "sweep", str(job(False))])
    else:
        def setup_samples(n):
            return [ready_time(kids.run([child, "sweep", str(job(True))])) for _ in range(n)]

        # the timed process is a set-up sample too; the others sit on both sides
        setups = setup_samples((SWEEP_SETUP_SAMPLES - 1) // 2)
        run = kids.run([child, "sweep", str(job(False))])
        setups.append(ready_time(run))
        setups += setup_samples(SWEEP_SETUP_SAMPLES - len(setups))
        log(f"setup samples {['%.3f' % s for s in setups]}")
    if run["code"] != 0:
        raise RuntimeError(f"sweep process failed: {run['stderr'][-600:]}")
    result = json.loads((out / "sweep-result.json").read_text(encoding="utf-8"))
    rounds = result["rounds"]
    first = [checks.check_sweep(pt, op["outcome"], want)
             for pt, op, want in zip(points, rounds[0]["ops"], wants)]
    for r in rounds:
        for k, (pt, op) in enumerate(zip(points, r["ops"])):
            # a later round repeating the first round's results has its check
            if r is rounds[0] or op["outcome"] == "same":
                problems = first[k]
            else:
                problems = checks.check_sweep(pt, op["outcome"], wants[k])
                problems.append("result differs between repeats")
            tally.record(f"{pt['kind']}[{k}]", pt.get("kept_fault", False), problems)
    if not trace:
        metrics = {
            "wall_s": (median([r["wall"] for r in rounds]), "s"),
            "cpu_s": (median([r["cpu"] for r in rounds]), "s"),
            "op_p50_s": (median([op["seconds"] for r in rounds for op in r["ops"]]), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (run["maxrss_kib"] / 1024.0, "MiB"),
        }
        log(f"{len(rounds)} rounds, median wall {metrics['wall_s'][0]:.3f}")
        return tally, metrics
    plain = [r["wall"] for r in rounds if not r["traced"]]
    traced = [r["wall"] for r in rounds if r["traced"]]
    metrics = layer_metrics([result["trace"]], len(traced), scipy_import_seconds(imp["stderr"]),
                            modules, 0, median(traced) - median(plain))
    return tally, metrics


# ---------------------------------------------------------------------------
# per-layer metrics


LAYER_METRICS = [
    ("import.scipy_s", "s"), ("import.modules", "count"),
    ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("kernels.self_s", "s"),
    ("dynamics.self_s", "s"), ("dynamics.rk4_steps", "count"),
    ("dynamics.attempts_per_propagation", "ratio"), ("dynamics.propagations", "count"),
    ("operators.self_s", "s"), ("operators.calls", "count"),
    ("models.self_s", "s"), ("models.quad_calls", "count"),
    ("tf.self_s", "s"),
    ("protocol.self_s", "s"), ("protocol.points_sampled", "count"),
    ("qsl.self_s", "s"),
    ("optimize.self_s", "s"), ("optimize.cost_evals", "count"),
    ("trace.overhead_s", "s"), ("src.lines", "count"),
]


def layer_metrics(summaries: list[dict], n_rounds: int, scipy_s: float, modules: int,
                  bytes_written: float, overhead: float) -> dict:
    """Per traced round (one pass over the operation list): each layer's
    self time and each counter, summed over the trace summaries of
    ``n_rounds`` rounds and divided by it. A layer missing from the program
    reads zero."""
    def per_round(get) -> float:
        return sum(get(s) for s in summaries) / n_rounds

    def self_s(layer):
        return per_round(lambda s: s["self_s"].get(layer, 0.0))

    def calls(name):
        return per_round(lambda s: s["calls"].get(name, 0))

    def count(name):
        return per_round(lambda s: s["counts"].get(name, 0))

    propagations = count("propagations")
    values = {
        "import.scipy_s": scipy_s, "import.modules": modules,
        "cli.bytes_written": bytes_written,
        "dynamics.rk4_steps": count("rk4_steps"),
        "dynamics.attempts_per_propagation":
            count("stepping_passes") / propagations if propagations else 0.0,
        "dynamics.propagations": propagations,
        "operators.calls": per_round(lambda s: s["spans"].get("operators", 0)),
        "models.quad_calls": calls("models.quad"),
        "protocol.points_sampled": count("points_sampled"),
        "optimize.cost_evals": calls("optimize.cost"),
        "trace.overhead_s": overhead, "src.lines": src_lines(),
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = self_s(layer)
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tflow" / "__init__.py").is_file():
        log(f"no tflow sources under {ROOT / 'src'}; run from a tflow checkout")
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    kids = Children(child_env(out), out)

    def on_deadline(signum, frame):
        kids.kill()
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.workload == "library-sweep":
            tally, metrics = run_sweep_workload(args.seed, args.seconds, args.trace, kids, out)
        else:
            tally, metrics = run_cli_workload(args.workload, args.seed, args.seconds,
                                              args.trace, kids, out)
    except (Deadline, RuntimeError) as exc:
        log(f"run aborted: {exc}")
        return 3
    finally:
        signal.alarm(0)
        kids.kill()

    for line in sorted(tally.kept):
        log(f"kept fault: {line}")
    for line in tally.unexpected[:PROBLEMS_SHOWN]:
        log(f"FAILED CHECK: {line}")
    log(f"environment given to children: {json.dumps(kids.env)}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
