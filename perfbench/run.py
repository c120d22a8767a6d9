"""Benchmark entry point.

    python3 perfbench/run.py --workload train_triangle --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the repository root; the package is imported from ``src/`` next to
this directory. With ``--trace 0`` the last stdout line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. Earlier
stdout lines record the environment and per-run details. ``--workload all``
runs every workload in a fresh process, one after another, and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (metric, unit) of the untraced run, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("graphs_per_s", "graphs/s"),
    ("walk_positions_per_s", "positions/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
]


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# =============================================================================
# Environment record
# =============================================================================

def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"kind": "environment", "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_threads_env": {k: os.environ[k] for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                                 if k in os.environ},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(ROOT)}


# =============================================================================
# One workload in this process
# =============================================================================

def timed_loop(wl, rec, state, seconds: float, between=None) -> tuple[list, dict]:
    """Repeat groups until ``seconds`` have passed (at least one group), then
    run the workload's cross-group checks with recording off. ``between()``,
    if given, runs after each group, and its time does not count."""
    from perfbench.tracing import RUN, perf
    results = []
    rec.phase = RUN
    start, paused = perf(), 0.0
    while not results or perf() - start - paused < seconds:
        rec.group = len(results)
        try:
            results.append(wl.run_group(rec, state, rec.group))
        except Exception as exc:     # an op that raises counts as failed; keep measuring
            rec.end_op(failed=True)
            results.append({"problems": [f"{type(exc).__name__}: {exc}"]})
        if between is not None:
            rec.phase = None
            t0 = perf()
            between()
            paused += perf() - t0
            rec.phase = RUN
    rec.phase = None
    try:
        later = wl.finish(rec, state, results)
    except Exception as exc:         # a check that raises fails the first group
        later = {0: [f"{type(exc).__name__}: {exc}"]}
    return results, later


class Setups:
    """Timed set-ups of one workload, spread over the run in windows.

    Each call of ``window()`` sets the workload up at least once and again
    until ``budget`` seconds have passed, and returns the last state. The garbage of the previous set-up is collected
    before each timed one, so every set-up starts from the same heap.
    """

    def __init__(self, wl, budget: float):
        self.wl, self.budget = wl, budget
        self.times: list[float] = []
        self.problems: list[str] = []

    def window(self):
        from perfbench.tracing import perf
        state, done = None, 0
        start = perf()
        while not done or perf() - start < self.budget:
            state = None
            gc.collect()
            t0 = perf()
            state = self.wl.setup()
            self.times.append(perf() - t0)
            self.problems += self.wl.setup_problems(state)
            done += 1
        return state


def score(rec, results: list, later: dict, setup_problems: list) -> tuple[int, int, list]:
    """Mark ops of failed groups; returns (attempted, failed, problems)."""
    problems = list(setup_problems)
    bad = set()
    for g, r in enumerate(results):
        found = r["problems"] + later.get(g, [])
        if found or setup_problems:
            bad.add(g)
            problems += [f"group {g}: {p}" for p in found]
    for op in rec.ops:
        op.failed = op.failed or op.group in bad
    with_ops = {op.group for op in rec.ops}
    empty_failed = len(bad - with_ops)
    return (len(rec.ops) + empty_failed,
            sum(op.failed for op in rec.ops) + empty_failed, problems)


def tail(values: list[float]) -> dict | None:
    """Highest of a few percentiles with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = max(int(-(-p * n // 100)) - 1, 0)          # nearest-rank index
        if n - 1 - rank >= 10:
            return {"percentile": p, "value": ordered[rank], "unit": "ms", "samples": n}
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details line)."""
    from perfbench import tracing
    from perfbench.workloads import FULL, WORKLOADS
    sizes = FULL if sizes is None else sizes
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        wl = WORKLOADS[name](seed, sizes, workdir)
        # Set-ups run before the loop and after each group, so that their
        # median samples the same stretch of time as the ops do.
        setups = Setups(wl, 0.0 if trace else sizes.setup_window_s)
        state = setups.window()
        rec = tracing.Recorder()
        with tracing.patched(wl.op_hooks(rec)):
            results, later = timed_loop(wl, rec, state, seconds / 2 if trace else seconds,
                                        between=None if trace else setups.window)
        setup_times, setup_problems = setups.times, setups.problems
        attempted, failed, problems = score(rec, results, later, setup_problems)
        details = {"kind": "details", "workload": name, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "groups": len(results), "ops": len(rec.ops),
                   "setup_s_runs": setup_times, **wl.details(results)}
        if trace:
            traced = tracing.Recorder(tracing=True)
            with tracing.patched(tracing.span_patches(traced)):
                traced.phase = tracing.SETUP
                traced_state = wl.setup()
                traced.phase = None
                traced_setup_problems = wl.setup_problems(traced_state)
                with tracing.patched(wl.op_hooks(traced)):
                    results, later = timed_loop(wl, traced, traced_state, seconds / 2)
            more = score(traced, results, later, traced_setup_problems)
            attempted, failed = attempted + more[0], failed + more[1]
            problems += more[2] + tracing.consistency_errors(traced)
            values = tracing.layer_metrics(traced, 1, rec.ops)
            units = {m: u for m, u, _ in tracing.per_layer_spec()}
            metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
            details.update(traced_groups=len(results), traced_ops=len(traced.ops))
        else:
            ok = [op for op in rec.ops if not op.failed] or rec.ops
            op_ms = [1e3 * op.seconds for op in ok]
            values = {
                "setup_s": statistics.median(setup_times),
                "graphs_per_s": statistics.median(op.graphs / op.seconds for op in ok),
                "walk_positions_per_s": statistics.median(op.positions / op.seconds for op in ok),
                "op_ms.p50": statistics.median(op_ms),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
            details["op_ms.tail"] = tail(op_ms)
        details["failed_share"] = {"value": failed / attempted,
                                   "unit": "failed/attempted"}
        details["problems"] = problems[:20]
        result = {"correct": failed == 0 and not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return result, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# =============================================================================
# Every workload, one fresh process each
# =============================================================================

def run_all(seed: int, seconds: float, trace: int) -> int:
    from perfbench.workloads import WORKLOADS
    summary, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result, details = lines[-1], next(x for x in lines if x.get("kind") == "details")
        summary[name] = {"result": result, "details": details}
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ops={details['ops']}")
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        for key in ("failed_share", "train_loss"):
            if key in details:
                rows.append((key, details[key]["value"], details[key]["unit"]))
        if details.get("op_ms.tail"):
            t = details["op_ms.tail"]
            rows.append((f"op_ms.tail (p{t['percentile']:g} of {t['samples']})",
                         t["value"], "ms"))
        for metric, value, unit in rows:
            print(f"  {metric:44s} {value:14.6g} {unit}")
        status |= 0 if result["correct"] else 1
    _emit({"kind": "summary", "seed": seed, "seconds": seconds, "trace": trace,
           "workloads": summary})
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_triangle", "eval_ssm", "walks_100k", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "neuralwalker" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package sources at {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    _emit(environment())
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _emit(details)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
