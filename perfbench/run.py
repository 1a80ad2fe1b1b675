"""qcorolla benchmark: seeded corpora, three closed-loop workloads, per-layer traces.

Run from the repository root::

    python3 perfbench/run.py --workload graph_build --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py              # every workload, one after another

``--trace 0`` measures end-to-end metrics (set-up time, pass wall time, op
latency p50/p90, peak RSS, error rate) with no instrumentation, after one
untimed in-process warm-up pass whose checks also count. ``--trace 1``
alternates untraced and traced passes of the same workload and reports the
per-layer metrics of ``tracing.layer_metrics`` plus ``trace.overhead_ratio``.
Each metric's unit is the one ``BENCHMARK.json`` declares for it. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 and prints no result when that is missing.
``baseline.json`` beside this file records the machine, the layer -> end-to-end
predictions and the numbers of the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread (nproc is 2); set before numpy loads, and CLI children inherit it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_REPEATS = 11
SETUP_SECONDS = 2.0  # set-ups run this long before the passes and again after them
IMPORT_PROBES = 5
NAMES = ("graph_build", "entangle_wide", "cli_session")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def middle_mean(values) -> float:
    """Mean of the middle half of ``values``, a quarter of them dropped at each end.

    The host's speed flips between two levels for seconds at a time, so pass
    times and set-up times are bimodal. A median then jumps from one level to
    the other between runs; this mean moves with the share of slow time and
    still ignores outliers.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def _passes(run_one, seconds: float, start: float) -> None:
    """Call ``run_one`` at least once, and again while a pass of average length fits in ``seconds``."""
    durations = []
    while True:
        begin = time.perf_counter()
        run_one()
        durations.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.fmean(durations) > seconds:
            return


def _set_ups(workload, setups) -> None:
    """Append the times of at least ``SETUP_REPEATS`` set-ups lasting at least ``SETUP_SECONDS``."""
    begin, count = time.perf_counter(), len(setups)
    while len(setups) - count < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        setups.append(workload.setup())


def _timed_pass(workload, ops, in_process: bool) -> float:
    start = time.perf_counter()
    workload.run_pass(ops, in_process=in_process)
    return time.perf_counter() - start


def measure_end_to_end(workload, seconds: float):
    from workloads import Ops

    # set-ups before, between and after the passes, so that their mean covers the whole
    # run: a cli_session pass takes most of a run, and the host's speed changes within one
    setups = []
    _set_ups(workload, setups)
    ops, walls, p50s, p90s = Ops(), [], [], []
    # untimed warm-up pass; its checks count, and it records cli_session's reference stdout
    workload.run_pass(ops, in_process=True)
    ops.op_ms.clear()

    def one_pass():
        first = len(ops.op_ms)
        walls.append(_timed_pass(workload, ops, in_process=False))
        p50s.append(statistics.median(ops.op_ms[first:]))
        p90s.append(percentile(ops.op_ms[first:], 0.9))
        setups.append(workload.setup())

    _passes(one_pass, seconds, time.perf_counter())
    _set_ups(workload, setups)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_session" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": middle_mean(setups),
        "wall_s": middle_mean(walls),
        "op_p50_ms": middle_mean(p50s),
        "op_p90_ms": middle_mean(p90s),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    per_pass = len(ops.op_ms) // len(walls)
    notes = {
        "setup_s": f"middle mean of {len(setups)} set-ups",
        "wall_s": f"middle mean of {len(walls)} passes",
        "op_p50_ms": f"middle mean of per-pass p50s, n={per_pass} {workload.op_label} ops per pass",
        "op_p90_ms": f"same, {per_pass - math.ceil(0.9 * per_pass)} beyond p90 per pass",
        "peak_rss_mb": "largest child command" if workload.name == "cli_session" else "this process",
    }
    return metrics, notes, ops


def _import_ms() -> float:
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qcorolla.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def measure_layers(workload, seconds: float, trace_path: Path):
    from tracing import Tracer, instrument, layer_metrics
    from workloads import Ops

    workload.setup()
    extra = {"cli.import_ms": _import_ms() if workload.name == "cli_session" else 0.0}
    ops, tracer = Ops(), Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    workload.run_pass(ops, in_process=True)  # warm-up: imports, page cache, the program's own caches

    def pair():
        plain.append(_timed_pass(workload, ops, in_process=True))
        ops.tracer = tracer
        with instrument(tracer):
            traced.append(_timed_pass(workload, ops, in_process=True))
        ops.tracer = None

    _passes(pair, seconds, start)
    tracer.write(trace_path)
    values = layer_metrics(tracer, len(traced))
    values.update(extra)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes = {"trace.overhead_ratio": f"{len(traced)} traced vs {len(plain)} untraced in-process passes"}
    return dict(sorted(values.items())), notes, ops


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares the metrics of this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](work.relative_to(ROOT), seed)
        if trace:
            metrics, notes, ops = measure_layers(workload, seconds, WORK / f"trace-{name}-s{seed}.jsonl")
        else:
            metrics, notes, ops = measure_end_to_end(workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are measured or declared, not both")

    print(f"{name}  seed={seed}  trace={int(trace)}")
    for key, value in metrics.items():
        print(f"  {key:<34} {value:>14.6g} {units[key]:<6} {notes.get(key, '')}")
    rate = ops.failed / ops.attempted
    print(f"  {'error_rate':<34} {rate:>14.6g} {'':<6} {ops.failed} of {ops.attempted} ops failed")
    for failure in ops.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcorolla benchmark")
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)

    if not (ROOT / "src" / "qcorolla" / "__init__.py").is_file():
        print(f"error: no qcorolla sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
