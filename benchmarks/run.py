"""Benchmark of possind: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload query --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  possind is imported from the
checkout's ``src/``; nothing needs installing.  One run:

1. sets up SETUP_REPEATS times (a fresh import of possind plus the
   workload's seeded inputs);
2. computes the expected outputs with the reference code in oracle.py;
3. runs whole rounds of the workload's fixed list of operations until
   ``--seconds`` have passed, timing each call into possind and checking
   its result after the clock stops.  Between rounds, about once a
   second, it sets up once more and only keeps the time; ``setup_s`` is
   the median of all set-ups, so it does not hang on one moment of a
   machine whose speed drifts.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
taken through the shims in tracing.py.  A fuller record of the run goes to
``benchmarks/out/``.  ``--workload all`` runs each workload in its own
process and prints every metric by name.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
SETUP_EVERY = 1.0  # seconds between the further set-ups made during the run
CALIBRATE_EVERY = 0.5  # seconds between runs of the reference kernel
REFERENCE_S = 0.008  # the reference kernel's usual time on a 2-vCPU Xeon VM
COLD_STARTS = 11

import numpy as np  # noqa: E402  (imported before set-up, so no set-up pays for it)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def fresh_import():
    for name in [n for n in sys.modules if n == "possind" or n.startswith("possind.")]:
        del sys.modules[name]
    return importlib.import_module("possind")


def tail_percentile(samples: list[float]):
    """The highest of p90, p99, p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(samples) >= 40 and len(samples) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(samples, p)))
    return best


def cold_start_ms(workdir: Path) -> list[float]:
    """Wall times of whole `possind marginalize` processes on a one-cell document."""
    doc = workdir / "tiny.json"
    doc.write_text(json.dumps({
        "variables": [{"name": "X1", "frame": ["0", "1"]}],
        "values": [{"assignment": {"X1": "0"}, "possibility": 1.0}],
    }))
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    cmd = [sys.executable, "-m", "possind.cli", "marginalize", "--dist", str(doc), "--keep", "X1"]
    times = []
    for _ in range(COLD_STARTS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60, check=True)
        times.append((perf_counter() - start) * 1000.0)
    return times


def calibrate() -> float:
    """Seconds taken by a fixed reference kernel that does not call possind.

    It mixes what possind's hot paths do: small numpy reductions and
    selections, frozenset-keyed dict updates and sorting."""
    table = np.linspace(0.0, 1.0, 16).reshape(2, 2, 2, 2)
    memo = {}
    acc = 0.0
    start = perf_counter()
    for i in range(300):
        peak = table.max(axis=(1, 3), keepdims=True)
        acc += float(np.abs(np.where(table >= peak, 1.0, table) - table).max())
        memo[frozenset((i % 7, i % 5))] = acc
        sorted(memo, key=lambda k: tuple(sorted(k)))
    return perf_counter() - start


class SpeedGauge:
    """Converts wall times measured on a drifting host to reference-speed times.

    A shared host's speed can drift by a quarter within seconds, so each
    time is scaled by REFERENCE_S over the reference kernel's time measured
    just after it.  A change to possind moves the scaled times as it moves the
    wall times; a change in the host's speed moves both the wall times
    and the kernel, and cancels."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.last = perf_counter()

    def factor(self) -> float:
        self.kernel_s.append(calibrate())
        self.last = perf_counter()
        return REFERENCE_S / self.kernel_s[-1]

    def due(self) -> bool:
        return perf_counter() - self.last >= CALIBRATE_EVERY


def set_up(name: str, seed: int, workdir: Path):
    """A fresh import of possind and the workload's inputs, timed."""
    start = perf_counter()
    pd = fresh_import()
    workload = workloads.WORKLOADS[name](pd, seed, workdir)
    return perf_counter() - start, pd, workload


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, dict]:
    gauge = SpeedGauge()
    setups, raw_setups = [], []

    def timed_set_up():
        elapsed, pd, workload = set_up(name, seed, workdir)
        raw_setups.append(elapsed)
        setups.append(elapsed * gauge.factor())
        return pd, workload

    for _ in range(SETUP_REPEATS):
        pd, workload = timed_set_up()
    if not Path(pd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"possind was imported from {pd.__file__}, not from {SRC}")
    workload.prepare()
    tracer = Tracer() if trace else None

    latencies, raw_latencies, round_rates, raw_rates, problems = [], [], [], [], []
    pending: list[float] = []

    def scale_pending() -> float:
        factor = gauge.factor()
        latencies.extend(x * factor for x in pending)
        total = sum(pending) * factor
        pending.clear()
        return total

    attempted = failed = 0
    started = last_setup = perf_counter()
    while True:
        gc.collect()
        busy = raw_busy = 0.0
        ops = 0
        for op in workload.round():
            if tracer:
                tracer.active = True
            start = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                out, error = None, f"raised {exc!r}"
            else:
                error = None
            elapsed = perf_counter() - start
            if tracer:
                tracer.active = False
            verdict = error or op.check(out)
            attempted += 1
            if verdict is not None:
                failed += 1
                if verdict != workloads.KNOWN_FAULT:
                    problems.append(verdict)
            raw_latencies.append(elapsed)
            pending.append(elapsed)
            raw_busy += elapsed
            ops += 1
            if gauge.due():
                busy += scale_pending()
        busy += scale_pending()
        round_rates.append(ops / busy)
        raw_rates.append(ops / raw_busy)
        if perf_counter() - started >= seconds:
            break
        if not trace and perf_counter() - last_setup >= SETUP_EVERY:
            # set up again, spread over the run, and keep only the time
            timed_set_up()
            last_setup = perf_counter()

    speed = REFERENCE_S / statistics.median(gauge.kernel_s)
    if tracer:
        metrics = tracer.metrics(len(latencies), speed)
        cold = cold_start_ms(workdir)
        metrics["cli.cold_start_ms"] = (statistics.median(cold), "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (statistics.median(round_rates), "1/s"),
            "op_ms_p50": (statistics.median(latencies) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tail = tail_percentile([x * 1000.0 for x in latencies])
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(round_rates), "operations": len(latencies),
        "op_ms_tail": {"percentile": tail[0], "ms": tail[1]} if tail else None,
        "wall_clock": {
            "setup_s": statistics.median(raw_setups),
            "ops_per_s": statistics.median(raw_rates),
            "op_ms_p50": statistics.median(raw_latencies) * 1000.0,
        },
        "kernel_ms": [x * 1000.0 for x in gauge.kernel_s],
        "round_ops_per_s": round_rates, "setup_s": setups,
        "redrawn_inputs": getattr(workload, "redrawn", 0),
        "problems": problems[:20],
    }
    if tracer:
        detail["cold_start_ms"] = cold
        detail["functions"] = tracer.functions(len(latencies), speed)
    return result, detail


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.4f} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics through timing shims")
    args = parser.parse_args(argv)
    if not (SRC / "possind" / "__init__.py").is_file():
        print(f"error: no possind sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, **detail}, indent=2) + "\n")
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
