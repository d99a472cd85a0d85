"""Benchmark of the schurmult pipeline: one seeded workload, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mult-cold --seed 1 --seconds 30 --trace 0

Workloads are ``mult-cold``, ``class-sweep-warm`` and ``audit-sweep``
(see ``perfbench/README.md``).  The launcher imports nothing from the
library.  It starts ``worker.py`` several times, timing each from process
start to its ``ready`` line: set-up-only starts before the worker that
goes on to the timed phase and as many after it, at least
``SETUP_RUNS_AROUND`` on each side and as many as ``SETUP_SECONDS_AROUND``
of set-up takes (a short set-up is sampled more often).
``setup_s`` is the median of those set-up times, each scaled to nominal
machine speed (``calibrate.py``); spreading them over the run keeps a few
seconds of slow machine from deciding it.  The last line of standard
output is the JSON result; the lines
before it repeat every metric with its unit, as ``BENCHMARK.json`` gives
it, for people.

Exit status: 0 when every call was checked correct, 1 when a result was
wrong, 2 when the benchmark could not run (no library source next to it,
a worker that crashed or overran its time).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS_AROUND = 1
SETUP_SECONDS_AROUND = 2.0
# A run must end within 180 s; a worker gets what is left of this budget.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def _start_worker(argv: list[str], deadline: float):
    """Start a worker; return it with the seconds until its ``ready`` line.

    The seconds are at nominal machine speed, from kernel samples taken
    right before the start, by the worker during its set-up, and right
    after the ``ready`` line; the worker's sampling time is taken out.
    """
    before = calibrate.sample()
    start = time.perf_counter()
    # Own process group, so a kill also reaches a table child of the worker.
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    readable, _, _ = select.select([proc.stdout], [], [], max(deadline - start, 0.0))
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - start
    word, _, report = line.partition(" ")
    if word != "ready":
        _stop(proc, deadline)
        raise BenchmarkError(f"worker did not finish set-up (exit status {proc.returncode})")
    report = json.loads(report)
    kernel = statistics.mean([before, *report["kernel"], calibrate.sample()])
    return proc, calibrate.nominal(setup - report["spent_s"], kernel, kernel)


def _stop(proc, deadline: float) -> str:
    """Wait for a worker until the deadline, kill its group past that; return its output."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("worker overran the time budget") from None
    return out


def run(args: argparse.Namespace, passthrough: list[str]) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    worker_argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *passthrough,
    ]

    def setups_only() -> list[float]:
        # Traced runs report no set-up time, so they set up once.
        setups, spent = [], 0.0
        while not args.trace and (len(setups) < SETUP_RUNS_AROUND or spent < SETUP_SECONDS_AROUND):
            start = time.perf_counter()
            proc, seconds = _start_worker([*worker_argv, "--setup-only"], deadline)
            _stop(proc, deadline)
            if proc.returncode != 0:
                raise BenchmarkError(f"set-up run exited with status {proc.returncode}")
            setups.append(seconds)
            spent += time.perf_counter() - start
        return setups

    setups = setups_only()
    proc, seconds = _start_worker(worker_argv, deadline)
    setups.append(seconds)
    out = _stop(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"worker exited with status {proc.returncode}")
    setups.extend(setups_only())
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": statistics.median(setups), **result["metrics"]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, passthrough = parser.parse_known_args(argv)

    if not (ROOT / "src" / "schurmult" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'schurmult'}", file=sys.stderr)
        return 2
    try:
        result = run(args, passthrough)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
