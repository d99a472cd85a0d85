"""One benchmark process: set-up, then the timed phase of one workload.

Started by ``run.py``, never by hand.  It writes a ``ready`` line on
standard output the moment set-up is done (import, input generation,
reference load and, on ``class-sweep-warm``, the untimed warm-up pass), so
the launcher can time set-up from process start; the line carries the
calibration-kernel samples taken during set-up (``calibrate.py``).  With
``--setup-only`` it exits there; otherwise it runs the timed phase and
writes one JSON result line.

Timed phase, closed loop with one caller: calls are issued back to back
until ``--seconds`` have passed and at least ``MIN_CALLS`` calls are done,
always finishing the current unit (a round of tables, or a pass) so every
run holds whole units.  ``mult-cold`` runs each table, and ``audit-sweep``
each audited case, in a child forked from this process, which has
imported ``schurmult`` and computed nothing; so every table and every
audited case starts with empty caches without the benchmark naming a
private cache.
The calibration kernel runs right before and after every call, in the
process that makes it, so each call's time can be scaled to nominal
machine speed.

With ``--trace 1`` the same budget is split: an untraced phase first, then
the same calls again with the tracer installed; the spans of the traced
phase give the per-layer metrics and the difference of the two phases
gives ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from schurmult import AlgebraContext, DominantWeight, Partition  # noqa: E402
from schurmult import cli, solver, weyl  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Enough calls that ten or more samples lie beyond the p90.
MIN_CALLS = 100
SPANS_DIR = HERE / "out"


class Outcome:
    """One timed call: wall time of the library call and its check.

    ``nominal_s`` is the same time at nominal machine speed (``calibrate``).
    """

    __slots__ = ("seconds", "error", "verified", "nominal_s")

    def __init__(self, seconds: float, error: str | None = None, verified: int = 0):
        self.seconds = seconds
        self.error = error
        self.verified = verified
        self.nominal_s = seconds


def _calibrated(calls):
    """Run ``calls`` (each returns an ``Outcome``) between kernel samples.

    Returns the outcomes and the wall time spent sampling the kernel.
    """
    log = calibrate.Log()
    outcomes = []
    before = log.take()
    for call in calls:
        outcome = call()
        after = log.take()
        outcome.nominal_s = calibrate.nominal(outcome.seconds, before, after)
        outcomes.append(outcome)
        before = after
    return outcomes, log.spent_s


class UnitResult:
    """The calls of one unit, with what the harness saw around them."""

    def __init__(self, outcomes, span_lists=(), rss_kb=0, harness_s=0.0):
        self.outcomes = outcomes
        self.spans = list(span_lists)  # one span list per process that traced
        self.rss_kb = rss_kb
        self.harness_s = harness_s


def _reference_error(ref: dict, N: int, coords, dimension: int, mults: dict) -> str | None:
    """Compare a dimension and ``{coords: multiplicity}`` map with the reference."""
    name = reference.key(N, coords)
    want = ref["tables"].get(name)
    if want is None:
        return f"no reference for {name}"
    if [dimension, reference.digest(mults)] != want:
        return f"multiplicities of {name} differ from the oracle reference"
    return None


def _timed(tracer, kind: str, fn, *args):
    """``(seconds, result, error)`` of one library call."""
    start = time.perf_counter()
    try:
        result = fn(*args) if tracer is None else tracer.op(kind, fn, *args)
    except Exception as exc:
        return time.perf_counter() - start, None, f"{kind}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def _forked(fn, *args):
    """Run ``fn(*args)`` in a child forked from this process.

    Returns ``(result, wall seconds, exit code)``; the result is ``None``
    when the child died before replying.
    """
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            view = memoryview(pickle.dumps(fn(*args)))
            while view:
                view = view[os.write(write_fd, view) :]
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        while chunk := pipe.read(1 << 16):
            chunks.append(chunk)
    _, wait_status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    try:
        result = pickle.loads(b"".join(chunks))
    except (pickle.UnpicklingError, EOFError):
        result = None
    return result, wall, os.waitstatus_to_exitcode(wait_status)


def _installed_tracer(traced: bool):
    if not traced:
        return None
    tracer = spans.Tracer()
    tracer.install()
    return tracer


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- mult-cold: one forked child per table --------------------------------


def _cold_table(N: int, coords, traced: bool) -> dict:
    """Child side: solve one table with empty caches, between kernel samples.

    The kernel runs in the child: a freshly forked process runs slower than
    its parent by a share that changes from child to child, and only
    samples taken inside the child follow it.
    """
    tracer = _installed_tracer(traced)
    w = DominantWeight(coords, AlgebraContext(N))
    log = calibrate.Log()
    log.take()
    seconds, table, error = _timed(tracer, "table", solver.solve_multiplicities, w)
    log.take()
    reply = {"seconds": seconds, "error": error, "rss_kb": _rss_kb()}
    reply["nominal_s"] = calibrate.nominal(seconds, *log.samples)
    reply["sampling_s"] = log.spent_s
    reply["spans"] = tracer.spans if tracer else []
    if table is not None:
        reply["mults"] = {member.coords: mult for member, mult in table}
        reply["dimension"] = table.dimension
    return reply


def _cold_unit(ref: dict, unit, traced: bool) -> UnitResult:
    result = UnitResult([])
    for N, coords in unit:
        reply, wall, exit_code = _forked(_cold_table, N, coords, traced)
        if reply is None:
            result.outcomes.append(Outcome(wall, error=f"child exited with status {exit_code}"))
            continue
        error = reply["error"]
        if error is None:
            error = _reference_error(ref, N, coords, reply["dimension"], reply["mults"])
        outcome = Outcome(reply["seconds"], error, 0 if error else 1)
        outcome.nominal_s = reply["nominal_s"]
        result.outcomes.append(outcome)
        result.spans.append(reply["spans"])
        result.rss_kb = max(result.rss_kb, reply["rss_kb"])
        result.harness_s += wall - reply["seconds"] - reply["sampling_s"]
    return result


# --- class-sweep-warm: in-process tables ----------------------------------


def _warm_unit(ref: dict, unit, tracer) -> UnitResult:
    def solve(N: int, coords) -> Outcome:
        w = DominantWeight(coords, AlgebraContext(N))
        seconds, table, error = _timed(tracer, "table", solver.solve_multiplicities, w)
        if error is None:
            mults = {member.coords: mult for member, mult in table}
            error = _reference_error(ref, N, coords, table.dimension, mults)
        return Outcome(seconds, error, 0 if error else 1)

    outcomes, _ = _calibrated(lambda t=t: solve(*t) for t in unit)
    return UnitResult(outcomes, rss_kb=_rss_kb())


# --- audit-sweep: CLI sweep, alternant characters, factorizations --------


def _audit_call(ref: dict, call, tracer) -> Outcome:
    kind = call[0]
    if kind == "audit":
        query = cli.Query("audit", ranks=call[1], max_height=workloads.AUDIT_MAX_HEIGHT)
        seconds, reply, error = _timed(tracer, "audit", cli.run, query)
        if error is None:
            status, text = reply
            summary = text.rstrip("\n").rsplit("\n", 1)[-1]
            if status != cli.EXIT_OK or summary != f"audit: {ref['audit_cases']} passed, 0 failed":
                error = f"audit exit status {status}: {summary!r}"
        return Outcome(seconds, error=error, verified=0 if error else ref["audit_cases"])
    N, parts = call[1], call[2]
    ctx = AlgebraContext(N)
    if kind == "character":
        coords = workloads.coords_of(N, parts)
        w = DominantWeight(coords, ctx)
        seconds, character, error = _timed(tracer, kind, weyl.weyl_character_u, w)
        if error is None:
            dimension = sum(character.terms.values())
            mults = reference.dominant_mults(N, character.terms)
            error = _reference_error(ref, N, coords, dimension, mults)
    else:
        seconds, report, error = _timed(
            tracer, kind, weyl.verify_factorization, Partition(parts), ctx
        )
        if error is None and not report.ok:
            error = f"factorization audit failed: {report}"
    return Outcome(seconds, error=error, verified=0 if error else 1)


def _audit_case(ref: dict, calls, traced: bool):
    """Child side: the calls of one audited case with empty caches, like one CLI process."""
    tracer = _installed_tracer(traced)
    outcomes, sampling_s = _calibrated(lambda c=c: _audit_call(ref, c, tracer) for c in calls)
    return outcomes, sampling_s, tracer.spans if tracer else [], _rss_kb()


def _audit_unit(ref: dict, unit, traced: bool) -> UnitResult:
    result = UnitResult([])
    for calls in unit:
        reply, wall, exit_code = _forked(_audit_case, ref, calls, traced)
        if reply is None:
            error = f"audit child exited with status {exit_code}"
            result.outcomes.extend(Outcome(wall / len(calls), error) for _ in calls)
            continue
        outcomes, sampling_s, recorded, rss_kb = reply
        result.outcomes.extend(outcomes)
        result.spans.append(recorded)
        result.rss_kb = max(result.rss_kb, rss_kb)
        result.harness_s += wall - sampling_s - sum(o.seconds for o in outcomes)
    return result


# --- timed phase ---------------------------------------------------------


def _units(workload: str, seed: int):
    if workload == "mult-cold":
        return workloads.cold_rounds(seed)
    if workload == "class-sweep-warm":
        return workloads.warm_passes(seed)
    return workloads.audit_passes(seed)


def _run_units(workload, ref, units, budget_s, min_calls, traced=False):
    """Run whole units until the budget is spent and enough calls are done.

    Forked workloads install the tracer in each child; the warm workload
    installs it in this process for the whole phase.
    """
    done_units, results = [], []
    calls = 0
    start = time.perf_counter()
    tracer = _installed_tracer(traced and workload == "class-sweep-warm")
    try:
        for unit in units:
            if workload == "mult-cold":
                result = _cold_unit(ref, unit, traced)
            elif workload == "class-sweep-warm":
                result = _warm_unit(ref, unit, tracer)
            else:
                result = _audit_unit(ref, unit, traced)
            if tracer is not None:
                result.spans = [list(tracer.spans)]
                tracer.spans.clear()
            done_units.append(unit)
            results.append(result)
            calls += len(result.outcomes)
            if time.perf_counter() - start >= budget_s and calls >= min_calls:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return done_units, results


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=reference.REFERENCE_PATH)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Kernel samples spread over set-up, for the launcher to scale it.
    log = calibrate.Log()
    log.take()
    ref = reference.load(args.reference)
    units = _units(args.workload, args.seed)
    if args.workload == "class-sweep-warm":
        for N, coords in workloads.warm_targets():
            try:
                solver.solve_multiplicities(DominantWeight(coords, AlgebraContext(N)))
            except Exception:
                pass  # the same call fails again, and is counted, in the timed phase
            log.take()
    log.take()
    sys.stdout.write(f"ready {json.dumps({'kernel': log.samples, 'spent_s': log.spent_s})}\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    if args.trace:
        plain_units, plain = _run_units(args.workload, ref, units, args.seconds / 2, 1)
        _, traced = _run_units(args.workload, ref, plain_units, math.inf, 0, traced=True)
        recorded = []
        for result in traced:
            for child_spans in result.spans:
                recorded.extend(spans.rebase(child_spans, len(recorded)))
        plain_calls = [o for r in plain for o in r.outcomes]
        traced_calls = [o for r in traced for o in r.outcomes]
        metrics = spans.summarize(recorded, len(traced_calls))
        metrics["harness.fork_ipc_s"] = sum(r.harness_s for r in plain) / len(plain_calls)
        metrics["trace.overhead_s"] = (
            sum(o.nominal_s for o in traced_calls) - sum(o.nominal_s for o in plain_calls)
        ) / len(traced_calls)
        spans.write(recorded, SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        outcomes = plain_calls + traced_calls
    else:
        _, results = _run_units(args.workload, ref, units, args.seconds, MIN_CALLS)
        outcomes = [o for r in results for o in r.outcomes]
        times = [o.nominal_s for o in outcomes]
        metrics = {
            "call_p50_s": statistics.median(times),
            "call_p90_s": _p90(times),
            "verified_per_s": sum(o.verified for o in outcomes) / sum(times),
            "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
        }

    errors = [o.error for o in outcomes if o.error]
    for message in errors[:5]:
        print(f"failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": len(errors),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
