#!/usr/bin/env python3
"""
Benchmark of the garside library, run from the root of a source checkout:

    python3 bench/run.py --workload nf-braid6 --seed 1 --seconds 20 --trace 0

The library is imported from ./src only.  One process runs one workload in
rounds; each round times set-ups, runs its share of a closed loop of timed
operations (--seconds of operation time in all), then times the steps run
once per round (the acceptor count).  Timings are scaled to a nominal
machine speed (see SpeedProbe) and each metric is a median over the run.
Every output is checked; a wrong answer or an exception counts as a failed
operation and the run goes on.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
library is wrapped by bench/tracing.py and the metrics are per layer, plus
the tracing overhead.  Lines before the last one give the run record and a
readable summary.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("nf-braid6", "zs-prod-b4b3", "check-prod-b4b3")

perf = time.perf_counter

# The set-up and the count are repeated in each round until this much of
# them is timed, so that short ones get many samples.
REPEATED = ("setup_s", "count_s")
REPEAT_S = 0.4


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.busy = 0.0
        self.by_kind: dict[str, list[float]] = {}
        self.digest = hashlib.sha256()
        self.cases = 0
        # The last operations with their times, replayed by the traced run.
        self.last: deque[tuple[object, float]] = deque(maxlen=64)

    def problem(self, text: str) -> None:
        if len(self.problems) < 8:
            self.problems.append(text)


def reference_loop_s() -> float:
    """
    Time of a fixed pure-Python loop that does not touch the library: the
    median of five short runs, so that one interrupt does not move it.
    """
    times = []
    for _ in range(5):
        t0 = perf()
        x = 0
        for i in range(10_000):
            x = (x + i * i) % 1_000_003
        times.append(perf() - t0)
    return statistics.median(times)


class SpeedProbe:
    """
    Samples the machine's speed while a run goes on.  Shared machines drift
    by tens of percent over seconds to minutes, and the drift moves every
    timing of a run together.  Every INTERVAL seconds a SIGALRM handler
    times the reference loop; it runs in the main thread between two
    bytecodes of whatever is running, so long calls are sampled too, and it
    touches no library state.  A timing is then scaled to a nominal machine
    on which the loop takes NOMINAL_S: its duration, less the handler time
    inside it, times NOMINAL_S over the median loop time sampled within
    half a second of it.
    """
    INTERVAL = 0.25
    NOMINAL_S = 0.001

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf()
        loop = reference_loop_s()
        self.starts.append(t0)
        self.loops.append(loop)
        self.ends.append(perf())
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def handler_time(self, t0: float, t1: float) -> float:
        """Time the handler took inside [t0, t1]."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(min(self.ends[k], t1) - self.starts[k] for k in range(i, j))

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median loop time sampled in or around [t0, t1]."""
        for pad in (2 * self.INTERVAL, 8 * self.INTERVAL, math.inf):
            i = bisect.bisect_left(self.starts, t0 - pad)
            j = bisect.bisect_right(self.starts, t1 + pad)
            if i < j:
                return self.NOMINAL_S / statistics.median(self.loops[i:j])
        return 1.0

    def net(self, t0: float, dt: float) -> float:
        """A timing less the handler time inside it."""
        return dt - self.handler_time(t0, t0 + dt)


def _timed(fn, tracer, span: str):
    """(output, exception, start, seconds) of fn(); traced as one root span."""
    if tracer is not None:
        tracer.on = True
        idx = tracer.open(span)
    err = None
    t0 = perf()
    try:
        out = fn()
    except Exception as e:     # a failed operation is counted, not fatal
        out, err = None, e
    dt = perf() - t0
    if tracer is not None:
        tracer.close(idx, failed=err is not None)
        tracer.on = False
    return out, err, t0, dt


def drive(ops, run: Run, until: float, digest_ops: int, tracer=None) -> None:
    """
    Run operations until `until` seconds of them are timed in all.  The first
    digest_ops always run, whatever `until` is; their outputs make the digest.
    """
    while len(run.latencies) < digest_ops or run.busy < until:
        op = next(ops)
        out, err, t0, dt = _timed(op.call, tracer, f"op.{op.kind}")
        run.busy += dt
        run.starts.append(t0)
        run.latencies.append(dt)
        run.by_kind.setdefault(op.kind, []).append(dt)
        run.attempted += op.units
        if err is not None:
            run.failed += op.units
            run.problem(f"{op.kind}: {type(err).__name__}: {err}")
            text = "error"
        else:
            try:
                problem = op.check(out)
                text = op.digest(out)
            except Exception as e:
                problem, text = f"check raised {type(e).__name__}: {e}", "error"
            lost, why = op.refused(out) if op.refused else (0, "")
            if lost:
                run.problem(f"{op.kind}: {lost} of {op.units} outputs refused: {why}")
            run.cases += op.cases(out) if op.cases else 0
            if problem:
                run.wrong += 1
                lost = max(lost, 1)
                run.problem(f"{op.kind}: {problem}")
            run.failed += lost
        if len(run.latencies) <= digest_ops:
            run.digest.update(f"{op.kind}:{text}\n".encode())
        run.last.append((op, dt))


def digest_of(workload, ctx, seed: int) -> str:
    """The output digest for a seed, without timing (used to record digests)."""
    run = Run()
    drive(workload.operations(ctx, seed), run, 0.0, workload.digest_ops)
    return run.digest.hexdigest()


def recorded_digests() -> dict:
    try:
        with open(BENCH / "digests.json", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": _git_revision(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def measure(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """One workload run; returns metrics, samples and the correctness verdict."""
    import workloads

    wl = workloads.WORKLOADS[name]()
    run = Run()
    n_rounds = 1 if tracer else wl.rounds
    timed: dict[str, list[tuple[float, float]]] = {}     # key -> [(start, seconds)]
    op_rounds: list[tuple[int, int]] = []                 # latency index range per round
    tail_ok = True
    ctx = ops = tails = None
    probe = SpeedProbe()

    def timed_repeats(key: str, fn, check):
        """
        fn() timed once, or for REPEATED keys, when not traced, until
        REPEAT_S of it is timed in this round.  Returns the first output.
        """
        nonlocal tail_ok
        first, spent = None, 0.0
        while first is None or (tracer is None and key in REPEATED and spent < REPEAT_S):
            gc.collect()
            out, err, t0, dt = _timed(fn, tracer, key)
            timed.setdefault(key, []).append((t0, dt))
            spent += dt
            problem = f"{type(err).__name__}: {err}" if err else check(out)
            if problem:
                if key == "setup_s":
                    raise RuntimeError(f"set-up failed: {problem}")
                tail_ok = False
                run.problem(f"{key}: {problem}")
            first = out if first is None else first
        return first

    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(probe)
        for r in range(n_rounds):
            fresh = timed_repeats("setup_s", wl.setup, lambda out: None)
            if ctx is None:
                # Later set-ups are timed only; the operations keep one context.
                ctx, ops, tails = fresh, wl.operations(fresh, seed), wl.tails(fresh)
            del fresh

            gc.collect()
            first = len(run.latencies)
            drive(ops, run, seconds * (r + 1) / n_rounds, wl.digest_ops, tracer)
            op_rounds.append((first, len(run.latencies)))

            for tail in tails:
                timed_repeats(tail.metric, tail.call, tail.check)

    # Raw and scaled samples of each timing; operations give one per round,
    # each operation scaled by the machine speed sampled around it.
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for key, samples in timed.items():
        for t0, dt in samples:
            raw.setdefault(key, []).append(probe.net(t0, dt))
            scaled.setdefault(key, []).append(probe.net(t0, dt) * probe.scale(t0, t0 + dt))
    for i, j in op_rounds:
        if i < j:
            spans = list(zip(run.starts[i:j], run.latencies[i:j]))
            for name, lat in (("raw", [probe.net(t0, dt) for t0, dt in spans]),
                              ("scaled", [probe.net(t0, dt) * probe.scale(t0, t0 + dt)
                                          for t0, dt in spans])):
                into = raw if name == "raw" else scaled
                into.setdefault("ops_per_s", []).append(len(lat) / sum(lat))
                into.setdefault("op_p50_ms", []).append(1e3 * _percentile(lat, 0.50))
                into.setdefault("op_p99_ms", []).append(1e3 * _percentile(lat, 0.99))

    digest = run.digest.hexdigest()
    recorded = recorded_digests().get(name, {}).get(str(seed))
    digest_ok = recorded is None or recorded == digest
    if not digest_ok:
        run.problem(f"output digest {digest} != recorded {recorded}")

    n = len(run.latencies)
    timings = (("setup_s", "s", len(scaled["setup_s"])), ("ops_per_s", "1/s", n),
               ("op_p50_ms", "ms", n), ("op_p99_ms", "ms", n),
               ("count_s", "s", len(scaled["count_s"])))
    result = {
        "correct": run.wrong == 0 and tail_ok and digest_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "digest": digest,
        "digest_recorded": recorded is not None,
        "problems": run.problems,
        "run": run,
        "metrics": {k: (statistics.median(scaled[k]), unit, samples)
                    for k, unit, samples in timings},
        # Reported for reading only: defined on some workloads, zero, or raw.
        "extra": {
            "ops_failed_frac": (run.failed / run.attempted, "ratio", run.attempted),
            "reference_loop_s": (statistics.median(probe.loops) if probe.loops else math.nan,
                                 "s", len(probe.loops)),
        },
    }
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    for k, unit, samples in timings:
        result["extra"][f"raw.{k}"] = (statistics.median(raw[k]), unit, samples)
    for kind, lat in sorted(run.by_kind.items()):
        result["extra"][f"{kind}.p50_ms"] = (1e3 * _percentile(lat, 0.5), "ms", len(lat))
    if "translate_s" in scaled:
        result["extra"]["translate_s"] = (statistics.median(scaled["translate_s"]), "s",
                                          len(scaled["translate_s"]))
    if name == "check-prod-b4b3":
        result["extra"]["check_s"] = (statistics.median(scaled["op_p50_ms"]) / 1e3, "s", n)
        result["extra"]["raw.suite_cases_per_s"] = (run.cases / run.busy, "1/s", n)
    return result


def use_checkout_source() -> str | None:
    """Put ./src first on the import path; a problem message if that fails."""
    pkg = ROOT / "src" / "garside"
    if not (pkg / "__init__.py").is_file():
        return f"no library source at {pkg}"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import garside
    if Path(garside.__file__).resolve().parent != pkg:
        return f"garside imported from {garside.__file__}, not {pkg}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    problem = use_checkout_source()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t_start = perf()
    try:
        result = measure(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["wall_s"] = perf() - t_start
    record["digest"] = result["digest"]
    record["digest_recorded"] = result["digest_recorded"]

    if tracer is not None:
        run = result["run"]
        replay = list(run.last)[-workloads.WORKLOADS[args.workload].replay_ops:]
        traced = sum(dt for _, dt in replay)
        plain = 0.0
        for op, _ in replay:
            gc.collect()
            plain += _timed(op.call, None, "")[3]
        metrics = tracing.layer_metrics(tracer, workloads.SUITES, traced / plain - 1)
        record["trace_overhead_ops"] = len(replay)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path, record)
        print(f"trace written to {path.relative_to(ROOT)}")
        table = sorted(tracer.table().items(), key=lambda kv: -kv[1]["self_s"])
        for span, row in table[:30]:
            print(f"self {span} = {row['self_s']:.6g} s (calls={row['calls']}, "
                  f"total={row['total_s']:.6g} s)")
    else:
        metrics = result["metrics"]
        record["samples"] = {k: n for k, (_, _, n) in metrics.items()}

    print("record " + json.dumps(record, sort_keys=True))
    for text in result["problems"]:
        print(f"problem: {text}")
    for k, (v, unit, n) in list(metrics.items()) + list(result["extra"].items()):
        print(f"{k} = {v:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
