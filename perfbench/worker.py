"""One workload in one process, with one client and one thread.

Run by run.py; prints one JSON line on stdout.  Modes:

  setup    set up (import djcalc, build the inputs, one warm-up op) and stop
  measure  set up, then run whole epochs until --seconds of op time and at
           least --min-ops ops have passed; report latencies and peak RSS
  trace    run one epoch, each op untraced and traced; report per-layer
           metrics and the tracing overhead
  smoke    run one round, then feed the checker corrupted outputs and
           report how many it caught

`ready_at` is the perf_counter() reading when the first timed op can run;
perf_counter is the system-wide monotonic clock, so run.py subtracts its own
reading taken just before starting this process.  `ready_reference_s` is a
reference timing taken right after, which run.py uses to scale the set-up
time to reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from refspeed import reference_time, speed_scale
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
WALL_CAP_S = 120.0


class Runner:
    """The set-up program and inputs of one workload, and how to run and
    check one op."""

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        import djcalc
        import djcalc.cli
        import djcalc.dejonq
        import djcalc.exact

        if Path(djcalc.__file__).resolve().parent != SRC / "djcalc":
            raise SystemExit(f"imported djcalc from {djcalc.__file__}, not from {SRC}")
        self.cli, self.dejonq, self.Partition = djcalc.cli, djcalc.dejonq, djcalc.exact.Partition
        self.stream = workloads.Stream(workload, seed)
        self.golden = None if workload == "wide_bracket" else workloads.load_golden(workload, self.stream.pool)
        warmup = workloads.warmup_request(workload)
        warm = self.check(warmup, self.execute(warmup)[1])
        if not warm.ok:  # the timed ops will fail the same way and be counted
            print(f"warm-up op failed: {warm.reason}", file=sys.stderr)
        gc.collect()
        gc.freeze()  # keep the harness's own objects out of the program's collections

    def call(self, req: workloads.Request):
        if req.kind == "bracket":
            g, r, d, parts, _ = req.params
            mu = self.Partition(parts)
            return lambda: self.dejonq.dj_count(g, r, d, mu, path="bracket")
        argv = list(req.argv)
        return lambda: self.cli.run(argv)

    def execute(self, req: workloads.Request):
        """(seconds, result or the exception it raised)."""
        fn = self.call(req)
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an escaped exception is a failed op, not a crash of the benchmark
            result = exc
        return perf_counter() - start, result

    def check(self, req: workloads.Request, result, digest_check: bool = True) -> workloads.Outcome:
        if req.kind == "bracket":
            return workloads.check_bracket(req, result)
        digest = self.golden[req.index] if digest_check and req.index >= 0 else None
        return workloads.check_cli(req, result, digest)


class Tally:
    def __init__(self):
        self.latencies, self.failed, self.records = [], 0, 0
        self.sweep_cells, self.sweep_ok = 0, 0
        self.reasons = []

    def add(self, seconds, req, outcome):
        self.latencies.append(seconds)
        self.records += outcome.records
        if req.kind == "sweep":
            self.sweep_cells += outcome.records
            self.sweep_ok += outcome.ok_records
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(req.argv) or req.params}: {outcome.reason}")


def measure(runner: Runner, seconds: float, min_ops: int) -> dict:
    """Whole epochs until `seconds` of op time and `min_ops` ops.

    Each op is timed between two reference timings and reported at reference
    speed (refspeed.py).  Every round has the same class mix, so rates are
    taken per round and the median round is reported."""
    tally = Tally()
    wall_start = perf_counter()
    busy = 0.0
    scaled, scales, op_rates, record_rates = [], [], [], []
    while (busy < seconds or len(tally.latencies) < min_ops) and perf_counter() - wall_start < WALL_CAP_S:
        for batch in runner.stream.epoch():
            round_scaled, round_records = 0.0, tally.records
            for req in batch:
                before = reference_time()
                dt, result = runner.execute(req)
                scale = speed_scale(before, reference_time())
                busy += dt
                scales.append(scale)
                scaled.append(dt * scale)
                round_scaled += dt * scale
                tally.add(dt, req, runner.check(req, result))
            op_rates.append(len(batch) / round_scaled)
            record_rates.append((tally.records - round_records) / round_scaled)
    lat_ms = [t * 1e3 for t in scaled]
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "attempted": len(lat_ms),
        "failed": tally.failed,
        "reasons": tally.reasons,
        "busy_s": busy,
        "rounds": len(op_rates),
        "records": tally.records,
        "speed_scale": statistics.median(scales),
        "throughput_ops_s": statistics.median(op_rates),
        "records_per_s": statistics.median(record_rates),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "beyond_p90": sum(t > p90 for t in lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(runner: Runner, rounds: int | None) -> dict:
    """Each op runs twice, untraced and traced, in alternating order so that
    neither pass gets the warmer caches; the traced runs give the per-layer
    metrics and the ratio of the two passes is the tracing overhead."""
    reqs = [req for batch in runner.stream.epoch()[:rounds] for req in batch]
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    for op_id, req in enumerate(reqs):
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op_id = op_id
                tracer.install()
            try:
                dt, result = runner.execute(req)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).add(dt, req, runner.check(req, result))
    metrics = tracer.layer_metrics()
    metrics["cli.sweep.ok_ratio"] = traced.sweep_ok / traced.sweep_cells if traced.sweep_cells else 0.0
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    metrics["trace.absent_bindings"] = len(tracer.absent)
    return {
        "attempted": 2 * len(reqs),
        "failed": plain.failed + traced.failed,
        "reasons": plain.reasons + traced.reasons,
        "ops_traced": len(reqs),
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "per_layer": metrics,
    }


def corrupt_first_digit(text: str) -> str:
    for i, c in enumerate(text):
        if c.isdigit():
            return text[:i] + str((int(c) + 1) % 10) + text[i + 1:]
    raise ValueError("no digit to corrupt")


class _Corrupted:
    def __init__(self, result):
        self.value, self.ordered_value, self.path = result.value + 1, result.ordered_value, result.path


def smoke(runner: Runner) -> dict:
    """One round, then one corrupted output per request kind: each must be
    caught both by the digest check and by the oracle alone."""
    tally = Tally()
    by_kind = {}
    for req in runner.stream.epoch()[0]:
        dt, result = runner.execute(req)
        tally.add(dt, req, runner.check(req, result))
        by_kind.setdefault(req.kind, (req, result))
    tried = caught = 0
    for req, result in by_kind.values():
        if req.kind == "bracket":
            bad = _Corrupted(result)
            checks = [runner.check(req, bad)]
        else:
            code, output = result
            bad = (code, corrupt_first_digit(output))
            checks = [runner.check(req, bad), runner.check(req, bad, digest_check=False)]
        for outcome in checks:
            tried += 1
            caught += not outcome.ok
    return {"attempted": len(tally.latencies), "failed": tally.failed, "reasons": tally.reasons,
            "corruptions_tried": tried, "corruptions_caught": caught}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace", "smoke"))
    parser.add_argument("--workload", required=True, choices=("count_stream", "grid_sweep", "wide_bracket"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--rounds", type=int, help="trace only the first rounds of the epoch")
    args = parser.parse_args()

    runner = Runner(args.workload, args.seed)
    out = {"ready_at": perf_counter()}
    out["ready_reference_s"] = reference_time()
    if args.mode == "measure":
        out.update(measure(runner, args.seconds, args.min_ops))
    elif args.mode == "trace":
        out.update(trace(runner, args.rounds))
    elif args.mode == "smoke":
        out.update(smoke(runner))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
