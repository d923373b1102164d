"""djcalc benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload count_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each workload runs in its own child
process (worker.py) with one closed-loop client on one thread.  With
--trace 0 the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with --trace 1 a separate traced run reports the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means a result
was printed; anything else means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from refspeed import reference_time, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("count_stream", "grid_sweep", "wide_bracket")
SETUP_SAMPLES = 7  # set-up is measured this many times per run; the median is reported
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, extra=()) -> tuple[float, dict]:
    """Run worker.py; returns (seconds from start to ready at reference
    speed, its JSON report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, "--seed", str(seed), *extra]
    before = reference_time()
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} {workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return (report["ready_at"] - start) * speed_scale(before, report["ready_reference_s"]), report


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure_end_to_end(workload: str, seed: int, seconds: float, min_ops: int = 100) -> tuple[dict, dict]:
    setups = [spawn("setup", workload, seed)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, rep = spawn("measure", workload, seed, ["--seconds", str(seconds), "--min-ops", str(min_ops)])
    setups.append(ready)
    values = {name: rep[name] for name in
              ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "records_per_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return values, rep


def measure_layers(workload: str, seed: int, rounds: int | None = None) -> tuple[dict, dict]:
    _, rep = spawn("trace", workload, seed, [] if rounds is None else ["--rounds", str(rounds)])
    return rep["per_layer"], rep


def result_line(values: dict, rep: dict, trace: bool) -> dict:
    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in values:
            raise BenchError(f"no value measured for metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"], "failed": rep["failed"], "metrics": metrics}


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload: str, values: dict, rep: dict, trace: bool, env: dict) -> None:
    print(f"env {json.dumps(env)}")
    print(f"workload {workload}: {rep['attempted']} ops attempted, {rep['failed']} failed, "
          f"error_rate {rep['failed'] / rep['attempted']:.4g}")
    if trace:
        print(f"  {rep['ops_traced']} ops traced, {rep['spans']} spans kept; absent bindings: {rep['absent'] or 'none'}")
    else:
        print(f"  latency samples {rep['attempted']}, {rep['beyond_p90']} beyond p90; "
              f"{rep['busy_s']:.3f} s of op time in {rep['rounds']} rounds, {rep['records']} records; "
              f"times are at reference speed, median scale {rep['speed_scale']:.3f}")
    for m in declared_metrics(trace):
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    for reason in rep["reasons"]:
        print(f"  FAILED {reason}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        values, rep = measure_layers(workload, seed)
    else:
        values, rep = measure_end_to_end(workload, seed, seconds)
    report(workload, values, rep, trace, environment(workload, seed, seconds, trace))
    return result_line(values, rep, trace)


def check_schema(line: dict, trace: bool) -> list[str]:
    """Problems with one result line, judged against BENCHMARK.json."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(line.get("failed"), int) or line["failed"] != 0 or line.get("correct") is not True:
        problems.append("ops failed on a correct program")
    declared = {m["name"]: m["unit"] for m in declared_metrics(trace)}
    metrics = line.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != declared.get(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"bad metric {name}: {m}")
    return problems


def smoke() -> int:
    """Every workload at minimal size: schema of both result lines, and the
    checker must count deliberately corrupted outputs as failed."""
    problems = []
    for workload in WORKLOADS:
        _, rep = spawn("smoke", workload, 0)
        if rep["failed"]:
            problems.append(f"{workload}: {rep['failed']} ops failed: {rep['reasons']}")
        if rep["corruptions_caught"] != rep["corruptions_tried"] or rep["corruptions_tried"] == 0:
            problems.append(f"{workload}: caught {rep['corruptions_caught']} of {rep['corruptions_tried']} corrupted outputs")
        values, rep = measure_end_to_end(workload, 0, 0.0, min_ops=1)
        problems += [f"{workload} end-to-end: {p}" for p in check_schema(result_line(values, rep, False), False)]
        values, rep = measure_layers(workload, 0, rounds=1)
        problems += [f"{workload} per-layer: {p}" for p in check_schema(result_line(values, rep, True), True)]
        print(f"smoke {workload}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal-size self-check of the harness")
    args = parser.parse_args()

    if not (ROOT / "src" / "djcalc" / "__init__.py").is_file():
        print(f"error: no djcalc sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {"correct": all(l["correct"] for l in lines.values()),
                 "attempted": sum(l["attempted"] for l in lines.values()),
                 "failed": sum(l["failed"] for l in lines.values()),
                 "metrics": {f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
