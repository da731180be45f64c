#!/usr/bin/env python3
"""Host-time benchmark of the dimsum library.

Builds an optimized copy of the library and the perfbench binary in its own
build tree, runs one seeded workload, checks the outputs and prints the
result as the last line of standard output:

    python3 perfbench/run.py --workload fig_sweep --seed 7 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced run. --workload all runs every workload in turn.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

WORKLOADS = ("fig_sweep", "openloop", "tail", "closedloop_faults")

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "trials_per_s": "1/s",
    "sim_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "opt.optimize_ms": "ms",
    "opt.ii_ms": "ms",
    "opt.sa_ms": "ms",
    "opt.plans_evaluated": "count",
    "opt.cache_hit_rate": "ratio",
    "opt.acceptance_ratio": "ratio",
    "opt.site_select_ms": "ms",
    "common.pool_speedup": "ratio",
    "cost.calls": "count",
    "cost.estimate_us": "us",
    "cost.share": "ratio",
    "cost.model_rel_err": "ratio",
    "plan.move_us": "us",
    "plan.expand_shards_us": "us",
    "exec.execute_ms": "ms",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.peak_queue_depth": "count",
    "sim.calendar_resizes": "count",
    "sim.frame_pool_hit_rate": "ratio",
    "sim.heap_speedup": "ratio",
    "sim.disk.reads": "count",
    "sim.disk.cache_hit_rate": "ratio",
    "sim.net.bytes": "bytes",
    "sim.capture_overhead": "ratio",
    "workload.gen_ms": "ms",
    "workload.run_ms": "ms",
    "workload.completed": "count",
    "workload.shed": "count",
    "workload.aborted": "count",
    "workload.retries": "count",
    "workload.reopts": "count",
    "workload.querylog_records": "count",
    "workload.querylog_json_us": "us",
    "self.bench_share": "ratio",
    "self.workload_share": "ratio",
    "self.opt_share": "ratio",
    "self.sim_share": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

# Every run must end within this many seconds (the build excluded).
RUN_LIMIT_S = 170
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


class BenchError(Exception):
    """The run cannot produce a result (build failure, unusable output)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples`, or None unless at least ten
    samples lie beyond it (fewer cannot locate the percentile)."""
    if not samples or not 0.0 < q < 1.0:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q - 1e-9))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def accounting_failures(accounting):
    """Failed identities among one trial's accounting records."""
    failures = []
    for record in accounting:
        if record["kind"] == "open":
            if (record["arrivals"] != record["dispatched"] + record["shed"] +
                    record["aborted"]):
                failures.append("open loop: arrivals != dispatched + shed + "
                                "aborted")
            if record["completed"] != record["dispatched"]:
                failures.append("open loop: completed != dispatched")
        elif record["kind"] == "closed":
            if (record["completions"] !=
                    record["clients"] * record["queries_per_client"]):
                failures.append("closed loop: completions != clients x "
                                "queries per client")
        else:
            failures.append(f"unknown accounting kind {record['kind']!r}")
    return failures


def trial_failures(trial):
    return list(trial["failures"]) + accounting_failures(trial["accounting"])


def check_outputs(raw, recorded_digest, extra_checks=()):
    """Counts operations and failed output checks of one run.

    Operations: every verification and timed trial, the set-up, the digest
    comparison, and each entry of `extra_checks` (a list of the failure
    messages of one further checked operation). Returns (attempted, failed,
    messages)."""
    messages = []
    operations = [trial_failures(t)
                  for t in raw["golden_trials"] + raw["trials"]]
    operations.append(list(raw["setup_failures"]))
    if raw["golden_digest"] != recorded_digest:
        operations.append([f"digest {raw['golden_digest']} of the "
                           f"verification trials differs from the recorded "
                           f"{recorded_digest} (a change meant to alter "
                           f"simulated results records the new digest in "
                           f"digests.json)"])
    else:
        operations.append([])
    operations.extend(list(check) for check in extra_checks)
    failed = 0
    for problems in operations:
        if problems:
            failed += 1
            messages.extend(problems)
    return len(operations), failed, messages


def end_to_end_metrics(raw):
    trials = raw["trials"]
    latencies = [t["ms"] for t in trials]
    p50 = percentile(latencies, 0.5)
    p90 = percentile(latencies, 0.9)
    if p50 is None or p90 is None:
        raise BenchError(f"only {len(trials)} timed trials: too few for a "
                         "90th percentile with ten samples beyond it")
    total_s = sum(latencies) / 1000.0
    sim_s = sum(t["sim_ms"] for t in trials) / 1000.0
    values = {
        "setup_s": statistics.median(raw["setup_ms"]) / 1000.0,
        "trial_ms_p50": p50,
        "trial_ms_p90": p90,
        "trials_per_s": len(trials) / total_s,
        "sim_queries_per_s": sum(t["sim_queries"] for t in trials) / sim_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(layers):
    missing = sorted(set(PER_LAYER) - set(layers))
    unknown = sorted(set(layers) - set(PER_LAYER))
    if missing or unknown:
        raise BenchError(f"per-layer names differ from the benchmark's list: "
                         f"missing {missing}, unknown {unknown}")
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def git_rev():
    """Commit of the checkout, or a hash of the library sources when the
    checkout is not a git repository."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the optimized binary; returns its path."""
    tree = build_dir()
    cache = tree / "CMakeCache.txt"
    if not cache.exists():
        command = ["cmake", "-S", str(HERE), "-B", str(tree),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_build_step(command)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in OPTIMIZED_BUILD_TYPES:
        raise BenchError(f"build tree {tree} is configured as "
                         f"{build_type or 'unoptimized'}; refusing to measure")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_build_step(["cmake", "--build", str(tree), "-j", jobs])
    return tree / "perfbench", build_type


def run_build_step(command):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise BenchError(f"build step failed: {error}") from error
    if done.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(command)}")


def run_binary(binary, args, deadline, env=None):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        done = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=remaining, env=env)
    except subprocess.TimeoutExpired as error:
        raise BenchError("the benchmark binary ran out of time") from error
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"the benchmark binary exited with "
                         f"{done.returncode}")
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError as error:
        raise BenchError(f"unreadable benchmark output: {error}") from error


def heap_speedup(binary, workload, seed, deadline):
    """Host time of the workload's simulation cell on the calendar queue
    divided by the same cell on the binary heap, each in its own process
    (alternating, two each). Returns (ratio, failures)."""
    times = {"calendar": [], "heap": []}
    digests = set()
    for _ in range(2):
        for queue in ("calendar", "heap"):
            env = dict(os.environ, DIMSUM_EVENT_QUEUE=queue)
            out = run_binary(binary, ["--workload", workload, "--seed",
                                      str(seed), "--sim-cell"], deadline, env)
            times[queue].append(out["sim_ms"])
            digests.add(out["digest"])
    failures = []
    if len(digests) != 1:
        failures.append("calendar and heap event queues gave different "
                        "simulation results")
    ratio = statistics.median(times["calendar"]) / statistics.median(
        times["heap"])
    return ratio, failures


def recorded_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def run_workload(binary, build_type, args, workload, deadline):
    command = ["--workload", workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
    raw = run_binary(binary, command, deadline)
    if raw.get("optimized") is not True:
        raise BenchError("the binary reports an unoptimized build")

    extra = []
    if args.trace:
        ratio, queue_failures = heap_speedup(binary, workload, args.seed,
                                             deadline)
        raw["layers"]["sim.heap_speedup"] = ratio
        extra = [raw["profile_failures"], queue_failures]
        metrics = per_layer_metrics(raw["layers"])
    else:
        metrics = end_to_end_metrics(raw)
    attempted, failed, messages = check_outputs(
        raw, recorded_digests().get(workload), extra)

    meta = {"workload": workload, "seed": args.seed, "git_rev": git_rev(),
            "build_type": build_type, "pool_threads": raw["threads"],
            "nproc": raw["nproc"], "trace": args.trace,
            "timed_trials": len(raw["trials"])}
    print("# " + json.dumps(meta, sort_keys=True))
    for message in sorted(set(messages)):
        print(f"# FAILED CHECK: {message}")
    print(f"#   error_rate = {failed / attempted!r} ({failed} of {attempted} "
          f"operations failed a check)")
    for name, metric in metrics.items():
        print(f"#   {name} = {metric['value']!r} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=21)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    try:
        binary, build_type = build()
        deadline = time.monotonic() + RUN_LIMIT_S * (
            len(WORKLOADS) if args.workload == "all" else 1)
        if args.workload != "all":
            result = run_workload(binary, build_type, args, args.workload,
                                  deadline)
        else:
            results = {w: run_workload(binary, build_type, args, w, deadline)
                       for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": metric
                            for w, r in results.items()
                            for name, metric in r["metrics"].items()},
            }
    except BenchError as error:
        log(str(error))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
