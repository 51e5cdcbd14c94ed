"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heartbeat-storm --seed 1 \\
        --seconds 15 --trace 0 [--record results.jsonl]

The run repeats whole epochs of the workload (each a fresh process,
see ``epoch.py``) until ``--seconds`` have passed and enough latency
samples exist for a p99.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric.  The line before it holds the
machine stamp and the workload's own named figures.  ``--record``
appends both to a JSON-lines file for ``sweep.py`` and ``compare.py``.
"""

import argparse
import json
import statistics
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.epoch import WORKLOADS  # noqa: E402

#: ``rate_per_s`` is this percentile of the run's short-block rates.
#: The machine the benchmark was built on drops to about half speed for
#: seconds to minutes at a time; the median block then flips between
#: its two speeds from run to run, while the fastest tenth of blocks,
#: which nearly every run reaches, tracks the program's own speed.
RATE_PERCENTILE = 90

EPOCH_TIMEOUT_S = 150.0
#: Start no epoch that could end after this (the run must exit in 180 s).
RUN_BUDGET_S = 160.0


def run_epoch(workload, seed, trace):
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # The benchmark measures the SOC's default backend.
    env.pop("REPRO_SOC_BACKEND", None)
    command = [sys.executable, "-m", "perfbench.epoch",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=common.ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=EPOCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise common.BenchError(f"{workload} epoch exceeded "
                                f"{EPOCH_TIMEOUT_S:.0f}s")
    if done.returncode != 0:
        raise common.BenchError(
            f"{workload} epoch exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise common.BenchError(f"{workload} epoch printed no result:\n"
                                f"{done.stdout[-2000:]}"
                                f"{done.stderr[-2000:]}")


def aggregate(workload, epochs, trace, benchmark):
    rate_name, latency_name = WORKLOADS[workload][2:4]
    latencies = [ms for epoch in epochs for ms in epoch["latencies_ms"]]
    if not common.tail_supported(len(latencies), 99):
        raise common.BenchError(f"{len(latencies)} latency samples are "
                                f"too few for a p99")
    rates = [rate for epoch in epochs for rate in epoch["rates"]]
    end_to_end = {
        "rate_per_s": common.percentile(rates, RATE_PERCENTILE),
        "latency_ms_p50": common.percentile(latencies, 50),
        "setup_s": statistics.median([e["setup_s"] for e in epochs]),
        "peak_rss_mb": statistics.median([e["peak_rss_mb"] for e in epochs]),
    }
    details = {rate_name: end_to_end["rate_per_s"],
               f"{latency_name}_p50": end_to_end["latency_ms_p50"],
               f"{latency_name}_p99": common.percentile(latencies, 99),
               "latency_samples": len(latencies),
               "epochs": len(epochs)}
    for key in epochs[0]["details"]:
        details[key] = statistics.median([e["details"][key] for e in epochs])
    if trace:
        measured = {name: statistics.median([e["layers"][name]
                                             for e in epochs])
                    for name in epochs[0]["layers"]}
        wanted = benchmark["per_layer"]
    else:
        measured = end_to_end
        wanted = benchmark["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise common.BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return end_to_end, details, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its result.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the run as one JSON line to this file")
    args = parser.parse_args(argv)
    try:
        common.require_program()
        benchmark = common.load_benchmark()
        stamp = common.stamp()
        min_epochs = WORKLOADS[args.workload][4]
        epochs = []
        started = monotonic()
        while True:
            epoch_started = monotonic()
            epochs.append(run_epoch(args.workload, args.seed, args.trace))
            elapsed = monotonic() - started
            last = monotonic() - epoch_started
            if elapsed >= args.seconds and len(epochs) >= min_epochs:
                break
            if elapsed + 1.5 * last > RUN_BUDGET_S:
                if len(epochs) < min_epochs:
                    raise common.BenchError(
                        f"only {len(epochs)} epochs fit in the run budget")
                break
        end_to_end, details, metrics = aggregate(args.workload, epochs,
                                                 args.trace, benchmark)
    except common.BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    problems = [problem for epoch in epochs for problem in epoch["problems"]]
    for problem in problems[:20]:
        sys.stderr.write(f"perfbench: incorrect output: {problem}\n")
    result = {
        "correct": not problems,
        "attempted": sum(epoch["attempted"] for epoch in epochs),
        "failed": sum(epoch["failed"] for epoch in epochs),
        "metrics": metrics,
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "stamp": stamp, "end_to_end": end_to_end,
              "details": details}
    if args.record is not None:
        raw = [{key: epoch[key] for key in ("rates", "latencies_ms",
                                            "setup_s", "peak_rss_mb")}
               for epoch in epochs]
        with open(args.record, "a") as handle:
            handle.write(json.dumps({**detail, "result": result,
                                     "epochs": raw}) + "\n")
    sys.stdout.write(json.dumps(detail) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
