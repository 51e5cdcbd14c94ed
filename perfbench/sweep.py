"""Run every workload over several seeds and summarise the spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --out perfbench/results/a.jsonl \\
        [--workloads heartbeat-storm ...] [--seeds 1 2 3 ...] \\
        [--seconds N] [--trace]

Each run is ``run.py`` in a subprocess, recorded to ``--out`` (JSON
lines; the result set ``compare.py`` reads).  The summary gives, per
workload and end-to-end metric, the median and the spread (distance
between the first and third quartiles over the median) against a third
of the metric's bound — the steadiness target.  With ``--trace`` each
seed is also run traced, the per-layer medians are printed, and the
tracing overhead is the traced end-to-end median over the untraced one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def load_runs(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarise(runs, benchmark, out=sys.stdout):
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    for workload in workloads:
        mine = [r for r in plain if r["workload"] == workload]
        if not mine:
            continue
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        correct = all(r["result"]["correct"] for r in mine)
        out.write(f"\n{workload}: {len(mine)} runs, correct={correct}, "
                  f"failed {failed}/{attempted}\n")
        for name, spec in bounds.items():
            values = [r["end_to_end"][name] for r in mine]
            spread = common.spread(values)
            target = spec["bound"] / 3
            flag = "ok" if spread < target else "WIDE"
            middle = statistics.median(values)
            out.write(f"  {name:<16} median {middle:>12.4f} "
                      f"{spec['unit']:<5} spread {spread:6.3f} "
                      f"(target < {target:.3f}) {flag}\n")
        detail_names = sorted(mine[0]["details"])
        for name in detail_names:
            values = [r["details"][name] for r in mine]
            out.write(f"  . {name:<34} median "
                      f"{statistics.median(values):>12.4f} spread "
                      f"{common.spread(values):6.3f}\n")
        theirs = [r for r in traced if r["workload"] == workload]
        if theirs:
            out.write("  tracing overhead (traced / untraced median):\n")
            for name in bounds:
                ratio = (statistics.median([r["end_to_end"][name]
                                        for r in theirs])
                         / statistics.median([r["end_to_end"][name]
                                          for r in mine]))
                out.write(f"    {name:<16} x{ratio:.3f}\n")
            out.write("  per-layer medians (traced runs):\n")
            for metric in benchmark["per_layer"]:
                values = [r["result"]["metrics"][metric["name"]]["value"]
                          for r in theirs]
                out.write(f"    {metric['name']:<40} "
                          f"{statistics.median(values):>14.3f} "
                          f"{metric['unit']}\n")


def main(argv=None):
    benchmark = common.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run workloads over seeds and summarise the spread.")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="also run each seed traced")
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    run_py = common.BENCH_DIR / "run.py"
    for workload in args.workloads:
        for seed in args.seeds:
            for trace in ((0, 1) if args.trace else (0,)):
                command = [sys.executable, str(run_py),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--record", str(args.out)]
                done = subprocess.run(command, cwd=common.ROOT,
                                      capture_output=True, text=True,
                                      timeout=200)
                status = ("ok" if done.returncode == 0
                          else f"exit {done.returncode}")
                sys.stderr.write(f"{workload} seed {seed} trace {trace}: "
                                 f"{status}\n")
                if done.returncode != 0:
                    sys.stderr.write(done.stderr[-3000:])
    summarise(load_runs(args.out), benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
