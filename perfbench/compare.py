"""Compare two result sets, metric by metric, against the benchmark's bounds.

Usage, from the root of a checkout::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Both files are JSON lines written by ``run.py --record`` (``sweep.py
--out`` makes them).  Only untraced runs count.  For every (workload,
end-to-end metric) pair, and for every named figure a workload reports
beside them, the verdict is:

* **unresolved** — either side's spread (quartile distance over
  median) is wider than the bound, unless every new run reads better
  than every old run (then **better**);
* **worse** — the new median is worse than the old by more than the
  bound;
* **better** — the new median is better than the old by more than the
  old side's spread;
* **unchanged** — otherwise.

A named figure ending in ``_per_s`` is better higher and takes the
bound of ``rate_per_s``; any other is better lower and takes the bound
of ``latency_ms_p50``.  The share of
failed operations is printed per workload and must match exactly.
Exit code 1 when any pair is worse or the failed shares differ.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def load(path):
    with open(path) as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    return [run for run in runs if not run["trace"]]


def verdict(old, new, higher_better, bound):
    old_median = statistics.median(old)
    new_median = statistics.median(new)
    change = (new_median - old_median) / old_median
    worse_by = -change if higher_better else change
    if max(common.spread(old), common.spread(new)) > bound:
        if higher_better:
            clear = min(new) > max(old)
        else:
            clear = max(new) < min(old)
        return ("better" if clear else "unresolved"), change
    if worse_by > bound:
        return "worse", change
    if -worse_by > common.spread(old):
        return "better", change
    return "unchanged", change


def figure_rule(name, end_to_end):
    higher = name.endswith("_per_s")
    slot = "rate_per_s" if higher else "latency_ms_p50"
    return higher, end_to_end[slot]["bound"]


#: Named figures that count samples rather than measure anything.
BOOKKEEPING = ("latency_samples", "epochs")


def compare(old_runs, new_runs, benchmark, out=sys.stdout):
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    bad = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        old = [r for r in old_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        if not old or not new:
            out.write(f"\n{workload}: missing from "
                      f"{'old' if not old else 'new'} set\n")
            bad = True
            continue
        shares = []
        for runs in (old, new):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            shares.append((failed, attempted))
        same_share = shares[0][0] * shares[1][1] == \
            shares[1][0] * shares[0][1]
        bad |= not same_share
        out.write(f"\n{workload}: {len(old)} old runs, {len(new)} new runs; "
                  f"failed {shares[0][0]}/{shares[0][1]} vs "
                  f"{shares[1][0]}/{shares[1][1]}"
                  f"{'' if same_share else '  SHARE DIFFERS'}\n")
        rows = []
        for name, spec in end_to_end.items():
            rows.append((name, spec["better"] == "higher", spec["bound"],
                         [r["end_to_end"][name] for r in old],
                         [r["end_to_end"][name] for r in new]))
        for name in sorted(old[0]["details"]):
            if name in BOOKKEEPING or name not in new[0]["details"]:
                continue
            higher, bound = figure_rule(name, end_to_end)
            rows.append((". " + name, higher, bound,
                         [r["details"][name] for r in old],
                         [r["details"][name] for r in new]))
        for name, higher, bound, old_values, new_values in rows:
            result, change = verdict(old_values, new_values, higher, bound)
            bad |= result == "worse"
            old_median = statistics.median(old_values)
            new_median = statistics.median(new_values)
            out.write(f"  {name:<34} {old_median:>12.4f} -> "
                      f"{new_median:>12.4f} "
                      f"({change:+7.1%}; spread "
                      f"{common.spread(old_values):.3f}/"
                      f"{common.spread(new_values):.3f}, bound {bound}) "
                      f"{result}\n")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare two perfbench result sets.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    benchmark = common.load_benchmark()
    bad = compare(load(args.old), load(args.new), benchmark)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
