"""One epoch of one workload, in a process of its own.

``python3 -m perfbench.epoch --workload NAME --seed N --trace 0|1``
(run from the checkout root) builds the workload's seeded inputs, times
its set-up, runs it, checks its outputs, and prints one JSON object:
the raw samples ``run.py`` aggregates.  A fresh process per epoch keeps
epochs independent (no memo or allocator state carried over) and makes
the peak RSS that of one epoch's work.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
from time import perf_counter

from perfbench.common import Watchdog, require_program

#: Set-ups per epoch; all but the last are discarded and the median
#: is reported, so one slow set-up (the process's first, or one that
#: met a burst of machine noise) does not decide the figure.
SETUPS = 5

#: workload -> (module, class, rate figure, latency figure, min epochs).
#: The end-to-end slots ``rate_per_s`` and ``latency_ms_p50`` carry,
#: per workload, the figure named here; min epochs guarantee the 1,000
#: pooled latency samples a p99 needs.
WORKLOADS = {
    "heartbeat-storm": ("perfbench.storms", "HeartbeatStorm",
                        "protect_events_per_s", "drift_to_repair_ms", 1),
    "drift-storm": ("perfbench.storms", "DriftStorm",
                    "repairs_per_s", "drift_to_repair_ms", 1),
    "advisory-churn": ("perfbench.churn", "AdvisoryChurn",
                       "protect_events_per_s", "rearm_ms", 10),
    "ci-prevention": ("perfbench.ci", "CiPrevention",
                      "ci_verdicts_per_s", "cold_verdict_latency_ms", 4),
}


def run_epoch(name, seed, trace):
    import importlib

    module_name, class_name = WORKLOADS[name][:2]
    workload_cls = getattr(importlib.import_module(module_name),
                           class_name)
    tracer = None
    if trace:
        from perfbench import layers
        tracer = layers.install()
    watchdog = Watchdog()
    workload = workload_cls(seed, watchdog)
    setup_times = []
    for attempt in range(SETUPS):
        if attempt:
            workload.discard()
        gc.collect()
        started = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - started)
    if tracer is not None:
        tracer.reset()
    workload.run()
    result = workload.finish()
    result["setup_s"] = statistics.median(setup_times)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layers.metrics(tracer, result["extras"])
    result["problems"] = workload.check()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    result = run_epoch(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
