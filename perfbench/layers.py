"""Which program functions the traced run wraps, and the per-layer
metrics computed from them (named and given units in BENCHMARK.json).

Every per-layer metric is reported by every workload: a layer a
workload leaves idle reads 0 there, which is itself the prediction
(``soc.queues.*`` flat on ``ci-prevention``, ``ta.*`` flat on the
storms).
"""

from perfbench.tracing import Tracer

GATES = (
    ("RequirementsQualityGate", "requirements-quality"),
    ("FormalizationGate", "formalization"),
    ("VerificationGate", "verification"),
    ("ComplianceGate", "compliance"),
    ("MonitoringGate", "monitoring"),
)

#: Per-layer metrics a workload supplies from the program's own
#: outputs (queue stats, session counters, incidents, cache stats)
#: rather than from wrapped calls.
FROM_WORKLOAD = (
    "soc.queues.peak_depth",
    "ltl.steps_per_event",
    "soc.incidents.attempts_per_incident",
    "soc.incidents.effective_ratio",
    "prevention.cache.hit_ratio",
)


def install() -> Tracer:
    """Wrap each layer's public functions; call before building the
    workload so bound methods captured at arm time are the wrappers."""
    import importlib

    from repro.core import gates
    from repro.core.protection import ProtectionLoop
    from repro.environment.events import EventLog
    from repro.nalabs.analyzer import NalabsAnalyzer
    from repro.prevention.cache import VerificationCache
    from repro.reqs.stream import ReqStream
    from repro.rqcode.catalog import default_catalog
    from repro.rqcode.concepts import Checkable, Enforceable
    from repro.sched.scheduler import Scheduler
    from repro.soc.incidents import IncidentPipeline
    from repro.soc.queues import ShardQueue
    from repro.soc.rearm import Rearmer
    from repro.soc.service import SocService
    from repro.soc.sessions import MonitorSession
    from repro.ta.checker import ZoneGraphChecker

    ltl_compile = importlib.import_module("repro.ltl.compile")
    ltl_parser = importlib.import_module("repro.ltl.parser")
    fingerprint = importlib.import_module("repro.prevention.fingerprint")
    default_catalog()   # imports every RQCODE requirement class
    tracer = Tracer()
    tracer.patch_method(EventLog, "emit", "environment.emit")
    tracer.patch_result(SocService, "_ingress_for", "soc.ingress")
    tracer.patch_method(SocService, "drain", "soc.drain")
    tracer.patch_method(ShardQueue, "put", "soc.queues.put")
    tracer.patch_method(
        ShardQueue, "get_batch", "soc.queues.get_batch",
        count=lambda args, kwargs, result: len(result) if result else 0)
    _trace_full_waits(tracer, ShardQueue)
    tracer.patch_method(MonitorSession, "observe", "soc.sessions.observe")
    tracer.patch_method(MonitorSession, "apply_patch",
                        "soc.sessions.apply_patch")
    tracer.patch_method(ProtectionLoop, "_on_event", "core.protection")
    tracer.patch_function(
        ltl_compile, "step_monitors", "ltl.step_monitors",
        count=lambda args, kwargs, result: len(args[0]))
    tracer.patch_method(IncidentPipeline, "handle", "soc.incidents.handle")
    tracer.patch_subclasses(Checkable, "check", "rqcode.check")
    tracer.patch_subclasses(Enforceable, "enforce", "rqcode.enforce")
    tracer.patch_method(ReqStream, "diff", "reqs.stream.diff")
    tracer.patch_method(ReqStream, "commit", "reqs.stream.commit")
    tracer.patch_method(Rearmer, "apply", "soc.rearm.apply")
    tracer.patch_function(ltl_parser, "parse_ltl", "ltl.parse")
    tracer.patch_method(
        ZoneGraphChecker, "check", "ta.checker.check",
        count=lambda args, kwargs, result: result.states_explored)
    tracer.patch_function(fingerprint, "fingerprint_task",
                          "prevention.fingerprint")
    for attr in ("lookup", "store", "save"):
        tracer.patch_method(VerificationCache, attr,
                            f"prevention.cas.{attr}")
    for cls_name, gate in GATES:
        tracer.patch_method(getattr(gates, cls_name), "evaluate",
                            f"core.gates.{gate}")
    tracer.patch_method(Scheduler, "run_batch", "sched.run_batch")
    tracer.patch_method(NalabsAnalyzer, "analyze_corpus", "nalabs.analyze")
    return tracer


def _trace_full_waits(tracer: Tracer, queue_cls) -> None:
    """Time BLOCK stalls: the producer's waits on a full shard queue.

    ``ShardQueue.put`` waits on the queue's ``_not_full`` condition;
    each queue built while tracing gets that wait wrapped.
    """
    original = queue_cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._not_full.wait = tracer.wrap("soc.queues.put.wait",
                                          self._not_full.wait)

    queue_cls.__init__ = __init__


def metrics(tracer: Tracer, extras: dict) -> dict:
    """Per-layer metric values for one epoch."""
    stats, nested = tracer.snapshot()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[0]

    def busy(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[1]

    def self_time(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[2]

    def counted(name):
        return stats.get(name, (0, 0.0, 0.0, 0))[3]

    def per_call(total, count):
        return total / count if count else 0.0

    values = {
        "environment.emit.calls": calls("environment.emit"),
        "environment.emit.self_us": self_time("environment.emit") * 1e6,
        "soc.ingress.us_per_event": per_call(busy("soc.ingress") * 1e6,
                                             calls("soc.ingress")),
        "soc.queues.put.busy_us": busy("soc.queues.put") * 1e6,
        "soc.queues.put.wait_us": busy("soc.queues.put.wait") * 1e6,
        "soc.queues.batch_size_mean": per_call(
            counted("soc.queues.get_batch"),
            calls("soc.queues.get_batch")),
        "soc.sessions.observe.calls": calls("soc.sessions.observe"),
        "soc.sessions.observe.busy_s": busy("soc.sessions.observe"),
        "core.protection.steps_per_event": per_call(
            counted("ltl.step_monitors"), calls("core.protection")),
        "core.protection.busy_s": busy("core.protection"),
        "soc.incidents.handle.calls": calls("soc.incidents.handle"),
        "soc.incidents.handle.busy_ms":
            busy("soc.incidents.handle") * 1e3,
        "rqcode.check.busy_us": busy("rqcode.check") * 1e6,
        "rqcode.enforce.busy_us": busy("rqcode.enforce") * 1e6,
        "soc.drain.wait_ms": busy("soc.drain") * 1e3,
        "reqs.stream.diff.busy_us": busy("reqs.stream.diff") * 1e6,
        "reqs.stream.commit.busy_us": busy("reqs.stream.commit") * 1e6,
        "soc.rearm.apply.self_ms": self_time("soc.rearm.apply") * 1e3,
        "soc.rearm.drain_ms":
            nested.get(("soc.rearm.apply", "soc.drain"), 0.0) * 1e3,
        "soc.sessions.apply_patch.busy_us":
            busy("soc.sessions.apply_patch") * 1e6,
        "ltl.parse.busy_us": busy("ltl.parse") * 1e6,
        "ta.checker.check.calls": calls("ta.checker.check"),
        "ta.checker.check.busy_s": busy("ta.checker.check"),
        "ta.checker.states_explored": counted("ta.checker.check"),
        "prevention.fingerprint.busy_ms":
            busy("prevention.fingerprint") * 1e3,
        "prevention.cas.lookup.busy_ms":
            busy("prevention.cas.lookup") * 1e3,
        "prevention.cas.store.busy_ms": busy("prevention.cas.store") * 1e3,
        "prevention.cas.save.busy_ms": busy("prevention.cas.save") * 1e3,
        "sched.run_batch.busy_ms": busy("sched.run_batch") * 1e3,
        "nalabs.analyze.busy_ms": busy("nalabs.analyze") * 1e3,
    }
    for _, gate in GATES:
        values[f"core.gates.{gate}.busy_ms"] = \
            busy(f"core.gates.{gate}") * 1e3
    for name in FROM_WORKLOAD:
        values[name] = float(extras.get(name, 0.0))
    return values
