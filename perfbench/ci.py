"""``ci-prevention``: the prevention pipeline as three separate CI jobs.

A seeded corpus of distinct verification tasks is drawn from the
repository's model families: token rings of varied size and hold time,
worker pools and intrusion watchdogs with varied deadlines.  Every
query holds by construction (see :func:`task_space`), which is the
known verdict each pipeline verdict is checked against.

Each epoch runs, each on a fresh orchestrator as separate CI jobs
would: a *cold* job on an empty cache directory, a *warm* job that
reopens that cache from disk, and an *incremental* job after a seeded
edit of about 5% of the models.  A fourth job re-runs the pipeline on
the orchestrator that did the cold job; it fails every time today
(``RequirementsQualityGate`` moves records an earlier run left
VERIFIED back to ANALYZED, which ``RequirementRecord.advance_to``
refuses) and is counted as attempted and failed.
"""

import random
import shutil
import tempfile
from time import perf_counter

from repro.core.orchestrator import VeriDevOpsOrchestrator
from repro.prevention import VerificationCache
from repro.prevention.tasks import _token_ring, _watchdog
from repro.scenarios import get_scenario
from repro.sched.scheduler import Scheduler
from repro.ta.automaton import Edge, Location, TimedAutomaton, parse_guard
from repro.ta.checker import ZoneGraphChecker
from repro.ta.query import parse_query
from repro.ta.system import Network

from perfbench.common import WORK_DIR

MAX_WORKERS = 2
TASKS = 250
EDITED = TASKS // 20
REFERENCE_SAMPLE = 6
#: What the same-orchestrator re-run raises today.
RERUN_FAULT = "cannot regress from verified to analyzed"


def worker_pool(count, rest, work):
    """*count* independent cyclic workers (the E15 pool family)."""
    workers = []
    for index in range(count):
        workers.append(TimedAutomaton(
            name=f"W{index}",
            clocks=["t"],
            locations=[
                Location("rest", invariant=parse_guard(f"t <= {rest}")),
                Location("work", invariant=parse_guard(f"t <= {work}")),
            ],
            edges=[
                Edge("rest", "work", guard=parse_guard("t >= 1"),
                     resets=("t",), action=f"start{index}"),
                Edge("work", "rest", guard=parse_guard("t >= 2"),
                     resets=("t",), action=f"done{index}"),
            ],
        ))
    return Network(workers)


def task_space():
    """Every candidate task as ``(family, params, query)``; all hold.

    * ring(n, hold): one token circulates, so no two stations are busy
      together; every station gets the token; the token always comes
      back to S0; the ring never deadlocks.
    * pool(2, rest, work): the invariants force each worker to
      alternate, both can work at once, and nothing deadlocks.
    * pool(3, rest, work): all three can work at once.
    * watchdog(deadline): an alert is always engaged and answered
      within the deadline, and the watchdog is never idle while an
      alert is raised.
    """
    space = []
    for n in range(3, 8):
        for hold in range(2, 9):
            queries = [f"E<> S{k}.busy" for k in range(1, n)]
            queries += [f"A[] not (S{i}.busy and S{j}.busy)"
                        for i in range(n) for j in range(i + 1, n)]
            queries += [f"S{k}.busy --> S0.busy" for k in range(1, n)]
            queries.append("A[] not deadlock")
            space += [("ring", (n, hold), query) for query in queries]
    for rest in range(2, 6):
        for work in range(3, 7):
            for query in ("E<> W0.work and W1.work", "A[] not deadlock",
                          "W0.work --> W0.rest", "W1.rest --> W1.work"):
                space.append(("pool", (2, rest, work), query))
            space.append(("pool", (3, rest, work),
                          "E<> W0.work and W1.work and W2.work"))
    for deadline in range(1, 41):
        for query in ("E<> Watchdog.respond",
                      "A[] not (Sensor.raised and Watchdog.watch)",
                      "Sensor.raised --> Watchdog.watch"):
            space.append(("watchdog", (deadline,), query))
    return space


def build_network(family, params):
    if family == "ring":
        return _token_ring(*params)
    if family == "pool":
        return worker_pool(*params)
    return _watchdog(*params)


def edit(family, params):
    """The seeded model edit: one timing constant moves; verdicts hold."""
    if family == "ring":
        n, hold = params
        return (n, hold + 1)
    if family == "pool":
        count, rest, work = params
        return (count, rest, work + 1)
    return (params[0] + 1,)


class VerdictClock:
    """Verdict latency of one job, from the scheduler's own event bus:
    time from the first verification task's dispatch to each task's
    completion."""

    def __init__(self, bus):
        self.started = None
        self.latencies = []
        bus.subscribe(self._on_event)

    def _on_event(self, event):
        if not event.task.startswith("verify:"):
            return
        if event.kind == "task.started" and self.started is None:
            self.started = perf_counter()
        elif event.kind == "task.completed":
            self.latencies.append(perf_counter() - self.started)


def draw_corpus(rng, count):
    """*count* distinct tasks, stratified so every seed gets the same mix.

    Strata are (family, size, query operator); each gets a fixed quota
    proportional to its share of :func:`task_space` (largest remainders
    fill the rounding gap), and the seed picks which tasks fill it.
    Checking cost depends mostly on the stratum, so seeds vary the
    models without varying how much work a CI job is.
    """
    strata = {}
    for task in task_space():
        family, params, query = task
        operator = "-->" if "-->" in query else query.split()[0]
        size = params[0] if family in ("ring", "pool") else 0
        strata.setdefault((family, size, operator), []).append(task)
    total = sum(len(tasks) for tasks in strata.values())
    shares = {key: count * len(tasks) / total
              for key, tasks in strata.items()}
    quotas = {key: int(share) for key, share in shares.items()}
    by_remainder = sorted(strata, key=lambda key: (
        quotas[key] - shares[key], key))
    for key in by_remainder[:count - sum(quotas.values())]:
        quotas[key] += 1
    corpus = []
    for key in sorted(strata):
        corpus += rng.sample(strata[key], quotas[key])
    rng.shuffle(corpus)
    return corpus


class CiPrevention:
    def __init__(self, seed, watchdog):
        rng = random.Random(f"ci-prevention:{seed}")
        self.specs = draw_corpus(rng, TASKS)
        self.edited = sorted(rng.sample(range(TASKS), EDITED))
        self.reference = rng.sample(range(TASKS), REFERENCE_SAMPLE)
        self.scenario = get_scenario("seed-legacy")

    def _tasks(self, edited=()):
        tasks = []
        for index, (family, params, query) in enumerate(self.specs):
            if index in edited:
                params = edit(family, params)
            tasks.append((f"t{index:03d}-{family}",
                          build_network(family, params), query))
        return tasks

    def setup(self):
        WORK_DIR.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="ci-cache-",
                                          dir=WORK_DIR)
        self.hosts = self.scenario.build_hosts()
        self.cold_tasks = self._tasks()
        self.incremental_tasks = self._tasks(edited=set(self.edited))

    def discard(self):
        """Remove this set-up's cache directory."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass    # another epoch's cache is still there

    def _job(self, tasks, orchestrator=None):
        """One CI job; returns (orchestrator, run, stats, seconds,
        verdict latencies)."""
        started = perf_counter()
        if orchestrator is None:
            orchestrator = VeriDevOpsOrchestrator()
            orchestrator.ingest_natural_language(
                self.scenario.nl_requirements)
            orchestrator.ingest_standards("ubuntu")
        cache = VerificationCache(self.cache_dir)
        scheduler = Scheduler(workers=MAX_WORKERS)
        clock = VerdictClock(scheduler.bus)
        run = orchestrator.run_prevention(
            self.hosts, verification_tasks=tasks,
            max_workers=MAX_WORKERS, cache=cache, scheduler=scheduler)
        seconds = perf_counter() - started
        return orchestrator, run, cache.stats_dict(), seconds, clock

    def run(self):
        (self.cold_orchestrator, self.cold, self.cold_stats,
         self.cold_seconds, cold_clock) = self._job(self.cold_tasks)
        self.latencies = cold_clock.latencies
        (_, self.warm, self.warm_stats, self.warm_seconds,
         _) = self._job(self.cold_tasks)
        (_, self.incremental, self.incremental_stats,
         self.incremental_seconds, _) = self._job(self.incremental_tasks)
        self.rerun_error = None
        try:
            self.rerun = self._job(self.cold_tasks,
                                   self.cold_orchestrator)[1]
        except ValueError as exc:
            self.rerun_error = str(exc)

    def finish(self):
        self.discard()
        ci_seconds = (self.cold_seconds + self.warm_seconds
                      + self.incremental_seconds)
        stats = (self.cold_stats, self.warm_stats, self.incremental_stats)
        hits = sum(s["hits"] for s in stats)
        lookups = hits + sum(s["misses"] for s in stats)
        failed = int(self.rerun_error is not None
                     and RERUN_FAULT in self.rerun_error)
        return {
            "attempted": 4,
            "failed": failed,
            "rates": [3 * TASKS / ci_seconds],
            "latencies_ms": [s * 1e3 for s in self.latencies],
            "details": {
                "pipeline_cold_s": self.cold_seconds,
                "pipeline_warm_s": self.warm_seconds,
                "pipeline_incremental_s": self.incremental_seconds,
            },
            "extras": {"prevention.cache.hit_ratio":
                       hits / lookups if lookups else 0.0},
        }

    @staticmethod
    def _verdicts(run):
        return [(label, result.satisfied, result.states_explored)
                for label, result in run.context.get(
                    "verification_results", [])]

    def check(self):
        problems = []
        for name, run in (("cold", self.cold), ("warm", self.warm),
                          ("incremental", self.incremental)):
            if not run.passed:
                problems.append(f"{name} job failed at stage "
                                f"{run.failed_stage!r}")
        cold = self._verdicts(self.cold)
        if len(cold) != TASKS or not all(ok for _, ok, _ in cold):
            problems.append("cold verdicts differ from the known ones "
                            "(every task holds)")
        if self.warm_stats["misses"] != 0:
            problems.append(f"warm job missed the cache "
                            f"{self.warm_stats['misses']} times")
        if self._verdicts(self.warm) != cold:
            problems.append("warm verdicts differ from cold verdicts")
        if self.incremental_stats["misses"] != EDITED:
            problems.append(f"incremental job missed "
                            f"{self.incremental_stats['misses']} times "
                            f"for {EDITED} edited tasks")
        incremental = self._verdicts(self.incremental)
        edited = set(self.edited)
        if len(incremental) != TASKS or any(
                (after != before) if index not in edited else not after[1]
                for index, (before, after)
                in enumerate(zip(cold, incremental))):
            problems.append("incremental verdicts differ from the known "
                            "ones")
        for index in self.reference:
            label, network, query = self.cold_tasks[index]
            reference = ZoneGraphChecker(network, fast=False).check(
                parse_query(query))
            if (label, reference.satisfied,
                    reference.states_explored) != cold[index]:
                problems.append(f"{label}: pipeline verdict differs from "
                                f"the fast=False reference checker")
        if self.rerun_error is None:
            if self._verdicts(self.rerun) != cold:
                problems.append("same-orchestrator re-run verdicts differ")
        elif RERUN_FAULT not in self.rerun_error:
            problems.append(f"same-orchestrator re-run raised "
                            f"{self.rerun_error!r}")
        return problems
