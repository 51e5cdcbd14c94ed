"""``advisory-churn``: live re-arming of a running SOC under advisory churn.

Each generation arms one new advisory requirement with a fresh atom
(``G !advisory.aN``) and retires the previous one, through
``ReqStream`` and ``Rearmer`` on the SOC ``Fleet.arm_soc`` started.  A
new advisory per generation is deliberate: an advisory-feed upsert on
an already-matched (product, CWE category) pair changes only
provenance and patches no monitor, so only a new formula exercises the
re-arm path (stream diff, per-host planning, LTL parsing and interning,
session patches, the drain barrier).
"""

import random
from collections import Counter
from time import perf_counter

from repro.reqs.ir import Formalization, Provenance, Requirement
from repro.reqs.stream import ReqStream
from repro.scenarios import get_scenario
from repro.soc.rearm import Rearmer

from perfbench.storms import SOC_SHARDS, soc_extras

WAIT_TIMEOUT_S = 60.0


def advisory(generation):
    rid = f"ADV-{generation:05d}"
    return Requirement(
        rid=rid, title=rid, text=f"exploit of advisory {generation} "
        f"must never be observed", source="vulndb", severity="high",
        formalization=Formalization(ltl=f"G !advisory.a{generation}"),
        provenance=(Provenance("advisory", rid, "perfbench feed"),))


class AdvisoryChurn:
    """``seed-legacy``'s 32 hosts armed with the Ubuntu catalogue; one
    advisory generation after another on the running SOC."""

    #: Re-arm cost grows with every generation, and the costly late
    #: generations swing most with machine speed; 400 per epoch spread
    #: past the latency bound (README, *Steadiness*).
    GENERATIONS = 100
    HEARTBEATS = (200, 300)     # per generation, seeded

    def __init__(self, seed, watchdog):
        self.watchdog = watchdog
        self.scenario = get_scenario("seed-legacy")
        rng = random.Random(f"advisory-churn:{seed}")
        hosts = self.scenario.hosts
        self.records = [advisory(g) for g in range(self.GENERATIONS)]
        #: per generation: (exploit host, retired-exploit host,
        #: heartbeat host indexes)
        self.plan = []
        for _ in range(self.GENERATIONS):
            beats = rng.randint(*self.HEARTBEATS)
            self.plan.append((rng.randrange(hosts), rng.randrange(hosts),
                              [rng.randrange(hosts) for _ in range(beats)]))

    def setup(self):
        self.fleet = self.scenario.build_fleet(name="advisory-churn")
        self.service = self.fleet.arm_soc(shards=SOC_SHARDS)
        self.stream = ReqStream()
        self.rearmer = Rearmer(self.service)
        self.base_monitors = {name: len(session.monitors)
                              for name, session
                              in self.service.sessions.items()}

    def discard(self):
        """Tear down a set-up that will not be measured."""
        with self.watchdog.limit(WAIT_TIMEOUT_S, "advisory-churn stop"):
            self.service.stop()

    def run(self):
        hosts = self.fleet.hosts()
        service = self.service
        stream = self.stream
        rearmer = self.rearmer
        limit = self.watchdog.limit
        self.rearm_seconds = []
        self.heartbeat_rates = []
        self.monitor_drift = []
        self.exploits = {}
        previous = None
        for generation, record in enumerate(self.records):
            exploit_host, retired_host, beats = self.plan[generation]
            started = perf_counter()
            delta = stream.diff(
                [record], remove_rids=[previous.rid] if previous else ())
            with limit(WAIT_TIMEOUT_S, f"re-arm generation {generation}"):
                rearmer.apply(delta)
            stream.commit(delta)
            self.rearm_seconds.append(perf_counter() - started)
            for name, session in service.sessions.items():
                if len(session.monitors) != self.base_monitors[name] + 1:
                    self.monitor_drift.append((generation, name,
                                               len(session.monitors)))
            started = perf_counter()
            hosts[exploit_host].events.emit(f"advisory.a{generation}")
            self.exploits[record.rid] = hosts[exploit_host].name
            if previous is not None:
                hosts[retired_host].events.emit(
                    f"advisory.a{generation - 1}")
            for host_index in beats:
                hosts[host_index].events.emit("app.heartbeat")
            with limit(WAIT_TIMEOUT_S, f"drain after generation "
                                       f"{generation}"):
                service.drain()
            self.heartbeat_rates.append(len(beats)
                                        / (perf_counter() - started))
            previous = record

    def finish(self):
        incidents = self.service.incidents()
        self.incidents = [(i.req_id, i.trigger_kind) for i in incidents]
        self.incident_hosts = {
            (name, incident.req_id)
            for name, found in self.service.incidents_by_host().items()
            for incident in found}
        extras = soc_extras(self.service)
        with self.watchdog.limit(WAIT_TIMEOUT_S, "advisory-churn stop"):
            self.service.stop()
        return {
            "attempted": self.GENERATIONS,
            "failed": 0,
            "rates": self.heartbeat_rates,
            "latencies_ms": [s * 1e3 for s in self.rearm_seconds],
            "details": {},
            "extras": extras,
        }

    def check(self):
        """Each live advisory's exploit raises exactly one incident, on
        the host it hit and under its rid; exploits of retired
        advisories and the heartbeats raise none; every host keeps its
        catalogue monitors plus exactly one advisory monitor."""
        problems = []
        if self.monitor_drift:
            problems.append(f"armed monitors per host changed: "
                            f"{self.monitor_drift[:5]}")
        counts = Counter(self.incidents)
        expected = Counter((record.rid, f"advisory.a{g}")
                           for g, record in enumerate(self.records))
        if counts != expected:
            extra = counts - expected
            missing = expected - counts
            problems.append(f"incidents differ from one per live exploit: "
                            f"{len(missing)} missing, {len(extra)} extra "
                            f"(e.g. {list(extra)[:3]})")
        wrong_host = [rid for rid, host in self.exploits.items()
                      if (host, rid) not in self.incident_hosts]
        if wrong_host:
            problems.append(f"advisories raised on the wrong host: "
                            f"{wrong_host[:5]}")
        return problems
