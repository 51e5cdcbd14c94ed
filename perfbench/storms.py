"""The two drift storms: ``heartbeat-storm`` and ``drift-storm``.

Both drive seeded drift through the program's public surface
(``Fleet.arm_soc``, ``FleetProtection``), time each drift until the
repair's inverse substrate event reaches the benchmark's own event
subscriber, and check the outcome against state read directly from the
simulated dpkg and auditpol tools.
"""

import random
from collections import Counter
from time import perf_counter

from repro.core.fleet import FleetProtection
from repro.environment.profiles import hardened_ubuntu_host
from repro.scenarios import get_scenario
from repro.scenarios.library import WINDOWS_DRIFT_SUBCATEGORIES

from perfbench.common import percentile

SOC_SHARDS = 2
DRAIN_TIMEOUT_S = 60.0


def expected_repair(scenario, host, round_index, host_index):
    """``(kind, payload key, value)`` of the substrate event that
    undoes the drift ``scenario.apply_drift`` injects in this slot."""
    if host.os_family == "windows":
        subcategory = WINDOWS_DRIFT_SUBCATEGORIES[
            (round_index + host_index) % len(WINDOWS_DRIFT_SUBCATEGORIES)]
        return ("audit.policy_changed", "subcategory", subcategory)
    action, package = scenario.drift_for(round_index, host_index)
    if action == "install":
        return ("package.removed", "name", package)
    return ("package.installed", "name", package)


class RepairWatch:
    """The benchmark's own subscriber on every host's event log.

    ``expect`` registers a drift with the time it was injected; the
    first later event on that host matching the expected repair closes
    it.  The drift's own ``package.*`` event never matches: an install
    drift emits ``package.installed`` and waits for ``package.removed``
    (and the reverse for a removal).
    """

    def __init__(self, hosts):
        self.pending = {host.name: [] for host in hosts}
        self.latencies = []
        self._subscriptions = [
            host.events.subscribe(self._subscriber(host.name))
            for host in hosts]

    def _subscriber(self, host_name):
        waiting = self.pending[host_name]
        latencies = self.latencies

        def on_event(event):
            if not waiting:
                return
            for index, (kind, key, value, started) in enumerate(waiting):
                if event.kind == kind and event.payload.get(key) == value:
                    latencies.append(perf_counter() - started)
                    del waiting[index]
                    return

        return on_event

    def expect(self, host_name, repair, started):
        kind, key, value = repair
        self.pending[host_name].append((kind, key, value, started))

    def open_count(self):
        return sum(len(waiting) for waiting in self.pending.values())

    def cancel(self):
        for subscription in self._subscriptions:
            subscription.cancel()


def host_state(host):
    """A host's package and audit-policy state, read from the tools."""
    return (tuple(sorted(host.dpkg.installed_packages())),
            tuple(sorted(host.audit_store.snapshot().items())))


def check_repairs(label, fleet, baseline, incidents_by_host, drifts_by_host):
    """Independent checks shared by both storms; returns problems.

    * every host's dpkg/auditpol state equals its state before the
      storm (every drift the benchmark applied was undone);
    * each host's log holds exactly the drift events the benchmark
      applied, each matched by exactly one effective incident that the
      drift event itself triggered;
    * no incident was raised by anything but a drift, and no repair
      failed.  A drift also trips the host's other drift monitors of
      the same class; those incidents re-check their findings, find
      them compliant and change nothing ("already compliant").
    """
    problems = []
    for host in fleet.hosts():
        if host_state(host) != baseline[host.name]:
            problems.append(f"{label}: {host.name} state differs from "
                            f"its pre-storm state")
        drift_events = [event for event in host.events
                        if event.kind.startswith("drift.")]
        if len(drift_events) != drifts_by_host.get(host.name, 0):
            problems.append(
                f"{label}: {host.name} logged {len(drift_events)} drift "
                f"events, benchmark applied "
                f"{drifts_by_host.get(host.name, 0)}")
        times = {event.time: event.kind for event in drift_events}
        effective = Counter()
        for incident in incidents_by_host.get(host.name, ()):
            if times.get(incident.detected_at) != incident.trigger_kind:
                problems.append(f"{label}: {host.name} incident "
                                f"{incident.req_id} not raised by a drift")
                continue
            if incident.effective:
                effective[incident.detected_at] += 1
            elif any(repair.detail != "already compliant"
                     for repair in incident.repairs):
                problems.append(f"{label}: {host.name} incident "
                                f"{incident.req_id} repair failed: "
                                f"{[r.detail for r in incident.repairs]}")
        bad = [time for time in times if effective[time] != 1]
        if bad:
            problems.append(f"{label}: {host.name} drifts at {bad[:5]} "
                            f"have {[effective[t] for t in bad[:5]]} "
                            f"effective incidents, want 1 each")
    return problems


def incident_extras(incidents):
    """Per-layer incident ratios from the SOC's own incident records."""
    attempts = 0
    for incident in incidents:
        for repair in incident.repairs:
            for part in repair.detail.split("; "):
                if part.startswith("attempts="):
                    attempts += int(part.split("=", 1)[1])
    count = len(incidents)
    return {
        "soc.incidents.attempts_per_incident":
            attempts / count if count else 0.0,
        "soc.incidents.effective_ratio":
            sum(1 for i in incidents if i.effective) / count
            if count else 0.0,
    }


def soc_extras(service):
    sessions = service.sessions.values()
    events = sum(session.events_seen for session in sessions)
    steps = sum(session.monitors_stepped for session in sessions)
    return {
        "soc.queues.peak_depth": max(stats["peak_depth"]
                                     for stats in service.queue_stats()),
        "ltl.steps_per_event": steps / events if events else 0.0,
        **incident_extras(service.incidents()),
    }


class HeartbeatStorm:
    """``seed-legacy``: 32 hardened Ubuntu hosts; about 80 heartbeats
    around each package drift, ROUNDS rounds over every host.  The
    stream goes through the SOC (BLOCK backpressure, one saturating
    producer) and then, identically, through the serial loop."""

    ROUNDS = 32
    HEARTBEATS = (70, 90)      # per drift, seeded, split before/after

    def __init__(self, seed, watchdog):
        self.watchdog = watchdog
        self.scenario = get_scenario("seed-legacy")
        rng = random.Random(f"heartbeat-storm:{seed}")
        offset = rng.randrange(len(self.scenario.drifts))
        hosts = self.scenario.hosts
        # One seeded host order for every round: a host's drifts stay a
        # full round apart, so its previous repair has landed before its
        # next drift (the shard queues hold a few hundred events, a round
        # is thousands).  Closer drifts would share one repair sweep,
        # and the one-effective-incident-per-drift check would not apply.
        order = list(range(hosts))
        rng.shuffle(order)
        #: per round: (host index, heartbeats before, after, drift slot)
        self.rounds = []
        for round_index in range(self.ROUNDS):
            drifts = []
            for host_index in order:
                total = rng.randint(*self.HEARTBEATS)
                before = rng.randint(0, total)
                drifts.append((host_index, before, total - before,
                               round_index + offset))
            self.rounds.append(drifts)
        self.events = sum(before + after + 2 for drifts in self.rounds
                          for _, before, after, _ in drifts)

    def setup(self):
        self.soc_fleet = self.scenario.build_fleet(name="heartbeat-soc")
        self.serial_fleet = self.scenario.build_fleet(
            name="heartbeat-serial")
        self.baseline = {host.name: host_state(host)
                         for host in self.soc_fleet.hosts()}
        self.service = self.soc_fleet.arm_soc(shards=SOC_SHARDS)
        self.serial = FleetProtection(self.serial_fleet).start()
        self.soc_watch = RepairWatch(self.soc_fleet.hosts())
        self.serial_watch = RepairWatch(self.serial_fleet.hosts())

    def discard(self):
        """Tear down a set-up that will not be measured."""
        with self.watchdog.limit(DRAIN_TIMEOUT_S, "heartbeat-storm stop"):
            self.service.stop()
        self.serial.stop()

    def _inject(self, fleet, watch):
        """Emit the stream on *fleet*; returns per-round events/s as
        seen by the producer (BLOCK backpressure makes that the rate
        the protection path absorbs)."""
        scenario = self.scenario
        hosts = fleet.hosts()
        rates = []
        for drifts in self.rounds:
            started = perf_counter()
            events = 0
            for host_index, before, after, slot in drifts:
                host = hosts[host_index]
                emit = host.events.emit
                for _ in range(before):
                    emit("app.heartbeat")
                watch.expect(host.name,
                             expected_repair(scenario, host, slot,
                                             host_index),
                             perf_counter())
                scenario.apply_drift(host, slot, host_index)
                for _ in range(after):
                    emit("app.heartbeat")
                events += before + after + 2
            rates.append(events / (perf_counter() - started))
        return rates

    def run(self):
        hosts = self.soc_fleet.hosts()
        self.drifts = Counter(hosts[host_index].name
                              for drifts in self.rounds
                              for host_index, _, _, _ in drifts)
        self.soc_rates = self._inject(self.soc_fleet, self.soc_watch)
        with self.watchdog.limit(DRAIN_TIMEOUT_S, "heartbeat-storm drain"):
            self.service.drain()
        self.serial_rates = self._inject(self.serial_fleet,
                                         self.serial_watch)

    def finish(self):
        """Metrics and layer extras, read before the service stops."""
        extras = soc_extras(self.service)
        with self.watchdog.limit(DRAIN_TIMEOUT_S, "heartbeat-storm stop"):
            self.service.stop()
        self.serial.stop()
        self.soc_watch.cancel()
        self.serial_watch.cancel()
        return {
            "attempted": 2 * self.events,
            "failed": 0,
            "rates": self.soc_rates,
            "latencies_ms": [s * 1e3 for s in self.soc_watch.latencies],
            "details": {
                "serial_events_per_s": percentile(self.serial_rates, 90),
                "serial_drift_to_repair_ms_p50": percentile(
                    [s * 1e3 for s in self.serial_watch.latencies], 50),
            },
            "extras": extras,
        }

    def check(self):
        problems = []
        drifts = sum(self.drifts.values())
        for label, watch in (("soc", self.soc_watch),
                             ("serial", self.serial_watch)):
            if watch.open_count() or len(watch.latencies) != drifts:
                problems.append(f"{label}: {len(watch.latencies)} repairs "
                                f"seen for {drifts} drifts")
        soc_incidents = self.service.incidents_by_host()
        serial_incidents = self.serial.incidents_by_host()
        problems += check_repairs("soc", self.soc_fleet, self.baseline,
                                  soc_incidents, self.drifts)
        problems += check_repairs("serial", self.serial_fleet,
                                  self.baseline, serial_incidents,
                                  self.drifts)
        profile = {name: host_state(hardened_ubuntu_host(name))
                   for name in self.baseline}
        if profile != self.baseline:
            problems.append("seed-legacy hosts do not start from the "
                            "hardened Ubuntu profile")

        def multiset(by_host):
            return Counter((host, incident.req_id, incident.trigger_kind)
                           for host, incidents in by_host.items()
                           for incident in incidents)

        if multiset(soc_incidents) != multiset(serial_incidents):
            problems.append("SOC and serial loop incidents differ")
        return problems


class DriftStorm:
    """``zoned-estate`` resized to HOSTS mixed Win10/Ubuntu hosts; each
    wave drifts every host once (audit policy on Windows, packages on
    Ubuntu), no heartbeats, and a ``drain()`` barrier closes the
    wave."""

    HOSTS = 60
    WAVES = 17

    def __init__(self, seed, watchdog):
        self.watchdog = watchdog
        self.scenario = get_scenario("zoned-estate")
        rng = random.Random(f"drift-storm:{seed}")
        self.offset = rng.randrange(6)
        self.orders = []
        for _ in range(self.WAVES):
            order = list(range(self.HOSTS))
            rng.shuffle(order)
            self.orders.append(order)

    def setup(self):
        topology = self.scenario.topology(hosts=self.HOSTS)
        self.fleet = topology.fleet
        if len(self.fleet) != self.HOSTS:
            raise AssertionError(f"zoned-estate built {len(self.fleet)} "
                                 f"hosts, want {self.HOSTS}")
        self.baseline = {host.name: host_state(host)
                         for host in self.fleet.hosts()}
        self.service = self.fleet.arm_soc(
            shards=SOC_SHARDS, placement=topology.shard_hints(SOC_SHARDS))
        self.watch = RepairWatch(self.fleet.hosts())

    def discard(self):
        """Tear down a set-up that will not be measured."""
        with self.watchdog.limit(DRAIN_TIMEOUT_S, "drift-storm stop"):
            self.service.stop()

    def run(self):
        scenario = self.scenario
        hosts = self.fleet.hosts()
        drain = self.service.drain
        self.drifts = Counter()
        self.wave_rates = []
        for wave, order in enumerate(self.orders):
            slot = wave + self.offset
            started = perf_counter()
            for host_index in order:
                host = hosts[host_index]
                self.watch.expect(host.name,
                                  expected_repair(scenario, host, slot,
                                                  host_index),
                                  perf_counter())
                scenario.apply_drift(host, slot, host_index)
            with self.watchdog.limit(DRAIN_TIMEOUT_S,
                                     f"drift-storm drain, wave {wave}"):
                drain()
            self.wave_rates.append(len(order)
                                   / (perf_counter() - started))
            for host_index in order:
                self.drifts[hosts[host_index].name] += 1

    def finish(self):
        extras = soc_extras(self.service)
        with self.watchdog.limit(DRAIN_TIMEOUT_S, "drift-storm stop"):
            self.service.stop()
        self.watch.cancel()
        return {
            "attempted": self.HOSTS * self.WAVES,
            "failed": 0,
            "rates": self.wave_rates,
            "latencies_ms": [s * 1e3 for s in self.watch.latencies],
            "details": {},
            "extras": extras,
        }

    def check(self):
        problems = []
        drifts = sum(self.drifts.values())
        if self.watch.open_count() or len(self.watch.latencies) != drifts:
            problems.append(f"{len(self.watch.latencies)} repairs seen "
                            f"for {drifts} drifts")
        problems += check_repairs("soc", self.fleet, self.baseline,
                                  self.service.incidents_by_host(),
                                  self.drifts)
        return problems
