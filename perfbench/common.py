"""Shared helpers: checkout paths, the hang watchdog, statistics, the stamp.

Nothing here imports the program under test, so ``run.py`` can fail
cleanly (non-zero exit, no result line) in a directory that holds the
benchmark but not the program.
"""

import faulthandler
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for cache directories; removed by the epoch that made it.
WORK_DIR = BENCH_DIR / "_work"

#: A percentile is reported only where at least this many samples lie
#: beyond it, so p99 needs 1,000 samples.
TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """A workload could not run to its end (not a correctness failure)."""


def load_benchmark() -> dict:
    """BENCHMARK.json at the checkout root: workloads, metrics, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}; run "
                         f"the benchmark from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- the hang watchdog --------------------------------------------------------

class Watchdog:
    """Turns a hang in any wait on the program into a failed run.

    ``with watchdog.limit(30, "drain after wave 3"):`` arms a deadline;
    a daemon thread checks it every 50 ms.  On expiry it prints what
    was being waited for plus every thread's stack to stderr and ends
    the process with exit code 3 — the SOC's own ``drain()`` has no
    timeout, so a lost event would otherwise stall the run forever.
    Arming costs two attribute writes, cheap enough for hot loops.
    """

    EXIT_CODE = 3

    def __init__(self):
        self._deadline = None
        self._what = ""
        self._thread = threading.Thread(target=self._watch,
                                        name="perfbench-watchdog",
                                        daemon=True)
        self._thread.start()

    @contextmanager
    def limit(self, seconds: float, what: str):
        previous = (self._deadline, self._what)
        self._what = what
        self._deadline = time.monotonic() + seconds
        try:
            yield
        finally:
            self._deadline, self._what = previous

    def _watch(self) -> None:
        while True:
            time.sleep(0.05)
            deadline = self._deadline
            if deadline is not None and time.monotonic() > deadline:
                sys.stderr.write(f"perfbench: timed out waiting for "
                                 f"{self._what}; thread stacks follow\n")
                faulthandler.dump_traceback(file=sys.stderr,
                                            all_threads=True)
                sys.stderr.flush()
                os._exit(self.EXIT_CODE)


# -- statistics ---------------------------------------------------------------

def percentile(samples, q: float):
    """Nearest-rank percentile *q* (0-100) of *samples*."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_supported(count: int, q: float) -> bool:
    """True when *count* samples leave TAIL_SAMPLES beyond percentile q."""
    return count * (100.0 - q) / 100.0 >= TAIL_SAMPLES


def spread(values) -> float:
    """Distance between the first and third quartiles over the median
    (``statistics.quantiles(values, n=4)``, the exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


# -- the stamp ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit():
    """The checkout's git commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """blake2b over every program source file: identifies the code
    measured where no git metadata exists (exported checkouts)."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def calibrate(seconds: float = 0.3) -> float:
    """Substrate emit-only events/s with nothing subscribed.

    A machine-speed figure measured through the program's own event
    log, so figures from two machines compare as ratios to it.  It is
    reported, never gated.
    """
    from repro.environment.events import EventLog

    best = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        log = EventLog()
        emit = log.emit
        started = time.perf_counter()
        for _ in range(5000):
            emit("app.heartbeat")
        best = max(best, 5000 / (time.perf_counter() - started))
    return best


def stamp() -> dict:
    return {
        "cpu_model": cpu_model(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "calibration_emit_events_per_s": round(calibrate(), 1),
    }
