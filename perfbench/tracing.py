"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions of each layer and records, per
wrapped name: calls, busy time (wall time inside the call) and self
time (busy time minus the wrapped calls nested inside it on the same
thread), plus an optional per-call count (states explored, batch
size, ...).  Time spent in one wrapped call nested under another is
also kept per (parent, child) pair, which is how ``soc.rearm.drain_ms``
(the drain inside a re-arm) is told apart from drains elsewhere.

Each thread accumulates into its own cell, so SOC worker threads never
contend on the tracer; :meth:`Tracer.snapshot` folds the cells.  A
call of a name already open on the same thread (a ``super()`` chain of
``check`` methods) is folded into the outer call rather than counted
twice.  Wrapping lasts for the life of the process, which for the
benchmark is one epoch.
"""

import functools
import inspect
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._cells = []
        self._cells_lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def _state(self):
        local = self._local
        cell = getattr(local, "cell", None)
        if cell is None:
            cell = local.cell = {"stats": {}, "nested": {}}
            local.stack = []
            local.open = set()
            with self._cells_lock:
                self._cells.append(cell)
        return cell, local.stack, local.open

    def wrap(self, name, fn, count=None):
        """*fn* wrapped to record under *name*; ``count(args, kwargs,
        result)`` adds a per-call quantity."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell, stack, open_names = tracer._state()
            if name in open_names:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            open_names.add(name)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                open_names.discard(name)
                stat = cell["stats"].get(name)
                if stat is None:
                    stat = cell["stats"][name] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (parent[0], name)
                    cell["nested"][key] = \
                        cell["nested"].get(key, 0.0) + elapsed
            if count is not None:
                stat[3] += count(args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def patch_method(self, cls, attr, name, count=None):
        """Wrap the plain method ``cls.attr``."""
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def patch_function(self, module, attr, name, count=None):
        """Wrap a module-level function everywhere it was imported.

        ``from x import f`` copies the reference into the importing
        module, so every loaded ``repro`` module holding the same
        object is repointed at the wrapper.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)

    def patch_result(self, cls, attr, name, count=None):
        """``cls.attr`` returns a callable; wrap that callable instead
        (closures built once per host, e.g. SOC ingress)."""
        raw = cls.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def factory(*args, **kwargs):
            return tracer.wrap(name, raw(*args, **kwargs), count)

        setattr(cls, attr, factory)

    def patch_subclasses(self, base, attr, name):
        """Wrap *attr* on *base* and every subclass defining its own."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = cls.__dict__.get(attr)
            if raw is not None and inspect.isfunction(raw) \
                    and not getattr(raw, "__isabstractmethod__", False):
                self.patch_method(cls, attr, name)

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        with self._cells_lock:
            for cell in self._cells:
                cell["stats"].clear()
                cell["nested"].clear()

    def snapshot(self):
        """``({name: (calls, busy_s, self_s, count)}, {(parent, child):
        seconds})`` folded over every thread."""
        stats = {}
        nested = {}
        with self._cells_lock:
            cells = list(self._cells)
        for cell in cells:
            for name, (calls, busy, self_time, extra) in \
                    list(cell["stats"].items()):
                total = stats.setdefault(name, [0, 0.0, 0.0, 0])
                total[0] += calls
                total[1] += busy
                total[2] += self_time
                total[3] += extra
            for key, seconds in list(cell["nested"].items()):
                nested[key] = nested.get(key, 0.0) + seconds
        return ({name: tuple(values) for name, values in stats.items()},
                nested)
