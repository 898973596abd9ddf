"""In-memory span tracer wrapped around the package's layer boundaries.

The tracer replaces public functions of each rbsvie module, from the
benchmark's side, with wrappers that record one span per call: a name,
the enclosing span, start and end.  Spans stay in compact arrays until
the run ends.  A layer's self time is its spans' durations minus the part
covered by their child spans, so nested layers are not counted twice.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute[, class]): the public calls into each layer
# that the benchmark's commands reach.  Instance maps are wrapped at class
# level so every driver, terminal, obstacle and dynamics call is a span.
LAYER_CALLS = (
    ("cli", "rbsvie.cli", "main"),
    ("grid.build_lattice", "rbsvie.grid", "build_lattice"),
    ("instances.driver", "rbsvie.instances", "__call__", "DriverSpec"),
    ("instances.terminal", "rbsvie.instances", "__call__", "TerminalSpec"),
    ("instances.obstacle", "rbsvie.instances", "__call__", "ObstacleSpec"),
    ("instances.dynamics", "rbsvie.instances", "__call__", "DynamicsSpec"),
    ("snell.solve_slice", "rbsvie.snell", "solve_slice"),
    ("volterra.solve", "rbsvie.volterra", "solve"),
    ("stopping.extract_frontier", "rbsvie.stopping", "extract_frontier"),
    ("stopping.frontier_rows", "rbsvie.stopping", "frontier_rows"),
    ("stopping.evaluate_J", "rbsvie.stopping", "evaluate_J"),
    ("stopping.inconsistency_report", "rbsvie.stopping", "inconsistency_report"),
    ("stopping.premature_increment_mass", "rbsvie.stopping", "premature_increment_mass"),
    ("mc.simulate", "rbsvie.mc", "simulate"),
    ("mc.design", "rbsvie.mc", "design", "RegressionBasis"),
    ("mc.solve_mc", "rbsvie.mc", "solve_mc"),
)

CALLBACKS = ("instances.driver", "instances.terminal", "instances.obstacle",
             "instances.dynamics")

# modules whose namespaces may hold a from-import of a wrapped function
_NAMESPACES = ("rbsvie.cli", "rbsvie.grid", "rbsvie.instances", "rbsvie.snell",
               "rbsvie.volterra", "rbsvie.stopping", "rbsvie.mc",
               "rbsvie.compare", "rbsvie.oracle")


# work counts read off a wrapped call's result: span name -> (counter, reader)
COUNTERS = {
    "instances.driver": ("instances.driver_evals", lambda r: int(np.size(r))),
    "volterra.solve": ("volterra.iterations", lambda r: int(r.iterations)),
    "mc.solve_mc": ("mc.iterations", lambda r: int(r.iterations)),
}


class Tracer:
    """Records spans of the wrapped layer calls while installed.

    ``calls`` is a subset of LAYER_CALLS; a coarse tracer that leaves the
    per-node instance maps unwrapped costs almost nothing.
    """

    def __init__(self, calls=LAYER_CALLS):
        self._calls = []
        for entry in calls:
            name, modname, attr = entry[:3]
            owner = importlib.import_module(modname)
            if len(entry) == 4:
                owner = getattr(owner, entry[3])
            self._calls.append((name, owner, attr, getattr(owner, attr)))
        self.names = [c[0] for c in self._calls]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._patched = []

    def _wrap(self, sid, name, fn):
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counts = self.counts
        clock = time.perf_counter
        counter, read = COUNTERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + read(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        namespaces = [importlib.import_module(m) for m in _NAMESPACES]
        for sid, (name, owner, attr, fn) in enumerate(self._calls):
            wrapped = self._wrap(sid, name, fn)
            targets = [(owner, attr)]
            if not isinstance(owner, type):
                targets += [(mod, key) for mod in namespaces if mod is not owner
                            for key, val in vars(mod).items() if val is fn]
            for obj, key in targets:
                setattr(obj, key, wrapped)
                self._patched.append((obj, key, fn))

    def uninstall(self):
        for obj, key, fn in reversed(self._patched):
            setattr(obj, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def mark(self) -> int:
        """Index of the next span, for summarising a range of spans."""
        return len(self.start)

    def summary(self, first: int = 0) -> dict:
        """Per-name self time and span count over the spans from index first on."""
        sid = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        par = np.frombuffer(self.parent, dtype=np.int32)[first:]
        dur = (np.frombuffer(self.end, dtype=np.float64)[first:]
               - np.frombuffer(self.start, dtype=np.float64)[first:])
        has_parent = par >= first
        child = np.bincount(par[has_parent] - first, weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        self_by = np.bincount(sid, weights=self_time, minlength=n)
        calls_by = np.bincount(sid, minlength=n)
        return {name: {"self_s": float(self_by[k]), "calls": int(calls_by[k])}
                for k, name in enumerate(self.names)}

    def save(self, path):
        """Write every recorded span as columns of an .npz file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
