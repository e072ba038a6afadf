"""In-memory spans around calls into dcsim's layers, recorded from outside dcsim.

Each traced function is replaced, for the length of the traced pass, by a
wrapper bound under the name its caller looks it up by: ``mbfd`` is
imported by name into both ``dcsim.engine`` and ``dcsim.policies``, so
both bindings are wrapped under the one span name ``placement.mbfd``.

Self time is a span's duration minus the time its child spans cover.
Spans of the frame-level functions are kept with name, start, end and
parent; the per-VM and per-host functions called hundreds of thousands of
times per run (the ``leaf`` entries, which call no traced function) are
only counted and timed, so a traced run keeps its memory small.
"""

import importlib
import json
import time

_now = time.perf_counter_ns

# (span name, module, attribute path in that module, leaf)
TRACED = (
    ("engine.simulate", "dcsim.engine", "simulate", False),
    ("engine.initial_placement", "dcsim.engine", "initial_placement", False),
    ("engine.step", "dcsim.engine", "step", False),
    ("engine.share_mips", "dcsim.engine", "share_mips", True),
    ("placement.mbfd", "dcsim.engine", "mbfd", False),
    ("placement.mbfd", "dcsim.policies", "mbfd", False),
    ("placement.power_increase", "dcsim.placement", "power_increase", True),
    ("policies.reallocate", "dcsim.policies", "reallocate", False),
    ("policies.select", "dcsim.policies", "select_vms_mm", True),
    ("policies.select", "dcsim.policies", "select_vms_hpg", True),
    ("policies.select", "dcsim.policies", "select_vms_rc", True),
    ("policies.underloaded_hosts", "dcsim.policies", "underloaded_hosts", True),
    ("power.host_power", "dcsim.engine", "host_power", True),
    ("power.accumulate", "dcsim.engine", "accumulate", True),
    ("workload.keyed_u01", "dcsim.workload", "SeededRng.keyed_u01", True),
    ("workload.walk_utilization", "dcsim.engine", "walk_utilization", True),
)


class Tracer:
    """Spans and per-name totals (calls, total ns, self ns) of wrapped calls."""

    def __init__(self):
        self.totals = {}
        # (name, start ns, end ns, parent span index or -1) of non-leaf spans
        self.spans = []
        # open non-leaf spans: [span index, child ns]
        self._open = []

    def wrap(self, name, fn, leaf, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(args, result)`` runs after it."""
        totals = self.totals.setdefault(name, [0, 0, 0])
        open_spans, spans = self._open, self.spans
        if leaf:
            def traced(*args, **kwargs):
                t0 = _now()
                result = fn(*args, **kwargs)
                d = _now() - t0
                totals[0] += 1
                totals[1] += d
                totals[2] += d
                if open_spans:
                    open_spans[-1][1] += d
                if observe is not None:
                    observe(args, result)
                return result
        else:
            def traced(*args, **kwargs):
                parent = open_spans[-1][0] if open_spans else -1
                frame = [len(spans), 0]
                spans.append(None)
                open_spans.append(frame)
                t0 = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = _now()
                    open_spans.pop()
                    spans[frame[0]] = (name, t0, t1, parent)
                    d = t1 - t0
                    totals[0] += 1
                    totals[1] += d
                    totals[2] += d - frame[1]
                    if open_spans:
                        open_spans[-1][1] += d
                if observe is not None:
                    observe(args, result)
                return result
        return traced

    def write_spans(self, path):
        """Write the kept spans as JSON lines, times in ns from the first span."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": t0 - base,
                                     "end_ns": t1 - base, "parent": parent}) + "\n")


def instrument(tracer, observers=None):
    """Wrap every function in TRACED that exists; return (undo, missing paths).

    A function that a later version of dcsim no longer has is named in the
    missing list and left out instead of failing the traced run.
    """
    observers = observers or {}
    undo, missing = [], []
    for name, module_name, path, leaf in TRACED:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append("%s.%s" % (module_name, path))
            continue
        observe = observers.get("%s.%s" % (module_name, path))
        setattr(owner, attr, tracer.wrap(name, original, leaf, observe))
        undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore, missing
