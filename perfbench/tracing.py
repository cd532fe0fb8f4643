"""Spans around linerate's public entry points, recorded from outside the package.

Every call site inside linerate resolves these entry points through a module
or class attribute (``flowmodel.simulate_transfer``, ``self.probe_latency``,
``protocol.send_frame``), so replacing the attribute reaches them without
touching the package.  Spans stay in memory until the benchmark ends.
"""

import itertools
import json
import threading
import time

from linerate import cli, coordinator, engine, flowmodel, metrics, protocol, records

# (owner, attribute, span name): the layer boundaries the traced run measures.
ENTRY_POINTS = (
    (flowmodel, "simulate_transfer", "flowmodel.simulate_transfer"),
    (coordinator, "simulate_destination_transfers", "coordinator.simulate_destination_transfers"),
    (cli, "simulated_raw", "cli.simulated_raw"),
    (metrics, "all_estimates", "metrics.all_estimates"),
    (metrics, "build_report", "metrics.build_report"),
    (records, "make_result", "records.make_result"),
    (records, "report_blocks", "records.report_blocks"),
    (records.MeasurementResult, "to_json", "records.to_json"),
    (records.ResultStore, "append", "records.append"),
    (records.ResultStore, "load", "records.load"),
    (engine.Engine, "run_test", "engine.run_test"),
    (engine.Engine, "probe_latency", "engine.probe_latency"),
    (engine.Engine, "measure_cross_traffic", "engine.measure_cross_traffic"),
    (protocol, "send_frame", "protocol.send_frame"),
    (protocol, "recv_frame", "protocol.recv_frame"),
)


class Tracer:
    """Records (id, name, start, end, parent id, operation id) per wrapped call."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def set_operation(self, op_id):
        """Tag the spans this thread records from now on with ``op_id``."""
        self._local.op = op_id

    def install(self):
        for owner, attr, name in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, original, name):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              getattr(local, "op", None)))

        traced.__wrapped__ = original
        return traced

    def summary(self) -> dict:
        """Per span name: call count, total seconds, self seconds.

        Self time is the span's duration minus its children's; children run
        on the caller's thread, nested inside the parent, so they never overlap.
        """
        child_time = {}
        for _id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, name, start, end, _parent, _op in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op},
                                    separators=(",", ":")) + "\n")
