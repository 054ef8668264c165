"""Spans around photondemux's public functions, installed from outside the package.

``Tracer.installed()`` replaces each function in ``TARGETS`` at the name
its caller binds (``photondemux.pipeline.generate_herald_stream`` is the
name ``execute_scenario`` calls, ``photondemux.converter.route_*_batch``
the names ``monte_carlo_efficiency`` calls) with a wrapper that records
a span, and puts the originals back on exit.  The package itself is not
modified.

A span is (id, parent, op, layer, name, start, end, counts).  Counts
come from probes that inspect a call's arguments and result after its
span has closed; each probe runs in its own span of layer ``trace``, so
its cost is tracing overhead and never inflates the layer it measures.
Probes also check two invariants: per-detector herald gaps exceed the
deadtime, and a controller never claims more than heralds // n runs.

Spans stay in memory until ``write_jsonl``.  The tracer assumes one
thread: the benchmark never traces a run with ``workers > 1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from photondemux import converter, pipeline

LAYERS = ("source", "controller", "converter", "measurement", "config", "pipeline", "trace")


def _probe_source(tracer: "Tracer", args: dict, stream) -> dict:
    deadtime = args["params"].herald_deadtime_slots
    close_gaps = 0
    for on_detector in (stream.to_detector_a, ~stream.to_detector_a):
        close_gaps += int(np.count_nonzero(np.diff(stream.pair_slots[on_detector]) <= deadtime))
        heralds = stream.pair_slots[stream.fired & on_detector]
        if heralds.size > 1 and int(np.diff(heralds).min()) <= deadtime:
            tracer.failures.append(f"a detector heralded twice within its {deadtime}-slot deadtime")
    return {
        "slots": int(args["n_slots"]),
        "pairs": int(stream.pair_slots.size),
        "heralds": int(np.count_nonzero(stream.fired)),
        "close_gaps": close_gaps,
    }


def _probe_controller(tracer: "Tracer", args: dict, starts) -> dict:
    heralds = int(np.asarray(args["herald_slots"]).size)
    n = int(args["n"])
    if starts.size > heralds // n:
        tracer.failures.append(f"{starts.size} runs of {n} claimed from {heralds} heralds")
    return {"heralds_in": heralds, "triggers": int(starts.size), "heralds_claimed": n * int(starts.size)}


def _probe_converter(tracer: "Tracer", args: dict, batch) -> dict:
    runs = int(args["runs"])
    return {"runs": runs, "photon_slots": runs * batch.n_modes, "successes": batch.success_count}


def _probe_estimate(tracer: "Tracer", args: dict, estimate) -> dict:
    return {"zero_se": int(estimate.std_error == 0.0)}


def _probe_scenario(tracer: "Tracer", args: dict, result) -> dict:
    return {"ops": 1}


# (module, name the caller binds, layer, probe); the last four are the
# entry points the workloads call, whose spans are the roots of each op
TARGETS = (
    (pipeline, "generate_herald_stream", "source", _probe_source),
    (pipeline, "run_starts_from_heralds", "controller", _probe_controller),
    (pipeline, "route_heralded_batch", "converter", _probe_converter),
    (pipeline, "route_clocked_batch", "converter", _probe_converter),
    (pipeline, "route_passive_batch", "converter", _probe_converter),
    (pipeline, "count_rates", "measurement", None),
    (pipeline, "estimate_s", "measurement", _probe_estimate),
    (pipeline, "apply_grid_point", "config", None),
    (pipeline, "config_digest", "config", None),
    (pipeline, "scenario_to_mapping", "config", None),
    (pipeline, "execute_scenario", "pipeline", _probe_scenario),
    (converter, "route_heralded_batch", "converter", _probe_converter),
    (converter, "route_clocked_batch", "converter", _probe_converter),
    (converter, "route_passive_batch", "converter", _probe_converter),
    (pipeline, "run_calibrate", "pipeline", None),
    (pipeline, "run_simulation", "pipeline", None),
    (pipeline, "run_sweep", "pipeline", None),
    (converter, "monte_carlo_efficiency", "converter", None),
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.failures: list[str] = []
        self.rep = 0
        self._ops = 0
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self.spans[self._stack[-1]] if self._stack else None
        if parent is None:  # a root span starts a new op
            self._ops += 1
        rec = {"id": len(self.spans), "parent": parent["id"] if parent else None,
               "rep": self.rep, "op": parent["op"] if parent else f"r{self.rep}.o{self._ops}",
               "layer": layer, "name": name,
               "start": time.perf_counter() - self._epoch, "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._epoch

    def _wrap(self, fn, layer: str, probe):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__) as rec:
                result = fn(*args, **kwargs)
            if probe is not None:
                with self.span("trace", "probe." + fn.__name__):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec["counts"] = probe(self, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = [(module, name, getattr(module, name)) for module, name, _, _ in TARGETS]
        try:
            for (module, name, layer, probe), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, name, self._wrap(fn, layer, probe))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def rep_summary(self, rep: int) -> dict:
        """Per-layer calls, self time and summed counts of one repetition.

        A span's self time is its duration minus that of its direct
        children; spans nest, so self times add up to the root spans.
        """
        spans = [s for s in self.spans if s["rep"] == rep]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {layer: {"calls": 0, "self_s": 0.0, "counts": defaultdict(int)} for layer in LAYERS}
        for s in spans:
            layer = out[s["layer"]]
            layer["calls"] += 1
            layer["self_s"] += (s["end"] - s["start"]) - child_time[s["id"]]
            for key, value in s["counts"].items():
                layer["counts"][key] += value
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
