"""Span recorder for the traced run.

The recorder wraps the public functions each dmdp module calls into,
from outside: it replaces module attributes and puts the originals back
when the traced pass ends, and it never edits the package's source.

Calls that have wrapped callees become spans (op id, span id, parent,
name, start, end).  Calls with no wrapped callees that run thousands of
times per op -- heap operations, `support_of`, `evaluate_policy`,
`goal_set`, steps of `enumerate_policies` -- are folded into one
(op, parent, name, count, total) record per parent span.  Without that,
one drain of the ROADMAP 4x2x4 query alone would store about two million
spans.  Self time is a span's duration minus the time its child spans and
folded calls cover, so the self times of all layers add up to the time of
the root `cli.main` spans.

Costs with no public-function boundary are not measured separately and
land in the self time of the enclosing layer; UNMEASURED lists them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

UNMEASURED = {
    "gds.self_s": "record scan, prune test, child construction and policy "
                  "encoding inside gds_search",
    "storage.parse_s": "file read, json.loads and array construction inside load",
    "cli.self_s": "argument parsing, report assembly and stdout writes inside cli.main",
    "bellman.policy_iteration_s": "evaluate_policy and greedy_policy inside policy_iteration",
    "composition.goal_set_s": "propagate and support_of inside goal_set",
    "storage.save_s": "dumps_instance and the file write inside save",
    "storage.digest_s": "dumps_instance and sha256 inside digest",
}

# Span name -> the layer metric its self time is reported under.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "storage.load": "storage.parse_s",
    "core.validate": "core.validate_s",
    "storage.digest": "storage.digest_s",
    "storage.dumps_json": "storage.dumps_json_s",
    "storage.generate": "storage.generate_s",
    "storage.save": "storage.save_s",
    "bellman.optimal_values": "bellman.optimal_values_s",
    "bellman.policy_iteration": "bellman.policy_iteration_s",
    "gds.search": "gds.self_s",
    "gds.heap": "gds.heap_s",
    "composition.support_of": "composition.support_of_s",
    "bellman.evaluate_policy": "bellman.evaluate_policy_s",
    "composition.goal_set": "composition.goal_set_s",
    "oracle.brute": "oracle.brute_s",
    "oracle.enumerate_policies": "oracle.brute_s",
}


class _HeapShim:
    """Stands in for the `heapq` module inside dmdp.gds."""

    def __init__(self, recorder, heapq):
        self._rec = recorder
        self._heapq = heapq

    def heappush(self, heap, item):
        rec = self._rec
        t0 = time.perf_counter_ns()
        self._heapq.heappush(heap, item)
        rec.fold("gds.heap", time.perf_counter_ns() - t0)
        rec.count["gds.nodes_pushed"] += 1
        if len(heap) > rec.peak_heap:
            rec.peak_heap = len(heap)

    def heappop(self, heap):
        rec = self._rec
        t0 = time.perf_counter_ns()
        item = self._heapq.heappop(heap)
        rec.fold("gds.heap", time.perf_counter_ns() - t0)
        rec.count["gds.nodes_popped"] += 1
        rec.op_pops[rec.op] += 1
        return item


class Recorder:
    """Spans, folded leaf calls and counters of one traced run; `op` is
    the index of the op being traced."""

    def __init__(self):
        self.spans: list = []  # (op, span, parent, name, start_ns, end_ns)
        self.folded: dict = defaultdict(lambda: [0, 0])  # (op, parent, name) -> [count, ns]
        self.count: dict = defaultdict(int)
        self.peak_heap = 0
        self.op = -1
        self.op_pops: dict = defaultdict(int)
        self._stack: list[int] = [-1]
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def fold(self, name: str, ns: int) -> None:
        agg = self.folded[(self.op, self._stack[-1], name)]
        agg[0] += 1
        agg[1] += ns

    def _span(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (self.op, sid, parent, name, t0, t1)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _leaf(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            self.fold(name, time.perf_counter_ns() - t0)
            self.count[counter] += 1
            if name == "bellman.evaluate_policy":
                self.count["bellman.eval_epochs"] += len(args[1])
            return result

        return traced

    def _enumerate(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter_ns()
                try:
                    item = next(steps)
                except StopIteration:
                    self.fold("oracle.enumerate_policies", time.perf_counter_ns() - t0)
                    return
                self.fold("oracle.enumerate_policies", time.perf_counter_ns() - t0)
                self.count["oracle.policies_enumerated"] += 1
                yield item

        return traced

    # -- notes on span results -------------------------------------------

    def _note_load(self, args, kwargs, result):
        self.count["storage.bytes_read"] += os.path.getsize(args[0])

    def _note_validate(self, args, kwargs, result):
        inst = args[0]
        S, A, T = inst.num_states, inst.num_actions, inst.horizon
        self.count["core.validate_calls"] += 1
        self.count["core.cells"] += S * A * S + T * S * A

    def _note_dumps(self, args, kwargs, result):
        self.count["storage.bytes_emitted"] += len(result.encode("utf-8"))

    def _note_save(self, args, kwargs, result):
        self.count["storage.bytes_written"] += os.path.getsize(args[1])

    def _note_pi(self, args, kwargs, result):
        self.count["bellman.pi_iterations"] += result.iterations

    def _note_search(self, args, kwargs, result):
        self.count["gds.nodes_pruned"] += result.nodes_pruned

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        import heapq

        from dmdp import cli, gds, oracle, storage

        span, leaf = self._span, self._leaf
        plan = [
            (cli, "main", lambda f: span("cli.main", f)),
            (cli, "load", lambda f: span("storage.load", f, self._note_load)),
            (cli, "validate", lambda f: span("core.validate", f, self._note_validate)),
            (cli, "digest", lambda f: span("storage.digest", f)),
            (cli, "dumps_json", lambda f: span("storage.dumps_json", f, self._note_dumps)),
            (cli, "optimal_values", lambda f: span("bellman.optimal_values", f)),
            (cli, "policy_iteration", lambda f: span("bellman.policy_iteration", f, self._note_pi)),
            (cli, "gds_search", lambda f: span("gds.search", f, self._note_search)),
            (cli, "brute_force_reach", lambda f: span("oracle.brute", f)),
            (cli, "brute_force_cover", lambda f: span("oracle.brute", f)),
            (cli, "generate", lambda f: span("storage.generate", f)),
            (cli, "save", lambda f: span("storage.save", f, self._note_save)),
            (storage, "validate", lambda f: span("core.validate", f, self._note_validate)),
            (gds, "validate", lambda f: span("core.validate", f, self._note_validate)),
            (gds, "support_of",
             lambda f: leaf("composition.support_of", f, "composition.support_of_calls")),
            (gds, "evaluate_policy",
             lambda f: leaf("bellman.evaluate_policy", f, "bellman.evaluate_policy_calls")),
            (gds, "heapq", lambda f: _HeapShim(self, heapq)),
            (oracle, "goal_set",
             lambda f: leaf("composition.goal_set", f, "composition.goal_set_calls")),
            (oracle, "evaluate_policy",
             lambda f: leaf("bellman.evaluate_policy", f, "bellman.evaluate_policy_calls")),
            (oracle, "enumerate_policies", self._enumerate),
        ]
        for module, attr, wrap in plan:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- report ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer metric, summed over all ops."""
        covered = defaultdict(int)
        for op, sid, parent, name, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = defaultdict(float)
        for (op, parent, name), (n, ns) in self.folded.items():
            covered[parent] += ns
            out[SELF_METRIC[name]] += ns / 1e9
        for op, sid, parent, name, t0, t1 in self.spans:
            out[SELF_METRIC[name]] += (t1 - t0 - covered[sid]) / 1e9
        return out

    def total(self, name: str) -> float:
        return sum(t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == name) / 1e9

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"op": op, "span": sid, "parent": parent, "name": name,
                                    "start_ns": t0, "end_ns": t1}) + "\n")
            for (op, parent, name), (n, ns) in self.folded.items():
                f.write(json.dumps({"op": op, "parent": parent, "name": name,
                                    "folded_calls": n, "total_ns": ns}) + "\n")
