"""In-memory span tracer that wraps replicasim's public functions from outside.

Every timed function is replaced, in every ``replicasim`` module that binds it,
by a wrapper that records a span ``(name, start, end, parent, op_id)``. Spans
stay in memory and are written out when the run ends. A span's self time is its
duration minus the part of it that its child spans cover, so a layer's self
time excludes the layers it calls. Derived counters (accept ratio, wire bytes,
events, exact Mann-Whitney calls, ...) are taken at the same boundaries from
the arguments and results the wrappers see.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions timed per module; "Class.method" names patch the class.
TIMED = {
    "scene": ("apply_edit",),
    "replica": ("create_replica", "edit_replica", "make_sync_request", "synchronize",
                "apply_commit", "acknowledge_commit"),
    "protocol": ("submit_sync", "update_avatar", "encode_envelope", "decode_envelope"),
    "netsim": ("World.send", "World.run_until_quiescent"),
    "scenario": ("run_session", "session_log_to_jsonl"),
    "plant": ("outlet_temperature", "PlantState.set_valve"),
    "metrics": ("session_row",),
    "stats": ("shapiro_wilk", "mann_whitney", "anova_oneway_raw", "compare_groups", "mean_sd"),
    "report": ("analyze_rows", "render_markdown", "render_results_csv", "read_metrics_csv",
               "write_metrics_csv"),
    "cli": ("main",),
}
# Endpoint handlers registered through World.add_endpoint get one span name per
# defining module; handlers defined outside replicasim (the benchmark's own
# endpoints) are traced as "bench.endpoint" so that netsim's self time
# excludes them too, but they are not reported as a layer.
HANDLER_SPAN = "scenario.handle"
OTHER_HANDLER_SPAN = "bench.endpoint"

# Functions whose span starts a finer operation id (session, analysis, sync).
OP_SCOPES = {"scenario.run_session": "session", "report.analyze_rows": "analysis",
             "protocol.submit_sync": "sync"}

# Counters that hold a peak rather than a sum.
PEAK_COUNTERS = ("scene.model_nodes", "replica.pending_peak")

REJECT_REASONS = ("expert-precedence", "annotation-retention", "duplicate-annotation", "unknown-target")


def timed_span_names() -> list[str]:
    names = [f"{module}.{name}" for module, names in TIMED.items() for name in names]
    names.insert(names.index("scenario.session_log_to_jsonl"), HANDLER_SPAN)
    return names


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time in seconds of each span index: duration minus covered child time.

    ``spans`` holds ``(name, start, end, parent_index, op_id)`` tuples; children
    are clipped to their parent's interval and overlapping children count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[i] = (end - start) - covered
    return result


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), None, parent, self.op_id))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op_id)

    def wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        scope = OP_SCOPES.get(name)

        def traced(*args, **kwargs):
            ctx = hook.before(tracer, args) if hook else None
            outer_op = tracer.op_id
            if scope:
                tracer.op_id = f"{outer_op}/{scope}-{tracer.counters['scope.' + scope]}"
                tracer.counters["scope." + scope] += 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(index)
                tracer.op_id = outer_op
                if hook:
                    hook.after(tracer, ctx, args, None, exc)
                raise
            tracer._close(index)
            tracer.op_id = outer_op
            if hook:
                hook.after(tracer, ctx, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every timed function under every name a replicasim module binds it to."""
        modules = {m: importlib.import_module(f"replicasim.{m}") for m in TIMED}
        loaded = [mod for name, mod in list(sys.modules.items())
                  if mod is not None and (name == "replicasim" or name.startswith("replicasim."))]
        for module_name, names in TIMED.items():
            module = modules[module_name]
            for qualname in names:
                span = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, meth, self.wrap(span, cls.__dict__[meth]))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(span, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        world = modules["netsim"].World
        add_endpoint = world.__dict__["add_endpoint"]
        tracer = self

        def traced_add_endpoint(net, endpoint_id, handler):
            add_endpoint(net, endpoint_id, _TracedEndpoint(tracer, handler))

        self._set(world, "add_endpoint", traced_add_endpoint)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- merging and summary -------------------------------------------------

    def merge(self, doc: dict) -> None:
        """Append spans and counters dumped by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, op_id in doc["spans"]:
            self.spans.append((name, start, end, None if parent is None else parent + offset, op_id))
        for key, value in doc["counters"].items():
            if key in PEAK_COUNTERS:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def calls_and_self_s(self) -> dict[str, tuple[Counter, dict]]:
        """Per workload (the first part of the op id): calls and self seconds by span name."""
        by_workload: dict = defaultdict(lambda: (Counter(), defaultdict(float)))
        for i, own in self_times(self.spans).items():
            name, _, _, _, op_id = self.spans[i]
            calls, self_s = by_workload[op_id.split("/")[0]]
            calls[name] += 1
            self_s[name] += own
        return dict(by_workload)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time plus the derived per-layer counters."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for workload_calls, workload_self_s in self.calls_and_self_s().values():
            calls.update(workload_calls)
            for name, seconds in workload_self_s.items():
                self_s[name] += seconds
        out: dict[str, tuple[float, str]] = {}
        for name in timed_span_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
        c = self.counters
        out["scene.model_nodes"] = (c["scene.model_nodes"], "count")
        out["replica.edits_per_sync"] = (_ratio(c["replica.edits"], c["replica.syncs"]), "count")
        out["replica.accept_ratio"] = (_ratio(c["replica.accepted"], c["replica.edits"]), "ratio")
        for reason in REJECT_REASONS:
            out[f"replica.rejected.{reason}"] = (c[f"replica.rejected.{reason}"], "count")
        out["replica.pending_peak"] = (c["replica.pending_peak"], "count")
        out["protocol.wire_bytes"] = (c["protocol.wire_bytes"], "B")
        out["protocol.bytes_per_envelope"] = (_ratio(c["protocol.wire_bytes"], c["protocol.envelopes"]), "B")
        netsim_s = self_s["netsim.World.send"] + self_s["netsim.World.run_until_quiescent"]
        out["netsim.events"] = (c["netsim.events"], "count")
        out["netsim.events_per_s"] = (_ratio(c["netsim.events"], netsim_s), "1/s")
        out["stats.mann_whitney.exact_calls"] = (c["stats.mann_whitney.exact_calls"], "count")
        out["stats.mann_whitney.labelings"] = (c["stats.mann_whitney.labelings"], "count")
        out["stats.shapiro_wilk.refused"] = (c["stats.shapiro_wilk.refused"], "count")
        out["stats.compare_groups.anova_share"] = (
            _ratio(c["stats.compare_groups.anova"], c["stats.compare_groups.calls"]), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _TracedEndpoint:
    def __init__(self, tracer: Tracer, handler) -> None:
        self._handle = getattr(handler, "handle", handler)
        module = type(handler).__module__ if hasattr(handler, "handle") else getattr(handler, "__module__", "")
        self._span = HANDLER_SPAN if module == "replicasim.scenario" else OTHER_HANDLER_SPAN
        self._tracer = tracer

    def handle(self, net, now, src, envelope) -> None:
        index = self._tracer._open(self._span)
        try:
            self._handle(net, now, src, envelope)
        finally:
            self._tracer._close(index)


# --- derived counters ------------------------------------------------------------


class _Hook:
    def before(self, tracer: Tracer, args):
        return None

    def after(self, tracer: Tracer, ctx, args, result, exc) -> None:
        pass


class _ApplyEdit(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        c = tracer.counters
        c["scene.model_nodes"] = max(c["scene.model_nodes"], len(args[0].nodes))


class _EditReplica(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        if result is not None:
            c = tracer.counters
            c["replica.pending_peak"] = max(c["replica.pending_peak"], len(result.pending))


class _Synchronize(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        if result is None:
            return
        c = tracer.counters
        c["replica.syncs"] += 1
        c["replica.edits"] += len(args[0].edits)
        c["replica.accepted"] += len(result.accepted)
        for _, reason in result.rejected:
            c[f"replica.rejected.{reason}"] += 1


class _Encode(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        if result is not None:
            tracer.counters["protocol.wire_bytes"] += len(result)
            tracer.counters["protocol.envelopes"] += 1


class _RunUntilQuiescent(_Hook):
    def before(self, tracer, args):
        return len(args[0].trace)

    def after(self, tracer, ctx, args, result, exc):
        tracer.counters["netsim.events"] += len(args[0].trace) - ctx


class _MannWhitney(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        if result is not None and result.exact:
            n1, n2 = args[0].n, args[1].n
            tracer.counters["stats.mann_whitney.exact_calls"] += 1
            tracer.counters["stats.mann_whitney.labelings"] += math.comb(n1 + n2, n1)


class _ShapiroWilk(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        from replicasim.stats import DegenerateSampleError, StatsError

        if isinstance(exc, StatsError) and not isinstance(exc, DegenerateSampleError):
            tracer.counters["stats.shapiro_wilk.refused"] += 1


class _CompareGroups(_Hook):
    def after(self, tracer, ctx, args, result, exc):
        if result is not None:
            tracer.counters["stats.compare_groups.calls"] += 1
            tracer.counters["stats.compare_groups.anova"] += result.chosen == "anova"


_HOOKS = {
    "scene.apply_edit": _ApplyEdit(),
    "replica.edit_replica": _EditReplica(),
    "replica.synchronize": _Synchronize(),
    "protocol.encode_envelope": _Encode(),
    "netsim.World.run_until_quiescent": _RunUntilQuiescent(),
    "stats.mann_whitney": _MannWhitney(),
    "stats.shapiro_wilk": _ShapiroWilk(),
    "stats.compare_groups": _CompareGroups(),
}
