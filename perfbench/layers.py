"""Per-layer attribution for the traced run, from outside ``src/``.

:func:`install` wraps the public entry points of each layer (stage
``run``/``key`` methods, ``CompileCache.get``/``put``, ``build_model``,
the cost model's candidate and refresh methods, ``MemoryCurve.apply``,
``plan_digest``/``Plan.summary`` and the serve handlers) with spans of a
:class:`LayerTracer`. Spans nest per thread; a span's *self* time is
its duration minus its same-thread children, so self times of all
spans add up to the time covered by top-level spans. Wrappers cost one
attribute check while the tracer is disabled, and :func:`uninstall`
restores the originals.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class LayerTracer:
    """In-memory span totals and counters, keyed by layer name."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, layer: str) -> bool:
        """Whether this thread is already within a ``layer`` span."""
        return any(frame[0] == layer for frame in self._stack())

    @contextmanager
    def span(self, layer: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.incl_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if not stack:
                    self.top_s += elapsed

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += value

    def patch(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Wrap ``owner.attr`` in a ``layer`` span; ``on_result(args,
        kwargs, result)`` runs inside the span to record counts."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            outermost = not tracer.inside(layer)
            with tracer.span(layer):
                result = original(*args, **kwargs)
                if on_result is not None and outermost:
                    on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.enabled = False


def install(tracer: LayerTracer) -> LayerTracer:
    """Wrap every layer's public entry points with ``tracer`` spans."""
    from repro.core import planner as planner_mod
    from repro.core.cost_model import CostModel
    from repro.core.plan import Plan
    from repro.core.simulate import MemoryCurve
    from repro.models import registry
    from repro.pipeline.cache import CompileCache
    from repro.pipeline.stages import (
        AddressPlanStage, ExecuteStage, LowerStage, PlanStage, ProfileStage,
    )
    from repro.serve import http as serve_http
    from repro.serve import service as serve_service

    count = tracer.count

    def on_decisions(args, kwargs, result):
        count("decisions", len(result.decisions))

    def on_candidates(args, kwargs, result):
        count("candidates", len(result))

    def on_lower(args, kwargs, result):
        count("augment_instructions", len(result.program.program.instructions))

    def on_address_plan(args, kwargs, result):
        if result.plan is not None and not result.cached:
            count("address_plan_allocs", len(result.plan.entries))

    def on_execute(args, kwargs, result):
        lowered = args[2] if len(args) > 2 else kwargs["lowered"]
        iterations = (args[3] if len(args) > 3
                      else kwargs.get("iterations")) or 1
        if result.feasible:
            count("engine_instructions",
                  len(lowered.program.program.instructions) * iterations)

    def on_get(args, kwargs, result):
        count("cache_gets")
        if result is not None:
            count("cache_hits")

    tracer.patch(registry, "build_model", "models.build")
    tracer.patch(serve_service, "build_model", "models.build")
    tracer.patch(ProfileStage, "run", "core.profiler")
    tracer.patch(PlanStage, "run", "core.planner.stage")
    tracer.patch(planner_mod.TsplitPlanner, "plan", "core.planner.search",
                 on_decisions)
    for name in ("nonsplit_candidates", "split_candidates",
                 "regen_candidates"):
        tracer.patch(CostModel, name, "core.cost_model.candidates",
                     on_candidates)
    tracer.patch(CostModel, "refresh", "core.cost_model.refresh")
    tracer.patch(MemoryCurve, "apply", "core.simulate.curve_apply")
    tracer.patch(LowerStage, "run", "core.augment", on_lower)
    tracer.patch(AddressPlanStage, "run", "planner.address_plan",
                 on_address_plan)
    tracer.patch(ExecuteStage, "run", "runtime.engine", on_execute)
    for stage in (ProfileStage, PlanStage, AddressPlanStage):
        tracer.patch(stage, "key", "pipeline.cache.key")
    tracer.patch(CompileCache, "get", "pipeline.cache.get", on_get)
    tracer.patch(CompileCache, "put", "pipeline.cache.put")
    tracer.patch(serve_service, "plan_digest", "serve.service.digest")
    tracer.patch(Plan, "summary", "serve.service.digest")
    tracer.patch(serve_service.PlanService, "handle_plan",
                 "serve.service.handle")
    tracer.patch(serve_service.PlanService, "_compute",
                 "serve.service.compute")
    tracer.patch(serve_http._PlanRequestHandler, "do_POST", "serve.http")
    return tracer


#: Per-layer metric name -> (unit, better). The traced run reports
#: every one of them on every workload (0 where a layer is not used).
PER_LAYER = {
    "models.build_ms": ("ms", "lower"),
    "core.profiler.ms": ("ms", "lower"),
    "core.planner.ms": ("ms", "lower"),
    "core.planner.decisions": ("count", "lower"),
    "core.planner.decisions_per_s": ("1/s", "higher"),
    "core.cost_model.candidates": ("count", "lower"),
    "core.cost_model.candidates_ms": ("ms", "lower"),
    "core.cost_model.refresh_ms": ("ms", "lower"),
    "core.simulate.curve_apply_ms": ("ms", "lower"),
    "core.augment.ms": ("ms", "lower"),
    "core.augment.instructions": ("count", "lower"),
    "planner.address_plan.ms": ("ms", "lower"),
    "planner.address_plan.allocs": ("count", "lower"),
    "runtime.engine.ms": ("ms", "lower"),
    "runtime.engine.instructions_per_s": ("1/s", "higher"),
    "runtime.engine.oom_after_plan": ("count", "lower"),
    "runtime.engine.sim_stall_frac": ("frac", "lower"),
    "pipeline.cache.key_ms": ("ms", "lower"),
    "pipeline.cache.get_ms": ("ms", "lower"),
    "pipeline.cache.put_ms": ("ms", "lower"),
    "pipeline.cache.hit_frac": ("frac", "higher"),
    "serve.service.handle_ms.p50": ("ms", "lower"),
    "serve.service.handle_ms.p99": ("ms", "lower"),
    "serve.service.digest_ms": ("ms", "lower"),
    "serve.service.wait_frac": ("frac", "lower"),
    "serve.service.coalesced_frac": ("frac", "higher"),
    "serve.service.rejected": ("count", "lower"),
    "serve.http.overhead_ms.p50": ("ms", "lower"),
    "serve.http.overhead_ms.p99": ("ms", "lower"),
    "loadgen.late_ms.p99": ("ms", "lower"),
    "unattributed_frac": ("frac", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}


def layer_metrics(tracer: LayerTracer, ops: int) -> dict[str, float]:
    """Span/counter totals as per-op layer metrics (ms are self time)."""
    ops = max(1, ops)

    def ms(*layers: str) -> float:
        return 1e3 * sum(tracer.self_s.get(layer, 0.0) for layer in layers) / ops

    def rate(count: str, layer: str) -> float:
        busy = tracer.incl_s.get(layer, 0.0)
        return tracer.counts.get(count, 0.0) / busy if busy else 0.0

    counts = tracer.counts
    gets = counts.get("cache_gets", 0.0)
    return {
        "models.build_ms": ms("models.build"),
        "core.profiler.ms": ms("core.profiler"),
        "core.planner.ms": ms("core.planner.stage", "core.planner.search"),
        "core.planner.decisions": counts.get("decisions", 0.0) / ops,
        "core.planner.decisions_per_s": rate("decisions", "core.planner.search"),
        "core.cost_model.candidates": counts.get("candidates", 0.0) / ops,
        "core.cost_model.candidates_ms": ms("core.cost_model.candidates"),
        "core.cost_model.refresh_ms": ms("core.cost_model.refresh"),
        "core.simulate.curve_apply_ms": ms("core.simulate.curve_apply"),
        "core.augment.ms": ms("core.augment"),
        "core.augment.instructions":
            counts.get("augment_instructions", 0.0) / ops,
        "planner.address_plan.ms": ms("planner.address_plan"),
        "planner.address_plan.allocs":
            counts.get("address_plan_allocs", 0.0) / ops,
        "runtime.engine.ms": ms("runtime.engine"),
        "runtime.engine.instructions_per_s":
            rate("engine_instructions", "runtime.engine"),
        "pipeline.cache.key_ms": ms("pipeline.cache.key"),
        "pipeline.cache.get_ms": ms("pipeline.cache.get"),
        "pipeline.cache.put_ms": ms("pipeline.cache.put"),
        "pipeline.cache.hit_frac":
            counts.get("cache_hits", 0.0) / gets if gets else 0.0,
        "serve.service.digest_ms": ms("serve.service.digest"),
    }


#: Layer groups for the attribution table (module -> span layers).
MODULES = {
    "models": ("models.build",),
    "core.profiler": ("core.profiler",),
    "core.planner+cost_model+simulate": (
        "core.planner.stage", "core.planner.search",
        "core.cost_model.candidates", "core.cost_model.refresh",
        "core.simulate.curve_apply",
    ),
    "core.augment": ("core.augment",),
    "planner.address_plan": ("planner.address_plan",),
    "runtime.engine": ("runtime.engine",),
    "pipeline.cache": (
        "pipeline.cache.key", "pipeline.cache.get", "pipeline.cache.put",
    ),
    "serve.service": (
        "serve.service.handle", "serve.service.compute",
        "serve.service.digest",
    ),
    "serve.http": ("serve.http",),
}


def module_shares(tracer: LayerTracer) -> dict[str, float]:
    """Each module's share of all traced self time."""
    total = sum(tracer.self_s.values()) or 1.0
    return {
        module: sum(tracer.self_s.get(layer, 0.0) for layer in layers) / total
        for module, layers in MODULES.items()
    }
