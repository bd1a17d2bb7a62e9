"""Analytic cost models for swap / recompute / split — Equations 2-6.

For a memory bottleneck at operation ``Op_i``, the planner needs, for
every candidate (tensor, strategy): the memory reduction ``ΔM_i`` at the
bottleneck and the extra iteration time ``ΔT``. Three mechanisms:

* **swap** (Eq. 2-3): ΔM is the tensor size; ΔT is the part of the PCIe
  transfer that cannot hide behind idle link time — computed against a
  simulated PCIe occupancy ``Oc_u`` per scheduled op (Section V-B: ideal
  swap-out begins at generation time, ideal swap-in a few ops before the
  backward use).
* **recompute** (Eq. 2, 4): ΔM is the tensor size; ΔT is the profiled
  time of the regeneration chain from the nearest resident checkpoints
  (memory-centric accounting).
* **split** (Eq. 5-6): applies to the bottleneck op's own input/output
  tensors; ΔM is the reduction from streaming micro-tensors
  (``size - 2*size/p``, plus the workspace shrink); ΔT combines the
  micro-tensor swap/recompute cost (now overlappable with the split op's
  own compute), the kernel-efficiency degradation of running ``p``
  micro-kernels, and merge copies for consumers that cannot execute
  split.

The source text of the paper omits Equations 4-5 (OCR loss); they are
reconstructed here from the surrounding prose and documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import RESIDE, MemOption, Plan, TensorConfig
from repro.core.profiler import ProfileData
from repro.core.recompute import chain_compute_time, planning_chain
from repro.core.simulate import (
    PREFETCH_OPS,
    TensorTimeline,
    _contributions,
    dependency_radius,
    needs_whole_staging,
    recompute_extra,
    tensor_timeline,
)
from repro.errors import PlanningError
from repro.graph.graph import Graph
from repro.graph.liveness import LivenessInfo, compute_liveness
from repro.graph.tensor import (
    DIM_ATTRIBUTE,
    DIM_PARAMETER,
    DIM_SAMPLE,
    TensorKind,
    TensorSpec,
)
from repro.core.split_rules import (
    effective_split,
    effective_split_config,
    op_exec_split,
    op_supports_split,
)
from repro.units import MB


@dataclass(frozen=True)
class Candidate:
    """One strategy choice the planner can apply.

    ``configs`` holds one or more (tensor id, config) assignments applied
    atomically — a single-tensor swap/recompute decision, or a *group*
    split aligning every tensor of the bottleneck op to one (dim, p_num).
    """

    configs: tuple[tuple[int, TensorConfig], ...]
    delta_m: float
    delta_t: float
    #: Members' configs *before* this candidate (for the cycle guard: the
    #: same assignment may be retried from a different starting state).
    prior: tuple[tuple[int, TensorConfig], ...] = ()

    #: The planner's greedy key ΔT / ΔM (lower is better). Materialised
    #: at construction: ``_better`` reads it twice per pairwise
    #: comparison, which a property would recompute every time.
    ratio: float = field(init=False)

    def __post_init__(self) -> None:
        ratio = (
            self.delta_t / self.delta_m if self.delta_m > 0 else float("inf")
        )
        object.__setattr__(self, "ratio", ratio)

    @property
    def key(self) -> tuple[frozenset, frozenset]:
        """Cycle-guard identity: the (before -> after) transition."""
        return (frozenset(self.prior), frozenset(self.configs))

    @property
    def tensor_id(self) -> int:
        """Primary tensor (first member), for reports."""
        return self.configs[0][0]

    @property
    def config(self) -> TensorConfig:
        """Primary config (first member), for reports."""
        return self.configs[0][1]

    @property
    def kind(self) -> str:
        """Coarse strategy classification for provenance and reports.

        ``"swap"`` / ``"recompute"`` for whole-tensor evictions,
        ``"split"`` for pure streaming splits, ``"split-swap"`` /
        ``"split-recompute"`` when the group's evicting members pair a
        split with an eviction (the paper's split-swap / split-recompute
        mechanisms).
        """
        has_split = any(cfg.is_split for _, cfg in self.configs)
        evict_opt = next(
            (cfg.opt.value for _, cfg in self.configs if cfg.evicts), None,
        )
        if has_split:
            return f"split-{evict_opt}" if evict_opt else "split"
        return evict_opt or self.configs[0][1].opt.value

    def describe(self) -> str:
        """Compact form: member configs plus the scored deltas."""
        members = ", ".join(
            f"t{tid}:{cfg.describe()}" for tid, cfg in self.configs
        )
        return (
            f"[{self.kind}] {members} "
            f"(dM={self.delta_m / MB:.1f}MB, dT={self.delta_t * 1e3:.3f}ms)"
        )


@dataclass(frozen=True)
class CandidateRow:
    """One candidate of the persistent table, scorable at any step.

    The strategy choice itself (``configs`` over ``prior``) plus what its
    (ΔM, ΔT) at a bottleneck step ``s`` derive from:

    * ΔM of a whole-tensor row is the sum of the bytes of its
      ``windows`` covering ``s``: the committed occupancy windows minus
      the probe's, a profile that does not depend on the step. Split
      groups are bound to the step that generated them (``lo == hi``)
      and carry no windows; their ΔM is :meth:`CostModel.group_delta_m`.
    * ΔT is the in-order sum of ``parts``: (static seconds, swap inputs
      or None). A part with swap inputs adds
      :meth:`CostModel.swap_cost` at ``s`` to its static seconds.
    * The row is only a candidate for ``lo <= s <= hi`` (and never for
      the bottleneck op's own tensors, which Step 2 handles).

    ``order`` is the row's position in the reference generation order
    (:func:`row_order`), which breaks exact ties; ``deps`` are configs
    the probe read through a recompute chain.
    """

    configs: tuple[tuple[int, TensorConfig], ...]
    prior: tuple[tuple[int, TensorConfig], ...]
    order: int
    lo: int
    hi: int
    windows: tuple[tuple[int, int, int], ...]
    parts: tuple[tuple[float, tuple | None], ...]
    deps: tuple[int, ...] = ()


def row_order(section: int, major: int, minor: int = 0) -> int:
    """Generation-order key: Step 1 (section 0) rows by eviction-pool
    position, then Step 2 split groups (1), then Step 2b regeneration
    upgrades (2) by graph position; ``minor`` orders a tensor's rows."""
    return (section << 48) | (major << 16) | minor


def _negated(windows):
    return tuple((start, end, -nbytes) for start, end, nbytes in windows)


def _covering(windows, step: int) -> float:
    """Bytes of the windows covering ``step`` (summed from 0.0, in order)."""
    total = 0.0
    for start, end, nbytes in windows:
        if start <= step <= end:
            total += nbytes
    return total


@dataclass(frozen=True)
class CostModelOptions:
    """Tuning knobs of the cost model / candidate generation."""

    prefetch_ops: int = PREFETCH_OPS
    split_p_nums: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128)
    min_split_bytes: int = 8 * MB
    min_evict_bytes: int = 1 * MB
    max_recompute_chain: int = 96
    allow_split: bool = True
    allow_recompute: bool = True
    allow_swap: bool = True


_CONFIG_INTERN: dict[tuple[MemOption, int, str], TensorConfig] = {}


def _intern_config(
    opt: MemOption, p_num: int = 1, dim: str = "sample",
) -> TensorConfig:
    """Value-interned :class:`TensorConfig` constructor.

    Candidate generation builds the same few hundred configs hundreds of
    thousands of times per planning run; interning skips the dataclass
    construction and hash precomputation.
    """
    key = (opt, p_num, dim)
    cfg = _CONFIG_INTERN.get(key)
    if cfg is None:
        cfg = TensorConfig(opt=opt, p_num=p_num, dim=dim)
        _CONFIG_INTERN[key] = cfg
    return cfg


class _ProbePlan:
    """Read-only plan overlay used for candidate probes.

    Candidate scoring evaluates thousands of hypothetical plans per
    decision; copying the committed config dict for each would dominate
    the planner. Probes only ever *read* configs, so an overlay with the
    candidate's member configs on top of the committed plan suffices.
    """

    __slots__ = ("_base", "_overrides")

    def __init__(self, base: Plan, overrides: dict[int, TensorConfig]) -> None:
        self._base = base
        self._overrides = overrides

    def config_for(self, tensor_id: int) -> TensorConfig:
        """The override if present, else the committed config."""
        cfg = self._overrides.get(tensor_id)
        return cfg if cfg is not None else self._base.config_for(tensor_id)


class CostModel:
    """ΔM / ΔT evaluation under a concrete plan state.

    The model holds a per-op timeline (execution times under the current
    split factors and op begin times) plus a simulated PCIe occupancy for
    both link directions; these are refreshed via :meth:`refresh` after
    every applied planner decision, so candidate evaluation itself is
    O(1) per candidate (prefix sums).
    """

    def __init__(
        self,
        graph: Graph,
        schedule: list[int],
        profile: ProfileData,
        options: CostModelOptions | None = None,
        *,
        caching: bool = True,
    ) -> None:
        self.graph = graph
        self.schedule = list(schedule)
        self.profile = profile
        self.options = options or CostModelOptions()
        #: Point-evaluation caching (committed windows, probe windows,
        #: recompute-ΔT, exec-split/staging predicates). Disabled by the
        #: planner's ``incremental=False`` reference mode so that mode
        #: reproduces the pre-refactor full-recompute cost profile the
        #: benchmark measures against.
        self.caching = caching
        self.liveness: LivenessInfo = compute_liveness(graph, schedule)
        self._timelines: dict[int, TensorTimeline | None] = {}
        # Filled by refresh():
        self.op_times = np.zeros(len(schedule))
        self.op_begin = np.zeros(len(schedule) + 1)
        self._idle_d2h = np.zeros(len(schedule) + 1)
        self._idle_h2d = np.zeros(len(schedule) + 1)
        # Caches valid for the *committed* plan object last passed to
        # refresh(); probe plans bypass them (identity-checked). They let
        # candidate generation reuse point evaluations across decisions:
        # an incremental refresh(plan, changed=...) invalidates only the
        # entries within the changed tensors' structural dependency
        # radius, a full refresh clears them wholesale.
        self._cached_plan: Plan | None = None
        self._exec_cache: dict[int, tuple[str, int] | None] = {}
        self._break_cache: dict[int, bool] = {}
        #: tensor id -> committed occupancy windows (start, end, bytes).
        self._windows_cache: dict[int, tuple[tuple[int, int, int], ...]] = {}
        #: RECOMPUTE contribution chain deps: tid -> read tids / inverse.
        self._contrib_deps: dict[int, tuple[int, ...]] = {}
        self._contrib_index: dict[int, set[int]] = {}
        # Recompute-ΔT survives across decisions: entries are invalidated
        # per-tensor through the recorded chain dependencies.
        self._rdt_cache: dict[int, float | PlanningError] = {}
        self._rdt_deps: dict[int, tuple[int, ...]] = {}
        self._rdt_index: dict[int, set[int]] = {}
        # Static structural dependency sets (lazy) and static ΔT values.
        self._op_adjacency: dict[int, frozenset[int]] = {}
        self._break_deps: dict[int, frozenset[int]] = {}
        #: tensor id -> break-predicate positions whose dep set holds it.
        self._break_index: dict[int, set[int]] = {}
        self._pswap_cache: dict[int, float] = {}
        #: Step-1 eligible tensors (static filter) and their pool
        #: positions, built lazily.
        self._eviction_pool: list | None = None
        self._pool_position: dict[int, int] = {}
        #: Step-2b pool (static filter) and tensor id -> pool position.
        self._regen_entries: list | None = None
        self._regen_position: dict[int, int] = {}
        #: Tensors whose SWAP transfers the last PCIe simulation placed.
        self._swap_tids: frozenset[int] = frozenset()
        #: The persistent candidate table of one planning run (built
        #: lazily by :attr:`table`, reset by a full :meth:`refresh`).
        self._table = None
        #: (tensor id, config) -> effective split. Pure in its key for a
        #: fixed graph, so it never needs invalidation — valid across
        #: committed plans and probes alike.
        self._esplit_memo: dict[
            tuple[int, TensorConfig], tuple[str, int] | None
        ] = {}
        #: Op id -> (outputs + inputs) tuple, in :func:`op_exec_split`'s
        #: priority order. Graph structure is immutable during planning.
        self._op_tids: dict[int, tuple[int, ...]] = {}
        #: (tensor id, split config) -> (split/merge copy and kernel
        #: overhead seconds, swap inputs); pure in its key.
        self._split_static: dict[tuple[int, TensorConfig], tuple] = {}

    # -- timelines ------------------------------------------------------------

    def timeline(self, tensor_id: int) -> TensorTimeline | None:
        """Cached phase-aware timeline of one tensor."""
        if tensor_id not in self._timelines:
            self._timelines[tensor_id] = tensor_timeline(
                self.graph, self.liveness, self.graph.tensors[tensor_id],
            )
        return self._timelines[tensor_id]

    # -- refresh under a plan ----------------------------------------------------

    def refresh(self, plan: Plan, changed: list[int] | None = None) -> None:
        """Recompute op times, begin times and PCIe occupancy for a plan.

        ``changed`` names the tensors whose configs were modified since
        the previous refresh of the *same* plan object: only the ops
        adjacent to them can change execution split factor, so only those
        schedule positions are re-timed, and only the cached values (and
        candidate-table rows) within the changed tensors' dependency
        radius are dropped. The PCIe occupancy is re-simulated only when
        an op time or the set of SWAP tensors changed: nothing else feeds
        it. Without ``changed`` (or for a new plan object) everything is
        rebuilt.
        """
        steps = len(self.schedule)
        if changed is None or self._cached_plan is not plan:
            times = np.empty(steps)
            for idx, op_id in enumerate(self.schedule):
                p_num = self._op_split_factor(plan, op_id)
                times[idx] = self.profile.split_op_time(op_id, p_num)
            self.op_times = times
            self._rdt_cache.clear()
            self._rdt_deps.clear()
            self._rdt_index.clear()
            self._exec_cache.clear()
            self._break_cache.clear()
            self._windows_cache.clear()
            self._contrib_deps.clear()
            self._contrib_index.clear()
            self._table = None
            retimed = True
        else:
            position = self.liveness.position
            ops: set[int] = set()
            for tid in changed:
                tensor = self.graph.tensors[tid]
                if tensor.producer is not None:
                    ops.add(tensor.producer)
                ops.update(tensor.consumers)
            retimed = False
            for op_id in ops:
                pos = position.get(op_id)
                if pos is None:
                    continue
                p_num = self._op_split_factor(plan, op_id)
                op_time = self.profile.split_op_time(op_id, p_num)
                if op_time != self.op_times[pos]:
                    self.op_times[pos] = op_time
                    retimed = True
                self._exec_cache.pop(pos, None)
            affected: set[int] = set()
            for tid in changed:
                self._invalidate_rdt(tid)
                for dependant in list(self._rdt_index.get(tid, ())):
                    self._invalidate_rdt(dependant)
                for pos in self._break_index.get(tid, ()):
                    self._break_cache.pop(pos, None)
                radius, _ = dependency_radius(self.graph, tid)
                for victim in radius:
                    self._invalidate_contrib(victim)
                for dependant in list(self._contrib_index.get(tid, ())):
                    self._invalidate_contrib(dependant)
                affected |= radius
            if self._table is not None:
                self._table.invalidate(changed, affected)
            swaps_moved = any(
                (tid in self._swap_tids)
                != (plan.config_for(tid).opt is MemOption.SWAP)
                for tid in changed
            )
            if not retimed and not swaps_moved:
                return
        begin = np.zeros(steps + 1)
        np.cumsum(self.op_times, out=begin[1:])
        self.op_begin = begin
        self._simulate_pcie(plan)
        self._cached_plan = plan

    @property
    def table(self):
        """The persistent candidate table for the committed plan
        (incremental mode; see :class:`~repro.core.candidate_table.
        CandidateTable`)."""
        if self._table is None:
            from repro.core.candidate_table import CandidateTable

            self._table = CandidateTable(self)
        return self._table

    def _invalidate_rdt(self, tid: int) -> None:
        self._rdt_cache.pop(tid, None)
        for dep in self._rdt_deps.pop(tid, ()):
            dependants = self._rdt_index.get(dep)
            if dependants is not None:
                dependants.discard(tid)

    def _invalidate_contrib(self, tid: int) -> None:
        self._windows_cache.pop(tid, None)
        for dep in self._contrib_deps.pop(tid, ()):
            dependants = self._contrib_index.get(dep)
            if dependants is not None:
                dependants.discard(tid)

    def chain_deps(self, tensor_id: int) -> tuple[int, ...]:
        """Configs the tensor's cached committed windows and recompute ΔT
        read through recompute chains (beyond the structural radius)."""
        return (
            self._contrib_deps.get(tensor_id, ())
            + self._rdt_deps.get(tensor_id, ())
        )

    def _op_split_factor(self, plan: Plan, op_id: int) -> int:
        split = op_exec_split(self.graph, plan, self.graph.ops[op_id])
        return split[1] if split else 1

    def _simulate_pcie(self, plan: Plan) -> None:
        """Simulate ideal transfer placement; build idle-time prefix sums.

        Swap-outs queue on the D2H engine starting at the producing op's
        end; swap-ins queue on the H2D engine starting ``prefetch_ops``
        ops before their backward consumer. Each engine is serial. The
        result is, per op interval, how much of the link is already
        occupied (``Oc_u``) — stored as remaining-idle prefix sums.
        """
        steps = len(self.schedule)
        busy_d2h = np.zeros(steps)
        busy_h2d = np.zeros(steps)
        out_requests: list[tuple[float, float]] = []  # (ready_time, duration)
        in_requests: list[tuple[float, float]] = []
        swap_tids: list[int] = []
        for tid, cfg in plan.configs.items():
            if cfg.opt is not MemOption.SWAP:
                continue
            timeline = self.timeline(tid)
            if timeline is None:
                continue
            swap_tids.append(tid)
            tensor = self.graph.tensors[tid]
            duration = self.profile.transfer_time(tensor.size_bytes)
            out_ready = self.op_begin[min(timeline.fwd_end + 1, steps)]
            out_requests.append((out_ready, duration))
            if timeline.bwd_uses:
                start_pos = max(0, timeline.bwd_uses[0] - self.options.prefetch_ops)
                in_requests.append((self.op_begin[start_pos], duration))

        self._swap_tids = frozenset(swap_tids)
        for requests, busy in ((out_requests, busy_d2h), (in_requests, busy_h2d)):
            requests.sort()
            starts = np.empty(len(requests))
            ends = np.empty(len(requests))
            clock = 0.0
            for i, (ready, duration) in enumerate(requests):
                start = max(clock, ready)
                clock = start + duration
                starts[i] = start
                ends[i] = clock
            self._mark_busy(busy, starts, ends)

        durations = self.op_times
        idle_d2h = np.maximum(durations - busy_d2h, 0.0)
        idle_h2d = np.maximum(durations - busy_h2d, 0.0)
        self._idle_d2h = np.concatenate(([0.0], np.cumsum(idle_d2h)))
        self._idle_h2d = np.concatenate(([0.0], np.cumsum(idle_h2d)))

    def _mark_busy(
        self, busy: np.ndarray, starts: np.ndarray, ends: np.ndarray,
    ) -> None:
        """Distribute serial transfer intervals over per-op accumulators.

        Interval ``i`` covers the ops from the one running at
        ``starts[i]`` up to the last one beginning before ``ends[i]``;
        each op receives the overlap. The overlaps are added with one
        unbuffered ``np.add.at`` in request order, so every ``busy[pos]``
        sums the same floats in the same order as a per-request loop.
        """
        if not len(starts):
            return
        begin = self.op_begin
        steps = len(busy)
        lo = np.searchsorted(begin, starts, side="right") - 1
        np.clip(lo, 0, steps - 1, out=lo)
        hi = np.searchsorted(begin[:steps], ends, side="left")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if not total:
            return
        request = np.repeat(np.arange(len(starts)), counts)
        offset = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        pos = lo[request] + offset
        seg = (
            np.minimum(ends[request], begin[pos + 1])
            - np.maximum(starts[request], begin[pos])
        )
        keep = seg > 0
        np.add.at(busy, pos[keep], seg[keep])

    # -- idle-capacity queries ------------------------------------------------

    def idle_d2h(self, lo: int, hi: int) -> float:
        """Idle D2H seconds over op positions [lo, hi] inclusive."""
        lo = max(lo, 0)
        hi = min(hi, len(self.schedule) - 1)
        if hi < lo:
            return 0.0
        return float(self._idle_d2h[hi + 1] - self._idle_d2h[lo])

    def idle_h2d(self, lo: int, hi: int) -> float:
        """Idle H2D seconds over op positions [lo, hi] inclusive."""
        lo = max(lo, 0)
        hi = min(hi, len(self.schedule) - 1)
        if hi < lo:
            return 0.0
        return float(self._idle_h2d[hi + 1] - self._idle_h2d[lo])

    # -- per-strategy ΔT -------------------------------------------------------

    def swap_delta_t(self, tensor: TensorSpec, bottleneck: int) -> float:
        """Equation 3: un-hidable part of swap-out + swap-in transfers."""
        timeline = self.timeline(tensor.tensor_id)
        assert timeline is not None
        return self.swap_cost(self._swap_inputs(tensor, timeline), bottleneck)

    def _swap_inputs(
        self,
        tensor: TensorSpec,
        timeline: TensorTimeline,
        p_num: int | None = None,
    ) -> tuple[float, float, float, int, int]:
        """Step-independent inputs of a swap's ΔT: (transfer, swap-out
        pipeline credit, swap-in pipeline credit, first swap-out
        position, first backward use or -1).

        ``p_num`` names a micro-tensor swap, whose transfers overlap the
        split producer's and backward consumer's own pipelined execution
        (Equation 6); a whole-tensor swap gets no credit (Equation 3).
        """
        transfer = self.profile.transfer_time(tensor.size_bytes)
        pipeline = back_pipeline = 0.0
        if p_num is not None and tensor.producer is not None:
            pipeline = (
                self.profile.split_op_time(tensor.producer, p_num)
                * (p_num - 1) / p_num
            )
        first_bwd = timeline.bwd_uses[0] if timeline.bwd_uses else -1
        if p_num is not None and first_bwd >= 0:
            back_pipeline = (
                self.profile.split_op_time(self.schedule[first_bwd], p_num)
                * (p_num - 1) / p_num
            )
        return (
            transfer, pipeline, back_pipeline, timeline.fwd_end + 1,
            first_bwd,
        )

    def swap_cost(
        self, swap: tuple[float, float, float, int, int], bottleneck: int,
    ) -> float:
        """Un-hidable seconds of one swap (see :meth:`_swap_inputs`) when
        it relieves ``bottleneck``: the swap-out must hide in the idle D2H
        time before the bottleneck, the swap-in in the idle H2D time of
        its prefetch window after it."""
        transfer, pipeline, back_pipeline, out_lo, first_bwd = swap
        out_cost = max(
            transfer - pipeline - self.idle_d2h(out_lo, bottleneck - 1), 0.0,
        )
        in_cost = 0.0
        if first_bwd >= 0:
            window_lo = max(bottleneck, first_bwd - self.options.prefetch_ops)
            in_cost = max(
                transfer - back_pipeline
                - self.idle_h2d(window_lo, first_bwd - 1),
                0.0,
            )
        return out_cost + in_cost

    def recompute_delta_t(self, tensor: TensorSpec, plan: Plan) -> float:
        """Equation 4 (reconstructed): profiled chain regeneration time.

        The chain is the one the augmenter will actually emit: swapped
        tensors count as sources (their swap-in cost is charged to their
        own configuration), RESIDE tensors only while still alive at the
        regeneration step. Results for the committed plan are cached per
        tensor and invalidated through the chain's recorded config
        dependencies (see :meth:`refresh`).
        """
        tid = tensor.tensor_id
        committed = self.caching and plan is self._cached_plan
        if committed:
            cached = self._rdt_cache.get(tid)
            if cached is not None:
                if isinstance(cached, PlanningError):
                    raise cached
                return cached
        timeline = self.timeline(tid)
        regen = timeline.bwd_uses[0] if timeline and timeline.bwd_uses else 0
        deps: set[int] | None = set() if committed else None
        try:
            chain = planning_chain(
                self.graph, tid, plan,
                self.liveness.free_step, regen,
                max_len=self.options.max_recompute_chain,
                deps=deps,
            )
        except PlanningError as exc:
            if committed:
                self._record_rdt(tid, exc, deps)
            raise
        value = chain_compute_time(chain, self.profile.op_time)
        if committed:
            self._record_rdt(tid, value, deps)
        return value

    def _record_rdt(
        self, tid: int, value: float | PlanningError, deps: set[int],
    ) -> None:
        deps.discard(tid)
        self._rdt_cache[tid] = value
        self._rdt_deps[tid] = tuple(deps)
        for dep in deps:
            self._rdt_index.setdefault(dep, set()).add(tid)

    def split_delta_t(
        self,
        tensor: TensorSpec,
        cfg: TensorConfig,
        plan: Plan,
        bottleneck: int,
    ) -> float:
        """Equation 6: micro-tensor memory cost + split kernel overheads."""
        static, swap = self._split_part(tensor, cfg, plan)
        if swap is None:
            return static
        return self.swap_cost(swap, bottleneck) + static

    def _split_part(
        self, tensor: TensorSpec, cfg: TensorConfig, plan: Plan,
    ) -> tuple[float, tuple | None]:
        """One split member's ΔT as (static seconds, swap inputs or None).

        (1) The micro-tensor memory cost: RESIDE+split (streaming free at
        the last consumer) moves no bytes, a recompute costs its chain,
        and a swap is overlappable with the split ops' own pipelined
        execution (step-dependent, so returned as swap inputs). (2) + (3)
        The split/merge copies and kernel degradation.
        """
        key = (tensor.tensor_id, cfg)
        static = self._split_static.get(key)
        if static is None:
            static = self._split_static[key] = (
                self._split_overhead(tensor, cfg),
                self._swap_inputs(tensor, self.timeline(tensor.tensor_id),
                                  cfg.p_num)
                if cfg.opt is MemOption.SWAP else None,
            )
        overhead, swap = static
        if swap is not None:
            return overhead, swap
        if cfg.opt is MemOption.RESIDE:
            return overhead, None
        return self.recompute_delta_t(tensor, plan) + overhead, None

    def _split_overhead(self, tensor: TensorSpec, cfg: TensorConfig) -> float:
        """Split/merge copy and kernel-degradation seconds of a split."""
        overhead = 0.0
        adjacent_ops: set[int] = set()
        if tensor.producer is not None:
            adjacent_ops.add(tensor.producer)
        adjacent_ops.update(tensor.consumers)
        for op_id in adjacent_ops:
            op = self.graph.ops[op_id]
            if op_supports_split(op.op_type, cfg.dim):
                overhead += self.profile.split_overhead(op_id, cfg.p_num)
            else:
                # Consumer/producer cannot run split: materialise a merge
                # (or split) copy of the full tensor.
                overhead += self.profile.memcpy_time(tensor.size_bytes)
        return overhead

    # -- ΔM at the bottleneck ----------------------------------------------------

    def _op_adj(self, op_id: int) -> frozenset[int]:
        """Tensors whose configs decide the op's execution split."""
        adj = self._op_adjacency.get(op_id)
        if adj is None:
            op = self.graph.ops[op_id]
            adj = frozenset(list(op.inputs) + list(op.outputs))
            self._op_adjacency[op_id] = adj
        return adj

    def _break_dep_set(self, pos: int) -> frozenset[int]:
        """Tensors whose configs decide ``needs_whole_staging`` at ``pos``.

        Superset by construction: the op's inputs (own config +
        effective split), plus — for each input with a producer — that
        producer's adjacency (its execution split).
        """
        deps = self._break_deps.get(pos)
        if deps is None:
            op = self.graph.ops[self.schedule[pos]]
            acc: set[int] = set(op.inputs)
            for tid in op.inputs:
                producer = self.graph.tensors[tid].producer
                if producer is not None:
                    acc |= self._op_adj(producer)
            deps = frozenset(acc)
            self._break_deps[pos] = deps
            for tid in deps:
                self._break_index.setdefault(tid, set()).add(pos)
        return deps

    def _esplit(
        self, tensor: TensorSpec, cfg: TensorConfig,
    ) -> tuple[str, int] | None:
        """Memoised :func:`effective_split_config` (incremental mode)."""
        if not cfg.is_split:
            return None
        key = (tensor.tensor_id, cfg)
        try:
            return self._esplit_memo[key]
        except KeyError:
            value = effective_split_config(self.graph, tensor, cfg)
            self._esplit_memo[key] = value
            return value

    def _op_exec_split(self, plan: Plan, op) -> tuple[str, int] | None:
        """:func:`op_exec_split` through the effective-split memo."""
        tensors = self.graph.tensors
        tids = self._op_tids.get(op.op_id)
        if tids is None:
            tids = tuple(op.outputs) + tuple(op.inputs)
            self._op_tids[op.op_id] = tids
        config_for = plan.config_for
        for tid in tids:
            split = self._esplit(tensors[tid], config_for(tid))
            if split is not None and op_supports_split(op.op_type, split[0]):
                return split
        return None

    def _exec_split_at(
        self,
        plan: Plan,
        pos: int,
        changed: frozenset[int] | None = None,
    ) -> tuple[str, int] | None:
        """Execution split of the op at ``pos``, cached for the committed
        plan; probe plans reuse the committed value when ``changed`` is
        disjoint from the op's adjacency."""
        committed = self.caching and plan is self._cached_plan
        if not committed and (
            not self.caching
            or changed is None
            or self._cached_plan is None
            or not changed.isdisjoint(
                self._op_adj(self.schedule[pos]))
        ):
            op = self.graph.ops[self.schedule[pos]]
            if self.caching:
                return self._op_exec_split(plan, op)
            return op_exec_split(self.graph, plan, op)
        cache = self._exec_cache
        if pos not in cache:
            cache[pos] = self._op_exec_split(
                plan, self.graph.ops[self.schedule[pos]],
            )
        return cache[pos]

    def _breaks_at(
        self,
        plan: Plan,
        pos: int,
        changed: frozenset[int] | None = None,
    ) -> bool:
        """Whole-staging predicate at ``pos``, cached like
        :meth:`_exec_split_at` (dependency set: :meth:`_break_dep_set`)."""
        committed = self.caching and plan is self._cached_plan
        if not committed and (
            not self.caching
            or changed is None
            or self._cached_plan is None
            or not changed.isdisjoint(self._break_dep_set(pos))
        ):
            return needs_whole_staging(
                self.graph, plan, self.graph.ops[self.schedule[pos]],
                pos, self.timeline,
            )
        cache = self._break_cache
        if pos not in cache:
            self._break_dep_set(pos)  # register the invalidation index
            cache[pos] = needs_whole_staging(
                self.graph, plan, self.graph.ops[self.schedule[pos]],
                pos, self.timeline,
            )
        return cache[pos]

    def windows(
        self,
        tensor: TensorSpec,
        plan: Plan,
        changed: frozenset[int] | None = None,
        deps: set[int] | None = None,
    ) -> tuple[tuple[int, int, int], ...]:
        """(start, end, bytes) occupancy windows of ``tensor`` under ``plan``.

        Mirrors :func:`repro.core.simulate._contributions` — including
        the recompute-chain transient and the streaming-region rules.
        Windows of the committed plan are cached per tensor until
        :meth:`refresh` drops them; probe plans pass ``changed`` (the
        probe's modified tensor ids) so the point predicates can reuse
        committed results where their dependency sets are untouched.
        ``deps``, when given, receives the configs the windows read
        through a recompute chain.
        """
        tid = tensor.tensor_id
        committed = self.caching and plan is self._cached_plan
        if committed:
            windows = self._windows_cache.get(tid)
            if windows is not None:
                if deps is not None:
                    deps.update(self._contrib_deps.get(tid, ()))
                return windows
        timeline = self.timeline(tid)
        if timeline is None:
            return ()
        cfg = plan.config_for(tid)
        if cfg.is_split:
            split = (
                self._esplit(tensor, cfg) if self.caching
                else effective_split(self.graph, plan, tensor)
            )
            if split is None:
                cfg = (
                    _intern_config(cfg.opt) if self.caching
                    else TensorConfig(opt=cfg.opt)
                )
        chain_extra = 0
        chain_deps: set[int] | None = None
        if cfg.opt is MemOption.RECOMPUTE:
            chain_deps = set() if committed or deps is not None else None
            chain_extra = recompute_extra(
                self.graph, plan, self.liveness.free_step, tensor,
                timeline, deps=chain_deps,
            )
            if chain_deps is not None:
                chain_deps.discard(tid)
        windows = tuple(_contributions(
            self.graph, tensor, timeline, cfg, len(self.schedule) - 1,
            chain_extra,
            lambda pos: self._exec_split_at(plan, pos, changed),
            lambda pos: self._breaks_at(plan, pos, changed),
        ))
        if chain_deps:
            if committed:
                self._contrib_deps[tid] = tuple(chain_deps)
                for dep in chain_deps:
                    self._contrib_index.setdefault(dep, set()).add(tid)
            if deps is not None:
                deps |= chain_deps
        if committed:
            self._windows_cache[tid] = windows
        return windows

    def contribution(
        self,
        tensor: TensorSpec,
        plan: Plan,
        step: int,
        changed: frozenset[int] | None = None,
    ) -> float:
        """Bytes ``tensor`` occupies at ``step`` under ``plan`` (the sum
        of its :meth:`windows` covering ``step``)."""
        return _covering(self.windows(tensor, plan, changed), step)

    def group_delta_m(
        self,
        members: list[tuple[TensorSpec, TensorConfig]],
        plan: Plan,
        probe: Plan,
        step: int,
        deps: set[int] | None = None,
    ) -> float:
        """Memory reduction at ``step`` from applying a config group.

        ``probe`` must hold exactly the group's configs over ``plan``.
        Includes the workspace shrink of the op executing at ``step``.
        ``deps``, when given, receives the configs the committed and
        probe windows read through recompute chains.
        """
        changed = frozenset(tensor.tensor_id for tensor, _ in members)
        reduction = 0.0
        windows = self.windows
        for tensor, _ in members:
            reduction += _covering(windows(tensor, plan, deps=deps), step)
            reduction -= _covering(windows(tensor, probe, changed, deps), step)
        return reduction + self._workspace_shrink(plan, probe, step, changed)

    def group_delta_m_bound(
        self,
        members: list[tuple[TensorSpec, TensorConfig]],
        plan: Plan,
        step: int,
    ) -> float:
        """Upper bound of :meth:`group_delta_m` without a probe: the
        members' committed bytes at ``step`` plus the whole workspace
        share of its op (probe windows hold no negative bytes, and the
        float operations are monotone)."""
        bound = 0.0
        for tensor, _ in members:
            bound += _covering(self.windows(tensor, plan), step)
        op = self.graph.ops[self.schedule[step]]
        if op.workspace_bytes:
            split = self._exec_split_at(plan, step)
            bound += op.workspace_bytes * (1 / (split[1] if split else 1))
        return bound

    def _workspace_shrink(
        self, plan: Plan, probe: Plan, step: int, changed: frozenset[int],
    ) -> float:
        """Workspace bytes freed at ``step`` when ``probe`` splits its op
        further than ``plan`` does (0.0 for ops without workspace)."""
        op = self.graph.ops[self.schedule[step]]
        if not op.workspace_bytes:
            return 0.0
        old_split = self._exec_split_at(plan, step)
        new_split = self._exec_split_at(probe, step, changed=changed)
        old_p = old_split[1] if old_split else 1
        new_p = new_split[1] if new_split else 1
        return op.workspace_bytes * (1 / old_p - 1 / new_p)

    # -- candidate generation -------------------------------------------------

    def _eviction_candidates(self):
        """Yield Step-1-eligible tensors: the size, kind and lifetime
        guards depend only on the graph, never on the plan or the
        bottleneck."""
        persistent_kinds = (
            TensorKind.PARAM, TensorKind.OPTIMIZER_STATE,
            TensorKind.GRAD_PARAM,
        )
        for tensor in self.graph.tensors.values():
            if tensor.size_bytes < self.options.min_evict_bytes:
                continue
            persistent = tensor.kind in persistent_kinds
            if not persistent and tensor.kind is not TensorKind.ACTIVATION:
                continue
            timeline = self.timeline(tensor.tensor_id)
            if timeline is None:
                continue
            yield tensor, timeline, persistent

    def _probe(
        self, plan: Plan, overrides: dict[int, TensorConfig],
    ) -> Plan | _ProbePlan:
        """Hypothetical plan for scoring one candidate.

        Incremental mode layers the candidate's configs over the
        committed plan without copying; the ``caching=False`` reference
        mode keeps the pre-refactor full-copy probes so the planner
        benchmark's baseline reflects the implementation this replaced.
        """
        if self.caching:
            return _ProbePlan(plan, overrides)
        probe = plan.copy()
        for tid, cfg in overrides.items():
            probe.set(tid, cfg)
        return probe

    def persistent_swap_delta_t(self, tensor: TensorSpec) -> float:
        """ΔT of sharding a parameter / optimizer-state tensor to host.

        Conservative: one swap-in + swap-out round trip per use window,
        with no overlap credit — the planner should only reach for
        persistent tensors once activations are exhausted (which is when
        the paper's parameter-scale experiments need it).
        """
        tid = tensor.tensor_id
        cached = self._pswap_cache.get(tid) if self.caching else None
        if cached is not None:
            return cached
        timeline = self.timeline(tid)
        if timeline is None:
            return 0.0
        transfer = self.profile.transfer_time(tensor.size_bytes)
        windows = max(1, len(timeline.use_positions))
        value = 2.0 * windows * transfer
        self._pswap_cache[tid] = value
        return value

    def _evict_options(self) -> list[MemOption]:
        """Whole-tensor eviction options Step 1 proposes, in order."""
        return [
            option for option, allowed in (
                (MemOption.SWAP, self.options.allow_swap),
                (MemOption.RECOMPUTE, self.options.allow_recompute),
            ) if allowed
        ]

    def nonsplit_candidates(
        self,
        bottleneck: int,
        plan: Plan,
        *,
        rows: bool = False,
        tensors: Iterable[int] | None = None,
    ) -> list[Candidate] | list[CandidateRow]:
        """Step 1 of Algorithm 2: swap/recompute for live resident tensors.

        ``rows=True`` returns the candidate table's step-independent
        :class:`CandidateRow` objects for the eviction-pool members among
        ``tensors`` (all of them when None) instead of the candidates
        scored at ``bottleneck``.
        """
        if rows:
            return self._nonsplit_rows(plan, tensors)
        current_op = self.graph.ops[self.schedule[bottleneck]]
        excluded = set(current_op.inputs) | set(current_op.outputs)
        candidates: list[Candidate] = []
        configs = plan.configs
        reside = MemOption.RESIDE
        for tensor, timeline, persistent in self._eviction_candidates():
            tid = tensor.tensor_id
            if tid in excluded:
                continue
            cfg = configs.get(tid, RESIDE)
            if cfg.opt is not reside:
                continue  # already evicted; upgrades happen via split path
            if persistent:
                # Shard to host memory, resident only around uses —
                # how parameter-dominated workloads keep scaling after
                # every activation is already evicted. Includes
                # ZeRO-style gradient offload: a parameter gradient is
                # streamed out at production and back for the update.
                # ΔM in closed form (mirrors the persistent-SWAP window
                # rule of the static model): full size unless a use
                # window covers the bottleneck.
                if not self.options.allow_swap:
                    continue
                covered = any(
                    use - 1 <= bottleneck <= use
                    for use in timeline.use_positions
                )
                if tensor.kind is TensorKind.GRAD_PARAM:
                    covered = covered or timeline.alloc == bottleneck
                if covered:
                    continue
                new_cfg = _intern_config(MemOption.SWAP)
                candidates.append(Candidate(
                    ((tid, new_cfg),), float(tensor.size_bytes),
                    self.persistent_swap_delta_t(tensor),
                    prior=((tid, cfg),),
                ))
                continue
            if timeline.alloc >= bottleneck:
                continue
            if timeline.free <= bottleneck:
                continue  # about to be freed anyway
            if timeline.fwd_end >= bottleneck:
                continue  # still needed in the forward region around here
            for option in self._evict_options():
                new_cfg = _intern_config(option, cfg.p_num, cfg.dim)
                probe = self._probe(plan, {tid: new_cfg})
                dm = self.group_delta_m(
                    [(tensor, new_cfg)], plan, probe, bottleneck,
                )
                if dm <= 0:
                    continue
                try:
                    dt = (
                        self.swap_delta_t(tensor, bottleneck)
                        if option is MemOption.SWAP
                        else self.recompute_delta_t(tensor, plan)
                    )
                except PlanningError:
                    continue
                candidates.append(Candidate(
                    ((tid, new_cfg),), dm, dt,
                    prior=((tid, cfg),),
                ))
        return candidates

    def _nonsplit_rows(
        self, plan: Plan, tensors: Iterable[int] | None,
    ) -> list[CandidateRow]:
        """Step-1 rows: the bottleneck guards become the row's eligible
        step range (activations: after the last forward use, before the
        free) and, for persistent tensors, negative ΔM windows over the
        use windows that would cover a bottleneck."""
        pool = self._nonsplit_pool()
        if tensors is None:
            indices: Iterable[int] = range(len(pool))
        else:
            position = self._pool_position
            indices = sorted(position[t] for t in tensors if t in position)
        last = len(self.schedule) - 1
        options = self._evict_options()
        rows: list[CandidateRow] = []
        for index in indices:
            tensor, timeline, persistent = pool[index]
            tid = tensor.tensor_id
            cfg = plan.config_for(tid)
            if cfg.opt is not MemOption.RESIDE:
                continue
            if persistent:
                if not self.options.allow_swap:
                    continue
                size = tensor.size_bytes
                profile = [(0, last, size)]
                profile.extend(
                    (use - 1, use, -size) for use in timeline.use_positions
                )
                if tensor.kind is TensorKind.GRAD_PARAM:
                    profile.append((timeline.alloc, timeline.alloc, -size))
                rows.append(CandidateRow(
                    ((tid, _intern_config(MemOption.SWAP)),), ((tid, cfg),),
                    row_order(0, index), 0, last, tuple(profile),
                    ((self.persistent_swap_delta_t(tensor), None),),
                ))
                continue
            lo, hi = timeline.fwd_end + 1, timeline.free - 1
            if lo > hi:
                continue
            committed = self.windows(tensor, plan)
            only = frozenset((tid,))
            for minor, option in enumerate(options):
                new_cfg = _intern_config(option, cfg.p_num, cfg.dim)
                deps: set[int] = set()
                probe = self.windows(
                    tensor, _ProbePlan(plan, {tid: new_cfg}), only, deps,
                )
                if option is MemOption.SWAP:
                    part = (0.0, self._swap_inputs(tensor, timeline))
                else:
                    try:
                        part = (self.recompute_delta_t(tensor, plan), None)
                    except PlanningError:
                        continue
                rows.append(CandidateRow(
                    ((tid, new_cfg),), ((tid, cfg),),
                    row_order(0, index, minor), lo, hi,
                    committed + _negated(probe), (part,), deps=tuple(deps),
                ))
        return rows

    def _nonsplit_pool(self) -> list:
        """The eviction pool as a list, with tensor id -> pool position."""
        if self._eviction_pool is None:
            self._eviction_pool = list(self._eviction_candidates())
            self._pool_position = {
                entry[0].tensor_id: index
                for index, entry in enumerate(self._eviction_pool)
            }
        return self._eviction_pool

    def split_window(self, bottleneck: int) -> list:
        """The bottleneck op plus the chained neighbour ops Step 2 splits
        with it: their shared tensors land in the same group, so the
        streaming region extends across them with one (dim, p_num)."""
        current_op = self.graph.ops[self.schedule[bottleneck]]
        window_ops = [current_op]
        if bottleneck + 1 < len(self.schedule):
            nxt = self.graph.ops[self.schedule[bottleneck + 1]]
            if set(nxt.inputs) & set(current_op.outputs):
                window_ops.append(nxt)
        if bottleneck - 1 >= 0:
            prv = self.graph.ops[self.schedule[bottleneck - 1]]
            if set(prv.outputs) & set(current_op.inputs):
                window_ops.append(prv)
        return window_ops

    def _split_groups(self, bottleneck: int, plan: Plan):
        """Yield Step 2's split groups at ``bottleneck`` in generation
        order: member lists that change at least one committed config."""
        current_op = self.graph.ops[self.schedule[bottleneck]]
        window_ops = self.split_window(bottleneck)
        eligible_map: dict[int, TensorSpec] = {}
        for op in window_ops:
            for tensor in self._split_eligible(op, plan):
                eligible_map[tensor.tensor_id] = tensor
        eligible = list(eligible_map.values())
        if not eligible:
            return
        touching: dict[int, list] = {
            t.tensor_id: [
                op for op in window_ops
                if t.tensor_id in op.inputs or t.tensor_id in op.outputs
            ]
            for t in eligible
        }
        evict_options = self._evict_options() or [MemOption.RESIDE]
        for dim in (DIM_SAMPLE, DIM_PARAMETER, DIM_ATTRIBUTE):
            if not op_supports_split(current_op.op_type, dim):
                continue
            group_base = [
                t for t in eligible
                if dim in t.split_axes
                and op_supports_split(
                    self.graph.ops[t.producer].op_type, dim,
                )
                and all(
                    op_supports_split(op.op_type, dim)
                    for op in touching[t.tensor_id]
                )
            ]
            if not group_base:
                continue
            for p_num in self.options.split_p_nums:
                if all(
                    tensor.shape[tensor.split_axes[dim]] < p_num
                    for tensor in group_base
                ):
                    break
                for evict_opt in evict_options:
                    members: list[tuple[TensorSpec, TensorConfig]] = []
                    changed = False
                    for tensor in group_base:
                        axis = tensor.split_axes[dim]
                        if tensor.shape[axis] < p_num:
                            continue
                        cfg = self._member_config(
                            tensor, plan, dim, p_num, evict_opt,
                        )
                        if cfg is None:
                            continue
                        members.append((tensor, cfg))
                        if plan.config_for(tensor.tensor_id) != cfg:
                            changed = True
                    if members and changed:
                        yield members

    def split_candidates(
        self, bottleneck: int, plan: Plan, *, rows: bool = False,
    ) -> list[Candidate] | list[CandidateRow]:
        """Step 2 of Algorithm 2: split the bottleneck op's tensors.

        Splitting an operation splits its tensors *together*: a group
        candidate aligns every eligible input/output of the bottleneck op
        to one (dim, p_num), which is what lets the augmenter form a
        coherent streaming region (mismatched part counts would force
        merges and destroy the reuse the split is meant to buy).

        ``rows=True`` returns the groups as candidate-table rows bound to
        ``bottleneck``, without scoring their ΔM (the table evaluates
        :meth:`group_delta_m` only for groups that can still win).
        """
        if not self.options.allow_split:
            return []
        if rows:
            return self._split_rows(bottleneck, plan)
        candidates: list[Candidate] = []
        for members in self._split_groups(bottleneck, plan):
            probe = self._probe(plan, {
                tensor.tensor_id: cfg for tensor, cfg in members
            })
            dm = self.group_delta_m(members, plan, probe, bottleneck)
            if dm <= 0:
                continue
            dt = 0.0
            try:
                for tensor, cfg in members:
                    dt += self.split_delta_t(tensor, cfg, plan, bottleneck)
            except PlanningError:
                continue
            candidates.append(Candidate(
                tuple((tensor.tensor_id, cfg) for tensor, cfg in members),
                dm, dt,
                prior=tuple(
                    (tensor.tensor_id, plan.config_for(tensor.tensor_id))
                    for tensor, _ in members
                ),
            ))
        return candidates

    def _split_rows(self, bottleneck: int, plan: Plan) -> list[CandidateRow]:
        rows: list[CandidateRow] = []
        for minor, members in enumerate(self._split_groups(bottleneck, plan)):
            try:
                parts = tuple(
                    self._split_part(tensor, cfg, plan)
                    for tensor, cfg in members
                )
            except PlanningError:
                continue
            rows.append(CandidateRow(
                tuple((tensor.tensor_id, cfg) for tensor, cfg in members),
                tuple(
                    (tensor.tensor_id, plan.config_for(tensor.tensor_id))
                    for tensor, _ in members
                ),
                row_order(1, 0, minor), bottleneck, bottleneck, (), parts,
            ))
        return rows

    def regen_candidates(
        self,
        bottleneck: int,
        plan: Plan,
        *,
        rows: bool = False,
        tensors: Iterable[int] | None = None,
    ) -> list[Candidate] | list[CandidateRow]:
        """Split upgrades for evicted tensors whose regeneration window
        covers the bottleneck.

        A whole-tensor swap is prefetched a few ops early and occupies
        full size from the prefetch point; upgrading it to swap+split
        streams the pieces just-in-time inside its backward consumer and
        shrinks the window to the streaming depth.

        ``rows=True`` returns candidate-table rows for the members of the
        static regeneration pool among ``tensors`` (all when None).
        """
        if not self.options.allow_split or not self.options.allow_swap:
            return []
        pool = self._regen_pool()
        if rows:
            if tensors is not None:
                position = self._regen_position
                pool = [
                    pool[i]
                    for i in sorted(position[t] for t in tensors if t in position)
                ]
            return self._regen_rows(plan, pool)
        candidates: list[Candidate] = []
        current_op = self.graph.ops[self.schedule[bottleneck]]
        local = set(current_op.inputs) | set(current_op.outputs)
        for _, tensor, timeline in pool:
            tid = tensor.tensor_id
            if tid in local:
                continue
            if not (timeline.bwd_uses[0] - self.options.prefetch_ops
                    <= bottleneck <= timeline.free):
                continue
            old_cfg = plan.config_for(tid)
            for new_cfg in self._regen_configs(tensor, timeline, plan):
                probe = self._probe(plan, {tid: new_cfg})
                dm = self.group_delta_m(
                    [(tensor, new_cfg)], plan, probe, bottleneck,
                )
                if dm <= 0:
                    continue
                try:
                    dt = self.split_delta_t(tensor, new_cfg, plan, bottleneck)
                except PlanningError:
                    continue
                candidates.append(Candidate(
                    ((tid, new_cfg),), dm, dt,
                    prior=((tid, old_cfg),),
                ))
        return candidates

    def _regen_rows(self, plan: Plan, pool: list) -> list[CandidateRow]:
        rows: list[CandidateRow] = []
        for index, tensor, timeline in pool:
            tid = tensor.tensor_id
            configs = self._regen_configs(tensor, timeline, plan)
            if not configs:
                continue
            old_cfg = plan.config_for(tid)
            committed = self.windows(tensor, plan)
            only = frozenset((tid,))
            lo = timeline.bwd_uses[0] - self.options.prefetch_ops
            for minor, new_cfg in enumerate(configs):
                probe = self.windows(
                    tensor, _ProbePlan(plan, {tid: new_cfg}), only,
                )
                rows.append(CandidateRow(
                    ((tid, new_cfg),), ((tid, old_cfg),),
                    row_order(2, index, minor), lo, timeline.free,
                    committed + _negated(probe),
                    (self._split_part(tensor, new_cfg, plan),),
                ))
        return rows

    def _regen_pool(self) -> list:
        """(graph position, tensor, timeline) of every tensor the static
        guards of :meth:`regen_candidates` admit, in graph order."""
        if self._regen_entries is None:
            entries = []
            for index, tensor in enumerate(self.graph.tensors.values()):
                if tensor.kind is not TensorKind.ACTIVATION:
                    continue
                if tensor.size_bytes < self.options.min_split_bytes:
                    continue
                if tensor.producer is None:
                    continue
                timeline = self.timeline(tensor.tensor_id)
                if timeline is None or not timeline.bwd_uses:
                    continue
                entries.append((index, tensor, timeline))
            self._regen_entries = entries
            self._regen_position = {
                entry[1].tensor_id: i for i, entry in enumerate(entries)
            }
        return self._regen_entries

    def _regen_configs(
        self, tensor: TensorSpec, timeline: TensorTimeline, plan: Plan,
    ) -> list[TensorConfig]:
        """Split upgrades of a swapped tensor, in generation order.

        Already-split tensors stay eligible: re-splitting to the
        consumer's part count repairs a mismatched alignment that would
        otherwise force whole-tensor regeneration. Part counts worth
        trying: the backward consumer's and every forward consumer's
        established split (streaming requires agreement with all of
        them), then the generic ladder.
        """
        old_cfg = plan.config_for(tensor.tensor_id)
        if old_cfg.opt is not MemOption.SWAP:
            return []
        first_bwd = timeline.bwd_uses[0]
        consumer = self.graph.ops[self.schedule[first_bwd]]
        producer_type = self.graph.ops[tensor.producer].op_type
        exec_ps: list[int] = []
        for use in (first_bwd, *(
            p for p in timeline.use_positions if p <= timeline.fwd_end
        )):
            use_exec = self._exec_split_at(plan, use)
            if use_exec is not None and use_exec[1] not in exec_ps:
                exec_ps.append(use_exec[1])
        p_choices = tuple(dict.fromkeys((*exec_ps, *self.options.split_p_nums)))
        configs: list[TensorConfig] = []
        for dim, axis in tensor.split_axes.items():
            if not op_supports_split(consumer.op_type, dim):
                continue
            if not op_supports_split(producer_type, dim):
                continue
            for p_num in p_choices:
                if p_num > tensor.shape[axis]:
                    continue
                new_cfg = _intern_config(MemOption.SWAP, p_num, dim)
                if new_cfg != old_cfg:
                    configs.append(new_cfg)
        return configs

    def _split_eligible(
        self, op, plan: Plan,
    ) -> list[TensorSpec]:
        """Tensors of an op that may participate in a split group."""
        eligible: list[TensorSpec] = []
        for tid in dict.fromkeys(list(op.inputs) + list(op.outputs)):
            tensor = self.graph.tensors[tid]
            if tensor.kind not in (
                TensorKind.ACTIVATION, TensorKind.GRAD_ACTIVATION,
            ):
                continue
            if tensor.size_bytes < self.options.min_split_bytes:
                continue
            if tensor.producer is None:
                continue
            eligible.append(tensor)
        return eligible

    def _member_config(
        self,
        tensor: TensorSpec,
        plan: Plan,
        dim: str,
        p_num: int,
        evict_opt: MemOption,
    ) -> TensorConfig | None:
        """Config a tensor gets inside a split group, or None to skip.

        Gradients stream in place (RESIDE); short-lived forward tensors
        free as they are consumed; long-lived activations are evicted
        micro-wise with ``evict_opt`` (the group generator proposes both
        a swap-preferring and a recompute-preferring variant and lets the
        ΔT/ΔM comparison decide).
        """
        if tensor.kind is TensorKind.GRAD_ACTIVATION:
            return _intern_config(MemOption.RESIDE, p_num, dim)
        timeline = self.timeline(tensor.tensor_id)
        if timeline is None:
            return None
        if not timeline.bwd_uses and timeline.free <= timeline.alloc + 1:
            # Short-lived forward tensor: streaming free, no eviction.
            return _intern_config(MemOption.RESIDE, p_num, dim)
        if evict_opt is MemOption.RESIDE:
            return None
        return _intern_config(evict_opt, p_num, dim)
