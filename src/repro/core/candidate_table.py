"""The persistent candidate table of one planning run.

Algorithm 2 re-enumerates every candidate at every decision, yet one
accepted decision changes the plan only within the dependency radius of
the tensors it touched. The table keeps each candidate as a
:class:`~repro.core.cost_model.CandidateRow` across decisions:

* **Rows.** Whole-tensor rows (Step 1 swap/recompute/persistent shards
  and Step 2b regeneration upgrades) carry a step-independent ΔM
  profile and their ΔT inputs, so they are scored at any bottleneck
  without being rebuilt. Split-group rows (Step 2) are bound to the
  bottleneck op that generated them and cached per step.
* **Each decision.** ΔM at the bottleneck is one masked ``bincount``
  over the profile windows; swap ΔT is re-derived from the PCIe idle
  prefix sums for all rows at once; the winner follows the planner's
  ordering with ties broken on generation order, and the cycle guard is
  checked against the winner only.
* **Each commit.** Rows are dropped when the changed tensors' structural
  :func:`~repro.core.simulate.dependency_radius` meets their tensor (or,
  for a split batch, any tensor of its window ops), when a changed
  tensor is one of the configs their recompute chains read, or — via
  the radius, which contains the changed tensor itself — when their own
  generator guard may have flipped. Dropped tensors are rebuilt through
  the cost model's candidate methods the next time a bottleneck falls
  inside the steps where they can be candidates.

Every value is computed with the same float operations, in the same
order, as the reference enumeration, so the decisions are identical to
``PlannerOptions(incremental=False)`` — asserted by the planner-mode
equivalence tests.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.cost_model import Candidate, CandidateRow, CostModel
from repro.core.plan import Plan


class CandidateTable:
    """Candidate rows of one planning run, kept fresh across decisions.

    Owned by a :class:`~repro.core.cost_model.CostModel` (its ``table``
    attribute); the cost model's incremental :meth:`CostModel.refresh`
    calls :meth:`invalidate`.
    """

    def __init__(self, cost_model: CostModel) -> None:
        # A weak reference: the owning cost model holds the table, and a
        # cycle would keep every finished planning run's caches alive
        # until the next full garbage collection.
        self.cm = weakref.proxy(cost_model)
        options = cost_model.options
        last = len(cost_model.schedule) - 1
        # The tensors that can own Step-1 and Step-2b rows, each with the
        # steps where such a row can be a candidate and a stale flag:
        # stale rows are (re)built once a bottleneck falls in their span.
        self._pools = (
            _Pool(
                "nonsplit_candidates",
                (
                    (tensor.tensor_id, 0, last) if persistent
                    else (tensor.tensor_id, timeline.fwd_end + 1,
                          timeline.free - 1)
                    for tensor, timeline, persistent
                    in cost_model._nonsplit_pool()
                ),
            ),
            _Pool(
                "regen_candidates",
                (
                    (tensor.tensor_id,
                     timeline.bwd_uses[0] - options.prefetch_ops,
                     timeline.free)
                    for _, tensor, timeline in cost_model._regen_pool()
                ) if options.allow_split and options.allow_swap else (),
            ),
        )

        # Whole-tensor rows, one slot each, stored column-wise.
        self._rows: list[CandidateRow | None] = []
        self._free: list[int] = []
        self._dead: list[int] = []
        capacity = 64
        self._alive = np.zeros(capacity, dtype=bool)
        self._lo = np.zeros(capacity, dtype=np.int64)
        self._hi = np.zeros(capacity, dtype=np.int64)
        self._order = np.zeros(capacity, dtype=np.int64)
        self._static = np.zeros(capacity)
        self._swap = np.zeros(capacity, dtype=bool)
        self._transfer = np.zeros(capacity)
        self._pipeline = np.zeros(capacity)
        self._back_pipeline = np.zeros(capacity)
        self._out_lo = np.zeros(capacity, dtype=np.int64)
        self._first_bwd = np.zeros(capacity, dtype=np.int64)
        # ΔM profile windows of every live slot, flat.
        self._w_slot = np.zeros(0, dtype=np.intp)
        self._w_start = np.zeros(0, dtype=np.int64)
        self._w_end = np.zeros(0, dtype=np.int64)
        self._w_bytes = np.zeros(0)

        #: tensor id -> its row slots / the chain configs they read.
        self._slots: dict[int, list[int]] = {}
        self._deps: dict[int, tuple[int, ...]] = {}
        #: config tensor id -> tensors whose rows read it via a chain.
        self._dependants: dict[int, set[int]] = {}
        #: step -> split groups bound to it, and the invalidation indexes
        #: (structural key / chain dependency -> steps).
        self._split: dict[int, list[_Group]] = {}
        self._split_keys: dict[int, tuple[frozenset[int], set[int]]] = {}
        self._split_struct: dict[int, set[int]] = {}
        self._split_chain: dict[int, set[int]] = {}

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, changed: list[int], radius: set[int]) -> None:
        """Drop every row a commit of ``changed`` may have moved.

        ``radius`` is the union of the changed tensors' structural
        dependency radii (which contains the changed tensors).
        """
        victims = set(radius)
        for tid in changed:
            victims |= self._dependants.get(tid, set())
        for tid in victims:
            self._drop_tensor(tid)
        steps: set[int] = set()
        for tid in radius:
            steps |= self._split_struct.get(tid, set())
        for tid in changed:
            steps |= self._split_chain.get(tid, set())
        for step in steps:
            self._drop_split(step)

    def _drop_tensor(self, tid: int) -> None:
        slots = self._slots.pop(tid, None)
        if slots:
            self._alive[slots] = False
            for slot in slots:
                self._rows[slot] = None
            self._dead.extend(slots)
        for dep in self._deps.pop(tid, ()):
            self._dependants[dep].discard(tid)
        for pool in self._pools:
            pool.mark_stale(tid)

    def _drop_split(self, step: int) -> None:
        self._split.pop(step, None)
        struct, chain = self._split_keys.pop(step)
        for tid in struct:
            self._split_struct[tid].discard(step)
        for tid in chain:
            self._split_chain[tid].discard(step)

    # -- (re)building ----------------------------------------------------------

    def _build(self, step: int, plan: Plan) -> None:
        """Build the rows of stale tensors that can be candidates at
        ``step``, and the split batch of ``step`` if it has none."""
        cm = self.cm
        for pool in self._pools:
            tids = pool.take_stale(step)
            if not tids:
                continue
            rows = getattr(cm, pool.method)(step, plan, rows=True, tensors=tids)
            self._add_rows(rows)
            chain: dict[int, set[int]] = {tid: set() for tid in tids}
            for row in rows:
                chain[row.configs[0][0]].update(row.deps)
            for tid, deps in chain.items():
                deps.update(cm.chain_deps(tid))
                deps.update(self._deps.get(tid, ()))
                deps.discard(tid)
                if deps:
                    self._deps[tid] = tuple(deps)
                    for dep in deps:
                        self._dependants.setdefault(dep, set()).add(tid)
        if step not in self._split:
            tensors = cm.graph.tensors
            groups = []
            for row in cm.split_candidates(step, plan, rows=True):
                members = [(tensors[tid], cfg) for tid, cfg in row.configs]
                groups.append(_Group(
                    row, members,
                    cm.group_delta_m_bound(members, plan, step),
                ))
            struct: set[int] = set()
            for op in cm.split_window(step):
                struct.update(op.inputs)
                struct.update(op.outputs)
            chain_deps: set[int] = set()
            for tid in struct:
                chain_deps.update(cm.chain_deps(tid))
            self._split[step] = groups
            self._split_keys[step] = (frozenset(struct), chain_deps)
            for tid in struct:
                self._split_struct.setdefault(tid, set()).add(step)
            for tid in chain_deps:
                self._split_chain.setdefault(tid, set()).add(step)

    def _evaluate(self, group: _Group, step: int, plan: Plan) -> None:
        """Score a split group's exact ΔM at its step (cached until the
        batch is dropped; the configs it read join the batch's keys)."""
        deps: set[int] = set()
        probe = self.cm._probe(plan, dict(group.row.configs))
        group.dm = self.cm.group_delta_m(
            group.members, plan, probe, step, deps,
        )
        chain = self._split_keys[step][1]
        for tid in deps - chain:
            chain.add(tid)
            self._split_chain.setdefault(tid, set()).add(step)

    def _add_rows(self, rows: list[CandidateRow]) -> None:
        if self._dead:
            keep = ~np.isin(self._w_slot, self._dead)
            self._w_slot = self._w_slot[keep]
            self._w_start = self._w_start[keep]
            self._w_end = self._w_end[keep]
            self._w_bytes = self._w_bytes[keep]
            self._free.extend(self._dead)
            self._dead.clear()
        if not rows:
            return
        w_slot: list[int] = []
        w_start: list[int] = []
        w_end: list[int] = []
        w_bytes: list[int] = []
        for row in rows:
            slot = self._free.pop() if self._free else self._new_slot()
            self._rows[slot] = row
            tid = row.configs[0][0]
            self._slots.setdefault(tid, []).append(slot)
            self._alive[slot] = True
            self._lo[slot] = row.lo
            self._hi[slot] = row.hi
            self._order[slot] = row.order
            (static, swap), = row.parts
            self._static[slot] = static
            self._swap[slot] = swap is not None
            if swap is not None:
                (self._transfer[slot], self._pipeline[slot],
                 self._back_pipeline[slot], self._out_lo[slot],
                 self._first_bwd[slot]) = swap
            for start, end, nbytes in row.windows:
                w_slot.append(slot)
                w_start.append(start)
                w_end.append(end)
                w_bytes.append(nbytes)
        self._w_slot = np.concatenate((self._w_slot, w_slot)).astype(np.intp)
        self._w_start = np.concatenate((self._w_start, w_start)).astype(np.int64)
        self._w_end = np.concatenate((self._w_end, w_end)).astype(np.int64)
        self._w_bytes = np.concatenate((self._w_bytes, w_bytes))

    def _new_slot(self) -> int:
        slot = len(self._rows)
        self._rows.append(None)
        if slot == len(self._alive):
            for name in (
                "_alive", "_lo", "_hi", "_order", "_static", "_swap",
                "_transfer", "_pipeline", "_back_pipeline", "_out_lo",
                "_first_bwd",
            ):
                column = getattr(self, name)
                grown = np.zeros(2 * len(column), dtype=column.dtype)
                grown[: len(column)] = column
                setattr(self, name, grown)
        return slot

    # -- scoring and selection ---------------------------------------------------

    def best(
        self,
        step: int,
        plan: Plan,
        tried: set[tuple[frozenset, frozenset]],
        ordering: str = "ratio",
        pool: list[Candidate] | None = None,
    ) -> Candidate | None:
        """The candidate Steps 1-3 of Algorithm 2 commit at ``step``.

        ``pool``, when given, receives every scored candidate in
        generation order (cycle-guarded ones included), for provenance.
        Split groups whose exact ΔM was never needed are scored lazily:
        under the ratio ordering a group is skipped while its ΔT floor
        over its ΔM bound already exceeds the ratio of an untried
        candidate (so it cannot win); provenance scores every group.
        """
        self._build(step, plan)
        rows, order, dm, dt = self._score(step)
        lazy = [
            group for group in self._split.get(step, ())
            if group.dm is None and group.dm_bound > 0
        ]
        if lazy:
            prune = ordering == "ratio" and pool is None
            threshold = (
                self._best_ratio(rows, dm, dt, tried) if prune
                else float("inf")
            )
            if prune:
                lazy.sort(key=_Group.ratio_floor)
            for group in lazy:
                if prune and group.ratio_floor() > threshold:
                    break
                self._evaluate(group, step, plan)
                if group.dm <= 0:
                    continue
                group_dt = self._group_dt(group, step)
                rows.append(group.row)
                order.append(group.row.order)
                dm.append(group.dm)
                dt.append(group_dt)
                ratio = group_dt / group.dm
                if (
                    prune and ratio < threshold
                    and _key(group.row) not in tried
                ):
                    threshold = ratio
        if not rows:
            return None
        order = np.asarray(order, dtype=np.int64)
        dm_arr = np.asarray(dm)
        dt_arr = np.asarray(dt)
        if ordering == "largest":
            ranked = np.lexsort((order, dt_arr, -dm_arr))
        else:
            ratio = dt_arr / dm_arr
            if ordering == "fifo":
                tids = np.fromiter(
                    (row.configs[0][0] for row in rows), np.int64, len(rows),
                )
                ranked = np.lexsort((order, ratio, tids))
            else:
                ranked = np.lexsort((order, -dm_arr, ratio))
        if pool is not None:
            scored = [
                Candidate(rows[i].configs, dm[i], dt[i], prior=rows[i].prior)
                for i in range(len(rows))
            ]
            pool.extend(scored[i] for i in np.argsort(order, kind="stable"))
        for i in ranked.tolist():
            if _key(rows[i]) in tried:
                continue
            if pool is not None:
                return scored[i]
            return Candidate(rows[i].configs, dm[i], dt[i], prior=rows[i].prior)
        return None

    @staticmethod
    def _best_ratio(rows, dm, dt, tried) -> float:
        """Lowest ΔT/ΔM among the untried candidates (inf if none)."""
        if not rows:
            return float("inf")
        ratio = np.asarray(dt) / np.asarray(dm)
        for i in np.argsort(ratio, kind="stable").tolist():
            if _key(rows[i]) not in tried:
                return float(ratio[i])
        return float("inf")

    def _group_dt(self, group: _Group, step: int) -> float:
        dt = 0.0
        for static, swap in group.row.parts:
            if swap is None:
                dt += static
            else:
                dt += self.cm.swap_cost(swap, step) + static
        return dt

    def _score(self, step: int) -> tuple[list, list, list, list]:
        """(rows, generation orders, ΔM, ΔT) of every candidate at
        ``step`` with ΔM > 0, except the split groups whose ΔM was never
        evaluated."""
        cm = self.cm
        count = len(self._rows)
        eligible = (
            self._alive[:count]
            & (self._lo[:count] <= step) & (self._hi[:count] >= step)
        )
        op = cm.graph.ops[cm.schedule[step]]
        for tid in (*op.inputs, *op.outputs):
            for slot in self._slots.get(tid, ()):
                eligible[slot] = False
        covering = (self._w_start <= step) & (self._w_end >= step)
        dm = np.bincount(
            self._w_slot[covering], weights=self._w_bytes[covering],
            minlength=count,
        )
        slots = np.flatnonzero(eligible & (dm > 0))
        dt = self._static[slots]
        swap = self._swap[slots]
        if swap.any():
            dt[swap] = self._swap_cost(slots[swap], step) + dt[swap]
        rows = [self._rows[slot] for slot in slots.tolist()]
        orders = self._order[slots].tolist()
        dms = dm[slots].tolist()
        dts = dt.tolist()
        for group in self._split.get(step, ()):
            if group.dm is not None and group.dm > 0:
                rows.append(group.row)
                orders.append(group.row.order)
                dms.append(group.dm)
                dts.append(self._group_dt(group, step))
        return rows, orders, dms, dts

    def _swap_cost(self, slots: np.ndarray, step: int) -> np.ndarray:
        """:meth:`CostModel.swap_cost` of the given slots, vectorised
        with the same float operations."""
        cm = self.cm
        idle_d2h, idle_h2d = cm._idle_d2h, cm._idle_h2d
        transfer = self._transfer[slots]
        out_lo = self._out_lo[slots]
        idle_out = np.where(
            out_lo <= step - 1, idle_d2h[step] - idle_d2h[out_lo], 0.0,
        )
        out_cost = np.maximum(
            transfer - self._pipeline[slots] - idle_out, 0.0,
        )
        first_bwd = self._first_bwd[slots]
        window_lo = np.maximum(step, first_bwd - cm.options.prefetch_ops)
        idle_in = np.where(
            window_lo <= first_bwd - 1,
            idle_h2d[first_bwd] - idle_h2d[window_lo], 0.0,
        )
        in_cost = np.where(
            first_bwd >= 0,
            np.maximum(transfer - self._back_pipeline[slots] - idle_in, 0.0),
            0.0,
        )
        return out_cost + in_cost


def _key(row: CandidateRow) -> tuple[frozenset, frozenset]:
    """The cycle-guard key (:attr:`Candidate.key`) of a row."""
    return (frozenset(row.prior), frozenset(row.configs))


class _Group:
    """A split-group row with its lazily scored ΔM at its step."""

    __slots__ = ("row", "members", "dm_bound", "dt_floor", "dm")

    def __init__(self, row: CandidateRow, members: list, dm_bound: float):
        self.row = row
        self.members = members
        #: Upper bound of the exact ΔM (see
        #: :meth:`CostModel.group_delta_m_bound`) ...
        self.dm_bound = dm_bound
        #: ... and lower bound of the ΔT: the in-order sum of the static
        #: parts (swap costs are never negative).
        self.dt_floor = 0.0
        for static, _ in row.parts:
            self.dt_floor += static
        #: Exact ΔM once evaluated.
        self.dm: float | None = None

    def ratio_floor(self) -> float:
        """Lower bound of the group's ΔT/ΔM (needs ``dm_bound > 0``)."""
        return self.dt_floor / self.dm_bound


class _Pool:
    """The tensors one candidate method can build rows for."""

    def __init__(self, method: str, spans) -> None:
        #: Name of the cost model's candidate method that builds the rows.
        self.method = method
        spans = list(spans)
        self._tids = [tid for tid, _, _ in spans]
        self._position = {tid: i for i, tid in enumerate(self._tids)}
        self._lo = np.fromiter((lo for _, lo, _ in spans), np.int64, len(spans))
        self._hi = np.fromiter((hi for _, _, hi in spans), np.int64, len(spans))
        self._stale = np.ones(len(spans), dtype=bool)

    def mark_stale(self, tid: int) -> None:
        """Rebuild ``tid``'s rows before they are next scored."""
        position = self._position.get(tid)
        if position is not None:
            self._stale[position] = True

    def take_stale(self, step: int) -> list[int]:
        """Stale tensors whose rows can be candidates at ``step``, now
        marked fresh (the caller builds their rows)."""
        need = np.flatnonzero(
            self._stale & (self._lo <= step) & (self._hi >= step),
        )
        self._stale[need] = False
        return [self._tids[i] for i in need.tolist()]
