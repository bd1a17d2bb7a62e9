"""Incremental memory-curve maintenance vs from-scratch simulation.

The planner's greedy loop maintains a :class:`MemoryCurve` across
decisions instead of re-simulating after each one. Its correctness
contract is *exact* equality — every interval is integer bytes, so the
difference-array update must reproduce :func:`simulate_memory` bit for
bit, not approximately.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost_model import CostModelOptions
from repro.core.plan import MemOption, Plan, TensorConfig
from repro.core.planner import PlannerOptions, TsplitPlanner
from repro.core.simulate import MemoryCurve, plan_peak_memory, simulate_memory
from repro.errors import PlanningError
from repro.graph.scheduler import dfs_schedule
from repro.hardware.gpu import GPU_PRESETS
from repro.models.random_net import build_random_cnn
from repro.models.registry import build_model


def replay_decisions(model: str, batch: int, gpu_name: str) -> int:
    """Re-apply a planned decision sequence, checking the curve after
    every decision against a from-scratch simulation."""
    graph = build_model(model, batch)
    gpu = GPU_PRESETS[gpu_name]
    result = TsplitPlanner(gpu).plan(graph)
    assert result.decisions, "planner made no decisions; test is vacuous"

    schedule = result.schedule
    plan = Plan(policy="replay")
    curve = MemoryCurve(graph, schedule, plan)
    np.testing.assert_array_equal(
        curve.values, simulate_memory(graph, schedule, plan),
    )
    for decision in result.decisions:
        old = {tid: plan.config_for(tid) for tid, _ in decision.configs}
        for tid, config in decision.configs:
            plan.set(tid, config)
        for tid, config in decision.configs:
            curve.apply(tid, old[tid], config)
        expected = simulate_memory(graph, schedule, plan)
        np.testing.assert_array_equal(curve.values, expected)
    assert curve.peak() == result.peak_memory
    return len(result.decisions)


class TestDecisionReplay:
    def test_vgg16(self):
        assert replay_decisions("vgg16", 512, "gtx_1080ti") > 0

    def test_bert_large(self):
        assert replay_decisions("bert_large", 64, "gtx_1080ti") > 0


class TestRandomPlans:
    """Property test: arbitrary config mutations on random graphs."""

    OPTIONS = [
        TensorConfig(opt=MemOption.RESIDE),
        TensorConfig(opt=MemOption.SWAP),
        TensorConfig(opt=MemOption.RECOMPUTE),
        TensorConfig(opt=MemOption.RESIDE, p_num=2, dim="sample"),
        TensorConfig(opt=MemOption.SWAP, p_num=4, dim="sample"),
        TensorConfig(opt=MemOption.RECOMPUTE, p_num=2, dim="sample"),
        TensorConfig(opt=MemOption.RESIDE, p_num=2, dim="parameter"),
    ]

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_mutation_sequence(self, seed):
        rng = random.Random(seed)
        graph = build_random_cnn(seed)
        schedule = dfs_schedule(graph)
        plan = Plan(policy="fuzz")
        curve = MemoryCurve(graph, schedule, plan)
        tensor_ids = sorted(graph.tensors)
        for _ in range(30):
            tid = rng.choice(tensor_ids)
            old = plan.config_for(tid)
            new = rng.choice(self.OPTIONS)
            plan.set(tid, new)
            curve.apply(tid, old, new)
            np.testing.assert_array_equal(
                curve.values, simulate_memory(graph, schedule, plan),
            )

    def test_noop_apply_keeps_curve(self):
        graph = build_random_cnn(7)
        schedule = dfs_schedule(graph)
        plan = Plan(policy="fuzz")
        curve = MemoryCurve(graph, schedule, plan)
        before = curve.values.copy()
        tid = sorted(graph.tensors)[0]
        cfg = plan.config_for(tid)
        curve.apply(tid, cfg, cfg)
        np.testing.assert_array_equal(curve.values, before)


class TestPlannerModesAgree:
    """incremental=True and the reference mode must produce identical
    plans: same decision sequence, same configs, same peak."""

    MATRIX = [
        ("vgg16", 512, "gtx_1080ti"),
        ("resnet50", 256, "v100_16gb"),
        ("bert_large", 64, "gtx_1080ti"),
    ]

    @pytest.mark.parametrize("model,batch,gpu_name", MATRIX)
    def test_byte_identical_plans(self, model, batch, gpu_name):
        graph = build_model(model, batch)
        gpu = GPU_PRESETS[gpu_name]
        outcomes = {}
        for incremental in (True, False):
            result = TsplitPlanner(
                gpu, PlannerOptions(incremental=incremental),
            ).plan(graph)
            outcomes[incremental] = (
                [
                    (tid, cfg)
                    for d in result.decisions
                    for tid, cfg in d.configs
                ],
                dict(result.plan.configs),
                result.peak_memory,
            )
        assert outcomes[True] == outcomes[False]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ordering=st.sampled_from(["ratio", "largest", "fifo"]),
        allow_split=st.booleans(),
        evict=st.sampled_from([(True, True), (True, False), (False, True)]),
        budget_frac=st.sampled_from([0.55, 0.8]),
    )
    def test_random_nets_agree_with_reference(
        self, seed, ordering, allow_split, evict, budget_frac,
    ):
        """The candidate table picks exactly what re-enumerating every
        candidate picks — decisions, configs, peak and every decision's
        full rejected pool — on random chain/diamond/branchy nets under
        every victim ordering, with and without splitting, swapping or
        recomputing."""
        graph = build_random_cnn(seed)
        baseline = plan_peak_memory(graph, dfs_schedule(graph), Plan())
        gpu = GPU_PRESETS["v100_16gb"].with_memory(int(baseline * budget_frac))
        allow_swap, allow_recompute = evict
        cost = CostModelOptions(
            min_split_bytes=0, min_evict_bytes=0, allow_split=allow_split,
            allow_swap=allow_swap, allow_recompute=allow_recompute,
        )
        outcomes = [
            _planned(graph, gpu, PlannerOptions(
                cost=cost, ordering=ordering, incremental=incremental,
            ))
            for incremental in (True, False)
        ]
        assert outcomes[0] == outcomes[1]


class _PoolRecordingPlanner(TsplitPlanner):
    """Records every decision's full rejected pool (provenance keeps
    only the best few)."""

    def _rejections(self, accepted, pool, tried):
        rejected = super()._rejections(accepted, pool, tried)
        self.pools.append([
            (c.configs, c.prior, c.delta_m, c.delta_t, reason)
            for c, reason in rejected
        ])
        return rejected


def _planned(graph, gpu, options):
    planner = _PoolRecordingPlanner(gpu, options)
    planner.pools = []
    try:
        result = planner.plan(graph, explain=True)
    except PlanningError as exc:
        return str(exc), planner.pools
    return (
        [(d.configs, d.prior, d.delta_m, d.delta_t) for d in result.decisions],
        dict(result.plan.configs),
        result.peak_memory,
        result.explanation.decisions,
        planner.pools,
    )
