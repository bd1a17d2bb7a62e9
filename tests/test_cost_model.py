"""Cost models: ΔM / ΔT for swap, recompute and split (Eq. 2-6)."""

import random

import numpy as np
import pytest

from repro.core.cost_model import CostModel, CostModelOptions
from repro.core.plan import MemOption, Plan, TensorConfig
from repro.core.profiler import Profiler
from repro.core.simulate import simulate_memory, tensor_timeline
from repro.graph.liveness import compute_liveness
from repro.graph.scheduler import dfs_schedule
from repro.graph.tensor import DIM_SAMPLE
from tests.conftest import BIG_GPU, build_tiny_cnn


@pytest.fixture
def cm_setup():
    graph = build_tiny_cnn(batch=16)
    schedule = dfs_schedule(graph)
    profile = Profiler(BIG_GPU).profile(graph)
    options = CostModelOptions(min_split_bytes=0, min_evict_bytes=0)
    cm = CostModel(graph, schedule, profile, options)
    plan = Plan()
    cm.refresh(plan)
    return graph, schedule, cm, plan


def backward_bottleneck(graph, schedule):
    """A step in the backward region (last quarter of the schedule)."""
    return int(len(schedule) * 3 // 4)


class TestSwapCost:
    def test_delta_m_equals_size_mid_gap(self, cm_setup):
        """Equation 2: ΔM of swap on a live tensor is its full size."""
        graph, schedule, cm, plan = cm_setup
        liveness = cm.liveness
        tensor = next(
            t for t in graph.activations()
            if tensor_timeline(graph, liveness, t)
            and tensor_timeline(graph, liveness, t).bwd_uses
        )
        timeline = tensor_timeline(graph, liveness, tensor)
        step = timeline.fwd_end + 2
        if step >= timeline.bwd_uses[0] - cm.options.prefetch_ops:
            pytest.skip("gap too narrow in tiny model")
        probe = plan.copy()
        cfg = TensorConfig(opt=MemOption.SWAP)
        probe.set(tensor.tensor_id, cfg)
        dm = cm.group_delta_m([(tensor, cfg)], plan, probe, step)
        assert dm == pytest.approx(tensor.size_bytes)

    def test_swap_dt_nonnegative(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        for tensor in graph.activations():
            if cm.timeline(tensor.tensor_id) is None:
                continue
            assert cm.swap_delta_t(tensor, len(schedule) // 2) >= 0.0

    def test_swap_dt_shrinks_with_more_idle_pcie(self, cm_setup):
        """A later bottleneck gives the swap-out more window to hide in
        (Equation 3's idle-capacity sum grows)."""
        graph, schedule, cm, plan = cm_setup
        tensor = max(graph.activations(), key=lambda t: t.size_bytes)
        early = cm.swap_delta_t(tensor, cm.timeline(tensor.tensor_id).fwd_end + 1)
        late = cm.swap_delta_t(tensor, len(schedule) - 1)
        assert late <= early + 1e-12


class TestRecomputeCost:
    def test_recompute_dt_is_chain_time(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        relu_out = next(
            t for t in graph.activations() if t.name == "relu1/out"
        )
        dt = cm.recompute_delta_t(relu_out, plan)
        relu_op = graph.ops[relu_out.producer]
        assert dt >= cm.profile.op_time(relu_op.op_id)

    def test_recompute_dt_grows_with_evicted_ancestors(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        relu2 = next(t for t in graph.activations() if t.name == "relu2/out")
        conv2 = next(t for t in graph.activations() if t.name == "conv2/out")
        base_dt = cm.recompute_delta_t(relu2, plan)
        deeper = plan.copy()
        deeper.set(conv2.tensor_id, TensorConfig(opt=MemOption.RECOMPUTE))
        assert cm.recompute_delta_t(relu2, deeper) >= base_dt


class TestPcieSimulation:
    def test_idle_capacity_shrinks_with_swaps(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        full_idle = cm.idle_d2h(0, len(schedule) - 1)
        swapped = plan.copy()
        for t in graph.activations():
            timeline = cm.timeline(t.tensor_id)
            if timeline and timeline.bwd_uses:
                swapped.set(t.tensor_id, TensorConfig(opt=MemOption.SWAP))
        cm.refresh(swapped)
        assert cm.idle_d2h(0, len(schedule) - 1) < full_idle
        cm.refresh(plan)

    def test_mark_busy_matches_per_request_loop(self, cm_setup):
        """The vectorised busy accumulation adds the same floats in the
        same order as distributing each serial transfer op by op."""
        graph, schedule, cm, plan = cm_setup
        begin, steps = cm.op_begin, len(schedule)
        rng = random.Random(7)
        starts, ends = [], []
        clock = -begin[-1] / 10  # the first transfers start before op 0
        for _ in range(200):
            # Queued back to back or after a gap; some end past the last
            # op, several short ones share an op.
            if rng.random() < 0.3:
                clock = max(clock, rng.uniform(-0.1, 1.2) * begin[-1])
            starts.append(clock)
            clock += rng.uniform(0, 0.05) * begin[-1]
            ends.append(clock)
        expected = np.zeros(steps)
        for start, end in zip(starts, ends):
            lo = int(np.searchsorted(begin, start, side="right") - 1)
            pos = max(0, min(lo, steps - 1))
            while pos < steps and begin[pos] < end:
                seg = min(end, begin[pos + 1]) - max(start, begin[pos])
                if seg > 0:
                    expected[pos] += seg
                pos += 1
        busy = np.zeros(steps)
        cm._mark_busy(busy, np.array(starts), np.array(ends))
        assert expected.any()
        np.testing.assert_array_equal(busy, expected)

    def test_idle_empty_range(self, cm_setup):
        _, _, cm, _ = cm_setup
        assert cm.idle_d2h(5, 4) == 0.0

    def test_refresh_updates_op_times_with_splits(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        base_total = cm.op_times.sum()
        conv = next(op for op in graph.ops.values() if op.name == "conv1")
        split_plan = plan.copy()
        split_plan.set(
            conv.outputs[0], TensorConfig(p_num=4, dim=DIM_SAMPLE),
        )
        cm.refresh(split_plan)
        assert cm.op_times.sum() > base_total
        cm.refresh(plan)


class TestCandidates:
    def test_nonsplit_candidates_exclude_op_locals(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        step = backward_bottleneck(graph, schedule)
        op = graph.ops[schedule[step]]
        local = set(op.inputs) | set(op.outputs)
        for cand in cm.nonsplit_candidates(step, plan):
            assert cand.configs[0][0] not in local

    def test_nonsplit_candidates_positive_dm(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        step = backward_bottleneck(graph, schedule)
        for cand in cm.nonsplit_candidates(step, plan):
            assert cand.delta_m > 0
            assert cand.delta_t >= 0

    def test_split_candidates_are_groups(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        found_group = False
        for step in range(len(schedule)):
            for cand in cm.split_candidates(step, plan):
                assert all(cfg.is_split or cfg.opt is MemOption.RESIDE
                           for _, cfg in cand.configs)
                if len(cand.configs) > 1:
                    found_group = True
        assert found_group

    def test_candidate_ratio_ordering(self, cm_setup):
        graph, schedule, cm, plan = cm_setup
        step = backward_bottleneck(graph, schedule)
        for cand in cm.nonsplit_candidates(step, plan):
            assert cand.ratio == pytest.approx(
                cand.delta_t / cand.delta_m,
            )

    def test_zero_dm_candidate_has_infinite_ratio(self):
        from repro.core.cost_model import Candidate

        cand = Candidate(((0, TensorConfig()),), delta_m=0.0, delta_t=1.0)
        assert cand.ratio == float("inf")

    def test_candidate_key_distinguishes_prior(self):
        from repro.core.cost_model import Candidate

        cfg = TensorConfig(opt=MemOption.SWAP)
        a = Candidate(((0, cfg),), 1.0, 1.0, prior=((0, TensorConfig()),))
        b = Candidate(((0, cfg),), 1.0, 1.0, prior=((0, cfg),))
        assert a.key != b.key


class TestConsistencyWithSimulate:
    def test_contribution_matches_curve_decomposition(self, cm_setup):
        """Summing per-tensor contributions reproduces the curve minus
        workspace — the invariant that keeps candidate scoring honest."""
        graph, schedule, cm, plan = cm_setup
        liveness = compute_liveness(graph, schedule)
        curve = simulate_memory(graph, schedule, plan, liveness)
        for step in (0, len(schedule) // 2, len(schedule) - 1):
            total = sum(
                cm.contribution(t, plan, step)
                for t in graph.tensors.values()
            )
            workspace = graph.ops[schedule[step]].workspace_bytes
            assert total + workspace == pytest.approx(curve[step])
