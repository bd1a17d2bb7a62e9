"""Correctness checks, op classification and the golden record.

All of it runs outside the timed region. Each feasible op must satisfy
three invariants: the allocation log's chronological peak equals the
engine's peak, the peak fits the device, and the lowered program
verifies clean. An op fails when it raised, broke a check, deviated
from the golden record, or — for a budget-searching planner — planned
"fits" and then ran out of memory in the engine. A planner refusing a
config it cannot fit is a correct answer, not a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from gen import BUDGET_SEARCHING

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Op outcomes that count as failed.
FAILED_KINDS = ("exception", "oom_after_plan", "check", "golden", "http",
                "digest")


def classify(config, compiled) -> str:
    """``ran``, ``refused`` (planner said no), ``oom`` (a baseline's
    plan did not fit — a correct answer) or ``oom_after_plan``."""
    if compiled.result.feasible:
        return "ran"
    if not compiled.plan.feasible:
        return "refused"
    if config.policy in BUDGET_SEARCHING:
        return "oom_after_plan"
    return "oom"


def invariant_issues(graph, gpu, compiled) -> list[str]:
    """The three per-op invariants (feasible ops only)."""
    from repro.analysis.allocator_replay import chronological_peak
    from repro.core.verify import verify_program

    trace = compiled.result.trace
    issues = []
    replay_peak = chronological_peak(trace)
    if replay_peak != trace.peak_memory:
        issues.append(
            f"chronological_peak {replay_peak} != peak_memory "
            f"{trace.peak_memory}"
        )
    if trace.peak_memory > gpu.memory_bytes:
        issues.append(
            f"peak {trace.peak_memory} exceeds capacity {gpu.memory_bytes}"
        )
    problems = verify_program(graph, compiled.lowered.program)
    if problems:
        issues.append(f"verify_program: {problems[0]} "
                      f"(+{len(problems) - 1} more)")
    return issues


def outcome(compiled) -> dict:
    """The golden-recorded outputs of one compiled op."""
    from repro.serve.service import plan_digest

    result = compiled.result
    trace = result.trace
    return {
        "digest": plan_digest(result.plan or compiled.plan.plan),
        "feasible": result.feasible,
        "iteration_time": trace.iteration_time if trace else None,
        "peak_bytes": trace.peak_memory if trace else None,
    }


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["ops"]


def golden_deviation(expected: dict | None, got: dict) -> str:
    """Empty when ``got`` matches the record (or none exists)."""
    if expected is None:
        return ""
    for field in ("digest", "feasible", "peak_bytes"):
        if field in expected and expected[field] != got.get(field):
            return f"{field}: golden {expected[field]!r} got {got.get(field)!r}"
    want, have = expected.get("iteration_time"), got.get("iteration_time")
    if want is not None and (
        have is None or not math.isclose(want, have, rel_tol=1e-9)
    ):
        return f"iteration_time: golden {want!r} got {have!r}"
    return ""


def write_golden(workload: str, seed: int, records: list[dict]) -> Path:
    """Record every op's outputs, keyed by config, for this seed."""
    ops = {}
    for record in records:
        if record.get("golden_record") is not None:
            ops[record["key"]] = record["golden_record"]
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "ops": ops},
        indent=1, sort_keys=True,
    ) + "\n")
    return path
