"""Tests for the benchmark itself (not the program it measures).

Run with ``python -m pytest perfbench/tests``.
"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import compare
import gen
import hostspeed
import layers
import workloads
from stats import hd_quantile, percentile, samples_beyond, tail_percentile

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fits():
    from repro.models.registry import model_names

    return gen.unoptimised_fits(model_names())


def _inputs(seed, fits):
    from repro.models.registry import model_names

    models = model_names()
    warm = gen.serve_configs(seed, fits)
    return (
        gen.compile_cold_round(seed, 0, models, fits),
        gen.compile_cold_round(seed, 1, models, fits),
        gen.policy_sweep_round(seed, 0, models, fits),
        warm,
        gen.serve_schedule(seed, 5.0, warm, fits),
    )


def test_same_seed_same_inputs_other_seed_differs(fits):
    first, again, other = _inputs(7, fits), _inputs(7, fits), _inputs(8, fits)
    assert first == again
    for mine, theirs in zip(first, other):
        assert mine != theirs


def test_rounds_are_stratified(fits):
    from repro.models.registry import model_names

    models = model_names()
    cold = gen.compile_cold_round(3, 0, models, fits)
    assert sorted((c.model, c.gpu) for c in cold) == sorted(
        (m, g) for m in models for g in gen.GPUS)
    assert sum(c.policy == "tsplit_nosplit" for c in cold) == 6
    for c in cold:
        assert 1.0 <= c.batch / fits[(c.model, c.gpu)] <= 3.0 + 1e-6 or c.batch == 1
    sweep = gen.policy_sweep_round(3, 0, models, fits)
    assert len(sweep) == len(models) * len(gen.SWEEP_POLICIES)
    assert sorted({c.model for c in sweep}) == sorted(models)


def test_serve_schedule_mix_and_fresh_cold_configs(fits):
    warm = gen.serve_configs(0, fits)
    schedule = gen.serve_schedule(0, 60.0, warm, fits)
    dues = [a.due for a in schedule]
    assert dues == sorted(dues) and dues[-1] < 60.0
    params = gen.PARAMS["serve_mixed"]
    assert len(schedule) == round(params["rate_per_s"] * 60.0)
    runs = [a.config for a in schedule if a.mode == "run"]
    assert len(runs) == round(params["mode_mix"]["run"] * len(schedule))
    assert set(runs) == {c for c in warm if c.model in params["run_models"]}
    seen = {(c.model, c.gpu, c.batch) for c in warm}
    cold = [a.config for a in schedule if a.cold]
    assert cold and all(c.model in gen.SMALL_MODELS for c in cold)
    keys = [(c.model, c.gpu, c.batch) for c in cold]
    assert len(set(keys)) == len(keys) and not seen & set(keys)


@pytest.mark.parametrize("n, pct", [(11, 50), (20, 50), (30, 66),
                                    (100, 90), (250, 96), (1000, 99)])
def test_tail_percentile_rule(n, pct):
    assert tail_percentile(n) == pct


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(20, 2000):
        pct = tail_percentile(n)
        assert samples_beyond(n, pct) >= 10
        assert pct == 99 or samples_beyond(n, pct + 1) < 10


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(size=37))
    for pct in (0, 50, 60, 95, 100):
        assert percentile(values, pct) == pytest.approx(
            np.percentile(values, pct))


@pytest.mark.parametrize("n", [30, 80, 120])
def test_runner_tail_follows_the_rule(n):
    # 30, 80 and 120 ops: compile_cold, policy_sweep and serve_mixed at
    # --seconds 30.
    latencies = list(np.random.default_rng(n).exponential(size=n))
    pct = tail_percentile(n)
    assert workloads._tail(latencies) == {
        "tail_pct": pct, "tail_samples_beyond": samples_beyond(n, pct)}
    assert workloads._latency_metrics(latencies)["latency_tail_ms"] == \
        hd_quantile(latencies, pct / 100)


def test_host_scale_is_reference_over_median_kernel_time():
    speed = hostspeed.HostSpeed()
    speed.sample(3)
    assert len(speed.samples) == 3 and gc.isenabled()
    speed.samples = [2 * hostspeed.REFERENCE_S, 3.0, 0.0]
    assert speed.factor() == pytest.approx(0.5)
    latencies = [1.0, 2.0, 4.0, 8.0]
    half = workloads._latency_metrics(latencies, speed.factor())
    for name, value in workloads._latency_metrics(latencies).items():
        assert half[name] == pytest.approx(value / 2)


def _plan_server():
    import http.server
    import threading

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b'{"feasible": true}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.mark.parametrize("dues, gaps", [((0.0, 0.01, 0.02), False),
                                        ((0.0, 1.2), True)])
def test_serve_replay_calibrates_only_in_quiet_gaps(dues, gaps):
    config = gen.Config("vgg16", "rtx_titan", 8, "tsplit")
    schedule = [gen.Arrival(due, config, "plan", False) for due in dues]
    server = _plan_server()
    try:
        speed = hostspeed.HostSpeed()
        results = workloads._replay(*server.server_address[:2], schedule,
                                    timeout_s=10, speed=speed)
    finally:
        server.shutdown()
        server.server_close()
    assert all(r["status"] == 200 for r in results)
    if gaps:  # kernels ran while the second request was far off
        assert len(speed.samples) > workloads.MIN_CALIBRATIONS
    else:  # no quiet gap: the fallback times the kernel afterwards
        assert len(speed.samples) == workloads.MIN_CALIBRATIONS


def test_only_plan_fits_engine_oom_keeps_a_run_correct():
    ok = {"kind": "ok"}
    assert workloads._correct([ok, {"kind": "oom_after_plan"}])
    for kind in checks.FAILED_KINDS:
        if kind != "oom_after_plan":
            assert not workloads._correct([ok, {"kind": kind}])


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, faster, "higher", 0.1) == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    # A win in 9 of 10 pairs by less than the parent's own spread is no gain.
    slightly = [v - 0.01 for v in parent[:9]] + [parent[9] + 0.01]
    assert compare.verdict(parent, slightly, "lower", 0.1) == "unchanged"
    assert compare.win_fraction(list(zip(parent, slightly)), "lower") == 0.9


def test_compare_report_pairs_result_sets(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            metrics = {m["name"]: {"value": (10.0 + seed % 3) * scale,
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            (tmp_path / side / f"w_{seed}.json").write_text(json.dumps({
                "header": {"workload": "compile_cold", "trace": False,
                           "seed": seed},
                "metrics": metrics,
            }))
    lines = compare.report(tmp_path / "parent", tmp_path / "change", spec)
    by_name = {line.split()[0]: line for line in lines[1:]}
    assert by_name["latency_p50_ms"].endswith("improved")
    assert by_name["goodput_ops_s"].endswith("worse")


def test_golden_check_flags_a_perturbed_digest():
    from repro.hardware.gpu import GPU_PRESETS
    from repro.models.registry import build_model
    from repro.pipeline.compile import compile_run

    graph = build_model("vgg16", 32)
    compiled = compile_run(graph, "tsplit", GPU_PRESETS["gtx_1080ti"])
    recorded = checks.outcome(compiled)
    assert checks.golden_deviation(recorded, checks.outcome(compiled)) == ""
    assert checks.golden_deviation(None, recorded) == ""
    perturbed = dict(recorded, digest=recorded["digest"][:-1] + "0"
                     if recorded["digest"][-1] != "0" else recorded["digest"][:-1] + "1")
    assert checks.golden_deviation(perturbed, recorded).startswith("digest")
    slower = dict(recorded, iteration_time=recorded["iteration_time"] * 1.001)
    assert checks.golden_deviation(slower, recorded).startswith("iteration_time")


def test_vgg16_b512_tsplit_on_v100_is_plan_fits_engine_oom():
    from repro.hardware.gpu import GPU_PRESETS
    from repro.models.registry import build_model
    from repro.pipeline.compile import compile_run

    config = gen.Config("vgg16", "v100_16gb", 512, "tsplit")
    compiled = compile_run(build_model("vgg16", 512), "tsplit",
                           GPU_PRESETS["v100_16gb"])
    assert compiled.plan.feasible and not compiled.result.feasible
    assert checks.classify(config, compiled) == "oom_after_plan"
    assert "oom_after_plan" in checks.FAILED_KINDS
    baseline = gen.Config("vgg16", "v100_16gb", 512, "base")
    assert checks.classify(baseline, compiled) == "oom"


def test_layer_tracer_self_time_and_uninstall():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Box.outer
    tracer = layers.LayerTracer()
    tracer.patch(Box, "outer", "a")
    tracer.patch(Box, "inner", "b", lambda args, kwargs, result: tracer.count("n"))
    assert Box().outer() == 2  # disabled: no spans
    assert not tracer.calls
    tracer.enabled = True
    Box().outer()
    assert tracer.calls == {"a": 1, "b": 1} and tracer.counts["n"] == 1
    assert tracer.self_s["a"] + tracer.self_s["b"] == pytest.approx(tracer.top_s)
    assert tracer.incl_s["a"] == pytest.approx(tracer.top_s)
    tracer.uninstall()
    assert Box.outer is original and not tracer.enabled


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
