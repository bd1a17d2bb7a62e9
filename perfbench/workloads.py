"""The three workloads: compile_cold, policy_sweep and serve_mixed.

Each ``run_*`` function returns a dict with the end-to-end metrics
(untraced) or the per-layer metrics (traced), the per-op records and
the failure listing. Correctness and golden checks run for every op,
outside the timed region.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen
import hostspeed
import layers
from stats import (geomean, hd_quantile, percentile, samples_beyond,
                   tail_percentile)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
#: The serve replay times the calibration kernel only when the next
#: request is at least this far away (a kernel takes ~25-50 ms) ...
CALIBRATION_GAP_S = 0.1
#: ... and waits this long between polls and samples.
CALIBRATION_PAUSE_S = 0.05
#: Fewest kernel timings a serve run's host scale rests on.
MIN_CALIBRATIONS = 5


def _median_time(fn, reps: int = SETUP_REPS):
    """(median seconds, last result) of ``reps`` calls of ``fn``."""
    times, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _finish(config, gpu, graph, compiled, latency_s, golden) -> dict:
    """Classify one compiled op and run its checks (untimed)."""
    outcome = checks.classify(config, compiled)
    record = {
        "key": config.key,
        "config": config.as_dict(),
        "latency_s": latency_s,
        "outcome": outcome,
        "feasible": compiled.result.feasible,
        "failure": compiled.result.failure[:200],
        "issues": [],
    }
    if compiled.result.feasible:
        trace = compiled.result.trace
        record["throughput"] = trace.throughput
        record["stall_frac"] = trace.stall_fraction
        record["issues"] = checks.invariant_issues(graph, gpu, compiled)
    record["golden_record"] = checks.outcome(compiled)
    deviation = checks.golden_deviation(golden.get(config.key),
                                        record["golden_record"])
    if record["issues"]:
        record["kind"] = "check"
    elif deviation:
        record["kind"] = "golden"
        record["issues"] = [deviation]
    elif outcome == "oom_after_plan":
        record["kind"] = "oom_after_plan"
    else:
        record["kind"] = outcome
    return record


def _untraced(state, fn, *args):
    """Call ``fn`` with the tracer paused: checks and per-point set-up
    are not part of any op."""
    tracer = state["tracer"]
    was, tracer.enabled = tracer.enabled, False
    try:
        return fn(*args)
    finally:
        tracer.enabled = was


def _exception_record(config, latency_s, exc) -> dict:
    return {
        "key": config.key, "config": config.as_dict(),
        "latency_s": latency_s, "outcome": "exception", "kind": "exception",
        "feasible": False, "failure": f"{type(exc).__name__}: {exc}"[:200],
        "issues": [], "golden_record": None,
    }


def _compile_cold_op(config, state) -> dict:
    from repro.hardware.gpu import GPU_PRESETS
    from repro.models import registry
    from repro.pipeline.compile import compile_run

    gpu = GPU_PRESETS[config.gpu]
    start = time.perf_counter()
    try:
        graph = registry.build_model(config.model, config.batch)
        compiled = compile_run(graph, config.policy, gpu)
    except Exception as exc:  # an op failure is a result, not a crash
        return _exception_record(config, time.perf_counter() - start, exc)
    latency = time.perf_counter() - start
    return _untraced(state, _finish, config, gpu, graph, compiled, latency,
                     state["golden"])


def _policy_sweep_op(config, state) -> dict:
    from repro.hardware.gpu import GPU_PRESETS
    from repro.models import registry
    from repro.pipeline.compile import compile_run

    gpu = GPU_PRESETS[config.gpu]
    point = (config.model, config.gpu, config.batch)
    if state.get("point") != point:
        # One graph per sweep point, built outside the timed ops.
        state["graph"] = _untraced(state, registry.build_model,
                                   config.model, config.batch)
        state["point"] = point
    graph = state["graph"]
    start = time.perf_counter()
    try:
        compiled = compile_run(
            graph, config.policy, gpu, cache=state["cache"],
            iterations=gen.PARAMS["policy_sweep"]["iterations"],
            address_plan=True,
        )
    except Exception as exc:
        return _exception_record(config, time.perf_counter() - start, exc)
    latency = time.perf_counter() - start
    return _untraced(state, _finish, config, gpu, graph, compiled, latency,
                     state["golden"])


def _fresh_state(workload: str, golden, tracer) -> dict:
    from repro.pipeline.cache import CompileCache

    state = {"golden": golden, "tracer": tracer}
    if workload == "policy_sweep":
        state["cache"] = CompileCache()
    return state


def _closed_loop(rounds, op, state, tracer, trace_on, speed=None):
    """Run every op of every round, in order, as one caller; time the
    calibration kernel before each op when given a ``speed``."""
    records = []
    tracer.enabled = trace_on
    try:
        for index, configs in enumerate(rounds):
            for config in configs:
                if speed is not None:
                    speed.sample()
                record = op(config, state)
                record["round"] = index
                records.append(record)
    finally:
        tracer.enabled = False
    return records


def _failures(records) -> list[dict]:
    return [
        {"key": r["key"], "kind": r["kind"],
         "detail": "; ".join(r["issues"]) or r["failure"]}
        for r in records if r["kind"] in checks.FAILED_KINDS
    ]


def _quality(records) -> dict:
    n = len(records)
    failed = sum(r["kind"] in checks.FAILED_KINDS for r in records)
    throughputs = {r["key"]: r["throughput"] for r in records
                   if r.get("throughput")}
    return {
        "attempted": n,
        "failed": failed,
        "ok_frac": 1.0 - failed / n if n else 0.0,
        "fail_frac": failed / n if n else 0.0,
        "fit_frac": sum(r["feasible"] for r in records) / n if n else 0.0,
        "sim_throughput_geomean": geomean(throughputs.values()),
    }


def _tail(latencies_ms) -> dict:
    """The tail percentile for this many samples and its sample count."""
    pct = tail_percentile(len(latencies_ms))
    return {"tail_pct": pct,
            "tail_samples_beyond": samples_beyond(len(latencies_ms), pct)}


def _latency_metrics(latencies_ms, scale: float = 1.0) -> dict:
    """p50 and tail of op time, times the host-speed ``scale``."""
    return {
        "latency_p50_ms": scale * hd_quantile(latencies_ms, 0.5),
        "latency_tail_ms": scale * hd_quantile(
            latencies_ms, tail_percentile(len(latencies_ms)) / 100),
    }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _correct(records) -> bool:
    """False on any failed op other than a plan-fits/engine-OOM: that
    known planner defect is a result (listed, and pinned by the golden
    record where one exists), every other failure a wrong output."""
    return not any(r["kind"] in checks.FAILED_KINDS
                   and r["kind"] != "oom_after_plan" for r in records)


def run_closed(workload: str, seed: int, seconds: float, trace: bool,
               import_s: float) -> dict:
    """compile_cold or policy_sweep: one caller, whole rounds."""
    from repro.models.registry import model_names

    golden = checks.load_golden(workload)

    def setup():
        fits = gen.unoptimised_fits(model_names())
        make = (gen.compile_cold_round if workload == "compile_cold"
                else gen.policy_sweep_round)
        return [make(seed, i, model_names(), fits)
                for i in range(gen.rounds_for(workload, seconds))]

    gen_s, rounds = _median_time(setup)
    op = _compile_cold_op if workload == "compile_cold" else _policy_sweep_op
    tracer = layers.LayerTracer()
    speed, traced_speed = hostspeed.HostSpeed(), hostspeed.HostSpeed()
    if trace:
        layers.install(tracer)
    try:
        state = _fresh_state(workload, golden, tracer)
        records = _closed_loop(rounds, op, state, tracer, False, speed)
        traced = []
        if trace:
            state = _fresh_state(workload, golden, tracer)
            traced = _closed_loop(rounds, op, state, tracer, True,
                                  traced_speed)
    finally:
        tracer.uninstall()

    all_records = records + traced
    quality = _quality(records)
    timed = sum(r["latency_s"] for r in records)
    latencies = [r["latency_s"] * 1e3 for r in records]
    scale = speed.factor()
    goodput = (quality["attempted"] - quality["failed"]) / timed
    result = {
        "records": all_records,
        "failures": _failures(all_records),
        "correct": _correct(all_records),
        "attempted": len(all_records),
        "failed": sum(r["kind"] in checks.FAILED_KINDS for r in all_records),
        "detail": {
            **quality,
            "timed_s": timed,
            "rounds": len(rounds),
            **_tail(latencies),
            "import_s": import_s,
            "generation_s": gen_s,
            "host_scale": scale,
            "unscaled": {"setup_s": import_s + gen_s, "goodput_ops_s": goodput,
                         **_latency_metrics(latencies)},
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": scale * (import_s + gen_s),
            "goodput_ops_s": goodput / scale,
            **_latency_metrics(latencies, scale),
            "ok_frac": quality["ok_frac"],
            "fit_frac": quality["fit_frac"],
            "sim_throughput_geomean": quality["sim_throughput_geomean"],
            "peak_rss_mb": _self_rss_mb(),
        }
        return result

    traced_time = sum(r["latency_s"] for r in traced)
    stalls = [r["stall_frac"] for r in traced if "stall_frac" in r]
    metrics = _zero_layer_metrics()
    metrics.update(layers.layer_metrics(tracer, len(traced)))
    metrics.update({
        "runtime.engine.oom_after_plan":
            sum(r["kind"] == "oom_after_plan" for r in traced),
        "runtime.engine.sim_stall_frac":
            statistics.fmean(stalls) if stalls else 0.0,
        "unattributed_frac": 1.0 - tracer.top_s / traced_time,
        # Both passes at the reference host speed, so host drift
        # between them does not read as overhead.
        "trace_overhead_frac": (traced_time * traced_speed.factor())
        / (timed * scale) - 1.0,
    })
    result["metrics"] = metrics
    result["detail"]["module_shares"] = layers.module_shares(tracer)
    return result


def _zero_layer_metrics() -> dict:
    return {name: 0.0 for name in layers.PER_LAYER}


# -- serve_mixed ----------------------------------------------------------

def _http_json(conn, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data)


def _wait_healthy(host, port, deadline) -> None:
    while True:
        conn = http.client.HTTPConnection(host, port, timeout=2)
        try:
            status, _ = _http_json(conn, "GET", "/healthz")
            if status == 200:
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        finally:
            conn.close()
        if time.monotonic() > deadline:
            raise RuntimeError("serve daemon never answered /healthz")
        time.sleep(0.02)


class Daemon:
    """``python -m repro serve --workers 2`` in its own process."""

    def __init__(self) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        workers = str(gen.PARAMS["serve_mixed"]["workers"])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", workers,
             "--port", "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.host, self.port = self._await_url(time.monotonic() + 60)
            _wait_healthy(self.host, self.port, time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)

    def _await_url(self, deadline):
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("serve daemon printed no URL") from None
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon printed no URL")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._reader.join(timeout=20)


class InProcessDaemon:
    """The same service in this process, so layer wrappers see it."""

    def __init__(self) -> None:
        from repro.serve import PlanService, ServeConfig
        from repro.serve.http import start_server

        self.service = PlanService(ServeConfig(
            workers=gen.PARAMS["serve_mixed"]["workers"],
        ))
        self.server, self._thread = start_server(self.service, port=0)
        self.host, self.port = self.server.server_address[:2]

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def stop(self) -> None:
        self.server.drain()
        self.server.server_close()
        self._thread.join(timeout=20)


def _payload(arrival) -> dict:
    config = arrival.config
    return {"model": config.model, "policy": config.policy,
            "gpu": config.gpu, "batch": config.batch, "mode": arrival.mode}


def _replay(host, port, schedule, timeout_s: float,
            speed=None) -> list[dict]:
    """Open loop: each arrival is sent at its due time by whichever of
    the two sender connections is free; times run from the due time.

    With a ``speed``, the main thread times the calibration kernel in
    the schedule's quiet gaps: only while no request is in flight and
    the next one is at least ``CALIBRATION_GAP_S`` away, so the kernel
    delays no request and competes with no daemon work.
    """
    results: list = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    # Per sender: the due time it waits for; None while it has a
    # request in flight or is between requests; inf once it is done.
    waiting: list = [None, None]
    start = time.perf_counter() + 0.05

    def sender(slot: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                    waiting[slot] = (math.inf if index is None
                                     else start + schedule[index].due)
                if index is None:
                    return
                arrival = schedule[index]
                due = start + arrival.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    waiting[slot] = None
                sent = time.perf_counter()
                try:
                    status, body = _http_json(conn, "POST", "/plan",
                                              _payload(arrival))
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, body = None, {"error": f"{type(exc).__name__}: {exc}"}
                    conn.close()
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=timeout_s)
                done = time.perf_counter()
                results[index] = {"due": due, "sent": sent, "done": done,
                                  "status": status, "body": body}
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, args=(slot,))
               for slot in range(2)]
    for thread in threads:
        thread.start()
    while speed is not None and any(t.is_alive() for t in threads):
        with lock:
            quiet = (min(waiting) - time.perf_counter()
                     if None not in waiting else 0.0)
        if CALIBRATION_GAP_S < quiet < math.inf:
            speed.sample()
        time.sleep(CALIBRATION_PAUSE_S)
    for thread in threads:
        thread.join()
    if speed is not None and len(speed.samples) < MIN_CALIBRATIONS:
        # A schedule too dense for quiet gaps: calibrate after it.
        speed.sample(MIN_CALIBRATIONS - len(speed.samples))
    return results


def _direct(config) -> dict:
    """Reference outputs of a direct ``compile_run``, checked like any
    closed-loop op."""
    from repro.hardware.gpu import GPU_PRESETS
    from repro.models.registry import build_model
    from repro.pipeline.compile import compile_run

    gpu = GPU_PRESETS[config.gpu]
    graph = build_model(config.model, config.batch)
    record = _finish(config, gpu, graph,
                     compile_run(graph, config.policy, gpu), 0.0, {})
    return {**record["golden_record"], **record}


def _warm(host, port, configs) -> None:
    """Plan every warm config once through the daemon (2 connections)."""
    pending = list(configs)
    lock = threading.Lock()

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    config = pending.pop()
                _http_json(conn, "POST", "/plan", {
                    "model": config.model, "policy": config.policy,
                    "gpu": config.gpu, "batch": config.batch, "mode": "plan",
                })
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _serve_record(arrival, result, reference, golden, limit_ms) -> dict:
    config = arrival.config
    key = f"{config.key}/{arrival.mode}"
    body = result["body"]
    latency_ms = (result["done"] - result["due"]) * 1e3
    record = {
        "key": key, "config": config.as_dict(), "mode": arrival.mode,
        "cold": arrival.cold, "latency_s": latency_ms / 1e3,
        "late_ms": (result["sent"] - result["due"]) * 1e3,
        "client_ms": (result["done"] - result["sent"]) * 1e3,
        "elapsed_ms": body.get("elapsed_ms"), "status": result["status"],
        "feasible": bool(body.get("feasible")), "issues": [],
        "failure": str(body.get("failure") or body.get("error") or "")[:200],
    }
    if result["status"] != 200:
        record["kind"] = "http"
        return record
    got = {"digest": body.get("plan_digest"), "feasible": body.get("feasible")}
    if arrival.mode == "run" and body.get("feasible"):
        got["iteration_time"] = body.get("iteration_time")
        got["peak_bytes"] = body.get("peak_memory")
        record["throughput"] = body.get("throughput")
    record["golden_record"] = got
    want = {k: reference[k] for k in ("digest", "feasible")}
    if arrival.mode == "run":
        want["iteration_time"] = reference["iteration_time"]
        want["peak_bytes"] = reference["peak_bytes"]
    if arrival.mode == "plan":
        # Plan mode stops before the engine: "feasible" is the plan's.
        want["feasible"] = reference["outcome"] in ("ran", "oom",
                                                    "oom_after_plan")
    mismatch = checks.golden_deviation(want, got)
    deviation = checks.golden_deviation(golden.get(key), got)
    if reference["issues"]:
        record["kind"], record["issues"] = "check", reference["issues"]
    elif mismatch:
        record["kind"], record["issues"] = "digest", [f"served vs direct {mismatch}"]
    elif deviation:
        record["kind"], record["issues"] = "golden", [deviation]
    elif reference["outcome"] == "oom_after_plan":
        record["kind"] = "oom_after_plan"
    else:
        record["kind"] = "ok" if record["feasible"] else "infeasible"
    record["within_limit"] = latency_ms <= limit_ms
    return record


def run_serve(seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from repro.models.registry import model_names

    params = gen.PARAMS["serve_mixed"]
    limit_ms = params["latency_limit_ms"]
    golden = checks.load_golden("serve_mixed")

    def generate():
        fits = gen.unoptimised_fits(model_names(), ("rtx_titan", "v100_16gb"))
        warm = gen.serve_configs(seed, fits)
        return warm, gen.serve_schedule(seed, seconds, warm, fits)

    gen_s, (warm, schedule) = _median_time(generate)
    boot_times = []
    daemon = None
    tracer = layers.LayerTracer()
    try:
        if trace:
            layers.install(tracer)
            start = time.perf_counter()
            daemon = InProcessDaemon()
            boot_times.append(time.perf_counter() - start)
        else:
            for attempt in range(SETUP_REPS):
                start = time.perf_counter()
                daemon = Daemon()
                boot_times.append(time.perf_counter() - start)
                if attempt < SETUP_REPS - 1:
                    daemon.stop()
                    daemon = None
        # Warm the daemon's cache, then compute the direct references:
        # one after the other, so neither slows the other down.
        start = time.perf_counter()
        _warm(daemon.host, daemon.port, warm)
        warm_s = time.perf_counter() - start
        start = time.perf_counter()
        references = {c.key: _direct(c) for c in warm}
        reference_s = time.perf_counter() - start

        stats_before = _stats(daemon)
        tracer.enabled = trace
        speed = hostspeed.HostSpeed()
        results = _replay(daemon.host, daemon.port, schedule, timeout_s=60,
                          speed=None if trace else speed)
        tracer.enabled = False
        stats_after = _stats(daemon)
        untraced = None
        if trace:
            # The same schedule again, untraced, for the overhead.
            untraced = _replay(daemon.host, daemon.port, schedule, 60)
        rss = daemon.peak_rss_mb()
    finally:
        tracer.uninstall()
        if daemon is not None:
            daemon.stop()

    for arrival in schedule:
        if arrival.cold:
            references[arrival.config.key] = _direct(arrival.config)
    records = [
        _serve_record(a, r, references[a.config.key], golden, limit_ms)
        for a, r in zip(schedule, results)
    ]
    n = len(records)
    # Goodput is over the measured span: schedule start to the last
    # completion, so a backlog that outlasts the schedule lowers it.
    span_s = max(r["done"] for r in results) - (results[0]["due"] - schedule[0].due)
    quality = _quality(records)
    within = sum(r.get("within_limit", False) for r in records
                 if r["kind"] not in checks.FAILED_KINDS)
    latencies = [r["latency_s"] * 1e3 for r in records]
    setup_s = import_s + gen_s + statistics.median(boot_times) + warm_s \
        + reference_s
    handle = [r["elapsed_ms"] for r in records if r["elapsed_ms"] is not None]
    overhead = [r["client_ms"] - r["elapsed_ms"] for r in records
                if r["elapsed_ms"] is not None]
    serve_layers = {
        "serve.service.handle_ms.p50": percentile(handle, 50),
        "serve.service.handle_ms.p99": percentile(handle, 99),
        "serve.service.coalesced_frac":
            (stats_after["coalescing"]["joins"]
             - stats_before["coalescing"]["joins"]) / n,
        "serve.service.rejected": sum(
            stats_after["admission"][k] - stats_before["admission"][k]
            for k in ("rejected_queue", "rejected_tenant")),
        "serve.http.overhead_ms.p50": percentile(overhead, 50),
        "serve.http.overhead_ms.p99": percentile(overhead, 99),
        "loadgen.late_ms.p99": percentile([r["late_ms"] for r in records], 99),
    }
    result = {
        "records": records,
        "failures": _failures(records),
        "correct": _correct(records),
        "attempted": n,
        "failed": quality["failed"],
        "detail": {
            **quality, **serve_layers,
            "requests_within_limit": within,
            "cold_requests": sum(a.cold for a in schedule),
            "run_requests": sum(a.mode == "run" for a in schedule),
            **_tail(latencies),
            "import_s": import_s, "generation_s": gen_s,
            "boot_s": boot_times, "warm_s": warm_s,
            "reference_s": reference_s,
        },
    }
    if not trace:
        scale = speed.factor()
        result["detail"].update({
            "host_scale": scale, "host_samples": len(speed.samples),
            "unscaled": {"setup_s": setup_s, **_latency_metrics(latencies)},
        })
        result["metrics"] = {
            "setup_s": scale * setup_s,
            # Requests per second of the wall-clock schedule: the offered
            # rate, not host speed, sets it, so it is not scaled.
            "goodput_ops_s": within / span_s,
            **_latency_metrics(latencies, scale),
            "ok_frac": quality["ok_frac"],
            "fit_frac": quality["fit_frac"],
            "sim_throughput_geomean": quality["sim_throughput_geomean"],
            "peak_rss_mb": rss,
        }
        return result

    warm_elapsed = [r["body"].get("elapsed_ms") for a, r in zip(schedule, results)
                    if not a.cold and r["status"] == 200]
    base_elapsed = [r["body"].get("elapsed_ms") for a, r in zip(schedule, untraced)
                    if not a.cold and r["status"] == 200]
    http_s = tracer.incl_s.get("serve.http", 0.0)
    client_s = sum(r["client_ms"] for r in records) / 1e3
    handle_s = tracer.incl_s.get("serve.service.handle", 0.0)
    compute_s = tracer.incl_s.get("serve.service.compute", 0.0)
    # Handler threads wait while a worker computes: count that wait,
    # not the compute twice.
    tracer.self_s["serve.service.handle"] -= compute_s
    metrics = _zero_layer_metrics()
    metrics.update(layers.layer_metrics(tracer, n))
    metrics.update(serve_layers)
    stalls = [references[a.config.key]["stall_frac"] for a in schedule
              if a.mode == "run" and "stall_frac" in references[a.config.key]]
    metrics.update({
        "serve.service.wait_frac": 1.0 - compute_s / handle_s if handle_s else 0.0,
        "runtime.engine.oom_after_plan":
            sum(r["kind"] == "oom_after_plan" for r in records),
        "runtime.engine.sim_stall_frac":
            statistics.fmean(stalls) if stalls else 0.0,
        "unattributed_frac": 1.0 - http_s / client_s if client_s else 0.0,
        "trace_overhead_frac":
            statistics.fmean(warm_elapsed) / statistics.fmean(base_elapsed) - 1.0,
    })
    result["metrics"] = metrics
    result["detail"]["module_shares"] = layers.module_shares(tracer)
    return result


def _stats(daemon) -> dict:
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=30)
    try:
        return _http_json(conn, "GET", "/stats")[1]
    finally:
        conn.close()
