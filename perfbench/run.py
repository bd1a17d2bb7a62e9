"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer metrics. The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it print the run header,
every metric by name with its unit, and every failed op by config. The
full result (header, per-op records, failures) is written to
``perfbench/results/``. ``--record-golden`` rewrites the workload's
golden record from this run's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("compile_cold", "policy_sweep", "serve_mixed")
HASH_SEED = "0"


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Content hash of the program sources (the checkout may not be a
    git repository, so this identifies the build either way)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import gen

    return {
        "benchmark": "perfbench",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": gen.PARAMS[workload],
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden/<workload>.json from this run")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict order, and with them allocation patterns, vary per
        # process; a fixed hash seed for this process and the serve
        # daemon it starts keeps identical runs identical.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.pipeline.compile  # noqa: F401  (timed as set-up)
    import repro.serve  # noqa: F401

    import checks
    import workloads

    import_s = time.perf_counter() - _START
    trace = bool(args.trace)
    if args.workload == "serve_mixed":
        result = workloads.run_serve(args.seed, args.seconds, trace, import_s)
    else:
        result = workloads.run_closed(args.workload, args.seed, args.seconds,
                                      trace, import_s)

    spec = _load_benchmark()
    units = ({m["name"]: m["unit"] for m in spec["per_layer"]} if trace
             else {m["name"]: m["unit"] for m in spec["end_to_end"]})
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    header = run_header(args.workload, args.seed, args.seconds, trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{int(trace)}.json"
    out.write_text(json.dumps({
        "header": header, "metrics": metrics, "detail": result["detail"],
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "failures": result["failures"],
        "records": [{k: v for k, v in r.items() if k != "golden_record"}
                    for r in result["records"]],
    }, indent=1, default=str) + "\n")
    if args.record_golden:
        print(f"golden: {checks.write_golden(args.workload, args.seed, result['records'])}")

    print("header: " + json.dumps(header, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    detail = result["detail"]
    print(f"  tail percentile p{detail['tail_pct']} with "
          f"{detail['tail_samples_beyond']} samples beyond it; "
          f"fail_frac {detail['fail_frac']:.4f}")
    if "host_scale" in detail:
        print(f"  host scale {detail['host_scale']:.4f}: times are at the "
              "reference host speed; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["unscaled"].items()))
    if "module_shares" in detail:
        for module, share in detail["module_shares"].items():
            print(f"  share of traced time  {module:34s} {share:7.1%}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['kind']:15s} {failure['key']}: "
              f"{failure['detail']}")
    print(f"result: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
