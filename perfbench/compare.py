"""Compare two sets of benchmark results: parent commit vs change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``run.py`` result files (``perfbench/results/``
copied aside after running each commit). For every workload and
end-to-end metric it prints both sides' median and quartiles, the
fraction of seed-matched pairs the change wins, and a verdict:

* ``improved``: the change wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ, in the better direction, by more
  than the parent's own interquartile distance;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: neither, but the run-to-run spread of either side is
  wider than the bound — unless every change run reads better than
  every parent run, which is ``unchanged``;
* ``unchanged``: otherwise.

Traced results (``--trace 1``) are printed as per-layer medians side
by side with their relative change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def _signed(better: str) -> int:
    return 1 if better == "higher" else -1


def win_fraction(pairs, better: str) -> float:
    """Share of (parent, change) pairs the change wins; ties lose."""
    if not pairs:
        return 0.0
    sign = _signed(better)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    return wins / len(pairs)


def verdict(parent, change, better: str, bound: float, pairs=None) -> str:
    """The choosing-metrics §8 verdict for one metric on one workload."""
    sign = _signed(better)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    if pairs is None:
        pairs = list(zip(parent, change))
    gain = sign * (cmed - pmed)
    if win_fraction(pairs, better) >= 0.9 and gain > (p3 - p1):
        return "improved"
    if pmed and -gain / abs(pmed) > bound:
        return "worse"
    spread = max(
        (p3 - p1) / abs(pmed) if pmed else 0.0,
        (c3 - c1) / abs(cmed) if cmed else 0.0,
    )
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "unchanged"
        return "unresolved"
    return "unchanged"


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: metrics-values}} from result files."""
    sets: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        header = data.get("header", {})
        if "workload" not in header:
            continue
        key = (header["workload"], bool(header["trace"]))
        sets.setdefault(key, {})[header["seed"]] = {
            name: metric["value"] for name, metric in data["metrics"].items()
        }
    return sets


def _pairs(parent: dict, change: dict, name: str):
    seeds = sorted(set(parent) & set(change))
    if seeds:
        return [(parent[s][name], change[s][name]) for s in seeds]
    return list(zip(
        [parent[s][name] for s in sorted(parent)],
        [change[s][name] for s in sorted(change)],
    ))


def report(parent_dir: Path, change_dir: Path, spec: dict) -> list[str]:
    parent, change = load(parent_dir), load(change_dir)
    lines = []
    for (workload, traced) in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[(workload, traced)], change[(workload, traced)]
        kind = "per_layer" if traced else "end_to_end"
        lines.append(f"== {workload} ({'traced' if traced else 'untraced'}: "
                     f"{len(p_runs)} parent runs, {len(c_runs)} change runs)")
        for metric in spec[kind]:
            name = metric["name"]
            pv = [run[name] for run in p_runs.values() if name in run]
            cv = [run[name] for run in c_runs.values() if name in run]
            if not pv or not cv:
                continue
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            delta = (cmed - pmed) / abs(pmed) if pmed else float("nan")
            if traced:
                lines.append(
                    f"  {name:36s} {pmed:>12.5g} -> {cmed:>12.5g} "
                    f"{delta:+8.1%} {metric['unit']}"
                )
                continue
            pairs = _pairs(p_runs, c_runs, name)
            lines.append(
                f"  {name:24s} parent {pmed:>10.5g} [{p1:.5g}, {p3:.5g}]  "
                f"change {cmed:>10.5g} [{c1:.5g}, {c3:.5g}]  "
                f"{delta:+7.1%}  wins {win_fraction(pairs, metric['better']):.0%}"
                f"  {verdict(pv, cv, metric['better'], metric['bound'], pairs)}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = report(args.parent, args.change, spec)
    if not lines:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
