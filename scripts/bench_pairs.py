#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summed up per metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N \
        [--seconds 30] [--out BENCH.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, for example
a `git archive` of the parent commit and one of the change. Both are
compiled once with `compileall` first, so that neither side's jobs compile
sources the other side finds cached. Then each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
checkout, the parent first in even pairs and the change first in odd ones.
`--workload` may be given more than once; the workloads run one after
another.

For every end-to-end metric that the parent's BENCHMARK.json declares, the
summary holds each side's runs, median and quartiles, the pairs the change
won (ties count for neither side) and the change of the median in percent.
It is printed as JSON; with `--out`, it is also written to that file after
each workload.
"""

from __future__ import annotations

import argparse
import compileall
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object run.py prints on its last line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: run.py gave no result (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def summarize(results: dict[str, list[dict]], better: dict[str, str]) -> dict:
    pairs = len(results["parent"])
    metrics = {}
    for name, direction in better.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for p, c in zip(runs["parent"], runs["change"]) if sign * (c - p) > 0)
        parent_median = statistics.median(runs["parent"])
        change_pct = (statistics.median(runs["change"]) / parent_median - 1) * 100
        metrics[name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"], "better": direction,
            "parent": spread(runs["parent"]), "change": spread(runs["change"]),
            "change_wins": f"{wins}/{pairs}", "median_change_pct": round(change_pct, 1),
        }
    return {
        "pairs": pairs,
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "jobs_attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout}: no perfbench/run.py; give a repository checkout")
        for sub in ("src", "perfbench"):
            if not compileall.compile_dir(checkout / sub, quiet=1):
                raise SystemExit(f"{checkout / sub}: compileall failed")
    end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}

    workloads: dict[str, dict] = {}
    summary = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "seed": args.seed,
        "host": f"{platform.machine()}, CPython {platform.python_version()}, "
                f"{platform.system()}",
        "workloads": workloads,
    }
    for workload in args.workload:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, args.seed, args.seconds)
                results[side].append(result)
                print(f"{workload} pair {pair + 1}/{args.pairs} {side}: run_s "
                      f"{result['metrics']['run_s']['value']:.4f}", file=sys.stderr)
        workloads[workload] = summarize(results, better)
        if args.out:
            args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
