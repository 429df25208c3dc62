#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs on every workload.

    python3 scripts/same_outputs.py PARENT_DIR CHANGE_DIR [--seed N ...]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, for example
a `git archive` of the parent commit and one of the change. For each
workload that the parent's BENCHMARK.json declares and each seed (1 and 2
unless `--seed` is given), the inputs are generated once, with the parent's
`perfbench/job.py generate`. Each checkout's `perfbench/job.py run` then
runs its own `run_pipeline` over those inputs, and the two `out_dir` trees
are compared byte for byte, `manifest.json` and `snapshots/` included.

One line per workload and seed says `same` or names the first file, in
sorted order, that differs or that only one tree holds. The exit status is
0 when every pair of trees is the same and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def first_difference(a: Path, b: Path) -> str | None:
    """The first path, in sorted order, of a file that only one of the trees
    `a` and `b` holds or whose bytes differ between them; None if none."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1] or \
                (a / rel).read_bytes() != (b / rel).read_bytes():
            return rel
    return None


def compare_trees(a: Path, b: Path, label: str) -> int:
    """0 if the trees are byte-identical, else 1; prints which."""
    rel = first_difference(a, b)
    print(f"{label}: same" if rel is None else f"{label}: differs: {rel}")
    return 0 if rel is None else 1


def job(checkout: Path, *args: str) -> None:
    """`perfbench/job.py ARGS` in `checkout`, importing that checkout's sources."""
    proc = subprocess.run([sys.executable, "perfbench/job.py", *args], cwd=checkout,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: job.py {' '.join(args)} failed "
                         f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "job.py").is_file():
            parser.error(f"{checkout}: no perfbench/job.py; give a repository checkout")
    benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    status = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as scratch:
        for workload in (w["name"] for w in benchmark["workloads"]):
            for seed in args.seed or (1, 2):
                root = Path(scratch) / f"{workload}-{seed}"
                job(checkouts["parent"], "generate", workload, str(seed), str(root / "inputs"))
                for side, checkout in checkouts.items():
                    job(checkout, "run", workload, str(root / "inputs"), str(root / side),
                        str(root / f"{side}.json"))
                status |= compare_trees(root / "parent", root / "change",
                                        f"{workload} seed {seed}")
    return status


if __name__ == "__main__":
    sys.exit(main())
