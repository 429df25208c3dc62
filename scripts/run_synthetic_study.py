#!/usr/bin/env python3
"""End-to-end desk study on a seeded synthetic universe.

Generates a multi-provider universe (mixed discovery coverage, an SNI-only
provider, shared IPs, planted scanners), runs the full pipeline over the
written exports and prints pipeline-vs-oracle comparisons for the headline
metrics. Everything lands under --workdir for inspection. The exit code is 1
when the candidates or the detected scanners do not match the oracle.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

from backmap import oracle as orc
from backmap.ingest import StudyWindow
from backmap.pipeline import RunConfig, run_pipeline
from backmap.synth import (AsnSpec, PortSpec, ProviderSpec, RegionSpec, ScannerSpec,
                           UniverseConfig, generate)
from backmap.timeutil import utc


def universe_config(seed: int) -> UniverseConfig:
    window = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 3))
    return UniverseConfig(
        seed=seed, window=window, n_lines=3000,
        providers=(
            ProviderSpec(provider_id="alpha", n_servers=80, adoption=0.45,
                         regions=(RegionSpec("eu-central", "DE", 1.0, 0.7),
                                  RegionSpec("us-east", "US", 1.0, 0.3)),
                         asns=(AsnSpec(64501, "self"),),
                         coverage={"tls-cert": 0.9, "passive-dns": 0.7,
                                   "active-dns": 0.4},
                         ports=(PortSpec(8883, "tcp", 0.6), PortSpec(443, "tcp", 0.4)),
                         daily_down_bytes=24 * 60 * 500, down_up_ratio=3.0,
                         shared_count=4),
            ProviderSpec(provider_id="bravo", n_servers=30, adoption=0.25,
                         sni_only=True,
                         regions=(RegionSpec("ap-east", "JP"),),
                         asns=(AsnSpec(64502, "cloud"),),
                         coverage={"tls-cert": 1.0, "passive-dns": 1.0,
                                   "active-dns": 0.8},
                         daily_down_bytes=24 * 20 * 500, down_up_ratio=0.5),
            ProviderSpec(provider_id="charlie", n_servers=40, adoption=0.2,
                         regions=(RegionSpec("us-west", "US"),),
                         asns=(AsnSpec(64503, "self"), AsnSpec(64504, "cloud")),
                         coverage={"tls-cert": 0.5, "passive-dns": 0.9,
                                   "active-dns": 0.0},
                         daily_down_bytes=24 * 10 * 500),
        ),
        scanners=ScannerSpec(count=3, breadth=60, packets_per_contact=20),
        sampling_rate=10,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--workdir", type=Path, default=Path("study-out"))
    parser.add_argument("--fresh", action="store_true",
                        help="wipe the workdir before running")
    args = parser.parse_args()

    if args.fresh and args.workdir.exists():
        shutil.rmtree(args.workdir)
    universe_dir = args.workdir / "universe"
    out_dir = args.workdir / "pipeline"

    print(f"generating universe (seed {args.seed}) ...")
    universe = generate(universe_config(args.seed))
    universe.write_to(universe_dir)
    truth = universe.truth

    config = RunConfig(
        catalog=universe_dir / "catalog.yaml",
        window=universe.config.window,
        out_dir=out_dir,
        certs=universe_dir / "certs.jsonl",
        pdns=universe_dir / "pdns.jsonl",
        resolutions=universe_dir / "resolutions.jsonl",
        flows=universe_dir / "flows.bmf",
        prefix2as=universe_dir / "prefix2as.tsv",
        scanner_threshold=30,
    )
    print("running pipeline ...")
    manifest = run_pipeline(config)
    print(f"pipeline outputs: {out_dir} ({len(manifest['outputs'])} files)")

    metrics = orc.oracle_metrics(truth)
    from backmap.fusion import read_candidates
    candidates = read_candidates(out_dir / "candidates.jsonl")
    print("\n=== pipeline vs oracle ===")
    mismatches = []
    match = set(candidates) == metrics.candidates
    print(f"candidates: {len(candidates)} fused, oracle {len(metrics.candidates)}"
          f" -> {'MATCH' if match else 'MISMATCH'}")
    if not match:
        mismatches.append("candidates")

    import csv
    with open(out_dir / "fig6_visibility.csv") as fh:
        rows = list(csv.DictReader(fh))
    print("\nvisibility (pipeline | oracle):")
    for row in rows:
        key = (row["provider"], int(row["family"]))
        oracle_value = metrics.visibility.get(key)
        print(f"  {row['provider']} v{row['family']}: {float(row['visible_fraction']):.3f}"
              f" | {oracle_value:.3f}")

    with open(out_dir / "fig10_ratio.csv") as fh:
        rows = list(csv.DictReader(fh))
    print("\ndown/up ratio (pipeline | oracle):")
    for row in rows:
        oracle_value = metrics.ratios.get(row["provider"])
        print(f"  {row['provider']}: {row['down_up_ratio']} | {oracle_value:.3f}")

    print("\nsource ablation, % lines lost with TLS-only discovery (oracle):")
    for pid, pct in sorted(metrics.ablation.items()):
        print(f"  {pid}: {pct:.1f}%")

    print(f"\nscanners planted: {sorted(truth.scanner_lines)}")
    with open(out_dir / "scanners.jsonl", encoding="utf-8") as fh:
        detected = {json.loads(line)["line_id"] for line in fh}
    match = detected == set(truth.scanner_lines)
    print(f"scanners detected: {sorted(detected)} -> {'MATCH' if match else 'MISMATCH'}")
    if not match:
        mismatches.append("scanners")
    if mismatches:
        print(f"\nMISMATCH: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
