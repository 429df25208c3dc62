#!/usr/bin/env python3
"""Outage-detection drill on a synthetic two-region provider.

Builds a deterministic day-periodic trace with a baseline week, injects a
regional drop below the weekly minimum, and prints what the detector flags
for a range of sustain windows. Useful for eyeballing how the sustain
window trades off against the injected drop depth and duration.
"""

import argparse

from backmap.disruption import outage_scan
from backmap.flows import aggregate_flows, regional_down_series
from backmap.footprint import BackendServer
from backmap.geo import Location
from backmap.ingest import StudyWindow
from backmap.synth import (OutageSpec, ProviderSpec, RegionSpec, UniverseConfig,
                           generate)
from backmap.flows import ServerIndex
from backmap.timeutil import utc


def build_universe(drop: float, duration: int, seed: int):
    window = StudyWindow(utc(2022, 12, 7), utc(2022, 12, 8))
    diurnal = tuple(0.4 + 0.6 * (6 <= h < 22) for h in range(24))
    return generate(UniverseConfig(
        seed=seed, window=window, n_lines=600,
        providers=(ProviderSpec(
            provider_id="t1", n_servers=20, adoption=1.0,
            regions=(RegionSpec("us-east", "US", 1.0, 0.25),
                     RegionSpec("eu", "DE", 1.0, 0.75)),
            coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0},
            daily_down_bytes=24 * 200 * 500, diurnal=diurnal),),
        deterministic_activity=True,
        baseline_days=7,
        outages=(OutageSpec(provider_id="t1", region_token="us-east",
                            start_hour=10, duration_hours=duration,
                            drop_below_min=drop),),
    ))


def index_for(universe) -> ServerIndex:
    servers = [
        BackendServer(ip=s.ip, provider_id=s.provider_id,
                      location=Location.of(s.country),
                      location_confidence="unanimous", prefix=f"{s.ip}/32",
                      asn=s.asn, sharing=s.sharing, sources=s.sources,
                      region_token=s.region_token)
        for s in universe.truth.servers if s.sources and s.sharing == "dedicated"]
    return ServerIndex(servers)


def clock(hour: int) -> str:
    """The UTC time of day an epoch hour starts at, as HH:MM."""
    return f"{hour % 24:02d}:00"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--drop", type=float, default=0.16,
                        help="injected drop below the weekly minimum")
    parser.add_argument("--duration", type=int, default=4, help="outage hours")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    universe = build_universe(args.drop, args.duration, args.seed)
    agg = aggregate_flows(universe.flow_stream(), index_for(universe))
    series = regional_down_series(agg)
    window = universe.config.window

    print(f"injected: us-east {args.drop:.1%} below weekly minimum for "
          f"{args.duration}h\n")
    for sustain in (1, 2, 3, args.duration + 1):
        findings = outage_scan(series, window, baseline_days=7,
                               sustain_hours=sustain)
        tags = [f"{f.provider_id}/{f.region} drop={f.max_drop_fraction:.1%} "
                f"{clock(f.window[0])}..{clock(f.window[1])}" for f in findings]
        print(f"sustain={sustain}h -> {len(findings)} finding(s)"
              + (": " + "; ".join(tags) if tags else ""))


if __name__ == "__main__":
    main()
