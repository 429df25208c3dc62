"""Compare one job's outputs with the oracle expectations in expected.json.

Each check returns a list of human-readable disagreements; an empty list
means the job's outputs agree with the oracle. Floats in the figure tables
are written with six decimals, so they are compared to within 1e-6.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from backmap.timeutil import parse_iso

TOLERANCE = 1.5e-6


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _diff(what: str, got, want) -> list[str]:
    if got == want:
        return []
    if isinstance(got, set) and isinstance(want, set):
        return [f"{what}: {len(got - want)} unexpected, {len(want - got)} missing "
                f"(e.g. {sorted(got ^ want)[:3]})"]
    return [f"{what}: got {got!r:.200}, oracle {want!r:.200}"]


def _close(what: str, got: dict, want: dict) -> list[str]:
    if got.keys() != want.keys():
        return _diff(f"{what} keys", set(got), set(want))
    bad = [k for k in want
           if (got[k] is None) != (want[k] is None)
           or (want[k] is not None
               and abs(got[k] - want[k]) > TOLERANCE * max(1.0, abs(want[k])))]
    return [f"{what} {k}: got {got[k]!r}, oracle {want[k]!r}" for k in sorted(bad)[:3]]


def check_outputs(out: Path, expected: dict) -> list[str]:
    errors: list[str] = []
    candidates = {(d["provider_id"], d["ip"]) for d in _jsonl(out / "candidates.jsonl")}
    errors += _diff("candidates", candidates, {tuple(c) for c in expected["candidates"]})

    sharing = {(d["provider_id"], d["ip"], d["verdict"]) for d in _jsonl(out / "sharing.jsonl")}
    errors += _diff("sharing verdicts", sharing, {tuple(s) for s in expected["sharing"]})

    visibility = {(r["provider"], int(r["family"])): float(r["visible_fraction"])
                  for r in _rows(out / "fig6_visibility.csv")}
    errors += _close("fig6 visibility", visibility,
                     {(pid, fam): v for pid, fam, v in expected["visibility"]})

    ratios = {r["provider"]: None if r["undefined"] == "1" else float(r["down_up_ratio"])
              for r in _rows(out / "fig10_ratio.csv")}
    errors += _close("down/up ratio", ratios, expected["ratios"])

    if "scanners" in expected:
        scanners = {d["line_id"] for d in _jsonl(out / "scanners.jsonl")}
        errors += _diff("scanner lines", scanners, set(expected["scanners"]))
        sweep = [(int(r["threshold"]), float(r["visibility_pct"]) / 100.0,
                  int(r["scanner_lines"])) for r in _rows(out / "fig5_sweep.csv")]
        want = [tuple(p) for p in expected["sweep"]]
        if [(t, n) for t, _, n in sweep] != [(t, n) for t, _, n in want] or any(
                abs(g[1] - w[1]) > TOLERANCE for g, w in zip(sweep, want)):
            errors.append(f"scanner sweep: got {sweep}, oracle {want}")

    if "outages" in expected:
        flagged = {(r["provider"], r["region"], int(parse_iso(r["hour"]).timestamp()) // 3600)
                   for r in _rows(out / "fig13_outage.csv") if r["flagged"] == "1"}
        errors += _diff("flagged outage hours", flagged,
                        {tuple(o) for o in expected["outages"]})
        if not expected["outages"]:
            errors.append("outage workload planted no detectable drop")

    if "blocklist" in expected:
        doc = json.loads((out / "bench_disruption.json").read_text())
        errors += _diff("blocklist hits per provider", doc["blocklist"], expected["blocklist"])
        errors += _diff("routing overlap", doc["routing"], expected["routing"])
    return errors
