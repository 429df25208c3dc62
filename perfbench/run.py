#!/usr/bin/env python3
"""The backmap benchmark: one seeded workload, timed jobs, oracle checks.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the repository root. Inputs are generated from the seed (or reused
from the input cache), then one untimed warm-up job runs and timed jobs follow
until `--seconds` have passed, each alone in a fresh child process with a
fixed PYTHONHASHSEED. Every timed job's outputs are checked against the
oracle after it ends. `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced and traced jobs and prints the per-layer metrics. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 when any job failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
HASH_SEED = "0"
MIN_JOBS = 3  # timed jobs per run, whatever --seconds says (4 when tracing)
SETUP_PROBES_PER_JOB = 1  # spread over the run, like the jobs
MIN_SETUP_PROBES = 7
KEEP_INPUTS = 12  # generated universes kept in the input cache
JOB_TIMEOUT_S = 120
RUN_DEADLINE_S = 150  # start no job that could end after this

END_TO_END = {"run_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _child(args: list[str], timeout: float = JOB_TIMEOUT_S) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, str(BENCH / "job.py"), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _tail(text: str) -> str:
    return " | ".join(text.strip().splitlines()[-3:])


# --- inputs ----------------------------------------------------------------------------


def prepare_inputs(workload, seed: int) -> tuple[Path, dict, bool]:
    """Generated exports for (workload, seed), from the cache when the spec,
    the seed, the generator and the workload definitions are unchanged."""
    key = _digest(json.dumps([workload.name, workload.spec, workload.run_options,
                              workload.disruption, seed], sort_keys=True).encode(),
                  (SRC / "backmap" / "synth.py").read_bytes(),
                  (BENCH / "workloads.py").read_bytes())[:16]
    inputs = CACHE / "inputs"
    target = inputs / f"{workload.name}-{seed}-{key}"
    cached = (target / "meta.json").is_file()
    if not cached:
        staging = inputs / f".{target.name}.{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        proc = _child(["generate", workload.name, str(seed), str(staging)])
        if proc.returncode != 0:
            shutil.rmtree(staging, ignore_errors=True)
            raise RuntimeError(f"input generation failed: {_tail(proc.stderr)}")
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
    os.utime(target)
    for old in sorted((p for p in inputs.iterdir() if p.is_dir()),
                      key=lambda p: p.stat().st_mtime, reverse=True)[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)
    return target, json.loads((target / "meta.json").read_text()), cached


# --- jobs ------------------------------------------------------------------------------


def spawn_job(workload: str, input_dir: Path, out_dir: Path, result: Path,
              traced: bool) -> tuple[dict | None, str]:
    """Run one job in a fresh process; (result document or None, error)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["run", workload, str(input_dir), str(out_dir), str(result)]
    try:
        proc = _child(args + (["--trace"] if traced else []))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {JOB_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {_tail(proc.stderr)}"
    return json.loads(result.read_text()), ""


def run_checked_job(workload: str, input_dir: Path, work: Path, n: int, traced: bool,
                    expected: dict) -> dict:
    from checks import check_outputs

    out_dir, result = work / f"job-{n}", work / f"job-{n}.json"
    doc, error = spawn_job(workload, input_dir, out_dir, result, traced)
    errors = [error] if doc is None else check_outputs(out_dir, expected)
    shutil.rmtree(out_dir, ignore_errors=True)
    job = dict(doc or {}, n=n, traced=traced, ok=not errors, errors=errors)
    verdict = "ok" if job["ok"] else "FAILED: " + "; ".join(errors)
    timing = f"{job['run_s']:.3f} s" if "run_s" in job else "no timing"
    print(f"job {n}{' (traced)' if traced else ''}: {timing}, oracle check {verdict}",
          flush=True)
    return job


def measure(workload: str, input_dir: Path, expected: dict, seconds: float,
            trace: bool, started: float, setup: list[float] | None = None) -> list[dict]:
    """Timed jobs until `seconds` have passed; tracing runs alternate
    untraced and traced jobs. With a `setup` list, set-up probes run after
    every job and their times are appended to it."""
    work = CACHE / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spawn_job(workload, input_dir, work / "warmup", work / "warmup.json", False)
        jobs: list[dict] = []
        min_jobs = MIN_JOBS + 1 if trace else MIN_JOBS
        began = time.monotonic()
        while len(jobs) < min_jobs or time.monotonic() - began < seconds:
            longest = max((j.get("wall_s", 0.0) for j in jobs), default=0.0)
            if jobs and time.monotonic() - started + 1.5 * longest > RUN_DEADLINE_S:
                break
            job_started = time.monotonic()
            jobs.append(run_checked_job(workload, input_dir, work, len(jobs) + 1,
                                        trace and len(jobs) % 2 == 1, expected))
            jobs[-1]["wall_s"] = time.monotonic() - job_started
            if setup is not None:
                setup.extend(setup_probes(input_dir / "catalog.yaml", SETUP_PROBES_PER_JOB))
        traces = CACHE / "traces"
        traces.mkdir(exist_ok=True)
        for spans in work.glob("job-*.spans.json"):
            shutil.move(spans, traces / f"{workload}.spans.json")
        return jobs
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_probes(catalog: Path, count: int) -> list[float]:
    values = []
    for _ in range(count):
        proc = _child(["setup", str(catalog)])
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {_tail(proc.stderr)}")
        values.append(json.loads(proc.stdout)["setup_s"])
    return values


# --- reporting -------------------------------------------------------------------------


def run_record(args: argparse.Namespace) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = b"".join(p.read_bytes() for p in sorted((SRC / "backmap").glob("*.py")))
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "src_digest": _digest(src)[:16],
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "pythonhashseed": HASH_SEED,
            "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(jobs: list[dict], meta: dict, setup: list[float], trace: bool) -> dict:
    plain = [j for j in jobs if not j["traced"] and "run_s" in j]
    records = meta["flow_records"] + meta["export_lines"]
    if not trace:
        run_s = [j["run_s"] for j in plain]
        fastest = min(run_s, default=0.0)
        values = {
            "run_s": fastest,
            "records_per_s": records / fastest if fastest else 0.0,
            "peak_rss_mb": _median([j["peak_rss_mb"] for j in plain]),
            "setup_s": _median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            print(f"{name:>16} = {m['value']:.6g} {m['unit']}")
        print(f"run_s is the fastest of {len(run_s)} jobs (median {_median(run_s):.4g} s, "
              f"slowest {max(run_s, default=0.0):.4g} s); peak_rss_mb is the median of "
              f"{len(plain)} jobs; setup_s is the median of {len(setup)} probes")
        return metrics

    from layers import METRICS

    traced = [j for j in jobs if j["traced"] and "layers" in j]
    metrics = {name: {"value": _median([j["layers"][name] for j in traced]), "unit": unit}
               for name, unit in METRICS.items()}
    untraced_s = min((j["run_s"] for j in plain), default=0.0)
    traced_s = min((j["run_s"] for j in traced), default=0.0)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["synth.generate_s"] = {"value": meta["generate_s"], "unit": "s"}
    for name, m in metrics.items():
        print(f"{name:>36} = {m['value']:.6g} {m['unit']}")
    print(f"tracing overhead: traced run_s {traced_s:.3f} s (fastest of {len(traced)}) - "
          f"untraced {untraced_s:.3f} s (fastest of {len(plain)})")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "backmap" / "pipeline.py").is_file():
        print(f"error: no backmap sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = run_record(args)
    print(f"run record: {json.dumps(record, sort_keys=True)}")

    input_dir, meta, cached = prepare_inputs(workload, args.seed)
    print(f"inputs: {input_dir.relative_to(ROOT)} ({'cached' if cached else 'generated'}; "
          f"synth.generate_s {meta['generate_s']:.3f} s, {meta['flow_records']} flow "
          f"records, {meta['export_lines']} export lines)")
    expected = json.loads((input_dir / "expected.json").read_text())

    setup: list[float] | None = None if args.trace else []
    jobs = measure(workload.name, input_dir, expected, args.seconds, bool(args.trace),
                   started, setup)
    if setup is not None and len(setup) < MIN_SETUP_PROBES:
        setup.extend(setup_probes(input_dir / "catalog.yaml", MIN_SETUP_PROBES - len(setup)))
    metrics = summarize(jobs, meta, setup, bool(args.trace))
    failed = sum(1 for j in jobs if not j["ok"])
    print(f"{'failed_share':>16} = {failed / len(jobs):.4f}  ({failed} of {len(jobs)} jobs)")

    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "jobs": jobs, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
