import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import backmap
from backmap.cli import main
from backmap.flows import read_flows, write_flows_jsonl
from backmap.ingest import StudyWindow
from backmap.pipeline import RunConfig, UpstreamMissingError, run_pipeline
from backmap.reports import FIGURE_FILES, pseudonymize
from backmap.synth import (AsnSpec, OutageSpec, ProviderSpec, RegionSpec, ScannerSpec,
                           UniverseConfig, generate)
from backmap.timeutil import utc

WINDOW = StudyWindow(utc(2022, 2, 28), utc(2022, 3, 2))


def fixture_universe_config():
    return UniverseConfig(
        seed=4242, window=WINDOW, n_lines=200,
        providers=(
            ProviderSpec(
                provider_id="p01", n_servers=24, adoption=0.6,
                regions=(RegionSpec("us-east-1", "US", 1.0, 0.25),
                         RegionSpec("eu-west-1", "DE", 1.0, 0.75)),
                asns=(AsnSpec(64501, "self"),),
                coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 0.5},
                daily_down_bytes=24 * 30 * 500, down_up_ratio=3.0,
                shared_count=2),
            ProviderSpec(
                provider_id="p02", n_servers=10, adoption=0.25, sni_only=True,
                regions=(RegionSpec("ap-1", "JP"),),
                asns=(AsnSpec(64502, "cloud"),),
                coverage={"tls-cert": 1.0, "passive-dns": 1.0, "active-dns": 1.0},
                daily_down_bytes=24 * 12 * 500),
        ),
        scanners=ScannerSpec(count=2, breadth=12),
        deterministic_activity=True,
        baseline_days=7,
        outages=(OutageSpec(provider_id="p01", region_token="us-east-1",
                            start_hour=12, duration_hours=4, drop_below_min=0.2),),
    )


@pytest.fixture(scope="module")
def universe_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("universe")
    generate(fixture_universe_config()).write_to(out)
    return out


@pytest.fixture(scope="module")
def completed_run(universe_dir, tmp_path_factory):
    """One full pipeline run shared by every read-only assertion."""
    out_dir = tmp_path_factory.mktemp("run") / "out"
    config = make_run_config(universe_dir, out_dir)
    manifest = run_pipeline(config)
    return config, manifest


def make_run_config(universe_dir: Path, out_dir: Path) -> RunConfig:
    return RunConfig(
        catalog=universe_dir / "catalog.yaml",
        window=WINDOW,
        out_dir=out_dir,
        certs=universe_dir / "certs.jsonl",
        pdns=universe_dir / "pdns.jsonl",
        resolutions=universe_dir / "resolutions.jsonl",
        flows=universe_dir / "flows.bmf",
        prefix2as=universe_dir / "prefix2as.tsv",
        scanner_threshold=10,
    )


def write_run_yaml(path: Path, universe_dir: Path, out_dir: Path,
                   flows: Path | None = None, **settings) -> Path:
    path.write_text(yaml.safe_dump({
        "catalog": str(universe_dir / "catalog.yaml"),
        "certs": str(universe_dir / "certs.jsonl"),
        "pdns": str(universe_dir / "pdns.jsonl"),
        "resolutions": str(universe_dir / "resolutions.jsonl"),
        "flows": str(flows or universe_dir / "flows.bmf"),
        "prefix2as": str(universe_dir / "prefix2as.tsv"),
        "out_dir": str(out_dir),
        "scanner_threshold": 10,
        "window": {"start": "2022-02-28T00:00:00Z", "end": "2022-03-02T00:00:00Z"},
        **settings,
    }))
    return path


class TestRunPipeline:
    def test_full_run_produces_every_figure_csv(self, completed_run):
        config, manifest = completed_run
        for figure, filename in FIGURE_FILES.items():
            assert (config.out_dir / filename).exists(), figure
        for artifact in ("observations.jsonl", "candidates.jsonl", "sharing.jsonl",
                         "servers.jsonl", "scanners.jsonl", "manifest.json",
                         "diversity.csv"):
            assert (config.out_dir / artifact).exists(), artifact
        assert manifest["stages_run"] == list(manifest["stage_versions"])

    def test_outage_is_flagged_in_fig13(self, completed_run):
        config, _ = completed_run
        rows = (config.out_dir / "fig13_outage.csv").read_text().splitlines()
        flagged = [r for r in rows[1:] if r.endswith(",1")]
        assert flagged
        assert all(",us-east-1," in r for r in flagged)

    def test_downstream_stage_without_upstream_errors(self, universe_dir, tmp_path):
        config = make_run_config(universe_dir, tmp_path / "out")
        with pytest.raises(UpstreamMissingError, match="discover"):
            run_pipeline(config, ["fuse"])

    def test_rerun_is_byte_identical(self, universe_dir, completed_run, tmp_path):
        config_a, _ = completed_run
        config_b = make_run_config(universe_dir, tmp_path / "b")
        run_pipeline(config_b)
        files_a = sorted(p.relative_to(config_a.out_dir)
                         for p in config_a.out_dir.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(config_b.out_dir)
                         for p in config_b.out_dir.rglob("*") if p.is_file())
        assert files_a == files_b
        assert Path("manifest.json") in files_a
        for rel in files_a:
            assert (config_a.out_dir / rel).read_bytes() == \
                (config_b.out_dir / rel).read_bytes(), rel

    def test_every_jsonl_line_is_json_dumps_of_its_document(self, completed_run):
        config, _ = completed_run
        out = config.out_dir
        paths = sorted(out.glob("*.jsonl")) + sorted((out / "snapshots").glob("candidates-*"))
        assert {"observations.jsonl", "candidates.jsonl", "sharing.jsonl",
                "servers.jsonl"} <= {p.name for p in paths}
        assert len(paths) > 6  # the dated snapshots too
        for path in paths:
            with open(path, encoding="utf-8", newline="") as fh:
                for line_no, line in enumerate(fh, 1):
                    assert line.endswith("\n"), (path.name, line_no)
                    line = line[:-1]
                    assert json.dumps(json.loads(line)) == line, (path.name, line_no)

    def test_flows_stage_reads_the_trace_twice(self, universe_dir, completed_run, tmp_path,
                                               monkeypatch):
        import shutil

        from backmap import pipeline

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        reads = []
        original = pipeline.read_flows

        def counting_read_flows(path):
            reads.append(path)
            return original(path)

        monkeypatch.setattr(pipeline, "read_flows", counting_read_flows)
        run_pipeline(make_run_config(universe_dir, out_dir), ["flows"])
        assert len(reads) == 2

    def test_fig12_shares_sum_to_100(self, completed_run):
        config, _ = completed_run
        rows = (config.out_dir / "fig12_continents.csv").read_text().splitlines()[1:]
        sums = {}
        for row in rows:
            kind, _key, share_pct, _count = row.split(",")
            sums[kind] = sums.get(kind, 0.0) + float(share_pct)
        for kind in ("line_category", "traffic", "servers"):
            assert abs(sums[kind] - 100.0) <= 0.01, (kind, sums[kind])

    def test_sni_only_provider_loses_every_line_in_fig7(self, completed_run):
        config, _ = completed_run
        rows = dict(line.split(",") for line in
                    (config.out_dir / "fig7_ablation.csv").read_text().splitlines()[1:])
        assert float(rows["p02"]) == 100.0  # no certificate scan finds p02's servers

    def test_shared_servers_excluded_from_attribution(self, completed_run):
        config, _ = completed_run
        shared = [json.loads(line)
                  for line in (config.out_dir / "sharing.jsonl").read_text().splitlines()
                  if json.loads(line)["verdict"] == "shared"]
        assert len(shared) == 2
        servers = [json.loads(line)
                   for line in (config.out_dir / "servers.jsonl").read_text().splitlines()]
        shared_ips = {row["ip"] for row in shared}
        assert {s["ip"] for s in servers if s["sharing"] == "shared"} == shared_ips


# artifact and export readers that stages call through backmap.pipeline
ARTIFACT_READERS = ("read_observations", "read_candidates", "_read_sharing", "read_servers")
EXPORT_READERS = ("read_cert_scan_export", "read_pdns_export", "read_resolutions")


def count_artifact_reads(monkeypatch) -> list[tuple[str, str]]:
    """Wrap every artifact and export reader; the list fills with (reader,
    file name)."""
    from backmap import pipeline

    reads = []
    for name in ARTIFACT_READERS + EXPORT_READERS:
        def counting(path, _name=name, _read=getattr(pipeline, name)):
            reads.append((_name, Path(path).name))
            return _read(path)
        monkeypatch.setattr(pipeline, name, counting)
    return reads


def tree_bytes(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def run_checking_handoff(config: RunConfig) -> None:
    """Every stage in order on one RunState; after each, every artifact the
    stage hands over equals what its file's reader returns, order included."""
    from backmap import pipeline
    from backmap.catalog import compile_catalog, load_catalog
    from backmap.fusion import build_reverse_index, read_candidates
    from backmap.ingest import read_observations, read_pdns_export

    out = config.out_dir
    out.mkdir(parents=True)
    profiles = load_catalog(config.catalog)
    state = pipeline.RunState(config=config, profiles=profiles,
                              patterns=compile_catalog(profiles))
    read_back = {
        "discover": lambda: {
            "observations": list(read_observations(out / "observations.jsonl")),
            **({"reverse_index": build_reverse_index(read_pdns_export(config.pdns))}
               if config.pdns else {})},
        "fuse": lambda: {
            "candidates": read_candidates(out / "candidates.jsonl"),
            "snapshots": {p.name.split("candidates-")[1]: frozenset(read_candidates(p))
                          for p in (out / "snapshots").glob("candidates-*")}},
        "classify": lambda: {"sharing": pipeline._read_sharing(out / "sharing.jsonl")},
        "footprint": lambda: {"servers": pipeline.read_servers(out / "servers.jsonl")},
    }
    for stage in pipeline.STAGES:
        pipeline._STAGE_FUNCS[stage](state)
        for name, value in read_back.get(stage, dict)().items():
            held = state.held[name]
            assert held == value, name
            if name != "snapshots" and isinstance(value, dict):
                assert list(held) == list(value), name


class TestArtifactHandoff:
    """Within one run_pipeline call each stage artifact is parsed at most once."""

    def test_full_run_reads_back_no_artifact(self, universe_dir, completed_run, tmp_path,
                                             monkeypatch):
        """No artifact is read back, and each export is read once: classify
        takes the reverse index that discover built."""
        reads = count_artifact_reads(monkeypatch)
        config = make_run_config(universe_dir, tmp_path / "out")
        run_pipeline(config)
        assert reads == [("read_cert_scan_export", "certs.jsonl"),
                         ("read_pdns_export", "pdns.jsonl"),
                         ("read_resolutions", "resolutions.jsonl")]
        assert tree_bytes(config.out_dir) == tree_bytes(completed_run[0].out_dir)

    def test_classify_alone_reads_the_pdns_export_once(self, universe_dir, completed_run,
                                                      tmp_path, monkeypatch):
        import shutil

        out_dir = tmp_path / "out"
        shutil.copytree(completed_run[0].out_dir, out_dir)
        reads = count_artifact_reads(monkeypatch)
        run_pipeline(make_run_config(universe_dir, out_dir), ["classify"])
        assert sorted(reads) == [("read_candidates", "candidates.jsonl"),
                                 ("read_pdns_export", "pdns.jsonl")]
        after, before = tree_bytes(out_dir), tree_bytes(completed_run[0].out_dir)
        after.pop("manifest.json"), before.pop("manifest.json")
        assert after == before

    def test_footprint_alone_reads_each_file_once(self, universe_dir, completed_run,
                                                   tmp_path, monkeypatch):
        import shutil

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        # a third day, so that the middle snapshot is in two diffs
        snap_dir = out_dir / "snapshots"
        shutil.copy(snap_dir / "candidates-2022-02-28", snap_dir / "candidates-2022-03-02")
        snapshots = sorted(p.name for p in snap_dir.glob("candidates-*"))
        assert len(snapshots) == 3
        reads = count_artifact_reads(monkeypatch)
        run_pipeline(make_run_config(universe_dir, out_dir), ["footprint"])
        assert sorted(reads) == sorted(
            [("_read_sharing", "sharing.jsonl"), ("read_candidates", "candidates.jsonl")]
            + [("read_candidates", name) for name in snapshots])
        pairs = [row.split(",")[1:3] for row in
                 (out_dir / "fig4_stability.csv").read_text().splitlines()[1:]]
        assert sorted(set(map(tuple, pairs))) == [("2022-02-28", "2022-03-01"),
                                                  ("2022-03-01", "2022-03-02")]
        after, before = tree_bytes(out_dir), tree_bytes(config.out_dir)
        for changed in ("manifest.json", "fig4_stability.csv"):
            after.pop(changed), before.pop(changed)
        assert after.pop("snapshots/candidates-2022-03-02")
        assert after == before

    @pytest.mark.parametrize("artifact, run_first", [("sharing.jsonl", "classify"),
                                                     ("candidates.jsonl", "fuse")])
    def test_footprint_alone_without_an_artifact_errors(self, completed_run, tmp_path,
                                                        artifact, run_first, universe_dir):
        import shutil

        out_dir = tmp_path / "out"
        shutil.copytree(completed_run[0].out_dir, out_dir)
        (out_dir / artifact).unlink()
        with pytest.raises(UpstreamMissingError, match=run_first):
            run_pipeline(make_run_config(universe_dir, out_dir), ["footprint"])

    def test_one_call_per_stage_matches_one_full_call(self, universe_dir, completed_run,
                                                       tmp_path):
        from backmap.pipeline import STAGES

        full_config, full_manifest = completed_run
        config = make_run_config(universe_dir, tmp_path / "out")
        for stage in STAGES:
            manifest = run_pipeline(config, [stage])
        assert manifest["outputs"] == full_manifest["outputs"]
        assert manifest["inputs"] == full_manifest["inputs"]
        staged, full = tree_bytes(config.out_dir), tree_bytes(full_config.out_dir)
        staged.pop("manifest.json")
        full.pop("manifest.json")
        assert staged == full

    def test_handed_over_artifacts_equal_their_files(self, universe_dir, tmp_path):
        run_checking_handoff(make_run_config(universe_dir, tmp_path / "out"))

    def test_discovery_holds_every_instant_as_an_int(self, universe_dir, tmp_path):
        """One time representation from export to artifact: every record
        the readers give, every observation discover hands over and every
        candidate fuse hands over holds int epoch seconds."""
        from backmap import pipeline
        from backmap.catalog import compile_catalog, load_catalog
        from backmap.ingest import read_cert_scan_export, read_pdns_export, read_resolutions

        config = make_run_config(universe_dir, tmp_path / "out")
        config.out_dir.mkdir(parents=True)
        profiles = load_catalog(config.catalog)
        state = pipeline.RunState(config=config, profiles=profiles,
                                  patterns=compile_catalog(profiles))
        pipeline._stage_discover(state)
        observations = list(state.held["observations"])  # fuse lets them go
        pipeline._stage_fuse(state)
        candidates = state.held["candidates"].values()
        instants = {
            "certs": [t for r in read_cert_scan_export(config.certs)
                      for t in (r.not_before, r.not_after, r.observed_at)],
            "pdns": [t for r in read_pdns_export(config.pdns) for t in (r.first_seen, r.last_seen)],
            "resolutions": [r.resolved_at for r in read_resolutions(config.resolutions)],
            "observations": [o.seen_at for o in observations],
            "candidates": [t for c in candidates for t in (c.first_seen, c.last_seen)],
        }
        for name, values in instants.items():
            assert values and {type(t) for t in values} == {int}, name

    def test_sub_second_unsorted_observations_are_handed_over_as_read(self, universe_dir,
                                                                       tmp_path):
        """Resolutions at fractional epoch seconds, in reverse order: the
        observations are handed over sorted and to the second."""
        rows = [json.loads(line) for line in
                (universe_dir / "resolutions.jsonl").read_text().splitlines()]
        for i, row in enumerate(rows):
            row["resolved_at"] += 0.25 + (i % 3) / 4
        path = tmp_path / "resolutions.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in reversed(rows)))
        config = make_run_config(universe_dir, tmp_path / "out")._replace(
            certs=None, pdns=None, resolutions=path)
        run_checking_handoff(config)

    def test_reverse_index_keeps_the_rows_ingest_skips(self, universe_dir, tmp_path):
        """Discover hands classify the index of every parsed passive-DNS
        row: also a CNAME and an A row outside the window, which ingest
        skips, and not a malformed line."""
        from backmap.fusion import build_reverse_index
        from backmap.ingest import read_pdns_export

        path = tmp_path / "pdns.jsonl"
        before = int(WINDOW.start.timestamp()) - 86400
        extra = [{"rrname": "alias.example.org", "rrtype": "CNAME",
                  "rdata": "target.example.org", "time_first": before, "time_last": before},
                 {"rrname": "old.example.org", "rrtype": "A", "rdata": "198.51.100.9",
                  "time_first": before, "time_last": before}]
        path.write_text((universe_dir / "pdns.jsonl").read_text()
                        + "".join(json.dumps(row) + "\n" for row in extra) + "{not json\n")
        config = make_run_config(universe_dir, tmp_path / "out")._replace(pdns=path)
        run_checking_handoff(config)
        index = build_reverse_index(read_pdns_export(path))
        assert index["target.example.org"] == {"alias.example.org"}
        assert index["198.51.100.9"] == {"old.example.org"}
        staged = config._replace(out_dir=tmp_path / "staged")
        for stage in ("discover", "fuse", "classify"):
            run_pipeline(staged, [stage])
        assert (staged.out_dir / "sharing.jsonl").read_bytes() == \
            (config.out_dir / "sharing.jsonl").read_bytes()

    @pytest.mark.parametrize("stages", [None, ["fuse", "classify", "footprint"]])
    def test_rerun_with_a_shifted_window_keeps_only_its_own_days(
            self, universe_dir, completed_run, tmp_path, stages):
        """A rerun into a used out_dir leaves snapshots of its own days only,
        so its stability diff and manifest match a fresh out_dir's; also
        when fuse starts from the observations on disk."""
        import shutil

        shifted = StudyWindow(utc(2022, 3, 1), utc(2022, 3, 3))
        runs = {}
        for name in ("reused", "fresh"):
            out_dir = tmp_path / name
            if name == "reused":
                shutil.copytree(completed_run[0].out_dir, out_dir)
            config = make_run_config(universe_dir, out_dir)._replace(window=shifted)
            if stages:
                run_pipeline(config, ["discover"])
            manifest = run_pipeline(config, stages)
            runs[name] = (sorted(p.name for p in (out_dir / "snapshots").iterdir()),
                          (out_dir / "fig4_stability.csv").read_bytes(),
                          {k: v for k, v in manifest["outputs"].items()
                           if k.startswith("snapshots/")})
        assert runs["reused"] == runs["fresh"]
        assert runs["fresh"][0] == ["candidates-2022-03-01", "index.json"]


def test_scanners_and_sweep_of_a_kolkata_run_match_the_oracle(tmp_path):
    """The fixture universe in Asia/Kolkata (+05:30), whose local days cut
    each UTC day at 18:30, through every stage: the lines in scanners.jsonl
    are the oracle's scanner lines, and fig5_sweep.csv gives the oracle's
    scanner count at every threshold. Synth cannot express a dedicated-port
    filter yet, so this run has none."""
    import csv
    from dataclasses import replace

    from backmap import oracle
    from backmap.pipeline import DEFAULT_SWEEP_THRESHOLDS

    universe = generate(replace(fixture_universe_config(), timezone="Asia/Kolkata"))
    universe.write_to(tmp_path / "universe")
    config = make_run_config(tmp_path / "universe", tmp_path / "out")._replace(
        timezone="Asia/Kolkata")
    run_pipeline(config)
    with open(config.out_dir / "scanners.jsonl", encoding="utf-8") as fh:
        scanners = {json.loads(line)["line_id"] for line in fh}
    assert scanners == oracle.oracle_scanner_lines(universe.truth, config.scanner_threshold)
    assert scanners
    with open(config.out_dir / "fig5_sweep.csv", encoding="utf-8") as fh:
        sweep = [(int(row["threshold"]), int(row["scanner_lines"]))
                 for row in csv.DictReader(fh)]
    assert sweep == [(t, count) for t, _fraction, count in oracle.oracle_sweep(
        universe.truth, DEFAULT_SWEEP_THRESHOLDS)]


class TestTracerContract:
    """The benchmark's tracer wraps functions at the names `backmap.pipeline`
    binds and feeds the flow passes plain record iterators; the traced
    flows stage must write what the untraced one writes."""

    def test_traced_flows_stage_writes_the_untraced_artifacts(self, universe_dir,
                                                              completed_run, tmp_path,
                                                              monkeypatch):
        import shutil

        from backmap import flows, pipeline

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        for name in ("layers", "tracer"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        import layers
        from tracer import Tracer

        trees = {}
        for traced in (False, True):
            out_dir = tmp_path / f"traced-{traced}"
            shutil.copytree(completed_run[0].out_dir, out_dir)
            tracer = Tracer("contract")
            if traced:
                layers.instrument(tracer, layers.Manifest(completed_run[0].catalog))
            try:
                run_pipeline(make_run_config(universe_dir, out_dir), ["flows"])
            finally:
                tracer.restore()
            trees[traced] = tree_bytes(out_dir)
        assert trees[True] == trees[False]
        # one read of the trace, and one more for the fixture's scanner lines' rows
        assert tracer.counts["flows.read_flows.passes"] == 2
        assert tracer.counts["flows.aggregate_records_in"] > 0
        assert pipeline.read_flows is flows.read_flows
        assert pipeline.aggregate_flows is flows.aggregate_flows


    def test_traced_discovery_stages_write_the_untraced_artifacts(self, universe_dir,
                                                                  tmp_path, monkeypatch):
        """discover, fuse, classify and footprint, one call per stage as the
        traced job makes them: the instrumented run writes what the plain one
        writes. `instrument` looks every wrapped name up, so a name that is
        no longer bound where the tracer expects it fails here."""
        from backmap import catalog, footprint, fusion, ingest, pipeline

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        for name in ("layers", "tracer"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        import layers
        from tracer import Tracer

        stages = ["discover", "fuse", "classify", "footprint"]
        trees = {}
        for traced in (False, True):
            config = make_run_config(universe_dir, tmp_path / f"traced-{traced}")
            tracer = Tracer("contract")
            if traced:
                layers.instrument(tracer, layers.Manifest(config.catalog))
            try:
                for stage in stages:
                    run_pipeline(config, [stage])
            finally:
                tracer.restore()
            trees[traced] = tree_bytes(config.out_dir)
        assert trees[True] == trees[False]
        assert tracer.hot["catalog.match_fqdn"][1] > 0
        for counter in ("ingest.records_in", "ingest.observations_out",
                        "fusion.candidates_read"):
            assert tracer.counts[counter] > 0, counter
        # the fuse stage fuses the run and its local days in one call
        with open(config.out_dir / "observations.jsonl", encoding="utf-8") as fh:
            assert tracer.counts["fusion.observations_in"] == sum(1 for _ in fh) > 0
        spans = {span[1] for span in tracer.spans}
        for name in ("ingest.read_pdns_export", "fusion.build_reverse_index",
                     "fusion.classify_sharing", "footprint.enrich_candidates"):
            assert name in spans or name in tracer.hot, name
        for module in (ingest, fusion, footprint):
            assert module.match_fqdn is catalog.match_fqdn
        assert pipeline.read_pdns_export is ingest.read_pdns_export


class TestPseudonyms:
    def test_pure_function_of_salt_and_id(self):
        groups = {"a": "top", "b": "top", "c": "cloud", "d": "other"}
        first = pseudonymize(["a", "b", "c", "d"], "s1", groups)
        second = pseudonymize(["d", "c", "b", "a"], "s1", groups)
        assert first == second
        assert pseudonymize(["a", "b", "c", "d"], "s2", groups) != first or True
        prefixes = {pid: name[0] for pid, name in first.items()}
        assert prefixes == {"a": "T", "b": "T", "c": "D", "d": "O"}

    def test_distinct_within_group(self):
        groups = {f"p{i}": "other" for i in range(8)}
        mapping = pseudonymize(sorted(groups), "salt", groups)
        assert len(set(mapping.values())) == 8


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_catalog_validate_bad_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("providers:\n- provider_id: x\n  parent_domain: .oops\n"
                       "  subdomain: {kind: wildcard}\n")
        result = self.runner.invoke(main, ["catalog", "validate", "--catalog", str(bad)])
        assert result.exit_code == 1
        assert "invalid" in result.output

    def test_catalog_validate_default(self):
        from backmap.catalog import default_catalog_path
        result = self.runner.invoke(
            main, ["catalog", "validate", "--catalog", str(default_catalog_path())])
        assert result.exit_code == 0
        assert "16 providers" in result.output

    def test_discover_ingest_missing_export_exits_3(self, universe_dir, tmp_path):
        missing = tmp_path / "nope.jsonl"
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, tmp_path / "out",
                                  certs=str(missing))
        result = self.runner.invoke(main, ["discover", "ingest", "--config", str(run_yaml),
                                           "--out-dir", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 3
        assert f"{missing}; run the 'inputs' stage first" in result.output

    def test_fuse_missing_observations_exits_3(self, universe_dir, tmp_path):
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, tmp_path / "out")
        result = self.runner.invoke(main, ["fuse", "--config", str(run_yaml),
                                           "--out-dir", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 3
        assert "observations.jsonl; run the 'discover' stage first" in result.output

    def test_stage_commands_write_what_run_writes(self, universe_dir, tmp_path):
        """One stage command after another into one out_dir leaves every file
        `run` writes, byte for byte; only the manifests differ."""
        trees = []
        for name, commands in (
                ("run", [["run"]]),
                ("stages", [["discover", "ingest"], ["fuse"], ["classify"], ["footprint"],
                            ["flows", "analyze"]])):
            out_dir = tmp_path / name
            run_yaml = write_run_yaml(tmp_path / f"{name}.yaml", universe_dir, out_dir)
            for command in commands:
                result = self.runner.invoke(main, [*command, "--config", str(run_yaml),
                                                   "--out-dir", str(out_dir)])
                assert result.exit_code == 0, (command, result.output)
            trees.append({str(p.relative_to(out_dir)): p.read_bytes()
                          for p in sorted(out_dir.rglob("*"))
                          if p.is_file() and p.name != "manifest.json"})
        assert "fig3_sources.csv" in trees[0] and "snapshots/index.json" in trees[0]
        assert trees[0].keys() == trees[1].keys()
        for rel in trees[0]:
            assert trees[0][rel] == trees[1][rel], rel

    def test_run_and_report_roundtrip(self, universe_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir)
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml)])
        assert result.exit_code == 0, result.output
        result = self.runner.invoke(main, [
            "report", "fig5_sweep", "--from", str(out_dir)])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "threshold,visibility_pct,scanner_lines"

    def test_run_without_dedicated_servers_exits_1(self, universe_dir, completed_run,
                                                   tmp_path):
        import shutil

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        (out_dir / "servers.jsonl").write_text("")
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir)
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml),
                                           "--stages", "flows"])
        assert isinstance(result.exception, SystemExit)  # not an uncaught traceback
        assert result.exit_code == 1
        assert "error: backend_ips must be non-empty" in result.output

    def test_run_with_bad_flow_record_exits_1(self, universe_dir, completed_run, tmp_path):
        import itertools
        import shutil

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        flows = tmp_path / "flows.jsonl"
        write_flows_jsonl(flows, itertools.islice(read_flows(universe_dir / "flows.bmf"), 3))
        first, second, third = flows.read_text().splitlines()
        doc = json.loads(third)
        del doc["sampling_rate"]
        flows.write_text(f"{first}\n{second}\n{json.dumps(doc)}\n")
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir, flows)
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml),
                                           "--stages", "flows"])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {flows}:3: missing field 'sampling_rate'" in result.output
        outage = ["disrupt", "outage", "--config", str(run_yaml),
                  "--out", str(tmp_path / "findings.jsonl")]
        result = self.runner.invoke(main, outage)
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {flows}:3: missing field 'sampling_rate'" in result.output
        (out_dir / "servers.jsonl").unlink()
        result = self.runner.invoke(main, outage)
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 3
        assert f"{out_dir / 'servers.jsonl'}; run the 'footprint' stage first" in result.output

    def test_run_with_flow_ts_out_of_range_exits_1(self, universe_dir, completed_run,
                                                   tmp_path):
        """A flow whose ts has no local date, to the first backend flow's
        address or to one no server has: both commands name the file, the
        record and the field."""
        import shutil
        import socket
        import struct

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        backend = {json.loads(line)["ip"]
                   for line in (out_dir / "servers.jsonl").read_text().splitlines()}
        number = next(n for n, rec in enumerate(read_flows(universe_dir / "flows.bmf"), 1)
                      if rec.server_ip in backend)
        offset = 8 + 64 * (number - 1)
        assert "203.0.113.9" not in backend
        for address in (None, "203.0.113.9"):
            flows = tmp_path / "flows.bmf"
            raw = bytearray((universe_dir / "flows.bmf").read_bytes())
            struct.pack_into("<Q", raw, offset, 2 ** 64 - 1)
            if address:
                struct.pack_into("<B16s", raw, offset + 24, 4, socket.inet_aton(address))
            flows.write_bytes(bytes(raw))
            message = f"error: {flows}:{number}: field 'ts': {2 ** 64 - 1} is out of range"
            run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir, flows)
            for args in (["run", "--config", str(run_yaml), "--stages", "flows"],
                         ["disrupt", "outage", "--config", str(run_yaml),
                          "--out", str(tmp_path / "findings.jsonl")]):
                result = self.runner.invoke(main, args)
                assert isinstance(result.exception, SystemExit), (address, args[0])
                assert result.exit_code == 1, (address, args[0])
                assert message in result.output, (address, args[0])

    def test_run_with_bad_observation_exits_1(self, universe_dir, completed_run, tmp_path):
        import shutil

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        observations = out_dir / "observations.jsonl"
        first, second, *rest = observations.read_text().splitlines()
        doc = json.loads(second)
        del doc["ip"]
        observations.write_text("\n".join([first, json.dumps(doc), *rest]) + "\n")
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir)
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml),
                                           "--stages", "fuse"])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {observations}:2: missing field 'ip'" in result.output

    def test_disrupt_routing_with_bad_event_exits_1(self, completed_run, tmp_path):
        config, _ = completed_run
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({
            "kind": "meteor", "prefix": "10.1.0.0/16",
            "start": "2022-02-28T06:00:00Z", "end": "2022-02-28T09:00:00Z"}) + "\n")
        result = self.runner.invoke(main, [
            "disrupt", "routing", "--servers", str(config.out_dir / "servers.jsonl"),
            "--events", str(events),
            "--window", "2022-02-28T00:00:00Z..2022-03-02T00:00:00Z",
            "--out", str(tmp_path / "overlap.jsonl")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {events}:1: bad event kind 'meteor'" in result.output

    def test_disrupt_blocklist_with_bad_entry_exits_1(self, completed_run, tmp_path):
        config, _ = completed_run
        netset = tmp_path / "bad.netset"
        netset.write_text("# test\n192.0.2.0/24\nnot-a-net\n")
        result = self.runner.invoke(main, [
            "disrupt", "blocklist", "--servers", str(config.out_dir / "servers.jsonl"),
            "--list", str(netset), "--out", str(tmp_path / "matches.jsonl")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {netset}:3: 'not-a-net' does not appear to be" in result.output

    def test_disrupt_blocklist_not_utf8_exits_1(self, completed_run, tmp_path):
        config, _ = completed_run
        netset = tmp_path / "bad.netset"
        netset.write_bytes(b"192.0.2.0/24\n\xff\xfe\n")
        result = self.runner.invoke(main, [
            "disrupt", "blocklist", "--servers", str(config.out_dir / "servers.jsonl"),
            "--list", str(netset), "--out", str(tmp_path / "matches.jsonl")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {netset}:2: not UTF-8: byte 0xff" in result.output

    def test_discover_tls_target_without_port_exits_1(self, tmp_path, monkeypatch):
        import socket

        def no_socket(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(socket, "create_connection", no_socket)
        targets = tmp_path / "targets.jsonl"
        targets.write_text(json.dumps({"ip": "127.0.0.1"}) + "\n")
        result = self.runner.invoke(main, [
            "discover", "tls", "--targets", str(targets), "--out", str(tmp_path / "certs.jsonl")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {targets}:1: missing field 'port'" in result.output

    @pytest.mark.parametrize("doc, field, reason", [
        ({"ip": "127.0.0.1", "port": 70000}, "port", "port out of range: 70000"),
        ({"ip": "127.0.0.1", "port": 0}, "port", "port out of range: 0"),
        ({"ip": "127.0.0.1", "port": "443"}, "port", "expected an integer, not str"),
        ({"ip": "not-an-ip", "port": 443}, "ip", "'not-an-ip' does not appear to be"),
        ({"ip": "127.0.0.1", "port": 443, "sni": 7}, "sni", "expected text or null"),
    ])
    def test_discover_tls_bad_target_exits_1_before_any_probe(self, tmp_path, monkeypatch,
                                                             doc, field, reason):
        import socket

        def no_socket(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(socket, "create_connection", no_socket)
        targets = tmp_path / "targets.jsonl"
        targets.write_text(json.dumps({"ip": "127.0.0.1", "port": 443}) + "\n"
                           + json.dumps(doc) + "\n")
        result = self.runner.invoke(main, [
            "discover", "tls", "--targets", str(targets), "--out", str(tmp_path / "certs.jsonl")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {targets}:2: field {field!r}: {reason}" in result.output

    @pytest.mark.parametrize("port", ["70000", "65536", "0", "-1"])
    def test_discover_resolve_bad_vantage_port_exits_1_before_any_query(
            self, tmp_path, monkeypatch, port):
        from backmap import active

        def no_query(*args, **kwargs):
            raise AssertionError("a query was sent")

        monkeypatch.setattr(active, "_query_udp", no_query)
        fqdns = tmp_path / "names.txt"
        fqdns.write_text("a.example\n")
        result = self.runner.invoke(main, [
            "discover", "resolve", "--fqdns", str(fqdns), "--vantage", f"v1=127.0.0.1:{port}",
            "--pacing", "0.01", "--unsafe-fast", "--out", str(tmp_path / "out.jsonl")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert (f"error: bad vantage 'v1=127.0.0.1:{port}' (want id=host[:port], "
                "port in 1..65535)") in result.output

    def test_report_unknown_figure_exits_1(self, tmp_path):
        result = self.runner.invoke(main, ["report", "fig99", "--from", str(tmp_path)])
        assert result.exit_code == 1

    def test_report_missing_artifact_exits_3(self, tmp_path):
        result = self.runner.invoke(main, ["report", "fig5_sweep", "--from", str(tmp_path)])
        assert result.exit_code == 3

    def test_report_anonymize_rewrites_providers(self, universe_dir, completed_run):
        config, _ = completed_run
        out_dir = config.out_dir
        result = self.runner.invoke(main, [
            "report", "fig6_visibility", "--from", str(out_dir),
            "--anonymize", "--salt", "s1",
            "--catalog", str(universe_dir / "catalog.yaml")])
        assert result.exit_code == 0
        assert "p01" not in result.output
        assert "O" in result.output

    def test_report_anonymize_with_a_catalog_that_does_not_parse_exits_1(self, completed_run,
                                                                          tmp_path):
        config, _ = completed_run
        bad = tmp_path / "catalog.yaml"
        bad.write_text("providers: [\n")
        result = self.runner.invoke(main, [
            "report", "fig6_visibility", "--from", str(config.out_dir),
            "--anonymize", "--catalog", str(bad)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {bad}: parse error: " in result.output

    def test_classify_with_a_missing_pdns_file_exits_2(self, universe_dir, completed_run,
                                                       tmp_path):
        import shutil

        config, _ = completed_run
        out_dir = tmp_path / "out"
        shutil.copytree(config.out_dir, out_dir)
        missing = tmp_path / "nope.jsonl"
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir,
                                  pdns=str(missing))
        result = self.runner.invoke(main, ["classify", "--config", str(run_yaml),
                                           "--out-dir", str(out_dir)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        assert str(missing) in result.output

    @pytest.mark.parametrize("text, reason", [
        ("window: [\n", "parse error: "),
        ("- catalog: catalog.yaml\n", "top level must be a mapping"),
    ])
    def test_run_with_a_config_that_is_no_mapping_exits_1(self, tmp_path, text, reason):
        run_yaml = tmp_path / "run.yaml"
        run_yaml.write_text(text)
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert f"error: {run_yaml}: {reason}" in result.output

    @pytest.mark.parametrize("setting, message", [
        ("window: 5", "field 'window': expected a mapping with start and end, not 5"),
        ("baseline_days: seven", "field 'baseline_days': expected an integer, not str"),
        ("window: {start: 2022-02-28, end: 2022-03-01}",
         "field 'window': start: naive datetime not allowed: "
         "datetime.datetime(2022, 2, 28, 0, 0)"),
        ("timezone: Nope/Zone", "field 'timezone': unknown time zone 'Nope/Zone'"),
        ("scanner_threshold: -1", "field 'scanner_threshold': must be >= 0"),
        ("sharing_threshold: -1", "field 'sharing_threshold': must be >= 0"),
        ("baseline_days: 0", "field 'baseline_days': must be >= 1"),
        ("sustain_hours: -2", "field 'sustain_hours': must be >= 1"),
    ], ids=["window-int", "baseline-days-text", "window-yaml-date", "timezone",
            "scanner-threshold-negative", "sharing-threshold-negative", "baseline-days-0",
            "sustain-hours-negative"])
    def test_run_with_a_bad_config_value_names_its_field_and_exits_1(
            self, universe_dir, tmp_path, setting, message):
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, tmp_path / "out")
        run_yaml.write_text(run_yaml.read_text() + setting + "\n")
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.output == f"error: {run_yaml}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["fuse", "--out-dir", "out"],
                                         ["disrupt", "outage", "--out", "f.jsonl"]])
    def test_a_missing_run_config_exits_2(self, tmp_path, command):
        missing = tmp_path / "run.yaml"
        result = self.runner.invoke(main, [*command, "--config", str(missing)])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        assert result.output == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("text, code, message", [
        (None, 2, "No such file or directory"),
        ("", 1, "missing field 'window'"),
        ("- seed: 5\n", 1, "top level must be a mapping"),
        ("seed: 5\nn_lines: many\n"
         "window: {start: '2022-02-28T00:00:00Z', end: '2022-03-01T00:00:00Z'}\n",
         1, "field 'n_lines': invalid literal for int() with base 10: 'many'"),
        ("seed: 5\nn_lines: 10\nproviders: [{provider_id: p01, n_servers: many}]\n",
         1, "field 'providers[0].n_servers': invalid literal for int() with base 10: 'many'"),
        ("seed: 5\nn_lines: 10\nproviders: [p01]\n",
         1, "field 'providers[0]': expected a mapping, not str"),
        ("seed: 5\nn_lines: 10\n"
         "providers: [{provider_id: p01, n_servers: 3, ports: [{transport: tcp}]}]\n",
         1, "missing field 'providers[0].ports[0].port'"),
    ], ids=["missing", "empty", "list", "bad-value", "bad-provider-value", "bad-provider",
            "missing-port"])
    def test_synth_generate_with_a_bad_config_names_it(self, tmp_path, text, code, message):
        config_path = tmp_path / "universe.yaml"
        if text is not None:
            config_path.write_text(text)
        result = self.runner.invoke(main, ["synth", "generate", "--config", str(config_path),
                                           "--out-dir", str(tmp_path / "u")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == code
        assert result.output == f"error: {config_path}: {message}\n"
        assert not (tmp_path / "u").exists()

    def test_synth_generate_and_oracle(self, tmp_path):
        config_path = tmp_path / "universe.yaml"
        config_path.write_text(yaml.safe_dump({
            "seed": 5, "n_lines": 40,
            "window": {"start": "2022-02-28T00:00:00Z", "end": "2022-03-01T00:00:00Z"},
            "providers": [{"provider_id": "p01", "n_servers": 5, "adoption": 0.5,
                           "regions": [{"token": "r1", "country": "DE"}]}],
        }))
        out_dir = tmp_path / "u"
        result = self.runner.invoke(main, [
            "synth", "generate", "--config", str(config_path),
            "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert (out_dir / "truth.json").exists()
        oracle_path = tmp_path / "oracle.json"
        result = self.runner.invoke(main, [
            "synth", "oracle", "--truth", str(out_dir / "truth.json"),
            "--out", str(oracle_path)])
        assert result.exit_code == 0, result.output
        doc = json.loads(oracle_path.read_text())
        assert doc["candidates"]

    def disrupt_outage(self, run_yaml: Path, out: Path) -> list[dict]:
        result = self.runner.invoke(main, ["disrupt", "outage", "--config", str(run_yaml),
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        return [json.loads(line) for line in out.read_text().splitlines()]

    def test_disrupt_outage_and_routing_cli(self, universe_dir, completed_run, tmp_path):
        """The findings cover exactly the hours fig13_outage.csv flags, with
        its baseline."""
        from datetime import timedelta

        from backmap.timeutil import fmt_iso, parse_iso

        config, _ = completed_run
        out_dir = config.out_dir
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir)
        findings = self.disrupt_outage(run_yaml, tmp_path / "findings.jsonl")
        flagged = {}
        for finding in findings:
            hour, end = parse_iso(finding["start"]), parse_iso(finding["end"])
            while hour <= end:
                flagged[(finding["provider_id"], finding["region"], fmt_iso(hour))] = \
                    finding["min_baseline"]
                hour += timedelta(hours=1)
        rows = (out_dir / "fig13_outage.csv").read_text().splitlines()[1:]
        assert flagged == {(pid, region, hour): float(baseline)
                           for pid, region, hour, _down, baseline, flag in
                           (row.split(",") for row in rows) if flag == "1"}
        assert [(f["provider_id"], f["region"]) for f in findings] == [("p01", "us-east-1")]

        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({
            "kind": "hijack", "prefix": "10.1.0.0/16",
            "start": "2022-02-28T06:00:00Z", "end": "2022-02-28T09:00:00Z"}) + "\n")
        result = self.runner.invoke(main, [
            "disrupt", "routing", "--servers", str(out_dir / "servers.jsonl"),
            "--events", str(events),
            "--window", "2022-02-28T00:00:00Z..2022-03-02T00:00:00Z",
            "--out", str(tmp_path / "overlap.jsonl")])
        assert result.exit_code == 0, result.output
        assert "1 with overlap" in result.output

    def test_disrupt_outage_skips_a_series_without_a_baseline_week(
            self, universe_dir, completed_run, tmp_path):
        """The trace starts 7 days before the window: with an 8-day baseline
        no series has one, and `disrupt outage` skips each, as the flows
        stage does, instead of failing."""
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir,
                                  completed_run[0].out_dir, baseline_days=8)
        assert self.disrupt_outage(run_yaml, tmp_path / "findings.jsonl") == []

    def test_disrupt_outage_follows_the_run_s_port_filter_and_timezone(
            self, universe_dir, tmp_path):
        """p01 attributes only a port its flows never use, in a zone whose
        offset is not a whole hour: the flows stage gives p01 no series, and
        `disrupt outage` finds no outage either."""
        catalog = yaml.safe_load((universe_dir / "catalog.yaml").read_text())
        p01 = next(p for p in catalog["providers"] if p["provider_id"] == "p01")
        p01["documented_protocols"].append(
            {"name": "mqtt-1883-tcp", "port": 1883, "transport": "tcp"})
        p01["dedicated_protocols"] = ["mqtt-1883-tcp"]
        (tmp_path / "catalog.yaml").write_text(yaml.safe_dump(catalog, sort_keys=False))
        out_dir = tmp_path / "out"
        run_yaml = write_run_yaml(tmp_path / "run.yaml", universe_dir, out_dir,
                                  catalog=str(tmp_path / "catalog.yaml"),
                                  timezone="Asia/Kolkata")
        result = self.runner.invoke(main, ["run", "--config", str(run_yaml)])
        assert result.exit_code == 0, result.output
        rows = (out_dir / "fig13_outage.csv").read_text().splitlines()[1:]
        assert rows and not [row for row in rows if row.startswith("p01,")]
        assert self.disrupt_outage(run_yaml, tmp_path / "findings.jsonl") == []

    def test_discover_resolve_cli(self, dns_server_factory, tmp_path):
        server = dns_server_factory({"a.example": ["192.0.2.1"]})
        fqdns = tmp_path / "names.txt"
        fqdns.write_text("a.example\n")
        out = tmp_path / "resolutions.jsonl"
        result = self.runner.invoke(main, [
            "discover", "resolve", "--fqdns", str(fqdns),
            "--vantage", f"v1=127.0.0.1:{server.port}",
            "--pacing", "0.01", "--unsafe-fast", "--timeout", "1",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["answers"] == ["192.0.2.1"]

    def test_discover_tls_cli(self, tls_server_factory, tmp_path):
        server = tls_server_factory(["probe.iot.example.com"])
        targets = tmp_path / "targets.jsonl"
        targets.write_text(json.dumps({"ip": "127.0.0.1", "port": server.port}) + "\n")
        out = tmp_path / "certs.jsonl"
        result = self.runner.invoke(main, [
            "discover", "tls", "--targets", str(targets), "--timeout", "2",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text().splitlines()[0])
        assert "probe.iot.example.com" in doc["names"]

    def test_disrupt_blocklist_cli(self, completed_run, tmp_path):
        config, _ = completed_run
        out_dir = config.out_dir
        netset = tmp_path / "bad.netset"
        servers = (out_dir / "servers.jsonl").read_text().splitlines()
        first_ip = json.loads(servers[0])["ip"]
        netset.write_text(f"# test\n{first_ip}\n")
        result = self.runner.invoke(main, [
            "disrupt", "blocklist", "--servers", str(out_dir / "servers.jsonl"),
            "--list", str(netset), "--out", str(tmp_path / "matches.jsonl")])
        assert result.exit_code == 0
        assert "1 matched IPs" in result.output


def test_outputs_do_not_depend_on_the_hash_seed(universe_dir, tmp_path):
    """Full runs under two PYTHONHASHSEED values write the same bytes, the
    manifest included, so no output follows set or dict iteration order."""
    src = Path(backmap.__file__).resolve().parents[1]
    trees = []
    for seed in ("0", "1"):
        out_dir = tmp_path / f"seed{seed}"
        run_yaml = write_run_yaml(tmp_path / f"run{seed}.yaml", universe_dir, out_dir)
        subprocess.run([sys.executable, "-m", "backmap.cli", "run", "--config", str(run_yaml)],
                       capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
        trees.append({str(p.relative_to(out_dir)): p.read_bytes()
                      for p in sorted(out_dir.rglob("*")) if p.is_file()})
    assert "manifest.json" in trees[0]
    assert trees[0].keys() == trees[1].keys()
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], rel


def test_outage_drill_runs_with_its_defaults():
    """`scripts/outage_drill.py` flags its injected 4-hour us-east drop, at
    10:00 to 13:00 UTC, under a 2-hour sustain window."""
    src = Path(backmap.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "outage_drill.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    line = next(line for line in result.stdout.splitlines() if line.startswith("sustain=2h"))
    assert line.startswith("sustain=2h -> 1 finding(s): t1/us-east ")
    assert line.endswith(" 10:00..13:00")


def test_runtime_imports_leave_numpy_out():
    """numpy is a test dependency only: importing it would add to every
    run's start-up time and resident memory. The pipeline's record types are
    NamedTuples or slotted classes, so `import backmap.pipeline` also leaves
    out `dataclasses` and the `inspect` it imports (the CLI's click needs
    `inspect`)."""
    src = Path(backmap.__file__).resolve().parents[1]
    code = ("import sys, backmap.pipeline; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "import backmap.cli; print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.split() == ["[]", "False"]


def test_runtime_imports_leave_the_live_probe_modules_out():
    """`ssl` and the thread pool serve only the live probes in `backmap.active`,
    which the pipeline and the CLI's module level never import."""
    src = Path(backmap.__file__).resolve().parents[1]
    code = ("import sys, backmap.pipeline, backmap.cli; "
            "print(sorted({'ssl', 'concurrent.futures', 'backmap.active'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.strip() == "[]"


def test_readme_cli_block_names_every_command():
    """Each `backmap ...` line of README's CLI block names a registered
    command, and each registered command has a line there."""
    import click

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    documented = set()
    for line in block.splitlines():
        if line.startswith("backmap "):
            words = line.split()
            command = main.commands.get(words[1])
            assert command is not None, line
            if isinstance(command, click.Group):
                assert words[2] in command.commands, line
                documented.add(f"{words[1]} {words[2]}")
            else:
                documented.add(words[1])
    registered = set()
    for name, command in main.commands.items():
        if isinstance(command, click.Group):
            registered.update(f"{name} {sub}" for sub in command.commands)
        else:
            registered.add(name)
    assert documented == registered
