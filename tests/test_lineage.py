"""Resumable run: lineage manifest, counters, bucket skipping."""

import json
import os

import pytest

from cdx_toolkit_ray.pipelines.frontier import run_frontier
from cdx_toolkit_ray.state.lineage import (
    LineageManifest,
    atomic_write_dir,
    fingerprint_file,
)

pytestmark = pytest.mark.usefixtures("ray_session")


def test_run_frontier_and_resume(fixture_dir, tmp_path):
    out = str(tmp_path / "run1")
    r1 = run_frontier(fixture_dir["seeds"], fixture_dir["robots"], out,
                      num_buckets=4)
    assert r1["ran_buckets"] == [0, 1, 2, 3]
    assert os.path.exists(r1["manifest"])
    with open(r1["manifest"]) as fd:
        entries = json.load(fd)
    assert len(entries) == 4
    total_fetched = sum(e["fetched"] for e in entries.values())
    assert total_fetched > 0

    # rerun with identical inputs: everything skipped
    r2 = run_frontier(fixture_dir["seeds"], fixture_dir["robots"], out,
                      num_buckets=4)
    assert r2["skipped_buckets"] == [0, 1, 2, 3]
    assert r2["ran_buckets"] == []

    # corrupting one manifest entry causes exactly that bucket to rerun
    m = LineageManifest(out)
    m.entries["2"]["input_fingerprint"] = "stale"
    m._flush()
    r3 = run_frontier(fixture_dir["seeds"], fixture_dir["robots"], out,
                      num_buckets=4)
    assert r3["ran_buckets"] == [2]
    assert set(r3["skipped_buckets"]) == {0, 1, 3}


def test_rerun_bucket_replaces_its_rows(fixture_dir, tmp_path):
    """A bucket that runs again (here: every bucket, after one added
    seed row changes the input fingerprint) replaces its part files, so
    rows on disk per bucket equal the manifest's ``rows``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    seeds = str(tmp_path / "seeds.parquet")
    table = pq.read_table(fixture_dir["seeds"])
    pq.write_table(table, seeds)
    out = str(tmp_path / "run")
    run_frontier(seeds, fixture_dir["robots"], out, num_buckets=4)

    extra = table.slice(0, 1).to_pylist()[0]
    extra.update(url="https://added.example/new-page",
                 seed_order=max(table["seed_order"].to_pylist()) + 1)
    pq.write_table(pa.concat_tables(
        [table, pa.Table.from_pylist([extra], schema=table.schema)]), seeds)
    r2 = run_frontier(seeds, fixture_dir["robots"], out, num_buckets=4)
    assert r2["ran_buckets"] == [0, 1, 2, 3]

    with open(r2["manifest"]) as fd:
        entries = json.load(fd)
    assert sum(e["rows"] for e in entries.values()) == table.num_rows + 1 \
        - sum(e["deduped"] for e in entries.values())
    for b, e in entries.items():
        part = os.path.join(out, "flow", "host_bucket=%s" % b)
        on_disk = sum(pq.read_metadata(os.path.join(part, f)).num_rows
                      for f in os.listdir(part)) \
            if os.path.isdir(part) else 0
        assert on_disk == e["rows"], b


def test_counters_match_direct_pipeline(fixture_dir, tmp_path):
    from cdx_toolkit_ray.pipelines.frontier import frontier_flow, host_counters

    out = str(tmp_path / "run2")
    run_frontier(fixture_dir["seeds"], fixture_dir["robots"], out,
                 num_buckets=2)
    with open(os.path.join(out, "_lineage.json")) as fd:
        entries = json.load(fd)
    manifest_fetched = sum(e["fetched"] for e in entries.values())
    manifest_deduped = sum(e["deduped"] for e in entries.values())

    flow = frontier_flow(fixture_dir["seeds"], fixture_dir["robots"])
    rows = host_counters(flow).take_all()
    assert manifest_fetched == sum(r["fetched"] for r in rows)
    assert manifest_deduped == sum(r["deduped"] for r in rows)


def test_fingerprint_stability(fixture_dir):
    f1 = fingerprint_file(fixture_dir["seeds"])
    f2 = fingerprint_file(fixture_dir["seeds"])
    assert f1 == f2
    assert f1 != fingerprint_file(fixture_dir["robots"])


def test_atomic_write_dir(tmp_path):
    final = str(tmp_path / "out")
    with atomic_write_dir(final) as tmp:
        with open(os.path.join(tmp, "x.txt"), "w") as fd:
            fd.write("ok")
    assert os.path.exists(os.path.join(final, "x.txt"))
    # failure path leaves no final dir
    final2 = str(tmp_path / "out2")
    try:
        with atomic_write_dir(final2) as tmp:
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert not os.path.exists(final2)
