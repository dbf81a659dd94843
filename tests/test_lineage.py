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


def _bucket_tables(out, num_buckets):
    """Per bucket: its rows on disk sorted by seed_order, and the names
    of its part files."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    got = {}
    for b in range(num_buckets):
        part = os.path.join(out, "flow", "host_bucket=%d" % b)
        files = sorted(os.listdir(part)) if os.path.isdir(part) else []
        t = pa.concat_tables([pq.read_table(os.path.join(part, f))
                              for f in files]) if files else None
        got[b] = (t.sort_by("seed_order") if t is not None else None, files)
    return got


def _manifest_counters(out):
    with open(os.path.join(out, "_lineage.json")) as fd:
        entries = json.load(fd)
    return {b: {k: v for k, v in e.items() if k != "output_path"}
            for b, e in entries.items()}


def test_failed_rerun_write_keeps_old_buckets(fixture_dir, tmp_path,
                                              monkeypatch):
    """A rerun whose write fails part way (a stage that raises once
    bucket 3's rows arrive) leaves every old bucket's part files and
    manifest entry as they were; the next rerun equals an uninterrupted
    run of the new inputs, rows and counters."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cdx_toolkit_ray.pipelines import frontier

    seeds = str(tmp_path / "seeds.parquet")
    table = pq.read_table(fixture_dir["seeds"])
    pq.write_table(table, seeds)
    out = str(tmp_path / "run")
    run_frontier(seeds, fixture_dir["robots"], out, num_buckets=4)
    before, manifest_before = _bucket_tables(out, 4), _manifest_counters(out)

    extra = table.slice(0, 1).to_pylist()[0]
    extra.update(url="https://added.example/new-page",
                 seed_order=max(table["seed_order"].to_pylist()) + 1)
    pq.write_table(pa.concat_tables(
        [table, pa.Table.from_pylist([extra], schema=table.schema)]), seeds)

    real = frontier._make_count_stage

    def failing_count_stage(actor, num_buckets):
        count = real(actor, num_buckets)

        def count_then_fail(batch):
            batch = count(batch)
            if 3 in batch["host_bucket"].to_pylist():
                raise RuntimeError("write interrupted")
            return batch

        return count_then_fail

    monkeypatch.setattr(frontier, "_make_count_stage", failing_count_stage)
    with pytest.raises(Exception, match="write interrupted"):
        run_frontier(seeds, fixture_dir["robots"], out, num_buckets=4)
    after = _bucket_tables(out, 4)
    for b in range(4):
        assert after[b][1] == before[b][1], b
        assert after[b][0].equals(before[b][0]), b
    assert _manifest_counters(out) == manifest_before

    monkeypatch.undo()
    assert run_frontier(seeds, fixture_dir["robots"], out,
                        num_buckets=4)["ran_buckets"] == [0, 1, 2, 3]
    fresh = str(tmp_path / "fresh")
    run_frontier(seeds, fixture_dir["robots"], fresh, num_buckets=4)
    rerun, whole = _bucket_tables(out, 4), _bucket_tables(fresh, 4)
    for b in range(4):
        assert rerun[b][0].equals(whole[b][0]), b
    assert _manifest_counters(out) == _manifest_counters(fresh)
    assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))


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


def test_fingerprint_sees_same_length_edit(fixture_dir, tmp_path):
    """A seed edit that keeps every length (so row counts and footer
    sizes stay put) changes the fingerprint, and run_frontier reruns
    its buckets instead of skipping them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    seeds = str(tmp_path / "seeds.parquet")
    table = pq.read_table(fixture_dir["seeds"])
    pq.write_table(table, seeds)
    before = fingerprint_file(seeds)
    out = str(tmp_path / "run")
    assert run_frontier(seeds, fixture_dir["robots"], out,
                        num_buckets=4)["ran_buckets"] == [0, 1, 2, 3]

    urls = table["url"].to_pylist()
    old = urls[5]
    urls[5] = old[:-1] + ("x" if old[-1] != "x" else "y")
    edited = table.set_column(table.schema.get_field_index("url"), "url",
                              pa.array(urls, table.schema.field("url").type))
    pq.write_table(edited, seeds)
    assert pq.read_metadata(seeds).num_rows == table.num_rows
    assert fingerprint_file(seeds) != before
    r2 = run_frontier(seeds, fixture_dir["robots"], out, num_buckets=4)
    assert r2["ran_buckets"] == [0, 1, 2, 3]
    assert r2["skipped_buckets"] == []


def test_run_frontier_over_seeds_directory(fixture_dir, tmp_path):
    """A multi-file seeds directory fingerprints by its files' names
    and bytes: run_frontier over it resumes, a marker file leaves the
    fingerprint as it is, and an edit to one file reruns every
    bucket."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    table = pq.read_table(fixture_dir["seeds"])
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    half = table.num_rows // 2
    pq.write_table(table.slice(0, half), str(seeds / "part-0.parquet"))
    pq.write_table(table.slice(half), str(seeds / "part-1.parquet"))
    before = fingerprint_file(str(seeds))
    (seeds / ".done").write_text("")
    assert fingerprint_file(str(seeds)) == before

    out = str(tmp_path / "run")
    assert run_frontier(str(seeds), fixture_dir["robots"], out,
                        num_buckets=4)["ran_buckets"] == [0, 1, 2, 3]
    assert run_frontier(str(seeds), fixture_dir["robots"], out,
                        num_buckets=4)["ran_buckets"] == []

    urls = table.slice(half)["url"].to_pylist()
    urls[0] = urls[0] + "x"
    pq.write_table(table.slice(half).set_column(
        table.schema.get_field_index("url"), "url",
        pa.array(urls, table.schema.field("url").type)),
        str(seeds / "part-1.parquet"))
    assert fingerprint_file(str(seeds)) != before
    assert run_frontier(str(seeds), fixture_dir["robots"], out,
                        num_buckets=4)["ran_buckets"] == [0, 1, 2, 3]
