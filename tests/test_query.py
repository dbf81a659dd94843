"""Capture-iteration pipeline vs a DuckDB oracle on the fixture corpus.

Checks the reference's ordering/limit/filter contracts
(cocrawler/cdx_toolkit README.md:243-252, __init__.py:260-384) hold for
the planned task scan.
"""

import glob
import math
import os

import duckdb
import pytest

from cdx_toolkit_ray.sources import captures
from cdx_toolkit_ray.sources.captures import (
    list_crawl_partitions,
    pages_to_samples,
    query_captures,
    size_estimate,
)

pytestmark = pytest.mark.usefixtures("ray_session")


def _con(fixture_dir):
    con = duckdb.connect()
    pat = os.path.join(fixture_dir["captures"], "crawl=*", "*.parquet")
    con.execute(
        "CREATE VIEW captures AS SELECT * FROM read_parquet('%s', "
        "hive_partitioning=true)" % pat)
    return con


def test_within_crawl_ordering_ascending(fixture_dir):
    ds = query_captures(fixture_dir["captures"], url="*.big-portal.example",
                        cc_sort="ascending", from_ts="2021", to="2024")
    rows = ds.select_columns(["urlkey", "timestamp"]).take_all()
    got = [(r["urlkey"], r["timestamp"]) for r in rows]
    # crawl partitions are walked oldest-first; within each crawl rows
    # ascend by (urlkey, timestamp). Verify piecewise sortedness per crawl
    # by reconstructing the expected concatenation from the oracle.
    con = _con(fixture_dir)
    want = []
    for crawl in sorted(list_crawl_partitions(fixture_dir["captures"])):
        part = con.execute(
            "SELECT urlkey, timestamp FROM captures WHERE crawl=? AND "
            "(urlkey LIKE 'example,big-portal)%' OR urlkey LIKE 'example,big-portal,%') "
            "ORDER BY urlkey, timestamp", [crawl]).fetchall()
        want.extend(part)
    assert got == want


def test_mixed_ordering_reverses_crawls(fixture_dir):
    asc = query_captures(fixture_dir["captures"], url="*.news-hub.example",
                         cc_sort="ascending", from_ts="2021", to="2024")
    mix = query_captures(fixture_dir["captures"], url="*.news-hub.example",
                         cc_sort="mixed", from_ts="2021", to="2024")
    a = [r["timestamp"] for r in asc.select_columns(["timestamp"]).take_all()]
    m = [r["timestamp"] for r in mix.select_columns(["timestamp"]).take_all()]
    assert sorted(a) == sorted(m)
    assert a != m  # different concatenation order (multiple crawls hit)
    # mixed = newest crawl first: its first row is from the newest crawl
    con = _con(fixture_dir)
    newest = con.execute(
        "SELECT max(crawl) FROM captures WHERE urlkey LIKE 'example,news-hub%'"
    ).fetchone()[0]
    first_crawl = con.execute(
        "SELECT crawl FROM captures WHERE timestamp=? AND "
        "urlkey LIKE 'example,news-hub%' LIMIT 1", [m[0]]).fetchone()[0]
    assert first_crawl == newest


def test_filter_and_window_vs_oracle(fixture_dir):
    ds = query_captures(fixture_dir["captures"], url="*.shop.example",
                        cc_sort="ascending", from_ts="20220101",
                        to="20231001", filter=["=status:200", "mime:html"])
    got = sorted((r["urlkey"], r["timestamp"])
                 for r in ds.select_columns(["urlkey", "timestamp"]).take_all())
    con = _con(fixture_dir)
    want = sorted(con.execute(
        "SELECT urlkey, timestamp FROM captures WHERE "
        "(urlkey LIKE 'example,shop)%' OR urlkey LIKE 'example,shop,%') "
        "AND status='200' AND mime LIKE '%html%' "
        "AND timestamp >= '20220101000000' AND timestamp <= '20231001235959'"
    ).fetchall())
    assert got == want
    assert len(got) > 0


def test_limit_streams(fixture_dir):
    ds = query_captures(fixture_dir["captures"], url="*.big-portal.example",
                        cc_sort="ascending", from_ts="2021", to="2024", limit=7)
    assert ds.count() == 7


def test_closest_ordering(fixture_dir):
    target = "20230301000000"
    ds = query_captures(fixture_dir["captures"], url="*.big-portal.example",
                        closest=target, limit=10)
    rows = ds.take_all()
    deltas = [r["closest_delta"] for r in rows]
    assert deltas == sorted(deltas)
    assert len(rows) == 10


def test_fields_projection(fixture_dir):
    ds = query_captures(fixture_dir["captures"], url="*.wiki-beta.example",
                        cc_sort="ascending", from_ts="2021", to="2024",
                        fields=["url", "status", "timestamp"])
    row = ds.take(1)[0]
    assert set(row) == {"url", "status", "timestamp"}


def test_fields_push_column_pruning_into_read(fixture_dir, monkeypatch):
    """With --fields given, the scan kernel reads only fields +
    predicate columns (urlkey/timestamp/filter fields) — on a wide
    capture table this is the metadata-vs-everything difference."""
    seen_cols = []
    real = captures._scan_partition

    class Spy:
        def remote(self, plan, i):
            seen_cols.append(plan.partitions[i].columns)
            return real.remote(plan, i)

    monkeypatch.setattr(captures, "_scan_partition", Spy())
    ds = query_captures(fixture_dir["captures"], url="*.wiki-beta.example",
                        from_ts="2021", to="2024",
                        filter=["=status:200"],
                        fields=["url", "mime"])
    assert seen_cols and all(c is not None for c in seen_cols)
    for c in seen_cols:
        assert set(c) == {"url", "mime", "urlkey", "timestamp", "status"}
    # pruned read returns the same rows as the unpruned path
    full = query_captures(fixture_dir["captures"],
                          url="*.wiki-beta.example",
                          from_ts="2021", to="2024",
                          filter=["=status:200"]) \
        .to_pandas()[["url", "mime"]].sort_values(["url", "mime"])
    got = ds.to_pandas().sort_values(["url", "mime"])
    assert got.reset_index(drop=True).equals(full.reset_index(drop=True))
    # no-fields queries keep reading the full dynamic schema
    seen_cols.clear()
    query_captures(fixture_dir["captures"], url="*.wiki-beta.example")
    assert seen_cols and all(c is None for c in seen_cols)


def test_over_budget_pages_table_never_builds_driver_dict(fixture_dir,
                                                          monkeypatch):
    """Above the driver-index byte budget the interactive veneer must
    resolve content per url (predicate-pushdown reads), never a dict of
    the whole pages table — and return byte-identical content."""
    import cdx_toolkit_ray as ctr
    from cdx_toolkit_ray.api import _LazyContentIndex

    def fetch(budget):
        cdx = ctr.CDXFetcher(captures_root=fixture_dir["captures"],
                             pages_path=fixture_dir["pages"])
        monkeypatch.setattr(type(cdx), "INDEX_BUDGET_BYTES", budget)
        objs = list(cdx.iter("*.big-portal.example", limit=5,
                             from_ts="2021", to="2024",
                             filter=["=status:200"]))
        return cdx._index(), [(o["url"], o.content) for o in objs]

    idx_lazy, lazy = fetch(0)              # everything over budget
    idx_dict, full = fetch(1 << 40)        # everything under budget
    assert isinstance(idx_lazy, _LazyContentIndex)
    assert isinstance(idx_dict, dict)
    assert lazy == full and len(lazy) == 5
    assert all(isinstance(c, bytes) for _, c in lazy)


def test_size_estimate_math(fixture_dir):
    assert pages_to_samples(0) == 0
    assert pages_to_samples(1) == 1500
    assert pages_to_samples(2) == 3000
    assert pages_to_samples(5) == 12000
    n = size_estimate(fixture_dir["captures"], url="*.big-portal.example",
                      from_ts="2021", to="2024")
    # every matching crawl contributes >=1 page -> >=1500 samples
    assert n >= 1500
    pages = size_estimate(fixture_dir["captures"], url="*.big-portal.example",
                          from_ts="2021", to="2024", as_pages=True)
    assert pages >= 1


@pytest.mark.parametrize("filt", ["=languages:eng", "!~digest:[0-9A-F]+"])
def test_size_estimate_filters_any_column(fixture_dir, filt):
    """A filter on a column outside the url/window/mime/status set is
    counted, not treated as a missing field: the estimate equals the
    page arithmetic over the rows iter returns."""
    import cdx_toolkit_ray as ctr

    cdx = ctr.CDXFetcher(captures_root=fixture_dir["captures"])
    kw = dict(crawl="CC-MAIN-2022-40", filter=[filt])
    n = sum(1 for _ in cdx.iter("*.big-portal.example", **kw))
    assert (n > 0) == filt.startswith("=")
    pages = math.ceil(n / 3000)
    assert cdx.get_size_estimate("*.big-portal.example", as_pages=True,
                                 **kw) == pages
    assert cdx.get_size_estimate("*.big-portal.example",
                                 **kw) == pages_to_samples(pages)


def test_limit_calls_never_cancel(fixture_dir, monkeypatch):
    """limit stops submitting scans instead of cancelling them: 200
    get/iter calls with limit in {1, 7, 100} never call ray.cancel, and
    each returns the first ``limit`` rows of the unlimited query."""
    import ray

    import cdx_toolkit_ray as ctr

    cancels = []
    real_cancel = ray.cancel

    def spy(*a, **kw):
        cancels.append(a)
        return real_cancel(*a, **kw)

    monkeypatch.setattr(ray, "cancel", spy)
    queries = [(sort, url, kw)
               for sort in ("mixed", "ascending")
               for url, kw in (("*.big-portal.example", {}),
                               ("*.news-hub.example",
                                {"filter": ["=status:200"]}),
                               ("big-portal.example/*", {}),
                               ("*.shop.example",
                                {"filter": ["!=status:404"]}))]
    fetchers = {sort: ctr.CDXFetcher(captures_root=fixture_dir["captures"],
                                     cc_sort=sort)
                for sort in ("mixed", "ascending")}
    full = {}
    for sort, url, kw in queries:
        full[sort, url] = [(o["urlkey"], o["timestamp"], o["crawl"])
                           for o in fetchers[sort].iter(
                               url, from_ts="2021", to="2024", **kw)]
    # limit 100 reaches past the first crawl for some query
    assert any(len({c for _, _, c in rows[:100]}) > 1
               for rows in full.values())
    for k in range(200):
        sort, url, kw = queries[k % len(queries)]
        limit = (1, 7, 100)[k % 3]
        call = (fetchers[sort].get if k // len(queries) % 2
                else fetchers[sort].iter)
        got = [(o["urlkey"], o["timestamp"], o["crawl"])
               for o in call(url, from_ts="2021", to="2024", limit=limit,
                             **kw)]
        assert got == full[sort, url][:limit], (sort, url, limit)
    assert cancels == []


def test_crawl_name_selection(fixture_dir):
    ds = query_captures(fixture_dir["captures"], crawl=["CC-MAIN-2022-05"])
    con = _con(fixture_dir)
    want = con.execute(
        "SELECT count(*) FROM captures WHERE crawl='CC-MAIN-2022-05'"
    ).fetchone()[0]
    assert ds.count() == want


def test_preserve_order_scoped_to_query(fixture_dir):
    """query_captures must not leak preserve_order into the global
    DataContext, while the Dataset it returns keeps the cross-crawl
    order (newest crawl first under cc_sort=mixed, ascending
    (urlkey, timestamp) within a crawl)."""
    import ray.data

    ds = query_captures(fixture_dir["captures"], "*.big-portal.example",
                        from_ts="2021", to="2024")
    assert (ray.data.DataContext.get_current()
            .execution_options.preserve_order is False)
    fresh = ray.data.range(4)
    assert fresh.context.execution_options.preserve_order is False
    got = [(r["urlkey"], r["timestamp"]) for r in ds.take_all()]
    con = _con(fixture_dir)
    per_crawl = [con.execute(
        "SELECT urlkey, timestamp FROM captures WHERE crawl=? AND "
        "(urlkey LIKE 'example,big-portal)%' OR "
        "urlkey LIKE 'example,big-portal,%') "
        "ORDER BY urlkey, timestamp", [crawl]).fetchall()
        for crawl in sorted(list_crawl_partitions(fixture_dir["captures"]),
                            reverse=True)]
    assert sum(1 for rows in per_crawl if rows) > 1
    assert got == [r for rows in per_crawl for r in rows]


def test_pushdown_keeps_sort_keys(ray_session, fixture_dir):
    """fields= pruning must still read the closest sort keys."""
    root = fixture_dir["captures"]
    out = query_captures(root, url=None, closest="20220601000000",
                         from_ts="2021", to="2024", limit=5,
                         fields=["url"]).to_pandas()
    assert len(out) > 0


def test_size_estimate_on_file_source(ray_session, fixture_dir):
    """A --source FILE table (no crawl= partitions) must estimate via
    parquet metadata, not crash on os.listdir."""
    from cdx_toolkit_ray.sources.captures import size_estimate

    pages = fixture_dir["pages"]  # a single parquet FILE
    n = size_estimate(pages, source="custom")
    assert n > 0
