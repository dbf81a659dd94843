"""Capture-iteration pipeline vs a DuckDB oracle on the fixture corpus.

Checks the reference's ordering/limit/filter contracts
(cocrawler/cdx_toolkit README.md:243-252, __init__.py:260-384) hold for
the planned task scan.
"""

import glob
import math
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from cdx_toolkit_ray.sources import captures
from cdx_toolkit_ray.sources.captures import (
    list_crawl_partitions,
    pages_to_samples,
    plan_query,
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


def test_fixture_plan_keys_by_real_path(tmp_path):
    """The generated crawl fixture is sized and cached by the sf
    directory's real path: a symlink to an sf0.01 directory gets the
    directory's own 5,000-page fixture root."""
    from cdx_toolkit_ray.queries._curation import _fixture_plan

    real = tmp_path / "sf0.01"
    real.mkdir()
    link = tmp_path / "data"
    link.symlink_to(real)
    other = tmp_path / "sf0.1"
    other.mkdir()
    root, pages = _fixture_plan(str(real))
    assert pages == 5000
    assert _fixture_plan(str(link)) == (root, pages)
    assert _fixture_plan(str(link) + "/") == (root, pages)
    other_root, other_pages = _fixture_plan(str(other))
    assert other_pages == 1000 and other_root != root


# The decoded-column cache lives in each scan worker; these tests run
# the scan kernel (``captures._scan`` / ``_read_file``) in this process,
# where a monkeypatch reaches it.

def _uncached_read(path, columns):
    """The file read without the decoded-column cache: every call
    decodes the file's columns and builds its hive columns."""
    hive = captures._hive_values(path)
    data_cols = None if columns is None else \
        [c for c in columns if c not in hive]
    t = pq.ParquetFile(path).read(columns=data_cols)
    for k, v in hive.items():
        if k not in t.column_names and (columns is None or k in columns):
            t = t.append_column(k, pa.array([v] * t.num_rows, pa.string()))
    return t


def _same(a, b):
    return (a.schema.equals(b.schema, check_metadata=True)
            and a.equals(b) and a.num_rows == b.num_rows)


# (url, query kwargs, fields): exact, prefix, host and domain matches
# with filters, windows, limit, closest and fields=
_W = {"from_ts": "2021", "to": "2024"}
_CACHE_SHAPES = [
    ("https://www.big-portal.example/", _W, None),
    ("big-portal.example/*", dict(_W, filter=["=status:200"]), None),
    ("big-portal.example", {"matchType": "host", "from_ts": "2022",
                            "to": "2023"}, None),
    ("*.news-hub.example", dict(_W, filter=["!=status:404", "mime:html"],
                                limit=7), None),
    ("*.shop.example", dict(_W, closest="20230301000000", limit=5), None),
    ("*.wiki-beta.example", dict(_W, filter=["=status:200"]),
     ["url", "mime", "crawl"]),
    # a negative filter on a column no file has: scans of no column
    (None, {"crawl": ["CC-MAIN-2022-40"], "filter": ["!=nope:x"]}, []),
]


def _scan_shapes(root):
    """Every shape's per-partition scan tables, then the row counts its
    size estimate scans (``fields=[]``: predicate columns only)."""
    out = []
    for url, kw, fields in _CACHE_SHAPES:
        plan = plan_query(root, url=url, fields=fields, **dict(kw))
        out.append([captures._scan(plan, i)
                    for i in range(len(plan.partitions))])
        est = plan_query(root, url=url, fields=[],
                         **{k: v for k, v in kw.items()
                            if k not in ("limit", "closest")})
        out.append([captures._scan(est, i).num_rows
                    for i in range(len(est.partitions))])
    return out


def _same_scans(a, b):
    return len(a) == len(b) and all(
        len(x) == len(y) and all(
            _same(p, q) if isinstance(p, pa.Table) else p == q
            for p, q in zip(x, y))
        for x, y in zip(a, b))


def test_scan_cache_cold_warm_and_zero_budget_equal_uncached(fixture_dir,
                                                             monkeypatch):
    root = fixture_dir["captures"]
    ctx = DataContext.get_current()
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    cold = _scan_shapes(root)
    assert captures._DECODED.files
    warm = _scan_shapes(root)
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    monkeypatch.setattr(ctx, "target_max_block_size", 0)
    zero = _scan_shapes(root)
    assert not captures._DECODED.files and captures._DECODED.nbytes == 0
    monkeypatch.setattr(captures, "_read_file", _uncached_read)
    want = _scan_shapes(root)
    assert all(sum(t.num_rows for t in shape) for shape in want[0:-2:2])
    assert want[-2][0].num_columns == 0
    for got in (cold, warm, zero):
        assert _same_scans(got, want)


def test_read_file_equals_uncached_read_for_any_columns(fixture_dir,
                                                        monkeypatch):
    """Column order, hive columns, requested columns the file lacks and
    a read of no column at all are as ``ParquetFile.read`` gives them,
    whichever columns an earlier call left decoded."""
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    path = captures._partition_files(
        list_crawl_partitions(fixture_dir["captures"])["CC-MAIN-2022-40"])[0]
    for cols in ([], ["url", "crawl", "urlkey"], ["status"], None,
                 ["nope", "status", "crawl"], ["crawl"], ["nope"], [],
                 ["timestamp", "url"], None):
        assert _same(captures._read_file(path, cols),
                     _uncached_read(path, cols)), cols


def _write_partition(path, stamp):
    """A small partition whose rewrites keep the file size: uncompressed,
    plain-encoded, fixed-width values."""
    n = 50
    pq.write_table(pa.table({
        "urlkey": ["com,example)/%04d" % i for i in range(n)],
        "timestamp": ["2022%010d" % (stamp * 1000 + i) for i in range(n)],
        "status": ["200"] * n,
    }), path, compression="none", use_dictionary=False)


def test_scan_cache_sees_an_in_place_rewrite(tmp_path, monkeypatch):
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    part = tmp_path / "crawl=CC-MAIN-2022-05"
    part.mkdir()
    path = str(part / "part-0.parquet")
    _write_partition(path, 1)
    first = captures._read_file(path, None)
    assert _same(captures._read_file(path, None), first)
    st = os.stat(path)
    _write_partition(path, 2)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    st2 = os.stat(path)
    assert (st2.st_size, st2.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    got = captures._read_file(path, None)
    assert _same(got, _uncached_read(path, None))
    assert not _same(got, first)
    # a rewrite of another size
    pq.write_table(pa.table({"urlkey": ["com,example)/x"],
                             "timestamp": ["20220101000000"]}), path)
    assert _same(captures._read_file(path, None),
                 _uncached_read(path, None))


def test_scan_cache_stays_within_budget(fixture_dir, monkeypatch):
    """The least recently used files go first, the cache never holds
    more than the budget, and a file over the whole budget is read but
    not kept."""
    parts = list_crawl_partitions(fixture_dir["captures"])
    paths = [captures._partition_files(parts[c])[0] for c in sorted(parts)]
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    sizes = []
    for p in paths:
        captures._read_file(p, None)
        sizes.append(captures._DECODED.files[p].nbytes)
    ctx = DataContext.get_current()
    budget = sizes[-2] + sizes[-1]
    monkeypatch.setattr(ctx, "target_max_block_size", budget)
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    for p in paths:
        assert _same(captures._read_file(p, None), _uncached_read(p, None))
        cache = captures._DECODED
        assert cache.nbytes <= budget
        assert cache.nbytes == sum(e.nbytes for e in cache.files.values())
    assert list(captures._DECODED.files) == paths[-2:]
    # one file over the whole budget: read as without a cache, not kept
    monkeypatch.setattr(ctx, "target_max_block_size", sizes[0] - 1)
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    assert _same(captures._read_file(paths[0], None),
                 _uncached_read(paths[0], None))
    assert not captures._DECODED.files and captures._DECODED.nbytes == 0


def test_cold_fields_scan_decodes_only_plan_columns(fixture_dir,
                                                    monkeypatch):
    reads = []

    class Spy(pq.ParquetFile):
        def read(self, columns=None, **kw):
            reads.append(columns)
            return super().read(columns=columns, **kw)

    monkeypatch.setattr(pq, "ParquetFile", Spy)
    monkeypatch.setattr(captures, "_DECODED", captures._DecodedColumns())
    root = fixture_dir["captures"]
    plan = plan_query(root, url="*.wiki-beta.example", from_ts="2021",
                      to="2024", filter=["=status:200"],
                      fields=["url", "mime"])
    for i in range(len(plan.partitions)):
        captures._scan(plan, i)
    want = {"url", "mime", "urlkey", "timestamp", "status"}
    assert reads and all(c is not None and set(c) == want for c in reads)
    # a warm worker reads only the columns its entry lacks
    reads.clear()
    plan = plan_query(root, url="*.wiki-beta.example", from_ts="2021",
                      to="2024", filter=["=status:200"],
                      fields=["url", "digest"])
    for i in range(len(plan.partitions)):
        captures._scan(plan, i)
    assert reads and all(c == ["digest"] for c in reads)
