"""Zipnum cluster CDX index (sources/zipnum.py): build round trip,
binary-searched pruned lookup, CDXJ render/parse parity."""

import glob
import os

import pyarrow as pa
import pytest
import ray.data

pytestmark = pytest.mark.usefixtures("ray_session")

COLS = ("urlkey", "timestamp", "url", "mime", "mime_detected",
        "status", "digest", "length", "offset", "filename",
        "redirect", "languages", "encoding")


def _captures(n=200, hosts=("aa", "bb", "cc", "dd")):
    rows = []
    for i in range(n):
        h = hosts[i % len(hosts)]
        rows.append({
            "urlkey": "example,%s)/p/%03d" % (h, i // len(hosts)),
            "timestamp": "2023%02d01%02d%02d00"
                         % (1 + i % 12, i % 24, i % 60),
            "url": "https://%s.example/p/%03d" % (h, i // len(hosts)),
            "mime": "text/html", "mime_detected": "text/html",
            "status": "200" if i % 7 else "404",
            "digest": "D%05d" % i, "length": 100 + i,
            "offset": 1000 * i,
            "filename": "crawl-data/seg/%d.warc.gz" % (i % 5),
            "redirect": None if i % 3 else "https://r.example/",
            "languages": None, "encoding": None,
        })
    return rows


def _build(tmp_path, rows, lines_per_block, num_shards=3):
    from cdx_toolkit_ray.sources.zipnum import build_zipnum

    tbl = pa.table({c: pa.array([r[c] for r in rows]) for c in COLS})
    out = str(tmp_path / "zip")
    info = build_zipnum(ray.data.from_arrow(tbl), out,
                        lines_per_block=lines_per_block,
                        num_shards=num_shards)
    return out, info


def _expect(rows, pred):
    keyed = [tuple(str(r[c]) for c in COLS) for r in rows if pred(r)]
    return sorted(keyed)


def _got(ds):
    df = ds.to_pandas()
    return sorted(tuple(str(v) for v in row)
                  for row in df[list(COLS)].itertuples(index=False))


def test_prefix_lookup_matches_full_filter_and_prunes(tmp_path):
    from cdx_toolkit_ray.sources.zipnum import zipnum_lookup

    rows = _captures()
    out, info = _build(tmp_path, rows, lines_per_block=8)
    assert info["rows"] == len(rows) and info["blocks"] > 10
    stats = {}
    got = _got(zipnum_lookup(out, urlkey_prefix="example,bb)",
                             stats=stats))
    assert got == _expect(rows,
                          lambda r: r["urlkey"].startswith("example,bb)"))
    # one host of four: reads a strict minority of the blocks
    assert 0 < stats["blocks_read"] < stats["blocks_total"] // 2


def test_exact_lookup_with_time_window(tmp_path):
    from cdx_toolkit_ray.sources.zipnum import zipnum_lookup

    rows = _captures()
    out, _ = _build(tmp_path, rows, lines_per_block=5)
    key = rows[42]["urlkey"]
    lo, hi = "20230101000000", "20230901000000"
    got = _got(zipnum_lookup(out, urlkey=key, from_ts=lo, to_ts=hi))
    assert got == _expect(
        rows, lambda r: r["urlkey"] == key and lo <= r["timestamp"] <= hi)
    assert got  # the window is non-empty by construction


def test_block_boundary_ties_one_line_blocks(tmp_path):
    # lines_per_block=1: every block boundary is a potential tie;
    # bisect must keep the block BEFORE the first >= key
    from cdx_toolkit_ray.sources.zipnum import zipnum_lookup

    rows = _captures(40)
    out, info = _build(tmp_path, rows, lines_per_block=1, num_shards=5)
    assert info["blocks"] == 40
    for h in ("aa", "dd"):
        got = _got(zipnum_lookup(out, urlkey_prefix="example,%s)" % h))
        assert got == _expect(
            rows, lambda r: r["urlkey"].startswith("example,%s)" % h)), h


def test_no_match_returns_empty(tmp_path):
    from cdx_toolkit_ray.sources.zipnum import zipnum_lookup

    rows = _captures(20)
    out, _ = _build(tmp_path, rows, lines_per_block=4)
    assert zipnum_lookup(out, urlkey_prefix="zzz,nope)").count() == 0
    with pytest.raises(ValueError):
        zipnum_lookup(out)
    with pytest.raises(ValueError):
        zipnum_lookup(out, urlkey="a", urlkey_prefix="b")


def test_cdxj_roundtrip_nulls_and_ints():
    from cdx_toolkit_ray.sources.zipnum import (parse_cdxj_batch,
                                                render_cdxj_batch)

    rows = _captures(12)
    tbl = pa.table({
        c: pa.array([r[c] for r in rows],
                    pa.int64() if c in ("length", "offset")
                    else pa.string())
        for c in COLS})
    lines = render_cdxj_batch(tbl)["line"].to_pylist()
    back = parse_cdxj_batch(lines)
    assert back.schema.field("length").type == pa.int64()
    assert back.schema.field("offset").type == pa.int64()
    assert back.select(list(COLS)).equals(tbl)
    # every line leads with "urlkey timestamp " and carries json
    assert all(ln.split(" ", 2)[2].startswith("{") for ln in lines)


def test_build_is_deterministic(tmp_path):
    rows = _captures(60)
    out1, _ = _build(tmp_path / "a", rows, lines_per_block=7)
    out2, _ = _build(tmp_path / "b", rows, lines_per_block=7)

    def slurp(d):
        return {os.path.basename(p): open(p, "rb").read()
                for p in glob.glob(d + "/*")}

    assert slurp(out1) == slurp(out2)


def test_cdxfetcher_zipnum_source_parity(tmp_path):
    import ray.data

    import cdx_toolkit_ray as ctr
    from cdx_toolkit_ray import fixtures
    from cdx_toolkit_ray.sources.zipnum import build_zipnum

    paths = fixtures.generate(str(tmp_path / "fix"), n_pages=400,
                              seed=7)
    zdir = str(tmp_path / "zip")
    build_zipnum(ray.data.read_parquet(paths["captures"]), zdir,
                 lines_per_block=48, num_shards=3)

    kw = dict(filter=["=status:200"], from_ts="2021", to="2024")
    zf = ctr.CDXFetcher(source=zdir, pages_path=paths["pages"])
    cf = ctr.CDXFetcher(source=paths["captures"],
                        pages_path=paths["pages"])
    assert zf.source == "zipnum"

    def rows(f):
        return sorted(
            tuple(str(o.get(c)) for c in COLS)
            for o in f.iter("*.big-portal.example", **kw))

    zr, cr = rows(zf), rows(cf)
    assert zr and zr == cr

    # ascending (urlkey, timestamp) ordering contract + limit
    limited = list(zf.iter("*.big-portal.example", limit=7, **kw))
    keys = [(o["urlkey"], o["timestamp"]) for o in limited]
    assert len(limited) == 7 and keys == sorted(keys)

    # content resolution through the same lazy machinery
    o = limited[0]
    assert o.text == o.content.decode("utf-8", errors="replace")

    # size estimate: block-count pages, sample scaling by the index's
    # own lines_per_block
    pages = zf.get_size_estimate("*.big-portal.example", as_pages=True)
    assert pages >= 1
    est = zf.get_size_estimate("*.big-portal.example")
    assert est <= pages * 48 and (pages == 1 or est >= (pages - 1) * 48)


def test_zipnum_multi_crawl_union_and_ordering(tmp_path):
    import glob

    import ray.data

    import cdx_toolkit_ray as ctr
    from cdx_toolkit_ray import fixtures
    from cdx_toolkit_ray.sources.zipnum import (build_zipnum,
                                                query_zipnum_multi)

    paths = fixtures.generate(str(tmp_path / "fix"), n_pages=400,
                              seed=7)
    root = str(tmp_path / "multi")
    crawls = sorted(glob.glob(paths["captures"] + "/crawl=*"))
    assert len(crawls) >= 2
    cdx_cols = ["urlkey", "timestamp", "url", "mime", "mime_detected",
                "status", "digest", "length", "offset", "filename",
                "redirect", "languages", "encoding"]
    for d in crawls:
        build_zipnum(ray.data.read_parquet(d, columns=cdx_cols),
                     root + "/" + os.path.basename(d),
                     lines_per_block=32, num_shards=2)

    kw = dict(filter=["=status:200"], from_ts="2021", to="2024")
    got = query_zipnum_multi(root, "*.big-portal.example",
                             cc_sort="mixed", **kw).to_pandas()
    cf = ctr.CDXFetcher(source=paths["captures"])
    want = sorted(tuple(str(o.get(c)) for c in cdx_cols)
                  for o in cf.iter("*.big-portal.example", **kw))
    assert sorted(tuple(str(v) for v in r)
                  for r in got[cdx_cols].itertuples(index=False)) \
        == want and len(got)

    # 'mixed': newest crawl first, ascending (urlkey, ts) within crawl
    per_crawl = {}
    for _, r in got.iterrows():
        per_crawl.setdefault(r["filename"].split("/")[1], None)
    names = list(per_crawl)
    assert names == sorted(names, reverse=True)

    # CDXFetcher auto-detects the multi layout; limit early-stops
    zf = ctr.CDXFetcher(source=root)
    assert zf.source == "zipnum_multi"
    limited = list(zf.iter("*.big-portal.example", limit=5, **kw))
    assert len(limited) == 5
    est = zf.get_size_estimate("*.big-portal.example", as_pages=True)
    assert est >= len(crawls)


def test_cli_index_and_query_roundtrip(tmp_path, capsys):
    import json

    import cdx_toolkit_ray as ctr
    from cdx_toolkit_ray import fixtures
    from cdx_toolkit_ray.cli import main

    paths = fixtures.generate(str(tmp_path / "fix"), n_pages=300,
                              seed=11)
    out = str(tmp_path / "cluster")
    main(["index", "--captures", paths["captures"], "--out", out,
          "--lines-per-block", "40", "--shards", "2"])
    lines = [json.loads(l) for l in
             capsys.readouterr().out.strip().splitlines()]
    assert lines and lines[0]["rows"] > 0 and lines[0]["blocks"] > 1

    zf = ctr.CDXFetcher(source=out)
    assert zf.source == "zipnum"
    objs = list(zf.iter("*.big-portal.example",
                        filter=["=status:200"], limit=5))
    assert len(objs) == 5 and all(o["status"] == "200" for o in objs)

    # per-crawl layout
    out2 = str(tmp_path / "multi")
    main(["index", "--captures", paths["captures"], "--out", out2,
          "--per-crawl", "--lines-per-block", "40", "--shards", "2"])
    zf2 = ctr.CDXFetcher(source=out2)
    assert zf2.source == "zipnum_multi"
    assert zf2.get_size_estimate("*.big-portal.example",
                                 as_pages=True) >= 1


def test_query_zipnum_closest_ranking(tmp_path):
    import ray.data

    from cdx_toolkit_ray.sources.zipnum import (build_zipnum,
                                                query_zipnum)

    rows = _captures(80)
    # give one urlkey many captures across the year so closest ranks
    for i, r in enumerate(rows):
        if i % 4 == 0:                       # host aa rows
            r["urlkey"] = "example,aa)/p/005"
            r["url"] = "https://aa.example/p/005"
    tbl = pa.table({c: pa.array([r[c] for r in rows]) for c in COLS})
    out = str(tmp_path / "zip")
    build_zipnum(ray.data.from_arrow(tbl), out, lines_per_block=10,
                 num_shards=2)
    got = query_zipnum(out, "https://aa.example/p/005",
                       closest="20230601", limit=3).to_pandas()
    # nearest-first by |ts - closest|; all rows are the exact urlkey
    assert (got["urlkey"] == "example,aa)/p/005").all()
    deltas = got["closest_delta"].tolist()
    assert deltas == sorted(deltas) and len(got) == 3
    # the top row really is the global nearest among the 20 captures
    import datetime as _dt

    def ep(ts):
        return _dt.datetime.strptime(ts, "%Y%m%d%H%M%S") \
            .replace(tzinfo=_dt.timezone.utc).timestamp()

    target = ep("20230601000000")
    all_d = sorted(abs(ep(r["timestamp"]) - target)
                   for i, r in enumerate(rows) if i % 4 == 0)
    assert deltas[0] == all_d[0] * 1000 or deltas[0] == all_d[0]


def test_limit_calls_never_cancel(tmp_path, monkeypatch):
    """``limit`` on a zipnum index is a cut over the materialized blocks,
    not ``Dataset.limit``'s early stop (whose cancel of in-flight tasks
    can abort the Ray session): 200 single- and multi-crawl calls with limit
    in {0, 1, 7, 100} never cancel a task, and each returns the first
    ``limit`` rows of the unlimited query, in order. Multi-crawl calls
    stop looking up crawls once the limit is met."""
    import ray

    from cdx_toolkit_ray.sources.zipnum import (build_zipnum, query_zipnum,
                                                query_zipnum_multi)

    root = tmp_path / "multi"
    for n, crawl in enumerate(("CC-MAIN-2023-06", "CC-MAIN-2023-14")):
        rows = _captures(160)
        for r in rows:
            r["digest"] = "%s-%s" % (crawl, r["digest"])
        tbl = pa.table({c: pa.array([r[c] for r in rows]) for c in COLS})
        build_zipnum(ray.data.from_arrow(tbl), str(root / crawl),
                     lines_per_block=6, num_shards=3 + n)
    one = str(root / "CC-MAIN-2023-06")

    calls = []

    def spy(real):
        def call(*a, **kw):
            calls.append((real.__name__, a))
            return real(*a, **kw)
        return call

    monkeypatch.setattr(ray, "cancel", spy(ray.cancel))
    monkeypatch.setattr(ray.data.Dataset, "limit", spy(ray.data.Dataset.limit))

    def rows_of(ds):
        return [(r["urlkey"], r["timestamp"], r["digest"])
                for r in ds.take_all()]

    queries = [(fn, src, url, kw)
               for fn, src in ((query_zipnum, one),
                               (query_zipnum_multi, str(root)))
               for url, kw in (("aa.example/*", {}),
                               ("*.example", {"filter": ["=status:200"]}),
                               ("bb.example/p/001", {}),
                               ("*.example", {"from_ts": "202306"}))]
    full = {k: rows_of(fn(src, url, **kw))
            for k, (fn, src, url, kw) in enumerate(queries)}
    # limit 100 reaches past one crawl, and past one block
    assert all(len(full[k]) > 100 for k in (1, 5, 7))
    for i in range(200):
        k = i % len(queries)
        fn, src, url, kw = queries[k]
        limit = (0, 1, 7, 100)[i // len(queries) % 4]
        got = rows_of(fn(src, url, limit=limit, **kw))
        assert got == full[k][:limit], (fn.__name__, url, kw, limit)
    assert calls == []

    # a crawl after the one that meets the limit is never looked up
    st = {}
    got = rows_of(query_zipnum_multi(str(root), "*.example", limit=1,
                                     stats=st))
    assert len(got) == 1 and list(st) == ["CC-MAIN-2023-14"]


def test_build_zipnum_lazy_input_never_calls_limit(tmp_path, monkeypatch):
    """``build_zipnum`` reads the field set of a lazy input (a
    ``map_batches`` stage, as ``index_warc`` returns) from one
    materialize: no implicit ``limit(1)`` schema probe runs, and the
    index matches one built from the same rows eagerly."""
    from cdx_toolkit_ray.sources.zipnum import build_zipnum, query_zipnum

    rows = _captures(120)
    tbl = pa.table({c: pa.array([r[c] for r in rows]) for c in COLS})
    ref_dir, ref = _build(tmp_path, rows, lines_per_block=6)

    def boom(*a, **k):
        raise AssertionError("Dataset.limit called")

    lazy = ray.data.from_arrow(tbl).map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=None)
    monkeypatch.setattr(ray.data.Dataset, "limit", boom)
    out = str(tmp_path / "lazy")
    info = build_zipnum(lazy, out, lines_per_block=6, num_shards=3)
    assert info == ref
    assert _got(query_zipnum(out, "*.example")) == \
        _got(query_zipnum(ref_dir, "*.example"))
