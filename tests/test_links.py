"""Outlink extraction + BFS crawl expansion (stages/links.py) — the
discover half of the crawl loop the reference leaves to user code
(examples/iter-and-warc.py composition over obj.content)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

pytestmark = pytest.mark.usefixtures("ray_session")


def _pages(rows):
    return ray.data.from_arrow(pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))


def test_extract_links_resolution_rules():
    from cdx_toolkit_ray.stages.links import extract_links

    pages = _pages([
        ("https://a.example/page",
         "<a href='/p/1'>x</a> <a href='https://b.example/abs'>y</a> "
         "<a href='mailto:z@q'>m</a> <a href='rel/path'>r</a>"),
        ("http://www.c.example/", "<a href='/only'>o</a>"),
        ("https://d.example/none", "no links here"),
    ])
    got = extract_links(pages).to_pandas()
    rows = set(map(tuple, got.to_numpy()))
    # absolute kept; root-relative resolved against origin (www kept);
    # mailto and path-relative dropped; linkless page emits nothing
    assert rows == {
        ("https://a.example/page", "https://a.example/p/1", "a.example"),
        ("https://a.example/page", "https://b.example/abs", "b.example"),
        ("http://www.c.example/", "http://www.c.example/only",
         "www.c.example"),
    }


def test_extract_links_duplicates_preserved():
    from cdx_toolkit_ray.stages.links import extract_links

    pages = _pages([("https://a.example/",
                     "<a href='/x'>1</a><a href='/x'>2</a>")])
    got = extract_links(pages).to_pandas()
    assert len(got) == 2 and set(got["dst_url"]) == {"https://a.example/x"}


def _graph():
    # s -> a -> b -> c -> a (cycle); s -> b (shortcut); d isolated src
    edges = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"),
             ("s", "b"), ("d", "x")]
    return ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string()),
    }))


def _seeds(urls):
    return ray.data.from_arrow(pa.table({"url": pa.array(urls,
                                                         pa.string())}))


EXPECT = {"s": 0, "a": 1, "b": 1, "c": 2}


def test_crawl_bfs_min_hop_with_cycle():
    from cdx_toolkit_ray.stages.links import crawl_bfs

    got = crawl_bfs(_graph(), _seeds(["s"]), max_hops=4).to_pandas()
    assert dict(zip(got["url"], got["hop"])) == EXPECT
    assert got["hop"].dtype == np.int64


def test_crawl_bfs_exchange_path_matches_broadcast():
    from cdx_toolkit_ray.stages.links import crawl_bfs

    got = crawl_bfs(_graph(), _seeds(["s"]), max_hops=4,
                    broadcast_threshold=0, num_buckets=4).to_pandas()
    assert dict(zip(got["url"], got["hop"])) == EXPECT


def test_crawl_bfs_hop_budget_and_duplicate_seeds():
    from cdx_toolkit_ray.stages.links import crawl_bfs

    got = crawl_bfs(_graph(), _seeds(["s", "s", "a"]),
                    max_hops=1).to_pandas()
    # duplicate seed collapses; 'a' is a seed so hop 0; budget stops at 1
    assert dict(zip(got["url"], got["hop"])) == {"s": 0, "a": 0, "b": 1}


def test_crawl_bfs_disk_edges_matches_memory_path(tmp_path):
    """The edges_path scale path (hive-partitioned edge buckets,
    prune-at-read per hop) returns the same min-hop relation as the
    in-memory join paths."""
    from cdx_toolkit_ray.stages.links import crawl_bfs

    got = crawl_bfs(_graph(), _seeds(["s"]), max_hops=4, num_buckets=4,
                    edges_path=str(tmp_path / "edges")).to_pandas()
    assert dict(zip(got["url"], got["hop"])) == EXPECT


def test_crawl_bfs_disk_edges_prunes_untouched_buckets(tmp_path):
    """Per hop, only buckets the frontier hashes to are read (the
    invindex prune-at-read contract) — stats records strictly fewer
    bucket reads than buckets when the frontier is small."""
    from cdx_toolkit_ray.stages.links import crawl_bfs

    stats: dict = {}
    nb = 16
    got = crawl_bfs(_graph(), _seeds(["s"]), max_hops=4, num_buckets=nb,
                    edges_path=str(tmp_path / "edges"),
                    stats=stats).to_pandas()
    assert dict(zip(got["url"], got["hop"])) == EXPECT
    assert stats["hops"], "no per-hop lineage recorded"
    for h in stats["hops"]:
        assert h["buckets_total"] == nb
        # a 1-2 URL frontier can touch at most that many buckets
        assert h["buckets_read"] <= min(h["frontier"], nb)
        assert h["buckets_read"] < nb


def test_crawl_bfs_exact_seen_set(tmp_path):
    """exact=True keeps the exact hash set next to the bloom bitmap —
    zero false positives by construction (ADVICE: FP-induced subtree
    loss is otherwise possible as the filter fills)."""
    from cdx_toolkit_ray.stages.links import crawl_bfs

    # deliberately tiny bloom (256 bits) so an FP is plausible without
    # the exact set; with exact=True the result must still be EXPECT
    got = crawl_bfs(_graph(), _seeds(["s"]), max_hops=4,
                    n_bits=256, exact=True).to_pandas()
    assert dict(zip(got["url"], got["hop"])) == EXPECT


def test_persist_edges_idempotent_and_modulus_guard(tmp_path):
    from cdx_toolkit_ray.stages.links import persist_edges

    p = str(tmp_path / "edges")
    persist_edges(_graph(), p, num_buckets=4)
    import os
    mtimes = {f: os.path.getmtime(os.path.join(r, f))
              for r, _, fs in os.walk(p) for f in fs}
    # second call reuses the layout without rewriting anything
    persist_edges(_graph(), p, num_buckets=4)
    mtimes2 = {f: os.path.getmtime(os.path.join(r, f))
               for r, _, fs in os.walk(p) for f in fs}
    assert mtimes == mtimes2
    with pytest.raises(ValueError):
        persist_edges(_graph(), p, num_buckets=8)


def test_link_rank_matches_serial_fixed_point():
    from cdx_toolkit_ray.stages.links import link_rank

    edges = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"),
             ("s", "b"), ("d", "x")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = link_rank(links, iterations=3, num_buckets=4).to_pandas()
    got = dict(zip(df["url"], df["rank"]))
    one = link_rank(links, iterations=3, num_buckets=1).to_pandas()

    SCALE, BASE = 1_000_000, 150_000
    nodes = sorted({u for e in edges for u in e})
    deg: dict = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    r = {u: SCALE for u in nodes}
    for _ in range(3):
        nxt = {u: BASE for u in nodes}
        for s, d in edges:
            nxt[d] += (r[s] // deg[s]) * 85 // 100
        r = nxt
    assert got == r
    assert dict(zip(one["url"], one["rank"])) == r
    assert df["rank"].dtype == np.int64


def test_link_rank_zero_iterations_is_uniform():
    from cdx_toolkit_ray.stages.links import link_rank

    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array(["a", "b"], pa.string()),
        "dst_url": pa.array(["b", "c"], pa.string())}))
    df = link_rank(links, iterations=0).to_pandas()
    assert dict(zip(df["url"], df["rank"])) == {
        "a": 1_000_000, "b": 1_000_000, "c": 1_000_000}


def test_hits_matches_serial_fixed_point():
    from cdx_toolkit_ray.stages.links import hits

    # star into 'hub' targets + a chain + a dangling pair: exercises
    # zero-authority sources, zero-hub sinks and parallel structure
    edges = [("h1", "a"), ("h1", "b"), ("h2", "a"), ("h2", "b"),
             ("h2", "c"), ("a", "b"), ("d", "x"), ("h1", "a")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = hits(links, iterations=2, num_buckets=4).to_pandas()
    got = {u: (a, h) for u, a, h in
           zip(df["url"], df["authority"], df["hub"])}

    SCALE = 1_000_000
    nodes = sorted({u for e in edges for u in e})
    a = {u: SCALE for u in nodes}
    h = {u: SCALE for u in nodes}
    for _ in range(2):
        ar = {u: 0 for u in nodes}
        for s, d in edges:
            ar[d] += h[s]
        m = max(max(ar.values()), 1)
        a = {u: v * SCALE // m for u, v in ar.items()}
        hr = {u: 0 for u in nodes}
        for s, d in edges:
            hr[s] += a[d]
        m = max(max(hr.values()), 1)
        h = {u: v * SCALE // m for u, v in hr.items()}
    assert got == {u: (a[u], h[u]) for u in nodes}
    assert df["authority"].dtype == np.int64
    # pure source scores authority 0; pure sink scores hub 0
    assert got["h1"][0] == 0 and got["x"][1] == 0


def test_hits_zero_iterations_uniform_and_bucket_independent():
    from cdx_toolkit_ray.stages.links import hits

    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array(["a", "b"], pa.string()),
        "dst_url": pa.array(["b", "c"], pa.string())}))
    df = hits(links, iterations=0).to_pandas()
    assert set(zip(df["authority"], df["hub"])) == {(1_000_000,
                                                     1_000_000)}
    one = hits(links, iterations=2, num_buckets=1).to_pandas()
    many = hits(links, iterations=2, num_buckets=8).to_pandas()
    key = lambda d: sorted(zip(d["url"], d["authority"], d["hub"]))
    assert key(one) == key(many)


def test_strip_tags_exact_strings():
    from cdx_toolkit_ray.stages.text import strip_tags_batch

    batch = pa.table({
        "url": pa.array(["u1", "u2", "u3"], pa.string()),
        "text": pa.array([
            "<html><body>  a  <b>bold</b>\n tail </body></html>",
            "no markup   here",
            "<only><tags/>",
        ], pa.string()),
    })
    out = strip_tags_batch(batch)
    assert out["plain"].to_pylist() == ["a bold tail", "no markup here",
                                        ""]


def test_crawl_bfs_oracle_parity_on_fixture(fixture_dir):
    """Ray BFS == DuckDB hop-capped recursive closure on the fixture
    link graph (the catalog oracle at test scale)."""
    import duckdb

    from cdx_toolkit_ray.stages.links import crawl_bfs, extract_links

    pages_path = fixture_dir["pages"]
    pages = ray.data.read_parquet(pages_path, columns=["url", "text"])
    links = extract_links(pages)
    import pyarrow.compute as pc
    seeds = (ray.data.read_parquet(pages_path, columns=["url"])
             .map_batches(lambda b: b.filter(
                 pc.ends_with(b["url"], ".example/")),
                 batch_format="pyarrow", batch_size=None))
    got = crawl_bfs(links, seeds, max_hops=3).to_pandas()

    want = duckdb.sql(r"""
WITH RECURSIVE
hrefs AS (
  SELECT url AS src_url,
         unnest(regexp_extract_all(text, 'href=''([^'']*)''', 1)) AS href
  FROM read_parquet('%s')),
links AS (
  SELECT src_url,
         CASE WHEN contains(href, '://') THEN href
              WHEN href LIKE '/%%' THEN
                regexp_extract(src_url, '^[a-z][a-z0-9+.\-]*://[^/]+')
                || href
              ELSE NULL END AS dst_url
  FROM hrefs WHERE dst_url IS NOT NULL),
walk(url, hop) AS (
  SELECT DISTINCT url, CAST(0 AS BIGINT)
  FROM read_parquet('%s') WHERE url LIKE '%%.example/'
  UNION
  SELECT l.dst_url, w.hop + 1 FROM walk w
  JOIN links l ON l.src_url = w.url WHERE w.hop < 3)
SELECT url, MIN(hop) AS hop FROM walk GROUP BY url
""" % (pages_path, pages_path)).df()
    assert (dict(zip(got["url"], got["hop"]))
            == dict(zip(want["url"], want["hop"])))


def test_host_graph_partial_aggregation():
    from cdx_toolkit_ray.stages.links import extract_links, host_graph

    pages = _pages([
        ("https://a.example/1", "<a href='/x'>1</a><a href='/y'>2</a>"),
        ("https://a.example/2", "<a href='https://b.example/z'>3</a>"),
        ("http://www.a.example/3", "<a href='/w'>4</a>"),
    ])
    df = host_graph(extract_links(pages), num_buckets=4).to_pandas()
    got = {(r.src_host, r.dst_host): r.n_links
           for r in df.itertuples()}
    assert got == {("a.example", "a.example"): 2,
                   ("a.example", "b.example"): 1,
                   ("www.a.example", "www.a.example"): 1}


def test_anchor_stats_synthetic():
    """Varied anchors: modal pick, tie-break, host dedup, resolution."""
    from cdx_toolkit_ray.stages.links import anchor_stats

    pages = _pages([
        # three refs to /x: "home" twice (from two hosts), "start" once
        ("https://a.example/1",
         "<a href='https://t.example/x'>home</a>"),
        ("https://b.example/2",
         "<a href='https://t.example/x'>home</a>"
         "<a href='https://t.example/x'>start</a>"),
        # tie on /y: "aa" and "bb" once each -> lexicographic "aa" wins
        ("https://a.example/3",
         "<a href='/y'>bb</a><a href='/y'>aa</a>"),
        # path-relative + fragment anchors are dropped entirely
        ("https://c.example/4",
         "<a href='rel/path'>nope</a><a href='#f'>nah</a>"),
    ])
    got = anchor_stats(pages, num_buckets=3) \
        .to_pandas().set_index("dst_url").sort_index()
    assert set(got.index) == {"https://t.example/x", "https://a.example/y"}
    x = got.loc["https://t.example/x"]
    assert (x.n_refs, x.n_src_hosts, x.top_anchor, x.top_anchor_refs) \
        == (3, 2, "home", 2)
    y = got.loc["https://a.example/y"]
    assert (y.n_refs, y.n_src_hosts, y.top_anchor, y.top_anchor_refs) \
        == (2, 1, "aa", 1)


def test_anchor_stats_matches_sql_on_fixture(fixture_dir):
    import duckdb
    import pandas as pd

    from cdx_toolkit_ray.queries import ORACLES
    from cdx_toolkit_ray.stages.links import anchor_stats

    pages_path = fixture_dir["pages"]
    pages = ray.data.read_parquet(pages_path, columns=["url", "text"])
    got = anchor_stats(pages).to_pandas() \
        .sort_values("dst_url").reset_index(drop=True)
    want = duckdb.sql(
        ORACLES["anchor_stats"].replace(
            "/tmp/cdxray_fixtures_current/pages.parquet", pages_path)
        + " ORDER BY dst_url").df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_rank_prioritized_seeds_tiers_and_schedule():
    """In-degree tiers: most-linked URL gets priority 0 and the first
    politeness slot on its host; unlinked URLs fall to tier 3."""
    from cdx_toolkit_ray.pipelines.frontier import schedule_politeness
    from cdx_toolkit_ray.stages.links import rank_prioritized_seeds

    hot = "https://h.example/hot"
    pages = _pages([
        (hot, "no links"),
        ("https://h.example/cold", "no links"),
        # four pages each link hot once; one also links cold
        ("https://a.example/1", f"<a href='{hot}'>x</a>"),
        ("https://a.example/2", f"<a href='{hot}'>x</a>"),
        ("https://b.example/3", f"<a href='{hot}'>x</a>"),
        ("https://b.example/4", f"<a href='{hot}'>x</a>"
         "<a href='https://h.example/cold'>y</a>"),
        # duplicate seed row collapses
        (hot, "dup row"),
    ])
    flow = rank_prioritized_seeds(pages, num_buckets=3)
    out = schedule_politeness(flow).to_pandas().set_index("url")
    assert out.loc[hot, "in_degree"] == 4
    assert out.loc[hot, "priority"] == 0
    assert out.loc["https://h.example/cold", "in_degree"] == 1
    assert out.loc["https://h.example/cold", "priority"] == 2
    # hot outranks cold on the shared host regardless of hash order
    assert out.loc[hot, "host_rank"] == 0
    assert out.loc["https://h.example/cold", "host_rank"] == 1
    assert out.loc["https://h.example/cold", "fetch_ms"] == 1000
    # seed dedup: one row per distinct url
    assert len(out) == 6


def test_ranked_frontier_partition_independent(fixture_dir):
    import pandas as pd

    from cdx_toolkit_ray.stages.links import rank_prioritized_seeds

    pages = ray.data.read_parquet(fixture_dir["pages"],
                                  columns=["url", "text"])
    a = rank_prioritized_seeds(pages.repartition(1), num_buckets=4) \
        .to_pandas().sort_values("url").reset_index(drop=True)
    b = rank_prioritized_seeds(pages.repartition(9), num_buckets=7) \
        .to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_page_metadata_known_values():
    from cdx_toolkit_ray.stages.text import page_metadata_batch

    batch = pa.table({
        "url": pa.array(["u1", "u2", "u3"], pa.string()),
        "text": pa.array([
            "<html><head><title>hello world</title></head>"
            "<body><a href='/a'>x</a><a href='/b'>y</a></body></html>",
            "no markup no title",
            "<p></p>",
        ], pa.string()),
    })
    got = page_metadata_batch(batch).to_pandas().set_index("url")
    assert got.loc["u1", "title"] == "hello world"
    assert got.loc["u1", "n_links"] == 2
    assert got.loc["u2", "title"] == "" and got.loc["u2", "n_links"] == 0
    assert got.loc["u2", "plain_len"] == len("no markup no title")
    assert got.loc["u3", "plain_len"] == 0
    assert (got["content_len"] >= got["plain_len"]).all()


def test_link_delta_classification():
    from cdx_toolkit_ray.stages.links import link_delta

    def mk(edges):
        return ray.data.from_arrow(pa.table({
            "src_url": pa.array([e[0] for e in edges], pa.string()),
            "dst_url": pa.array([e[1] for e in edges], pa.string()),
        }))

    # duplicates collapse; classification is per distinct edge
    a = mk([("s", "x"), ("s", "x"), ("s", "y"), ("t", "z")])
    b = mk([("s", "x"), ("t", "w"), ("t", "w")])
    got = link_delta(a, b, num_buckets=3).to_pandas()
    m = {(r.src_url, r.dst_url): r.status for r in got.itertuples()}
    assert m == {("s", "x"): "kept", ("s", "y"): "removed",
                 ("t", "z"): "removed", ("t", "w"): "added"}


def test_parse_meta_robots_truth_table():
    import pyarrow as pa

    from cdx_toolkit_ray.stages.links import parse_meta_robots_batch

    cases = [
        ("<meta name='robots' content='noindex'>", True, False),
        ("<meta name='robots' content='NoFollow'>", False, True),
        ("<meta name='robots' content='noindex, nofollow'>", True, True),
        ("<meta name='robots' content='none'>", True, True),
        ("<meta name='robots' content='all'>", False, False),
        ("<meta name='robots' content=' NOINDEX , x '>", True, False),
        ("", False, False),  # absent tag -> permissive
    ]
    batch = pa.table({
        "url": pa.array([f"u{i}" for i in range(len(cases))]),
        "text": pa.array([f"<html><head>{m}</head></html>"
                          for m, _, _ in cases]),
    })
    out = parse_meta_robots_batch(batch).to_pylist()
    for row, (_, ni, nf) in zip(out, cases):
        assert (row["noindex"], row["nofollow"]) == (ni, nf), row


def test_followed_links_policy():
    import pyarrow as pa

    from cdx_toolkit_ray.stages.links import followed_links_batch

    pages = [
        # plain page: both followable links kept, nofollow anchor cut
        ("http://a.example/p", "",
         "<a href='/x'>1</a><a rel='nofollow' href='http://b.example/'>2"
         "</a><a href='http://c.example/y'>3</a>"),
        # rel token-list form still counts as nofollow
        ("http://a.example/q", "",
         "<a rel='nofollow noopener' href='http://b.example/'>z</a>"),
        # page-level nofollow kills everything
        ("http://a.example/r",
         "<meta name='robots' content='nofollow'>",
         "<a href='/x'>1</a>"),
        # noindex alone does NOT kill links
        ("http://a.example/s",
         "<meta name='robots' content='noindex'>",
         "<a href='/x'>1</a>"),
    ]
    batch = pa.table({
        "url": pa.array([u for u, _, _ in pages]),
        "text": pa.array([f"<html><head>{m}</head><body>{b}</body></html>"
                          for _, m, b in pages]),
    })
    got = sorted((r["src_url"], r["dst_url"], r["dst_host"])
                 for r in followed_links_batch(batch).to_pylist())
    assert got == [
        ("http://a.example/p", "http://a.example/x", "a.example"),
        ("http://a.example/p", "http://c.example/y", "c.example"),
        ("http://a.example/s", "http://a.example/x", "a.example"),
    ]


def test_parse_canonical_resolution():
    import pyarrow as pa

    from cdx_toolkit_ray.stages.links import parse_canonical_batch

    cases = [
        # (page url, tag, expected canonical, is_self)
        ("http://a.example/p/1",
         "<link rel='canonical' href='http://a.example/p'>",
         "http://a.example/p", False),
        ("http://a.example/p/2",
         "<link rel='canonical' href='/p'>",
         "http://a.example/p", False),
        ("http://a.example/q", "", "http://a.example/q", True),
        # unresolvable (path-relative) href -> self
        ("http://a.example/r",
         "<link rel='canonical' href='x/y'>",
         "http://a.example/r", True),
        # self-referencing canonical
        ("http://a.example/s",
         "<link rel='canonical' href='http://a.example/s'>",
         "http://a.example/s", True),
    ]
    batch = pa.table({
        "url": pa.array([u for u, *_ in cases]),
        "text": pa.array([f"<html><head>{t}</head></html>"
                          for _, t, *_ in cases]),
    })
    out = parse_canonical_batch(batch).to_pylist()
    for row, (_, _, canon, is_self) in zip(out, cases):
        assert (row["canonical_url"], row["is_self"]) == (canon, is_self)


def test_canonical_groups_cross_block(ray_session):
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.links import canonical_groups

    # two alias groups; pages arrive in two blocks so the min-keeper
    # and count merge must cross the exchange
    def page(doc, canon):
        tag = ("" if canon is None else
               f"<link rel='canonical' href='{canon}'>")
        return {"doc_id": doc, "url": f"http://x.example/v/{doc}",
                "text": f"<html><head>{tag}</head></html>"}

    rows = [page(0, None), page(1, "http://x.example/v/0"),
            page(2, "http://x.example/v/0"), page(10, None),
            page(11, "/v/10")]
    ds = ray.data.from_arrow(
        pa.Table.from_pylist(rows)).repartition(3)
    got = {r["canonical_url"]: (r["keeper_doc"], r["n_pages"])
           for r in canonical_groups(ds).take_all()}
    assert got == {"http://x.example/v/0": (0, 3),
                   "http://x.example/v/10": (10, 2)}


def test_mutual_links_cross_block(ray_session):
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.links import mutual_links

    edges = [
        ("a", "b"), ("b", "a"),      # mutual
        ("a", "c"),                   # one-way
        ("d", "e"), ("e", "d"), ("d", "e"),  # mutual with dup
        ("f", "f"),                   # self loop never qualifies
        ("x", "y"),
    ]
    tbl = pa.table({
        "src_url": pa.array([e[0] for e in edges]),
        "dst_url": pa.array([e[1] for e in edges]),
    })
    # split across blocks so the direction bits must meet in the merge
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = sorted((r["url_a"], r["url_b"])
                 for r in mutual_links(ds).take_all())
    assert got == [("a", "b"), ("d", "e")]


def test_parse_hreflang():
    import pyarrow as pa

    from cdx_toolkit_ray.stages.links import parse_hreflang_batch

    html = ("<html><head>"
            "<link rel='alternate' hreflang='EN' "
            "href='http://a.example/en'>"
            "<link rel='alternate' hreflang='de' href='/de'>"
            "<link rel='alternate' hreflang='fr' href='rel/x'>"  # drops
            "<link rel='alternate' hreflang='x-default' "
            "href='http://a.example/'>"
            "</head></html>")
    batch = pa.table({
        "url": pa.array(["http://a.example/p", "http://b.example/q"]),
        "text": pa.array([html, "<html>no alternates</html>"]),
    })
    got = [(r["hreflang"], r["target"])
           for r in parse_hreflang_batch(batch).to_pylist()]
    assert got == [
        ("en", "http://a.example/en"),       # lang lowercased
        ("de", "http://a.example/de"),       # root-relative resolved
        ("x-default", "http://a.example/"),  # x-default rides through
    ]
    assert parse_hreflang_batch(batch.slice(0, 0)).num_rows == 0


def test_co_link_pairs_cocitation_and_coupling():
    from cdx_toolkit_ray.stages.links import co_link_pairs

    # s1 cites {a,b,c}; s2 cites {a,b}; s3 cites {b,c}; s4 cites {x}
    edges = [("s1", "a"), ("s1", "b"), ("s1", "c"),
             ("s2", "a"), ("s2", "b"), ("s3", "b"), ("s3", "c"),
             ("s4", "x"), ("s2", "a")]     # duplicate edge: counted once
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = co_link_pairs(links, mode="cocitation", min_shared=2,
                       num_buckets=4).to_pandas()
    got = {(r.url_a, r.url_b): r.n_shared for r in df.itertuples()}
    assert got == {("a", "b"): 2, ("b", "c"): 2}

    # coupling: sources sharing cited targets
    df2 = co_link_pairs(links, mode="coupling", min_shared=2,
                        num_buckets=4).to_pandas()
    got2 = {(r.url_a, r.url_b): r.n_shared for r in df2.itertuples()}
    assert got2 == {("s1", "s2"): 2, ("s1", "s3"): 2}

    import pytest as _pytest
    with _pytest.raises(ValueError):
        co_link_pairs(links, mode="nope")


def test_co_link_pairs_fanout_cap():
    from cdx_toolkit_ray.stages.links import co_link_pairs

    # hub cites 10 targets (over cap=5) -> contributes nothing;
    # two small citers still co-cite (a, b) twice
    edges = [("hub", "t%d" % i) for i in range(10)]
    edges += [("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = co_link_pairs(links, mode="cocitation", min_shared=2,
                       max_fanout=5, num_buckets=2).to_pandas()
    assert {(r.url_a, r.url_b, r.n_shared) for r in df.itertuples()} \
        == {("a", "b", 2)}


def test_triangle_counts_ring_chords_and_hub():
    import itertools

    from cdx_toolkit_ray.stages.links import triangle_counts

    # ring + skip-2 chords: every (i, i+1, i+2) closes; duplicate and
    # reverse edges must not double-count; a star hub adds none
    N = 8
    edges = [("n%d" % i, "n%d" % ((i + 1) % N)) for i in range(N)]
    edges += [("n%d" % i, "n%d" % ((i + 2) % N)) for i in range(N)]
    edges += [("n1", "n0"), ("n0", "n1")]          # reverse + dup
    edges += [("hub", "n%d" % i) for i in range(N)]  # star: no triangles
    # wait: hub->i and i->i+1 and hub->i+1 IS a triangle; use leaves
    edges = [e for e in edges if e[0] != "hub"]
    edges += [("hub", "leaf%d" % i) for i in range(6)]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    got = {r.url: r.n_triangles
           for r in triangle_counts(links, num_buckets=4)
           .to_pandas().itertuples()}

    und = {tuple(sorted(e)) for e in edges}
    nodes = {x for e in und for x in e}
    want: dict = {}
    for a, b, c in itertools.combinations(sorted(nodes), 3):
        if (a, b) in und and (a, c) in und and (b, c) in und:
            for x in (a, b, c):
                want[x] = want.get(x, 0) + 1
    assert got == want
    assert "hub" not in got and all(got["n%d" % i] == 3
                                    for i in range(N))


def test_trust_rank_matches_serial_and_demotes_unreachable():
    from cdx_toolkit_ray.stages.links import trust_rank

    # seed 's/' (root-page rule) reaches a,b,c; spam ring d<->x is
    # unreachable from the seed and must converge to 0 trust
    edges = [("s/", "a"), ("a", "b"), ("b", "c"), ("c", "a"),
             ("s/", "b"), ("d", "x"), ("x", "d")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = trust_rank(links, iterations=3, num_buckets=4).to_pandas()
    got = dict(zip(df["url"], df["trust"]))
    one = trust_rank(links, iterations=3, num_buckets=1).to_pandas()

    SCALE, BASE = 1_000_000, 150_000
    nodes = sorted({u for e in edges for u in e})
    deg: dict = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    r = {u: (SCALE if u.endswith("/") and "?" not in u else 0)
         for u in nodes}
    for _ in range(3):
        nxt = {u: (BASE if u.endswith("/") and "?" not in u else 0)
               for u in nodes}
        for s, d in edges:
            nxt[d] += (r[s] // deg[s]) * 85 // 100
        r = nxt
    assert got == r
    assert dict(zip(one["url"], one["trust"])) == r
    assert got["d"] == 0 and got["x"] == 0   # spam ring starved
    assert df["trust"].dtype == np.int64


def test_trust_rank_explicit_seed_list_matches_predicate():
    from cdx_toolkit_ray.stages.links import trust_rank

    edges = [("s/", "a"), ("a", "b"), ("b", "s/"), ("d", "x")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    by_pred = trust_rank(links, iterations=2, num_buckets=2).to_pandas()
    by_list = trust_rank(links, iterations=2, num_buckets=3,
                         seeds=["s/"]).to_pandas()
    a = dict(zip(by_pred["url"], by_pred["trust"]))
    b = dict(zip(by_list["url"], by_list["trust"]))
    assert a == b


def test_trust_rank_zero_iterations_is_seed_indicator():
    from cdx_toolkit_ray.stages.links import trust_rank

    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array(["s/", "a"], pa.string()),
        "dst_url": pa.array(["a", "b"], pa.string())}))
    df = trust_rank(links, iterations=0).to_pandas()
    assert dict(zip(df["url"], df["trust"])) == {
        "s/": 1_000_000, "a": 0, "b": 0}


def test_kcore_peel_triangle_plus_tail():
    from cdx_toolkit_ray.stages.links import kcore_peel

    # triangle a-b-c (2-core) with a tail c-d-e that peels away;
    # parallel/self edges exercise the dedup + self-loop drop
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
             ("d", "e"), ("a", "b"), ("e", "e")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    for nb in (4, 1):
        df = kcore_peel(links, k=2, rounds=3, num_buckets=nb).to_pandas()
        got = dict(zip(df["url"], df["in_core"]))
        assert got == {"a": True, "b": True, "c": True,
                       "d": False, "e": False}


def test_kcore_peel_needs_enough_rounds():
    from cdx_toolkit_ray.stages.links import kcore_peel

    # chain hanging off a triangle: each round peels one chain node
    edges = [("a", "b"), ("b", "c"), ("c", "a"),
             ("c", "x1"), ("x1", "x2"), ("x2", "x3")]
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    one = kcore_peel(links, k=2, rounds=1, num_buckets=2).to_pandas()
    got1 = dict(zip(one["url"], one["in_core"]))
    # round 1 peels only the degree-1 leaf x3
    assert got1["x3"] is False or got1["x3"] == False  # noqa: E712
    assert got1["x2"]
    full = kcore_peel(links, k=2, rounds=3, num_buckets=2).to_pandas()
    gotf = dict(zip(full["url"], full["in_core"]))
    assert gotf == {"a": True, "b": True, "c": True,
                    "x1": False, "x2": False, "x3": False}


def test_kcore_zero_rounds_all_alive():
    from cdx_toolkit_ray.stages.links import kcore_peel

    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array(["a"], pa.string()),
        "dst_url": pa.array(["b"], pa.string())}))
    df = kcore_peel(links, k=2, rounds=0).to_pandas()
    assert set(df["url"]) == {"a", "b"}
    assert df["in_core"].all()


def test_opic_matches_serial_and_conserves_cash():
    from cdx_toolkit_ray.stages.links import opic

    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
             ("x", "sink")]   # sink is dangling: holds cash
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = opic(links, rounds=3, num_buckets=4).to_pandas()
    got = {r.url: (r.cash, r.hist, r.importance)
           for r in df.itertuples()}
    one = opic(links, rounds=3, num_buckets=1).to_pandas()

    SCALE = 1_000_000
    nodes = sorted({u for e in edges for u in e})
    deg: dict = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    cash = {u: SCALE for u in nodes}
    hist = {u: 0 for u in nodes}
    for _ in range(3):
        recv = {u: 0 for u in nodes}
        for s, d in edges:
            recv[d] += cash[s] // deg[s]
        for u in nodes:
            if u in deg:
                hist[u] += cash[u]
                cash[u] = recv[u]
            else:
                cash[u] = cash[u] + recv[u]
    want = {u: (cash[u], hist[u], cash[u] + hist[u]) for u in nodes}
    assert got == want
    assert {r.url: (r.cash, r.hist, r.importance)
            for r in one.itertuples()} == want
    # cash conservation modulo floor-division remainders
    assert sum(v[0] for v in got.values()) <= len(nodes) * SCALE


def test_opic_zero_rounds_uniform():
    from cdx_toolkit_ray.stages.links import opic

    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array(["a"], pa.string()),
        "dst_url": pa.array(["b"], pa.string())}))
    df = opic(links, rounds=0).to_pandas()
    assert dict(zip(df["url"], df["importance"])) == {
        "a": 1_000_000, "b": 1_000_000}


def test_degree_hist_buckets_and_parallel_edges():
    from cdx_toolkit_ray.stages.links import degree_hist

    # hub has out-degree 5 (bucket 2); each target in-degree 1
    # (bucket 0); parallel edge doubles one target's in-degree
    edges = ([("hub", "t%d" % i) for i in range(4)]
             + [("hub", "t0")])
    links = ray.data.from_arrow(pa.table({
        "src_url": pa.array([e[0] for e in edges], pa.string()),
        "dst_url": pa.array([e[1] for e in edges], pa.string())}))
    df = degree_hist(links, num_buckets=4).to_pandas()
    got = {(r.kind, r.bucket): (r.n_nodes, r.deg_sum)
           for r in df.itertuples()}
    assert got[("out", 2)] == (1, 5)       # hub: deg 5 -> bucket 2
    assert got[("in", 0)] == (3, 3)        # t1..t3: deg 1
    assert got[("in", 1)] == (1, 2)        # t0: deg 2 -> bucket 1
