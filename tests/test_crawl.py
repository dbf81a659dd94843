"""The integrated crawl loop (pipelines/crawl.py): fetch-outcome-gated
BFS — failed fetches contribute no outlinks; the seen gate fetches each
url once; payload resolution is latest-capture-wins."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cdx_toolkit_ray.canon import hash64
from cdx_toolkit_ray.pipelines.crawl import UrlTableTransport, crawl_waves

# fault slots (hash64(url) % 8, pipelines/fetch.py FAULT_STATUSES):
# 0 -> 200 ok n=1; 7 -> 503,200 ok n=2; 4 -> 404 invalid n=1;
# 1 -> 503,500,429 exhausted n=3; 3 -> 429,404 invalid n=2
SEED = "https://t7.example/"          # slot 0 (ok)
A = "https://web.example/p/1"         # slot 7 (retry then ok)
B = "https://web.example/p/0"         # slot 4 (invalid) — never expands
C = "https://web.example/p/7"         # slot 1 (exhausted)
E = "https://web.example/p/22"        # slot 0 (ok leaf)
F = "https://web.example/p/9"         # only linked from B: unreachable
DANGLING = "https://web.example/p/17"  # slot 0 (ok) but not in the table


def _check_slots():
    for u, d in ((SEED, 0), (A, 7), (B, 4), (C, 1), (E, 0),
                 (DANGLING, 0)):
        assert hash64(u) % 8 == d, (u, hash64(u) % 8)


def _web_table(tmp_path, stale_seed_text=None):
    _check_slots()
    rows = [
        # two captures of the seed: the LATEST (ts=20) links the real
        # web; the stale one (ts=10) links only F (must be ignored)
        (SEED, 10, stale_seed_text or f"<a href='{F}'></a>"),
        (SEED, 20,
         f"<a href='{A}'></a> <a href='{B}'></a> <a href='{DANGLING}'></a>"),
        (A, 10, f"<a href='{C}'></a> <a href='/p/22'></a>"),
        (B, 10, f"<a href='{F}'></a>"),
        (C, 10, f"<a href='{F}'></a>"),
        (E, 10, f"<a href='{SEED}'></a>"),  # cycle back to the seed
        (F, 10, "leaf"),
    ]
    t = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.int64()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    })
    p = str(tmp_path / "web.parquet")
    pq.write_table(t, p)
    return p


def test_crawl_waves_outcome_gated_bfs(ray_session, tmp_path):
    p = _web_table(tmp_path)
    seeds_t = pa.table({"url": pa.array([SEED], pa.string())})
    import ray.data
    out = crawl_waves(p, seeds=ray.data.from_arrow(seeds_t),
                      max_waves=3).to_pandas()
    got = {r.url: (r.wave, r.n_attempts, r.final_status, r.fetch_action)
           for r in out.itertuples()}
    assert got == {
        SEED: (0, 1, 200, "ok"),
        A: (1, 2, 200, "ok"),
        B: (1, 1, 404, "invalid"),
        DANGLING: (1, 1, 200, "ok"),
        C: (2, 3, 429, "exhausted"),
        E: (2, 1, 200, "ok"),
    }
    # F is linked from B (invalid), C (exhausted) and the seed's STALE
    # capture only -> never fetched; the cycle E->SEED never refetches
    assert F not in got and len(out) == 6
    texts = dict(zip(out.url, out.text))
    assert texts[DANGLING] is None          # ok but not hosted
    assert texts[B] is None                 # failures carry no payload
    assert "p/22" in texts[A]               # latest-capture payloads


def test_crawl_waves_zero_waves_and_empty(ray_session, tmp_path):
    p = _web_table(tmp_path)
    import ray.data
    seeds = ray.data.from_arrow(
        pa.table({"url": pa.array([SEED], pa.string())}))
    out = crawl_waves(p, seeds=seeds, max_waves=0).to_pandas()
    assert list(out.url) == [SEED] and list(out.wave) == [0]
    none = crawl_waves(p, seeds=ray.data.from_arrow(
        pa.table({"url": pa.array([], pa.string())})),
        max_waves=2).to_pandas()
    assert len(none) == 0


def test_url_transport_latest_capture_wins(tmp_path):
    p = _web_table(tmp_path)
    tr = UrlTableTransport(p)
    ids = np.array([hash64(SEED), hash64(A), hash64(F) + 1],
                   np.uint64).view(np.int64)
    got = tr.payloads(ids).to_pylist()
    assert "p/17" in got[0] and F not in got[0]  # ts=20 capture, not ts=10
    assert got[1] is not None and got[2] is None  # unknown hash -> null


def test_url_transport_over_budget_raises(tmp_path):
    p = _web_table(tmp_path)
    tr = UrlTableTransport(p, index_budget_bytes=0)
    with pytest.raises(NotImplementedError):
        tr.payloads(np.array([1], np.int64))


def _read_out(out_dir):
    import pandas as pd
    import pyarrow.parquet as pq_

    import glob
    files = sorted(glob.glob(str(out_dir) + "/wave=*/*.parquet"))
    return pd.concat([pq_.read_table(f).to_pandas() for f in files],
                     ignore_index=True).sort_values(
        ["wave", "url"]).reset_index(drop=True)


def test_run_crawl_resume_skips_completed_waves(ray_session, tmp_path):
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    out = str(tmp_path / "crawl_out")
    r1 = run_crawl(p, out, seed_suffix="t7.example/", max_waves=3)
    assert r1["skipped_waves"] == [] and r1["ran_waves"] == [0, 1, 2]
    first = _read_out(out)
    assert set(first.url) == {SEED, A, B, DANGLING, C, E}
    # identical rerun: every wave skipped, nothing refetched, output
    # untouched
    r2 = run_crawl(p, out, seed_suffix="t7.example/", max_waves=3)
    assert r2["ran_waves"] == [] and r2["skipped_waves"] == [0, 1, 2]
    assert r2["counters"] == r1["counters"]
    assert _read_out(out).equals(first)


def test_run_crawl_extends_shallow_crawl(ray_session, tmp_path):
    """A wave's row set is independent of max_waves, so a finished
    shallow crawl deepens by fetching only the NEW waves — the frontier
    re-derives from the last persisted wave's ok rows."""
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    out = str(tmp_path / "crawl_ext")
    r1 = run_crawl(p, out, seed_suffix="t7.example/", max_waves=1)
    assert r1["ran_waves"] == [0, 1]
    r2 = run_crawl(p, out, seed_suffix="t7.example/", max_waves=3)
    assert r2["skipped_waves"] == [0, 1] and r2["ran_waves"] == [2]
    # deep-from-scratch reference
    ref = str(tmp_path / "crawl_ref")
    run_crawl(p, ref, seed_suffix="t7.example/", max_waves=3)
    assert _read_out(out).equals(_read_out(ref))


def _assert_polite(df, delay):
    """Per host: slots unique, spaced >= delay, and every later wave's
    slots come strictly after every earlier wave's (the cross-wave
    budget)."""
    for host, g in df.groupby("host"):
        ms = np.sort(g["fetch_ms"].to_numpy())
        assert (np.diff(ms) >= delay).all(), (host, ms)
        for w in sorted(g["wave"].unique())[:-1]:
            lo = g[g.wave == w]["fetch_ms"].max()
            hi = g[g.wave > w]["fetch_ms"].min()
            assert hi >= lo + delay, (host, w, lo, hi)


def test_run_crawl_cross_wave_politeness(ray_session, tmp_path):
    """Slots never violate the per-host interval ACROSS waves: wave
    w+1's first slot for a host starts one delay after the host's last
    slot in any earlier wave."""
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    out = str(tmp_path / "crawl_polite")
    run_crawl(p, out, seed_suffix="t7.example/", max_waves=3,
              default_delay_ms=700)
    df = _read_out(out)
    assert {"host", "fetch_ms"} <= set(df.columns)
    _assert_polite(df, 700)
    # web.example is fetched at waves 1 (A, B, DANGLING) and 2 (C, E):
    # five slots on one host, all distinct, spanning both waves
    web = df[df.host == "web.example"]
    assert len(web) == 5 and web.fetch_ms.nunique() == 5


def test_run_crawl_politeness_survives_resume(ray_session, tmp_path):
    """The politeness base re-derives from persisted waves: a resumed
    deeper crawl gives identical slots to a from-scratch deep crawl."""
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    out = str(tmp_path / "crawl_pr")
    run_crawl(p, out, seed_suffix="t7.example/", max_waves=1,
              default_delay_ms=700)
    r = run_crawl(p, out, seed_suffix="t7.example/", max_waves=3,
                  default_delay_ms=700)
    assert r["skipped_waves"] == [0, 1]
    ref = str(tmp_path / "crawl_pr_ref")
    run_crawl(p, ref, seed_suffix="t7.example/", max_waves=3,
              default_delay_ms=700)
    assert _read_out(out).equals(_read_out(ref))
    _assert_polite(_read_out(out), 700)


def test_run_crawl_random_web_politeness(ray_session, tmp_path):
    """Seeded random web over many hosts: the politeness invariant
    holds globally for every host across all waves."""
    import ray.data

    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    rng = np.random.default_rng(7)
    hosts = ["h%d.example" % i for i in range(9)]
    urls = ["https://%s/p/%d" % (rng.choice(hosts), i)
            for i in range(120)]
    texts = []
    for i in range(120):
        outl = rng.choice(urls, size=rng.integers(0, 5), replace=False)
        texts.append(" ".join("<a href='%s'></a>" % u for u in outl))
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(list(range(120)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    p = str(tmp_path / "rand.parquet")
    pq.write_table(t, p)
    seeds = ray.data.from_arrow(pa.table(
        {"url": pa.array(urls[:10], pa.string())}))
    out = str(tmp_path / "rand_out")
    run_crawl(p, out, seeds=seeds, max_waves=4, default_delay_ms=300)
    df = _read_out(out)
    assert df.url.is_unique and len(df) >= 10
    _assert_polite(df, 300)


def test_run_crawl_robots_gate_blocks(ray_session, tmp_path):
    """robots_path: disallowed URLs are dropped before fetch and the
    host's crawl-delay from robots drives the slot spacing."""
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    robots = pa.table({
        "host": pa.array(["web.example"], pa.string()),
        "crawl_delay_ms": pa.array([2500], pa.int64()),
        "disallow": pa.array([["/p/0"]],
                             pa.list_(pa.string())),
    })
    rp = str(tmp_path / "robots.parquet")
    pq.write_table(robots, rp)
    out = str(tmp_path / "crawl_rob")
    run_crawl(p, out, seed_suffix="t7.example/", max_waves=3,
              robots_path=rp, default_delay_ms=400)
    df = _read_out(out)
    assert B not in set(df.url)          # disallowed '/p/0' never fetched
    assert A in set(df.url)
    web = df[df.host == "web.example"]
    _assert_polite(web, 2500)            # robots delay, not the default


def test_run_crawl_changed_input_invalidates(ray_session, tmp_path):
    """A different pages table (new footer fingerprint) must not reuse
    stale partitions."""
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    out = str(tmp_path / "crawl_inv")
    run_crawl(p, out, seed_suffix="t7.example/", max_waves=1)
    (tmp_path / "v2").mkdir()
    p2 = _web_table(tmp_path / "v2",
                    stale_seed_text=f"<a href='{E}'></a> changed")
    r = run_crawl(str(p2), out, seed_suffix="t7.example/", max_waves=1)
    assert r["skipped_waves"] == [] and r["ran_waves"] == [0, 1]


def test_run_crawl_warc_output_roundtrip(ray_session, tmp_path):
    """warc_prefix: each wave's ok rows land as real WARC/1.0 response
    records next to the parquet partitions; payload bytes round-trip,
    and a resumed run renders nothing new."""
    import glob
    import os

    from cdx_toolkit_ray.pipelines.crawl import run_crawl
    from cdx_toolkit_ray.pipelines.warcbytes import read_warc

    p = _web_table(tmp_path)
    out = str(tmp_path / "crawl_warc")
    run_crawl(p, out, seed_suffix="t7.example/", max_waves=3,
              warc_prefix="CRAWL")
    segs = sorted(glob.glob(out + "/CRAWL-*.extracted.warc.gz"))
    assert segs
    recs = read_warc(segs, record_types=("response",)).to_pandas()
    got = {r.url: r.payload.decode("utf-8") for r in recs.itertuples()}
    df = _read_out(out)
    ok = df[(df.fetch_action == "ok") & df.text.notna()]
    assert got == dict(zip(ok.url, ok.text))
    before = [os.path.getsize(s) for s in segs]
    run_crawl(p, out, seed_suffix="t7.example/", max_waves=3,
              warc_prefix="CRAWL")
    segs2 = sorted(glob.glob(out + "/CRAWL-*.extracted.warc.gz"))
    assert segs2 == segs
    assert [os.path.getsize(s) for s in segs2] == before


def test_run_crawl_max_per_host_budget(ray_session, tmp_path):
    """Per-host crawl budget: on a seeded random web, compare run_crawl
    against a serial Python replay of the whole loop (gate, fault
    replay, cap in url-rank order, outcome-gated expansion) — fetched
    sets and per-host counts must match exactly, and no host may
    exceed the cap."""
    import ray.data

    from cdx_toolkit_ray.pipelines.crawl import run_crawl
    from cdx_toolkit_ray.pipelines.fetch import FAULT_STATUSES

    rng = np.random.default_rng(11)
    hosts = ["h%d.example" % i for i in range(5)]
    urls = ["https://%s/p/%d" % (hosts[i % 5], i) for i in range(90)]
    texts = []
    for i in range(90):
        outl = rng.choice(urls, size=rng.integers(1, 6), replace=False)
        texts.append(" ".join("<a href='%s'></a>" % u for u in outl))
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(list(range(90)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    p = str(tmp_path / "cap.parquet")
    pq.write_table(t, p)
    seeds = urls[:8]
    CAP, WAVES, DELAY = 4, 4, 100

    # --- serial replay ---------------------------------------------
    page = dict(zip(urls, texts))

    def final_ok(u):
        d = int(hash64(u) % 8)
        for k in range(3):
            s = int(FAULT_STATUSES[(d + k) % 8])
            if s in (200, 301):
                return True
            if s == 404:
                return False
        return False

    import re
    seen, counts, expect = set(), {}, {}
    frontier = sorted(set(seeds))
    for wave in range(WAVES + 1):
        fresh = [u for u in frontier if u not in seen]
        seen.update(fresh)
        by_host = {}
        for u in sorted(fresh):
            h = u.split("://")[1].split("/")[0]
            by_host.setdefault(h, []).append(u)
        fetched = []
        for h, us in by_host.items():
            room = CAP - counts.get(h, 0)
            kept = us[:max(0, room)]
            counts[h] = counts.get(h, 0) + len(kept)
            fetched.extend(kept)
        for u in fetched:
            expect[u] = wave
        nxt = set()
        for u in fetched:
            if final_ok(u) and u in page:
                for href in re.findall(r"href='([^']*)'", page[u]):
                    if "://" in href:
                        nxt.add(href)
        frontier = sorted(nxt)
        if not frontier:
            break

    # --- engine ----------------------------------------------------
    out = str(tmp_path / "cap_out")
    run_crawl(p, out, seeds=ray.data.from_arrow(
        pa.table({"url": pa.array(seeds, pa.string())})),
        max_waves=WAVES, max_per_host=CAP, default_delay_ms=DELAY)
    df = _read_out(out)
    got = dict(zip(df.url, df.wave))
    assert got == expect
    per_host = df.groupby("host").size()
    assert (per_host <= CAP).all()
    _assert_polite(df, DELAY)


def test_run_crawl_capped_resume_matches_uninterrupted(ray_session,
                                                       tmp_path):
    """A capped crawl (``max_per_host``) stopped after wave 1 and
    resumed writes the same rows as one uninterrupted run: each host's
    count and last slot re-derive from the stored waves, so the cap
    and the clock carry across the resume."""
    import ray.data

    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    rng = np.random.default_rng(23)
    hosts = ["h%d.example" % i for i in range(4)]
    urls = ["https://%s/p/%d" % (hosts[i % 4], i) for i in range(80)]
    texts = [" ".join("<a href='%s'></a>" % u for u in
                      rng.choice(urls, size=rng.integers(2, 6),
                                 replace=False)) for _ in urls]
    p = str(tmp_path / "capres.parquet")
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(list(range(80)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), p)

    def crawl(out, max_waves):
        seeds = ray.data.from_arrow(
            pa.table({"url": pa.array(urls[:6], pa.string())}))
        return run_crawl(p, str(out), seeds=seeds, max_waves=max_waves,
                         max_per_host=5, default_delay_ms=250)

    crawl(tmp_path / "cap_res", 1)
    r = crawl(tmp_path / "cap_res", 4)
    assert r["skipped_waves"] == [0, 1] and r["ran_waves"]
    crawl(tmp_path / "cap_ref", 4)
    got, want = (_read_out(tmp_path / "cap_res"),
                 _read_out(tmp_path / "cap_ref"))
    assert got.equals(want)
    per_host = got.groupby("host").size()
    assert (per_host <= 5).all() and (per_host == 5).any()
    # the cap is met by hosts fetched on both sides of the resume
    spans = got.groupby("host")["wave"].agg(["min", "max"])
    assert ((spans["min"] <= 1) & (spans["max"] > 1)
            & (per_host == 5)).any()
    _assert_polite(got, 250)


def test_run_crawl_cap_requires_politeness(ray_session, tmp_path):
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    with pytest.raises(ValueError):
        run_crawl(p, str(tmp_path / "x"), politeness=False,
                  max_per_host=3)


def test_crawl_waves_url_gate_prunes_subtree(ray_session, tmp_path):
    import ray.data

    p = _web_table(tmp_path)
    seeds = ray.data.from_arrow(
        pa.table({"url": pa.array([SEED], pa.string())}))

    def no_a(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.invert(pc.equal(batch["url"], A)))

    out = crawl_waves(p, seeds=seeds, max_waves=3,
                      url_gate=no_a).to_pandas()
    got = set(out.url)
    # A is gated before the seen gate -> never fetched; C and E are
    # reachable only through A -> the whole subtree is pruned
    assert A not in got and C not in got and E not in got
    assert got == {SEED, B, DANGLING}


def test_crawl_waves_spam_gate_factory(ray_session, tmp_path):
    import ray.data

    from cdx_toolkit_ray.stages.urlfeat import spam_url_gate

    p = _web_table(tmp_path)
    seeds = ray.data.from_arrow(
        pa.table({"url": pa.array([SEED], pa.string())}))
    # flag_query=False + max_digits=0: every url here carries a digit
    # (t7 host, /p/N paths) -> the whole frontier is spam-gated
    out = crawl_waves(p, seeds=seeds, max_waves=3,
                      url_gate=spam_url_gate(max_digits=0,
                                             flag_query=False)
                      ).to_pandas()
    assert len(out) == 0
    # a permissive gate (digits allowed) keeps the normal crawl
    out2 = crawl_waves(p, seeds=seeds, max_waves=3,
                       url_gate=spam_url_gate(max_digits=99)
                       ).to_pandas()
    assert SEED in set(out2.url) and A in set(out2.url)


def test_run_crawl_url_gate_requires_tag(ray_session, tmp_path):
    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)
    with pytest.raises(ValueError, match="url_gate_tag"):
        run_crawl(p, str(tmp_path / "out"),
                  url_gate=lambda b: b, politeness=False)


def test_run_crawl_url_gate_resume_and_fingerprint(ray_session,
                                                   tmp_path):
    import ray.data

    from cdx_toolkit_ray.pipelines.crawl import run_crawl

    p = _web_table(tmp_path)

    def no_a(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.invert(pc.equal(batch["url"], A)))

    out = str(tmp_path / "gated")
    r1 = run_crawl(p, out, max_waves=2, politeness=False,
                   url_gate=no_a, url_gate_tag="no-a-v1")
    assert r1["ran_waves"] and not r1["skipped_waves"]
    # rerun with the same tag resumes (waves skipped)
    r2 = run_crawl(p, out, max_waves=2, politeness=False,
                   url_gate=no_a, url_gate_tag="no-a-v1")
    assert not r2["ran_waves"]
    # a different tag invalidates the fingerprint -> refetch
    r3 = run_crawl(p, out, max_waves=2, politeness=False,
                   url_gate=no_a, url_gate_tag="no-a-v2")
    assert r3["ran_waves"]


def test_crawl_waves_cuckoo_seen_backend(ray_session, tmp_path):
    import ray.data

    p = _web_table(tmp_path)
    seeds = ray.data.from_arrow(
        pa.table({"url": pa.array([SEED], pa.string())}))
    out = crawl_waves(p, seeds=seeds, max_waves=3,
                      seen_backend="cuckoo").to_pandas()
    # identical reach to the exact-set run (cuckoo has no false
    # negatives; 32-bit fingerprints make FPs vanishing here)
    assert set(out.url) == {SEED, A, B, DANGLING, C, E}


def test_run_crawl_warc_resume_no_duplicates(ray_session, tmp_path):
    """A crashed run's stale WARC segments must not survive the
    re-render: after wiping the manifest (simulating a crash before
    the wave was recorded) and rerunning, the segment family holds
    each response exactly once."""
    import glob
    import json
    import os

    import gzip

    from cdx_toolkit_ray.pipelines.crawl import run_crawl
    from cdx_toolkit_ray.pipelines.warcbytes import parse_warc
    from cdx_toolkit_ray.state.lineage import MANIFEST_NAME

    def read_segment_records(path):
        raw = gzip.decompress(open(path, "rb").read()) \
            if path.endswith(".gz") else open(path, "rb").read()
        return parse_warc(raw)

    p = _web_table(tmp_path)
    out = str(tmp_path / "wcrawl")
    run_crawl(p, out, max_waves=1, politeness=False,
              warc_prefix="cc-test")
    segs1 = sorted(glob.glob(os.path.join(out, "cc-test-*.warc*")))
    n_rec1 = sum(len(read_segment_records(s)) for s in segs1)

    # crash simulation: the manifest never recorded the waves, but the
    # WARC segments (and parquet) are on disk
    os.unlink(os.path.join(out, MANIFEST_NAME))
    run_crawl(p, out, max_waves=1, politeness=False,
              warc_prefix="cc-test")
    segs2 = sorted(glob.glob(os.path.join(out, "cc-test-*.warc*")))
    n_rec2 = sum(len(read_segment_records(s)) for s in segs2)
    assert n_rec2 == n_rec1  # re-render replaced, never appended
