"""Host-level curation (stages/hosts.py): integer cross-multiply
verdicts vs a serial reference, filter complement, edge cases."""

import numpy as np
import pyarrow as pa
import ray.data


def _mk(hosts, scores):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(len(hosts))), pa.int64()),
        "host": pa.array(hosts, pa.string()),
        "score": pa.array(scores, pa.int64()),
    }))


def test_stats_match_serial(ray_session):
    from cdx_toolkit_ray.stages.hosts import host_quality_stats

    rng = np.random.default_rng(11)
    hosts = ["h%d.example" % (i % 7) for i in range(300)]
    scores = rng.integers(0, 500, 300).tolist()
    got = host_quality_stats(_mk(hosts, scores), num_buckets=4) \
        .to_pandas().set_index("host").sort_index()
    gs, gc = sum(scores), len(scores)
    import collections
    agg = collections.defaultdict(lambda: [0, 0])
    for h, s in zip(hosts, scores):
        agg[h][0] += s
        agg[h][1] += 1
    assert len(got) == len(agg)
    for h, (ss, nd) in agg.items():
        row = got.loc[h]
        assert row["score_sum"] == ss and row["n_docs"] == nd
        assert row["mean_1e6"] == ss * 1_000_000 // nd
        assert bool(row["blocked"]) == (ss * gc < gs * nd)


def test_filter_is_exact_complement(ray_session):
    from cdx_toolkit_ray.stages.hosts import (filter_blocked_hosts,
                                              host_quality_stats)

    hosts = ["good.example"] * 5 + ["bad.example"] * 5
    scores = [100] * 5 + [1] * 5
    ds = _mk(hosts, scores)
    stats = host_quality_stats(ds, num_buckets=4)
    kept = filter_blocked_hosts(ds, stats).to_pandas()
    assert set(kept["host"]) == {"good.example"}
    assert len(kept) == 5


def test_no_hosts_blocked_when_uniform(ray_session):
    from cdx_toolkit_ray.stages.hosts import (filter_blocked_hosts,
                                              host_quality_stats)

    ds = _mk(["a", "b", "c"], [7, 7, 7])
    stats = host_quality_stats(ds, num_buckets=2)
    assert not stats.to_pandas()["blocked"].any()
    assert len(filter_blocked_hosts(ds, stats).to_pandas()) == 3


def test_adaptive_delays_clamp(ray_session):
    from cdx_toolkit_ray.stages.hosts import (adaptive_delays,
                                              host_quality_stats)

    # fast host mean=100 -> 3*100=300 -> floor 500; slow mean=5000 ->
    # 15000 -> ceiling 10000; middle mean=400 -> 1200
    hosts = ["fast"] * 4 + ["slow"] * 2 + ["mid"] * 3
    lats = [100] * 4 + [5000] * 2 + [400] * 3
    out = adaptive_delays(host_quality_stats(
        _mk(hosts, lats), num_buckets=2)).to_pandas() \
        .set_index("host")
    assert out.loc["fast", "adaptive_delay_ms"] == 500
    assert out.loc["slow", "adaptive_delay_ms"] == 10000
    assert out.loc["mid", "adaptive_delay_ms"] == 1200
    assert out.loc["mid", "mean_ms"] == 400
    assert out.loc["fast", "n_obs"] == 4


def test_replace_delays_lut_and_default(ray_session):
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import (adaptive_delays,
                                              host_quality_stats,
                                              replace_delays)

    delays = adaptive_delays(host_quality_stats(
        _mk(["a", "a", "b"], [400, 600, 2000]), num_buckets=2))
    rows = ray.data.from_arrow(pa.table({
        "host": pa.array(["a", "b", "unknown"], pa.string()),
        "crawl_delay_ms": pa.array([1, 1, 1], pa.int64()),
    }))
    out = replace_delays(rows, delays, default_ms=777).to_pandas() \
        .set_index("host")["crawl_delay_ms"]
    assert out["a"] == 1500       # mean 500 * 3
    assert out["b"] == 6000       # mean 2000 * 3
    assert out["unknown"] == 777  # no observation -> default


def test_host_pipeline_never_calls_limit(ray_session, monkeypatch):
    """Host filter and delay LUT collect their small sides through one
    materialized collect: no implicit ``limit(1)`` schema probe (whose
    cancel of in-flight tasks can abort the driver) runs."""
    from cdx_toolkit_ray.stages.hosts import (adaptive_delays,
                                              filter_blocked_hosts,
                                              host_quality_stats,
                                              replace_delays)

    def boom(*a, **k):
        raise AssertionError("Dataset.limit called")

    monkeypatch.setattr(ray.data.Dataset, "limit", boom)
    hosts = ["good.example"] * 5 + ["bad.example"] * 5
    ds = _mk(hosts, [100] * 5 + [1] * 5)
    stats = host_quality_stats(ds, num_buckets=4)
    kept = filter_blocked_hosts(ds, stats).take_all()
    assert {r["host"] for r in kept} == {"good.example"}
    rows = ray.data.from_arrow(pa.table({
        "host": pa.array(["good.example", "unknown"], pa.string()),
        "crawl_delay_ms": pa.array([1, 1], pa.int64())}))
    out = {r["host"]: r["crawl_delay_ms"] for r in replace_delays(
        rows, adaptive_delays(stats), default_ms=777).take_all()}
    assert out == {"good.example": 500, "unknown": 777}


def test_adaptive_schedule_spacing_invariant(ray_session):
    """Property: a schedule driven by adaptive delays never places two
    same-host fetches closer than that host's adaptive delay."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from cdx_toolkit_ray.pipelines.frontier import schedule_politeness
    from cdx_toolkit_ray.stages.hosts import (adaptive_delays,
                                              host_quality_stats,
                                              replace_delays)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4),
                              st.integers(50, 4000)),
                    min_size=1, max_size=40))
    def check(obs):
        hosts = ["h%d.example" % h for h, _ in obs]
        lats = [l for _, l in obs]
        delays = adaptive_delays(host_quality_stats(
            _mk(hosts, lats), num_buckets=4))
        dmap = delays.to_pandas().set_index("host")[
            "adaptive_delay_ms"].to_dict()
        # one frontier row per observation row (dup urls fine here)
        rows = ray.data.from_arrow(pa.table({
            "urlkey": pa.array(["k%d" % i for i in range(len(obs))],
                               pa.string()),
            "host": pa.array(hosts, pa.string()),
            "priority": pa.array([0] * len(obs), pa.int32()),
            "seed_order": pa.array(list(range(len(obs))), pa.int64()),
            "crawl_delay_ms": pa.array([1] * len(obs), pa.int64()),
            "robots_blocked": pa.array([False] * len(obs)),
        }))
        sched = schedule_politeness(
            replace_delays(rows, delays)).to_pandas()
        for h, grp in sched.groupby("host"):
            ts = np.sort(grp.fetch_ms.to_numpy())
            if len(ts) > 1:
                assert (np.diff(ts) >= dmap[h]).all(), (h, ts, dmap[h])

    check()


def test_blocklist_exact_beyond_int64(ray_session):
    """Products that would wrap int64 take the big-int path and stay
    exact (the verdict inverts if computed in wrapping int64)."""
    from cdx_toolkit_ray.stages.hosts import host_quality_stats

    big = 4_000_000_000_000_000_000  # 4e18: ss*2 wraps int64
    ds = _mk(["giant", "tiny"], [big, 1])
    out = host_quality_stats(ds, num_buckets=2).to_pandas() \
        .set_index("host")
    assert not bool(out.loc["giant", "blocked"])
    assert bool(out.loc["tiny", "blocked"])
    # true micro-mean exceeds int64 -> saturates; verdict stays exact
    assert out.loc["giant", "mean_1e6"] == (1 << 63) - 1


def test_aimd_throttle_hand_trace_and_cap():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import aimd_throttle

    # h.example trace (ts order): ok, ok, err, ok  ->
    #   1000 -> 900 -> 800 -> 1600 -> 1500
    rows = [
        ("http://h.example/a", "200", "20230101000001", "k1"),
        ("http://h.example/b", "301", "20230101000002", "k2"),
        ("http://h.example/c", "404", "20230101000003", "k3"),
        ("http://h.example/d", "200", "20230101000004", "k4"),
        # floor: err-heavy host saturates at 60000
        ("http://e.example/a", "-", "20230101000001", "k1"),
        ("http://e.example/b", "-", "20230101000002", "k2"),
        ("http://e.example/c", "-", "20230101000003", "k3"),
        ("http://e.example/d", "-", "20230101000004", "k4"),
        ("http://e.example/e", "-", "20230101000005", "k5"),
        ("http://e.example/f", "-", "20230101000006", "k6"),
        ("http://e.example/g", "-", "20230101000007", "k7"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "status": pa.array([r[1] for r in rows], pa.string()),
        "timestamp": pa.array([r[2] for r in rows], pa.string()),
        "urlkey": pa.array([r[3] for r in rows], pa.string())}))
    df = aimd_throttle(ds, num_buckets=4).to_pandas()
    got = {r.host: r for r in df.itertuples()}
    h = got["h.example"]
    assert (h.n_events, h.n_ok, h.n_backoff,
            h.final_interval_ms) == (4, 3, 1, 1500)
    e = got["e.example"]
    # 1000 *2^6 = 64000 -> capped at 60000 on the 7th doubling
    assert (e.n_events, e.n_backoff, e.final_interval_ms) == (7, 7, 60000)

    # cap: only the first 2 events replay
    df2 = aimd_throttle(ds, cap=2, num_buckets=2).to_pandas()
    g2 = {r.host: r for r in df2.itertuples()}
    assert g2["h.example"].n_events == 2
    assert g2["h.example"].final_interval_ms == 800


def test_aimd_throttle_min_floor():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import aimd_throttle

    rows = [("http://f.example/%d" % i, "200",
             "202301010000%02d" % i, "k%02d" % i) for i in range(12)]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "status": pa.array([r[1] for r in rows], pa.string()),
        "timestamp": pa.array([r[2] for r in rows], pa.string()),
        "urlkey": pa.array([r[3] for r in rows], pa.string())}))
    df = aimd_throttle(ds, num_buckets=2).to_pandas()
    # 1000 - 12*100 would be -200; floors at 100
    assert df.iloc[0].final_interval_ms == 100


def test_host_term_similarity_mirror_detection():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import host_term_similarity

    mirror_text = "alpha beta gamma delta epsilon zeta"
    rows = [
        ("http://m1.example/p", mirror_text),
        ("http://m2.example/p", mirror_text),          # exact mirror
        ("http://other.example/p",
         "one two three four five six"),               # disjoint
    ]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "text": pa.array([r[1] for r in rows], pa.string())}))
    df = host_term_similarity(ds, top_m=6, min_shared=5,
                              num_buckets=4).to_pandas()
    got = {(r.host_a, r.host_b): r.n_shared for r in df.itertuples()}
    # the two mirrors share all 6 profile terms; nothing else pairs
    assert got == {("m1.example", "m2.example"): 6}


def test_host_term_similarity_top_m_ranking_ties():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import host_term_similarity

    # h1 profile (top_m=2): 'zz' (3x) then tie 'aa'/'bb' (1x) ->
    # term ASC keeps 'aa'. h2 has {zz, aa} -> shares both.
    rows = [
        ("http://h1.example/p", "zz zz zz aa bb"),
        ("http://h2.example/p", "zz aa"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "text": pa.array([r[1] for r in rows], pa.string())}))
    df = host_term_similarity(ds, top_m=2, min_shared=2,
                              num_buckets=2).to_pandas()
    got = {(r.host_a, r.host_b): r.n_shared for r in df.itertuples()}
    assert got == {("h1.example", "h2.example"): 2}


def test_host_lang_profile_dominance_and_ties():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import host_lang_profile

    rows = [
        ("http://m.example/1", "eng"), ("http://m.example/2", "eng"),
        ("http://m.example/3", "deu"), ("http://m.example/4", None),
        # tie host: fra == spa -> lang ASC wins
        ("http://t.example/1", "spa"), ("http://t.example/2", "fra"),
    ]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "lang": pa.array([r[1] for r in rows], pa.string())}))
    df = host_lang_profile(ds, num_buckets=4).to_pandas()
    got = {r.host: (r.n_pages, r.n_langs, r.top_lang, r.top_share_1000)
           for r in df.itertuples()}
    assert got["m.example"] == (4, 3, "eng", 500)
    assert got["t.example"] == (2, 2, "fra", 500)


def test_budget_fill_greedy_exhaustion():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import budget_fill

    urls = (["http://a.example/%d" % i for i in range(10)]
            + ["http://b.example/%d" % i for i in range(8)]
            + ["http://c.example/%d" % i for i in range(8)])
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array(urls, pa.string())}))
    # caps: a -> 60000/1000=60 (capped by demand 10),
    #       b -> 60000/30000=2, c default 3000 -> 20 (capped 8)
    df = budget_fill(ds, budget=15, window_ms=60_000,
                     delays={"a.example": 1000, "b.example": 30000},
                     num_buckets=4).to_pandas()
    got = {r.host: (r.demand, r.cap, r.capped, r.alloc)
           for r in df.itertuples()}
    # fill order by capped DESC, host ASC: a(10), c(8), b(2)
    assert got["a.example"] == (10, 60, 10, 10)
    assert got["c.example"] == (8, 20, 8, 5)     # 15 - 10 = 5 left
    assert got["b.example"] == (8, 2, 2, 0)      # exhausted


def test_mirror_hosts_detects_alias_pair():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import mirror_hosts

    urls = (["https://a.example/p/%d" % i for i in range(10)]
            + ["https://www.a.example/p/%d" % i for i in range(10)]
            + ["https://b.example/p/1", "https://b.example/q/9"])
    ds = ray.data.from_arrow(pa.table({"url": pa.array(urls)}))
    df = mirror_hosts(ds, threshold_pct=50, min_shared=2).to_pandas()
    key = df.set_index(["host_a", "host_b"])
    full = key.loc[("a.example", "www.a.example")]
    assert int(full.n_shared) == 10 and bool(full.is_mirror)
    # b shares only /p/1 with a -> below min_shared, no pair row
    assert ("a.example", "b.example") not in key.index
    # duplicate urls across blocks don't inflate sizes
    dup = ray.data.from_arrow(pa.table({"url": pa.array(urls * 3)}))
    dup = dup.repartition(6)
    df2 = (mirror_hosts(dup, threshold_pct=50, min_shared=2)
           .to_pandas().set_index(["host_a", "host_b"]))
    row = df2.loc[("a.example", "www.a.example")]
    assert int(row.n_a) == 10 and int(row.n_b) == 10 \
        and int(row.n_shared) == 10


def test_mirror_hosts_randomized_matches_bruteforce():
    """String-doc path of shared_key_pairs_with_sizes: randomized
    host/path corpora over multiple blocks and bucket counts must
    equal brute-force path-set math (the containment test's twin for
    the mirror-host operator)."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.hosts import mirror_hosts

    for seed in (3, 17, 99):
        rng = np.random.default_rng(seed)
        hosts = ["h%d.example" % i for i in range(6)]
        paths = ["/p/%d" % i for i in range(12)]
        urls, truth = [], {}
        for h in hosts:
            chosen = [p for p in paths if rng.random() < 0.5]
            truth[h] = set(chosen)
            urls.extend("https://%s%s" % (h, p) for p in chosen)
        rng.shuffle(urls)
        ds = ray.data.from_arrow(pa.table({
            "url": pa.array(urls, pa.string())})).repartition(4)
        got = mirror_hosts(ds, threshold_pct=50, min_shared=2,
                           num_buckets=5).to_pandas()
        got_map = {(r.host_a, r.host_b):
                   (r.n_shared, r.n_a, r.n_b, r.is_mirror)
                   for r in got.itertuples()}
        want = {}
        for a, b in itertools.combinations(sorted(truth), 2):
            s = len(truth[a] & truth[b])
            if s >= 2:
                na, nb = len(truth[a]), len(truth[b])
                want[(a, b)] = (s, na, nb,
                                100 * s >= 50 * (na + nb - s))
        assert got_map == want, seed
