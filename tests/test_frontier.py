"""Frontier pipeline vs a serial single-threaded oracle simulator.

The oracle (FIXTURES.md §6) applies the spec'd semantics — first-wins
dedup by (priority, seed_order), robots disallow, per-host virtual-clock
politeness, global (fetch_ms, priority, seed_order) order — in plain
Python, one row at a time. The parallel Ray pipeline must match it
EXACTLY (north_rule: crawl-order + URL-seen exact match).
"""

from urllib.parse import urlsplit

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cdx_toolkit_ray.canon import hash64, host_of, surt
from cdx_toolkit_ray.pipelines.frontier import (
    DEFAULT_DELAY_MS,
    crawl_order,
    frontier_flow,
    host_counters,
    load_robots,
    make_bucket_scheduler,
)

pytestmark = pytest.mark.usefixtures("ray_session")


def serial_oracle(seeds_path, robots_path):
    """Reference-in-miniature: the exact schedule, computed serially."""
    seeds = pq.read_table(seeds_path).to_pylist()
    robots = load_robots(robots_path)

    # canonicalize + first-wins dedup by (priority, seed_order)
    best = {}
    for row in seeds:
        key = surt(row["url"])
        h = hash64(key)
        prev = best.get(h)
        if prev is None or (row["priority"], row["seed_order"]) < \
                (prev["priority"], prev["seed_order"]):
            best[h] = dict(row, urlkey=key, hash64=h, host=host_of(row["url"]))

    # robots gate + per-host virtual clock
    sched = []
    per_host = {}
    for row in sorted(best.values(),
                      key=lambda r: (r["priority"], r["seed_order"])):
        delay, disallow = robots.get(row["host"], (DEFAULT_DELAY_MS, ()))
        path = urlsplit(row["url"]).path or "/"
        if disallow and path.startswith(tuple(disallow)):
            continue
        rank = per_host.get(row["host"], 0)
        per_host[row["host"]] = rank + 1
        sched.append((rank * delay, row["priority"], row["seed_order"],
                      row["urlkey"], row["hash64"], rank))
    sched.sort()
    return sched, set(best)


def test_crawl_order_matches_serial_oracle(fixture_dir):
    flow = frontier_flow(fixture_dir["seeds"], fixture_dir["robots"])
    got_rows = crawl_order(flow).take_all()
    got = [(r["fetch_ms"], r["priority"], r["seed_order"], r["urlkey"],
            r["hash64"], r["host_rank"]) for r in got_rows]
    want, want_seen = serial_oracle(fixture_dir["seeds"], fixture_dir["robots"])
    assert len(got) == len(want)
    assert got == want
    # URL-seen set (post-dedup hash set) matches exactly
    assert {r["hash64"] for r in got_rows}.issubset(want_seen)


def test_politeness_budget_invariant(fixture_dir):
    """No host is fetched more often than its crawl delay allows."""
    flow = frontier_flow(fixture_dir["seeds"], fixture_dir["robots"])
    rows = crawl_order(flow).take_all()
    by_host = {}
    for r in rows:
        by_host.setdefault(r["host"], []).append(r["fetch_ms"])
    robots = load_robots(fixture_dir["robots"])
    for host, times in by_host.items():
        delay = robots.get(host, (DEFAULT_DELAY_MS, ()))[0]
        times = sorted(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= delay for g in gaps), (host, delay, gaps[:5])


def test_counters(fixture_dir):
    flow = frontier_flow(fixture_dir["seeds"], fixture_dir["robots"])
    counters = {r["host"]: r for r in host_counters(flow).take_all()}
    sched, _ = serial_oracle(fixture_dir["seeds"], fixture_dir["robots"])
    # total fetched matches oracle schedule length
    assert sum(r["fetched"] for r in counters.values()) == len(sched)
    # seeds conservation: every seed is fetched, deduped, or blocked
    n_seeds = pq.read_metadata(fixture_dir["seeds"]).num_rows
    total = sum(r["fetched"] + r["deduped"] + r["robots_blocked"]
                for r in counters.values())
    assert total == n_seeds
    # deferred = fetched minus the rank-0 fetch of each active host
    for host, r in counters.items():
        if r["fetched"] > 0:
            assert r["deferred_politeness"] == r["fetched"] - 1


def test_salted_subqueues_preserve_schedule(fixture_dir):
    plain = crawl_order(
        frontier_flow(fixture_dir["seeds"], fixture_dir["robots"])).take_all()
    salted = crawl_order(
        frontier_flow(fixture_dir["seeds"], fixture_dir["robots"],
                      num_salts=4)).take_all()
    key = lambda r: (r["fetch_ms"], r["priority"], r["seed_order"], r["urlkey"])
    assert [key(r) for r in plain] == [key(r) for r in salted]
    # sub-queue ids cover 0..S-1 on the hot host
    hot = [r["subqueue"] for r in salted if r["host"] == "big-portal.example"]
    assert set(hot) == {0, 1, 2, 3}


def _routing_seeds(tmp_path):
    """Seeds that only the frontier's host route keeps exact: one raw
    host on the default port and on four others (``:80`` is the default
    spelled out, so it duplicates the bare form), ``www.`` and bare
    forms of the same urls at different priorities, and one hot host
    with most rows."""
    rng = np.random.default_rng(11)
    ports = ("", ":80", ":8080", ":8443", ":9000")
    urls = (["https://hot.example/p/%d" % rng.integers(0, 500)
             for _ in range(700)]
            + ["http://port.example%s/q/%d" % (ports[i % 5], i % 8)
               for i in range(120)]
            + ["http://%sdup%d.example/x/%d" % ("www." * (i % 2), i % 3,
                                                i % 5)
               for i in range(60)]
            + ["https://small%d.example/" % (i % 9) for i in range(40)])
    n = len(urls)
    seeds = str(tmp_path / "seeds.parquet")
    pq.write_table(pa.table({
        "url": pa.array(urls),
        "priority": pa.array(rng.integers(0, 4, n), pa.int32()),
        "seed_order": pa.array(rng.permutation(n), pa.int64())}), seeds,
        row_group_size=97)
    robots = str(tmp_path / "robots.parquet")
    pq.write_table(pa.table({
        "host": ["hot.example", "port.example", "dup1.example"],
        "crawl_delay_ms": pa.array([500, 1000, 2000], pa.int64()),
        "disallow": pa.array([["/p/1"], [], ["/x/3"]],
                             pa.list_(pa.string()))}), robots)
    return seeds, robots, urls


def test_host_route_keeps_ports_www_duplicates_and_hot_host(tmp_path):
    """The frontier's one host round routes by the www-stripped raw
    host: politeness ranks one host across its ports, SURT duplicates
    under ``www.`` and bare hosts meet in one bucket, and the crawl
    order and every winner's ``n_dup_dropped`` equal the serial
    reference, salted or not."""
    from collections import Counter

    seeds, robots, urls = _routing_seeds(tmp_path)
    assert sum(u.startswith("https://hot.") for u in urls) > len(urls) / 2
    dups = Counter(hash64(surt(u)) for u in urls)
    want, _ = serial_oracle(seeds, robots)
    assert any(r[0] > 0 for r in want)   # some host ranks past 0
    for salts in (1, 2):
        flow = frontier_flow(seeds, robots, num_salts=salts)
        got = [(r["fetch_ms"], r["priority"], r["seed_order"],
                r["urlkey"], r["hash64"], r["host_rank"])
               for r in crawl_order(flow).take_all()]
        assert got == want, salts
        rows = flow.to_pandas()
        assert len(rows) == len(dups)
        assert {int(h): int(d) for h, d in
                zip(rows["hash64"], rows["n_dup_dropped"])} == \
            {h: c - 1 for h, c in dups.items()}


def reference_order(gated: pa.Table, num_salts: int = 1,
                    connections: int = 1) -> pd.DataFrame:
    """Independent serial reference for politeness + global order: a
    numpy per-host rank over the WHOLE gated table (no bucketing), then
    one global lexsort by (fetch_ms, priority, seed_order)."""
    df = gated.to_pandas()
    df = df[~df["robots_blocked"].to_numpy()].reset_index(drop=True)
    host = np.unique(df["host"].to_numpy(), return_inverse=True)[1]
    by_host = np.lexsort((df["seed_order"].to_numpy(),
                          df["priority"].to_numpy(), host))
    sorted_host = host[by_host]
    first = np.searchsorted(sorted_host, sorted_host)
    rank = np.empty(len(df), np.int64)
    rank[by_host] = np.arange(len(df)) - first
    df["host_rank"] = rank
    df["fetch_ms"] = (rank // connections) * df["crawl_delay_ms"]
    if num_salts > 1:
        df["subqueue"] = rank % num_salts
    order = np.lexsort((df["seed_order"].to_numpy(),
                        df["priority"].to_numpy(),
                        df["fetch_ms"].to_numpy()))
    return df.iloc[order].reset_index(drop=True)


def assert_matches_reference(got: pd.DataFrame, want: pd.DataFrame):
    cols = [c for c in ("host", "priority", "seed_order", "host_rank",
                        "fetch_ms", "subqueue") if c in want.columns]
    assert set(cols) <= set(got.columns)
    got = got.reset_index(drop=True)
    for c in cols:
        assert got[c].astype(want[c].dtype).tolist() == want[c].tolist(), c


def test_scheduled_crawl_order_matches_serial_reference(fixture_dir):
    """The exchange path (hash politeness round + range order round)
    equals the serial reference row for row, salted and unsalted."""
    import ray as _ray
    import ray.data as rd

    from cdx_toolkit_ray.canon import canonicalize_batch
    from cdx_toolkit_ray.pipelines.frontier import (
        make_robots_gate,
        scheduled_crawl_order,
    )
    from cdx_toolkit_ray.stages.dedup import first_wins_dedup

    robots_ref = _ray.put(load_robots(fixture_dir["robots"]))
    ds = rd.read_parquet(fixture_dir["seeds"])
    ds = first_wins_dedup(ds, "hash64",
                          [("priority", 19), ("seed_order", 44)],
                          derive_fn=canonicalize_batch)
    gated = ds.map_batches(make_robots_gate(robots_ref),
                           batch_size=None, batch_format="pyarrow") \
        .materialize()
    table = pa.concat_tables(
        gated.iter_batches(batch_format="pyarrow", batch_size=None))
    for salts in (1, 3):
        got = scheduled_crawl_order(gated, num_salts=salts).to_pandas()
        assert_matches_reference(got, reference_order(table, salts))
        assert ("subqueue" in got.columns) == (salts > 1)


def _synthetic_gated(n: int, n_hosts: int, seed: int,
                     blocked_share: float = 0.1) -> pa.Table:
    rng = np.random.default_rng(seed)
    host_ids = rng.integers(0, n_hosts, n)
    delays = np.array([550, 1000, 3000, 6000])[rng.integers(0, 4, n_hosts)]
    return pa.table({
        "host": pa.array(["h%d.example" % h for h in host_ids]),
        "priority": pa.array(rng.integers(0, 100, n), pa.int32()),
        # far above the 25 bits the old packed order key allowed
        "seed_order": pa.array((1 << 40) + rng.permutation(n), pa.int64()),
        "crawl_delay_ms": pa.array(delays[host_ids], pa.int64()),
        "robots_blocked": pa.array(rng.random(n) < blocked_share),
    })


def _blocks(t: pa.Table, k: int):
    import ray.data as rd

    step = -(-t.num_rows // k)
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def test_crawl_order_wide_keys_connections_and_edge_inputs():
    """Cases the old packed order key could not hold or never saw:
    seed_order >= 2^25 and priority >= 4, parallel connections, more
    politeness buckets than hosts, and an all-blocked input."""
    from cdx_toolkit_ray.pipelines.frontier import (
        crawl_order,
        schedule_politeness,
        scheduled_crawl_order,
    )

    t = _synthetic_gated(3000, 40, seed=5)
    for salts in (1, 3):
        got = scheduled_crawl_order(_blocks(t, 5), num_salts=salts)
        assert_matches_reference(got.to_pandas(),
                                 reference_order(t, salts))
    got = crawl_order(schedule_politeness(_blocks(t, 5), connections=3))
    assert_matches_reference(got.to_pandas(),
                             reference_order(t, connections=3))

    # 3 hosts vs at least 8 buckets: most buckets are empty
    few = _synthetic_gated(500, 3, seed=6)
    got = scheduled_crawl_order(_blocks(few, 3)).to_pandas()
    assert_matches_reference(got, reference_order(few))

    # every row robots-blocked: politeness keeps them all at rank -1,
    # the crawl order is empty
    blocked = _synthetic_gated(400, 7, seed=7, blocked_share=1.0)
    flow = schedule_politeness(_blocks(blocked, 3)).to_pandas()
    assert len(flow) == 400
    assert (flow["host_rank"] == -1).all() and (flow["fetch_ms"] == -1).all()
    assert scheduled_crawl_order(_blocks(blocked, 3)).count() == 0


def test_robots_distributed_join_matches_broadcast(fixture_dir):
    """Path parity (the warcout join-parity pattern): the distributed
    host-keyed robots join returns row-identical flags/delays to the
    broadcast gate, and an over-budget robots table routes through it
    in frontier_flow."""
    import ray as _ray
    import ray.data as rd

    from cdx_toolkit_ray.canon import canonicalize_batch
    from cdx_toolkit_ray.pipelines.frontier import (
        frontier_flow,
        make_robots_gate,
        robots_gate_distributed,
    )
    from cdx_toolkit_ray.stages.dedup import first_wins_dedup

    def deduped():
        ds = rd.read_parquet(fixture_dir["seeds"])
        return first_wins_dedup(ds, "hash64",
                                [("priority", 19), ("seed_order", 44)],
                                derive_fn=canonicalize_batch)

    cols = ["url", "host", "robots_blocked", "crawl_delay_ms"]
    robots_ref = _ray.put(load_robots(fixture_dir["robots"]))
    bc = deduped().map_batches(make_robots_gate(robots_ref),
                               batch_size=None, batch_format="pyarrow") \
        .to_pandas()[cols].sort_values("url").reset_index(drop=True)
    dist = robots_gate_distributed(deduped(), fixture_dir["robots"]) \
        .to_pandas()[cols].sort_values("url").reset_index(drop=True)
    assert bc.equals(dist)
    # (gate firing itself is covered by the truth-table test below —
    # the fixture's seed set happens to stay clear of its disallows)

    # budget 0 forces every robots table over budget -> distributed path
    via_flow = frontier_flow(fixture_dir["seeds"], fixture_dir["robots"],
                             robots_budget_bytes=0).to_pandas()
    via_bc = frontier_flow(fixture_dir["seeds"],
                           fixture_dir["robots"]).to_pandas()
    key = ["url"]
    assert via_flow.sort_values(key).reset_index(drop=True)[
        ["url", "robots_blocked", "crawl_delay_ms", "host_rank",
         "fetch_ms"]].equals(
        via_bc.sort_values(key).reset_index(drop=True)[
            ["url", "robots_blocked", "crawl_delay_ms", "host_rank",
             "fetch_ms"]])


def test_robots_prefix_gate_vectorized_semantics():
    """Truth table for the vectorized disallow check: nested prefixes,
    query/fragment exclusion, empty path -> '/', hosts without rules."""
    from cdx_toolkit_ray.pipelines.frontier import make_robots_gate

    robots = {
        "a.example": (1000, ("/private", "/p",)),   # nested prefixes
        "b.example": (2000, ("/",)),                # blocks everything
        "c.example": (500, ()),                     # delay only
    }
    batch = pa.table({
        "url": pa.array([
            "https://a.example/private/x",   # blocked by /private
            "https://a.example/pq",          # blocked by /p
            "https://a.example/ok",          # not blocked
            "https://a.example/xx?y=/p",     # query ignored -> ok
            "https://b.example",             # empty path -> '/' blocked
            "https://c.example/anything",    # no prefixes
            "https://d.example/x",           # unknown host -> default
        ]),
        "host": pa.array(["a.example"] * 4 + ["b.example", "c.example",
                                              "d.example"]),
    })
    out = make_robots_gate(robots)(batch)
    assert out["robots_blocked"].to_pylist() == [
        True, True, False, False, True, False, False]
    assert out["crawl_delay_ms"].to_pylist() == [
        1000, 1000, 1000, 1000, 2000, 500, 3000]


def test_parse_robots_handles_noise_and_fractions():
    from cdx_toolkit_ray.pipelines.frontier import parse_robots_batch

    raw = pa.table({
        "host": pa.array(["a.example", "b.example", "c.example"],
                         pa.string()),
        "robots_txt": pa.array([
            "# comment\nUser-agent: *\nAllow: /\nCrawl-delay: 2\n"
            "Disallow: /z\nDisallow: /a\nSitemap: https://a/s.xml\n",
            "User-agent: *\nCrawl-delay: 0.55\n",
            "User-agent: *\n",          # no delay, no rules
        ], pa.string()),
    })
    got = parse_robots_batch(raw).to_pandas().set_index("host")
    assert got.loc["a.example", "crawl_delay_ms"] == 2000
    assert got.loc["a.example", "disallow_csv"] == "/a,/z"  # sorted
    assert got.loc["a.example", "n_rules"] == 2
    assert got.loc["b.example", "crawl_delay_ms"] == 550
    assert got.loc["b.example", "n_rules"] == 0
    assert got.loc["c.example", "crawl_delay_ms"] == 0
    assert got.loc["c.example", "disallow_csv"] == ""


def test_parse_robots_roundtrips_render():
    import pandas as pd

    from cdx_toolkit_ray.pipelines.frontier import (parse_robots_batch,
                                                    render_robots_txt)

    src = pa.table({
        "host": pa.array(["x.example", "y.example"], pa.string()),
        "crawl_delay_ms": pa.array([1234, 0], pa.int64()),
        "disallow": pa.array([["/p", "/q"], []],
                             pa.list_(pa.string())),
    })
    got = parse_robots_batch(render_robots_txt(src)).to_pandas() \
        .set_index("host")
    assert got.loc["x.example", "crawl_delay_ms"] == 1234
    assert got.loc["x.example", "disallow_csv"] == "/p,/q"
    assert got.loc["y.example", "crawl_delay_ms"] == 0
    assert got.loc["y.example", "n_rules"] == 0


def test_parallel_connections_slot_sharing(ray_session):
    import numpy as np
    import pandas as pd

    from cdx_toolkit_ray.pipelines.frontier import make_bucket_scheduler

    g = pd.DataFrame({
        "host": ["h"] * 10 + ["k"] * 4,
        "priority": [0] * 14,
        "seed_order": list(range(10)) + list(range(4)),
        "robots_blocked": [False] * 9 + [True] + [False] * 4,
        "crawl_delay_ms": [1000] * 10 + [500] * 4,
    })
    g = pa.Table.from_pandas(g)
    out = make_bucket_scheduler(connections=3)(g).to_pandas()
    h = out[out.host == "h"].sort_values("host_rank")
    # 9 eligible rows, K=3: slots 0,0,0,1000,1000,1000,2000,2000,2000
    got = h[h.host_rank >= 0]["fetch_ms"].tolist()
    assert got == [0, 0, 0, 1000, 1000, 1000, 2000, 2000, 2000]
    # blocked row stays -1; each slot time holds exactly K rows
    assert (h[h.host_rank < 0]["fetch_ms"] == -1).all()
    assert all(got.count(t) <= 3 for t in set(got))
    # per-connection interval: consecutive slots differ by the delay
    assert sorted(set(got)) == [0, 1000, 2000]
    k = out[out.host == "k"].sort_values("host_rank")
    assert k["fetch_ms"].tolist() == [0, 0, 0, 500]
    # K=1 is the classic scheduler
    one = make_bucket_scheduler()(g).to_pandas()
    oh = one[(one.host == "h") & (one.host_rank >= 0)]
    assert sorted(oh["fetch_ms"].tolist()) == \
        [i * 1000 for i in range(9)]


def serial_slots(rows, key, base=None, connections=1, num_salts=1):
    """The slot rule as a serial loop over plain dicts: per host, the
    eligible rows in ``key`` order get rank 0,1,... and ``fetch_ms =
    last + (rank // connections + 1) * delay``, ``last`` the host's
    carried slot or ``-delay``; blocked rows get (-1, -1). Returns
    ``(host_rank, fetch_ms, subqueue)`` per row."""
    base = base or {}
    out = [(-1, -1, -1)] * len(rows)
    hosts = {}
    for i, r in enumerate(rows):
        hosts.setdefault(r["host"], []).append(i)
    for h, idx in hosts.items():
        elig = sorted((i for i in idx if not rows[i]["robots_blocked"]),
                      key=lambda i: key(rows[i]))
        for rank, i in enumerate(elig):
            d = rows[i]["crawl_delay_ms"]
            last = base.get(h, -d)
            out[i] = (rank, last + (rank // connections + 1) * d,
                      rank % num_salts)
    return out


def test_bucket_scheduler_matches_serial_loop():
    """``make_bucket_scheduler`` — the one politeness kernel — against
    the serial slot loop, in each caller's mode:

    - frontier: (priority, seed_order) ranks, blocked rows,
      ``connections`` 1 and 3, ``num_salts`` 1 and 3;
    - crawl (``crawl._schedule_bucket``): url ranks, carried partials
      folded by (max slot, summed count), and a per-host cap that is
      met in the middle of some host's wave;
    - requeue (``fetch._requeue_bucket``): the base is the max
      ``fetch_ms`` over all of a host's rows, eligible or not."""
    from cdx_toolkit_ray.pipelines.crawl import _schedule_bucket
    from cdx_toolkit_ray.pipelines.fetch import _requeue_bucket

    by_prio = (lambda r: (r["priority"], r["seed_order"]))
    for seed in range(4):
        t = _synthetic_gated(600, 9, seed=seed, blocked_share=0.2)
        rows = t.to_pylist()
        for connections in (1, 3):
            for salts in (1, 3):
                got = make_bucket_scheduler(salts, connections)(t)
                want = serial_slots(rows, by_prio, None, connections,
                                    salts)
                assert got["host_rank"].to_pylist() == \
                    [w[0] for w in want]
                assert got["fetch_ms"].to_pylist() == [w[1] for w in want]
                if salts > 1:
                    assert got["subqueue"].to_pylist() == \
                        [w[2] for w in want]

    cap = 5
    mid_wave = 0
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        n, n_hosts = 120, 7
        host_ids = rng.integers(0, n_hosts, n)
        delays = np.array([300, 700, 1000])[rng.integers(0, 3, n_hosts)]
        wave = pa.table({
            # input order is not url order: ranking must sort
            "url": pa.array(["https://h%d.example/p/%d" % (h, k)
                             for h, k in zip(host_ids,
                                             rng.permutation(n))]),
            "hop": pa.array(np.full(n, 2, np.int64)),
            "host": pa.array(["h%d.example" % h for h in host_ids]),
            "robots_blocked": pa.array(rng.random(n) < 0.15),
            "crawl_delay_ms": pa.array(delays[host_ids], pa.int64()),
        })
        # two partials per carried host (two earlier scheduled blocks);
        # h0 has none: never fetched
        ph = [h for h in range(1, n_hosts) for _ in range(2)]
        carried = pa.table({
            "host": pa.array(["h%d.example" % h for h in ph]),
            "last_ms": pa.array(rng.integers(0, 9000, len(ph)), pa.int64()),
            "n_fetched": pa.array(rng.integers(0, 3, len(ph)), pa.int64()),
        })
        last, prior = {}, {}
        for r in carried.to_pylist():
            last[r["host"]] = max(last.get(r["host"], -1), r["last_ms"])
            prior[r["host"]] = prior.get(r["host"], 0) + r["n_fetched"]
        got = _schedule_bucket(cap, pa.concat_tables(
            [wave, carried], promote_options="permissive"))
        rows = wave.to_pylist()
        want = {}
        for r, (rank, ms, _) in zip(rows, serial_slots(
                rows, lambda r: r["url"], last)):
            if rank >= 0 and prior.get(r["host"], 0) + rank < cap:
                want[r["url"]] = (rank, ms)
        assert dict(zip(got["url"].to_pylist(),
                        zip(got["host_rank"].to_pylist(),
                            got["fetch_ms"].to_pylist()))) == want
        for h in set(r["host"] for r in rows):
            n_elig = sum(1 for r in rows
                         if r["host"] == h and not r["robots_blocked"])
            mid_wave += prior.get(h, 0) < cap < prior.get(h, 0) + n_elig
    assert mid_wave  # the cap cut some host's wave in the middle

    t = _synthetic_gated(500, 6, seed=9, blocked_share=0.0)
    rng = np.random.default_rng(9)
    t = t.append_column("host_rank", pa.array(np.zeros(500, np.int64))) \
        .append_column("fetch_ms", pa.array(rng.integers(0, 60000, 500),
                                            pa.int64())) \
        .append_column("fetch_action", pa.array(
            rng.choice(["ok", "exhausted", "invalid"], 500)))
    rows = t.to_pylist()
    base = {}
    for r in rows:
        base[r["host"]] = max(base.get(r["host"], -1), r["fetch_ms"])
    elig = [r for r in rows if r["fetch_action"] == "exhausted"]
    got = _requeue_bucket(("exhausted",), t)
    assert got.column_names == t.column_names + ["retry_wave"]
    want = serial_slots(elig, by_prio, base)
    assert got["seed_order"].to_pylist() == [r["seed_order"] for r in elig]
    assert got["fetch_ms"].to_pylist() == [w[1] for w in want]
    assert got["host_rank"].to_pylist() == [w[0] for w in want]
    assert set(got["retry_wave"].to_pylist()) == {2}


def _seed_layouts(tmp_path):
    """The routing seeds (robots rules fire on them) as one file and as
    a three-file directory of consecutive row ranges."""
    seeds, robots, _ = _routing_seeds(tmp_path)
    table = pq.read_table(seeds)
    parts = tmp_path / "seeds_dir"
    parts.mkdir()
    cut = [0, 300, 650, table.num_rows]
    for i in range(3):
        pq.write_table(table.slice(cut[i], cut[i + 1] - cut[i]),
                       str(parts / ("part-%d.parquet" % i)))
    return (seeds, str(parts)), robots


def _by_seed(ds, cols=None) -> pd.DataFrame:
    df = ds.to_pandas()
    cols = sorted(df.columns) if cols is None else cols
    return df[cols].sort_values("seed_order").reset_index(drop=True)


def test_frontier_flow_planned_read_matches_dataset_paths(tmp_path):
    """frontier_flow's footer-planned read (canonicalize and gate in
    the host round's split tasks) is row-identical to the Dataset read
    through frontier_flow_from, with the broadcast gate and with the
    distributed robots join, for one seeds file and a seeds directory;
    the crawl order is identical too."""
    import ray as _ray
    import ray.data as rd

    from cdx_toolkit_ray.pipelines.frontier import frontier_flow_from

    layouts, robots = _seed_layouts(tmp_path)
    robots_ref = _ray.put(load_robots(robots))
    for path in layouts:
        planned = frontier_flow(path, robots)
        got = _by_seed(planned)
        assert got["robots_blocked"].any() and (got["host_rank"] > 0).any()
        bc = _by_seed(frontier_flow_from(rd.read_parquet(path), robots_ref))
        assert got.equals(bc), path
        dist = _by_seed(frontier_flow_from(rd.read_parquet(path), robots),
                        list(got.columns))
        assert got.equals(dist), path
        order = crawl_order(planned).to_pandas()
        want = crawl_order(frontier_flow_from(
            rd.read_parquet(path), robots_ref)).to_pandas()
        assert order[sorted(order.columns)].equals(
            want[sorted(want.columns)]), path


def test_frontier_flow_under_budget_never_runs_read_parquet(tmp_path,
                                                            monkeypatch):
    """Under the exchange budget the seeds reach the host round by the
    planned read alone: ray.data.read_parquet is never called."""
    import ray.data as rd

    layouts, robots = _seed_layouts(tmp_path)
    want = [_by_seed(frontier_flow(p, robots)) for p in layouts]

    def boom(*a, **k):
        raise AssertionError("ray.data.read_parquet called")

    monkeypatch.setattr(rd, "read_parquet", boom)
    for path, w in zip(layouts, want):
        assert _by_seed(frontier_flow(path, robots)).equals(w), path


def _arrow(ds) -> pa.Table:
    import ray as _ray

    return pa.concat_tables(_ray.get(ds.to_arrow_refs())).combine_chunks()


def test_crawl_order_invariant_under_round_plan(tmp_path, monkeypatch):
    """The crawl order is byte-identical whether the round plan (read
    slices, host buckets, crawl-order ranges) is 1, 2 or 4, for one
    seeds file and for a seeds directory."""
    from cdx_toolkit_ray.stages import exchange

    layouts, robots = _seed_layouts(tmp_path)
    for path in layouts:
        orders = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(exchange, "_cluster_cpus",
                                lambda c=cpus: c)
            orders.append(_arrow(crawl_order(frontier_flow(path, robots))))
        assert orders[0].num_rows > 0
        assert orders[0].equals(orders[1]), path
        assert orders[0].equals(orders[2]), path


def test_frontier_flow_survives_a_seed_urlsplit_rejects(tmp_path):
    """A seed url that ``urlsplit`` rejects (a bad bracketed host) does
    not fail the host round: the flow completes, and every other row
    keeps its (host_rank, fetch_ms)."""
    seeds, robots, _ = _routing_seeds(tmp_path)
    table = pq.read_table(seeds)
    n = table.num_rows
    bad = pa.table({"url": ["http://[z]/a", "http://[::1/x"],
                    "priority": pa.array([0, 1], pa.int32()),
                    "seed_order": pa.array([n, n + 1], pa.int64())})
    with_bad = str(tmp_path / "seeds_bad.parquet")
    pq.write_table(pa.concat_tables([table.slice(0, 400), bad,
                                     table.slice(400)]), with_bad)
    cols = ["seed_order", "host_rank", "fetch_ms"]
    want = _by_seed(frontier_flow(seeds, robots), cols)
    flow = frontier_flow(with_bad, robots)
    got = _by_seed(flow, cols + ["urlkey"])
    assert got[got.seed_order < n][cols].reset_index(drop=True).equals(want)
    assert got[got.seed_order >= n]["urlkey"].isna().all()
    crawl_order(flow).take_all()


def test_broadcast_cache_keeps_the_most_recent_refs(monkeypatch):
    """A worker keeps the last BROADCAST_CACHE_REFS broadcasts it read:
    the ninth distinct ref evicts the least recently used one, and a
    hit reads the object store no second time."""
    import ray

    from cdx_toolkit_ray.pipelines import frontier

    monkeypatch.setattr(frontier, "_BROADCAST_CACHE", type(
        frontier._BROADCAST_CACHE)())
    refs = [ray.put({"n": i}) for i in range(9)]
    gets = []
    real_get = ray.get

    def counting_get(ref, *a, **kw):
        gets.append(ref.hex())
        return real_get(ref, *a, **kw)

    monkeypatch.setattr(frontier.ray, "get", counting_get)
    assert frontier.BROADCAST_CACHE_REFS == 8
    for i, ref in enumerate(refs[:8]):
        assert frontier._get_broadcast(ref) == {"n": i}
    assert frontier._get_broadcast(refs[0]) == {"n": 0}   # a hit
    assert len(gets) == 8
    assert frontier._get_broadcast(refs[8]) == {"n": 8}
    assert len(frontier._BROADCAST_CACHE) == 8
    # refs[1] was the least recently used: evicted; refs[0] was kept
    assert refs[1].hex() not in frontier._BROADCAST_CACHE
    assert frontier._get_broadcast(refs[0]) == {"n": 0}
    assert len(gets) == 9
