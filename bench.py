#!/usr/bin/env python
"""Headline benchmark for the cdx_toolkit_ray engine.

Runs the flagship frontier pipeline plus representative query-engine
and training-data operators over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) and prints ONE JSON line:

    {"metric": ..., "value": <total sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "frontier_urls": ..., "frontier_urls_per_sec": ...}

``--scaling`` runs ``jobs.py --bench``'s local pair over the headline
frontier input: the frontier job in fresh processes at N and 4N CPUs
(default 2 and 8; GRAFT_SCALE_LO/HI to override, same input), both
throughputs plus the N->4N scaling efficiency (sandbox stand-in for
N-node vs 4N-node clusters; pair choice rationale in BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

# must be exported BEFORE ray.init so every Ray worker inherits it:
# polars sizes its thread pool to the machine at import, and Ray Data's
# sort/groupby use polars inside 1-CPU workers (see cdx_toolkit_ray
# __init__ for the measured thrashing this prevents)
os.environ.setdefault("POLARS_MAX_THREADS", "1")
# This sandbox VM services first-touch page faults at ~8-30 MB/s
# (measured: 1 GiB fresh fill = 87 s; resident-page memcpy = 8 GB/s),
# so any page an allocator RETURNS is catastrophically expensive to
# get back. Keep glibc from munmap-ing large buffers between batches:
# serve big allocations from the retained arena and never trim it.
# Inherited by every Ray worker (children of this process).
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "-1")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# replicate the derived frontier input this many times (scaling runs
# use a fixed larger value so the job is compute-dominated)
REPLICATE = int(os.environ.get("GRAFT_REPLICATE", "1"))

_DELAYS = (550, 1000, 3000, 6000)


def prepare_seeds(sf_dir: str, replicate: int) -> str:
    """Materialize the frontier seeds table (input_hint shape: one URL
    per row + priority + unique seed_order; crawl delays come from the
    host table, :func:`_delay_map`) once per (sf, replicate),
    derived deterministically from lineitem. Cached under /tmp; NOT
    part of the timed pipeline (it is the benchmark's input table).

    Host distribution is skewed on purpose: ~20% of rows land on one
    hot host (l_partkey % 5 == 0) to exercise the skewed politeness
    group; the rest spread over ~997 hosts. ``seed_order`` is the
    global row number: it breaks first-wins dedup ties between rows of
    equal priority (the synthetic lineitem contains duplicate rows, so
    no other column combination is unique).
    """
    import hashlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    # the column list keys the cache: a table of another layout is stale
    tag = hashlib.sha1(("%s|%d|url,priority,seed_order"
                        % (sf_dir, replicate)).encode()).hexdigest()[:10]
    path = "/tmp/cdxray_bench_seeds_%s" % tag
    if os.path.exists(os.path.join(path, ".done")):
        return path

    t = pq.read_table("%s/lineitem.parquet" % sf_dir,
                      columns=["l_orderkey", "l_linenumber",
                               "l_suppkey", "l_partkey"])
    ok = t["l_orderkey"].to_numpy().astype(np.int64)
    ln = t["l_linenumber"].to_numpy().astype(np.int64)
    sk = t["l_suppkey"].to_numpy().astype(np.int64)
    pk = t["l_partkey"].to_numpy().astype(np.int64)
    n = len(ok)

    hostid = sk % 997
    hot = (pk % 5) == 0
    host = np.where(hot, "big-portal", np.char.add("supp", hostid.astype(str)))
    www = np.where(ok % 2 == 0, "www.", "")
    q = np.where(ln % 3 == 0, "?b=2&a=1", "")

    url = np.char.add(np.char.add("https://", www.astype(str)),
                      np.char.add(host.astype(str), ".example/o/"))
    url = np.char.add(url, ok.astype(str))
    url = np.char.add(url, "/")
    url = np.char.add(url, ln.astype(str))
    url = np.char.add(url, q.astype(str))

    # One file per ~150k rows: parallel read tasks from the first byte
    # (a single big file becomes ONE read task + SplitBlocks, which
    # serializes the fused read->map chain).
    os.makedirs(path, exist_ok=True)
    url_arr = pa.array(url.tolist(), pa.string())
    prio_arr = pa.array((ln % 4).astype(np.int32))
    rows_per_file = 150_000
    fno = 0
    for r in range(replicate):
        t = pa.table({
            "url": url_arr,
            "priority": prio_arr,
            "seed_order": pa.array(np.arange(n, dtype=np.int64) + r * n,
                                   pa.int64()),
        })
        for lo in range(0, n, rows_per_file):
            pq.write_table(t.slice(lo, rows_per_file),
                           os.path.join(path, "part-%05d.parquet" % fno),
                           row_group_size=65536)
            fno += 1
    open(os.path.join(path, ".done"), "w").close()
    return path


def derive_frontier_seeds(sf_dir: str, num_cpus: int):
    """Block size is a property of the DATA, not the CPU count: ~600k
    rows per block. Sizing blocks as rows/num_cpus gave 2.4M-row blocks
    at 2 CPUs whose per-task peak memory blew past the allocator's
    happy zone (85s vs 25s of compute); one block per 150k-row file
    tripled shuffle/merge task overhead. The floor of 2 blocks/CPU
    keeps every worker busy when the input is small."""
    import glob

    import ray.data

    path = prepare_seeds(sf_dir, REPLICATE)
    nfiles = len(glob.glob(os.path.join(path, "*.parquet")))
    nblocks = max(num_cpus * 2, (nfiles * 150_000) // 600_000, 1)
    # crawl_delay_ms is a pure function of host and attaches from a
    # broadcast host table (frontier_chain)
    return ray.data.read_parquet(path, override_num_blocks=nblocks,
                                 columns=["url", "priority", "seed_order"])


def _delay_map() -> dict:
    """host -> crawl_delay_ms (the robots-table stand-in the real
    frontier broadcasts; same values prepare_seeds derives per row)."""
    m = {"big-portal.example": 550, "www.big-portal.example": 550}
    for i in range(997):
        d = _DELAYS[i % 4]
        m["supp%d.example" % i] = d
        m["www.supp%d.example" % i] = d
    return m


def consume(ds) -> int:
    """Execute the full pipeline, moving only per-block row counts to
    the driver (a real job would write_parquet; pulling every block to
    the driver would measure the driver's NIC, not the engine).
    Queries that already return a driver-side DataFrame/Table (the
    record/replay and live-HTTP entries materialize before their
    loopback fixtures shut down) just report their length."""
    import pyarrow as pa

    if not hasattr(ds, "map_batches"):
        return ds.num_rows if isinstance(ds, pa.Table) else len(ds)

    def count_block(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    n = 0
    counted = ds.map_batches(count_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    for b in counted.iter_batches(batch_format="pyarrow", batch_size=None):
        n += int(b["n"].to_numpy().sum())
    return n


def warmup(sf_dir: str, num_cpus: int) -> None:
    """Untimed: spawn the FULL worker pool and warm the shuffle path so
    the timed run measures steady-state engine throughput, not process
    fork + import latency. ``limit(N)`` collapses to one read task, so
    a wide synthetic range dataset (2 blocks per CPU) is what actually
    fans tasks out to every worker; each task imports the hot-path
    modules (our package -> polars, pandas for map_groups)."""
    import ray.data

    def touch(batch):
        import pandas  # noqa: F401

        from cdx_toolkit_ray.canon import canonicalize_batch  # noqa: F401
        import polars  # noqa: F401

        return batch

    wide = ray.data.range(num_cpus * 2000,
                          override_num_blocks=num_cpus * 2)
    wide.map_batches(touch, batch_size=None).materialize()

    # run the timed chain once on a 20k-row prefix: the read and the
    # host (with its prepare) and range exchange rounds (cold closure
    # serialization + worker imports cost ~1-2s the first time a
    # raw-task path runs — steady-state jobs never pay it per run)
    consume(frontier_chain(
        derive_frontier_seeds(sf_dir, num_cpus).limit(20000)))


def frontier_chain(ds):
    """Seeds -> ``dedup_schedule`` (one host round: its split tasks
    canonicalize, drop the raw url and attach the crawl-delay and robots
    flags; its merges run first-wins dedup + politeness) ->
    ``crawl_order``: the chain ``frontier_flow_from`` runs, with the
    broadcast host-delay table standing in for the robots gate."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray as _ray

    from cdx_toolkit_ray.canon import canonicalize_batch
    from cdx_toolkit_ray.pipelines.frontier import (
        _get_broadcast,
        crawl_order,
        dedup_schedule,
    )

    delay_ref = _ray.put(_delay_map())

    def prepare(batch: pa.Table) -> pa.Table:
        # identity travels as urlkey downstream, so the raw url bytes
        # go (prunes ~half the canonicalized row width); the crawl
        # delay is one lookup per distinct host per batch
        batch = canonicalize_batch(batch).drop_columns(["url"])
        m = _get_broadcast(delay_ref)
        hosts = batch["host"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(hosts)
        vals = np.array([m.get(h, 3000) for h in uniq], np.int64)
        batch = batch.append_column(
            "crawl_delay_ms", pa.array(vals[codes], pa.int64()))
        return batch.append_column(
            "robots_blocked", pa.array(np.zeros(batch.num_rows, bool)))

    ds = crawl_order(dedup_schedule(ds, prepare=prepare))
    return ds.select_columns(["urlkey", "host", "host_rank", "fetch_ms"])


def run_frontier(sf_dir: str, num_cpus: int) -> int:
    """Derived seeds -> :func:`frontier_chain` (the north_rule
    flagship); returns the scheduled row count."""
    return consume(frontier_chain(derive_frontier_seeds(sf_dir, num_cpus)))


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from cdx_toolkit_ray import queries as Q

    headline_only = "--headline-only" in sys.argv

    warmup(SF_DIR, NUM_CPUS)

    results: dict[str, float] = {}
    # Cold + warm frontier run; the headline is the warm (steady-state)
    # figure, the cold one is recorded alongside. Rationale: this
    # sandbox VM faults never-resident pages at ~8-30 MB/s (BASELINE.md
    # "Sandbox memory-fault tax"), so the first full-size run of a
    # fresh Ray session pays a multi-second page-fault tax proportional
    # to bytes touched and INDEPENDENT of CPU count. A long-lived
    # cluster pays it once per deploy, not once per job — the warm run
    # is the number that transfers. GRAFT_COLD_ONLY=1 skips the warm
    # run (used by tests / quick smoke).
    t0 = time.time()
    n_urls = run_frontier(SF_DIR, NUM_CPUS)
    frontier_cold = time.time() - t0
    results["frontier_cold"] = round(frontier_cold, 3)
    if os.environ.get("GRAFT_COLD_ONLY"):
        frontier_sec = frontier_cold
    else:
        t0 = time.time()
        n_urls = run_frontier(SF_DIR, NUM_CPUS)
        frontier_sec = time.time() - t0
    results["frontier"] = round(frontier_sec, 3)

    if not headline_only:
        others = [
            ("groupby_agg", lambda: Q.q_groupby_agg(SF_DIR).to_pandas()),
            ("time_window", lambda: consume(Q.q_time_window(SF_DIR))),
            ("closest", lambda: consume(Q.q_closest(SF_DIR))),
            ("exact_dedup", lambda: consume(Q.q_exact_dedup(SF_DIR))),
            ("token_stats", lambda: consume(Q.q_token_stats(SF_DIR))),
            ("lang_id", lambda: consume(Q.q_lang_id(SF_DIR))),
            ("minmax_norm", lambda: consume(Q.q_minmax_norm(SF_DIR))),
            ("gopher_gate", lambda: consume(Q.q_gopher_gate(SF_DIR))),
            ("parse_robots",
             lambda: consume(Q.q_parse_robots(SF_DIR))),
            ("ann_topk", lambda: consume(Q.q_ann_topk(SF_DIR))),
            ("ann_int8", lambda: consume(Q.q_ann_int8(SF_DIR))),
            ("ann_ivf_merge",
             lambda: consume(Q.q_ann_ivf_merge(SF_DIR))),
            ("minhash_pairs", lambda: consume(Q.q_minhash_pairs(SF_DIR))),
            # returns a materialized Arrow table (one metrics row) —
            # the call itself is the work, nothing to consume
            ("lsh_eval", lambda: Q.q_lsh_eval(SF_DIR)),
            ("window_agg", lambda: consume(Q.q_window_agg(SF_DIR))),
            ("event_spikes",
             lambda: consume(Q.q_event_spikes(SF_DIR))),
            ("json_props", lambda: consume(Q.q_json_props(SF_DIR))),
            ("asof_join", lambda: consume(Q.q_asof_join(SF_DIR))),
            ("range_join", lambda: consume(Q.q_range_join(SF_DIR))),
            ("captures_query", lambda: consume(Q.q_captures_query(SF_DIR))),
            ("content_extract",
             lambda: consume(Q.q_content_extract(SF_DIR))),
            ("corpus_clean", lambda: consume(Q.q_corpus_clean(SF_DIR))),
            ("training_prep",
             lambda: consume(Q.q_training_prep(SF_DIR))),
            ("tfidf_topk", lambda: consume(Q.q_tfidf_topk(SF_DIR))),
            ("vocab_coverage",
             lambda: consume(Q.q_vocab_coverage(SF_DIR))),
            ("lm_score", lambda: consume(Q.q_lm_score(SF_DIR))),
            ("kmeans", lambda: consume(Q.q_kmeans(SF_DIR))),
            ("repeated_spans",
             lambda: consume(Q.q_repeated_spans(SF_DIR))),
            ("cut_spans", lambda: consume(Q.q_cut_spans(SF_DIR))),
            ("sessionize", lambda: consume(Q.q_sessionize(SF_DIR))),
            ("top_revenue", lambda: consume(Q.q_top_revenue(SF_DIR))),
            ("extract_links",
             lambda: consume(Q.q_extract_links(SF_DIR))),
            ("anchor_stats",
             lambda: consume(Q.q_anchor_stats(SF_DIR))),
            ("hll_distinct",
             lambda: consume(Q.q_hll_distinct(SF_DIR))),
            ("hll_incremental",
             lambda: consume(Q.q_hll_incremental(SF_DIR))),
            ("ranked_frontier",
             lambda: consume(Q.q_ranked_frontier(SF_DIR))),
            ("strip_tags", lambda: consume(Q.q_strip_tags(SF_DIR))),
            ("page_metadata",
             lambda: consume(Q.q_page_metadata(SF_DIR))),
            ("index_merge", lambda: consume(Q.q_index_merge(SF_DIR))),
            ("link_rank", lambda: consume(Q.q_link_rank(SF_DIR))),
            ("crawl_bfs", lambda: consume(Q.q_crawl_bfs(SF_DIR))),
            ("crawl_delta", lambda: consume(Q.q_crawl_delta(SF_DIR))),
            ("link_delta", lambda: consume(Q.q_link_delta(SF_DIR))),
            ("compact_captures",
             lambda: consume(Q.q_compact_captures(SF_DIR))),
            ("crawl_report",
             lambda: consume(Q.q_crawl_report(SF_DIR))),
            ("bmp_decode", lambda: consume(Q.q_bmp_decode(SF_DIR))),
            ("media_sniff", lambda: consume(Q.q_media_sniff(SF_DIR))),
            # round 3: the executed fetch loop (schedule -> fetcher
            # actor pool -> content/dead-letter)
            ("fetch_execute",
             lambda: consume(Q.q_fetch_execute(SF_DIR))),
            # round 3: the integrated crawl loop (fetch-outcome-gated
            # BFS — outlinks come only from fetched ok text)
            ("crawl_waves",
             lambda: consume(Q.q_crawl_waves(SF_DIR))),
            # round 3 second half: training-data curation family
            ("dedup_lines", lambda: consume(Q.q_dedup_lines(SF_DIR))),
            ("dsir_select", lambda: consume(Q.q_dsir_select(SF_DIR))),
            ("host_curation",
             lambda: consume(Q.q_host_curation(SF_DIR))),
            ("budget_mixture",
             lambda: consume(Q.q_budget_mixture(SF_DIR))),
            # round 3: cuckoo-backed seen set with recrawl eviction
            ("url_seen_evict",
             lambda: consume(Q.q_url_seen_evict(SF_DIR))),
            # round 3: the flagship curation composite (host blocklist
            # -> line dedup -> gate -> budget mixture in one chain)
            ("corpus_pipeline",
             lambda: consume(Q.q_corpus_pipeline(SF_DIR))),
            # round 3 continuation: sitemap roundtrip (host-bucket XML
            # assembly + vectorized urlset parse)
            ("sitemap_parse",
             lambda: consume(Q.q_sitemap_parse(SF_DIR))),
            # round 3 continuation: iterated pointer-doubling joins
            ("resolve_redirects",
             lambda: consume(Q.q_resolve_redirects(SF_DIR))),
            # round 3 continuation: canonical alias folding exchange
            ("canonical_dedup",
             lambda: consume(Q.q_canonical_dedup(SF_DIR))),
            # round 3 continuation: the five-stage hygiene composite
            ("frontier_hygiene",
             lambda: consume(Q.q_frontier_hygiene(SF_DIR))),
            # round 3 continuation: PQ asymmetric-distance search
            ("pq_search",
             lambda: consume(Q.q_pq_search(SF_DIR))),
            # round 3 continuation: content-defined chunking + shared-
            # chunk exchange (windowed gear hash over the flat buffer)
            ("cdc_shared",
             lambda: consume(Q.q_cdc_shared(SF_DIR))),
            # round 3 session 3: HITS hubs/authorities (two bucket-
            # cached edge copies, max-normalized integer iterations)
            ("link_hits", lambda: consume(Q.q_link_hits(SF_DIR))),
            # round 3 session 3: zipnum cluster build + pruned lookup
            ("zipnum_lookup",
             lambda: consume(Q.q_zipnum_lookup(SF_DIR))),
            # round 3 session 3: asymmetric n-gram containment pairs
            ("containment", lambda: consume(Q.q_containment(SF_DIR))),
            # round 3 session 3: held-out bigram LM + stupid backoff
            ("bigram_lm", lambda: consume(Q.q_bigram_lm(SF_DIR))),
            # round 3 session 3: RFC 9111 freshness plan
            ("cache_freshness",
             lambda: consume(Q.q_cache_freshness(SF_DIR))),
            # round 3 session 3: co-citation pair mining
            ("cocitation", lambda: consume(Q.q_cocitation(SF_DIR))),
            # round 3 session 4: seed-personalized PageRank
            ("trustrank", lambda: consume(Q.q_trustrank(SF_DIR))),
            # round 3 session 4: OPIC on-line importance
            ("opic", lambda: consume(Q.q_opic(SF_DIR))),
            # round 3 session 4: k-core peel rounds
            ("kcore", lambda: consume(Q.q_kcore(SF_DIR))),
            # round 3 session 4: DUST safe-param mining
            ("dust_params", lambda: consume(Q.q_dust_params(SF_DIR))),
            # round 3 session 4: cross-crawl shingle novelty
            ("shingle_novelty",
             lambda: consume(Q.q_shingle_novelty(SF_DIR))),
            # round 3 session 4: RAKE per-doc keywords
            ("rake_keywords",
             lambda: consume(Q.q_rake_keywords(SF_DIR))),
            # round 3 session 4: AIMD politeness replay
            ("aimd_throttle",
             lambda: consume(Q.q_aimd_throttle(SF_DIR))),
            # round 3 session 4: URL template profiling
            ("url_templates",
             lambda: consume(Q.q_url_templates(SF_DIR))),
            # round 3 session 4: host term-profile pair mining
            ("host_similarity",
             lambda: consume(Q.q_host_similarity(SF_DIR))),
            # round 3 session 4: WARC digest-dedup rewrite
            ("revisit_rewrite",
             lambda: consume(Q.q_revisit_rewrite(SF_DIR))),
            # round 3 session 4: writer segment planning
            ("segment_plan",
             lambda: consume(Q.q_segment_plan(SF_DIR))),
            # round 3 session 5: SimHash Hamming near-dup pairs
            ("simhash_pairs",
             lambda: consume(Q.q_simhash_pairs(SF_DIR))),
            # round 3 session 5: exact radius-3 harmonic centrality
            ("harmonic_centrality",
             lambda: consume(Q.q_harmonic_centrality(SF_DIR))),
            # round 3 session 5: HyperBall register passing (scale path)
            ("hyperball", lambda: consume(Q.q_hyperball(SF_DIR))),
            # round 3 session 5: FB-min-label SCC + bow-tie
            ("scc", lambda: consume(Q.q_scc(SF_DIR))),
            ("bowtie", lambda: consume(Q.q_bowtie(SF_DIR))),
            # round 3 session 5: spam mass (PR vs TrustRank) composite
            ("spam_mass", lambda: consume(Q.q_spam_mass(SF_DIR))),
            # round 3 session 5: exact-integer IR ranking duo
            ("bm25", lambda: consume(Q.q_bm25(SF_DIR))),
            ("dirichlet_ql",
             lambda: consume(Q.q_dirichlet_ql(SF_DIR))),
            # round 3 session 5: greedy max-cover seed selection
            ("seed_cover", lambda: consume(Q.q_seed_cover(SF_DIR))),
            # round 3 session 5: shared-path mirror detection
            ("mirror_hosts",
             lambda: consume(Q.q_mirror_hosts(SF_DIR))),
            # round 3 session 5: JS-divergence drift monitor
            ("vocab_drift",
             lambda: consume(Q.q_vocab_drift(SF_DIR))),
            # round 3 session 5: JL sketch + centroid outliers
            ("signed_projection",
             lambda: consume(Q.q_signed_projection(SF_DIR))),
            ("embedding_outliers",
             lambda: consume(Q.q_embedding_outliers(SF_DIR))),
            # round 3 session 5: sqrt-share mixture
            ("temperature_mixture",
             lambda: consume(Q.q_temperature_mixture(SF_DIR))),
            # round-4 additions: index-backed ranking (pruned wb= +
            # doclen reads, stats from meta.json) and the live-HTTP /
            # cassette-replay fetch paths
            ("bm25_indexed",
             lambda: consume(Q.q_bm25_indexed(SF_DIR))),
            ("ql_indexed", lambda: consume(Q.q_ql_indexed(SF_DIR))),
            ("fetch_http", lambda: consume(Q.q_fetch_http(SF_DIR))),
            ("fetch_replay",
             lambda: consume(Q.q_fetch_replay(SF_DIR))),
            # round-5 additions: distributed WARC sidecar renderers
            # (real bytes through write_*_distributed), the
            # de-drivered triangle counter, and the two real image
            # codecs end-to-end
            ("wet_export", lambda: consume(Q.q_wet_export(SF_DIR))),
            ("wat_export", lambda: consume(Q.q_wat_export(SF_DIR))),
            ("triangles", lambda: consume(Q.q_triangles(SF_DIR))),
            ("png_roundtrip",
             lambda: consume(Q.q_png_roundtrip(SF_DIR))),
            ("jpeg_roundtrip",
             lambda: consume(Q.q_jpeg_roundtrip(SF_DIR))),
            ("jpeg_progressive",
             lambda: consume(Q.q_jpeg_progressive(SF_DIR))),
            ("gif_frames",
             lambda: consume(Q.q_gif_frames(SF_DIR))),
        ]
        # best-of-N per query (default 2): the sandbox host alternates
        # fast/slow windows shorter than one full bench pass, and the
        # interference is strictly additive (a slow window only ever
        # inflates a run) — the per-query minimum is the engine's time,
        # same estimator the --scaling path uses (BASELINE.md).
        repeat = max(1, int(os.environ.get("GRAFT_BENCH_REPEAT", "2")))
        for name, fn in others:
            best = None
            for _ in range(repeat):
                t = time.time()
                fn()
                dt = time.time() - t
                best = dt if best is None else min(best, dt)
            results[name] = round(best, 3)

    total = round(sum(v for k, v in results.items()
                      if k != "frontier_cold"), 3)
    out = {
        "metric": "cdx_toolkit_ray headline pipelines wall time",
        "value": total,
        "unit": "sec",
        "queries": results,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "frontier_urls": n_urls,
        "frontier_urls_per_sec": round(n_urls / frontier_sec, 1),
    }
    print(json.dumps(out))
    ray.shutdown()


def prepare_robots(seeds_path: str) -> str:
    """The robots table of :func:`prepare_seeds`' hosts: :func:`_delay_map`
    as (host, crawl_delay_ms, disallow) rows, no disallow rules; written
    once beside the seeds directory."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = seeds_path + "_robots.parquet"
    if not os.path.exists(path):
        m = _delay_map()
        pq.write_table(pa.table({
            "host": pa.array(list(m), pa.string()),
            "crawl_delay_ms": pa.array(list(m.values()), pa.int64()),
            "disallow": pa.array([[]] * len(m), pa.list_(pa.string())),
        }), path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def scaling() -> None:
    """Same frontier job at N and 4N CPUs in fresh processes (sandbox
    stand-in for N- vs 4N-node clusters): ``jobs.py --bench``'s local
    pair over :func:`prepare_seeds` (GRAFT_REPLICATE, default 32) and
    :func:`prepare_robots`. That pair interleaves the lo/hi legs over
    GRAFT_SCALE_ATTEMPTS attempts (default 5), reports the best-based
    and the median-based efficiency and the host's cores, and refuses
    a leg wider than the host.

    Default pair is 2 -> 8 (GRAFT_SCALE_LO/HI): on a real cluster every
    added NODE brings its own memory bandwidth, but on one box the
    string/shuffle workload saturates the socket's bandwidth around
    ~8-16 cores (see BASELINE.md), so 2->8 is the pair whose per-worker
    bandwidth matches the multi-node setting.
    """
    import tempfile

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    # the legs run ``python -m cdx_toolkit_ray.jobs`` from any cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (here, os.environ.get("PYTHONPATH")) if p)
    from cdx_toolkit_ray import jobs

    # build the input before any timed run
    seeds = prepare_seeds(SF_DIR, int(os.environ.get("GRAFT_REPLICATE",
                                                     "32")))
    with tempfile.TemporaryDirectory() as out:
        sys.exit(jobs.main(["--bench", "--seeds", seeds,
                            "--robots", prepare_robots(seeds),
                            "--out", out]))


def seen_bench() -> None:
    """Drive ~10M offers through the sharded URL-seen actor pool
    (state/seen.py): a map_batches stage routes each block's hashes to
    the shards with one batched actor call per (shard, block). Reports
    offers/sec so rounds can judge whether the blocking ray.get per
    batch needs pipelining. GRAFT_SEEN_ROWS / GRAFT_SEEN_SHARDS to
    override; ~20% of offers are duplicates."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    ray.init(address="local", num_cpus=NUM_CPUS,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from cdx_toolkit_ray.stages.dedup import _mix64
    from cdx_toolkit_ray.state.seen import SeenFilterStage, ShardedSeenSet

    n = int(os.environ.get("GRAFT_SEEN_ROWS", "10000000"))
    shards = int(os.environ.get("GRAFT_SEEN_SHARDS", "8"))
    seen = ShardedSeenSet(num_shards=shards, n_bits=1 << 27)

    def to_hash(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy()
        dup = ids.astype(np.uint64) % np.uint64(max(int(n * 0.8), 1))
        return pa.table({"hash64": pa.array(_mix64(dup), pa.uint64())})

    ds = ray.data.range(n, override_num_blocks=max(NUM_CPUS * 4, 32))
    ds = ds.map_batches(to_hash, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(SeenFilterStage(seen), batch_format="pyarrow",
                        batch_size=None)
    t0 = time.time()
    kept = consume(ds)
    dt = time.time() - t0
    print(json.dumps({
        "metric": "url_seen offers/sec (%d shards)" % shards,
        "value": round(n / dt, 1),
        "unit": "offers/sec",
        "offers": n,
        "accepted": kept,
        "sec": round(dt, 3),
        "num_cpus": NUM_CPUS,
    }))
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--seen-bench" in sys.argv:
        seen_bench()
    else:
        main()
