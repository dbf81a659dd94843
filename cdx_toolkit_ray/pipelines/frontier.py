"""The frontier + fetch-scheduler pipeline (the engine's flagship).

north_rule: seeds flow through a streaming Dataset pipeline —
``map_batches`` SURT canonicalization + hash64, exact first-wins dedup,
robots filtering, then per-host politeness scheduling under a
DETERMINISTIC VIRTUAL CLOCK, emitting the global crawl order plus
per-host counters (fetched / deduped / deferred-for-politeness).

Reference politeness semantics being generalized: one fetch per host
per ``minimum_interval`` enforced by a per-host next-slot clock
(cocrawler/cdx_toolkit cdx_toolkit/myrequests.py:23-78; intervals
0.55/1.0/3.0/6.0 s). Here the clock is virtual — fetch slot ``r`` of a
host with crawl-delay ``d`` ms happens at ``r*d`` ms — which makes the
whole schedule a pure function of (seed list, robots table): exactly
reproducible by a serial oracle, independent of execution parallelism.

Dataflow (streaming up to the politeness exchange, then two direct
task-graph exchanges, stages/exchange.py):

  read seeds ->
  first_wins_dedup(derive_fn=canonicalize_batch)
                                        # urlkey, hash64, host; exact
                                        # dedup, winner = min (priority,
                                        # seed_order); emits
                                        # n_dup_dropped per winner
  map_batches(robots gate)              # broadcast robots table via
                                        # ray.put; flags, never drops
  hash_bucket_apply(hash64(host) % B)   # politeness: host_rank,
                                        # fetch_ms = rank * delay
                                        # (frontier_flow ends here)
  range_order(fetch_ms, priority, seed_order)
                                        # global crawl order
                                        # (crawl_order)

Skew: a hot host lands in one politeness bucket; the bucket kernel is a
vectorized lexsort (millions of rows/s), so the straggler cost is
sort-bound, not Python-bound. For extreme skew ``num_salts > 1``
splits each hot host into sub-queues by round-robin POSITION (not
hash), preserving both the exact slot times and the per-host politeness
budget: sub-queue ``j`` fetches at ``(j + i*S)*d`` — all distinct
multiples of ``d``, at most one fetch per interval per host.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute  # noqa: F401 (pa.compute used in counters)
import pyarrow.parquet as pq
import ray
import ray.data

from ..canon import canonicalize_batch

# reference default politeness interval for unknown hosts
# (cdx_toolkit/myrequests.py:24-27: 3.0 s)
DEFAULT_DELAY_MS = 3000


def load_robots(robots_path: str) -> dict:
    """robots table -> {host: (crawl_delay_ms, tuple(disallow prefixes))}."""
    t = pq.read_table(robots_path)
    out = {}
    for host, delay, dis in zip(t["host"].to_pylist(),
                                t["crawl_delay_ms"].to_pylist(),
                                t["disallow"].to_pylist()):
        out[host] = (int(delay), tuple(dis or ()))
    return out


# Per-worker broadcast cache: stateless task workers persist across
# batches, so each worker pays ONE plasma ray.get per object ref (the
# broadcast-small-side pattern without reserving CPUs in an actor pool,
# which can starve the shuffle stages on small clusters).
_BROADCAST_CACHE: dict = {}


def _get_broadcast(ref):
    if isinstance(ref, dict):
        return ref
    key = ref.hex()
    if key not in _BROADCAST_CACHE:
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def _prefix_index(robots: dict) -> dict:
    """Disallow prefixes grouped by LENGTH as ``host\\0prefix`` key
    sets: ``path`` is blocked iff ``host\\0path[:L]`` is a member for
    some declared length L (startswith == truncate-and-compare, one
    vectorized membership pass per distinct prefix length)."""
    by_len: dict = {}
    for host, (_, prefixes) in robots.items():
        for p in prefixes:
            if p:
                by_len.setdefault(len(p), set()).add(host + "\0" + p)
    return by_len


def _robots_columns(batch: pa.Table, robots: dict, by_len: dict,
                    default_delay_ms: int):
    """The gate kernel shared by the broadcast and distributed paths:
    (robots_blocked bool, crawl_delay_ms int64) per row, vectorized.

    Path extraction parity with ``urlsplit(url).path or '/'`` for
    scheme://host urls: everything after the authority up to ``?``/
    ``#`` (polars regex), empty -> '/'.
    """
    import polars as pl

    hosts = batch["host"].to_numpy(zero_copy_only=False)
    n = len(hosts)
    codes, uniq = pd.factorize(hosts)
    entries = [robots.get(h) for h in uniq]
    delay_u = np.array([e[0] if e is not None else default_delay_ms
                        for e in entries], np.int64)
    delays = delay_u[codes]
    blocked = np.zeros(n, dtype=bool)
    has_prefix = np.array([bool(e and e[1]) for e in entries])
    cand = np.flatnonzero(has_prefix[codes]) if has_prefix.any() else None
    if cand is not None and cand.size and by_len:
        urls = batch["url"].to_numpy(zero_copy_only=False)[cand]
        df = pl.DataFrame({
            "host": pl.Series(hosts[cand].astype(str)),
            "path": pl.Series(urls.astype(str)).str.extract(
                r"^[a-zA-Z][a-zA-Z0-9+.\-]*://[^/?#]*([^?#]*)", 1),
        }).with_columns(
            pl.when(pl.col("path").is_null() | (pl.col("path") == ""))
            .then(pl.lit("/")).otherwise(pl.col("path")).alias("path"))
        blk = np.zeros(cand.size, dtype=bool)
        key = df["host"] + "\0" + df["path"]
        for ln, keys in by_len.items():
            trunc = df["host"] + "\0" + df["path"].str.slice(0, ln)
            blk |= trunc.is_in(list(keys)).to_numpy()
            del trunc
        del key
        blocked[cand] = blk
    return blocked, delays


def make_robots_gate(robots_ref, default_delay_ms: int = DEFAULT_DELAY_MS):
    """map_batches fn: flag robots-disallowed rows (broadcast path).

    The robots table is broadcast once (``ray.put`` on the driver, one
    cached ``ray.get`` per worker) — a lookup join with no shuffle
    (SURVEY.md §2.4 J-pattern). Adds ``robots_blocked:bool`` and
    ``crawl_delay_ms:int64``; never drops rows (counters need them).
    The disallow-prefix check is fully vectorized (one polars membership
    pass per distinct prefix length — a hot host with prefixes costs a
    string gather, not a Python loop).
    """
    _derived: dict = {}

    def robots_gate(batch: pa.Table) -> pa.Table:
        robots = _get_broadcast(robots_ref)
        key = id(robots)
        if key not in _derived:
            _derived.clear()
            _derived[key] = _prefix_index(robots)
        blocked, delays = _robots_columns(batch, robots, _derived[key],
                                          default_delay_ms)
        batch = batch.append_column("robots_blocked", pa.array(blocked))
        batch = batch.append_column("crawl_delay_ms",
                                    pa.array(delays, pa.int64()))
        return batch

    return robots_gate


def robots_gate_distributed(ds: ray.data.Dataset, robots_path: str, *,
                            default_delay_ms: int = DEFAULT_DELAY_MS,
                            num_partitions: int | None = None
                            ) -> ray.data.Dataset:
    """The scale path for an over-budget robots table: a distributed
    LEFT OUTER hash join on ``host`` (both sides move once, nothing on
    the driver) followed by the same vectorized gate kernel over each
    joined batch. Semantically identical to the broadcast gate — the
    join delivers each row its own host's (delay, prefixes), and the
    kernel builds its per-batch prefix index from exactly those."""
    from ..stages.dedup import default_join_partitions

    if num_partitions is None:
        num_partitions = default_join_partitions()
    robots = ray.data.read_parquet(
        robots_path, columns=["host", "crawl_delay_ms", "disallow"])

    def pack(batch: pa.Table) -> pa.Table:
        # Arrow's hash join carries flat payloads only: pack the
        # disallow LIST into one \x00-joined string (prefixes are url
        # paths, never NUL), unpacked in the gate kernel
        import pyarrow.compute as pc

        packed = pc.binary_join(batch["disallow"], "\x00")
        return pa.table({
            "host": batch["host"],
            "_r_delay": batch["crawl_delay_ms"].cast(pa.int64()),
            "_r_disallow": packed,
        })

    robots = robots.map_batches(pack, batch_format="pyarrow",
                                batch_size=None)
    joined = ds.join(robots, "left_outer", num_partitions, on=("host",))

    def gate(batch: pa.Table) -> pa.Table:
        hosts = batch["host"].to_numpy(zero_copy_only=False)
        dl = batch["_r_delay"].to_numpy(zero_copy_only=False)
        dis = batch["_r_disallow"].to_pylist()
        # per-batch robots dict: one entry per DISTINCT host (join is
        # 1:1 per host, so any row of the host carries its rule)
        codes, uniq = pd.factorize(hosts)
        first_idx = np.zeros(len(uniq), dtype=np.int64)
        first_idx[codes[::-1]] = np.arange(len(hosts) - 1, -1, -1)
        robots_b: dict = {}
        for j, h in enumerate(uniq):
            i = first_idx[j]
            v = dl[i]
            if v is not None and not (isinstance(v, float) and np.isnan(v)):
                prefixes = tuple(p for p in (dis[i] or "").split("\x00")
                                 if p)
                robots_b[h] = (int(v), prefixes)
        blocked, delays = _robots_columns(
            batch, robots_b, _prefix_index(robots_b), default_delay_ms)
        batch = batch.drop_columns(["_r_delay", "_r_disallow"])
        batch = batch.append_column("robots_blocked", pa.array(blocked))
        batch = batch.append_column("crawl_delay_ms",
                                    pa.array(delays, pa.int64()))
        return batch

    return joined.map_batches(gate, batch_format="pyarrow")


def make_bucket_scheduler(num_salts: int = 1,
                          connections: int = 1):
    """Politeness kernel for ONE host-hash bucket: assign fetch slots
    under the virtual clock to every host of the bucket in one numpy
    pass (one lexsort + run-length rank arithmetic).

    Within a host: eligible rows (not robots-blocked) ordered by
    (priority asc, seed_order asc) get ``host_rank`` 0,1,2,... and
    ``fetch_ms = host_rank * crawl_delay_ms``. Blocked rows keep
    ``host_rank=-1, fetch_ms=-1``. With ``num_salts=S>1`` the rank
    order is unchanged — only the downstream physical partitioning
    uses the sub-queue id ``host_rank % S`` (round-robin by RANK, so
    slot times — all distinct multiples of the delay — and the
    per-host budget are preserved exactly). ``connections=K>1``
    models K parallel keep-alive connections per host (what real
    crawlers run): ranks share slots K at a time —
    ``fetch_ms = (host_rank // K) * crawl_delay_ms`` — so the
    inter-REQUEST interval per connection still honors the delay.

    Takes and returns an Arrow table; the output is the input plus
    ``host_rank``, ``fetch_ms`` (and ``subqueue`` when salted).
    """

    def bucket_slots(t: pa.Table) -> pa.Table:
        def col(name):
            return t[name].to_numpy(zero_copy_only=False)

        host_codes = t["host"].combine_chunks().dictionary_encode(
            null_encoding="encode").indices.to_numpy(zero_copy_only=False)
        eligible = ~col("robots_blocked")
        delay = col("crawl_delay_ms").astype(np.int64)

        order = np.lexsort((col("seed_order"), col("priority"), host_codes))
        s_host = host_codes[order]
        s_elig = eligible[order].astype(np.int64)
        new_run = np.ones(len(order), dtype=bool)
        new_run[1:] = s_host[1:] != s_host[:-1]
        run_id = np.cumsum(new_run) - 1
        cum = np.cumsum(s_elig)
        run_starts = np.flatnonzero(new_run)
        base = cum[run_starts] - s_elig[run_starts]
        rank_sorted = cum - 1 - base[run_id]

        rank = np.full(len(order), -1, dtype=np.int64)
        rank[order] = np.where(s_elig > 0, rank_sorted, -1)
        t = t.append_column("host_rank", pa.array(rank, pa.int64()))
        t = t.append_column("fetch_ms", pa.array(
            np.where(rank >= 0, (rank // connections) * delay, -1),
            pa.int64()))
        if num_salts > 1:
            t = t.append_column("subqueue", pa.array(
                np.where(rank >= 0, rank % num_salts, -1), pa.int64()))
        return t

    return bucket_slots


def _add_host_bucket(num_buckets: int):
    """map_batches fn: ``host_bucket = hash64(host) % num_buckets``
    (replacing any existing ``host_bucket``), so every row of a host
    lands in one bucket."""
    from ..canon import hash64_batch

    def add_bucket(batch: pa.Table) -> pa.Table:
        hb = hash64_batch(batch["host"]) % np.uint64(num_buckets)
        if "host_bucket" in batch.column_names:
            batch = batch.drop_columns(["host_bucket"])
        return batch.append_column(
            "host_bucket", pa.array(hb.astype(np.int64), pa.int64()))

    return add_bucket


def schedule_politeness(ds: ray.data.Dataset, *, num_salts: int = 1,
                        connections: int = 1) -> ray.data.Dataset:
    """Politeness scheduling as ONE hash exchange
    (``stages/exchange.hash_bucket_apply``): rows are bucketed by
    ``hash64(host) % B`` (every row of a host lands in one bucket, so
    per-host slots stay exact) and each bucket is ranked by
    :func:`make_bucket_scheduler`. Every row is kept, blocked ones
    included (``host_rank = -1``), so counters can see them.

    ``B = min(64, max(8, 2 * cpus))``: split tasks emit B objects EACH,
    so the bucket count grows with the cluster (64 buckets at 2 CPUs is
    ~2k tiny plasma objects whose fixed scheduling cost dwarfs the
    kernel work)."""
    from ..stages.exchange import _cluster_cpus, hash_bucket_apply

    num_buckets = min(64, max(8, 2 * _cluster_cpus()))
    kern = make_bucket_scheduler(num_salts, connections)

    def merge(t: pa.Table) -> pa.Table:
        return kern(t.drop_columns(["host_bucket"]))

    tagged = ds.map_batches(_add_host_bucket(num_buckets),
                            batch_format="pyarrow", batch_size=None,
                            zero_copy_batch=True)
    return hash_bucket_apply(tagged, "host_bucket", merge,
                             num_buckets=num_buckets)


#: the global crawl order: the virtual clock, ties broken
#: deterministically by (priority, seed_order)
CRAWL_ORDER = ("fetch_ms", "priority", "seed_order")


def crawl_order(flow: ray.data.Dataset) -> ray.data.Dataset:
    """Global crawl order: schedulable rows (``host_rank >= 0``)
    ordered by :data:`CRAWL_ORDER` in one range exchange
    (``stages/exchange.range_order``)."""
    from ..stages.exchange import range_order

    return range_order(flow.filter(expr="host_rank >= 0"), CRAWL_ORDER)


def scheduled_crawl_order(flow: ray.data.Dataset, *,
                          num_salts: int = 1) -> ray.data.Dataset:
    """Politeness + global crawl order over a robots-gated survivor
    stream: ``crawl_order(schedule_politeness(flow))``."""
    return crawl_order(schedule_politeness(flow, num_salts=num_salts))


#: broadcast the robots table only while its on-disk footprint fits a
#: worker heap comfortably; above this it joins distributed (the same
#: auto-select the content join uses, warcout.extract_content)
ROBOTS_BROADCAST_BUDGET_BYTES = 128 << 20


def frontier_flow(seeds_path: str, robots_path: str, *,
                  concurrency: int | None = None,
                  num_salts: int = 1,
                  dedup_partitions: int | None = None,
                  robots_budget_bytes: int = ROBOTS_BROADCAST_BUDGET_BYTES
                  ) -> ray.data.Dataset:
    """Build the frontier Dataset: all rows, flagged + scheduled. The
    politeness exchange executes eagerly, so this runs the pipeline.

    Robots state auto-selects: a robots table under
    ``robots_budget_bytes`` on disk is ``ray.put`` once and looked up
    per batch (no shuffle); a larger one goes through the distributed
    host-keyed join (``robots_gate_distributed``) — at 10^8+ hosts the
    robots table stops being the small side.
    """
    ds = ray.data.read_parquet(seeds_path)
    if os.path.getsize(robots_path) > robots_budget_bytes:
        return frontier_flow_from(ds, robots_path, num_salts=num_salts,
                                  dedup_partitions=dedup_partitions)
    robots_ref = ray.put(load_robots(robots_path))
    return frontier_flow_from(ds, robots_ref, num_salts=num_salts,
                              dedup_partitions=dedup_partitions)


def frontier_flow_from(ds: ray.data.Dataset, robots_ref, *,
                       num_salts: int = 1,
                       dedup_partitions: int | None = None) -> ray.data.Dataset:
    """Frontier over an arbitrary seeds Dataset (url, priority,
    seed_order [+ payload cols]); ``robots_ref`` is a ``ray.put``
    handle to the ``load_robots`` dict (or the dict itself), or a
    robots-table PATH string — the path routes through the distributed
    host-keyed join instead of a broadcast.

    Stateless task pools (elastic, no CPU reservation): canonicalize is
    pure compute, robots a broadcast lookup. Dedup is the vectorized
    aggregate+join ``first_wins_dedup`` (per-group Python would die at
    frontier scale); politeness is one host-hash exchange
    (``schedule_politeness``).
    """
    from ..stages.dedup import first_wins_dedup

    # canonicalization enters dedup as derive_fn: the winner pass runs
    # it over all rows once; the filter pass matches raw sortkeys and
    # canonicalizes only survivors (dedup.py first_wins_dedup).
    ds = first_wins_dedup(ds, "hash64",
                          [("priority", 19), ("seed_order", 44)],
                          num_partitions=dedup_partitions,
                          derive_fn=canonicalize_batch)
    if isinstance(robots_ref, str):
        ds = robots_gate_distributed(ds, robots_ref)
    else:
        ds = ds.map_batches(make_robots_gate(robots_ref), batch_size=None,
                            batch_format="pyarrow")
    return schedule_politeness(ds, num_salts=num_salts)


def host_counters(flow: ray.data.Dataset) -> ray.data.Dataset:
    """Per-host counters: fetched / deduped / deferred-for-politeness /
    robots-blocked (north_rule A4)."""
    from ray.data.aggregate import Count, Max, Sum

    def _flags(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        deferred = pc.cast(pc.greater(batch["host_rank"], 0), pa.int64())
        blocked = pc.cast(batch["robots_blocked"], pa.int64())
        fetched = pc.cast(pc.greater_equal(batch["host_rank"], 0), pa.int64())
        batch = batch.append_column("is_deferred", deferred)
        batch = batch.append_column("is_blocked", blocked)
        batch = batch.append_column("is_fetched", fetched)
        return batch

    return (flow.map_batches(_flags, batch_format="pyarrow")
            .groupby("host")
            .aggregate(Sum("is_fetched", alias_name="fetched"),
                       Sum("n_dup_dropped", alias_name="deduped"),
                       Sum("is_deferred", alias_name="deferred_politeness"),
                       Sum("is_blocked", alias_name="robots_blocked"),
                       Max("fetch_ms", alias_name="finish_ms"),
                       Count(alias_name="rows")))


# ---------------------------------------------------------------------------
# Resumable partitioned run (lineage per host-hash bucket)
# ---------------------------------------------------------------------------

@ray.remote(num_cpus=0)
class _BucketCounterActor:
    """Write-side counter accumulator: each writer task folds its
    batch's per-bucket partials in (commutative integer adds, so the
    totals are execution-order independent). Replaces the old
    driver-side re-read of every written partition — O(buckets) state,
    never O(rows) driver I/O."""

    def __init__(self):
        self.c: dict = {}

    def add(self, buckets, fetched, deduped, deferred, blocked, rows):
        for i, b in enumerate(buckets):
            agg = self.c.setdefault(int(b), [0, 0, 0, 0, 0])
            agg[0] += int(fetched[i])
            agg[1] += int(deduped[i])
            agg[2] += int(deferred[i])
            agg[3] += int(blocked[i])
            agg[4] += int(rows[i])

    def get(self):
        return self.c


def _make_count_stage(actor, num_buckets: int):
    """Pass-through map_batches fn that folds per-bucket counter
    partials into the counter actor (vectorized bincount per batch; the
    blocking ray.get guarantees every partial is applied before
    write_parquet returns)."""

    def count_batch(batch: pa.Table) -> pa.Table:
        hb = batch["host_bucket"].to_numpy(zero_copy_only=False)
        rank = batch["host_rank"].to_numpy(zero_copy_only=False)
        ndup = batch["n_dup_dropped"].to_numpy(zero_copy_only=False)
        blocked = batch["robots_blocked"].to_numpy(zero_copy_only=False)
        nb = num_buckets
        fetched = np.bincount(hb, weights=(rank >= 0), minlength=nb)
        deduped = np.bincount(hb, weights=ndup, minlength=nb)
        deferred = np.bincount(hb, weights=(rank > 0), minlength=nb)
        blk = np.bincount(hb, weights=blocked.astype(np.int64),
                          minlength=nb)
        rows = np.bincount(hb, minlength=nb)
        nz = np.flatnonzero(rows)
        if len(nz):
            ray.get(actor.add.remote(
                nz.tolist(), fetched[nz].astype(np.int64).tolist(),
                deduped[nz].astype(np.int64).tolist(),
                deferred[nz].astype(np.int64).tolist(),
                blk[nz].astype(np.int64).tolist(),
                rows[nz].astype(np.int64).tolist()))
        return batch

    return count_batch


def run_frontier(seeds_path: str, robots_path: str, out_dir: str, *,
                 num_buckets: int = 8, num_salts: int = 1,
                 seen_checkpoint_dir: str | None = None,
                 seen=None) -> dict:
    """Execute the frontier resumably: one output partition per
    host-hash bucket, each recorded in the lineage manifest with its
    counters; a rerun with unchanged inputs skips completed buckets
    entirely (rows of done buckets are dropped before the write). A
    bucket that runs again first loses its old part files, so its rows
    on disk match its new manifest entry.

    Bucketing by HOST hash keeps every row of a host in one partition,
    so per-host politeness slots and counters are complete within a
    partition and partitions are independently restartable. Counters
    accumulate in a zero-CPU actor DURING the write pass (one tiny
    partial per batch) — no post-hoc driver read of the written rows.
    """
    from ..state.lineage import LineageManifest, fingerprint_file

    fp = fingerprint_file(seeds_path) + "+" + fingerprint_file(robots_path)
    manifest = LineageManifest(out_dir)
    done = {int(pid) for pid in manifest.entries
            if manifest.is_complete(pid, fp)}
    todo = [b for b in range(num_buckets) if b not in done]

    result = {"skipped_buckets": sorted(done), "ran_buckets": todo}
    if not todo:
        return result

    flow = frontier_flow(seeds_path, robots_path, num_salts=num_salts)
    flow = flow.map_batches(_add_host_bucket(num_buckets),
                            batch_format="pyarrow")
    if done:
        done_arr = np.array(sorted(done), dtype=np.int64)

        def drop_done(batch: pa.Table) -> pa.Table:
            hb = batch["host_bucket"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(~np.isin(hb, done_arr)))

        flow = flow.map_batches(drop_done, batch_format="pyarrow")

    counter_actor = _BucketCounterActor.remote()
    flow = flow.map_batches(_make_count_stage(counter_actor, num_buckets),
                            batch_format="pyarrow", batch_size=None)

    flow_dir = os.path.join(out_dir, "flow")
    for b in todo:
        shutil.rmtree(os.path.join(flow_dir, "host_bucket=%d" % b),
                      ignore_errors=True)
    flow.write_parquet(flow_dir, partition_cols=["host_bucket"])

    counters_by_bucket = ray.get(counter_actor.get.remote())
    ray.kill(counter_actor)
    for b in todo:
        part_dir = os.path.join(flow_dir, "host_bucket=%d" % b)
        f, d, df, bl, n = counters_by_bucket.get(b, (0, 0, 0, 0, 0))
        manifest.record(str(b), fp,
                        {"fetched": f, "deduped": d,
                         "deferred_politeness": df,
                         "robots_blocked": bl, "rows": n},
                        part_dir)

    if seen is not None and seen_checkpoint_dir:
        seen.checkpoint(seen_checkpoint_dir)
    result["manifest"] = manifest.path
    return result


def render_robots_txt(batch: pa.Table) -> pa.Table:
    """Render (host, crawl_delay_ms, disallow[]) rows as raw
    robots.txt bodies — the inverse of :func:`parse_robots_batch`,
    used to exercise the parser against ground truth (and as a test
    double for a fetcher stage that would pull real robots bodies).
    Deterministic template with realistic noise lines (comments,
    Allow, Sitemap) the parser must ignore."""
    hosts = batch["host"].to_numpy(zero_copy_only=False)
    delays = batch["crawl_delay_ms"].to_numpy(zero_copy_only=False)
    dis = batch["disallow"].to_pylist()
    bodies = []
    for h, ms, rules in zip(hosts, delays, dis):
        lines = ["# robots for %s" % h,
                 "User-agent: *",
                 "Allow: /",
                 "Crawl-delay: %d.%03d" % (ms // 1000, ms % 1000)]
        for p in (rules or []):
            lines.append("Disallow: %s" % p)
        lines.append("Sitemap: https://%s/sitemap.xml" % h)
        bodies.append("\n".join(lines) + "\n")
    return pa.table({
        "host": pa.array(hosts, pa.string()),
        "robots_txt": pa.array(bodies, pa.string()),
    })


def parse_robots_batch(batch: pa.Table, host_col: str = "host",
                       text_col: str = "robots_txt") -> pa.Table:
    """Parse raw robots.txt bodies into the politeness-rules row the
    frontier consumes: ``(host, crawl_delay_ms, disallow_csv,
    n_rules)`` — the missing first stage between a fetched
    ``/robots.txt`` response and :func:`make_robots_gate` (reference
    analog: the per-host interval table, myrequests.py:23-54, which
    the reference hard-codes instead of parsing).

    Vectorized (polars extract_all / extract over the whole batch):
    ``Disallow:`` prefixes collected, sorted, comma-joined (empty
    ``Disallow:`` = allow-all per the robots RFC and is ignored);
    ``Crawl-delay`` accepts integer or fractional seconds and
    converts to integer ms with string arithmetic (no float
    round-trip); comment / Allow / Sitemap / User-agent lines are
    ignored. Missing crawl-delay -> 0.
    """
    import polars as pl

    sch = pa.schema([("host", pa.string()), ("crawl_delay_ms", pa.int64()),
                     ("disallow_csv", pa.string()),
                     ("n_rules", pa.int64())])
    if batch.num_rows == 0:
        return sch.empty_table()
    df = pl.DataFrame({
        "host": pl.from_arrow(batch[host_col].combine_chunks()
                              .cast(pa.string())),
        "t": pl.from_arrow(batch[text_col].combine_chunks()
                           .cast(pa.string())),
    })
    delay = df.select(
        "host",
        sec=pl.col("t").str.extract(r"Crawl-delay:\s*(\d+)", 1)
            .cast(pl.Int64).fill_null(0),
        frac=pl.col("t").str.extract(r"Crawl-delay:\s*\d+\.(\d+)", 1))
    # fractional part: right-pad/truncate to ms with string arithmetic
    frac = delay["frac"].to_numpy()
    frac_ms = np.array([int((f or "")[:3].ljust(3, "0") or 0)
                        for f in frac], np.int64)
    ms = delay["sec"].to_numpy().astype(np.int64) * 1000 + frac_ms

    rules = (
        df.with_columns(
            m=pl.col("t").str.extract_all(r"Disallow:\s*(\S+)"))
        .select("host", "m").explode("m").drop_nulls("m")
        .with_columns(p=pl.col("m").str.extract(r"Disallow:\s*(\S+)", 1))
        .drop("m")
        .group_by("host")
        .agg(csv=pl.col("p").sort_by("p").str.join(","),
             n=pl.len().cast(pl.Int64))
    )
    lut = {h: (c, n) for h, c, n in zip(rules["host"].to_list(),
                                        rules["csv"].to_list(),
                                        rules["n"].to_list())}
    hosts = df["host"].to_list()
    csv = [lut.get(h, ("", 0))[0] for h in hosts]
    nr = [lut.get(h, ("", 0))[1] for h in hosts]
    return pa.table({
        "host": pa.array(hosts, pa.string()),
        "crawl_delay_ms": pa.array(ms, pa.int64()),
        "disallow_csv": pa.array(csv, pa.string()),
        "n_rules": pa.array(nr, pa.int64()),
    })
