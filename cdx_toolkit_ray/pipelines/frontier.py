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

Dataflow (two task-graph exchanges, stages/exchange.py; no Ray Data
execution before the first):

  planned seeds read: footers give each file's rows and bytes, one read
  task per file cuts it into row slices, one slice per split task
  -> one host round. Its split tasks run the per-row pass (prepare=):
     canonicalize_batch (urlkey, hash64, host; the host and port
     rules once per distinct origin) -> robots gate (broadcast lookup;
     flags, never drops) -> route tag (hashed once per distinct host).
     Its merges run first-wins dedup per hash64 (stages/dedup.first_wins:
     winner = min (priority, seed_order), n_dup_dropped), then
     politeness over the winners (host_rank, fetch_ms = rank * delay)
                                                      [frontier_flow]
  -> range_order(fetch_ms, priority, seed_order) of host_rank >= 0
                                                      [crawl_order]

Seeds over the exchange budget, and the distributed robots join, read
with ``ray.data.read_parquet`` instead; the join keeps canonicalize and
the gate as Dataset operators before the same round.

The round routes by ``hash64(host without ^www\\d*\\.)``: SURT duplicates
and every row of a raw host share it. The urlkey's host part would
split a host: it keeps non-default ports (``com,a:8080)``), ``host``
does not. Gating before dedup flags the same rows (a row's flag depends
only on its own host and url).

Skew: a hot host lands in one host bucket; the bucket kernels are
vectorized lexsorts (millions of rows/s), so the straggler cost is
sort-bound, not Python-bound. For extreme skew ``num_salts > 1``
splits each hot host into sub-queues by round-robin POSITION (not
hash), preserving both the exact slot times and the per-host politeness
budget: sub-queue ``j`` fetches at ``(j + i*S)*d`` — all distinct
multiples of ``d``, at most one fetch per interval per host.
"""

from __future__ import annotations

import os
import shutil
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute  # noqa: F401 (pa.compute used in counters)
import pyarrow.parquet as pq
import ray
import ray.data

from ..canon import canonicalize_batch
from ..stages.dedup import first_wins

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
# which can starve the shuffle stages on small clusters). A worker
# outlives the runs that broadcast to it, so it keeps only the most
# recently used refs.
BROADCAST_CACHE_REFS = 8
_BROADCAST_CACHE: OrderedDict = OrderedDict()


def _get_broadcast(ref):
    if isinstance(ref, dict):
        return ref
    key = ref.hex()
    if key in _BROADCAST_CACHE:
        _BROADCAST_CACHE.move_to_end(key)
    else:
        _BROADCAST_CACHE[key] = ray.get(ref)
        if len(_BROADCAST_CACHE) > BROADCAST_CACHE_REFS:
            _BROADCAST_CACHE.popitem(last=False)
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
    ``batch`` plus ``robots_blocked`` (bool) and ``crawl_delay_ms``
    (int64) per row, vectorized.

    Path extraction parity with ``urlsplit(url).path or '/'`` for
    scheme://host urls: the origin (``scheme://authority``, a whole
    regex match, no capture group) stripped off, then everything up to
    ``?``/``#``; no scheme or an empty path -> '/'.
    """
    import polars as pl

    # hosts numbered in first-appearance order (Arrow's hash kernel)
    enc = batch["host"].combine_chunks().dictionary_encode(
        null_encoding="encode")
    codes = enc.indices.to_numpy(zero_copy_only=False)
    entries = [robots.get(h) for h in enc.dictionary.to_pylist()]
    delay_u = np.array([e[0] if e is not None else default_delay_ms
                        for e in entries], np.int64)
    delays = delay_u[codes]
    blocked = np.zeros(len(codes), dtype=bool)
    has_prefix = np.array([bool(e and e[1]) for e in entries])
    cand = np.flatnonzero(has_prefix[codes]) if has_prefix.any() else None
    if cand is not None and cand.size and by_len:
        take = pa.array(cand)
        url, path = pl.col("url"), pl.col("path")
        origin = url.str.extract(r"^[a-zA-Z][a-zA-Z0-9+.\-]*://[^/?#]*", 0)
        df = pl.DataFrame({
            "host": pl.from_arrow(batch["host"].take(take)),
            "url": pl.from_arrow(batch["url"].take(take)),
        }).select("host", path=url.str.strip_prefix(origin)
                  .str.extract(r"^[^?#]*", 0)) \
            .with_columns(path=pl.when(path.is_null() | (path == ""))
                          .then(pl.lit("/")).otherwise(path))
        blk = np.zeros(cand.size, dtype=bool)
        for ln, keys in by_len.items():
            trunc = df["host"] + "\0" + df["path"].str.slice(0, ln)
            blk |= trunc.is_in(list(keys)).to_numpy()
        blocked[cand] = blk
    return batch.append_column("robots_blocked", pa.array(blocked)) \
        .append_column("crawl_delay_ms", pa.array(delays, pa.int64()))


def make_robots_gate(robots_ref, default_delay_ms: int = DEFAULT_DELAY_MS):
    """``table -> table`` fn (a host round's prepare, or a map_batches
    fn): flag robots-disallowed rows (broadcast path).

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
        return _robots_columns(batch, robots, _derived[key],
                               default_delay_ms)

    return robots_gate


def robots_gate_distributed(ds: ray.data.Dataset, robots_path: str, *,
                            default_delay_ms: int = DEFAULT_DELAY_MS
                            ) -> ray.data.Dataset:
    """The scale path for an over-budget robots table: a distributed
    LEFT OUTER hash join on ``host`` (both sides move once, nothing on
    the driver) followed by the same vectorized gate kernel over each
    joined batch. Semantically identical to the broadcast gate — the
    join delivers each row its own host's (delay, prefixes), and the
    kernel builds its per-batch prefix index from exactly those."""
    from ..stages.dedup import default_join_partitions

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
    joined = ds.join(robots, "left_outer", default_join_partitions(),
                     on=("host",))

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
        return _robots_columns(
            batch.drop_columns(["_r_delay", "_r_disallow"]), robots_b,
            _prefix_index(robots_b), default_delay_ms)

    return joined.map_batches(gate, batch_format="pyarrow")


def make_bucket_scheduler(num_salts: int = 1, connections: int = 1,
                          order: tuple = ("priority", "seed_order")):
    """The engine's politeness kernel for ONE host-hash bucket: assign
    fetch slots under the virtual clock to every host of the bucket in
    one numpy pass (one lexsort + run-length rank arithmetic). The
    frontier, the crawl's waves (pipelines/crawl.py) and the retry wave
    (pipelines/fetch.requeue) all slot on it.

    Within a host: eligible rows (not robots-blocked; a table without
    ``robots_blocked`` has no blocked rows) ordered by the ``order``
    columns get ``host_rank`` 0,1,2,... and
    ``fetch_ms = base + (host_rank // K + 1) * crawl_delay_ms``, where
    ``base`` is the host's last slot of an earlier wave and
    ``K = connections``. A host never fetched has ``base =
    -crawl_delay_ms``, so its slots are ``(host_rank // K) *
    crawl_delay_ms``. Blocked rows keep ``host_rank=-1,
    fetch_ms=-1``. With ``num_salts=S>1`` the rank order is unchanged —
    only the downstream physical partitioning uses the sub-queue id
    ``host_rank % S`` (round-robin by RANK, so slot times — all
    distinct multiples of the delay — and the per-host budget are
    preserved exactly). ``connections=K>1`` models K parallel
    keep-alive connections per host (what real crawlers run): ranks
    share slots K at a time, so the inter-REQUEST interval per
    connection still honors the delay.

    Returns ``bucket_slots(t, base=None)``: ``t`` is an Arrow table and
    ``base``, when given, a table of ``(host, last_ms)`` with one row
    per host; a host it lacks, or a null ``last_ms``, was never fetched.
    The output is ``t`` plus ``host_rank``, ``fetch_ms`` (and
    ``subqueue`` when salted).
    """

    def bucket_slots(t: pa.Table, base: pa.Table | None = None) -> pa.Table:
        def col(name):
            return t[name].to_numpy(zero_copy_only=False)

        enc = t["host"].combine_chunks().dictionary_encode(
            null_encoding="encode")
        host_codes = enc.indices.to_numpy(zero_copy_only=False)
        eligible = (~col("robots_blocked") if "robots_blocked" in
                    t.column_names else np.ones(t.num_rows, dtype=bool))
        delay = col("crawl_delay_ms").astype(np.int64)

        order_idx = np.lexsort([col(c) for c in reversed(order)]
                               + [host_codes])
        s_host = host_codes[order_idx]
        s_elig = eligible[order_idx].astype(np.int64)
        new_run = np.ones(len(order_idx), dtype=bool)
        new_run[1:] = s_host[1:] != s_host[:-1]
        run_id = np.cumsum(new_run) - 1
        cum = np.cumsum(s_elig)
        run_starts = np.flatnonzero(new_run)
        start = cum[run_starts] - s_elig[run_starts]
        rank_sorted = cum - 1 - start[run_id]

        rank = np.full(len(order_idx), -1, dtype=np.int64)
        rank[order_idx] = np.where(s_elig > 0, rank_sorted, -1)
        slot = (rank // connections) * delay
        if base is not None:
            # base + (rank // K + 1) * delay: a carried host's slots
            # shift by base + delay (0 for a host never fetched)
            last = base["last_ms"].take(
                pa.compute.index_in(enc.dictionary, value_set=base["host"]))
            known = last.is_valid().to_numpy(zero_copy_only=False)
            last = last.fill_null(0).to_numpy(zero_copy_only=False)
            slot += np.where(known[host_codes],
                             last[host_codes] + delay, 0)
        t = t.append_column("host_rank", pa.array(rank, pa.int64()))
        t = t.append_column("fetch_ms", pa.array(
            np.where(rank >= 0, slot, -1), pa.int64()))
        if num_salts > 1:
            t = t.append_column("subqueue", pa.array(
                np.where(rank >= 0, rank % num_salts, -1), pa.int64()))
        return t

    return bucket_slots


def _add_host_bucket(num_buckets: int, strip_www: bool = False):
    """map_batches fn: (re)set ``host_bucket = hash64(host) %
    num_buckets``, so a host lands in one bucket; ``strip_www`` hashes
    the host without ``^www\\d*\\.`` (the route, module docstring). Each
    distinct host of the batch is hashed once; a null host goes to
    bucket 0."""
    from ..canon import hash64_batch

    def add_bucket(batch: pa.Table) -> pa.Table:
        enc = batch["host"].combine_chunks().dictionary_encode()
        hosts = enc.dictionary
        if strip_www:
            hosts = pa.compute.replace_substring_regex(hosts, r"^www\d*\.",
                                                       "")
        hb = hash64_batch(hosts) % np.uint64(num_buckets)
        bucket = pa.array(hb.astype(np.int64), pa.int64()) \
            .take(enc.indices).fill_null(0)
        if "host_bucket" in batch.column_names:
            batch = batch.drop_columns(["host_bucket"])
        return batch.append_column("host_bucket", bucket)

    return add_bucket


def _then(*fns):
    """The picklable composition ``fns[-1](... fns[0](t))``, None
    skipped."""
    fns = [f for f in fns if f is not None]

    def run(t: pa.Table) -> pa.Table:
        for f in fns:
            t = f(t)
        return t

    return run


def _host_round(ds, kern, prepare=None, nbytes=None) -> ray.data.Dataset:
    """ONE ``hash_bucket_apply`` exchange routed by the ``www``-stripped
    host, running ``kern`` over each bucket. ``prepare`` and then the
    route tag run inside the round's split tasks; ``ds`` is a Dataset
    or the refs of a planned read of ``nbytes`` footer bytes."""
    from ..stages.exchange import hash_bucket_apply, round_plan

    if isinstance(ds, ray.data.Dataset):
        ds = ds.materialize()
        nbytes = ds.size_bytes()
    num_buckets = round_plan(nbytes)
    return hash_bucket_apply(
        ds, "host_bucket", lambda t: kern(t.drop_columns(["host_bucket"])),
        num_buckets=num_buckets,
        prepare=_then(prepare, _add_host_bucket(num_buckets,
                                                strip_www=True)))


def schedule_politeness(ds: ray.data.Dataset, *, num_salts: int = 1,
                        connections: int = 1) -> ray.data.Dataset:
    """Politeness as ONE :func:`_host_round` of
    :func:`make_bucket_scheduler`; blocked rows stay (``host_rank=-1``)."""
    return _host_round(ds, make_bucket_scheduler(num_salts, connections))


def dedup_schedule(ds, *, prepare=None, nbytes=None, num_salts: int = 1,
                   connections: int = 1) -> ray.data.Dataset:
    """First-wins dedup (``stages/dedup.first_wins``), then politeness
    over the winners, of a canonicalized, robots-gated Dataset in ONE
    :func:`_host_round` (SURT duplicates share a route, so per-bucket
    dedup is exact). ``prepare`` (a picklable ``table -> table``
    function) is the per-row pass that makes the rows canonicalized and
    gated; it runs in the round's split tasks."""
    schedule = make_bucket_scheduler(num_salts, connections)
    return _host_round(ds, lambda t: schedule(first_wins(t)), prepare, nbytes)


#: the global crawl order: the virtual clock, ties broken
#: deterministically by (priority, seed_order)
CRAWL_ORDER = ("fetch_ms", "priority", "seed_order")


def crawl_order(flow: ray.data.Dataset) -> ray.data.Dataset:
    """Global crawl order: schedulable rows (``host_rank >= 0``)
    ordered by :data:`CRAWL_ORDER` in one range exchange
    (``stages/exchange.range_order``, which drops the other rows inside
    its own tasks)."""
    from ..stages.exchange import range_order

    return range_order(flow, CRAWL_ORDER, where=lambda t: t.filter(
        pa.compute.greater_equal(t["host_rank"], 0)))


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
                  num_salts: int = 1,
                  robots_budget_bytes: int = ROBOTS_BROADCAST_BUDGET_BYTES
                  ) -> ray.data.Dataset:
    """Build the frontier Dataset: the dedup winners, flagged +
    scheduled. The host exchange executes eagerly, so this runs the
    pipeline.

    Robots state auto-selects: a robots table under
    ``robots_budget_bytes`` on disk is ``ray.put`` once and looked up
    per batch (no shuffle); a larger one goes through the distributed
    host-keyed join (``robots_gate_distributed``) — at 10^8+ hosts the
    robots table stops being the small side.

    With the broadcast gate, the seeds are read by a footer-planned
    read (``exchange.plan_parquet`` / ``read_planned``) whose slices go
    straight to the host round, which canonicalizes and gates them in
    its split tasks. Seeds over ``exchange.EXCHANGE_BYTES_BUDGET`` (by
    footer bytes), none at all, or a nested seeds directory take
    ``ray.data.read_parquet`` and :func:`frontier_flow_from` instead.
    """
    from ..stages.exchange import (EXCHANGE_BYTES_BUDGET, plan_parquet,
                                   read_planned)

    if os.path.getsize(robots_path) > robots_budget_bytes:
        return frontier_flow_from(ray.data.read_parquet(seeds_path),
                                  robots_path, num_salts=num_salts)
    robots_ref = ray.put(load_robots(robots_path))
    plan = plan_parquet(seeds_path) or []
    nbytes = sum(b for _, _, b in plan)
    if not sum(rows for _, rows, _ in plan) or nbytes > EXCHANGE_BYTES_BUDGET:
        return frontier_flow_from(ray.data.read_parquet(seeds_path),
                                  robots_ref, num_salts=num_salts)
    return dedup_schedule(read_planned(plan),
                          prepare=_canon_gate(robots_ref),
                          nbytes=nbytes, num_salts=num_salts)


def _canon_gate(robots_ref):
    """The broadcast path's per-row pass: ``canonicalize_batch``, then
    the robots gate."""
    return _then(canonicalize_batch, make_robots_gate(robots_ref))


def frontier_flow_from(ds: ray.data.Dataset, robots_ref, *,
                       num_salts: int = 1) -> ray.data.Dataset:
    """Frontier over an arbitrary seeds Dataset (url, priority,
    seed_order [+ payload cols]); ``robots_ref`` is a ``ray.put``
    handle to the ``load_robots`` dict (or the dict itself), or a
    robots-table PATH string — the path routes through the distributed
    host-keyed join instead of a broadcast.

    With a broadcast handle, canonicalize and the gate are the
    ``prepare`` of :func:`dedup_schedule`'s round, so no Dataset stage
    runs between the read and the exchange. The distributed join keeps
    canonicalize + join as Dataset operators before the round."""
    if isinstance(robots_ref, str):
        ds = ds.map_batches(canonicalize_batch, batch_format="pyarrow",
                            batch_size=None, zero_copy_batch=True)
        return dedup_schedule(robots_gate_distributed(ds, robots_ref),
                              num_salts=num_salts)
    return dedup_schedule(ds, prepare=_canon_gate(robots_ref),
                          num_salts=num_salts)


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
    bucket that runs again replaces its old part files only after the
    write has finished, so its rows on disk match its manifest entry,
    the old one after a failed write or the new one after a finished
    one.

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

    # the buckets that run are written beside flow/ and swapped in once
    # the whole write has finished: a write that fails leaves the old
    # rows, and their manifest entries, as they were
    flow_dir = os.path.join(out_dir, "flow")
    staged = flow_dir + ".tmp"
    shutil.rmtree(staged, ignore_errors=True)
    try:
        flow.write_parquet(staged, partition_cols=["host_bucket"])
        counters_by_bucket = ray.get(counter_actor.get.remote())
    finally:
        ray.kill(counter_actor)
    os.makedirs(staged, exist_ok=True)
    os.makedirs(flow_dir, exist_ok=True)
    for b in todo:
        name = "host_bucket=%d" % b
        part_dir = os.path.join(flow_dir, name)
        if os.path.isdir(part_dir):
            os.replace(part_dir, os.path.join(staged, name + ".old"))
        if os.path.isdir(os.path.join(staged, name)):
            os.replace(os.path.join(staged, name), part_dir)
        f, d, df, bl, n = counters_by_bucket.get(b, (0, 0, 0, 0, 0))
        manifest.record(str(b), fp,
                        {"fetched": f, "deduped": d,
                         "deferred_politeness": df,
                         "robots_blocked": bl, "rows": n},
                        part_dir)
    shutil.rmtree(staged)

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
