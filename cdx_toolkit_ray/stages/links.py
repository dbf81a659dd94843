"""Outlink extraction + bounded-hop BFS frontier expansion.

The reference leaves the crawl LOOP to its users: iterate captures,
fetch each page's content, harvest links, feed the new URLs back into
the next query (the composition sketched by its examples/iter-and-warc
loop over ``obj.content``, reference cdx_toolkit/__init__.py:122-127 +
warc.py:123-156). This module closes that loop as two Ray-Data-native
operators:

* ``extract_links`` — a vectorized ``map_batches`` stage over the pages
  table: regex href harvest (polars ``str.extract_all``) + relative-URL
  resolution against the page's origin. Zero Python per row; the text
  column never leaves the task (only the narrow (src, dst, host) link
  stream does).

* ``crawl_bfs`` — bounded-hop breadth-first frontier expansion over the
  link graph, the engine's seeds->fetch->discover->fetch cycle run to a
  hop budget. Each hop is (1) a routed offer to the sharded URL-seen
  actor pool (state/seen.py — first-seen-wins across and within hops),
  then (2) a hash-bucket exchange join of the surviving frontier
  against the link table keyed by ``hash64(src_url)`` (the same
  split/merge task graph as stages/exchange.py — no driver-side
  row materialization; the driver holds only object refs and a per-hop
  row count).

Scale contract: the link table is keyed + bucketed ONCE and its blocks
are reused across hops; per-hop traffic is the frontier (two narrow
columns) plus one emitted dst slice per bucket. Skewed in-degree is
bounded by the per-bucket ``unique`` before emission: a URL linked
from D pages costs its bucket O(D) input rows but emits one row.

The iterative link-graph scores (``link_rank``, ``trust_rank``,
``hits``, ``opic``, ``kcore_peel``) are supersteps of the one
``stages/exchange.py`` primitive: ``partition`` caches the edges per
hash bucket once, ``vertices`` builds the per-bucket node state, and
each iteration is one ``superstep`` of a small scatter/gather kernel
pair defined here.
"""

from __future__ import annotations

import logging
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..canon import hash64_batch
from ..state.seen import ShardedSeenSet, SeenFilterStage
from .exchange import (concat, distinct, fan_out, gather,
                       hash_bucket_apply, partition, split_by_hash,
                       round_plan, superstep, vertices)

LOGGER = logging.getLogger(__name__)

# Fixture/HTML attribute convention: single-quoted hrefs. Real HTML
# would widen this regex; the resolution rule below is unchanged.
HREF_RE = r"href='([^']*)'"
_ORIGIN_RE = r"^([a-z][a-z0-9+.\-]*://[^/]+)"
_HOST_RE = r"://([^/]+)"

_LINK_SCHEMA = pa.schema([("src_url", pa.string()),
                          ("dst_url", pa.string()),
                          ("dst_host", pa.string())])


def link_kernel(batch: pa.Table, url_col: str = "url",
                text_col: str = "text") -> pa.Table:
    """Vectorized href harvest over one Arrow batch (the
    ``extract_links`` kernel, exposed module-level so raw task rounds
    — e.g. the ``crawl_waves`` per-wave outlink probe — can call it
    without an executor launch)."""
    import polars as pl

    if batch.num_rows == 0:
        return _LINK_SCHEMA.empty_table()
    df = pl.from_arrow(batch.select([url_col, text_col]))
    if url_col != "src_url":
        df = df.rename({url_col: "src_url"})
    out = (
        df.with_columns(
            pl.col(text_col).str.extract_all(HREF_RE).alias("href"))
        .drop(text_col)
        .explode("href")
        .drop_nulls("href")
        .with_columns(pl.col("href").str.extract(HREF_RE, 1))
    )
    origin = pl.col("src_url").str.extract(_ORIGIN_RE, 1)
    dst = (
        pl.when(pl.col("href").str.contains("://", literal=True))
        .then(pl.col("href"))
        .when(pl.col("href").str.starts_with("/"))
        .then(origin + pl.col("href"))
        .otherwise(None)
    )
    out = (
        out.with_columns(dst.alias("dst_url"))
        .drop("href")
        .drop_nulls("dst_url")
        .with_columns(
            pl.col("dst_url").str.extract(_HOST_RE, 1).alias("dst_host"))
    )
    return out.to_arrow().cast(_LINK_SCHEMA)


def extract_links(pages: ray.data.Dataset, *, url_col: str = "url",
                  text_col: str = "text") -> ray.data.Dataset:
    """Harvest outlinks: one (src_url, dst_url, dst_host) row per href.

    Resolution rule (applied identically by the SQL oracle): an href
    containing ``://`` is absolute; one starting with ``/`` is
    root-relative and resolved against the page URL's origin
    (scheme://authority); anything else (fragment, mailto, path-
    relative) is dropped. Duplicate hrefs are preserved — dedup is the
    consumer's choice (``crawl_bfs`` dedups via the seen set).
    """

    def kernel(batch: pa.Table) -> pa.Table:
        return link_kernel(batch, url_col, text_col)

    return pages.map_batches(kernel, batch_format="pyarrow",
                             batch_size=None, zero_copy_batch=True)


def _key_links(nb: int):
    """Stamp link rows with their src-hash bucket + side marker."""
    nbu = np.uint64(nb)

    def fn(batch: pa.Table) -> pa.Table:
        h = hash64_batch(batch["src_url"])
        return pa.table({
            "bucket": pa.array((h % nbu).astype(np.int64), pa.int64()),
            "side": pa.array(np.ones(batch.num_rows, np.int8), pa.int8()),
            "key_url": batch["src_url"].cast(pa.string()),
            "dst_url": batch["dst_url"].cast(pa.string()),
        })

    return fn


def _key_frontier(nb: int):
    nbu = np.uint64(nb)

    def fn(batch: pa.Table) -> pa.Table:
        h = hash64_batch(batch["url"])
        n = batch.num_rows
        return pa.table({
            "bucket": pa.array((h % nbu).astype(np.int64), pa.int64()),
            "side": pa.array(np.zeros(n, np.int8), pa.int8()),
            "key_url": batch["url"].cast(pa.string()),
            "dst_url": pa.array([None] * n, pa.string()),
        })

    return fn


def _expand_bucket(tbl: pa.Table) -> pa.Table:
    """One exchange bucket: emit distinct dsts of links whose src is in
    the bucket's frontier rows (exact string membership, not hash
    equality — bucket routing uses the hash, the join predicate does
    not)."""
    side = tbl["side"].to_numpy(zero_copy_only=False)
    frontier = tbl.filter(pa.array(side == 0))["key_url"]
    links = tbl.filter(pa.array(side == 1))
    if len(frontier) == 0 or links.num_rows == 0:
        return pa.table({"url": pa.array([], pa.string())})
    hit = pc.is_in(links["key_url"],
                   value_set=pc.unique(frontier.combine_chunks()))
    dst = pc.unique(links.filter(hit)["dst_url"].combine_chunks())
    return pa.table({"url": dst.cast(pa.string())})


#: link rows -> the (src, dst) edge columns of the graph supersteps
_SRC_DST = (("src", "src_url"), ("dst", "dst_url"))


def link_rank(links: ray.data.Dataset, *, iterations: int = 3,
              num_buckets: int | None = None, scale: int = 1_000_000,
              damping_num: int = 85, damping_den: int = 100
              ) -> ray.data.Dataset:
    """Fixed-point PageRank-style crawl priority over the link graph.

    Every url appearing as src or dst is a node; each link row is one
    (parallel-edge-counting) edge. Ranks are nonnegative int64 in
    units of ``1/scale``:

        rank_0(u)   = scale
        rank_t+1(u) = (1 - d) * scale  +  sum over edges v->u of
                      (rank_t(v) DIV outdeg(v)) * damping_num DIV damping_den

    with DIV = floor division — all-integer, so the result is
    deterministic under ANY summation order and the DuckDB oracle
    (same recurrence in SQL ``//``) matches bit-for-bit; no float
    reduction-order hazard. Dangling nodes (no outlinks) keep their
    mass, the standard simplification.

    Dataflow (the partitioned-cached PageRank shape, on the
    ``exchange`` primitive): ``partition`` shuffles the edge table by
    ``hash64(src) % num_buckets`` ONCE and each bucket's table stays in
    the object store for every iteration — re-splitting the (dominant)
    edge stream per iteration would cost an extra full shuffle each
    round. ``vertices`` puts each node's (url, rank, teleport, outdeg)
    state row in its own hash bucket, so a src's state row and all of
    its out-edges share a bucket. An iteration is one ``superstep``:
    scatter (per-edge contribution, split by the receiving url's
    bucket) and gather (teleport + integer sum per url). The driver
    holds refs only; per-iteration traffic is the narrow (url, int64)
    contribution stream — never the edges.
    """
    return _pagerank(links, "rank", _all_nodes, iterations, num_buckets,
                     scale, damping_num, damping_den)


def _pagerank(links: ray.data.Dataset, col: str, is_seed,
              iterations: int, nb: int | None, scale: int, damping_num: int,
              damping_den: int) -> ray.data.Dataset:
    """The link_rank / trust_rank loop over ``(url, col)``: rank and
    teleport mass start on the nodes ``is_seed`` selects."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    base = (scale * (damping_den - damping_num)) // damping_den
    edges_b = partition(links, nb or round_plan(), "src", _SRC_DST)
    state_b = vertices(edges_b,
                       partial(_rank_init, col, scale, base, is_seed))
    for _ in range(iterations):
        state_b = superstep(
            edges_b, state_b,
            partial(_rank_scatter, col, damping_num, damping_den),
            partial(_rank_gather, col))
    return ray.data.from_arrow_refs(
        gather(partial(_select, ("url", col)), state_b))


def _select(cols, t: pa.Table) -> pa.Table:
    return t.select(list(cols))


def _set(t: pa.Table, col: str, values: np.ndarray) -> pa.Table:
    return t.set_column(t.schema.get_field_index(col), col,
                        pa.array(values, pa.int64()))


def _urls(t: pa.Table, col: str = "url") -> np.ndarray:
    return t[col].to_numpy(zero_copy_only=False)


def _sum_into(state: pa.Table, inbox: list) -> np.ndarray:
    """Integer sum of one bucket's (url[, val]) messages per state row
    (a message without ``val`` counts 1) — add.at, not bincount: float
    weights would break the exact-arithmetic contract past 2^53."""
    m = concat(inbox)
    sums = np.zeros(state.num_rows, np.int64)
    val = (m["val"].to_numpy(zero_copy_only=False)
           if "val" in m.column_names else 1)
    np.add.at(sums, np.searchsorted(_urls(state), _urls(m)), val)
    return sums


def _all_nodes(url: pa.Array) -> np.ndarray:
    return np.ones(len(url), bool)


def _rank_init(col: str, scale: int, base: int, is_seed, url: pa.Array,
               outdeg: np.ndarray) -> pa.Table:
    """Rank state: ``col`` = scale and teleport = base on seed nodes,
    0 elsewhere (link_rank: every node is a seed)."""
    seed = np.asarray(is_seed(url), bool)
    return pa.table({
        "url": url,
        col: pa.array(np.where(seed, scale, 0), pa.int64()),
        "teleport": pa.array(np.where(seed, base, 0), pa.int64()),
        "outdeg": pa.array(outdeg, pa.int64())})


def _rank_scatter(col: str, damping_num: int, damping_den: int, nb: int,
                  edges: pa.Table, state: pa.Table) -> list:
    """Each edge carries ``(col[src] DIV outdeg(src)) * damping_num DIV
    damping_den`` to its dst (the src's state row is in this bucket)."""
    idx = np.searchsorted(_urls(state), _urls(edges, "src"))
    share = (state[col].to_numpy(zero_copy_only=False)[idx]
             // state["outdeg"].to_numpy(zero_copy_only=False)[idx])
    msg = pa.table({"url": edges["dst"],
                    "val": pa.array(share * damping_num // damping_den,
                                    pa.int64())})
    return split_by_hash(msg, "url", nb)


def _rank_gather(col: str, state: pa.Table, inbox: list) -> pa.Table:
    """``col`` = teleport + integer sum of the received contributions."""
    return _set(state, col, _sum_into(state, inbox)
                + state["teleport"].to_numpy(zero_copy_only=False))


def hits(links: ray.data.Dataset, *, iterations: int = 2,
         num_buckets: int | None = None, scale: int = 1_000_000
         ) -> ray.data.Dataset:
    """Integer HITS hubs/authorities (Kleinberg 1999) over the link
    graph — the crawl-prioritization twin of :func:`link_rank` that
    separates *authority* (linked-to by good hubs) from *hub*
    (linking to good authorities) scores.

    Every url appearing as src or dst is a node; each link row is one
    (parallel-edge-counting) edge. Scores are nonnegative int64 in
    units of ``1/scale``::

        h_0(u) = a_0(u) = scale
        a_raw(u) = sum over edge rows v->u of h(v)
        a(u)     = a_raw(u) * scale  DIV  max_w a_raw(w)
        h_raw(v) = sum over edge rows v->u of a(u)
        h(v)     = h_raw(v) * scale  DIV  max_w h_raw(w)

    with DIV = floor division and max- instead of the textbook
    L2-normalization so every step stays exact int64 and the DuckDB
    oracle (same recurrence in SQL ``//``) matches bit-for-bit under
    any summation order. Nodes with no in-edges get authority 0 after
    the first step; pure sinks get hub 0 — the standard behavior.

    Dataflow (two bucket-cached edge copies, the link_rank shape):
    ``partition`` splits the edge stream ONCE into a src-bucketed copy
    (serves the a-update: every edge sits with its src's state row)
    and a dst-bucketed copy (serves the h-update: every edge sits with
    its dst's state row). One (url, authority, hub) state row per
    node. An update is one ``superstep`` (per-edge contribution,
    integer sum per receiver, plus each bucket's max as an extra
    return) + an O(B)-scalar max fold on the driver + a per-bucket
    rescale. Per-iteration traffic is the narrow (url, int64)
    contribution stream — the edges never move again.

    int64 bound: ``max_raw * scale`` must stay below 2**63, i.e. the
    max weighted in/out-degree below ``2**63 / scale**2`` (~9.2e6 at
    the default scale). Checked per rescale; raise = switch scale
    down (the oracle recurrence is scale-parameterized).
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    links = links.materialize()
    nb = num_buckets or round_plan()
    by_src = partition(links, nb, "src", _SRC_DST)
    by_dst = partition(links, nb, "dst", _SRC_DST)
    state_b = vertices(by_src, partial(_hits_init, scale))
    for _ in range(iterations):
        state_b = _hits_update(by_src, state_b, scale,
                               ("src", "dst", "hub"), "authority")
        state_b = _hits_update(by_dst, state_b, scale,
                               ("dst", "src", "authority"), "hub")
    return ray.data.from_arrow_refs(state_b)


def _hits_init(scale: int, url: pa.Array, outdeg: np.ndarray) -> pa.Table:
    s = pa.array(np.full(len(url), scale, np.int64), pa.int64())
    return pa.table({"url": url, "authority": s, "hub": s})


def _hits_update(edges_b: list, state_b: list, scale: int, route,
                 col: str) -> list:
    """``col`` = rescaled sum over this edge copy of the sender's
    score; ``route`` = (sender endpoint, receiver endpoint, score)."""
    outs = superstep(edges_b, state_b, partial(_hits_scatter, *route),
                     partial(_hits_gather, col), returns=2)
    m = max(max(ray.get([o[1] for o in outs])), 1)
    return gather(partial(_hits_rescale, col, scale, m),
                  [o[0] for o in outs])


def _hits_scatter(key_col: str, out_col: str, val_col: str, nb: int,
                  edges: pa.Table, state: pa.Table) -> list:
    """Each edge of this copy carries its key endpoint's score (the
    key endpoint's state row is in this bucket) to the other end."""
    idx = np.searchsorted(_urls(state), _urls(edges, key_col))
    msg = pa.table({
        "url": edges[out_col],
        "val": pa.array(state[val_col].to_numpy(zero_copy_only=False)[idx],
                        pa.int64())})
    return split_by_hash(msg, "url", nb)


def _hits_gather(col: str, state: pa.Table, inbox: list):
    raw = _sum_into(state, inbox)
    return _set(state, col, raw), int(raw.max()) if len(raw) else 0


def _hits_rescale(col: str, scale: int, m: int, state: pa.Table) -> pa.Table:
    val = state[col].to_numpy(zero_copy_only=False)
    if len(val) and int(val.max()) > (2**63 - 1) // scale:
        raise OverflowError(
            "hits: raw score * scale exceeds int64 — lower `scale`")
    return _set(state, col, val * scale // m)


def persist_edges(links: ray.data.Dataset, edges_path: str, *,
                  num_buckets: int = 32) -> str:
    """Materialize the link graph on disk hive-partitioned by
    ``bucket = hash64(src_url) % num_buckets`` (the same layout as
    ``build_inverted_index``, stages/invindex.py): one ``bucket=<b>/``
    directory per src-hash bucket plus a ``meta.json`` recording the
    modulus. At 100 TB the edge table lives here, not in the object
    store — each BFS hop reads ONLY the buckets its frontier hashes to.

    Idempotent/resumable: an existing layout (meta.json present) is
    reused as-is, so a restarted crawl never rebuilds the graph.
    """
    import json
    import os

    meta_p = os.path.join(edges_path, "meta.json")
    if os.path.exists(meta_p):
        with open(meta_p) as f:
            have = json.load(f)["num_buckets"]
        if have != num_buckets:
            raise ValueError(
                "existing edge layout at %s has num_buckets=%d, asked %d"
                % (edges_path, have, num_buckets))
        return edges_path
    keyed = links.map_batches(_key_links(num_buckets),
                              batch_format="pyarrow", batch_size=None)
    keyed.drop_columns(["side"]).write_parquet(
        edges_path, partition_cols=["bucket"])
    with open(meta_p, "w") as f:
        json.dump({"num_buckets": num_buckets}, f)
    return edges_path


def _distinct_urls(tbls) -> pa.Array:
    arrs = [t["url"].combine_chunks().cast(pa.string())
            for t in tbls if t.num_rows]
    if not arrs:
        return pa.array([], pa.string())
    return pc.unique(pa.concat_arrays(arrs))


def _url_buckets(nb: int, *tbls: pa.Table) -> list:
    """A hop's distinct survivor urls split by src-hash bucket, plus
    the per-bucket row counts (the only thing the driver reads — the
    slices stay in the object store)."""
    parts = split_by_hash(pa.table({"url": _distinct_urls(tbls)}),
                          "url", nb)
    return parts + [np.array([p.num_rows for p in parts], np.int64)]


@ray.remote
def _probe_disk_bucket(paths: list, fslice: pa.Table) -> pa.Table:
    """Read ONE edge bucket from its hive partition files and emit the
    distinct dsts of links whose src is in the bucket's frontier slice
    (exact string membership — bucket routing uses the hash, the join
    predicate does not)."""
    import pyarrow.parquet as pq

    if fslice.num_rows == 0 or not paths:
        return pa.table({"url": pa.array([], pa.string())})
    frontier = fslice["url"].combine_chunks()
    outs = []
    for p in paths:
        t = pq.read_table(p, columns=["key_url", "dst_url"])
        hit = pc.is_in(t["key_url"], value_set=frontier)
        outs.append(t.filter(hit)["dst_url"].combine_chunks())
    dst = pc.unique(pa.concat_arrays(outs))
    return pa.table({"url": dst.cast(pa.string())})


def crawl_bfs(links: ray.data.Dataset, seeds: ray.data.Dataset, *,
              max_hops: int = 4, num_buckets: int = 32,
              num_shards: int = 8, n_bits: int = 1 << 22,
              broadcast_threshold: int = 200_000,
              url_col: str = "url", exact: bool = False,
              edges_path: str | None = None,
              stats: dict | None = None) -> ray.data.Dataset:
    """Breadth-first crawl expansion: (url, hop) with hop = the BFS
    level at which ``url`` was first reached (seeds are hop 0).

    Equivalent relation (the SQL oracle): min-hop over the hop-capped
    transitive closure of the link graph from the seed set. First-seen
    dedup runs through the sharded seen-set actor pool — the same
    state a resumable multi-round crawl would checkpoint.

    **Probabilistic by default**: the seen set is a Bloom filter
    (``exact=False``), so a false positive silently drops a URL — and
    with it every page reachable ONLY through that URL (FP-induced
    subtree loss). The FP rate grows as the crawl's unique-URL count
    approaches filter capacity (~``n_bits / 14`` URLs at k=7 for ~1e-4
    FP); size ``n_bits`` to at least ~20 bits per expected frontier URL
    or pass ``exact=True`` to keep the exact hash set alongside the
    bitmap (memory O(unique URLs), zero FPs — what the oracle-checked
    catalog entry uses at fixture scale).

    Per-hop join policy with in-memory edges (same auto-select as the
    content join, pipelines/warcout.py): a frontier at or under
    ``broadcast_threshold`` rows is reduced to a value-set object (in a
    task — the driver never touches rows) and probed against each link
    block (one task round, no exchange); a larger frontier goes through
    the hash-bucket exchange keyed by ``hash64(src_url)``.

    **Scale path** (``edges_path`` set): the edge table is persisted
    ONCE via :func:`persist_edges` as hive-partitioned Parquet keyed by
    ``hash64(src_url) % num_buckets`` and each hop reads ONLY the
    buckets the frontier hashes to (prune-at-read, the
    ``search_index`` pattern from stages/invindex.py) — the graph never
    sits in the object store across hops. Pass ``stats`` to receive
    per-hop ``{"buckets_read", "buckets_total", "frontier"}`` lineage
    (what the pruning test asserts on).

    The hop loop runs as direct task rounds over block refs (the
    stages/exchange.py pattern) rather than one streaming-executor
    launch per hop: at fixture scale each executor launch costs ~1 s of
    fixed latency x hops, which dominated an iterative operator whose
    per-hop kernel work is milliseconds. The driver holds only refs and
    per-hop counts.
    """
    import glob as _glob
    import os

    if max_hops < 0:
        raise ValueError("max_hops must be >= 0")
    seen = ShardedSeenSet(num_shards=num_shards, n_bits=n_bits,
                          exact=exact)
    gate = SeenFilterStage(seen)

    bucket_paths: list[list] = []
    link_refs: list = []
    linksk = None
    if edges_path is not None:
        persist_edges(links, edges_path, num_buckets=num_buckets)
        bucket_paths = [
            sorted(_glob.glob(os.path.join(
                edges_path, "bucket=%d" % b, "*.parquet")))
            for b in range(num_buckets)]
    else:
        linksk = links.map_batches(_key_links(num_buckets),
                                   batch_format="pyarrow",
                                   batch_size=None).materialize()
        link_refs = linksk.to_arrow_refs()
    keyf = _key_frontier(num_buckets)

    frontier_refs = [r for r in
                     (seeds.select_columns([url_col]).materialize()
                      .to_arrow_refs())]
    survivors: list = []
    for hop in range(max_hops + 1):
        gated = [_gate_block.options(num_returns=2).remote(
            gate, url_col if hop == 0 else "url", hop, r)
            for r in frontier_refs]
        counts = ray.get([g[1] for g in gated])
        total = int(sum(counts))
        if total == 0:
            break
        hop_refs = [g[0] for g, n in zip(gated, counts) if n]
        survivors.extend(hop_refs)
        if hop == max_hops:
            break
        if edges_path is not None:
            parts = fan_out(_url_buckets, num_buckets + 1, num_buckets,
                            *hop_refs)
            bc = ray.get(parts[-1])
            touched = [b for b in range(num_buckets)
                       if bc[b] and bucket_paths[b]]
            if stats is not None:
                stats.setdefault("hops", []).append({
                    "hop": hop, "frontier": total,
                    "buckets_read": len(touched),
                    "buckets_total": num_buckets})
            frontier_refs = [_probe_disk_bucket.remote(
                bucket_paths[b], parts[b]) for b in touched]
        elif total <= broadcast_threshold:
            fset = _unique_urls.remote(*hop_refs)
            frontier_refs = [_probe_block.remote(lr, fset)
                             for lr in link_refs]
        else:
            both = (ray.data.from_arrow_refs(hop_refs)
                    .map_batches(keyf, batch_format="pyarrow",
                                 batch_size=None)
                    .union(linksk))
            nxt = hash_bucket_apply(both, "bucket", _expand_bucket,
                                    num_buckets=num_buckets)
            frontier_refs = nxt.to_arrow_refs()

    if not survivors:
        return ray.data.from_arrow(pa.table(
            {"url": pa.array([], pa.string()),
             "hop": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(survivors)


@ray.remote(num_returns=2)
def _gate_block(gate, url_col: str, hop: int, tbl: pa.Table):
    """Offer one frontier block to the seen shards (routed actor
    calls happen inside ``gate``); return (survivors + hop stamp,
    row count)."""
    empty = pa.table({"url": pa.array([], pa.string()),
                      "hop": pa.array([], pa.int64())})
    if tbl is None or tbl.num_rows == 0:
        return empty, 0
    url = tbl[url_col].cast(pa.string())
    h = hash64_batch(url).view(np.int64)
    stamped = pa.table({"url": url,
                        "hash64": pa.array(h, pa.int64())})
    out = gate(stamped)
    if out.num_rows == 0:
        return empty, 0
    res = pa.table({
        "url": out["url"].cast(pa.string()),
        "hop": pa.array(np.full(out.num_rows, hop, np.int64),
                        pa.int64()),
    })
    return res, res.num_rows


@ray.remote
def _unique_urls(*tbls: pa.Table):
    """Distinct url value set of the hop's survivor blocks (stays in
    the object store; the probe round reads it by ref)."""
    return _distinct_urls(tbls)


@ray.remote
def _probe_block(link_tbl: pa.Table, value_set) -> pa.Table:
    """Distinct dsts of one link block whose src is in the frontier
    value set (exact string membership)."""
    if link_tbl.num_rows == 0 or len(value_set) == 0:
        return pa.table({"url": pa.array([], pa.string())})
    hit = pc.is_in(link_tbl["key_url"], value_set=value_set)
    dst = pc.unique(link_tbl.filter(hit)["dst_url"].combine_chunks())
    return pa.table({"url": dst.cast(pa.string())})


def host_graph(links: ray.data.Dataset, *,
               num_buckets: int = 32) -> ray.data.Dataset:
    """Contract the url-level link graph to the host level:
    (src_host, dst_host, n_links). The crawl-budgeting view — which
    hosts point at which, and how hard.

    Map-side partial aggregation: each block folds its rows to distinct
    (src_host, dst_host) pairs with counts BEFORE the shuffle, so the
    exchange moves one row per distinct pair per block (a boilerplate
    site linking a CDN a million times costs its block one row), then
    one pair-bucket exchange sums the partials.
    """
    nbu = np.uint64(num_buckets)

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        sch = pa.schema([("_pb", pa.int64()), ("src_host", pa.string()),
                         ("dst_host", pa.string()), ("n_links", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        agg = (
            pl.from_arrow(batch.select(["src_url", "dst_host"]))
            .with_columns(pl.col("src_url").str.extract(_HOST_RE, 1)
                          .alias("src_host"))
            .group_by(["src_host", "dst_host"])
            .agg(pl.len().cast(pl.Int64).alias("n_links"))
            .with_columns(pl.concat_str(["src_host", "dst_host"],
                                        separator="\x00").alias("pair"))
            .to_arrow()
        )
        pb = (hash64_batch(agg["pair"].combine_chunks())
              % nbu).astype(np.int64)
        return pa.table({
            "_pb": pa.array(pb, pa.int64()),
            "src_host": agg["src_host"].cast(pa.string()),
            "dst_host": agg["dst_host"].cast(pa.string()),
            "n_links": agg["n_links"].cast(pa.int64()),
        })

    def reduce_pairs(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("src_host", pa.string()),
                         ("dst_host", pa.string()),
                         ("n_links", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        s = tbl["src_host"].to_numpy(zero_copy_only=False)
        d = tbl["dst_host"].to_numpy(zero_copy_only=False)
        n = tbl["n_links"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, s))
        s, d, n = s[order], d[order], n[order]
        new = np.ones(len(s), bool)
        new[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        ps = np.flatnonzero(new)
        return pa.table({
            "src_host": pa.array(s[ps], pa.string()),
            "dst_host": pa.array(d[ps], pa.string()),
            "n_links": pa.array(np.add.reduceat(n, ps).astype(np.int64),
                                pa.int64()),
        })

    partials = links.map_batches(partial, batch_format="pyarrow",
                                 batch_size=None)
    return hash_bucket_apply(partials, "_pb", reduce_pairs,
                             num_buckets=num_buckets)


# Full anchor tag (href + visible text), fixture quote convention —
# same caveat as HREF_RE: real HTML would widen this.
ANCHOR_TAG_RE = r"<a href='[^']*'>[^<]*</a>"

# meta-robots directive tag + rel-carrying anchor (fixture quote
# convention, optional rel before href — same caveat as HREF_RE)
META_ROBOTS_RE = r"<meta name='robots' content='([^']*)'>"
_REL_ANCHOR_RE = r"<a (?:rel='[^']*' )?href='[^']*'>"

_META_SCHEMA = pa.schema([("url", pa.string()),
                          ("noindex", pa.bool_()),
                          ("nofollow", pa.bool_())])


def parse_meta_robots_batch(batch: pa.Table, url_col: str = "url",
                            text_col: str = "text") -> pa.Table:
    """Page-level robots directives -> ``(url, noindex, nofollow)``.

    The ``<meta name=robots>`` tag is the page-granularity half of the
    robots protocol (robots.txt gates FETCHING, the meta tag gates
    INDEXING and link FOLLOWING — the crawler must fetch the page to
    learn it). Directive grammar per the de-facto REP: the content
    attribute is a comma-separated, case-insensitive token list;
    ``noindex`` / ``nofollow`` set their flag, ``none`` sets both,
    anything else (incl. ``all``) sets neither; a page without the
    tag is fully permissive. One vectorized pass, zero shuffles.
    """
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    if batch.num_rows == 0:
        return _META_SCHEMA.empty_table()
    df = pl.from_arrow(batch.select([url_col, text_col]))
    if url_col != "url":
        df = df.rename({url_col: "url"})
    toks = (pl.col(text_col).str.extract(META_ROBOTS_RE, 1)
            .str.to_lowercase().str.split(",")
            .list.eval(pl.element().str.strip_chars()))
    df = (df.with_columns(_t=toks)
          .with_columns(
              noindex=pl.col("_t").list.contains("noindex")
              | pl.col("_t").list.contains("none"),
              nofollow=pl.col("_t").list.contains("nofollow")
              | pl.col("_t").list.contains("none"))
          .with_columns(noindex=pl.col("noindex").fill_null(False),
                        nofollow=pl.col("nofollow").fill_null(False))
          .drop([text_col, "_t"]))
    return df.to_arrow().select(["url", "noindex", "nofollow"]) \
        .cast(_META_SCHEMA)


def mutual_links(links: ray.data.Dataset, *, src_col: str = "src_url",
                 dst_col: str = "dst_url",
                 num_buckets: int = 32) -> ray.data.Dataset:
    """Reciprocal-edge mining: the distinct unordered pairs {a, b}
    linked in BOTH directions — the classic link-farm / link-exchange
    signal (reciprocity far above baseline marks collusive linking;
    PageRank-style priorities over-credit it). Output one row per
    mutual pair: ``(url_a, url_b)`` with ``url_a < url_b``.

    Dataflow: each block folds its edges to distinct normalized pairs
    carrying a direction bitmask (lo->hi = 1, hi->lo = 2) BEFORE the
    shuffle; one pair-bucket exchange ORs the masks — a pair is mutual
    iff its mask reaches 3. Self loops never qualify. The shuffle
    moves one narrow row per distinct pair per block, never pages.
    """
    nbu = np.uint64(num_buckets)
    part_sch = pa.schema([("lo", pa.string()), ("hi", pa.string()),
                          ("m", pa.int64()), ("_pb", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_sch.empty_table()
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(str)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(str)
        keep = s != d
        s, d = s[keep], d[keep]
        fwd = s < d
        lo = np.where(fwd, s, d)
        hi = np.where(fwd, d, s)
        m = np.where(fwd, 1, 2).astype(np.int64)
        order = np.lexsort((m, hi, lo))
        lo, hi, m = lo[order], hi[order], m[order]
        new = np.ones(len(lo), bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.flatnonzero(new)
        mm = np.bitwise_or.reduceat(m, starts) if len(starts) else m[:0]
        lo, hi = lo[starts], hi[starts]
        h = hash64_batch(pa.array(
            np.char.add(np.char.add(lo, "\x00"), hi).tolist(),
            pa.string()))
        return pa.table({
            "lo": pa.array(lo.tolist(), pa.string()),
            "hi": pa.array(hi.tolist(), pa.string()),
            "m": pa.array(mm),
            "_pb": pa.array((h % nbu).astype(np.int64)),
        })

    def merge(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("url_a", pa.string()), ("url_b", pa.string())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        lo = tbl["lo"].to_numpy(zero_copy_only=False).astype(str)
        hi = tbl["hi"].to_numpy(zero_copy_only=False).astype(str)
        m = tbl["m"].to_numpy(zero_copy_only=False)
        order = np.lexsort((hi, lo))
        lo, hi, m = lo[order], hi[order], m[order]
        new = np.ones(len(lo), bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.flatnonzero(new)
        mm = np.bitwise_or.reduceat(m, starts)
        sel = starts[mm == 3]
        return pa.table({"url_a": pa.array(lo[sel].tolist(), pa.string()),
                         "url_b": pa.array(hi[sel].tolist(), pa.string())})

    parts = links.map_batches(partial, batch_format="pyarrow",
                              batch_size=None)
    return hash_bucket_apply(parts, "_pb", merge,
                             num_buckets=num_buckets)


def co_link_pairs(links: ray.data.Dataset, *,
                  mode: str = "cocitation",
                  src_col: str = "src_url", dst_col: str = "dst_url",
                  min_shared: int = 2, max_fanout: int = 256,
                  num_buckets: int = 32) -> ray.data.Dataset:
    """Co-citation / bibliographic-coupling pair mining over the link
    graph — the similarity signals PageRank's single score ignores:

    * ``mode='cocitation'`` (Small 1973): pairs of DESTINATIONS cited
      by the same source page — pages that co-occur in link lists are
      topically related (key = src, items = dst).
    * ``mode='coupling'`` (Kessler 1963): pairs of SOURCES citing the
      same destination — pages sharing references (key = dst,
      items = src).

    Output one row per distinct unordered pair: ``(url_a, url_b,
    n_shared)`` with ``url_a < url_b`` and ``n_shared`` = number of
    distinct shared keys, filtered to ``>= min_shared``. A key fanning
    out to more than ``max_fanout`` items is navigation/boilerplate —
    dropped loudly (the LSH-band guard; it would emit O(fanout²)
    pairs).

    Dataflow (the containment_pairs shape): per-block distinct
    (key, item) rows -> one key-bucket exchange emits each key's item
    pairs under the cap -> one pair-bucket exchange counts
    multiplicity (= distinct shared keys, since each key lives whole
    in one bucket and (key, item) rows are deduped there). Pages never
    shuffle — only narrow url-pair rows move.
    """
    if mode == "cocitation":
        k_col, v_col = src_col, dst_col
    elif mode == "coupling":
        k_col, v_col = dst_col, src_col
    else:
        raise ValueError("mode must be 'cocitation' or 'coupling'")
    nbu = np.uint64(num_buckets)

    def kv(batch: pa.Table) -> pa.Table:
        sch = pa.schema([("k", pa.string()), ("v", pa.string()),
                         ("_b", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        k = batch[k_col].to_numpy(zero_copy_only=False).astype(str)
        v = batch[v_col].to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((v, k))
        k, v = k[order], v[order]
        new = np.ones(len(k), bool)
        new[1:] = (k[1:] != k[:-1]) | (v[1:] != v[:-1])
        k, v = k[new], v[new]
        return pa.table({
            "k": pa.array(k.tolist(), pa.string()),
            "v": pa.array(v.tolist(), pa.string()),
            "_b": pa.array((hash64_batch(pa.array(k.tolist(),
                                                  pa.string()))
                            % nbu).astype(np.int64)),
        })

    rows = links.map_batches(kv, batch_format="pyarrow",
                             batch_size=None)

    def emit_pairs(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("a", pa.string()), ("b", pa.string()),
                         ("_pb", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        k = tbl["k"].to_numpy(zero_copy_only=False).astype(str)
        v = tbl["v"].to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((v, k))
        k, v = k[order], v[order]
        new = np.ones(len(k), bool)
        new[1:] = (k[1:] != k[:-1]) | (v[1:] != v[:-1])
        k, v = k[new], v[new]
        run = np.ones(len(k), bool)
        run[1:] = k[1:] != k[:-1]
        st = np.flatnonzero(run)
        ln = np.diff(np.r_[st, len(k)])
        big = ln > max_fanout
        if big.any():
            LOGGER.warning(
                "co_link_pairs: %d keys fanning out to > %d items "
                "dropped as navigation boilerplate", int(big.sum()),
                max_fanout)
        a_all, b_all = [], []
        for s, n in zip(st[~big].tolist(), ln[~big].tolist()):
            if n < 2:
                continue
            grp = v[s:s + n]   # sorted within the key run
            ii, jj = np.triu_indices(n, k=1)
            a_all.append(grp[ii])
            b_all.append(grp[jj])
        if not a_all:
            return sch.empty_table()
        a = np.concatenate(a_all)
        b = np.concatenate(b_all)
        h = hash64_batch(pa.array(
            np.char.add(np.char.add(a, "\x00"), b).tolist(),
            pa.string()))
        return pa.table({
            "a": pa.array(a.tolist(), pa.string()),
            "b": pa.array(b.tolist(), pa.string()),
            "_pb": pa.array((h % nbu).astype(np.int64)),
        })

    pairs = hash_bucket_apply(rows, "_b", emit_pairs,
                              num_buckets=num_buckets)

    def reduce_pairs(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("url_a", pa.string()), ("url_b", pa.string()),
                         ("n_shared", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        a = tbl["a"].to_numpy(zero_copy_only=False).astype(str)
        b = tbl["b"].to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        new = np.ones(len(a), bool)
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        st = np.flatnonzero(new)
        n = np.diff(np.r_[st, len(a)]).astype(np.int64)
        keep = n >= min_shared
        st, n = st[keep], n[keep]
        return pa.table({
            "url_a": pa.array(a[st].tolist(), pa.string()),
            "url_b": pa.array(b[st].tolist(), pa.string()),
            "n_shared": pa.array(n),
        })

    return hash_bucket_apply(pairs, "_pb", reduce_pairs,
                             num_buckets=num_buckets)


def triangle_counts(links: ray.data.Dataset, *,
                    src_col: str = "src_url", dst_col: str = "dst_url",
                    num_buckets: int = 32) -> ray.data.Dataset:
    """Distributed triangle counting over the UNDIRECTED link graph —
    the local-clustering signal (link farms and template networks are
    triangle-dense; organic link neighborhoods are sparse). Output one
    row per node that closes >= 1 triangle: ``(url, n_triangles)``.

    The classic degree-oriented algorithm (Schank & Wagner 2005 /
    MapReduce NodeIterator++): orient every undirected edge from the
    lower-(degree, url) endpoint to the higher, so each triangle is
    counted EXACTLY once as a wedge at its lowest vertex, and the
    wedge count is bounded by sum(d_out^2) with d_out <= sqrt(2m) —
    the skew bound that makes web-scale counting feasible (a 10^6-
    degree hub generates no wedges because its edges all point INTO
    it).

    Exchanges (all narrow url-pair rows; pages never move, and no
    graph-sized state ever lands on the driver):
    1. distinct undirected edges per block -> edge-bucket exchange
       dedups cross-block;
    2. endpoint-request exchange keyed by hash(url): a bucket holds
       every edge occurrence of its urls, so degrees are counted AND
       attached in place; a pair-keyed merge then orients each edge
       from its lower-(degree, url) endpoint;
    3. wedges emitted per src bucket, keyed by the CLOSING pair,
       joined against the oriented edge set in the same buckets;
    4. found triangles emit one row per corner -> per-node count.
    """
    nbu = np.uint64(num_buckets)

    def und_edges(batch: pa.Table) -> pa.Table:
        sch = pa.schema([("lo", pa.string()), ("hi", pa.string()),
                         ("_b", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(str)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(str)
        keep = s != d
        s, d = s[keep], d[keep]
        fwd = s < d
        lo = np.where(fwd, s, d)
        hi = np.where(fwd, d, s)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        new = np.ones(len(lo), bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        lo, hi = lo[new], hi[new]
        h = hash64_batch(pa.array(
            np.char.add(np.char.add(lo, "\x00"), hi).tolist(),
            pa.string()))
        return pa.table({
            "lo": pa.array(lo.tolist(), pa.string()),
            "hi": pa.array(hi.tolist(), pa.string()),
            "_b": pa.array((h % nbu).astype(np.int64)),
        })

    def dedup_edges(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("lo", pa.string()), ("hi", pa.string())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        lo = tbl["lo"].to_numpy(zero_copy_only=False).astype(str)
        hi = tbl["hi"].to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        new = np.ones(len(lo), bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return pa.table({"lo": pa.array(lo[new].tolist(), pa.string()),
                         "hi": pa.array(hi[new].tolist(), pa.string())})

    edges = hash_bucket_apply(
        links.map_batches(und_edges, batch_format="pyarrow",
                          batch_size=None),
        "_b", dedup_edges, num_buckets=num_buckets).materialize()

    # degree attach, fully distributed (VERDICT r4 item 2): each edge
    # emits one request row per endpoint keyed by hash(url). A bucket
    # then holds EVERY edge occurrence of its urls, so deg(url) is the
    # bucket-local occurrence count — computed and attached in the
    # same exchange. No O(nodes) driver dict and no broadcast of the
    # degree table; at web scale the degrees live only inside their
    # buckets.
    def endpoint_rows(batch: pa.Table) -> pa.Table:
        sch = pa.schema([("url", pa.string()), ("lo", pa.string()),
                         ("hi", pa.string()), ("side", pa.int8()),
                         ("_b", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        lo = batch["lo"].combine_chunks()
        hi = batch["hi"].combine_chunks()
        u = pa.concat_arrays([lo.cast(pa.string()),
                              hi.cast(pa.string())])
        n = len(lo)
        return pa.table({
            "url": u,
            "lo": pa.concat_arrays([lo, lo]),
            "hi": pa.concat_arrays([hi, hi]),
            "side": pa.array(np.r_[np.zeros(n, np.int8),
                                   np.ones(n, np.int8)]),
            "_b": pa.array((hash64_batch(u) % nbu).astype(np.int64)),
        })

    def attach_deg(tbl: pa.Table) -> pa.Table:
        """deg(url) = occurrences of url across the deduped edge set
        == this bucket's row count per url; each request row gets its
        endpoint's degree and re-keys by the undirected pair for the
        orientation merge."""
        sch = pa.schema([("lo", pa.string()), ("hi", pa.string()),
                         ("side", pa.int8()), ("deg", pa.int64()),
                         ("_b2", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        enc = tbl["url"].combine_chunks().dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(idx, minlength=len(enc.dictionary))
        lo = tbl["lo"].to_numpy(zero_copy_only=False).astype(str)
        hi = tbl["hi"].to_numpy(zero_copy_only=False).astype(str)
        pair = np.char.add(np.char.add(lo, "\x00"), hi)
        h = (hash64_batch(pa.array(pair.tolist(), pa.string()))
             % nbu).astype(np.int64)
        return pa.table({
            "lo": tbl["lo"], "hi": tbl["hi"], "side": tbl["side"],
            "deg": pa.array(cnt[idx].astype(np.int64)),
            "_b2": pa.array(h),
        })

    def orient_pair(tbl: pa.Table) -> pa.Table:
        """Both endpoint-degree rows of a pair meet here: orient the
        edge from the lower-(degree, url) endpoint, emit the kind-0
        (oriented edge, keyed by hash(src)) and kind-1 (closing edge
        set, keyed by hash of the undirected pair) rows the wedge
        stages consume."""
        sch = pa.schema([("kind", pa.int8()), ("a", pa.string()),
                         ("b", pa.string()), ("_b", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        lo = tbl["lo"].to_numpy(zero_copy_only=False).astype(str)
        hi = tbl["hi"].to_numpy(zero_copy_only=False).astype(str)
        side = tbl["side"].to_numpy(zero_copy_only=False)
        deg = tbl["deg"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, hi, lo))
        lo, hi = lo[order], hi[order]
        deg, side = deg[order], side[order]
        if len(lo) % 2:
            raise AssertionError(
                "triangle orientation bucket lost a degree row — the "
                "endpoint and pair exchanges must share hash64 and "
                "num_buckets (co-location invariant)")
        ev = np.arange(0, len(lo), 2)
        od = ev + 1
        if not ((side[ev] == 0).all() and (side[od] == 1).all()
                and (lo[ev] == lo[od]).all()
                and (hi[ev] == hi[od]).all()):
            raise AssertionError(
                "triangle orientation bucket pairing broken — the "
                "endpoint and pair exchanges must share hash64 and "
                "num_buckets (co-location invariant)")
        plo, phi = lo[ev], hi[ev]
        dlo, dhi = deg[ev], deg[od]
        fwd = (dlo < dhi) | ((dlo == dhi) & (plo < phi))
        src = np.where(fwd, plo, phi)
        dst = np.where(fwd, phi, plo)
        # kind 0: oriented edge row keyed by hash(src) (for wedges);
        # kind 1: closing-edge row keyed by hash of the UNDIRECTED
        # pair key (lo\x00hi) — wedges use the same key
        pair = np.char.add(np.char.add(plo, "\x00"), phi)
        hsrc = (hash64_batch(pa.array(src.tolist(), pa.string()))
                % nbu).astype(np.int64)
        hpair = (hash64_batch(pa.array(pair.tolist(), pa.string()))
                 % nbu).astype(np.int64)
        return pa.table({
            "kind": pa.array(np.r_[np.zeros(len(src), np.int8),
                                   np.ones(len(plo), np.int8)]),
            "a": pa.array(np.r_[src, plo].tolist(), pa.string()),
            "b": pa.array(np.r_[dst, phi].tolist(), pa.string()),
            "_b": pa.array(np.r_[hsrc, hpair]),
        })

    def wedge_emit(tbl: pa.Table) -> pa.Table:
        """kind-0 rows grouped by src -> wedges keyed by the closing
        undirected pair; kind-1 rows pass through (they are already
        keyed by their pair)."""
        sch = pa.schema([("kind", pa.int8()), ("a", pa.string()),
                         ("b", pa.string()), ("c", pa.string()),
                         ("_b2", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        kind = tbl["kind"].to_numpy(zero_copy_only=False)
        ed = tbl.filter(pa.array(kind == 0))
        cl = tbl.filter(pa.array(kind == 1))
        parts = []
        if cl.num_rows:
            lo = cl["a"].to_numpy(zero_copy_only=False).astype(str)
            hi = cl["b"].to_numpy(zero_copy_only=False).astype(str)
            pair = np.char.add(np.char.add(lo, "\x00"), hi)
            h = (hash64_batch(pa.array(pair.tolist(), pa.string()))
                 % nbu).astype(np.int64)
            parts.append(pa.table({
                "kind": pa.array(np.ones(len(lo), np.int8)),
                "a": cl["a"], "b": cl["b"],
                "c": pa.array([""] * len(lo), pa.string()),
                "_b2": pa.array(h),
            }))
        if ed.num_rows:
            s = ed["a"].to_numpy(zero_copy_only=False).astype(str)
            d = ed["b"].to_numpy(zero_copy_only=False).astype(str)
            order = np.lexsort((d, s))
            s, d = s[order], d[order]
            run = np.ones(len(s), bool)
            run[1:] = s[1:] != s[:-1]
            st = np.flatnonzero(run)
            ln = np.diff(np.r_[st, len(s)])
            wa, wb, wc = [], [], []
            for o, n in zip(st.tolist(), ln.tolist()):
                if n < 2:
                    continue
                grp = d[o:o + n]      # sorted neighbors
                ii, jj = np.triu_indices(n, k=1)
                wa.append(np.full(len(ii), s[o], object))
                wb.append(grp[ii])
                wc.append(grp[jj])
            if wa:
                a = np.concatenate(wa).astype(str)
                b = np.concatenate(wb)
                c = np.concatenate(wc)
                pair = np.char.add(np.char.add(b, "\x00"), c)
                h = (hash64_batch(pa.array(pair.tolist(), pa.string()))
                     % nbu).astype(np.int64)
                parts.append(pa.table({
                    "kind": pa.array(np.zeros(len(a), np.int8)),
                    "a": pa.array(a.tolist(), pa.string()),
                    "b": pa.array(b.tolist(), pa.string()),
                    "c": pa.array(c.tolist(), pa.string()),
                    "_b2": pa.array(h),
                }))
        if not parts:
            return sch.empty_table()
        return pa.concat_tables(parts)

    def close_join(tbl: pa.Table) -> pa.Table:
        """Wedge (a; b, c) is a triangle iff undirected pair (b, c)
        is an edge — both sides share this bucket. Emit one row per
        triangle corner."""
        sch = pa.schema([("url", pa.string()), ("_b3", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        kind = tbl["kind"].to_numpy(zero_copy_only=False)
        cl = tbl.filter(pa.array(kind == 1))
        wg = tbl.filter(pa.array(kind == 0))
        if not cl.num_rows or not wg.num_rows:
            return sch.empty_table()
        eset = set(zip(cl["a"].to_pylist(), cl["b"].to_pylist()))
        wa = wg["a"].to_pylist()
        wb = wg["b"].to_pylist()
        wc = wg["c"].to_pylist()
        urls = []
        for x, y, z in zip(wa, wb, wc):
            if (y, z) in eset:
                urls.extend((x, y, z))
        if not urls:
            return sch.empty_table()
        arr = pa.array(urls, pa.string())
        return pa.table({
            "url": arr,
            "_b3": pa.array((hash64_batch(arr) % nbu)
                            .astype(np.int64)),
        })

    def count_corners(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("url", pa.string()),
                         ("n_triangles", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        enc = tbl["url"].combine_chunks().dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(idx, minlength=len(enc.dictionary))
        return pa.table({"url": enc.dictionary.cast(pa.string()),
                         "n_triangles": pa.array(cnt.astype(np.int64))})

    keyed = hash_bucket_apply(
        hash_bucket_apply(
            edges.map_batches(endpoint_rows, batch_format="pyarrow",
                              batch_size=None),
            "_b", attach_deg, num_buckets=num_buckets),
        "_b2", orient_pair, num_buckets=num_buckets)
    wedged = hash_bucket_apply(keyed, "_b", wedge_emit,
                               num_buckets=num_buckets)
    corners = hash_bucket_apply(wedged, "_b2", close_join,
                                num_buckets=num_buckets)
    return hash_bucket_apply(corners, "_b3", count_corners,
                             num_buckets=num_buckets)


CANONICAL_RE = r"<link rel='canonical' href='([^']*)'>"

_CANON_SCHEMA = pa.schema([("url", pa.string()),
                           ("canonical_url", pa.string()),
                           ("is_self", pa.bool_())])


def parse_canonical_batch(batch: pa.Table, url_col: str = "url",
                          text_col: str = "text") -> pa.Table:
    """``<link rel=canonical>`` per page -> ``(url, canonical_url,
    is_self)``: the page's declared canonical target, resolved like
    ``extract_links`` (absolute kept, root-relative resolved against
    the page origin); a page without the tag (or with an unresolvable
    href) is its own canonical. The duplicate-content signal crawlers
    fold BEFORE dedup — aliases of one canonical are one logical page
    regardless of content-byte differences (session ids, timestamps).
    One vectorized pass, zero shuffles."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    if batch.num_rows == 0:
        return _CANON_SCHEMA.empty_table()
    df = pl.from_arrow(batch.select([url_col, text_col]))
    if url_col != "url":
        df = df.rename({url_col: "url"})
    href = pl.col(text_col).str.extract(CANONICAL_RE, 1)
    origin = pl.col("url").str.extract(_ORIGIN_RE, 1)
    canon = (
        pl.when(href.str.contains("://", literal=True))
        .then(href)
        .when(href.str.starts_with("/"))
        .then(origin + href)
        .otherwise(None)
        .fill_null(pl.col("url")))
    df = (df.with_columns(canonical_url=canon)
          .with_columns(is_self=pl.col("canonical_url") == pl.col("url"))
          .drop(text_col))
    return df.to_arrow().select(
        ["url", "canonical_url", "is_self"]).cast(_CANON_SCHEMA)


def canonical_groups(pages: ray.data.Dataset, *, url_col: str = "url",
                     text_col: str = "text", id_col: str = "doc_id",
                     num_buckets: int = 32) -> ray.data.Dataset:
    """Canonical-alias dedup: pages -> one row per declared canonical
    target ``(canonical_url, keeper_doc, n_pages)`` where keeper_doc
    is the min ``id_col`` among the aliases. Per-block partial fold
    (distinct canonical -> min id + count) BEFORE the one
    canonical-keyed exchange — the shuffle moves one narrow row per
    distinct canonical per block, never pages."""

    part_sch = pa.schema([("canonical_url", pa.string()),
                          ("keeper_doc", pa.int64()),
                          ("n_pages", pa.int64()), ("_cb", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_sch.empty_table()
        parsed = parse_canonical_batch(batch, url_col, text_col)
        canon = parsed["canonical_url"].to_numpy(
            zero_copy_only=False).astype(str)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, canon))
        cs = canon[order]
        new_run = np.ones(len(cs), bool)
        new_run[1:] = cs[1:] != cs[:-1]
        starts = np.flatnonzero(new_run)
        n = np.diff(np.r_[starts, len(cs)])
        keep = ids[order][starts]
        cu = cs[starts]
        h = hash64_batch(pa.array(cu.tolist(), pa.string()))
        return pa.table({
            "canonical_url": pa.array(cu.tolist(), pa.string()),
            "keeper_doc": pa.array(keep),
            "n_pages": pa.array(n.astype(np.int64)),
            "_cb": pa.array((h % np.uint64(num_buckets)).astype(np.int64)),
        })

    def merge(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.schema([("canonical_url", pa.string()),
                              ("keeper_doc", pa.int64()),
                              ("n_pages", pa.int64())]).empty_table()
        cu = tbl["canonical_url"].to_numpy(
            zero_copy_only=False).astype(str)
        kd = tbl["keeper_doc"].to_numpy(zero_copy_only=False)
        np_ = tbl["n_pages"].to_numpy(zero_copy_only=False)
        order = np.lexsort((kd, cu))
        cs = cu[order]
        new_run = np.ones(len(cs), bool)
        new_run[1:] = cs[1:] != cs[:-1]
        starts = np.flatnonzero(new_run)
        return pa.table({
            "canonical_url": pa.array(cs[starts].tolist(), pa.string()),
            "keeper_doc": pa.array(kd[order][starts].astype(np.int64)),
            "n_pages": pa.array(
                np.add.reduceat(np_[order], starts).astype(np.int64)),
        })

    partials = pages.map_batches(partial, batch_format="pyarrow",
                                 batch_size=None)
    return hash_bucket_apply(partials, "_cb", merge,
                             num_buckets=num_buckets)


_HREFLANG_TAG_RE = r"<link rel='alternate' hreflang='[^']*' href='[^']*'>"

_HREFLANG_SCHEMA = pa.schema([("url", pa.string()),
                              ("hreflang", pa.string()),
                              ("target", pa.string())])


def parse_hreflang_batch(batch: pa.Table, url_col: str = "url",
                         text_col: str = "text") -> pa.Table:
    """``<link rel=alternate hreflang>`` harvest -> one row per
    declared language alternate: ``(url, hreflang, target)`` — the
    i18n cluster signal (language variants of one page form a group a
    multilingual corpus pipeline keeps together; the lang tag is
    lowercased, ``x-default`` rides through as-is). Targets resolve
    by the extract_links rule; unresolvable hrefs drop. One vectorized
    pass, zero shuffles."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    if batch.num_rows == 0:
        return _HREFLANG_SCHEMA.empty_table()
    df = pl.from_arrow(batch.select([url_col, text_col]))
    if url_col != "url":
        df = df.rename({url_col: "url"})
    out = (
        df.with_columns(
            pl.col(text_col).str.extract_all(_HREFLANG_TAG_RE)
            .alias("tag"))
        .drop(text_col)
        .explode("tag")
        .drop_nulls("tag")
        .with_columns(
            hreflang=pl.col("tag").str.extract(r"hreflang='([^']*)'", 1)
            .str.to_lowercase(),
            href=pl.col("tag").str.extract(r"href='([^']*)'", 1))
        .drop("tag"))
    origin = pl.col("url").str.extract(_ORIGIN_RE, 1)
    target = (
        pl.when(pl.col("href").str.contains("://", literal=True))
        .then(pl.col("href"))
        .when(pl.col("href").str.starts_with("/"))
        .then(origin + pl.col("href"))
        .otherwise(None))
    out = (out.with_columns(target=target)
           .drop("href").drop_nulls("target"))
    return out.to_arrow().select(["url", "hreflang", "target"]) \
        .cast(_HREFLANG_SCHEMA)


def followed_links_batch(batch: pa.Table, url_col: str = "url",
                         text_col: str = "text") -> pa.Table:
    """Policy-aware outlink harvest: ``extract_links`` rows MINUS
    links a crawler must not follow — every link on a page whose
    meta-robots declares ``nofollow`` (or ``none``), and every
    individual anchor carrying ``rel='nofollow'`` (the per-link
    opt-out). Meta parse and link harvest share one vectorized pass
    over the same text batch, so the policy costs no extra scan.

    Output: ``(src_url, dst_url, dst_host)`` — the frontier-safe edge
    set ``crawl_waves`` / ``link_rank`` should consume when the corpus
    carries rel/meta annotations. Resolution rule identical to
    ``extract_links`` (absolute kept, root-relative resolved against
    the origin, rest dropped).
    """
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    if batch.num_rows == 0:
        return _LINK_SCHEMA.empty_table()
    df = pl.from_arrow(batch.select([url_col, text_col]))
    if url_col != "src_url":
        df = df.rename({url_col: "src_url"})
    meta = (pl.col(text_col).str.extract(META_ROBOTS_RE, 1)
            .str.to_lowercase().str.split(",")
            .list.eval(pl.element().str.strip_chars()))
    df = (df.with_columns(_t=meta)
          .with_columns(
              _page_nf=(pl.col("_t").list.contains("nofollow")
                        | pl.col("_t").list.contains("none"))
              .fill_null(False))
          .drop("_t")
          .filter(~pl.col("_page_nf"))
          .drop("_page_nf"))
    out = (
        df.with_columns(
            pl.col(text_col).str.extract_all(_REL_ANCHOR_RE).alias("tag"))
        .drop(text_col)
        .explode("tag")
        .drop_nulls("tag")
        # rel is a space-separated token list ("nofollow noopener")
        .with_columns(_rel=pl.col("tag").str.extract(r"rel='([^']*)'", 1))
        .filter(~pl.col("_rel").str.split(" ")
                .list.contains("nofollow").fill_null(False))
        .with_columns(href=pl.col("tag").str.extract(r"href='([^']*)'", 1))
        .drop(["tag", "_rel"])
    )
    origin = pl.col("src_url").str.extract(_ORIGIN_RE, 1)
    dst = (
        pl.when(pl.col("href").str.contains("://", literal=True))
        .then(pl.col("href"))
        .when(pl.col("href").str.starts_with("/"))
        .then(origin + pl.col("href"))
        .otherwise(None)
    )
    out = (
        out.with_columns(dst.alias("dst_url"))
        .drop("href")
        .drop_nulls("dst_url")
        .with_columns(
            pl.col("dst_url").str.extract(_HOST_RE, 1).alias("dst_host"))
    )
    return out.to_arrow().cast(_LINK_SCHEMA)


def anchor_stats(pages: ray.data.Dataset, *, url_col: str = "url",
                 text_col: str = "text",
                 num_buckets: int = 32) -> ray.data.Dataset:
    """Inbound anchor-text aggregation per link target — the classic
    web-graph relevance signal (anchor text describes the TARGET, not
    the source; reference users compose it by hand from obj.content
    loops, reference __init__.py:122-127).

    Output per dst_url: ``n_refs`` (inbound anchor count), ``n_src_hosts``
    (distinct referring hosts), ``top_anchor`` (most frequent anchor
    text; ties -> lexicographically smallest, so the result is
    arrival-order independent and SQL-checkable), ``top_anchor_refs``.

    Dataflow: a vectorized harvest pass extracts whole anchor tags and
    resolves hrefs exactly like ``extract_links`` (absolute kept,
    root-relative resolved against the page origin, rest dropped),
    then folds each block to distinct (dst_url, src_host, anchor)
    partial counts BEFORE the shuffle; one dst-keyed exchange merges
    the partials and ranks anchors per target. Page text never
    shuffles — only the narrow partial-count stream does.
    """
    nbu = np.uint64(num_buckets)

    part_sch = pa.schema([("_db", pa.int64()), ("dst_url", pa.string()),
                          ("src_host", pa.string()),
                          ("anchor", pa.string()), ("c", pa.int64())])

    def harvest(batch: pa.Table) -> pa.Table:
        import polars as pl

        if batch.num_rows == 0:
            return part_sch.empty_table()
        df = pl.from_arrow(batch.select([url_col, text_col]))
        if url_col != "src_url":
            df = df.rename({url_col: "src_url"})
        out = (
            df.with_columns(
                pl.col(text_col).str.extract_all(ANCHOR_TAG_RE)
                .alias("tag"))
            .drop(text_col)
            .explode("tag")
            .drop_nulls("tag")
            .with_columns(
                href=pl.col("tag").str.extract(r"href='([^']*)'", 1),
                anchor=pl.col("tag").str.extract(r">([^<]*)</a>", 1))
            .drop("tag")
        )
        origin = pl.col("src_url").str.extract(_ORIGIN_RE, 1)
        dst = (
            pl.when(pl.col("href").str.contains("://", literal=True))
            .then(pl.col("href"))
            .when(pl.col("href").str.starts_with("/"))
            .then(origin + pl.col("href"))
            .otherwise(None)
        )
        agg = (
            out.with_columns(dst.alias("dst_url"))
            .drop_nulls("dst_url")
            .with_columns(pl.col("src_url").str.extract(_HOST_RE, 1)
                          .alias("src_host"))
            .group_by(["dst_url", "src_host", "anchor"])
            .agg(pl.len().cast(pl.Int64).alias("c"))
            .to_arrow()
        )
        if agg.num_rows == 0:
            return part_sch.empty_table()
        db = (hash64_batch(agg["dst_url"].combine_chunks())
              % nbu).astype(np.int64)
        return pa.table({
            "_db": pa.array(db, pa.int64()),
            "dst_url": agg["dst_url"].cast(pa.string()),
            "src_host": agg["src_host"].cast(pa.string()),
            "anchor": agg["anchor"].cast(pa.string()),
            "c": agg["c"].cast(pa.int64()),
        })

    out_sch = pa.schema([("dst_url", pa.string()), ("n_refs", pa.int64()),
                         ("n_src_hosts", pa.int64()),
                         ("top_anchor", pa.string()),
                         ("top_anchor_refs", pa.int64())])

    def per_target(tbl: pa.Table) -> pa.Table:
        import polars as pl

        if tbl.num_rows == 0:
            return out_sch.empty_table()
        df = pl.from_arrow(tbl.select(
            ["dst_url", "src_host", "anchor", "c"]))
        tot = df.group_by("dst_url").agg(
            n_refs=pl.col("c").sum(),
            n_src_hosts=pl.col("src_host").n_unique().cast(pl.Int64))
        top = (
            df.group_by(["dst_url", "anchor"]).agg(pl.col("c").sum())
            .sort(["dst_url", "c", "anchor"],
                  descending=[False, True, False])
            .group_by("dst_url", maintain_order=True)
            .first()
            .rename({"anchor": "top_anchor", "c": "top_anchor_refs"})
        )
        return (tot.join(top, on="dst_url")
                .select(["dst_url", "n_refs", "n_src_hosts",
                         "top_anchor", "top_anchor_refs"])
                .to_arrow().cast(out_sch))

    partials = pages.map_batches(harvest, batch_format="pyarrow",
                                 batch_size=None, zero_copy_batch=True)
    return hash_bucket_apply(partials, "_db", per_target,
                             num_buckets=num_buckets)


def rank_prioritized_seeds(pages: ray.data.Dataset, *,
                           url_col: str = "url", text_col: str = "text",
                           crawl_delay_ms: int = 1000,
                           num_buckets: int = 32) -> ray.data.Dataset:
    """Link-popularity crawl priorities: seed URLs tiered by their
    in-degree in the page-local link graph (the cheap one-pass stand-in
    for ``link_rank`` when one hop of evidence is enough). Emits the
    frontier scheduler's input contract — ``(urlkey=url, url, host,
    hash64, in_degree, priority, seed_order, crawl_delay_ms,
    robots_blocked)`` with priority = 3 - min(in_degree, 3) (tier 0 =
    most-linked) and seed_order = hash64(url) >> 1 (deterministic,
    collision-safe at 63 bits).

    Dataflow: ONE url-keyed exchange fuses three steps — seed dedup
    (distinct page URLs), in-degree aggregation (link dst rows are
    pre-counted per block, so the exchange moves one (url, count) row
    per distinct dst per block), and the seed ⋈ in-degree join (both
    sides land in the same bucket by construction). No driver
    materialization, no broadcast side.
    """
    nbu = np.uint64(num_buckets)

    pair_sch = pa.schema([("_b", pa.int64()), ("url", pa.string()),
                          ("side", pa.int8()), ("cnt", pa.int64())])

    def fold(col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pair_sch.empty_table()
            u = batch[col].to_numpy(zero_copy_only=False)
            uu, cnt = np.unique(u, return_counts=True)
            b = (hash64_batch(uu) % nbu).astype(np.int64)
            return pa.table({
                "_b": pa.array(b, pa.int64()),
                "url": pa.array(uu, pa.string()),
                "side": pa.array(np.full(len(uu), side, np.int8)),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            })
        return fn

    out_sch = pa.schema([
        ("urlkey", pa.string()), ("url", pa.string()),
        ("host", pa.string()), ("hash64", pa.uint64()),
        ("in_degree", pa.int64()), ("priority", pa.int32()),
        ("seed_order", pa.int64()), ("crawl_delay_ms", pa.int64()),
        ("robots_blocked", pa.bool_())])

    def merge(tbl: pa.Table) -> pa.Table:
        import polars as pl

        if tbl.num_rows == 0:
            return out_sch.empty_table()
        u = tbl["url"].to_numpy(zero_copy_only=False)
        sd = tbl["side"].to_numpy(zero_copy_only=False)
        c = tbl["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sd, u))
        us, sds, cs = u[order], sd[order], c[order]
        new = np.ones(len(us), bool)
        new[1:] = us[1:] != us[:-1]
        starts = np.flatnonzero(new)
        run_id = np.cumsum(new) - 1
        seed_mask = np.zeros(len(starts), bool)
        np.logical_or.at(seed_mask, run_id, sds == 0)
        indeg = np.zeros(len(starts), np.int64)
        np.add.at(indeg, run_id, np.where(sds == 1, cs, 0))
        keep = seed_mask
        urls = us[starts][keep]
        deg = indeg[keep]
        if not len(urls):
            return out_sch.empty_table()
        h = hash64_batch(urls)
        host = (pl.DataFrame({"u": list(urls)})
                .select(pl.col("u").str.extract(_HOST_RE, 1))
                ["u"].to_numpy())
        prio = (3 - np.minimum(deg, 3)).astype(np.int32)
        n = len(urls)
        return pa.table({
            "urlkey": pa.array(urls, pa.string()),
            "url": pa.array(urls, pa.string()),
            "host": pa.array(host, pa.string()),
            "hash64": pa.array(h, pa.uint64()),
            "in_degree": pa.array(deg, pa.int64()),
            "priority": pa.array(prio, pa.int32()),
            "seed_order": pa.array((h >> np.uint64(1)).astype(np.int64),
                                   pa.int64()),
            "crawl_delay_ms": pa.array(
                np.full(n, crawl_delay_ms, np.int64), pa.int64()),
            "robots_blocked": pa.array(np.zeros(n, bool)),
        })

    seeds = pages.select_columns([url_col]).map_batches(
        fold(url_col, 0), batch_format="pyarrow", batch_size=None)
    dsts = extract_links(pages, url_col=url_col, text_col=text_col) \
        .select_columns(["dst_url"]).map_batches(
            fold("dst_url", 1), batch_format="pyarrow", batch_size=None)
    return hash_bucket_apply(seeds.union(dsts), "_b", merge,
                             num_buckets=num_buckets)


def link_delta(links_a: ray.data.Dataset,
               links_b: ray.data.Dataset, *,
               num_buckets: int = 32) -> ray.data.Dataset:
    """Web-graph diff between two crawl snapshots: one row per DISTINCT
    edge with ``status`` in {added, removed, kept} (b relative to a) —
    the edge-level companion of the capture-level ``crawl_delta``
    (stages/recrawl.py), answering "how did the link structure change
    between crawls".

    Dataflow: each side's blocks fold to distinct (src, dst) edges
    BEFORE the shuffle; one edge-keyed exchange (hash of src||dst)
    compares presence per side by run-length — a parallel-edge-heavy
    page costs its block one row per distinct edge, never per href.
    """
    nbu = np.uint64(num_buckets)

    pair_sch = pa.schema([("_eb", pa.int64()), ("src", pa.string()),
                          ("dst", pa.string()), ("side", pa.int8())])

    def fold(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pair_sch.empty_table()
            s = batch["src_url"].to_numpy(zero_copy_only=False)
            d = batch["dst_url"].to_numpy(zero_copy_only=False)
            order = np.lexsort((d, s))
            ss, ds_ = s[order], d[order]
            new = np.ones(len(ss), bool)
            new[1:] = (ss[1:] != ss[:-1]) | (ds_[1:] != ds_[:-1])
            i = np.flatnonzero(new)
            key = np.array([a + "\x00" + b
                            for a, b in zip(ss[i], ds_[i])], object)
            eb = (hash64_batch(key) % nbu).astype(np.int64)
            return pa.table({
                "_eb": pa.array(eb, pa.int64()),
                "src": pa.array(ss[i], pa.string()),
                "dst": pa.array(ds_[i], pa.string()),
                "side": pa.array(np.full(len(i), side, np.int8)),
            })
        return fn

    out_sch = pa.schema([("src_url", pa.string()),
                         ("dst_url", pa.string()),
                         ("status", pa.string())])

    def compare(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_sch.empty_table()
        s = tbl["src"].to_numpy(zero_copy_only=False)
        d = tbl["dst"].to_numpy(zero_copy_only=False)
        sd = tbl["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sd, d, s))
        s, d, sd = s[order], d[order], sd[order]
        new = np.ones(len(s), bool)
        new[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        starts = np.flatnonzero(new)
        run_id = np.cumsum(new) - 1
        in_a = np.zeros(len(starts), bool)
        in_b = np.zeros(len(starts), bool)
        np.logical_or.at(in_a, run_id, sd == 0)
        np.logical_or.at(in_b, run_id, sd == 1)
        status = np.where(in_a & in_b, "kept",
                          np.where(in_b, "added", "removed"))
        return pa.table({
            "src_url": pa.array(s[starts], pa.string()),
            "dst_url": pa.array(d[starts], pa.string()),
            "status": pa.array(status, pa.string()),
        })

    keyed = (links_a.map_batches(fold(0), batch_format="pyarrow",
                                 batch_size=None)
             .union(links_b.map_batches(fold(1), batch_format="pyarrow",
                                        batch_size=None)))
    return hash_bucket_apply(keyed, "_eb", compare,
                             num_buckets=num_buckets)


# --------------------------------------------------------------------------
# TrustRank — seed-personalized integer PageRank (web-spam demotion)
# --------------------------------------------------------------------------

def root_page_seed(url: pa.Array) -> np.ndarray:
    """Default trusted-seed predicate: site root pages (path ``/``,
    no query string) — the classic hand-verifiable seed surface of
    Gyöngyi et al. 2004 §4.2 scaled down to a deterministic rule."""
    m = pc.and_(pc.ends_with(url, pattern="/"),
                pc.invert(pc.match_substring(url, "?")))
    return m.to_numpy(zero_copy_only=False).astype(bool)


def _in_sorted(seed_set: np.ndarray, url: pa.Array) -> np.ndarray:
    """Membership of one bucket's node urls in a sorted broadcast url
    array (searchsorted, exact string membership)."""
    u = url.to_numpy(zero_copy_only=False)
    if len(seed_set) == 0:
        return np.zeros(len(u), bool)
    idx = np.minimum(np.searchsorted(seed_set, u), len(seed_set) - 1)
    return seed_set[idx] == u


def trust_rank(links: ray.data.Dataset, *, iterations: int = 3,
               num_buckets: int | None = None, scale: int = 1_000_000,
               damping_num: int = 85, damping_den: int = 100,
               seed_pred=root_page_seed,
               seeds: "list[str] | None" = None) -> ray.data.Dataset:
    """TrustRank (Gyöngyi, Garcia-Molina & Pedersen, VLDB 2004) —
    PageRank with the teleport restricted to a trusted seed set, the
    standard link-spam demotion signal a crawl frontier uses to starve
    spam farms of fetch budget. All-integer recurrence:

        trust_0(u)   = scale            if u is a seed, else 0
        trust_t+1(u) = base(u) + sum over edges v->u of
                       (trust_t(v) DIV outdeg(v)) * d_num DIV d_den
        base(u)      = (scale * (d_den - d_num)) DIV d_den  on seeds,
                       0 elsewhere

    with DIV = floor division, so the result is deterministic under
    ANY summation order and the DuckDB oracle (same recurrence in SQL
    ``//``) matches bit-for-bit. Pages reachable only from untrusted
    regions converge to 0 — exactly the demotion the float original
    produces, without its reduction-order hazard.

    Seeds: ``seed_pred`` (vectorized pa.Array -> bool mask, applied
    per bucket — nothing materializes on the driver; default
    :func:`root_page_seed`) or an explicit ``seeds`` url list
    (sorted + shipped with the init kernel, searchsorted membership
    per bucket — the small trusted-site list of a real deployment).

    Dataflow is :func:`link_rank`'s verbatim: the same ``partition``,
    ``vertices`` and ``superstep`` scatter/gather kernels; only the
    initial state differs (rank and teleport mass on seeds only).
    """
    if seeds is not None:
        seed_pred = partial(_in_sorted,
                            np.sort(np.asarray(list(seeds), dtype=object)))
    elif seed_pred is None:
        raise ValueError("one of seed_pred / seeds is required")
    return _pagerank(links, "trust", seed_pred, iterations, num_buckets,
                     scale, damping_num, damping_den)


# --------------------------------------------------------------------------
# k-core peeling (unrolled rounds) — graph-density crawl signal
# --------------------------------------------------------------------------

def _undirected(src_col: str, dst_col: str, batch: pa.Table) -> pa.Table:
    """Both directions of every non-self-loop link row."""
    a = batch[src_col].cast(pa.string())
    b = batch[dst_col].cast(pa.string())
    keep = pc.invert(pc.equal(a, b))
    a, b = a.filter(keep).combine_chunks(), b.filter(keep).combine_chunks()
    return pa.table({"src": pa.concat_arrays([a, b]),
                     "dst": pa.concat_arrays([b, a])})


def _kc_init(url: pa.Array, outdeg: np.ndarray) -> pa.Table:
    return pa.table({"url": url,
                     "alive": pa.array(np.ones(len(url), np.int8),
                                       pa.int8())})


def _kc_scatter(nb: int, edges: pa.Table, state: pa.Table) -> list:
    """Each ALIVE node sends 1 along every out-edge."""
    idx = np.searchsorted(_urls(state), _urls(edges, "src"))
    alive = state["alive"].to_numpy(zero_copy_only=False)[idx].astype(bool)
    msg = pa.table({"url": edges["dst"].filter(pa.array(alive))})
    return split_by_hash(msg, "url", nb)


def _kc_gather(k: int, state: pa.Table, inbox: list) -> pa.Table:
    """alive' = alive AND (count of messages >= k)."""
    alive = (state["alive"].to_numpy(zero_copy_only=False).astype(bool)
             & (_sum_into(state, inbox) >= k))
    return pa.table({"url": state["url"],
                     "alive": pa.array(alive.astype(np.int8), pa.int8())})


def _kc_final(t: pa.Table) -> pa.Table:
    return pa.table({
        "url": t["url"],
        "in_core": pc.equal(t["alive"], pa.scalar(1, pa.int8()))})


def kcore_peel(links: ray.data.Dataset, *, k: int = 2, rounds: int = 3,
               num_buckets: int | None = None, src_col: str = "src_url",
               dst_col: str = "dst_url") -> ray.data.Dataset:
    """k-core peeling over the UNDIRECTED graph of ``links`` —
    ``rounds`` unrolled iterations of "delete every node with fewer
    than ``k`` alive neighbors" (Seidman 1983's k-core by Matula &
    Beck peeling). Dense cores survive; tendrils and weakly-attached
    spam tails peel away — the density counterpart of the triangle
    count for link-farm detection, and a crawl-budget gate (don't
    deep-crawl what the core doesn't touch).

    Fixed ``rounds`` keeps the recurrence exactly SQL-unrollable (the
    link_rank determinism contract); when the peel converges earlier
    the result IS the true k-core, otherwise it is the documented
    R-round upper bound. Edges symmetrize + distinct-dedup + drop
    self-loops; nodes = endpoints of the cleaned edge set; returns
    ``(url, in_core)``.

    Dataflow (the link_rank shape): ``partition`` caches the
    symmetrized edges per src bucket with a distinct combine (all
    copies of an edge share the src hash, so per-bucket dedup is
    global dedup); each round is one ``superstep`` (alive nodes send 1
    along out-edges; ``alive' = alive AND deg >= k``) — per-round
    traffic is the narrow message stream, never the edges.
    """
    if rounds < 0 or k < 0:
        raise ValueError("rounds and k must be >= 0")
    und = links.map_batches(partial(_undirected, src_col, dst_col),
                            batch_format="pyarrow", batch_size=None)
    edges_b = partition(und, num_buckets or round_plan(), "src",
                        (("src", "src"), ("dst", "dst")),
                        partial(distinct, ("src", "dst")))
    state_b = vertices(edges_b, _kc_init)
    for _ in range(rounds):
        state_b = superstep(edges_b, state_b, _kc_scatter,
                            partial(_kc_gather, k))
    return ray.data.from_arrow_refs(gather(_kc_final, state_b))


# --------------------------------------------------------------------------
# OPIC — On-line Page Importance Computation (Abiteboul et al. 2003)
# --------------------------------------------------------------------------

def _opic_init(scale: int, url: pa.Array, outdeg: np.ndarray) -> pa.Table:
    n = len(url)
    return pa.table({
        "url": url,
        "cash": pa.array(np.full(n, scale, np.int64), pa.int64()),
        "hist": pa.array(np.zeros(n, np.int64), pa.int64()),
        "outdeg": pa.array(outdeg, pa.int64())})


def _opic_gather(state: pa.Table, inbox: list) -> pa.Table:
    """hist += cash just spent (nodes with out-links; dangling nodes
    keep their cash), cash' = received messages (+ kept cash)."""
    cash = state["cash"].to_numpy(zero_copy_only=False)
    spent = state["outdeg"].to_numpy(zero_copy_only=False) > 0
    out = _set(state, "hist", state["hist"].to_numpy(zero_copy_only=False)
               + np.where(spent, cash, 0))
    return _set(out, "cash",
                _sum_into(state, inbox) + np.where(spent, 0, cash))


def _opic_final(t: pa.Table) -> pa.Table:
    cash = t["cash"].to_numpy(zero_copy_only=False)
    hist = t["hist"].to_numpy(zero_copy_only=False)
    return pa.table({"url": t["url"], "cash": t["cash"], "hist": t["hist"],
                     "importance": pa.array(cash + hist, pa.int64())})


def opic(links: ray.data.Dataset, *, rounds: int = 3,
         num_buckets: int | None = None, scale: int = 1_000_000
         ) -> ray.data.Dataset:
    """OPIC — On-line Page Importance Computation (Abiteboul, Preda
    & Cobena, WWW 2003), the crawl-ordering algorithm designed to be
    computed WHILE crawling: every node starts with equal cash; each
    round a node with out-links distributes ``cash DIV outdeg`` along
    every out-edge, banks the spent cash into its history, and its
    new cash is what it received; dangling nodes hold their cash.
    ``importance = history + cash`` after ``rounds`` rounds — pages
    that keep receiving cash matter, without waiting for a PageRank
    fixpoint. All-integer floor arithmetic: deterministic under any
    summation order, bit-exact vs the unrolled SQL oracle.

    Dataflow is the link_rank partitioned-cached shape: edges
    bucket-shuffled ONCE by ``hash64(src) % num_buckets``; each round
    is one ``superstep`` whose scatter is link_rank's with damping 1/1
    over the ``cash`` column, and whose gather banks the spent cash.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    edges_b = partition(links, num_buckets or round_plan(), "src",
                        _SRC_DST)
    state_b = vertices(edges_b, partial(_opic_init, scale))
    for _ in range(rounds):
        state_b = superstep(edges_b, state_b,
                            partial(_rank_scatter, "cash", 1, 1),
                            _opic_gather)
    return ray.data.from_arrow_refs(gather(_opic_final, state_b))


def degree_hist(links: ray.data.Dataset, *, num_buckets: int = 32
                ) -> ray.data.Dataset:
    """Log2-bucket degree distribution of the link graph — the
    one-page profile that tells a crawl operator whether the graph is
    power-law-ish (web-like), where the hubs start, and how heavy the
    parallel-edge tail is. For each direction (``out``/``in``) and
    ``bucket = floor(log2(degree))``: node count and exact degree
    sum. Degrees count parallel edges (each link row is one edge).

    Exact integer bucketing via the float64 exponent
    (``frexp(d)[1] - 1`` — exact for any int64 < 2^53, no log2
    rounding hazard; the SQL twin is ``length(bin(d)) - 1``).

    Dataflow: per-block (url, partial-degree) folds, one url-bucket
    exchange sums true degrees and folds to per-bucket partials, one
    tiny final rollup — the histogram never sees raw edges twice.
    """
    import polars as pl

    nbu = np.uint64(num_buckets)

    def partials(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["src_url", "dst_url"]))
        out = (df.group_by("src_url").agg(n=pl.len().cast(pl.Int64))
               .rename({"src_url": "url"})
               .with_columns(kind=pl.lit("out")))
        inn = (df.group_by("dst_url").agg(n=pl.len().cast(pl.Int64))
               .rename({"dst_url": "url"})
               .with_columns(kind=pl.lit("in")))
        part = pl.concat([out, inn])
        t = part.to_arrow()
        key = (part["kind"] + "\x00" + part["url"]).to_arrow()
        h = hash64_batch(key)
        return t.append_column(
            "_b", pa.array((h % nbu).astype(np.int64), pa.int64()))

    def fold(t: pa.Table) -> pa.Table:
        df = (pl.from_arrow(t).group_by("kind", "url")
              .agg(d=pl.col("n").sum()))
        d = df["d"].to_numpy().astype(np.int64)
        bucket = (np.frexp(d.astype(np.float64))[1] - 1).astype(
            np.int64)
        part = (pl.DataFrame({"kind": df["kind"], "bucket": bucket,
                              "d": d})
                .group_by("kind", "bucket")
                .agg(n_nodes=pl.len().cast(pl.Int64),
                     deg_sum=pl.col("d").sum()))
        return part.to_arrow().append_column(
            "_b2", pa.array(np.zeros(part.height, np.int64),
                            pa.int64()))

    def rollup(t: pa.Table) -> pa.Table:
        agg = (pl.from_arrow(t).group_by("kind", "bucket")
               .agg(n_nodes=pl.col("n_nodes").sum(),
                    deg_sum=pl.col("deg_sum").sum()))
        return agg.to_arrow()

    rows = links.map_batches(partials, batch_format="pyarrow",
                             batch_size=None)
    folded = hash_bucket_apply(rows, "_b", fold,
                               num_buckets=num_buckets)
    return hash_bucket_apply(folded, "_b2", rollup, num_buckets=1)
