"""Zipnum (``cluster.idx``) sharded CDX index — build + pruned lookup.

The reference never BUILDS a CDX index: it queries
index.commoncrawl.org (reference cdx_toolkit/__init__.py:322-342,
paged reads of 3,000 lines), whose on-disk serving structure is
exactly this format (the pywb "zipnum cluster"): all CDX(J) lines
sorted by ``(urlkey, timestamp)``, cut into blocks of N lines, each
block gzip-compressed as one independent member appended to a shard
file, plus a small secondary index (``cluster.idx``) with one line per
block — the block's first ``urlkey timestamp``, its shard filename,
byte offset, compressed length and global block sequence. A query
binary-searches ``cluster.idx`` (tiny — ~200 MB for all of Common
Crawl) and decompresses ONLY the touched blocks; the reference's
"page" is a run of consecutive blocks served from this layout.

This module closes the loop: the engine can now *produce* the index
the reference consumes.

Scale contract: the build is one global ``Dataset.sort`` (a CDX index
IS a sort — the unavoidable all-to-all) followed by embarrassingly
parallel shard writes; the driver holds only the O(blocks) secondary
index rows (at 10^10 captures / 3,000-line blocks that is ~3.3M small
rows — the same order as the real cluster.idx, which is served
centrally by design). Lookup reads cluster.idx once, binary-searches
the candidate block range, and spawns one task per touched shard file
that seeks + decompresses only the candidate members and filters
before returning — untouched blocks are never read (asserted in
tests/test_zipnum.py).

CDXJ line format: ``<urlkey> <timestamp> <json>`` with the JSON keys
in sorted order (rendered vectorized via polars ``json_encode``,
parsed back via ``json_decode`` — no per-row Python on either side).
"""

from __future__ import annotations

import gzip
import json
import os
from bisect import bisect_left

import numpy as np
import pyarrow as pa
import ray
import ray.data

# JSON-part fields in canonical (sorted) key order; urlkey/timestamp
# lead the line itself. Matches the captures fixture schema.
CDX_JSON_FIELDS = ("digest", "encoding", "filename", "languages",
                   "length", "mime", "mime_detected", "offset",
                   "redirect", "status", "url")
# int64-typed JSON fields (everything else is string)
_INT_FIELDS = frozenset({"length", "offset"})
# output column order = the captures table order
CDX_COLUMNS = ("urlkey", "timestamp", "url", "mime", "mime_detected",
               "status", "digest", "length", "offset", "filename",
               "redirect", "languages", "encoding")

_IDX_NAME = "cluster.idx"


def render_cdxj_batch(batch: pa.Table,
                      json_fields: tuple = CDX_JSON_FIELDS) -> pa.Table:
    """One Arrow batch of capture rows -> (urlkey, timestamp, line).
    ``json_fields`` is the sorted JSON key set (default: the captures
    table's); any row schema carrying urlkey/timestamp + those fields
    can be indexed."""
    import polars as pl

    df = pl.from_arrow(batch.select(["urlkey", "timestamp",
                                     *json_fields]))
    out = df.select(
        pl.col("urlkey"), pl.col("timestamp"),
        pl.concat_str([
            pl.col("urlkey"), pl.col("timestamp"),
            pl.struct([pl.col(f) for f in json_fields])
              .struct.json_encode(),
        ], separator=" ").alias("line"))
    return out.to_arrow()


def _json_dtype(json_fields: tuple, int_fields) -> "object":
    import polars as pl

    return pl.Struct([
        pl.Field(f, pl.Int64 if f in int_fields else pl.Utf8)
        for f in json_fields])


def parse_cdxj_batch(lines: pa.Array | list,
                     json_fields: tuple = CDX_JSON_FIELDS,
                     int_fields=_INT_FIELDS) -> pa.Table:
    """CDXJ lines -> capture rows (vectorized splitn + json_decode)."""
    import polars as pl

    s = pl.Series("line", lines, dtype=pl.Utf8)
    parts = (s.str.splitn(" ", 3)
             .struct.rename_fields(["urlkey", "timestamp", "j"]))
    df = parts.struct.unnest()
    df = df.with_columns(
        df["j"].str.json_decode(
            _json_dtype(json_fields, int_fields)).alias("j"))
    df = df.drop("j").with_columns(df["j"].struct.unnest())
    cols = ["urlkey", "timestamp", *json_fields]
    t = df.select(cols).to_arrow()
    # polars emits large_string; normalize to the captures schema
    schema = pa.schema([
        (c, pa.int64() if c in int_fields else pa.string())
        for c in cols])
    return t.cast(schema)


@ray.remote
def _write_shard(out_dir: str, shard_id: int, lines_per_block: int,
                 *tbls: pa.Table) -> list:
    """Write one shard file: consecutive gzip members of
    <= lines_per_block lines each; return per-block index entries
    (first_urlkey, first_ts, filename, offset, length, n_lines)."""
    live = [t for t in tbls if t.num_rows]
    if not live:
        return []
    t = pa.concat_tables(live, promote_options="permissive")
    lines = t["line"].to_pylist()
    urlkeys = t["urlkey"].to_pylist()
    stamps = t["timestamp"].to_pylist()
    fname = "cdx-%05d.gz" % shard_id
    entries = []
    offset = 0
    with open(os.path.join(out_dir, fname), "wb") as f:
        for lo in range(0, len(lines), lines_per_block):
            hi = min(lo + lines_per_block, len(lines))
            data = gzip.compress(
                ("\n".join(lines[lo:hi]) + "\n").encode("utf-8"),
                mtime=0)  # mtime=0: byte-deterministic members
            f.write(data)
            entries.append((urlkeys[lo], stamps[lo], fname, offset,
                            len(data), hi - lo))
            offset += len(data)
    return entries


def build_zipnum(captures: ray.data.Dataset, out_dir: str, *,
                 lines_per_block: int = 3000, num_shards: int = 8,
                 json_fields: tuple | None = None,
                 int_fields: tuple | None = None) -> dict:
    """Sort + render + shard the captures into a zipnum cluster under
    ``out_dir`` (``cdx-NNNNN.gz`` shard files + ``cluster.idx``).
    The field set is self-describing (recorded in ``zipnum.meta``), so
    any row schema with urlkey/timestamp can be indexed — e.g. the
    9-column output of ``pipelines.warcbytes.index_warc``.
    Returns ``{"rows": R, "blocks": B, "shards": S}``."""
    if lines_per_block < 1:
        raise ValueError("lines_per_block must be >= 1")
    # one execution: a lazy input's schema() would run a hidden limit(1)
    captures = captures.materialize()
    sch = captures.schema()
    arrow_schema = getattr(sch, "base_schema", sch)
    if json_fields is None:
        # default: every non-key column, sorted (canonical key order)
        jf = tuple(sorted(c for c in arrow_schema.names
                          if c not in ("urlkey", "timestamp")))
    else:
        jf = tuple(json_fields)
    if int_fields is None:
        itf = tuple(f.name for f in arrow_schema
                    if f.name in jf and pa.types.is_integer(f.type))
    else:
        itf = tuple(int_fields)
    os.makedirs(out_dir, exist_ok=True)
    lines = (captures.sort(["urlkey", "timestamp"])
             .map_batches(lambda b: render_cdxj_batch(b, jf),
                          batch_format="pyarrow",
                          batch_size=None))
    refs = lines.materialize().to_arrow_refs()
    groups = [g for g in np.array_split(np.arange(len(refs)),
                                        max(min(num_shards, len(refs)),
                                            1))
              if len(g)]
    tasks = [_write_shard.remote(out_dir, i, lines_per_block,
                                 *[refs[j] for j in g])
             for i, g in enumerate(groups)]
    rows = 0
    seq = 0
    with open(os.path.join(out_dir, _IDX_NAME), "w",
              encoding="utf-8") as f:
        for entries in ray.get(tasks):
            for uk, ts, fname, off, length, n in entries:
                f.write("%s %s\t%s\t%d\t%d\t%d\n"
                        % (uk, ts, fname, off, length, seq))
                rows += n
                seq += 1
    info = {"rows": rows, "blocks": seq, "shards": len(groups),
            "lines_per_block": lines_per_block,
            "json_fields": list(jf), "int_fields": list(itf)}
    with open(os.path.join(out_dir, "zipnum.meta"), "w",
              encoding="utf-8") as f:
        json.dump(info, f, sort_keys=True)
    return info


def load_cluster_idx(out_dir: str) -> list[tuple]:
    """cluster.idx lines -> [(urlkey, ts, filename, offset, length)]."""
    path = os.path.join(out_dir, _IDX_NAME)
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, fname, off, length, _seq = line.rstrip("\n").split("\t")
            uk, ts = key.split(" ", 1)
            out.append((uk, ts, fname, int(off), int(length)))
    return out


def _load_meta(out_dir: str) -> tuple:
    """(json_fields, int_fields) from zipnum.meta; captures defaults
    for pre-meta clusters."""
    try:
        with open(os.path.join(out_dir, "zipnum.meta"),
                  encoding="utf-8") as f:
            m = json.load(f)
        return (tuple(m.get("json_fields", CDX_JSON_FIELDS)),
                frozenset(m.get("int_fields", _INT_FIELDS)))
    except (OSError, ValueError):
        return CDX_JSON_FIELDS, _INT_FIELDS


@ray.remote
def _read_blocks(out_dir: str, fname: str, spans: list,
                 key_lo: str, key_hi: str, prefix: bool,
                 from_ts: str | None, to_ts: str | None,
                 json_fields: tuple, int_fields) -> pa.Table:
    """Seek + decompress only the candidate members of one shard file,
    parse, and filter before returning (pruning happens at the read)."""
    import pyarrow.compute as pc

    lines: list[str] = []
    with open(os.path.join(out_dir, fname), "rb") as f:
        for off, length in spans:
            f.seek(off)
            lines.extend(gzip.decompress(f.read(length))
                         .decode("utf-8").splitlines())
    t = parse_cdxj_batch(lines, json_fields, int_fields)
    uk = t["urlkey"]
    if prefix:
        mask = pc.starts_with(uk, key_lo)
    else:
        mask = pc.equal(uk, key_lo)
    if from_ts is not None:
        mask = pc.and_(mask, pc.greater_equal(t["timestamp"], from_ts))
    if to_ts is not None:
        mask = pc.and_(mask, pc.less_equal(t["timestamp"], to_ts))
    return t.filter(mask)


def _candidate_blocks(out_dir: str, key_lo: str, prefix: bool):
    """Bisect cluster.idx: blocks whose key range can intersect the
    query range. Blocks are sorted runs; matches can start one block
    before the first block whose first key >= key_lo (bisect_left
    keeps every tie block) and end before the first block whose first
    key >= key_hi."""
    idx = load_cluster_idx(out_dir)
    firsts = [e[0] for e in idx]
    key_hi = (key_lo + chr(0x10FFFF)) if prefix else (key_lo + "\x00")
    i_lo = max(0, bisect_left(firsts, key_lo) - 1)
    i_hi = bisect_left(firsts, key_hi)
    return idx[i_lo:i_hi], len(idx)


def zipnum_lookup(out_dir: str, *, urlkey: str | None = None,
                  urlkey_prefix: str | None = None,
                  from_ts: str | None = None, to_ts: str | None = None,
                  stats: dict | None = None) -> ray.data.Dataset:
    """Binary-search ``cluster.idx`` and read ONLY the candidate
    blocks; returns the matching capture rows as a Dataset.

    Exactly one of ``urlkey`` (exact match) / ``urlkey_prefix`` must
    be given. ``stats`` (optional dict) receives ``blocks_total`` /
    ``blocks_read`` — the pruning evidence.

    SURT urlkeys are ASCII by construction, so ``prefix + chr(0x10FFFF)``
    is a safe exclusive upper bound for the prefix key range.
    """
    if (urlkey is None) == (urlkey_prefix is None):
        raise ValueError("give exactly one of urlkey / urlkey_prefix")
    prefix = urlkey_prefix is not None
    key_lo = urlkey_prefix if prefix else urlkey
    cand, n_total = _candidate_blocks(out_dir, key_lo, prefix)
    key_hi = (key_lo + chr(0x10FFFF)) if prefix else (key_lo + "\x00")
    if stats is not None:
        stats["blocks_total"] = n_total
        stats["blocks_read"] = len(cand)
    by_file: dict[str, list] = {}
    for uk, ts, fname, off, length in cand:
        by_file.setdefault(fname, []).append((off, length))
    jf, itf = _load_meta(out_dir)
    refs = [_read_blocks.remote(out_dir, fname, spans, key_lo, key_hi,
                                prefix, from_ts, to_ts, jf, itf)
            for fname, spans in sorted(by_file.items())]
    if not refs:
        empty = pa.table({c: pa.array(
            [], pa.int64() if c in itf else pa.string())
            for c in ("urlkey", "timestamp", *jf)})
        return ray.data.from_arrow(empty)
    return ray.data.from_arrow_refs(refs)


def _head(ds: ray.data.Dataset, limit: int) -> ray.data.Dataset:
    """The first ``limit`` rows of ``ds``, cut from its materialized
    blocks in order by their row counts (the last one sliced). Unlike
    ``Dataset.limit``'s early stop, nothing in flight is cancelled."""
    mat = ds.materialize()
    refs, left = [], limit
    for ref, meta in (blk for bundle in mat.iter_internal_ref_bundles()
                      for blk in bundle.blocks):
        if left <= 0 and refs:
            break
        if meta.num_rows > left:
            ref = ray.put(ray.get(ref).slice(0, max(left, 0)))
        refs.append(ref)
        left -= meta.num_rows
    return ray.data.from_arrow_refs(refs) if refs else mat


def query_zipnum(index_dir: str, url: str | None = None, *,
                 fields: list[str] | None = None,
                 stats: dict | None = None,
                 **kwargs) -> ray.data.Dataset:
    """``query_captures`` parity over a zipnum cluster directory — the
    engine queries the SAME serving structure index.commoncrawl.org
    answers the reference from. Single endpoint, pywb dialect,
    ascending ``(urlkey, timestamp)`` order (the reference's
    within-index ordering contract, README.md:243-252, which the
    build's global sort provides for free).

    kwargs: ``from_ts, to, limit, filter, matchType`` — the
    reference's param vocabulary. Wildcards resolve through
    ``planner.url_to_match``; the SURT key is the cluster.idx bisect
    prefix (for domain matches the bare reversed-host key is a
    SUPERSET range — the vectorized :class:`CaptureMatcher` applies
    the authoritative predicate post-parse).
    """
    from ..planner import url_to_match
    from ..timeutils import (pad_timestamp, pad_timestamp_up,
                             validate_timestamps)
    from .captures import CaptureMatcher

    match_type = kwargs.pop("matchType", None)
    limit = kwargs.pop("limit", None)
    filters = kwargs.pop("filter", None)
    params = dict(kwargs)
    validate_timestamps(params)
    from_ts, to = params.get("from_ts"), params.get("to")
    closest = params.get("closest")
    um = url_to_match(url, match_type) if url else None
    matcher = CaptureMatcher(um, from_ts, to, filters, "custom")

    exec_opts = ray.data.DataContext.get_current().execution_options
    saved = exec_opts.preserve_order
    exec_opts.preserve_order = True
    try:
        ds = zipnum_lookup(
            index_dir, urlkey_prefix=(um.key if um else ""),
            from_ts=pad_timestamp(from_ts) if from_ts else None,
            to_ts=pad_timestamp_up(to) if to else None, stats=stats)
        ds = ds.map_batches(matcher, batch_format="pyarrow",
                            batch_size=None)
        if closest is not None:
            # nearest-timestamp ranking, the query_captures contract
            import pyarrow.compute as pc

            from ..timeutils import timestamps_to_epoch

            target = timestamps_to_epoch(
                pa.array([pad_timestamp(str(closest))]))[0].as_py()

            def _delta(batch: pa.Table) -> pa.Table:
                ep = timestamps_to_epoch(batch["timestamp"])
                d = pc.abs(pc.subtract(ep, target))
                return batch.append_column("closest_delta", d)

            ds = ds.map_batches(_delta, batch_format="pyarrow")
            ds = ds.sort(["closest_delta", "timestamp", "urlkey"])
        if fields:
            ds = ds.select_columns(fields)
        if limit is not None:
            ds = _head(ds, int(limit))
    finally:
        exec_opts.preserve_order = saved
    return ds


def zipnum_size_estimate(index_dir: str, url: str | None = None, *,
                         as_pages: bool = False, **kwargs) -> int:
    """``showNumPages`` parity against the zipnum layout: the REAL CDX
    API's page count IS the number of zipnum blocks a query touches
    (the reference turns it into a sample estimate via the partial-
    first/last-page adjustment x lines/page, __init__.py:32-50); here
    the candidate-block count comes from the same cluster.idx bisect
    the lookup uses, and lines/page is the index's own
    ``lines_per_block`` (zipnum.meta). Metadata-only: no block is
    decompressed."""
    from ..planner import url_to_match

    match_type = kwargs.pop("matchType", None)
    um = url_to_match(url, match_type) if url else None
    cand, _ = _candidate_blocks(index_dir, um.key if um else "",
                                prefix=True)
    pages = len(cand)
    if as_pages:
        return pages
    try:
        with open(os.path.join(index_dir, "zipnum.meta"),
                  encoding="utf-8") as f:
            lpb = int(json.load(f)["lines_per_block"])
    except (OSError, KeyError, ValueError):
        lpb = 3000  # the reference's lines_per_page constant
    p = float(pages)
    if p > 1:
        p -= 1.0
    elif p >= 1:
        p -= 0.5
    return int(p * lpb)


def is_zipnum_dir(path: str) -> bool:
    """True when ``path`` is a zipnum cluster directory."""
    return (os.path.isdir(path)
            and os.path.exists(os.path.join(path, _IDX_NAME)))


def list_zipnum_crawls(root_dir: str) -> list[str]:
    """Subdirectories of ``root_dir`` that are zipnum clusters, sorted
    by name (crawl names sort chronologically — CC-MAIN-YYYY-WW)."""
    out = []
    for name in sorted(os.listdir(root_dir)):
        p = os.path.join(root_dir, name)
        if is_zipnum_dir(p):
            out.append(p)
    return out


def is_zipnum_multi_dir(path: str) -> bool:
    """True when ``path`` holds one zipnum cluster PER CRAWL (the real
    deployment: Common Crawl publishes one immutable cluster per
    crawl; a query walks them in cc_sort order — the reference's
    endpoint loop, __init__.py:171-191)."""
    return (os.path.isdir(path) and not is_zipnum_dir(path)
            and bool(list_zipnum_crawls(path)))


def query_zipnum_multi(root_dir: str, url: str | None = None, *,
                       cc_sort: str = "mixed",
                       fields: list[str] | None = None,
                       stats: dict | None = None,
                       **kwargs) -> ray.data.Dataset:
    """Multi-crawl zipnum query: one cluster per crawl under
    ``root_dir``, walked in cc_sort order ('mixed' = newest crawl
    first, rows ascending within each — the reference's O2 ordering
    contract) and concatenated as a single stream. Each crawl's
    lookup prunes through its own cluster.idx; ``limit`` is the
    reference's cross-endpoint limit decrement (A2): each crawl gets
    what earlier crawls left of it, and crawls after the limit is met
    are not looked up at all (no task is started, so none is
    cancelled)."""
    limit = kwargs.pop("limit", None)
    crawls = list_zipnum_crawls(root_dir)
    if not crawls:
        raise ValueError("no zipnum clusters under %s" % root_dir)
    if cc_sort == "mixed":
        crawls = list(reversed(crawls))
    elif cc_sort != "ascending":
        raise ValueError("cc_sort must be 'mixed' or 'ascending'")
    exec_opts = ray.data.DataContext.get_current().execution_options
    saved = exec_opts.preserve_order
    exec_opts.preserve_order = True
    try:
        parts, left = [], None if limit is None else int(limit)
        for d in crawls:
            if parts and left is not None and left <= 0:
                break
            st = {} if stats is not None else None
            part = query_zipnum(d, url, fields=fields, stats=st,
                                limit=left, **kwargs)
            if left is not None:
                left -= part.count()  # block metadata of the cut
            parts.append(part)
            if stats is not None:
                stats[os.path.basename(d)] = st
        ds = parts[0]
        for p in parts[1:]:
            ds = ds.union(p)
    finally:
        exec_opts.preserve_order = saved
    return ds
