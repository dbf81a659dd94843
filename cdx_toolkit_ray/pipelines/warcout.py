"""Content extraction pipeline: captures -> content -> segmented output.

The Ray-Data re-expression of ``cdxt warc`` (cocrawler/cdx_toolkit
cdx_toolkit/cli.py:235-276 + warc.py): iterate captures, resolve each
capture's content, write size-rotated output segments. The reference
resolves content with per-record HTTP byte-range fetches
(warc.py:123-156); in this sandbox content lives in the pages table, so
resolution is a LOOKUP JOIN on ``url`` (SURVEY.md §2.4 J1):

* small pages table  -> broadcast join: ``ray.put`` the url->html map
  once, cached ``ray.get`` per worker, dict lookup per batch — no
  shuffle
* large pages table  -> hash-bucket join: both sides get
  ``bucket = hash64(url) % B``, bucket-wise merge inside map_groups

Revisit records (``mime == 'warc/revisit'``, __init__.py:101-105)
resolve to the content of their original capture — here naturally, the
pages row for the same url. 404-style misses (no pages row) are skipped
exactly like the reference's RuntimeError-404 skip (cli.py:270-273).

Output: ``SegmentedParquetWriter`` reproduces the WARC writer contract
(warc.py:159-209): size-capped segments named
``<prefix>[-<subprefix>]-NNNNNN.extracted.parquet``, an info sidecar
per run, restart-safe unique-name probing. For cluster-scale output use
``write_parquet(partition_cols=...)`` instead (resumable layout).
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..sources.captures import query_captures
from ..stages.text import decode_html_batch
from .frontier import _get_broadcast

LOGGER = logging.getLogger(__name__)


def wb_redir_to_original(location: str) -> str:
    """Strip the wayback replay prefix from a redirect Location
    (reference: cdx_toolkit/warc.py:19-20 — everything before the
    first ``_/http`` goes).

    >>> wb_redir_to_original('https://web.archive.org/web/2015id_/http://x.example/p')
    'http://x.example/p'
    """
    return "http" + location.split("_/http", 1)[1]


# reference: cdx_toolkit/warc.py:23-31
HTTP_STATUS_TEXT = {
    300: "Multiple Choices", 301: "Moved Permanently", 302: "Found",
    303: "See Other", 304: "Not Modified", 307: "Temporary Redirect",
    308: "Permanent Redirect",
}


def synthesize_wb_record(capture: dict, resp_status: int, resp_reason: str,
                         resp_headers: list, wb_url: str,
                         creation_date_iso: str) -> dict:
    """One wayback replay -> synthesized WARC response record metadata
    (reference ``fake_wb_warc``, cdx_toolkit/warc.py:34-95):

    * status reconciliation: wayback's 302 on an archived 3xx restores
      the CAPTURE's status (+ canonical reason phrase); a 200 for a
      revisit ('-') or 3xx capture is kept but flagged
    * header munge: ``x-archive-orig-*`` stripped back to original
      names, the orig Date becomes WARC-Date (http-date -> ISO8601,
      timeutils M12), replay ``Location`` rewritten to the original
      URL, any other replay-injected header shelved under
      ``X-Archive-``; Content-Type passes through
    * WARC-Source-URI = the replay URL; WARC-Creation-Date is an
      explicit argument (deterministic pipelines pass a fixed clock)
    """
    from ..timeutils import datetime_to_iso_date, http_date_to_datetime

    status_code, status_reason = resp_status, resp_reason
    anomaly = None
    if str(status_code) != capture["status"]:
        if status_code == 200 and capture["status"] == "-":
            anomaly = "revisit_vivified"
        elif status_code == 200 and capture["status"].startswith("3"):
            anomaly = "redirect_came_back_200"
        elif status_code == 302 and capture["status"].startswith("3"):
            status_code = int(capture["status"])
            if status_code != resp_status and status_code in HTTP_STATUS_TEXT:
                status_reason = HTTP_STATUS_TEXT[status_code]
        else:
            anomaly = "status_changed"

    http_headers = []
    http_date = None
    for k, v in resp_headers:
        kl = k.lower()
        if kl.startswith("x-archive-orig-date"):
            http_date = v
        if kl.startswith("x-archive-orig-"):
            http_headers.append((k[len("x-archive-orig-"):], v))
        elif kl == "content-type":
            http_headers.append(("Content-Type", v))
        elif kl == "location":
            http_headers.append((k, wb_redir_to_original(v)))
        else:
            if not kl.startswith("x-archive-"):
                k = "X-Archive-" + k
            http_headers.append((k, v))

    warc_headers = {"WARC-Source-URI": wb_url,
                    "WARC-Creation-Date": creation_date_iso}
    if http_date:
        warc_headers["WARC-Date"] = datetime_to_iso_date(
            http_date_to_datetime(http_date))
    return {
        "statusline": "%s %s" % (status_code, status_reason),
        "http_headers": http_headers,
        "warc_headers": warc_headers,
        "anomaly": anomaly,
    }


def make_wb_synthesis_stage(wb_prefix: str, creation_date_iso: str,
                            modifier: str = "id_"):
    """map_batches fn: capture rows + replay response columns
    (``resp_status:int``, ``resp_reason:string``, ``resp_headers``
    JSON-encoded [[k, v], ...]) -> synthesized record columns. The
    replay-URL shape follows ``fetch_wb_warc``
    (cdx_toolkit/warc.py:98-120): ``{wb}/{timestamp}{modifier}{url}``.
    Header munging is per-row Python over SMALL header lists — the hot
    payload bytes never enter this stage."""
    from urllib.parse import quote

    def synthesize(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_numpy(zero_copy_only=False)
        tss = batch["timestamp"].to_numpy(zero_copy_only=False)
        sts = batch["status"].to_numpy(zero_copy_only=False)
        rst = batch["resp_status"].to_numpy(zero_copy_only=False)
        rre = batch["resp_reason"].to_numpy(zero_copy_only=False)
        rhd = batch["resp_headers"].to_numpy(zero_copy_only=False)
        n = len(urls)
        lines = np.empty(n, dtype=object)
        hh = np.empty(n, dtype=object)
        wh = np.empty(n, dtype=object)
        an = np.empty(n, dtype=object)
        for i in range(n):
            wb_url = "%s/%s%s/%s" % (wb_prefix, tss[i], modifier,
                                     quote(urls[i]))
            rec = synthesize_wb_record(
                {"url": urls[i], "timestamp": tss[i], "status": sts[i]},
                int(rst[i]), rre[i], json.loads(rhd[i]), wb_url,
                creation_date_iso)
            lines[i] = rec["statusline"]
            hh[i] = json.dumps(rec["http_headers"])
            wh[i] = json.dumps(rec["warc_headers"], sort_keys=True)
            an[i] = rec["anomaly"]
        batch = batch.append_column("statusline", pa.array(lines, pa.string()))
        batch = batch.append_column("http_headers_json",
                                    pa.array(hh, pa.string()))
        batch = batch.append_column("warc_headers_json",
                                    pa.array(wh, pa.string()))
        return batch.append_column("anomaly", pa.array(an, pa.string()))

    return synthesize


def make_content_lookup(pages_ref):
    """map_batches fn: append ``html`` (binary) by url lookup; drop
    rows with no content (the 404 skip)."""

    def content_lookup(batch: pa.Table) -> pa.Table:
        lookup = _get_broadcast(pages_ref)
        urls = batch["url"].to_numpy(zero_copy_only=False)
        payload = np.empty(len(urls), dtype=object)
        hit = np.zeros(len(urls), dtype=bool)
        for i, u in enumerate(urls):
            b = lookup.get(u)
            if b is not None:
                payload[i] = b
                hit[i] = True
        batch = batch.append_column("html", pa.array(payload, pa.binary()))
        return batch.filter(pa.array(hit))

    return content_lookup


def load_pages_index(pages_path: str):
    """pages parquet -> {url: html} (the broadcast small side).

    When the pages table holds multiple rows for one url (re-captures),
    the winner is the lexicographically greatest html — deterministic
    under any read order, and the SAME rule the hash-bucket join path
    applies, so both join strategies return identical content."""
    t = pq.read_table(pages_path, columns=["url", "html"])
    idx: dict = {}
    for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
        prev = idx.get(u)
        if prev is None or h > prev:
            idx[u] = h
    return idx


def dedupe_pages(pages: ray.data.Dataset,
                 num_buckets: int = 32) -> ray.data.Dataset:
    """One row per url: the lexicographically greatest html (same
    winner rule as ``load_pages_index``). One balanced shuffle on
    ``hash64(url) % num_buckets``; each bucket resolves all its urls in
    a single vectorized sort + drop_duplicates — no Python per key."""
    import pandas as pd

    from ..canon import hash64_batch

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = hash64_batch(batch["url"])
        return batch.append_column(
            "_pb", pa.array((h % np.uint64(num_buckets)).astype(np.int64)))

    pages = pages.map_batches(add_bucket, batch_format="pyarrow",
                              batch_size=None)

    def keep_max(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "html"], kind="stable")
        return g.drop_duplicates("url", keep="last").drop(columns=["_pb"])

    return pages.groupby("_pb").map_groups(keep_max, batch_format="pandas")


def _pages_bytes(pages_path: str) -> int:
    """On-disk footprint of the pages table (file or directory)."""
    if os.path.isdir(pages_path):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(pages_path) for f in fs)
    return os.path.getsize(pages_path)


def fgrep_stage(url_fgrep: str | None, url_fgrepv: str | None):
    """Substring URL gates (cli.py:262-267 parity: --url-fgrep/-fgrepv)."""

    def fgrep(batch: pa.Table) -> pa.Table:
        mask = None
        if url_fgrep:
            mask = pc.match_substring(batch["url"], url_fgrep)
        if url_fgrepv:
            m = pc.invert(pc.match_substring(batch["url"], url_fgrepv))
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask) if mask is not None else batch

    return fgrep


def extract_content(captures_root: str, pages_path: str, url: str | None = None,
                    url_fgrep: str | None = None, url_fgrepv: str | None = None,
                    join_strategy: str = "auto",
                    broadcast_budget_bytes: int = 256 << 20,
                    num_partitions: int | None = None,
                    **query_kwargs) -> ray.data.Dataset:
    """captures query -> fgrep gates -> content join -> text decode.

    Returns the lazy Dataset with ``html:binary`` and ``text:string``
    appended; ``text`` is the byte-identical utf-8/replace decode.

    Join strategies (J1):

    * ``broadcast`` — ``ray.put`` the url->html map once, cached per
      worker, dict lookup per batch. No shuffle; preserves the capture
      iteration order. Right while the pages table fits a worker heap.
    * ``bucket``    — the scale path: pages deduped per url (one
      bucketed shuffle, vectorized), then a distributed hash join of
      captures against pages. Both sides move once; NOTHING lands on
      the driver. Output order is not the iteration order (hash
      partitioned) — sort downstream if required.
    * ``auto``      — ``bucket`` iff the on-disk pages footprint
      exceeds ``broadcast_budget_bytes``.

    Both paths resolve duplicate pages rows to the same deterministic
    winner (lexicographically greatest html), so they return identical
    content for every url. Misses drop in both (404-skip parity,
    reference cli.py:270-273).
    """
    ds = query_captures(captures_root, url=url, **query_kwargs)
    if url_fgrep or url_fgrepv:
        ds = ds.map_batches(fgrep_stage(url_fgrep, url_fgrepv),
                            batch_format="pyarrow")
    if join_strategy == "auto":
        join_strategy = ("bucket"
                         if _pages_bytes(pages_path) > broadcast_budget_bytes
                         else "broadcast")
    if join_strategy == "broadcast":
        pages_ref = ray.put(load_pages_index(pages_path))
        ds = ds.map_batches(make_content_lookup(pages_ref),
                            batch_format="pyarrow")
    elif join_strategy == "bucket":
        from ..stages.dedup import default_join_partitions

        if num_partitions is None:
            num_partitions = default_join_partitions()
        pages = ray.data.read_parquet(pages_path, columns=["url", "html"])
        pages = dedupe_pages(pages)
        ds = ds.join(pages, "inner", num_partitions, on=("url",))
    else:
        raise ValueError("unknown join_strategy %r" % join_strategy)
    ds = ds.map_batches(decode_html_batch, batch_format="pyarrow")
    return ds


class SegmentedParquetWriter:
    """Size-rotated segment writer (warc.py:159-209 contract parity).

    * segments: ``<prefix>[-<subprefix>]-NNNNNN.extracted.parquet``
    * rotation when the open segment exceeds ``size`` bytes
    * restart-safe: probes for the first unused segment number instead
      of clobbering existing files
    * info dict written once as ``<prefix>[-<subprefix>].warcinfo.json``
      (the warcinfo-record equivalent)
    """

    def __init__(self, prefix: str, subprefix: str | None = None,
                 info: dict | None = None, size: int = 10_000_000,
                 gzip: bool = True, warc_version: str | None = None):
        # gzip / warc_version: API parity with the reference writer
        # (warc.py:160-176). Parquet output has its own codec, so gzip
        # selects the parquet compression; non-1.0 warc versions are
        # accepted-and-logged exactly like the reference.
        self.prefix = prefix
        self.subprefix = subprefix
        self.size = size
        self.gzip = gzip
        self.warc_version = warc_version
        if warc_version is not None and warc_version != "1.0":
            LOGGER.error(
                "WARC versions other than 1.0 are not correctly "
                "supported yet")
        self.segment = 0
        self._open_path: str | None = None
        self._writer: pq.ParquetWriter | None = None
        base = prefix + (("-" + subprefix) if subprefix else "")
        if info is not None:
            with open(base + ".warcinfo.json", "w") as fd:
                json.dump(info, fd, sort_keys=True)

    def _segment_name(self) -> str:
        while True:
            name = self.prefix
            if self.subprefix:
                name += "-" + self.subprefix
            name += "-%06d.extracted.parquet" % self.segment
            if os.path.exists(name):
                self.segment += 1
            else:
                return name

    def write_record(self, record: dict) -> None:
        """One WARC-record dict (the ``fetch_warc_record`` shape) ->
        one output row (reference writer parity, warc.py:170-177:
        reference example loops call ``writer.write_record(record)``
        per capture)."""
        self.write_batch(pa.table({
            "warc_type": pa.array([record.get("warc_type")], pa.string()),
            "warc_target_uri": pa.array([record.get("warc_target_uri")],
                                        pa.string()),
            "warc_source_uri": pa.array([record.get("warc_source_uri")],
                                        pa.string()),
            "warc_source_range": pa.array([record.get("warc_source_range")],
                                          pa.string()),
            "payload": pa.array([record.get("payload")], pa.binary()),
        }))

    def write_batch(self, batch: pa.Table) -> None:
        if self._writer is None:
            self._open_path = self._segment_name()
            self._writer = pq.ParquetWriter(
                self._open_path, batch.schema,
                compression="gzip" if self.gzip else "none")
        self._writer.write_table(batch)
        if os.path.exists(self._open_path) and \
                os.stat(self._open_path).st_size > self.size:
            self.close_segment()

    def close_segment(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self.segment += 1

    def close(self) -> None:
        self.close_segment()

    def write_dataset(self, ds: ray.data.Dataset,
                      batch_size: int = 4096) -> list[str]:
        """Stream a Dataset through the rotating writer (driver-side,
        ordered — the serial-writer parity path). For distributed
        output use ``ds.write_parquet(dir, partition_cols=...)``."""
        written = []
        for batch in ds.iter_batches(batch_size=batch_size,
                                     batch_format="pyarrow"):
            if batch.num_rows == 0:
                continue
            before = self._open_path
            self.write_batch(batch)
            if self._open_path != before and self._open_path:
                written.append(self._open_path)
        self.close()
        return sorted(set(written))


def get_writer(prefix: str, subprefix: str | None, info: dict,
               **kwargs) -> SegmentedParquetWriter:
    """Factory parity with cdx_toolkit.warc.get_writer (warc.py:212-213)."""
    return SegmentedParquetWriter(prefix, subprefix, info, **kwargs)


@ray.remote
def _sp_total(t: pa.Table, length_col: str) -> int:
    if t.num_rows == 0:
        return 0
    return int(t[length_col].to_numpy(zero_copy_only=False)
               .astype(np.int64).sum())


@ray.remote
def _sp_assign(t: pa.Table, base: int, size: int,
               length_col: str) -> pa.Table:
    ln = t[length_col].to_numpy(zero_copy_only=False).astype(np.int64)
    pre = base + np.concatenate([[0], np.cumsum(ln)[:-1]])
    return t.append_column(
        "seg_id", pa.array(pre // size, pa.int64())).append_column(
        "offset_in_seg", pa.array(pre % size, pa.int64()))


def segment_plan(ds: "ray.data.Dataset", *, size: int = 1_000_000,
                 sort_cols: tuple = ("urlkey", "timestamp", "digest",
                                     "length"),
                 length_col: str = "length") -> "ray.data.Dataset":
    """Ahead-of-time segment assignment for the size-rotated writer —
    every record gets its output segment id and byte offset BEFORE
    any bytes render, so N writer tasks can emit N segments
    independently and a restart can skip finished segments exactly
    (the planning half of the reference's size-rotation contract,
    warc.py:160-187, turned resumable).

    Records bin by their starting byte in the global
    ``sort_cols``-ordered byte stream: ``seg_id = prefix_bytes DIV
    size``, ``offset_in_seg = prefix_bytes MOD size`` (a record may
    straddle its segment boundary; the split rule is the writer's —
    the plan is exact either way). The sort key ends with every
    emitted column so rows tying on it are fully identical and the
    output multiset is deterministic.

    Dataflow: ONE range sort (the writer's required output order —
    O1, reference README.md:243-252), then an exact two-pass global
    prefix sum: per-block byte totals fold to an O(blocks) driver
    scan, and each block assigns locally against its exclusive base.
    No second shuffle; the driver holds one integer per block.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    cols = list(sort_cols)
    sorted_ds = ds.sort(cols).materialize()
    refs = sorted_ds.to_arrow_refs()
    totals = ray.get([_sp_total.remote(r, length_col) for r in refs])
    bases = np.concatenate([[0], np.cumsum(totals)[:-1]]).astype(
        np.int64) if totals else np.zeros(0, np.int64)
    out = [_sp_assign.remote(r, int(b), size, length_col)
           for r, b in zip(refs, bases)]
    return ray.data.from_arrow_refs(out)
