"""Real WARC/1.0 byte output (+ ingest): render, rotate, re-parse.

Closes the last user-visible format gap vs the reference: its writer
(cocrawler/cdx_toolkit cdx_toolkit/warc.py:159-209) emits
warcio-parseable ``<prefix>[-<subprefix>-]NNNNNN.extracted.warc.gz``
segments, each opened with a warcinfo record. ``SegmentedParquetWriter``
(pipelines/warcout.py) reproduces the rotation/naming/info contract in
Parquet; this module reproduces the BYTES, from the public WARC/1.0
spec (ISO 28500): records are ``WARC/1.0\\r\\n<headers>\\r\\n\\r\\n
<content-block>\\r\\n\\r\\n``, and a gzip WARC is a multi-member gzip
stream with ONE member per record (so readers can seek to a record and
inflate just it — the property Common Crawl's own WARCs rely on).

warcio is not available in this environment, so rendering AND parsing
are implemented here from the spec; the tests round-trip every segment
through :func:`parse_warc` and stdlib gzip, byte-checking payloads.

Determinism: WARC-Date comes from the writer's injectable clock and
WARC-Record-ID is a uuid5 of (target, date, payload) — same inputs,
byte-identical segments (the fixture/test contract everywhere else in
this repo).
"""

from __future__ import annotations

import gzip as _gzip
import hashlib
import logging
import os
import uuid

import pyarrow as pa
import ray.data

LOGGER = logging.getLogger(__name__)

__all__ = ["render_warc_record", "render_warcinfo", "render_record",
           "SegmentedWARCWriter", "get_warc_writer", "parse_warc",
           "read_warc", "index_warc", "fetch_record_range",
           "write_dataset_distributed", "write_warc_distributed",
           "write_wet_distributed", "write_wat_distributed"]

_UUID_NS = uuid.UUID("6ba7b811-9dad-11d1-80b4-00c04fd430c8")  # RFC 4122 URL ns


def _record_id(*parts: bytes) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(p)
        h.update(b"\x00")
    return "<urn:uuid:%s>" % uuid.uuid5(_UUID_NS, h.hexdigest())


def render_warc_record(warc_type: str, headers: list[tuple[str, str]],
                       content_block: bytes, *,
                       warc_version: str = "1.0") -> bytes:
    """One WARC record as bytes (spec §4: header block, CRLF CRLF,
    content block, CRLF CRLF). ``headers`` must NOT include WARC-Type /
    Content-Length (added here, in spec order).

    Header VALUES are sanitized: CR/LF characters rewrite to %0D/%0A
    so a hostile crawled URL (href values can contain newlines) cannot
    inject header lines or truncate the header block — a raw newline
    in WARC-Target-URI would otherwise forge records or break every
    parse of the segment. Values without CR/LF (all normal URLs,
    including percent-escaped ones) pass through byte-identical."""
    lines = ["WARC/%s" % warc_version, "WARC-Type: %s" % warc_type]
    lines += ["%s: %s" % (k, str(v).replace("\r", "%0D")
                          .replace("\n", "%0A"))
              for k, v in headers]
    lines.append("Content-Length: %d" % len(content_block))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")
    return head + content_block + b"\r\n\r\n"


def render_warcinfo(filename: str, info: dict, date_iso: str, *,
                    warc_version: str = "1.0") -> bytes:
    """The warcinfo record opening each segment (reference
    _start_new_warc, warc.py:203-209): content block is the info dict
    as warc-fields, sorted for byte determinism."""
    body = "".join("%s: %s\r\n" % (k, info[k])
                   for k in sorted(info)).encode("utf-8")
    headers = [
        # id from the BASENAME: the same logical segment written under
        # two roots must be byte-identical (determinism contract)
        ("WARC-Record-ID",
         _record_id(os.path.basename(filename).encode(), body)),
        ("WARC-Date", date_iso),
        ("WARC-Filename", os.path.basename(filename)),
        ("Content-Type", "application/warc-fields"),
    ]
    return render_warc_record("warcinfo", headers, body,
                              warc_version=warc_version)


def _http_block(record: dict) -> bytes:
    """Content block for a response record: the payload if it already
    is a full HTTP message, else a synthesized minimal response (the
    pages table stores bare bodies; a real fetch stores the message)."""
    payload = record.get("payload") or b""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    if payload.startswith(b"HTTP/"):
        return payload
    from http.client import responses

    from .warcout import HTTP_STATUS_TEXT

    status = str(record.get("status") or "200")
    if " " not in status:
        try:
            code = int(status)
            reason = HTTP_STATUS_TEXT.get(code) or responses.get(code)
        except ValueError:
            reason = None
        status = ("%s %s" % (status, reason)) if reason else status
    mime = record.get("mime") or "text/html"
    head = ("HTTP/1.1 %s\r\nContent-Type: %s\r\n"
            "Content-Length: %d\r\n\r\n"
            % (status, mime, len(payload))).encode("utf-8")
    return head + payload


def render_record(record: dict, *, default_date_iso: str,
                  warc_version: str = "1.0") -> bytes:
    """One record dict (the ``fetch_warc_record`` / ``CaptureObject``
    shape: warc_type, warc_target_uri, warc_source_uri,
    warc_source_range, payload [, status, mime, warc_date]) -> the
    record's raw WARC bytes. Pure function of its inputs (WARC-Date
    from the injectable clock, WARC-Record-ID a uuid5 of
    target/date/payload), so the serial writer and the distributed
    per-segment render tasks share it and emit identical bytes."""
    rtype = record.get("warc_type") or "response"
    if rtype == "conversion":
        # WET-style text-only record (CC's *.warc.wet.gz sidecar):
        # the content block IS the extracted text, no HTTP message
        block = record.get("payload") or b""
        if isinstance(block, str):
            block = block.encode("utf-8")
        ctype = "text/plain"
    else:
        block = _http_block(record)
        ctype = "application/http; msgtype=response"
    date = record.get("warc_date") or default_date_iso
    target = record.get("warc_target_uri") or ""
    headers = [
        ("WARC-Record-ID",
         _record_id(target.encode(), date.encode(), block)),
        ("WARC-Date", date),
        ("WARC-Target-URI", target),
    ]
    if record.get("warc_source_uri"):
        headers.append(("WARC-Source-URI", record["warc_source_uri"]))
    if record.get("warc_source_range"):
        headers.append(("WARC-Source-Range",
                        record["warc_source_range"]))
    headers.append(("Content-Type", ctype))
    return render_warc_record(rtype, headers, block,
                              warc_version=warc_version)


def _batch_records(batch: "pa.Table", mode: str, *, url_col: str = "url",
                   text_col: str = "text"):
    """Rows of one Arrow batch -> record dicts, in row order — the ONE
    row->record mapping for all three sidecar flavors, shared by the
    serial writers and the distributed render stage (parity by
    construction):

    * ``warc``: content rows (url, html|text [, status, mime,
      warc_source_uri|filename]) -> ``response`` records
    * ``wet``:  (url, text) rows -> text-only ``conversion`` records
    * ``wat``:  page-metadata rows (url, title, n_links, content_len,
      plain_len) -> canonical sorted-key JSON ``metadata`` records
    """
    if mode == "warc":
        cols = batch.column_names
        for row in batch.to_pylist():
            payload = row.get("html")
            if payload is None and "text" in cols:
                payload = (row.get("text") or "").encode("utf-8")
            yield {
                "warc_type": "response",
                "warc_target_uri": row.get("url"),
                # an explicit warc_source_uri column (the wb replay
                # form the CLI --wb flag appends) wins over the bare
                # capture filename
                "warc_source_uri": row.get("warc_source_uri")
                or row.get("filename"),
                "payload": payload or b"",
                "status": row.get("status"),
                "mime": row.get("mime"),
            }
    elif mode == "wet":
        for u, t in zip(batch[url_col].to_pylist(),
                        batch[text_col].to_pylist()):
            yield {"warc_type": "conversion",
                   "warc_target_uri": u,
                   "payload": (t or "").encode("utf-8")}
    elif mode == "wat":
        import json as _json

        for u, t, n, c, p in zip(batch[url_col].to_pylist(),
                                 batch["title"].to_pylist(),
                                 batch["n_links"].to_pylist(),
                                 batch["content_len"].to_pylist(),
                                 batch["plain_len"].to_pylist()):
            env = {"Envelope": {
                "WARC-Header-Metadata": {"WARC-Target-URI": u},
                "Payload-Metadata": {
                    "Title": t or "", "Links": int(n or 0),
                    "Content-Length": int(c or 0),
                    "Plain-Text-Length": int(p or 0)}}}
            yield {"warc_type": "metadata",
                   "warc_target_uri": u,
                   "payload": _json.dumps(env, sort_keys=True,
                                          separators=(",", ":"))
                   .encode("utf-8")}
    else:
        raise ValueError("unknown record mode %r" % mode)


class SegmentedWARCWriter:
    """Size-rotated REAL-WARC segment writer (reference
    CDXToolkitWARCWriter contract, warc.py:159-209):

    * names: ``<prefix>-[<subprefix>-]NNNNNN.extracted.warc[.gz]``
    * a warcinfo record opens every segment
    * rotation when the open segment's file size exceeds ``size``
    * restart-safe: probes for the first unused segment number
    * ``gzip=True``: one gzip member per record (CC-style member-per-
      record stream); ``gzip=False``: plain concatenated records

    ``date_iso`` is the injectable clock (WARC-Date of every record);
    fixed inputs give byte-identical output.
    """

    def __init__(self, prefix: str, subprefix: str | None = None,
                 info: dict | None = None, size: int = 1_000_000_000,
                 gzip: bool = True, warc_version: str | None = None,
                 date_iso: str = "2026-01-01T00:00:00Z"):
        self.prefix = prefix
        self.subprefix = subprefix
        self.info = dict(info or {})
        self.size = size
        self.gzip = gzip
        if warc_version is not None and warc_version != "1.0":
            LOGGER.error(
                "WARC versions other than 1.0 are not correctly "
                "supported yet")
        self.warc_version = warc_version or "1.0"
        self.date_iso = date_iso
        self.segment = 0
        self._fd = None
        self._path: str | None = None

    # -- naming (reference _unique_warc_filename, warc.py:189-201) --
    def _unique_name(self) -> str:
        while True:
            name = self.prefix + "-"
            if self.subprefix is not None:
                name += self.subprefix + "-"
            name += "%06d.extracted.warc" % self.segment
            if self.gzip:
                name += ".gz"
            if os.path.exists(name):
                self.segment += 1
            else:
                return name

    def _emit(self, raw: bytes) -> None:
        if self.gzip:
            # mtime=0 so identical records gzip to identical members
            raw = _gzip.compress(raw, mtime=0)
        self._fd.write(raw)

    def _start_segment(self) -> None:
        self._path = self._unique_name()
        self._fd = open(self._path, "wb")
        self._emit(render_warcinfo(self._path, self.info, self.date_iso,
                                   warc_version=self.warc_version))

    def write_record(self, record: dict) -> None:
        """One record dict (the ``fetch_warc_record`` /
        ``CaptureObject`` shape: warc_type, warc_target_uri,
        warc_source_uri, warc_source_range, payload [, status, mime,
        warc_date]) -> one WARC record, rotating segments by size."""
        if self._fd is None:
            self._start_segment()
        self._emit(render_record(record, default_date_iso=self.date_iso,
                                 warc_version=self.warc_version))
        self._fd.flush()
        if os.fstat(self._fd.fileno()).st_size > self.size:
            self.close_segment()

    def close_segment(self) -> None:
        if self._fd is not None:
            self._fd.close()
            self._fd = None
            self.segment += 1

    def close(self) -> None:
        self.close_segment()

    def write_dataset(self, ds: ray.data.Dataset,
                      batch_size: int = 1024) -> list[str]:
        """Stream content rows (url, html/text [, status, mime]) through
        the rotating writer — the `cdxt warc` sink. Driver-side ordered
        single-writer (serial parity with the reference loop); for
        distributed output shard by partition and give each shard its
        own subprefix (deterministic names stay restart-safe)."""
        written = []
        for batch in ds.iter_batches(batch_size=batch_size,
                                     batch_format="pyarrow"):
            for rec in _batch_records(batch, "warc"):
                self.write_record(rec)
                if self._path and self._path not in written:
                    written.append(self._path)
        self.close()
        return sorted(set(written))


def get_warc_writer(prefix: str, subprefix: str | None, info: dict,
                    **kwargs) -> SegmentedWARCWriter:
    """Factory parity with cdx_toolkit.warc.get_writer (warc.py:212-213),
    real-bytes edition."""
    return SegmentedWARCWriter(prefix, subprefix, info, **kwargs)


# ---------------------------------------------------------------------------
# Parsing / ingest
# ---------------------------------------------------------------------------

def _parse_plain(data: bytes, base_offset: int = 0,
                 member_len: int | None = None) -> list[dict]:
    """Parse UNCOMPRESSED WARC bytes into record dicts with byte spans:
    ``{"warc_type", "version", "headers", "content", "offset",
    "length"}``. For plain files offset/length are the record's raw
    span; a gzip caller overrides them with the member span (the
    CDX/byte-range contract: ``offset``+``length`` name the bytes a
    range GET must fetch to replay the record)."""
    out = []
    pos = 0
    n = len(data)
    while pos < n:
        while pos < n and data[pos:pos + 2] == b"\r\n":
            pos += 2
        if pos >= n:
            break
        if not data[pos:pos + 5] == b"WARC/":
            raise ValueError("bad record start at byte %d" % pos)
        start = pos
        hdr_end = data.index(b"\r\n\r\n", pos)
        head = data[pos:hdr_end].decode("utf-8")
        lines = head.split("\r\n")
        headers: dict = {}
        for ln in lines[1:]:
            k, _, v = ln.partition(":")
            headers[k.strip()] = v.strip()
        clen = int(headers["Content-Length"])
        body_start = hdr_end + 4
        content = data[body_start:body_start + clen]
        if len(content) != clen:
            raise ValueError("truncated record at byte %d" % pos)
        pos = body_start + clen
        if data[pos:pos + 4] != b"\r\n\r\n":
            raise ValueError("missing record separator at byte %d" % pos)
        pos += 4
        out.append({"warc_type": headers.get("WARC-Type"),
                    "version": lines[0],
                    "headers": headers,
                    "content": content,
                    "offset": (base_offset if member_len is not None
                               else base_offset + start),
                    "length": (member_len if member_len is not None
                               else pos - start)})
    return out


def _iter_gzip_members(data: bytes):
    """Walk a multi-member gzip stream: yields (offset, length,
    inflated_bytes) per member — the seekable unit of a CC-style WARC."""
    import zlib

    pos = 0
    n = len(data)
    while pos < n:
        d = zlib.decompressobj(wbits=31)
        raw = d.decompress(data[pos:])
        raw += d.flush()
        end = n - len(d.unused_data)
        yield pos, end - pos, raw
        pos = end


def parse_warc(data: bytes) -> list[dict]:
    """Parse a WARC file's bytes (gzip multi-member or plain) into
    record dicts: ``{"warc_type", "version", "headers", "content",
    "offset", "length"}``. ``offset``/``length`` are the byte span a
    range request needs (the gzip MEMBER span for .gz files — each
    record is its own member — or the raw record span for plain files).
    Spec-level strictness: version line, CRLF header block, exact
    Content-Length content block, CRLF CRLF separator."""
    if data[:2] == b"\x1f\x8b":
        out = []
        for off, ln, raw in _iter_gzip_members(data):
            out.extend(_parse_plain(raw, base_offset=off, member_len=ln))
        return out
    return _parse_plain(data)


def fetch_record_range(path: str, offset: int, length: int) -> dict:
    """Byte-range record fetch — the local analog of the reference's
    HTTP ``Range: bytes=offset..offset+length-1`` WARC fetch
    (warc.py:123-137): read EXACTLY the indexed span, inflate if it is
    a gzip member, parse the one record inside."""
    with open(path, "rb") as fd:
        fd.seek(offset)
        blob = fd.read(length)
    if len(blob) != length:
        raise ValueError("short range read: wanted %d got %d"
                         % (length, len(blob)))
    recs = parse_warc(blob)
    if len(recs) != 1:
        raise ValueError("range %d+%d holds %d records, expected 1"
                         % (offset, length, len(recs)))
    return recs[0]


def _split_http(content: bytes) -> tuple[str, bytes]:
    """HTTP message -> (status line, body)."""
    sep = content.find(b"\r\n\r\n")
    if sep < 0 or not content.startswith(b"HTTP/"):
        return "", content
    status_line = content[:content.find(b"\r\n")].decode(
        "utf-8", errors="replace")
    return status_line, content[sep + 4:]


def read_warc(paths: str | list[str],
              record_types: tuple = ("response",)) -> ray.data.Dataset:
    """WARC ingest as a Ray Data source: one row per selected record
    ``(url, warc_date, status, payload:binary, segment)``. For
    ``conversion`` (WET) records the payload is the text block as-is
    and status is ''. Reads are one task per file (a WARC is not
    splittable without an index; at CC scale files are ~1 GB each, so
    file-granular parallelism is the natural unit — same layout the
    reference's byte-range fetches assume)."""
    if isinstance(paths, str):
        paths = [paths]
    want = set(record_types)

    def parse_file(row: dict) -> list[dict]:
        with open(row["path"], "rb") as fd:
            recs = parse_warc(fd.read())
        out = []
        for r in recs:
            if r["warc_type"] not in want:
                continue
            if r["content"].startswith(b"HTTP/"):
                status_line, body = _split_http(r["content"])
                status = status_line.split(" ", 2)[1] \
                    if " " in status_line else ""
            else:
                status, body = "", r["content"]
            out.append({
                "url": r["headers"].get("WARC-Target-URI", ""),
                "warc_date": r["headers"].get("WARC-Date", ""),
                "status": status,
                "payload": body,
                "segment": os.path.basename(row["path"]),
            })
        return out

    return ray.data.from_items(
        [{"path": p} for p in paths]).flat_map(parse_file)


def write_wet(ds: ray.data.Dataset, prefix: str,
              subprefix: str | None = None, info: dict | None = None, *,
              url_col: str = "url", text_col: str = "text",
              size: int = 1_000_000_000, gzip: bool = True,
              date_iso: str = "2026-01-01T00:00:00Z",
              batch_size: int = 1024) -> list[str]:
    """WET export: (url, text) rows -> text-only ``conversion`` records
    in size-rotated segments — the CC ``*.warc.wet.gz`` sidecar format
    that completes the WARC/WAT/WET trio (WAT = page_metadata,
    stages/text.py). Driver-side ordered single-writer like
    ``SegmentedWARCWriter.write_dataset``; shard by partition with
    per-shard subprefixes for distributed output."""
    w = SegmentedWARCWriter(prefix, subprefix, info or {}, size=size,
                            gzip=gzip, date_iso=date_iso)
    written = []
    for batch in ds.iter_batches(batch_size=batch_size,
                                 batch_format="pyarrow"):
        for rec in _batch_records(batch, "wet", url_col=url_col,
                                  text_col=text_col):
            w.write_record(rec)
            if w._path and w._path not in written:
                written.append(w._path)
    w.close()
    return sorted(set(written))


def write_wat(ds: ray.data.Dataset, prefix: str,
              subprefix: str | None = None, info: dict | None = None, *,
              url_col: str = "url", size: int = 1_000_000_000,
              gzip: bool = True, date_iso: str = "2026-01-01T00:00:00Z",
              batch_size: int = 1024) -> list[str]:
    """WAT export: page-metadata rows -> JSON ``metadata`` records in
    size-rotated segments — the CC ``*.warc.wat.gz`` sidecar, closing
    the WARC/WAT/WET distribution trio (WARC = write_dataset, WET =
    write_wet). Input rows carry ``(url, title, n_links, content_len,
    plain_len)`` (the stages/text.page_metadata_batch shape); the
    payload is the canonical sorted-key JSON envelope, so output is
    byte-deterministic under the injectable clock."""
    w = SegmentedWARCWriter(prefix, subprefix, info or {}, size=size,
                            gzip=gzip, date_iso=date_iso)
    written = []
    for batch in ds.iter_batches(batch_size=batch_size,
                                 batch_format="pyarrow"):
        for rec in _batch_records(batch, "wat", url_col=url_col):
            w.write_record(rec)
            if w._path and w._path not in written:
                written.append(w._path)
    w.close()
    return sorted(set(written))


# ---------------------------------------------------------------------------
# Distributed segmented writer (VERDICT r4 item 1): byte-identical to
# the serial SegmentedWARCWriter, but every heavy stage is distributed.
# ---------------------------------------------------------------------------

def _seg_name(prefix: str, subprefix: str | None, segment: int,
              gzip: bool) -> str:
    """Segment file name for a given number (the serial
    ``_unique_name`` naming, sans the existence probe)."""
    name = prefix + "-"
    if subprefix is not None:
        name += subprefix + "-"
    name += "%06d.extracted.warc" % segment
    if gzip:
        name += ".gz"
    return name


def _info_member(name: str, info: dict, date_iso: str, use_gzip: bool,
                 warc_version: str) -> bytes:
    """The warcinfo member (gzip member or raw record) opening the
    segment ``name`` — used both for SIZE during rotation planning and
    for BYTES in the segment writer, so the two cannot disagree."""
    raw = render_warcinfo(name, info, date_iso, warc_version=warc_version)
    return _gzip.compress(raw, mtime=0) if use_gzip else raw


@ray.remote
def _member_lengths(t: "pa.Table"):
    """Per-record emitted byte length of one rendered block (tiny
    int64 array — the only thing the rotation scan needs). Empty
    inputs can surface as schema-less zero-row blocks."""
    import numpy as np
    import pyarrow.compute as pc

    if t.num_rows == 0 or "member" not in t.column_names:
        return np.zeros(0, np.int64)
    return pc.binary_length(t["member"]).to_numpy().astype("int64")


@ray.remote(num_returns=2)
def _rot_scan(state, lengths, cap: int, prefix: str,
              subprefix: str | None, info: dict, date_iso: str,
              use_gzip: bool, warc_version: str):
    """Exact serial-rotation simulation over one block of emitted
    lengths. ``state = (segment_no, bytes_in_open_segment|None)``
    threads block-to-block (a chain of these tiny tasks — the scan
    is inherently sequential, but each link touches only an int64
    array, never the payload bytes). Semantics mirror the serial
    writer exactly: a segment starts lazily with its warcinfo member,
    every record lands in the OPEN segment, and rotation happens
    after a record pushes the file size strictly over ``cap``.
    Within a block the scan is vectorized: one searchsorted per
    OUTPUT SEGMENT (not per record) over the running cumsum.

    Returns ``([(seg_id, row_start, row_stop), ...], exit_state)``.
    """
    import numpy as np

    seg_no, bytes_in = state
    n = len(lengths)
    seg_ids = np.empty(n, np.int64)
    cum = np.cumsum(lengths)
    i = 0
    while i < n:
        if bytes_in is None:
            bytes_in = len(_info_member(
                _seg_name(prefix, subprefix, seg_no, use_gzip),
                info, date_iso, use_gzip, warc_version))
        base = int(cum[i - 1]) if i > 0 else 0
        # first j >= i with bytes_in + (cum[j]-base) > cap -> record j
        # is still written into this segment, rotation happens after
        # it; the clamp handles a record that alone overflows a fresh
        # segment (searchsorted over the full cumsum may point before
        # i, but rows < i are already assigned)
        j = max(int(np.searchsorted(cum, cap + base - bytes_in,
                                    side="right")), i)
        if j >= n:
            seg_ids[i:] = seg_no
            bytes_in += int(cum[-1]) - base
            break
        seg_ids[i:j + 1] = seg_no
        seg_no += 1
        bytes_in = None
        i = j + 1
    if n:
        segs, starts = np.unique(seg_ids, return_index=True)
        ends = np.append(starts[1:], n)
        summary = [(int(s), int(a), int(b))
                   for s, a, b in zip(segs, starts, ends)]
    else:
        summary = []
    return summary, (seg_no, bytes_in)


@ray.remote
def _seg_write(name: str, info: dict, date_iso: str, use_gzip: bool,
               warc_version: str, spans, resume: bool, *tables):
    """Render ONE output segment: warcinfo member + the member bytes
    of the planned row spans, written atomically (tmp + rename) so a
    crashed run never leaves a truncated file that resume would skip.
    ``spans`` aligns 1:1 with ``tables`` (the rendered blocks this
    segment draws from, in stream order)."""
    if os.path.exists(name):
        if resume:
            return name
        raise FileExistsError(
            "segment %s already exists; pass resume=True to skip "
            "segments finished by a prior identical run, or remove "
            "the file" % name)
    tmp = name + ".inprogress"
    with open(tmp, "wb") as fd:
        fd.write(_info_member(name, info, date_iso, use_gzip,
                              warc_version))
        for t, (a, b) in zip(tables, spans):
            for buf in t["member"].slice(a, b - a).to_pylist():
                fd.write(buf)
    os.replace(tmp, name)
    return name


def write_dataset_distributed(
        ds: "ray.data.Dataset", prefix: str, subprefix: str | None = None,
        info: dict | None = None, *, mode: str = "warc",
        size: int = 1_000_000_000, gzip: bool = True,
        warc_version: str | None = None,
        date_iso: str = "2026-01-01T00:00:00Z", url_col: str = "url",
        text_col: str = "text", batch_size: int = 1024,
        resume: bool = False) -> list[str]:
    """Distributed WARC/WET/WAT segment writer, byte-identical to the
    serial ``SegmentedWARCWriter`` path for the same input order (the
    parity the tests assert file-by-file) — the scale twin of the
    reference writer (cocrawler/cdx_toolkit cdx_toolkit/warc.py:159-209)
    and the engine's answer to its one remaining single-process stage:

    1. **Render** (distributed ``map_batches``): every record's raw
       bytes via the SAME ``_batch_records`` + ``render_record`` the
       serial writer uses, gzip-compressed per record (one gzip member
       per record, ``mtime=0``) — the member bytes ARE the file bytes.
    2. **Plan** (chain of tiny tasks): the serial rotation (lazy
       warcinfo open, rotate when file size strictly exceeds ``size``)
       simulated EXACTLY over per-record emitted lengths — int64
       arrays only; the payload never revisits the driver. gzip'd
       warcinfo sizes can differ per segment number, so the plan
       computes each segment's real opening member.
    3. **Write** (one task per segment): concatenate the planned
       member spans after the segment's warcinfo, atomic tmp+rename.
       Segments are the resumable unit: ``resume=True`` skips planned
       segment files that already exist (only valid when re-running
       the SAME plan — same input, order, prefix and size).

    The rendered members are materialized in the object store (spill-
    backed) between render and write — the same bytes a serial writer
    would buffer through the driver, held distributed instead. Raw
    tasks rather than ``groupby(seg_id)`` because rotation assignment
    is order-defined, not key-defined: segments are contiguous row
    runs, so each writer task slices exactly the blocks it needs and
    the bytes move once, with no shuffle.

    Restart-safe naming parity: starts at the first unused segment
    number (the serial probe) unless resuming; with ``resume=True``
    the plan starts at segment 0 and existing planned files are
    trusted as finished prior output. A planned name occupied PAST
    the contiguous start (a numbering gap) fails fast before any
    write — the serial writer renumbers around gaps mid-run, which a
    pre-computed plan cannot do without changing warcinfo bytes.

    Filesystem contract: writer tasks open ``prefix``'s path on the
    node they run on (like every Ray Data file sink) — on a
    multi-node cluster the prefix must live on a shared mount, and
    the driver-side probe/fail-fast checks assume they see the same
    filesystem the workers write to.
    """
    if mode not in ("warc", "wet", "wat"):
        raise ValueError("unknown mode %r" % mode)
    if size <= 0:
        raise ValueError("size must be positive")
    wv = warc_version or "1.0"
    if warc_version is not None and warc_version != "1.0":
        LOGGER.error(
            "WARC versions other than 1.0 are not correctly "
            "supported yet")
    info = dict(info or {})
    use_gzip = gzip

    def render_members(batch: "pa.Table") -> "pa.Table":
        members = []
        for rec in _batch_records(batch, mode, url_col=url_col,
                                  text_col=text_col):
            raw = render_record(rec, default_date_iso=date_iso,
                                warc_version=wv)
            members.append(_gzip.compress(raw, mtime=0)
                           if use_gzip else raw)
        return pa.table({"member": pa.array(members, pa.large_binary())})

    rendered = ds.map_batches(render_members, batch_format="pyarrow",
                              batch_size=batch_size).materialize()
    refs = rendered.to_arrow_refs()

    start_seg = 0
    if not resume:
        while os.path.exists(_seg_name(prefix, subprefix, start_seg,
                                       use_gzip)):
            start_seg += 1

    # rotation plan: a sequential chain of per-block scans (state is
    # two ints; lengths are int64 arrays — O(records) bytes total,
    # distributed, never collected)
    length_refs = [_member_lengths.remote(r) for r in refs]
    state = (start_seg, None)
    summary_refs = []
    for lr in length_refs:
        s_ref, state = _rot_scan.remote(state, lr, size, prefix,
                                        subprefix, info, date_iso,
                                        use_gzip, wv)
        summary_refs.append(s_ref)
    summaries = ray.get(summary_refs)

    # segment -> ordered [(block_idx, start, stop)] slices
    per_seg: dict[int, list[tuple[int, int, int]]] = {}
    for bi, summ in enumerate(summaries):
        for seg, a, b in summ:
            per_seg.setdefault(seg, []).append((bi, a, b))

    if not resume:
        # fail FAST (before any segment renders to disk) if a planned
        # name is taken past the contiguous start probe — the serial
        # writer would silently renumber around the gap, which a
        # pre-computed plan cannot do without changing warcinfo bytes;
        # non-contiguous pre-existing numbering needs a clean dir or
        # resume=True (round-5 review finding)
        taken = [_seg_name(prefix, subprefix, seg, use_gzip)
                 for seg in sorted(per_seg)
                 if os.path.exists(_seg_name(prefix, subprefix, seg,
                                             use_gzip))]
        if taken:
            raise FileExistsError(
                "planned segment name(s) already exist (gap in the "
                "existing numbering): %s — remove them, write under "
                "a fresh prefix, or pass resume=True to trust them "
                "as finished output of an identical prior run"
                % ", ".join(taken[:3]))

    writes = []
    for seg in sorted(per_seg):
        slices = per_seg[seg]
        spans = [(a, b) for _, a, b in slices]
        tabs = [refs[bi] for bi, _, _ in slices]
        writes.append(_seg_write.remote(
            _seg_name(prefix, subprefix, seg, use_gzip), info,
            date_iso, use_gzip, wv, spans, resume, *tabs))
    return sorted(ray.get(writes))


def write_warc_distributed(ds, prefix, subprefix=None, info=None,
                           **kwargs) -> list[str]:
    """Distributed twin of ``SegmentedWARCWriter.write_dataset``."""
    return write_dataset_distributed(ds, prefix, subprefix, info,
                                     mode="warc", **kwargs)


def write_wet_distributed(ds, prefix, subprefix=None, info=None,
                          **kwargs) -> list[str]:
    """Distributed twin of :func:`write_wet`."""
    return write_dataset_distributed(ds, prefix, subprefix, info,
                                     mode="wet", **kwargs)


def write_wat_distributed(ds, prefix, subprefix=None, info=None,
                          **kwargs) -> list[str]:
    """Distributed twin of :func:`write_wat`."""
    return write_dataset_distributed(ds, prefix, subprefix, info,
                                     mode="wat", **kwargs)


def parse_wat_batch(batch: "pa.Table") -> "pa.Table":
    """metadata-record payloads -> page-metadata rows (the inverse of
    :func:`write_wat`; vectorized polars json_decode)."""
    import polars as pl

    sch = pa.schema([("url", pa.string()), ("title", pa.string()),
                     ("n_links", pa.int64()),
                     ("content_len", pa.int64()),
                     ("plain_len", pa.int64())])
    if batch.num_rows == 0:
        return sch.empty_table()
    payloads = pl.Series(
        [(b or b"").decode("utf-8")
         for b in batch["payload"].to_pylist()], dtype=pl.Utf8)
    dtype = pl.Struct([pl.Field("Envelope", pl.Struct([
        pl.Field("WARC-Header-Metadata",
                 pl.Struct([pl.Field("WARC-Target-URI", pl.Utf8)])),
        pl.Field("Payload-Metadata", pl.Struct([
            pl.Field("Title", pl.Utf8), pl.Field("Links", pl.Int64),
            pl.Field("Content-Length", pl.Int64),
            pl.Field("Plain-Text-Length", pl.Int64)]))]))])
    j = payloads.str.json_decode(dtype).struct.field("Envelope")
    hdr = j.struct.field("WARC-Header-Metadata")
    pm = j.struct.field("Payload-Metadata")
    out = pl.DataFrame({
        "url": hdr.struct.field("WARC-Target-URI"),
        "title": pm.struct.field("Title"),
        "n_links": pm.struct.field("Links"),
        "content_len": pm.struct.field("Content-Length"),
        "plain_len": pm.struct.field("Plain-Text-Length"),
    }).to_arrow()
    return out.cast(sch)


def index_warc(paths: str | list[str]) -> ray.data.Dataset:
    """CDX indexing: WARC segments -> a captures-table row per response
    record — the inverse of the writer and the step Common Crawl runs
    to produce the CDX index this engine queries. Row shape mirrors the
    capture record (SURVEY §1.1): ``(urlkey, timestamp, url, digest,
    status, mime, length, offset, filename)`` where ``offset``/
    ``length`` are the REAL byte span (gzip member) a range fetch
    needs — ``fetch_record_range(filename, offset, length)`` replays
    the record from exactly those bytes (round-trip tested).

    ``digest`` is ``sha256:<hex>`` of the HTTP body (the reference's
    CDX carries sha1; sha256 here so the DuckDB oracle can recompute
    it). One task per segment file.
    """
    import hashlib as _hashlib

    from ..canon import surt

    if isinstance(paths, str):
        paths = [paths]

    def index_file(row: dict) -> list[dict]:
        path = row["path"]
        with open(path, "rb") as fd:
            recs = parse_warc(fd.read())
        out = []
        for r in recs:
            if r["warc_type"] != "response":
                continue
            status_line, body = _split_http(r["content"])
            status = status_line.split(" ", 2)[1] if " " in status_line \
                else ""
            url = r["headers"].get("WARC-Target-URI", "")
            date = r["headers"].get("WARC-Date", "")
            ts = "".join(ch for ch in date if ch.isdigit())[:14]
            ctype = ""
            sep = r["content"].find(b"\r\n\r\n")
            if sep > 0:
                for ln in r["content"][:sep].split(b"\r\n")[1:]:
                    if ln.lower().startswith(b"content-type:"):
                        ctype = ln.split(b":", 1)[1].strip() \
                            .decode("utf-8", "replace")
                        break
            out.append({
                "urlkey": surt(url),
                "timestamp": ts,
                "url": url,
                "digest": "sha256:"
                          + _hashlib.sha256(body).hexdigest(),
                "status": status,
                "mime": ctype.split(";")[0].strip(),
                "length": int(r["length"]),
                "offset": int(r["offset"]),
                "filename": os.path.basename(path),
            })
        return out

    return ray.data.from_items(
        [{"path": p} for p in paths]).flat_map(index_file)
