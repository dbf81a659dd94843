"""SURT URL canonicalization + 64-bit hashing.

The reference consumes (never computes) the ``urlkey`` SURT field
produced by CDX servers (cocrawler/cdx_toolkit README.md:207-212:
"fields are in SURT format ... scheme dropped, www. dropped, host
reversed with commas, e.g. ``org,commoncrawl)/``").  This module is the
engine's own canonicalizer implementing that spec:

* lowercase scheme/host/path
* drop the scheme and any ``www.`` / ``www2.``-style host prefix
* reverse host labels joined by commas, then ``)``
* drop default ports (80/443), keep explicit non-default ports
* sort query parameters bytewise; drop a lone trailing ``?``
* drop fragments; strip trailing slash on the root path

Plus a 64-bit FNV-1a hash of the urlkey used as the dedup /
shard-routing key (north_rule: "SURT canonicalization + 64-bit hashing
in map_batches").

Hot path: ``canonicalize_batch`` is the per-batch kernel (a
``map_batches`` function, or a host round's per-row pass). A batch has
far fewer distinct origins (``scheme://host:port``) than rows, so work
that depends only on the origin runs once per distinct origin: each
url is split into origin and tail with ``str.find`` and positional
slices (no capture groups), the origins are dictionary-encoded, and the
host and port rules give each dictionary entry its urlkey prefix
``rev[:port])``, its host and that prefix's FNV-1a state. Per row, only
the path is lowercased; the query is sorted once per distinct query
with ``&``; hash64 continues from the origin prefix's state over the
row's suffix bytes. Rows outside the plain grammar (non-ASCII,
whitespace or control bytes, ``%``, ``@``, ``[``/``]``, or a ``://``
after something that is not a scheme) take ``surt`` itself.
"""

from __future__ import annotations

import os
import re
from urllib.parse import urlsplit, unquote

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WWW_RE = re.compile(r"^www\d*\.")

_FNV64_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV64_PRIME = np.uint64(0x100000001B3)


def surt(url: str) -> str:
    """Canonical SURT urlkey for one URL.

    >>> surt('https://www.CommonCrawl.org/')
    'org,commoncrawl)/'
    >>> surt('http://example.com/Path?b=2&a=1#frag')
    'com,example)/path?a=1&b=2'
    >>> surt('https://sub.example.co.uk:8080/x')
    'uk,co,example,sub:8080)/x'
    """
    u = url.strip()
    if "://" not in u:
        u = "http://" + u
    parts = urlsplit(u)
    host = (parts.hostname or "").lower().rstrip(".")
    host = _WWW_RE.sub("", host)
    rev = ",".join(reversed(host.split("."))) if host else ""

    try:
        port = parts.port
    except ValueError:  # garbage port text -> treat as portless
        port = None
    if port is not None and port not in (80, 443):
        rev += ":%d" % port

    path = unquote(parts.path or "/").lower()
    if path == "":
        path = "/"

    key = rev + ")" + path
    if parts.query:
        params = sorted(parts.query.split("&"))
        key += "?" + "&".join(params)
    return key


def host_of(url: str) -> str:
    """Lowercased registrable host of a URL ('' when unparseable)."""
    u = url.strip()
    if "://" not in u:
        u = "http://" + u
    return (urlsplit(u).hostname or "").lower().rstrip(".")


def hash64(key: str) -> int:
    """64-bit FNV-1a of a urlkey, as unsigned int."""
    return _fnv1a(key.encode("utf-8"), int(_FNV64_OFFSET))


def _fnv1a(data: bytes, h: int) -> int:
    """FNV-1a state ``h`` continued over ``data``."""
    for b in data:
        h = ((h ^ b) * int(_FNV64_PRIME)) & 0xFFFFFFFFFFFFFFFF
    return h


def hash64_batch(keys, init=None) -> np.ndarray:
    """Vectorized FNV-1a over a string array -> uint64 (None -> 0).

    Accepts a numpy object array or an Arrow (Chunked)Array. The byte
    recurrence is sequential per string but vectorized ACROSS strings:
    rows are sorted by length descending so step ``j`` updates a
    contiguous prefix (no boolean masking), giving cache-friendly numpy
    gathers instead of a per-byte Python loop — the scalar ``hash64``
    stays as the executable spec.

    ``init`` (uint64 per row) starts each row from a state instead of
    the offset basis: ``hash64_batch(suffixes, hash64_batch(prefixes))``
    is ``hash64_batch(prefixes + suffixes)``."""
    if isinstance(keys, np.ndarray) or isinstance(keys, list):
        arr = pa.array(keys, type=pa.string())
    else:
        arr = _as_string(keys)
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    init = (np.full(n, _FNV64_OFFSET, dtype=np.uint64) if init is None
            else np.asarray(init, dtype=np.uint64))
    if n < 2048:
        # small arrays: per-string scalar loop beats the column-wise
        # machinery below (pa conversion + argsort + max_len gathers
        # cost more than they save — measured 2.7x slowdown when a
        # caller hashed ~200-element shingle sets one document at a
        # time through the vectorized path)
        return np.fromiter(
            (0 if k is None else _fnv1a(k.encode("utf-8"), int(h))
             for k, h in zip(arr.to_pylist(), init)),
            dtype=np.uint64, count=n)

    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data_buf = arr.buffers()[2]
    data = (np.frombuffer(data_buf, dtype=np.uint8)
            if data_buf is not None and len(data_buf)
            else np.zeros(0, np.uint8))
    starts, lengths = offs[:-1], np.diff(offs)

    order = np.argsort(-lengths, kind="stable")
    s_starts = starts[order]
    s_len = lengths[order]
    asc = s_len[::-1]

    hs = init[order]
    max_len = int(s_len[0]) if n else 0
    for j in range(max_len):
        k = n - int(np.searchsorted(asc, j, side="right"))
        if k <= 0:
            break
        b = data[s_starts[:k] + j].astype(np.uint64)
        hs[:k] = (hs[:k] ^ b) * _FNV64_PRIME

    out = np.empty(n, dtype=np.uint64)
    out[order] = hs
    if arr.null_count:
        out[np.asarray(pc.is_null(arr))] = 0
    return out


class Canonicalizer:
    """Stateful map_batches callable: url -> (urlkey, hash64, host).

    Used as an actor-pool stage so the compiled regex and any future
    per-worker state (PSL tables, etc.) are built once per actor:

        ds.map_batches(Canonicalizer, batch_format="pyarrow",
                       concurrency=N, batch_size=B)

    Input batches must contain a ``url`` string column; output appends
    ``urlkey:string``, ``hash64:uint64``, ``host:string``.
    """

    def __init__(self, url_col: str = "url"):
        self.url_col = url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return canonicalize_batch(batch, url_col=self.url_col)


def _canon_slow(urls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar spec per row; a url ``urlsplit`` rejects gets nulls."""
    urlkeys = np.full(len(urls), None, dtype=object)
    hosts = np.full(len(urls), None, dtype=object)
    for i, u in enumerate(urls):
        if u is not None:
            try:
                urlkeys[i], hosts[i] = surt(u), host_of(u)
            except ValueError:
                pass
    return urlkeys, hosts


_SCHEME_RE = r"^[A-Za-z][A-Za-z0-9+.\-]*$"


def _plain_rows(urls: pa.Array) -> np.ndarray:
    """Rows the distinct-origin kernel takes (bool per row): not null,
    printable ASCII only (0x21-0x7e: no whitespace or control byte,
    which ``strip``/``urlsplit`` remove, and byte offsets equal char
    offsets), and none of ``%`` (``unquote``), ``@`` (userinfo) or
    ``[``/``]`` (IPv6 brackets). The other rows take ``_canon_slow``."""
    offs = np.frombuffer(urls.buffers()[1], dtype=np.int32)[
        urls.offset:urls.offset + len(urls) + 1]
    data_buf = urls.buffers()[2]
    data = (np.frombuffer(data_buf, dtype=np.uint8)[offs[0]:offs[-1]]
            if data_buf is not None and len(urls)
            else np.zeros(0, np.uint8))
    bad = (data - np.uint8(0x21)) > np.uint8(0x7E - 0x21)
    for c in b"%@[]":
        bad |= data == c
    ok = np.ones(len(urls), dtype=bool)
    pos = np.flatnonzero(bad)
    if pos.size:
        ok[np.searchsorted(offs, pos + offs[0], side="right") - 1] = False
    if urls.null_count:
        ok &= urls.is_valid().to_numpy(zero_copy_only=False)
    return ok


def _split_rows(urls: pa.Array):
    """Per row of plain urls: the origin (``scheme://host:port``, or the
    authority of a schemeless url), the path and the query (null
    without ``?``). ``str.find`` and positional slices only,
    no capture groups; the origin ends at the first ``/?#`` after the
    first ``://``, the fragment is dropped. Rows are ASCII, so ``find``'s
    byte offsets are valid ``slice`` offsets."""
    import polars as pl

    u, tail, q, end = (pl.col(c) for c in ("url", "tail", "q", "end"))
    start = (u.str.find("://", literal=True) + 3).fill_null(0)
    return (
        pl.DataFrame({"url": pl.Series(urls)}).lazy()
        .with_columns(ne=(start + u.str.slice(start).str.find("[/?#]"))
                      .fill_null(u.str.len_bytes()))
        .with_columns(origin=u.str.head(pl.col("ne")),
                      tail=u.str.slice(pl.col("ne")))
        .with_columns(end=tail.str.find("#", literal=True)
                      .fill_null(tail.str.len_bytes()),
                      q=tail.str.find("?", literal=True))
        .with_columns(q=pl.when(q < end).then(q))
        .select("origin",
                path=tail.str.head(q.fill_null(end)),
                query=tail.str.slice(q + 1, end - q - 1))
        .collect())


def _origin_rules(origins: pa.Array):
    """The SURT host and port rules over DISTINCT origins: the urlkey
    prefix ``rev[:port])``, the host, and whether the scheme is one
    ``urlsplit`` parses (a ``://`` after anything else goes to the
    scalar spec). Ports follow ``urlsplit(...).port``: digits only, any
    leading zeros, at most 65535, else portless; 80/443 are dropped."""
    import polars as pl

    o = pl.col("origin")
    sep = o.str.find("://", literal=True)
    port = pl.col("hp").struct.field("field_1")
    digits = port.str.strip_chars_start("0")
    num = pl.when(digits == "").then(0).otherwise(
        digits.cast(pl.Int64, strict=False))
    keep_port = (port.str.contains(r"^[0-9]+$") & (num <= 65535)
                 & ~num.is_in([80, 443])).fill_null(False)
    host = pl.col("host")
    return (
        pl.DataFrame({"origin": pl.Series(origins)}).lazy()
        .with_columns(hp=o.str.slice((sep + 3).fill_null(0))
                      .str.splitn(":", 2),
                      scheme_ok=sep.is_null()
                      | o.str.head(sep).str.contains(_SCHEME_RE))
        .with_columns(host=pl.col("hp").struct.field("field_0")
                      .str.to_lowercase().str.strip_chars_end("."))
        .select(prefix=pl.concat_str([
                    host.str.replace(r"^www\d*\.", "").str.split(".")
                    .list.reverse().list.join(","),
                    pl.when(keep_port).then(pl.lit(":") + num.cast(pl.String))
                    .otherwise(pl.lit("")),
                    pl.lit(")")]),
                host=host, scheme_ok=pl.col("scheme_ok"))
        .collect())


def _sorted_queries(queries: pa.Array) -> pa.Array:
    """``?`` + the query with its ``&`` parameters sorted bytewise, for
    DISTINCT queries (null for an empty one: a lone ``?`` is dropped)."""
    import polars as pl

    q = pl.col("q")
    return _as_string(pl.DataFrame({"q": pl.Series(queries)}).select(
        pl.when(q == "").then(None)
        .when(q.str.contains("&", literal=True))
        .then("?" + q.str.split("&").list.sort().list.join("&"))
        .otherwise("?" + q)).to_series())


def _as_string(col) -> pa.Array:
    """A polars Series or Arrow array as a flat ``pa.string()`` array."""
    arr = col if isinstance(col, (pa.Array, pa.ChunkedArray)) \
        else col.to_arrow()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr if arr.type == pa.string() else arr.cast(pa.string())


def _ascii_lower(arr: pa.Array) -> pa.Array:
    """ASCII-lowercase a string array's bytes (its rows are ASCII)."""
    validity, offsets, data = arr.buffers()
    if data is None:
        return arr
    b = np.frombuffer(data, dtype=np.uint8).copy()
    b[(b - np.uint8(65)) < np.uint8(26)] += np.uint8(32)
    return pa.Array.from_buffers(pa.string(), len(arr),
                                 [validity, offsets, pa.py_buffer(b)],
                                 arr.null_count, arr.offset)


def _canon_plain(urls: pa.Array):
    """The distinct-origin kernel over plain rows: (urlkey, host, hash64,
    ok). Work that depends on the origin runs once per distinct origin;
    per row only the path and query are handled, and hash64 continues
    FNV-1a from the origin prefix's state over the row's suffix bytes.
    ``ok`` is False on rows whose scheme ``urlsplit`` would not parse."""
    rows = _split_rows(urls)
    enc = _as_string(rows["origin"]).dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    per = _origin_rules(enc.dictionary)
    prefix = _as_string(per["prefix"])

    qenc = _as_string(rows["query"]).dictionary_encode()
    query = _sorted_queries(qenc.dictionary).take(qenc.indices)
    path = _ascii_lower(_as_string(rows["path"]))
    path = pc.if_else(pc.equal(path, ""), "/", path)
    suffix = pc.binary_join_element_wise(path, query, "",
                                         null_handling="skip")

    urlkey = pc.binary_join_element_wise(prefix.take(enc.indices), suffix,
                                         "")
    hashes = hash64_batch(suffix, init=hash64_batch(prefix)[codes])
    host = _as_string(per["host"]).take(enc.indices)
    ok = per["scheme_ok"].to_numpy()[codes]
    return urlkey, host, hashes, ok


def canonicalize_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Append ``urlkey:string``, ``hash64:uint64`` and ``host:string``
    (``surt``, ``hash64`` and ``host_of`` per row) to ``batch``. Plain
    rows (``_plain_rows``) take the distinct-origin kernel; the rest,
    and the rows whose scheme it rejects, take the scalar spec. A null
    url, or one ``urlsplit`` rejects, gets nulls and hash64 0."""
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    url_arr = _as_string(batch[url_col])
    n = len(url_arr)
    fast = np.flatnonzero(_plain_rows(url_arr))
    urlkeys, hosts, hashes, ok = _canon_plain(
        url_arr if len(fast) == n else url_arr.take(fast))
    if not ok.all() or len(fast) < n:
        keep = np.flatnonzero(ok)
        slow = np.setdiff1d(np.arange(n), fast[keep], assume_unique=True)
        uk_s, ho_s = _canon_slow(
            url_arr.take(slow).to_numpy(zero_copy_only=False))
        uk_s = pa.array(uk_s, type=pa.string())
        # rows in [fast kept..., slow...] order -> input order
        back = np.empty(n, dtype=np.int64)
        back[np.concatenate([fast[keep], slow])] = np.arange(n)
        back = pa.array(back)
        urlkeys = pa.concat_arrays([urlkeys.take(keep), uk_s]).take(back)
        hosts = pa.concat_arrays([
            hosts.take(keep), pa.array(ho_s, type=pa.string())]).take(back)
        hashes = np.concatenate([hashes[keep],
                                 hash64_batch(uk_s)])[back.to_numpy()]

    batch = batch.append_column("urlkey", urlkeys)
    batch = batch.append_column("hash64", pa.array(hashes, type=pa.uint64()))
    batch = batch.append_column("host", hosts)
    return batch


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
