"""Content decode: html binary -> text with the byte-identical invariant.

Parity target: the reference's ``CaptureObject.text`` property is
``content.decode('utf-8', errors='replace')``
(cocrawler/cdx_toolkit cdx_toolkit/__init__.py:130-134). BASELINE.json
input_hint makes this the per-row invariant: extracted text must be
byte-identical per url.

The decode runs per row (Arrow has no errors='replace' decode kernel)
but the loop body is a single C-level ``bytes.decode`` call; blocks of
binary html stay in Arrow and only the output string column is built.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def decode_html_batch(batch: pa.Table, html_col: str = "html",
                      out_col: str = "text") -> pa.Table:
    """Append ``out_col`` = utf-8/replace decode of ``html_col``."""
    html = batch[html_col].to_numpy(zero_copy_only=False)
    out = np.empty(len(html), dtype=object)
    for i, b in enumerate(html):
        out[i] = None if b is None else b.decode("utf-8", errors="replace")
    if out_col in batch.column_names:
        batch = batch.drop_columns([out_col])
    return batch.append_column(out_col, pa.array(out, type=pa.string()))


def strip_tags_batch(batch: pa.Table, text_col: str = "text",
                     out_col: str = "plain") -> pa.Table:
    """Append ``out_col`` = markup-stripped plain text: every
    ``<...>`` run replaced by one space, whitespace collapsed, ends
    trimmed. The boilerplate-removal step of a training-data pipeline
    (a heuristic stand-in for a real extractor like trafilatura, which
    isn't in this container), fully vectorized (polars regex kernels)
    and SQL-expressible (regexp_replace + trim) so the oracle checks
    the exact strings."""
    import polars as pl

    if batch.num_rows == 0:
        return batch.append_column(out_col, pa.array([], pa.string()))
    plain = (
        pl.from_arrow(batch.select([text_col]))
        .select(
            pl.col(text_col)
            .str.replace_all(r"<[^>]*>", " ")
            .str.replace_all(r"\s+", " ")
            .str.strip_chars(" ")
            .alias(out_col))
        .to_arrow()[out_col]
    )
    if out_col in batch.column_names:
        batch = batch.drop_columns([out_col])
    return batch.append_column(out_col, plain.cast(pa.string()))


# meta charset tag, fixture quote convention (the HREF_RE caveat);
# attribute value matching is case-insensitive per HTML
_META_CHARSET_RE = r"(?i)<meta charset='([^']*)'>"

# label -> canonical name (WHATWG encoding labels, the subset the
# fixtures exercise; unknown labels pass through lowercased)
_CHARSET_ALIASES = {"utf8": "utf-8", "latin1": "iso-8859-1",
                    "latin-1": "iso-8859-1"}


def detect_charset_batch(batch: pa.Table, html_col: str = "html",
                         keep_cols: tuple = ("doc_id",)) -> pa.Table:
    """Charset detection over raw html bytes -> ``keep_cols +
    (charset, bom)`` — the sniff that decides how a capture's
    ``encoding``/``charset`` fields (reference capture schema,
    README.md:134-136) get populated before text extraction.

    Precedence (the WHATWG sniff, abridged): a byte-order mark wins
    (EF BB BF -> utf-8, FF FE -> utf-16le, FE FF -> utf-16be), else a
    ``<meta charset>`` label (lowercased, common aliases folded), else
    the utf-8 default the reference's decode assumes. BOM checks are a
    buffer gather over the binary column's first 3 bytes (never a
    payload copy); the meta scan is one utf-8/replace decode + one
    vectorized regex pass.
    """
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    keep = [c for c in keep_cols if c in batch.column_names]
    if batch.num_rows == 0:
        return pa.table(
            {**{c: batch[c] for c in keep},
             "charset": pa.array([], pa.string()),
             "bom": pa.array([], pa.bool_())})
    col = batch[html_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    pref = np.zeros((n, 3), np.uint8)
    odt = np.int64 if col.type == pa.large_binary() else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=odt)[
        col.offset:col.offset + n + 1].astype(np.int64)
    vals = np.frombuffer(col.buffers()[2] or b"", dtype=np.uint8)
    if len(vals):
        starts = offs[:-1]
        lens = np.minimum(np.diff(offs), 3)
        take = np.minimum(starts[:, None] + np.arange(3)[None, :],
                          len(vals) - 1)
        mask = np.arange(3)[None, :] < lens[:, None]
        pref = np.where(mask, vals[take], 0).astype(np.uint8)
    bom8 = (pref == np.frombuffer(b"\xef\xbb\xbf", np.uint8)).all(1)
    bom16le = (pref[:, 0] == 0xFF) & (pref[:, 1] == 0xFE)
    bom16be = (pref[:, 0] == 0xFE) & (pref[:, 1] == 0xFF)
    bom = bom8 | bom16le | bom16be

    # meta scan only matters for BOM-less rows, but one vectorized
    # pass over all rows beats a mask-gather round trip
    decoded = decode_html_batch(batch.select([html_col]), html_col,
                                "_txt")["_txt"]
    meta = (pl.from_arrow(decoded.combine_chunks().cast(pa.string()))
            .str.extract(_META_CHARSET_RE, 1)
            .str.to_lowercase()
            .to_numpy())

    charset = np.full(n, "utf-8", dtype=object)
    has_meta = meta != None  # noqa: E711  (numpy elementwise)
    charset[has_meta] = [_CHARSET_ALIASES.get(m, m)
                         for m in meta[has_meta]]
    charset[bom8] = "utf-8"
    charset[bom16le] = "utf-16le"
    charset[bom16be] = "utf-16be"
    return pa.table(
        {**{c: batch[c] for c in keep},
         "charset": pa.array(charset.tolist(), pa.string()),
         "bom": pa.array(bom)})


def page_metadata_batch(batch: pa.Table, url_col: str = "url",
                        text_col: str = "text") -> pa.Table:
    """WAT-style page metadata record: per page, the ``title`` (first
    <title> element, empty if none), ``n_links`` (href count),
    ``content_len`` (byte length of the raw markup) and ``plain_len``
    (byte length of the markup-stripped text) — the sidecar-metadata
    extraction Common Crawl ships as WAT files next to the WARCs
    (reference users re-derive it from obj.content loops). One
    vectorized polars pass, zero shuffles; the page text never leaves
    the task."""
    import polars as pl

    sch = pa.schema([("url", pa.string()), ("title", pa.string()),
                     ("n_links", pa.int64()), ("content_len", pa.int64()),
                     ("plain_len", pa.int64())])
    if batch.num_rows == 0:
        return sch.empty_table()
    out = (
        pl.from_arrow(batch.select([url_col, text_col]))
        .rename({url_col: "url"} if url_col != "url" else {})
        .with_columns(
            title=pl.col(text_col).str.extract(r"<title>([^<]*)</title>",
                                               1).fill_null(""),
            n_links=pl.col(text_col).str.count_matches(r"href='[^']*'")
            .cast(pl.Int64).fill_null(0),
            content_len=pl.col(text_col).str.len_bytes().cast(pl.Int64),
            plain_len=pl.col(text_col)
            .str.replace_all(r"<[^>]*>", " ")
            .str.replace_all(r"\s+", " ")
            .str.strip_chars(" ")
            .str.len_bytes().cast(pl.Int64))
        .drop(text_col)
    )
    return out.to_arrow().cast(sch)
