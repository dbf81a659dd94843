"""Cross-document duplicate-LINE removal (C4 / RefinedWeb / Gopher
hygiene).

C4 (Raffel et al. 2020) and RefinedWeb (Penedo et al. 2023) both strip
lines that recur across documents — navigation chrome, cookie banners,
license boilerplate — before training. This is the exact line-level
form of that rule, structured like the repeated-span pipeline
(stages/spans.py) but at line granularity with full text
reconstruction:

  per-doc DISTINCT line hashes  (map-side, vectorized; a line repeated
  inside one document counts that document once)
    -> one exchange bucketed by LINE hash: "how many distinct docs
       carry this line" is a run-length pass; lines at/over
       ``min_docs`` form the corpus boilerplate set
    -> the boilerplate set (small by construction) is ``ray.put``
       once; the cut is a stateless vectorized map_batches pass that
       drops every copy of a boilerplate line and re-joins the
       survivors.

Scale contract: only (doc_id, line_hash) int64 pairs are exchanged —
the text streams through the final pass untouched by any shuffle. A
line shared by D docs costs O(D) rows in one bucket (run-length, never
pairwise). If the boilerplate set itself outgrows the broadcast
budget, shard the cut pass by line-hash range (same fallback as
stages/spans.cut_repeated_spans).

Empty lines ("" exactly) are never counted and always kept: they are
formatting, not content, and counting them would mark every blank
line corpus-duplicated.

Reference parity note: the reference (cocrawler/cdx_toolkit) has no
corpus hygiene ops; this is part of the training-data family built on
the same exchange/broadcast primitives as the rest of the engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..canon import hash64_batch
from .dedup import _mix64
from .exchange import collect_refs, hash_bucket_apply


def _split_lines(batch: pa.Table, text_col: str, id_col: str):
    """polars frame (d=doc index-in-batch, doc=doc_id, pos, line) for
    every line of every row; vectorized split, no per-row Python."""
    import polars as pl

    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    df = (pl.DataFrame({
            "doc": pl.Series(ids),
            "t": pl.from_arrow(batch[text_col].combine_chunks()
                               .cast(pa.string()))})
          .with_columns(l=pl.col("t").fill_null("").str.split("\n"))
          .drop("t"))
    ex = (df.explode("l")
          .with_columns(pos=pl.int_range(pl.len()).over("doc")))
    return df, ex


def duplicated_line_hashes(ds: ray.data.Dataset, *,
                           text_col: str = "text",
                           id_col: str = "doc_id",
                           min_docs: int = 2,
                           num_buckets: int = 32) -> np.ndarray:
    """Sorted uint64 hashes of lines carried by >= ``min_docs``
    distinct documents. Distributed count; only the (small)
    boilerplate set reaches the driver."""
    nb = np.uint64(num_buckets)

    def emit_pairs(batch: pa.Table) -> pa.Table:
        _, ex = _split_lines(batch, text_col, id_col)
        ex = ex.filter(ex["l"].str.len_bytes() > 0)
        d = ex["doc"].to_numpy().astype(np.int64)
        h = hash64_batch(ex["l"].to_arrow()).astype(np.uint64)
        # distinct (doc, line) within the batch; docs never span
        # batches, so the rows are globally distinct pairs and the
        # doc id itself never needs to travel — only h crosses the
        # wire (per_line run-length-counts rows per hash)
        key = np.stack([d.astype(np.uint64), h])
        _, first = np.unique(key, axis=1, return_index=True)
        h = h[first]
        return pa.table({
            "h": pa.array(h, pa.uint64()),
            "_lb": pa.array((_mix64(h) % nb).astype(np.int64)),
        })

    def per_line(tbl: pa.Table) -> pa.Table:
        hs = np.sort(tbl["h"].to_numpy(zero_copy_only=False))
        new_run = np.ones(len(hs), bool)
        new_run[1:] = hs[1:] != hs[:-1]
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, len(hs)))
        rep = hs[starts[run_len >= min_docs]]
        return pa.table({"h": pa.array(rep, pa.uint64())})

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        emit_pairs, batch_format="pyarrow", batch_size=None)
    rep = hash_bucket_apply(pairs, "_lb", per_line,
                            num_buckets=num_buckets)
    blocks = [b for b in ray.get(collect_refs(rep)) if b.num_rows]
    if not blocks:
        return np.zeros(0, np.uint64)
    return np.sort(np.concatenate(
        [b["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
         for b in blocks]))


def dedup_lines(ds: ray.data.Dataset, *, text_col: str = "text",
                id_col: str = "doc_id", min_docs: int = 2,
                num_buckets: int = 32,
                keep_cols: tuple = ()) -> ray.data.Dataset:
    """Remove every copy of corpus-duplicated lines from every
    document. Output: ``(doc_id, n_lines, n_kept, clean_text)`` with
    ``clean_text`` the surviving lines re-joined by ``\\n`` in
    original order (a fully-boilerplate doc yields ``""``).
    ``keep_cols`` pass through unchanged (for composites that need
    e.g. the source column downstream)."""
    rep = duplicated_line_hashes(ds, text_col=text_col, id_col=id_col,
                                 min_docs=min_docs,
                                 num_buckets=num_buckets)
    rep_ref = ray.put(rep)

    def rewrite(batch: pa.Table) -> pa.Table:
        import polars as pl

        from ..pipelines.frontier import _get_broadcast

        boiler = _get_broadcast(rep_ref)
        df, ex = _split_lines(batch, text_col, id_col)
        h = hash64_batch(ex["l"].to_arrow()).astype(np.uint64)
        if len(boiler):
            idx = np.minimum(np.searchsorted(boiler, h),
                             len(boiler) - 1)
            member = boiler[idx] == h
        else:
            member = np.zeros(len(h), bool)
        empty = ex["l"].str.len_bytes().to_numpy() == 0
        keep = empty | ~member
        kept = (ex.with_columns(_k=pl.Series(keep))
                .filter(pl.col("_k"))
                .group_by("doc", maintain_order=True)
                .agg(ct=pl.col("l").str.join("\n"),
                     nk=pl.len().cast(pl.Int64)))
        n_lines = df["l"].list.len().cast(pl.Int64)
        base = df.select("doc").with_columns(n_lines=n_lines)
        for c in keep_cols:
            base = base.with_columns(
                pl.from_arrow(batch[c].combine_chunks()).alias(c))
        out = (base.join(kept, on="doc", how="left")
               .with_columns(ct=pl.col("ct").fill_null(""),
                             nk=pl.col("nk").fill_null(0)))
        cols = {
            "doc_id": out["doc"].to_arrow().cast(pa.int64()),
            "n_lines": out["n_lines"].to_arrow().cast(pa.int64()),
            "n_kept": out["nk"].to_arrow().cast(pa.int64()),
            "clean_text": out["ct"].to_arrow().cast(pa.string()),
        }
        for c in keep_cols:
            cols[c] = out[c].to_arrow()
        return pa.table(cols)

    need = [id_col, text_col] + [c for c in keep_cols]
    return ds.select_columns(need).map_batches(
        rewrite, batch_format="pyarrow", batch_size=None)
