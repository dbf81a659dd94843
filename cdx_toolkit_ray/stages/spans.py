"""Cross-document repeated-span detection (training-data hygiene).

Lee et al. 2022 ("Deduplicating Training Data Makes Language Models
Better") show that substrings repeated across documents — boilerplate,
licenses, templated pages — are memorized disproportionately and
should be down-weighted or cut. This module implements the exact
n-gram form of that signal as a two-exchange Ray pipeline:

  per-doc distinct word-k-gram hashes  (map-side, vectorized; the same
  gram/FNV convention as the MinHash chain in stages/dedup.py, so the
  SQL oracle reuses the proven shingle CTE)
    -> exchange 1, bucketed by GRAM hash: each bucket holds every
       (doc, gram) row of its grams, so "how many distinct docs carry
       this gram" is a run-length pass; the bucket then folds its
       per-doc partial counts (total grams seen, repeated grams seen)
    -> exchange 2, bucketed by DOC id: sums the partials.

Scale contract: traffic is the (doc_id, hash) pair stream — two int64
columns, never the text — and the driver holds only object refs. Skew
is bounded: a gram shared by D docs contributes D rows to ONE bucket
(run-length, not pairwise), so even a corpus-wide boilerplate line
costs O(D), unlike candidate-pair emission which would cost O(D^2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from .dedup import _mix64, doc_gram_hashes
from .exchange import collect_refs, hash_bucket_apply


def repeated_span_stats(ds: ray.data.Dataset, *, text_col: str = "text",
                        id_col: str = "doc_id", span_k: int = 5,
                        min_docs: int = 2,
                        num_buckets: int = 32) -> ray.data.Dataset:
    """Per-document repeated-span counts.

    Returns ``(doc_id, n_spans, n_repeated_spans)`` where ``n_spans``
    is the document's DISTINCT word-``span_k``-gram count and
    ``n_repeated_spans`` how many of those grams occur in at least
    ``min_docs`` distinct documents corpus-wide. Documents with zero
    grams (empty/whitespace text) are absent — mirror with an INNER
    join downstream.

    Gram convention matches ``stages/dedup.doc_gram_hashes`` (>= k
    words -> one gram per window; 1..k-1 words -> the single all-words
    gram), so the DuckDB oracle composes from the same shingle CTE the
    MinHash oracle uses.
    """
    nb = np.uint64(num_buckets)

    def emit_pairs(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        didx, hashes = doc_gram_hashes(batch[text_col], span_k)
        gb = (_mix64(hashes) % nb).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[didx], pa.int64()),
            "h": pa.array(hashes, pa.uint64()),
            "_gb": pa.array(gb),
        })

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        emit_pairs, batch_format="pyarrow", batch_size=None)

    def per_gram(tbl: pa.Table) -> pa.Table:
        # rows are globally distinct (doc, h): doc_gram_hashes dedups
        # within a doc and each doc lives in exactly one input batch
        h = tbl["h"].to_numpy(zero_copy_only=False)
        d = tbl["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs, ds_ = h[order], d[order]
        new_run = np.ones(len(hs), bool)
        new_run[1:] = hs[1:] != hs[:-1]
        starts = np.flatnonzero(new_run)
        run_id = np.cumsum(new_run) - 1
        run_len = np.diff(np.append(starts, len(hs)))
        repeated = (run_len >= min_docs)[run_id]
        # fold this bucket's per-doc partials before it leaves the task
        dorder = np.argsort(ds_, kind="stable")
        dd = ds_[dorder]
        dnew = np.ones(len(dd), bool)
        dnew[1:] = dd[1:] != dd[:-1]
        dstarts = np.flatnonzero(dnew)
        if not len(dstarts):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_spans": pa.array([], pa.int64()),
                             "n_repeated_spans": pa.array([], pa.int64()),
                             "_db": pa.array([], pa.int64())})
        n_spans = np.diff(np.append(dstarts, len(dd)))
        n_rep = np.add.reduceat(
            repeated[dorder].astype(np.int64), dstarts)
        docs = dd[dstarts]
        db = (_mix64(docs.astype(np.uint64)) % nb).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "n_spans": pa.array(n_spans.astype(np.int64)),
            "n_repeated_spans": pa.array(n_rep),
            "_db": pa.array(db),
        })

    partials = hash_bucket_apply(pairs, "_gb", per_gram,
                                 num_buckets=num_buckets)

    def per_doc(tbl: pa.Table) -> pa.Table:
        d = tbl["doc_id"].to_numpy(zero_copy_only=False)
        ns = tbl["n_spans"].to_numpy(zero_copy_only=False)
        nr = tbl["n_repeated_spans"].to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        dd = d[order]
        new_run = np.ones(len(dd), bool)
        new_run[1:] = dd[1:] != dd[:-1]
        starts = np.flatnonzero(new_run)
        if not len(starts):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_spans": pa.array([], pa.int64()),
                             "n_repeated_spans": pa.array([], pa.int64())})
        return pa.table({
            "doc_id": pa.array(dd[starts], pa.int64()),
            "n_spans": pa.array(np.add.reduceat(ns[order], starts)),
            "n_repeated_spans": pa.array(np.add.reduceat(nr[order], starts)),
        })

    return hash_bucket_apply(partials, "_db", per_doc,
                             num_buckets=num_buckets)


def repeated_gram_hashes(ds: ray.data.Dataset, *, text_col: str = "text",
                         id_col: str = "doc_id", span_k: int = 5,
                         min_docs: int = 2,
                         num_buckets: int = 32) -> np.ndarray:
    """Sorted uint64 array of the gram hashes carried by at least
    ``min_docs`` distinct documents — the corpus boilerplate set.

    Built distributed (the same (doc, gram) pair exchange as
    ``repeated_span_stats``); only the final REPEATED set (typically
    orders of magnitude smaller than the gram universe) reaches the
    driver, to be ``ray.put`` once as the broadcast side of the cut
    pass. If the repeated set itself outgrows worker memory, shard
    the cut pass by gram-hash range instead of broadcasting."""
    nb = np.uint64(num_buckets)

    def emit_pairs(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        didx, hashes = doc_gram_hashes(batch[text_col], span_k)
        gb = (_mix64(hashes) % nb).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[didx], pa.int64()),
            "h": pa.array(hashes, pa.uint64()),
            "_gb": pa.array(gb),
        })

    def per_gram(tbl: pa.Table) -> pa.Table:
        # rows are globally distinct (doc, h): doc_gram_hashes dedups
        # within a doc and each doc lives in exactly one input batch
        h = tbl["h"].to_numpy(zero_copy_only=False)
        hs = np.sort(h)
        new_run = np.ones(len(hs), bool)
        new_run[1:] = hs[1:] != hs[:-1]
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, len(hs)))
        rep = hs[starts[run_len >= min_docs]]
        return pa.table({"h": pa.array(rep, pa.uint64())})

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        emit_pairs, batch_format="pyarrow", batch_size=None)
    rep = hash_bucket_apply(pairs, "_gb", per_gram,
                            num_buckets=num_buckets)
    blocks = [b for b in ray.get(collect_refs(rep)) if b.num_rows]
    if not blocks:
        return np.zeros(0, np.uint64)
    return np.sort(np.concatenate(
        [b["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
         for b in blocks]))


def cut_repeated_spans(ds: ray.data.Dataset, *, text_col: str = "text",
                       id_col: str = "doc_id", span_k: int = 5,
                       min_docs: int = 2,
                       num_buckets: int = 32) -> ray.data.Dataset:
    """Remove corpus-repeated spans from every document — the ACTION
    half of Lee et al. 2022 (``repeated_span_stats`` is the audit
    half): any word covered by a word-``span_k``-gram occurring in at
    least ``min_docs`` distinct documents is cut.

    Deterministic normalized-token semantics (so the SQL oracle can
    count survivors): the document is its lowercase ``\\w+`` token
    stream (the corpus gram convention, stages/dedup.doc_gram_hashes);
    ``clean_text`` is the space-joined surviving tokens. Short docs
    (1..k-1 words) are covered entirely when their single all-words
    gram repeats. Output: (doc_id, n_words, n_kept, clean_text).

    Dataflow: one distributed pair exchange builds the repeated-gram
    set, broadcast once; the cut itself is a stateless vectorized
    ``map_batches`` pass (polars window grams + searchsorted
    membership + one prefix-sum coverage pass per batch) — the corpus
    streams, nothing materializes.
    """
    from ..canon import hash64_batch
    from ..pipelines.frontier import _get_broadcast

    rep = repeated_gram_hashes(ds, text_col=text_col, id_col=id_col,
                               span_k=span_k, min_docs=min_docs,
                               num_buckets=num_buckets)
    rep_ref = ray.put(rep)
    k = span_k

    def rewrite(batch: pa.Table) -> pa.Table:
        import polars as pl

        index = _get_broadcast(rep_ref)
        n = batch.num_rows
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out_empty = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(np.zeros(n, np.int64)),
            "n_kept": pa.array(np.zeros(n, np.int64)),
            "clean_text": pa.array([""] * n, pa.string()),
        })
        if n == 0:
            return out_empty
        df = (pl.DataFrame({"t": pl.from_arrow(
                  batch[text_col].combine_chunks().cast(pa.string()))})
              .with_row_index("d")
              .with_columns(w=pl.col("t").fill_null("")
                            .str.to_lowercase().str.extract_all(r"\w+"))
              .drop("t"))
        wl = df["w"].list.len().to_numpy().astype(np.int64)
        total = int(wl.sum())
        if total == 0:
            return out_empty
        base = np.r_[0, np.cumsum(wl)]

        ex = (df.explode("w")
              .filter(pl.col("w").is_not_null())
              .with_columns(pos=pl.int_range(pl.len()).over("d")))
        # window grams (docs with >= k words)
        big = ex.with_columns([
            pl.col("w").shift(-i).over("d").alias("_w%d" % i)
            for i in range(1, k)])
        big = big.filter(pl.col("_w%d" % (k - 1)).is_not_null())
        big = big.select(
            "d", "pos",
            g=pl.concat_str(["w"] + ["_w%d" % i for i in range(1, k)],
                            separator=" "))
        # short docs: single all-words gram at pos 0
        small = (df.filter((pl.col("w").list.len() > 0)
                           & (pl.col("w").list.len() < k))
                 .select("d", g=pl.col("w").list.join(" "))
                 .with_columns(pos=pl.lit(0, pl.Int64)))
        grams = pl.concat([big.select("d", "pos", "g"),
                           small.select("d", "pos", "g")]) \
            if small.height else big
        gd = grams["d"].to_numpy().astype(np.int64)
        gpos = grams["pos"].to_numpy().astype(np.int64)
        gh = hash64_batch(grams["g"].to_arrow())

        covered = np.zeros(0, np.int64)
        if len(index) and len(gh):
            p = np.searchsorted(index, gh)
            p[p == len(index)] = 0
            hit = index[p] == gh
            covered = np.flatnonzero(hit)
        diff = np.zeros(total + 1, np.int64)
        if len(covered):
            cs = base[gd[covered]] + gpos[covered]
            ce = base[gd[covered]] + np.minimum(
                gpos[covered] + k, wl[gd[covered]])
            np.add.at(diff, cs, 1)
            np.add.at(diff, ce, -1)
        cov = np.cumsum(diff[:total]) > 0

        keep = ~cov
        wd = ex["d"].to_numpy().astype(np.int64)
        n_kept = np.zeros(n, np.int64)
        np.add.at(n_kept, wd[keep], 1)

        kept_fr = (ex.select("d", "w")
                   .filter(pl.Series(keep))
                   .group_by("d", maintain_order=True)
                   .agg(pl.col("w").str.join(" ").alias("ct")))
        clean = np.full(n, "", dtype=object)
        if kept_fr.height:
            clean[kept_fr["d"].to_numpy().astype(np.int64)] = \
                np.asarray(kept_fr["ct"].to_list(), dtype=object)

        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(wl, pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
            "clean_text": pa.array(clean, pa.string()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        rewrite, batch_format="pyarrow", batch_size=None)
