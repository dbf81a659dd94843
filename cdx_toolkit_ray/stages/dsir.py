"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023).

Select raw-corpus documents that look like a TARGET corpus by
importance weighting in a hashed n-gram feature space: estimate a
unigram distribution over ``n_features`` hash buckets for the target
slice and for the raw corpus, score every document by its summed
log-ratio, and keep the top-k. The hashed feature space (not a
vocabulary) is the point of DSIR: it is fixed-size, build-free, and
collision-tolerant.

Integer-determinism contract (what makes this oracle-checkable): the
per-bucket log-ratio is quantized ONCE to int64 micro-nats —
``floor(ln((tc+1)*(Tr+F) / ((rc+1)*(Tt+F))) * 1e6 + 0.5)`` with add-1
smoothing — and each document's weight is an integer dot product of
its bucket counts with that LUT. Integer sums are order-independent;
the single float ln per bucket is computed identically by numpy and
DuckDB (both libm doubles over exactly-representable integer ratios),
the same convention stages/lm.py proved out.

Scale shape:
1. one streaming pass emits per-block partial (bucket, target_count,
   raw_count) rows — at most ``n_features`` rows per block;
2. one narrow exchange folds them to exactly ``n_features`` rows; the
   LUT (n_features int64s) is built on the driver and ``ray.put``
   once — O(n_features) driver state, independent of corpus size;
3. scoring is a stateless vectorized pass (hash -> LUT gather ->
   reduceat per doc); the text never shuffles;
4. top-k selection: per-block local top-k candidates -> driver merges
   k x blocks rows -> the global k-th (weight, doc_id) cutoff
   broadcasts back as two scalars. Driver work O(k x blocks), never
   the corpus.

Reference role: beyond-reference training-data operator (the
reference, cocrawler/cdx_toolkit, has no selection surface).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..canon import hash64_batch
from .exchange import collect_refs, hash_bucket_apply


def _doc_feature_counts(batch: pa.Table, text_col: str, id_col: str,
                        n_features: int):
    """(doc_ids, token fb codes, doc index per token) — vectorized
    lowercase \\w+ tokenization + feature hashing, the corpus token
    convention (stages/lm.py, stages/textstats.py)."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    df = pl.DataFrame({
        "i": pl.int_range(batch.num_rows, eager=True),
        "t": pl.from_arrow(batch[text_col].combine_chunks()
                           .cast(pa.string())),
    }).with_columns(w=pl.col("t").fill_null("").str.to_lowercase()
                    .str.extract_all(r"\w+")).drop("t")
    ex = df.explode("w").drop_nulls("w")
    didx = ex["i"].to_numpy().astype(np.int64)
    fb = (hash64_batch(ex["w"].to_arrow())
          % np.uint64(n_features)).astype(np.int64)
    return didx, fb


def dsir_bucket_counts(ds: ray.data.Dataset, *, text_col: str = "text",
                       id_col: str = "doc_id",
                       target_col: str = "is_target",
                       n_features: int = 256) -> np.ndarray:
    """(n_features, 2) int64 array of [target, raw] token counts per
    feature bucket, computed distributed with per-block partial folds."""

    def partial(batch: pa.Table) -> pa.Table:
        didx, fb = _doc_feature_counts(batch, text_col, id_col,
                                       n_features)
        tgt = batch[target_col].to_numpy(zero_copy_only=False) \
            .astype(bool)[didx]
        tc = np.bincount(fb[tgt], minlength=n_features)
        rc = np.bincount(fb, minlength=n_features)
        return pa.table({
            "fb": pa.array(np.arange(n_features, dtype=np.int64)),
            "tc": pa.array(tc.astype(np.int64)),
            "rc": pa.array(rc.astype(np.int64)),
            "_b": pa.array(np.arange(n_features, dtype=np.int64) % 4),
        })

    def fold(tbl: pa.Table) -> pa.Table:
        fb = tbl["fb"].to_numpy(zero_copy_only=False)
        tc = np.bincount(fb, weights=tbl["tc"].to_numpy(
            zero_copy_only=False), minlength=n_features)
        rc = np.bincount(fb, weights=tbl["rc"].to_numpy(
            zero_copy_only=False), minlength=n_features)
        keep = np.unique(fb)
        return pa.table({
            "fb": pa.array(keep, pa.int64()),
            "tc": pa.array(tc[keep].astype(np.int64)),
            "rc": pa.array(rc[keep].astype(np.int64)),
        })

    parts = ds.select_columns([id_col, text_col, target_col]) \
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
    folded = hash_bucket_apply(parts, "_b", fold, num_buckets=4)
    out = np.zeros((n_features, 2), dtype=np.int64)
    for blk in ray.get(collect_refs(folded)):
        if not blk.num_rows:
            continue
        fb = blk["fb"].to_numpy(zero_copy_only=False)
        out[fb, 0] += blk["tc"].to_numpy(zero_copy_only=False)
        out[fb, 1] += blk["rc"].to_numpy(zero_copy_only=False)
    return out


def dsir_log_ratio_lut(counts: np.ndarray) -> np.ndarray:
    """int64 micro-nat log-ratio per bucket with add-1 smoothing.
    Products stay integer-exact in float64 up to 2^53 (~10^15 token
    corpora per side; shard the LUT computation beyond that)."""
    n_features = counts.shape[0]
    tc, rc = counts[:, 0], counts[:, 1]
    tt, tr = int(tc.sum()), int(rc.sum())
    # float64 BEFORE the multiply: an int64 product wraps negative
    # past 2^63 (log -> NaN -> INT64_MIN garbage); float products stay
    # finite and exact below 2^53, losing only ulps beyond
    num = (tc.astype(np.float64) + 1.0) * float(tr + n_features)
    den = (rc.astype(np.float64) + 1.0) * float(tt + n_features)
    return np.floor(np.log(num / den) * 1e6 + 0.5).astype(np.int64)


def dsir_scores(ds: ray.data.Dataset, *, text_col: str = "text",
                id_col: str = "doc_id", target_col: str = "is_target",
                n_features: int = 256) -> ray.data.Dataset:
    """Per-document DSIR importance weight:
    ``(doc_id, n_tok, logw_1e6)`` where ``logw_1e6`` is the integer
    micro-nat sum of the per-token hashed-bucket log-ratios (higher =
    more target-like). Empty docs score 0."""
    counts = dsir_bucket_counts(ds, text_col=text_col, id_col=id_col,
                                target_col=target_col,
                                n_features=n_features)
    lut_ref = ray.put(dsir_log_ratio_lut(counts))

    def score(batch: pa.Table) -> pa.Table:
        from ..pipelines.frontier import _get_broadcast

        lut = _get_broadcast(lut_ref)
        didx, fb = _doc_feature_counts(batch, text_col, id_col,
                                       n_features)
        n = batch.num_rows
        logw = np.zeros(n, np.int64)
        ntok = np.zeros(n, np.int64)
        if len(didx):
            np.add.at(logw, didx, lut[fb])
            ntok += np.bincount(didx, minlength=n)
        return pa.table({
            "doc_id": batch[id_col],
            "n_tok": pa.array(ntok),
            "logw_1e6": pa.array(logw),
        })

    return ds.select_columns([id_col, text_col, target_col]) \
        .map_batches(score, batch_format="pyarrow", batch_size=None)


def dsir_select(scores: ray.data.Dataset, k: int, *,
                id_col: str = "doc_id",
                weight_col: str = "logw_1e6") -> ray.data.Dataset:
    """Append ``selected``: True for the top-``k`` rows by (weight
    DESC, id ASC) — the deterministic rank form of DSIR's Gumbel
    resampling draw. Global cutoff from per-block local top-k
    candidates; only 2 scalars broadcast back."""

    if k <= 0:
        return scores.map_batches(
            lambda b: b.append_column(
                "selected", pa.array(np.zeros(b.num_rows, bool))),
            batch_format="pyarrow", batch_size=None)

    def local_topk(batch: pa.Table) -> pa.Table:
        w = batch[weight_col].to_numpy(zero_copy_only=False)
        i = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, -w))[:k]
        return pa.table({"w": pa.array(w[order]),
                         "i": pa.array(i[order])})

    cand = scores.select_columns([id_col, weight_col]).map_batches(
        local_topk, batch_format="pyarrow", batch_size=None).take_all()
    if not cand:
        cut_w, cut_i = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    else:
        w = np.array([r["w"] for r in cand], np.int64)
        i = np.array([r["i"] for r in cand], np.int64)
        order = np.lexsort((i, -w))
        j = order[min(k, len(order)) - 1]
        cut_w, cut_i = int(w[j]), int(i[j])

    def mark(batch: pa.Table) -> pa.Table:
        w = batch[weight_col].to_numpy(zero_copy_only=False)
        i = batch[id_col].to_numpy(zero_copy_only=False)
        sel = (w > cut_w) | ((w == cut_w) & (i <= cut_i))
        return batch.append_column("selected", pa.array(sel))

    return scores.map_batches(mark, batch_format="pyarrow",
                              batch_size=None)
