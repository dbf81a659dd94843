"""Distributed inverted text index: build hive-partitioned posting
lists, search by reading ONLY the query terms' partitions.

The text twin of the IVF vector index (stages/ann.py:171-217): the
corpus is exploded to ``(word, doc_id, tf)`` postings, hive-partitioned
by ``wb = hash64(word) % n_buckets``; a term search then touches only
the buckets its terms hash to — every other posting's row groups never
leave storage. That prune-at-the-read layout is the piece that makes
term lookup viable at 100 TB: query cost scales with the matched
postings, not the corpus.

Search semantics: AND (doc must contain every term) or OR (any term),
returning ``(doc_id, n_matched, tf_sum)`` — matched distinct terms and
their total occurrences. The intersection runs as one ``groupby(doc)``
over only the matching postings (already pruned to the query terms),
so the shuffle moves the CANDIDATE postings, never the index.

Reference role: beyond-reference training-data operator (the
reference's only lookup structure is the CDX index it queries
remotely, cdx_toolkit/commoncrawl.py).
"""

from __future__ import annotations

import glob
import json
import logging
import os

import numpy as np
import pyarrow as pa
import ray.data

LOGGER = logging.getLogger(__name__)


def postings(ds: ray.data.Dataset, text_col: str = "text",
             id_col: str = "doc_id", n_buckets: int = 32
             ) -> ray.data.Dataset:
    """Explode documents to distinct ``(word, doc_id, tf, wb)`` posting
    rows (lowercased ``\\w+`` tokens), one streaming pass."""
    from ..canon import hash64_batch

    def explode(batch: pa.Table) -> pa.Table:
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        df = pl.DataFrame({
            id_col: pl.from_arrow(batch[id_col].combine_chunks()),
            "t": pl.from_arrow(batch[text_col].combine_chunks()),
        }).with_columns(w=pl.col("t").cast(pl.String).fill_null("")
                        .str.to_lowercase().str.extract_all(r"\w+")
                        ).drop("t")
        tf = (df.explode("w").drop_nulls("w")
                .group_by(id_col, "w").len())
        words = tf["w"].to_arrow()
        wb = (hash64_batch(words) % n_buckets).astype(np.int64)
        return pa.table({
            "word": words,
            id_col: tf[id_col].to_arrow(),
            "tf": tf["len"].cast(pl.Int64).to_arrow(),
            "wb": pa.array(wb),
        })

    return ds.map_batches(explode, batch_format="pyarrow",
                          batch_size=None)


def doclens(ds: ray.data.Dataset, text_col: str = "text",
            id_col: str = "doc_id", n_buckets: int = 32
            ) -> ray.data.Dataset:
    """Per-doc token counts ``(doc_id, dl, db)`` — the IR "norms"
    sidecar. ``db = hash64(str(doc_id)) % n_buckets`` matches the
    doc-bucket routing of the ranking exchanges, so a ranked search
    can read only its candidate docs' ``db=`` partitions. Cheap: one
    regex count per row, no explode."""
    from ..canon import hash64_batch

    def count_tokens(batch: pa.Table) -> pa.Table:
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        sch = pa.schema([(id_col, pa.int64()), ("dl", pa.int64()),
                         ("db", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        dl = (pl.from_arrow(batch[text_col].combine_chunks())
              .cast(pl.String).fill_null("")
              .str.count_matches(r"\w+").cast(pl.Int64).to_numpy())
        ids = batch[id_col].cast(pa.int64())
        db = (hash64_batch(ids.cast(pa.string()))
              % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({id_col: ids, "dl": pa.array(dl),
                         "db": pa.array(db)})

    return ds.map_batches(count_tokens, batch_format="pyarrow",
                          batch_size=None)


def _write_doclen_and_meta(dl_ds: ray.data.Dataset, out_dir: str,
                           id_col: str, n_buckets: int) -> None:
    """Write the doclen sidecar hive-partitioned by doc bucket, then
    derive the two corpus scalars the ranking functions need:
    ``n_docs`` from parquet footers (metadata only, no Ray job) and
    ``t_tok`` from one column-pruned sum job — build never pins the
    postings stream."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    dl_dir = os.path.join(out_dir, "doclen")
    dl_ds.write_parquet(dl_dir, partition_cols=["db"],
                        min_rows_per_file=100_000)
    files = sorted(glob.glob(os.path.join(dl_dir, "db=*", "*.parquet")))
    n_docs = sum(pq.read_metadata(f).num_rows for f in files)
    # t_tok: the sidecar is 16 B/doc — under the budget a driver-side
    # pyarrow sum beats a whole Ray job's fixed overhead; above it
    # (10^8+ docs) the streaming aggregate takes over
    if sum(os.path.getsize(f) for f in files) <= 1 << 30:
        t_tok = sum(
            int(pc.sum(pq.read_table(f, columns=["dl"])["dl"])
                .as_py() or 0) for f in files)
    else:
        t_tok = int(ray.data.read_parquet(files, columns=["dl"])
                    .sum("dl") or 0) if files else 0
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"n_buckets": n_buckets, "id_col": id_col,
                   "n_docs": int(n_docs), "t_tok": int(t_tok)}, f)


def build_inverted_index(ds: ray.data.Dataset, out_dir: str,
                         text_col: str = "text", id_col: str = "doc_id",
                         n_buckets: int = 32) -> str:
    """Materialize the index as hive-partitioned Parquet — one
    ``wb=<b>/`` directory per word-hash bucket (resumable / appendable
    per bucket), a ``doclen/db=<b>/`` norms sidecar, and a meta file
    recording the bucket modulus plus the corpus scalars (``n_docs``,
    ``t_tok``) that index-backed BM25 / Dirichlet-QL read instead of
    re-aggregating the corpus."""
    p = postings(ds, text_col, id_col, n_buckets)
    p.write_parquet(out_dir, partition_cols=["wb"],
                    min_rows_per_file=100_000)
    _write_doclen_and_meta(doclens(ds, text_col, id_col, n_buckets),
                           out_dir, id_col, n_buckets)
    return out_dir


def _term_buckets(terms: list[str], n_buckets: int) -> dict[str, int]:
    from ..canon import hash64_batch

    h = hash64_batch(pa.array([t.lower() for t in terms], pa.string()))
    return {t.lower(): int(b) for t, b in zip(terms, h % n_buckets)}


def search_index(index_dir: str, terms: list[str], mode: str = "and"
                 ) -> ray.data.Dataset:
    """Search a ``build_inverted_index`` layout reading ONLY the
    buckets the query terms hash to."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    tb = _term_buckets(terms, meta["n_buckets"])
    paths: list[str] = []
    for b in sorted(set(tb.values())):
        paths.extend(sorted(glob.glob(
            os.path.join(index_dir, "wb=%d" % b, "*.parquet"))))
    id_col = meta["id_col"]
    if not paths:
        return ray.data.from_arrow(pa.table(
            {id_col: pa.array([], pa.int64()),
             "n_matched": pa.array([], pa.int64()),
             "tf_sum": pa.array([], pa.int64())}))
    posts = ray.data.read_parquet(paths, columns=["word", id_col, "tf"])
    return _match(posts, terms, mode, id_col)


def search_terms(ds: ray.data.Dataset, terms: list[str],
                 mode: str = "and", text_col: str = "text",
                 id_col: str = "doc_id") -> ray.data.Dataset:
    """In-stream variant (no materialized index): explode + prune to
    the query terms per batch, then the same intersection groupby.
    Single-pass twin of ``search_index`` for correctness checks."""
    p = postings(ds, text_col, id_col, n_buckets=1)
    return _match(p, terms, mode, id_col)


def _match(posts: ray.data.Dataset, terms: list[str], mode: str,
           id_col: str) -> ray.data.Dataset:
    import pyarrow.compute as pc

    want = pa.array(sorted({t.lower() for t in terms}), pa.string())
    n_terms = len(want)

    def prune(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["word"], value_set=want)
        return batch.select(["word", id_col, "tf"]).filter(keep)

    from ray.data.aggregate import Count, Sum

    matched = posts.map_batches(prune, batch_format="pyarrow",
                                batch_size=None)
    # postings are distinct (word, doc) rows, so Count == n matched terms
    agg = matched.groupby(id_col).aggregate(
        Count(alias_name="n_matched"), Sum("tf", alias_name="tf_sum"))

    def gate(batch: pa.Table) -> pa.Table:
        t = pa.table({
            id_col: batch[id_col],
            "n_matched": batch["n_matched"].cast(pa.int64()),
            "tf_sum": batch["tf_sum"].cast(pa.int64()),
        })
        if mode == "and":
            return t.filter(pc.equal(t["n_matched"], n_terms))
        return t

    return agg.map_batches(gate, batch_format="pyarrow",
                           batch_size=None)


def merge_index(index_dir: str, new_docs: ray.data.Dataset,
                out_dir: str, text_col: str = "text",
                id_col: str | None = None) -> str:
    """Incremental index maintenance: merge a document increment into
    an existing ``build_inverted_index`` layout with UPSERT semantics
    — a re-crawled doc's new postings REPLACE its old ones (matching
    capture-log compaction's latest-wins rule), brand-new docs append.

    Dataflow: the increment's doc-id set is the canonical small side
    (bounded by the increment, not the index) — ``ray.put`` once,
    sorted; old postings stream through one vectorized searchsorted
    drop-filter; the increment is exploded to postings with the SAME
    bucket modulus (so bucket layouts stay aligned and a term search
    still reads only its buckets); the union is written back
    hive-partitioned per word-hash bucket. The full index is read and
    written once, never shuffled — posting rows keep their bucket.
    """
    import ray as _ray

    from ..canon import hash64_batch

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    nb = meta["n_buckets"]
    idc = id_col or meta["id_col"]

    new_posts = postings(new_docs, text_col, idc, nb)
    new_ids = np.unique(np.concatenate([
        t[idc].to_numpy(zero_copy_only=False)
        for t in _ray.get(new_docs.select_columns([idc]).to_arrow_refs())
        if t.num_rows] or [np.zeros(0, np.int64)]))
    ids_ref = _ray.put(new_ids)

    old_paths = sorted(glob.glob(os.path.join(index_dir,
                                              "wb=*", "*.parquet")))

    def drop_updated(batch: pa.Table) -> pa.Table:
        from ..pipelines.frontier import _get_broadcast

        ids = _get_broadcast(ids_ref)
        words = batch["word"]
        out = pa.table({"word": words, idc: batch[idc],
                        "tf": batch["tf"]})
        if len(ids) == 0 or batch.num_rows == 0:
            keep = np.ones(batch.num_rows, bool)
        else:
            d = batch[idc].to_numpy(zero_copy_only=False)
            p = np.searchsorted(ids, d)
            p[p == len(ids)] = 0
            keep = ids[p] != d
        out = out.filter(pa.array(keep))
        wb = (hash64_batch(out["word"].combine_chunks())
              % np.uint64(nb)).astype(np.int64)
        return out.append_column("wb", pa.array(wb, pa.int64()))

    if old_paths:
        old = ray.data.read_parquet(old_paths,
                                    columns=["word", idc, "tf"])
        kept = old.map_batches(drop_updated, batch_format="pyarrow",
                               batch_size=None)
        merged = kept.union(new_posts)
    else:
        merged = new_posts
    merged.write_parquet(out_dir, partition_cols=["wb"],
                         min_rows_per_file=100_000)

    # doclen sidecar upsert (same latest-wins rule). Legacy layouts
    # without one derive old dls from the old postings — one groupby,
    # the migration cost paid once.
    def drop_updated_dl(batch: pa.Table) -> pa.Table:
        from ..pipelines.frontier import _get_broadcast

        # normalize dtypes (the hive partition column reads back as an
        # inferred type) and recompute db with the canonical hash so
        # the union with the increment coalesces cleanly
        dcol = batch[idc].cast(pa.int64())
        db = (hash64_batch(dcol.cast(pa.string()))
              % np.uint64(nb)).astype(np.int64)
        batch = pa.table({idc: dcol,
                          "dl": batch["dl"].cast(pa.int64()),
                          "db": pa.array(db, pa.int64())})
        ids = _get_broadcast(ids_ref)
        if len(ids) == 0 or batch.num_rows == 0:
            return batch
        d = batch[idc].to_numpy(zero_copy_only=False)
        p = np.searchsorted(ids, d)
        p[p == len(ids)] = 0
        return batch.filter(pa.array(ids[p] != d))

    new_dl = doclens(new_docs, text_col, idc, nb)
    old_dl_paths = sorted(glob.glob(os.path.join(
        index_dir, "doclen", "db=*", "*.parquet")))
    if old_dl_paths:
        old_dl = ray.data.read_parquet(old_dl_paths,
                                       columns=[idc, "dl"])
    elif old_paths:
        # token-less docs have no postings, so a legacy index (built
        # before the sidecar existed) cannot recover their dl=0 rows:
        # the migrated meta n_docs may undercount such docs relative
        # to a fresh build over the same corpus. Loud, not silent.
        LOGGER.warning(
            "merge_index: legacy layout without a doclen sidecar — "
            "deriving doc lengths from postings; zero-token docs "
            "(if any) are not recoverable and meta n_docs may "
            "undercount them vs a fresh build_inverted_index")
        old_dl = (ray.data.read_parquet(old_paths, columns=[idc, "tf"])
                  .groupby(idc).sum("tf")
                  .map_batches(lambda t: pa.table({
                      idc: t[idc],
                      "dl": t["sum(tf)"].cast(pa.int64()),
                      "db": pa.array(
                          (hash64_batch(t[idc].cast(pa.string()))
                           % np.uint64(nb)).astype(np.int64)),
                  }), batch_format="pyarrow", batch_size=None))
    else:
        old_dl = None
    if old_dl is not None:
        kept_dl = old_dl.map_batches(drop_updated_dl,
                                     batch_format="pyarrow",
                                     batch_size=None)
        merged_dl = kept_dl.union(new_dl)
    else:
        merged_dl = new_dl
    _write_doclen_and_meta(merged_dl, out_dir, idc, nb)
    return out_dir


def proximity_search_batch(batch, terms: tuple, window: int, *,
                           text_col: str = "text",
                           id_col: str = "doc_id"):
    """Positional PROXIMITY search over one batch — the phrase/near
    query the tf-only inverted index cannot answer (classic IR NEAR/W
    operator): docs where ``terms = (a, b)`` co-occur within
    ``window`` token positions, with the exact minimum gap.

    Vectorized: one flat token stream per batch (polars extract_all ->
    explode with doc run bounds), positions of each term found by one
    boolean mask, per-doc min |i - j| by a two-pointer merge over the
    (sorted) position arrays — O(na + nb) per doc, never the cross
    product. Output per doc with BOTH terms present: ``(doc_id,
    min_gap, hit)`` where hit = min_gap <= window. One stateless pass,
    zero shuffles; compose with any upstream candidate filter.
    """
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import numpy as np
    import polars as pl
    import pyarrow as pa

    a, b = terms
    sch = pa.schema([(id_col, pa.int64()), ("min_gap", pa.int64()),
                     ("hit", pa.bool_())])
    if batch.num_rows == 0:
        return sch.empty_table()
    df = pl.DataFrame({
        id_col: pl.from_arrow(batch[id_col].combine_chunks()),
        "t": pl.from_arrow(batch[text_col].combine_chunks()),
    }).with_columns(w=pl.col("t").cast(pl.String).fill_null("")
                    .str.to_lowercase().str.extract_all(r"\w+")) \
        .drop("t")
    lens = df["w"].list.len().to_numpy().astype(np.int64)
    if not lens.sum():
        return sch.empty_table()
    flat = df.select(pl.col("w").explode())["w"].to_numpy()
    docs = df[id_col].to_numpy()
    bounds = np.r_[0, np.cumsum(lens)]
    pos = np.arange(len(flat), dtype=np.int64)   # global positions
    ia = np.flatnonzero(flat == a)
    ib = np.flatnonzero(flat == b)
    if not len(ia) or not len(ib):
        return sch.empty_table()
    # per-doc id of each occurrence via searchsorted on run bounds
    da = np.searchsorted(bounds, ia, side="right") - 1
    db = np.searchsorted(bounds, ib, side="right") - 1
    both = np.intersect1d(da, db)
    out_doc, out_gap = [], []
    for d in both.tolist():
        pa_ = pos[ia[da == d]]
        pb_ = pos[ib[db == d]]
        # merge walk: for each a-position the nearest b-position
        j = np.searchsorted(pb_, pa_)
        cand = []
        left = j > 0
        cand.append(np.abs(pa_[left] - pb_[j[left] - 1]))
        right = j < len(pb_)
        cand.append(np.abs(pb_[j[right]] - pa_[right]))
        gap = int(min(int(c.min()) for c in cand if len(c)))
        out_doc.append(int(docs[d]))
        out_gap.append(gap)
    gaps = np.asarray(out_gap, np.int64)
    return pa.table({
        id_col: pa.array(out_doc, pa.int64()),
        "min_gap": pa.array(gaps, pa.int64()),
        "hit": pa.array(gaps <= window, pa.bool_()),
    })


def _corpus_term_stats(ds: ray.data.Dataset, want_list: list[str],
                       text_col: str, id_col: str
                       ) -> tuple[int, dict, dict]:
    """ONE streaming pass over the corpus for the ranking scalars:
    total token count (Ttok) plus per-query-term df (docs containing)
    and cf (total occurrences). Per-block partials are O(terms + 1)
    rows (docs are block-local, so block df partials are exact) and
    reduce through a tiny groupby — the postings stream is never
    materialized (VERDICT r3 finding #2)."""
    import re as _re

    def partial(batch: pa.Table) -> pa.Table:
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        sch = pa.schema([("w", pa.string()), ("df", pa.int64()),
                         ("cf", pa.int64()), ("tok", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        t = (pl.from_arrow(batch[text_col].combine_chunks())
             .cast(pl.String).fill_null("").str.to_lowercase())
        tok = int(t.str.count_matches(r"\w+").sum())
        ws, dfs_, cfs_ = [""], [0], [0]
        for w in want_list:
            # a \w+ token equals w iff w appears \b-delimited (w is
            # itself \w+, so the boundaries coincide with the split);
            # a term with non-word chars can never equal a token
            if not _re.fullmatch(r"\w+", w):
                ws.append(w)
                cfs_.append(0)
                dfs_.append(0)
                continue
            c = t.str.count_matches(r"\b%s\b" % _re.escape(w))
            ws.append(w)
            cfs_.append(int(c.sum()))
            dfs_.append(int((c > 0).sum()))
        return pa.table({
            "w": pa.array(ws, pa.string()),
            "df": pa.array(dfs_, pa.int64()),
            "cf": pa.array(cfs_, pa.int64()),
            "tok": pa.array([tok] + [0] * (len(ws) - 1), pa.int64()),
        })

    from ray.data.aggregate import Sum

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=None)
           .groupby("w").aggregate(Sum("df", alias_name="df_sum"),
                                   Sum("cf", alias_name="cf_sum"),
                                   Sum("tok", alias_name="tok_sum"))
           .take_all())
    t_tok, dfs, cfs = 0, {}, {}
    for r in agg:
        if r["w"] == "":
            t_tok = int(r["tok_sum"])
        else:
            dfs[r["w"]] = int(r["df_sum"])
            cfs[r["w"]] = int(r["cf_sum"])
    return t_tok, dfs, cfs


def _rank_row_schema(id_col: str) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), ("kind", pa.int8()),
                      ("word", pa.string()), ("val", pa.int64()),
                      ("_b", pa.int64())])


def _index_matched_rows(index_dir: str, want_list: list[str],
                        meta: dict) -> ray.data.Dataset:
    """Pruned read of the query terms' ``wb=`` buckets -> ranking rows
    ``(doc, kind=0, word, val=tf, _b=hash64(doc) % n_buckets)``. Only
    the matched postings leave storage — query cost scales with the
    matches, not the corpus."""
    import pyarrow.compute as pc

    from ..canon import hash64_batch

    nb = meta["n_buckets"]
    idc = meta["id_col"]
    want = pa.array(want_list, pa.string())
    tb = _term_buckets(want_list, nb)
    paths: list[str] = []
    for bkt in sorted(set(tb.values())):
        paths.extend(sorted(glob.glob(
            os.path.join(index_dir, "wb=%d" % bkt, "*.parquet"))))
    sch = _rank_row_schema(idc)
    nbu = np.uint64(nb)

    def m_emit(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch["word"], value_set=want))
        if t.num_rows == 0:
            return sch.empty_table()
        ids = t[idc].cast(pa.int64())
        hb = (hash64_batch(ids.cast(pa.string())) % nbu) \
            .astype(np.int64)
        return pa.table({
            idc: ids,
            "kind": pa.array(np.zeros(t.num_rows, np.int8)),
            "word": t["word"].cast(pa.string()),
            "val": t["tf"].cast(pa.int64()),
            "_b": pa.array(hb)})

    if not paths:
        return ray.data.from_arrow(sch.empty_table())
    return (ray.data.read_parquet(paths, columns=["word", idc, "tf"])
            .map_batches(m_emit, batch_format="pyarrow",
                         batch_size=None))


def _index_doclen_rows(index_dir: str, meta: dict,
                       db_buckets: list[int] | None
                       ) -> ray.data.Dataset:
    """Doclen sidecar -> ranking rows ``(doc, kind=1, null, val=dl,
    _b=db)``. ``db_buckets=None`` reads every partition (QL scores all
    docs); a candidate-bucket list prunes the read to the partitions
    that can hold a matched doc.

    Zero-token docs (the sidecar records them so meta ``n_docs``
    counts the whole corpus, matching the in-stream ``ds.count()``)
    are DROPPED here: the in-stream ranking paths derive dl rows from
    postings, which token-less docs never have, and the SQL oracles
    build their dl CTE the same way — emitting dl=0 rows would score
    extra docs in QL and break the bit-for-bit parity contract."""
    import pyarrow.compute as pc

    from ..canon import hash64_batch

    nb = meta["n_buckets"]
    idc = meta["id_col"]
    sch = _rank_row_schema(idc)
    sel = sorted(set(int(b) for b in db_buckets)) \
        if db_buckets is not None else range(nb)
    paths: list[str] = []
    for bkt in sel:
        paths.extend(sorted(glob.glob(os.path.join(
            index_dir, "doclen", "db=%d" % bkt, "*.parquet"))))
    nbu = np.uint64(nb)

    def dl_emit(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["dl"], 0))
        if batch.num_rows == 0:
            return sch.empty_table()
        ids = batch[idc].cast(pa.int64())
        db = (hash64_batch(ids.cast(pa.string())) % nbu) \
            .astype(np.int64)
        return pa.table({
            idc: ids,
            "kind": pa.array(np.ones(batch.num_rows, np.int8)),
            "word": pa.nulls(batch.num_rows, pa.string()),
            "val": batch["dl"].cast(pa.int64()),
            "_b": pa.array(db)})

    if not paths:
        return ray.data.from_arrow(sch.empty_table())
    return (ray.data.read_parquet(paths, columns=[idc, "dl"])
            .map_batches(dl_emit, batch_format="pyarrow",
                         batch_size=None))


def bm25_search(ds: ray.data.Dataset | None, terms: list[str], *,
                mode: str = "and", text_col: str = "text",
                id_col: str = "doc_id", k1=(6, 5), b=(3, 4),
                num_buckets: int = 32,
                index_dir: str | None = None) -> ray.data.Dataset:
    """BM25 ranking (Robertson & Walker / Okapi; the Lucene-default
    ``ln(1 + (N-df+.5)/(df+.5))`` IDF): ``score = Σ_t idf(t) ·
    tf·(k1+1) / (tf + k1·(1-b+b·dl/avgdl))`` — THE bag-of-words
    ranking function, here in exact integer arithmetic so the DuckDB
    oracle matches bit for bit:

    * ``k1``/``b`` are exact rationals (default 1.2 and 0.75); with
      ``avgdl = Ttok/N`` the tf part clears all denominators to
      ``(k1d·(k1n+k1d)·tf·Ttok) / (k1d²·tf·Ttok + k1n·(bd-bn)·bd·Ttok
      + k1n·bn·bd·dl·N)`` — a ratio of int64 products (big-int
      fallback when a web-scale Ttok·tf would wrap, the spam_mass
      convention);
    * ``idf_micro = floor(1e6·ln((2N+2)/(2df+1)) + 0.5)`` — the lm.py
      micro-nat quantization (df from the tiny per-term match counts;
      ≤ len(terms) values, driver-held like query params);
    * per-term contribution = ``(idf_micro · tf_num) // tf_den``;
      per-doc score = the integer sum (order-free).

    Dataflow, in-stream (``ds``): a first streaming pass computes the
    corpus scalars (N, Ttok, per-term df — :func:`_corpus_term_stats`,
    nothing materialized), then one postings pass (matched term rows
    pruned per block + per-block doc-length partials) through ONE
    doc-bucket exchange; the corpus never moves. With ``index_dir``
    (a :func:`build_inverted_index` layout): N/Ttok come from
    meta.json, matched postings from a pruned read of ONLY the query
    terms' ``wb=`` buckets, doc lengths from ONLY the candidate docs'
    ``doclen/db=`` partitions — query cost scales with the matches,
    not the corpus. Returns ``(doc_id, n_matched, score_1e6)`` (AND
    mode drops partial matches)."""
    import pyarrow.compute as pc

    from ..canon import hash64_batch

    if (ds is None) == (index_dir is None):
        raise ValueError("bm25_search: pass exactly one of ds / "
                         "index_dir")
    want_list = sorted({t.lower() for t in terms})
    want = pa.array(want_list, pa.string())
    n_terms = len(want_list)
    k1n, k1d = k1
    bn, bd = b

    if index_dir is not None:
        with open(os.path.join(index_dir, "meta.json")) as f:
            meta = json.load(f)
        id_col = meta["id_col"]
        num_buckets = meta["n_buckets"]
        n_docs = int(meta["n_docs"])
        t_tok = int(meta["t_tok"])
        # materialize once: matched is small by the pruning contract
        # and feeds four consumers (df aggregate, candidate buckets,
        # the ranking union) — lazy, each would re-read the buckets
        matched = _index_matched_rows(index_dir, want_list,
                                      meta).materialize()
        dft = (matched.groupby("word").count().take_all()
               if matched.count() else [])
        dfs = {r["word"]: int(r["count()"]) for r in dft}
        cand = [int(v) for v in matched.unique("_b")] if dfs else []
        rows = matched.union(
            _index_doclen_rows(index_dir, meta, cand))
    else:
        n_docs = int(ds.count())
        t_tok, dfs, _ = _corpus_term_stats(ds, want_list, text_col,
                                           id_col)
    nbu = np.uint64(num_buckets)
    idf_micro = {
        w: int(np.floor(1e6 * np.log((2 * n_docs + 2)
                                     / (2 * dfs.get(w, 0) + 1))
                        + 0.5))
        for w in want_list}

    def emit(batch: pa.Table) -> pa.Table:
        """Matched term rows (kind 0) + doc-length partials (kind 1),
        both routed by hash64(doc)."""
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        keep = pc.is_in(batch["word"], value_set=want) \
            .to_numpy(zero_copy_only=False)
        # doc-length partials: postings rows are per (doc, word), so
        # per-block sum per doc is a correct partial of dl
        order = np.argsort(ids, kind="stable")
        sid, stf = ids[order], tf[order]
        first = np.ones(len(sid), bool)
        if len(sid):
            first[1:] = sid[1:] != sid[:-1]
        st = np.flatnonzero(first)
        dl_doc = sid[st]
        dl_sum = np.add.reduceat(stf, st) if len(st) else \
            np.zeros(0, np.int64)
        m_ids = ids[keep]
        out_ids = np.concatenate([m_ids, dl_doc])
        kind = np.concatenate([np.zeros(len(m_ids), np.int8),
                               np.ones(len(dl_doc), np.int8)])
        words = pa.concat_arrays([
            batch["word"].combine_chunks().cast(pa.string())
            .filter(pa.array(keep)),
            pa.nulls(len(dl_doc), pa.string())])
        vals = np.concatenate([tf[keep], dl_sum]).astype(np.int64)
        hb = (hash64_batch(pa.array(out_ids.astype(np.int64),
                                    pa.int64()).cast(pa.string()))
              % nbu).astype(np.int64)
        return pa.table({
            id_col: pa.array(out_ids.astype(np.int64), pa.int64()),
            "kind": pa.array(kind, pa.int8()),
            "word": words,
            "val": pa.array(vals, pa.int64()),
            "_b": pa.array(hb, pa.int64())})

    if index_dir is None:
        rows = postings(ds, text_col, id_col, n_buckets=1) \
            .map_batches(emit, batch_format="pyarrow",
                         batch_size=None)

    # derivation: tf + (k1n/k1d)((bd-bn)/bd) + (k1n/k1d)(bn/bd)(dl*N/Ttok)
    # x (k1d*bd*Ttok):  k1d*bd*tf*Ttok + k1n*(bd-bn)*Ttok + k1n*bn*dl*N
    # num x same:       bd*(k1n+k1d)*tf*Ttok
    c_num = bd * (k1n + k1d)
    c_tf = k1d * bd
    c_fix = k1n * (bd - bn)
    c_dl = k1n * bn

    def score_bucket(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([(id_col, pa.int64()),
                         ("n_matched", pa.int64()),
                         ("score_1e6", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        kind = tbl["kind"].to_numpy(zero_copy_only=False)
        words = tbl["word"].to_numpy(zero_copy_only=False)
        val = tbl["val"].to_numpy(zero_copy_only=False)
        # dl per doc in this bucket
        dsel = kind == 1
        d_ids, d_inv = np.unique(ids[dsel], return_inverse=True)
        dl = np.zeros(len(d_ids), np.int64)
        np.add.at(dl, d_inv, val[dsel])
        msel = kind == 0
        if not msel.any():
            return sch.empty_table()
        m_ids = ids[msel]
        m_tf = val[msel]
        m_idf = np.array([idf_micro[w] for w in words[msel]],
                         np.int64)
        pos = np.searchsorted(d_ids, m_ids)
        m_dl = dl[pos]
        tt, nn = t_tok, n_docs
        num = c_num * m_tf * tt
        den = c_tf * m_tf * tt + c_fix * tt + c_dl * m_dl * nn
        if (m_tf.astype(np.float64).max(initial=0.0) * c_num * tt
                < 2**62
                and m_dl.astype(np.float64).max(initial=0.0)
                * c_dl * nn < 2**61
                and m_idf.astype(np.float64).max(initial=0.0)
                * num.astype(np.float64).max(initial=1.0) < 2**62):
            contrib = (m_idf * num) // np.maximum(den, 1)
        else:       # exact big-int fallback (spam_mass convention)
            contrib = np.array(
                [(int(i) * int(n)) // max(int(d), 1)
                 for i, n, d in zip(m_idf.tolist(), num.tolist(),
                                    den.tolist())], np.int64)
        order = np.argsort(m_ids, kind="stable")
        sid = m_ids[order]
        sc = contrib[order]
        first = np.ones(len(sid), bool)
        first[1:] = sid[1:] != sid[:-1]
        st = np.flatnonzero(first)
        n_matched = np.diff(np.r_[st, len(sid)]).astype(np.int64)
        score = np.add.reduceat(sc, st).astype(np.int64)
        out = pa.table({
            id_col: pa.array(sid[st], pa.int64()),
            "n_matched": pa.array(n_matched, pa.int64()),
            "score_1e6": pa.array(score, pa.int64())})
        if mode == "and":
            out = out.filter(pc.equal(out["n_matched"], n_terms))
        return out

    from .exchange import hash_bucket_apply

    return hash_bucket_apply(rows, "_b", score_bucket,
                             num_buckets=num_buckets)


def dirichlet_ql(ds: ray.data.Dataset | None, terms: list[str], *,
                 mu: int = 2000, text_col: str = "text",
                 id_col: str = "doc_id", num_buckets: int = 32,
                 index_dir: str | None = None) -> ray.data.Dataset:
    """Dirichlet-smoothed query likelihood ranking (Zhai & Lafferty,
    SIGIR 2001 — the language-modeling counterpart of BM25):
    ``score(d) = Σ_t ln p(t|d)`` with ``p(t|d) = (tf + μ·cf_t/Ttok)
    / (dl + μ)``. Smoothing scores EVERY document (tf = 0 terms get
    the collection prior), so the per-doc compute keys off the
    doc-length row alone: p(t|d) = (tf·Ttok + μ·cf_t) /
    ((dl + μ)·Ttok) — an exact integer ratio per (doc, term),
    quantized to micro-nats (``floor(1e6·ln(num/den) + 0.5)``, the
    lm.py convention) and summed order-free. A query term absent from
    the corpus (cf = 0) has likelihood 0 for every doc and is
    rejected loudly rather than silently ranking everything -inf.

    Same dataflow as :func:`bm25_search`: in-stream, a streaming
    stats pass (cf/Ttok — nothing materialized) then one postings pass
    (matched rows + dl partials) through one doc-bucket exchange; with
    ``index_dir``, Ttok comes from meta.json, matched rows from the
    query terms' ``wb=`` buckets and doc lengths from the full doclen
    sidecar (every doc IS scored — that read is the output, not
    overhead). Returns ``(doc_id, n_matched, score_1e6)`` over ALL
    docs with text."""
    import pyarrow.compute as pc

    from ..canon import hash64_batch

    if (ds is None) == (index_dir is None):
        raise ValueError("dirichlet_ql: pass exactly one of ds / "
                         "index_dir")
    want_list = sorted({t.lower() for t in terms})
    want = pa.array(want_list, pa.string())

    if index_dir is not None:
        with open(os.path.join(index_dir, "meta.json")) as f:
            meta = json.load(f)
        id_col = meta["id_col"]
        num_buckets = meta["n_buckets"]
        t_tok = int(meta["t_tok"])
        # materialize once (cf aggregate + ranking union consumers)
        matched = _index_matched_rows(index_dir, want_list,
                                      meta).materialize()
        cft = (matched.groupby("word").sum("val").take_all()
               if matched.count() else [])
        cf = {r["word"]: int(r["sum(val)"]) for r in cft}
    else:
        t_tok, _, cf = _corpus_term_stats(ds, want_list, text_col,
                                          id_col)
    nbu = np.uint64(num_buckets)
    missing = [w for w in want_list if cf.get(w, 0) == 0]
    if missing:
        raise ValueError("dirichlet_ql: query terms absent from the "
                         "corpus (cf=0): %r" % missing)

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        keep = pc.is_in(batch["word"], value_set=want) \
            .to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        sid, stf = ids[order], tf[order]
        first = np.ones(len(sid), bool)
        if len(sid):
            first[1:] = sid[1:] != sid[:-1]
        st = np.flatnonzero(first)
        dl_doc = sid[st]
        dl_sum = np.add.reduceat(stf, st) if len(st) else \
            np.zeros(0, np.int64)
        m_ids = ids[keep]
        out_ids = np.concatenate([m_ids, dl_doc]).astype(np.int64)
        kind = np.concatenate([np.zeros(len(m_ids), np.int8),
                               np.ones(len(dl_doc), np.int8)])
        words = pa.concat_arrays([
            batch["word"].combine_chunks().cast(pa.string())
            .filter(pa.array(keep)),
            pa.nulls(len(dl_doc), pa.string())])
        vals = np.concatenate([tf[keep], dl_sum]).astype(np.int64)
        hb = (hash64_batch(pa.array(out_ids, pa.int64())
                           .cast(pa.string())) % nbu).astype(np.int64)
        return pa.table({
            id_col: pa.array(out_ids, pa.int64()),
            "kind": pa.array(kind, pa.int8()),
            "word": words,
            "val": pa.array(vals, pa.int64()),
            "_b": pa.array(hb, pa.int64())})

    if index_dir is not None:
        rows = matched.union(_index_doclen_rows(index_dir, meta, None))
    else:
        rows = postings(ds, text_col, id_col, n_buckets=1) \
            .map_batches(emit, batch_format="pyarrow",
                         batch_size=None)
    cfs = np.array([cf[w] for w in want_list], np.int64)

    def score_bucket(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([(id_col, pa.int64()),
                         ("n_matched", pa.int64()),
                         ("score_1e6", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        kind = tbl["kind"].to_numpy(zero_copy_only=False)
        words = tbl["word"].to_numpy(zero_copy_only=False)
        val = tbl["val"].to_numpy(zero_copy_only=False)
        dsel = kind == 1
        d_ids = ids[dsel]
        order = np.argsort(d_ids, kind="stable")
        d_ids = d_ids[order]
        dl = val[dsel][order]
        if len(d_ids) == 0:
            return sch.empty_table()
        # tf matrix (docs x query terms), default 0
        tf = np.zeros((len(d_ids), len(want_list)), np.int64)
        msel = kind == 0
        if msel.any():
            widx = {w: j for j, w in enumerate(want_list)}
            cols = np.array([widx[w] for w in words[msel]], np.int64)
            rows_ = np.searchsorted(d_ids, ids[msel])
            tf[rows_, cols] = val[msel]
        num = tf * t_tok + mu * cfs[None, :]
        den = (dl[:, None] + mu) * t_tok
        term = np.floor(1e6 * np.log(num / den) + 0.5).astype(np.int64)
        return pa.table({
            id_col: pa.array(d_ids, pa.int64()),
            "n_matched": pa.array((tf > 0).sum(axis=1)
                                  .astype(np.int64), pa.int64()),
            "score_1e6": pa.array(term.sum(axis=1), pa.int64())})

    from .exchange import hash_bucket_apply

    return hash_bucket_apply(rows, "_b", score_bucket,
                             num_buckets=num_buckets)
