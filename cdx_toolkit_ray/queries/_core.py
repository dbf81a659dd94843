"""Crawl + query-engine core callables: SURT/dedup/politeness, CDX
filters, timestamp algebra, fetch loop, joins/aggregates (SURVEY §2
S/M/T/J/A/O families)."""

from . import _shared as _prev
globals().update({k: v for k, v in vars(_prev).items()
                   if not k.startswith('__')})
del _prev

def q_surt_canonicalize(sf_dir: str):
    """M5: SURT urlkey + host for the derived URL set."""
    ds = derived_seeds(sf_dir)
    ds = ds.map_batches(canonicalize_batch, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "url", "urlkey", "host"])


def q_exact_dedup(sf_dir: str):
    """§2.5 exact dedup: first (min doc_id) per distinct urlkey."""
    ds = derived_seeds(sf_dir)
    ds = ds.map_batches(canonicalize_batch, batch_format="pyarrow",
                        batch_size=None)
    out = exact_dedup(ds, key_col="urlkey", id_col="doc_id")
    return out.select_columns(["doc_id", "urlkey"])


def q_frontier_schedule(sf_dir: str):
    """Flagship north_rule pipeline: canonicalize -> first-wins dedup ->
    per-host politeness slots + global crawl order via the direct
    task-graph exchange (the frontier_flow path: one host round, then
    pipelines/frontier.crawl_order)."""
    from ..pipelines.frontier import crawl_order

    ds = crawl_order(_frontier_over_seeds(sf_dir))
    return ds.select_columns(["urlkey", "host", "priority", "seed_order",
                              "n_dup_dropped", "host_rank", "fetch_ms"])


def q_frontier_counters(sf_dir: str):
    """A4 counters: per-host fetched / deduped / deferred / finish."""
    return host_counters(_frontier_over_seeds(sf_dir))


def q_filter_cdx(sf_dir: str):
    """M3 filter language (pywb dialect): exact, regex, inverted
    substring, ANDed."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang", "source", "text"])
    ds = ds.map_batches(
        FilterStage(["=lang:en", "~source:src1.?", "!text:spark"], "cc"),
        batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "lang", "source"])


def q_filter_ia(sf_dir: str):
    """M2+M3 IA dialect: field rename (mimetype->mime) + regex filter +
    inverted filter on a missing dynamic field (passes every row)."""
    def add_mime(batch: pa.Table) -> pa.Table:
        mime = pc.binary_join_element_wise(
            pa.array(["text"] * batch.num_rows), batch["lang"], "/")
        return batch.append_column("mime", mime)

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang"])
    ds = ds.map_batches(add_mime, batch_format="pyarrow",
                        batch_size=None)
    ds = ds.map_batches(
        FilterStage(["mimetype:text/e.*", "!statuscode:404"], "ia"),
        batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "mime"])


def _add_ts14(batch: pa.Table) -> pa.Table:
    # Arrow's %S prints fractional seconds for sub-second unit types —
    # floor and downcast to seconds so the 14-digit CDX form is exact.
    secs = pc.cast(pc.floor_temporal(batch["ts"], unit="second"),
                   pa.timestamp("s"))
    ts14 = pc.strftime(secs, format="%Y%m%d%H%M%S")
    return batch.append_column("timestamp", ts14)


def q_time_window(sf_dir: str):
    """M7/M8 timestamp padding + window filter + CDX filter: events in
    [pad_down('20240105'), pad_up('20240115')] of type click. Note the
    reference's pad-up quirk (day replaced by month max) is intentional:
    to='20240115' pads to 20240131235959."""
    from ..sources.captures import CaptureMatcher

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_id", "ts", "event_type"])
    ds = ds.map_batches(_add_ts14, batch_format="pyarrow",
                        batch_size=None)
    matcher = CaptureMatcher(None, "20240105", "20240115",
                             ["=event_type:click"], "cc")
    ds = ds.map_batches(matcher, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["event_id", "timestamp", "event_type"])


def q_closest(sf_dir: str):
    """O3 nearest-timestamp top-k with deterministic tie-break."""
    target = timestamp_to_time(pad_timestamp("2024011012"))

    def add_delta(batch: pa.Table) -> pa.Table:
        ep = timestamps_to_epoch(batch["timestamp"])
        d = pc.cast(pc.abs(pc.subtract(ep, target)), pa.int64())
        return batch.append_column("closest_delta", d)

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_id", "ts"])
    ds = ds.map_batches(_add_ts14, batch_format="pyarrow",
                        batch_size=None)
    ds = ds.map_batches(add_delta, batch_format="pyarrow",
                        batch_size=None)
    ds = ds.sort(["closest_delta", "event_id"]).limit(25)
    return ds.select_columns(["event_id", "timestamp", "closest_delta"])


def q_size_estimate(sf_dir: str):
    """A1 size estimate: distributed count per group -> page math
    (pages_to_samples parity, reference __init__.py:43-50)."""
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_type"])
    counts = ds.groupby("event_type").aggregate(
        Count(alias_name="n_rows")).to_pandas()
    pages = np.ceil(counts["n_rows"].to_numpy() / LINES_PER_PAGE)
    counts["est_samples"] = np.array(
        [pages_to_samples(int(p)) for p in pages], dtype=np.int64)
    return counts[["event_type", "n_rows", "est_samples"]]


def q_join_lookup(sf_dir: str):
    """J1-style broadcast lookup join: orders x customer x nation via a
    ray.put dict read once per worker (no shuffle)."""
    import ray as _ray

    cust = pq.read_table(_tbl(sf_dir, "customer"),
                         columns=["c_custkey", "c_name", "c_mktsegment",
                                  "c_nationkey"])
    nat = pq.read_table(_tbl(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    # broadcast an Arrow lookup table + a sorted key index: the batch
    # kernel is searchsorted + Table.take — no Python per row
    ckeys = np.array(cust["c_custkey"].to_pylist(), np.int64)
    order = np.argsort(ckeys, kind="stable")
    side = pa.table({
        "c_name": cust["c_name"].take(pa.array(order)),
        "c_mktsegment": cust["c_mktsegment"].take(pa.array(order)),
        "n_name": pa.array([nmap.get(k) for k in
                            np.array(cust["c_nationkey"].to_pylist(),
                                     np.int64)[order]], pa.string()),
    })
    ref = _ray.put((ckeys[order], side))

    def lookup(batch: pa.Table) -> pa.Table:
        from ..pipelines.frontier import _get_broadcast

        keys, tbl = _get_broadcast(ref)
        k = batch["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, k)
        pos = np.minimum(pos, len(keys) - 1)
        hit = keys[pos] == k
        batch = batch.filter(pa.array(hit))
        taken = tbl.take(pa.array(pos[hit]))
        out = pa.table({"o_orderkey": batch["o_orderkey"]})
        for c in taken.column_names:
            out = out.append_column(c, taken[c])
        return out

    ds = ray.data.read_parquet(_tbl(sf_dir, "orders"),
                               columns=["o_orderkey", "o_custkey"])
    return ds.map_batches(lookup, batch_format="pyarrow",
                        batch_size=None)


def q_groupby_agg(sf_dir: str):
    """A-family wide aggregate with map-side combining: per-batch
    partial sums inside map_batches, then a small groupby of partials
    (the pre-aggregate-before-shuffle pattern)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        qty = pc.cast(batch["l_quantity"], pa.int64())
        batch = batch.set_column(
            batch.column_names.index("l_quantity"), "qty", qty)
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("qty", "count")])
        return g.rename_columns(["l_returnflag", "l_linestatus",
                                 "part_sum", "part_cnt"])

    ds = ray.data.read_parquet(
        _tbl(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"])
    ds = ds.map_batches(partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("part_sum", alias_name="sum_qty"),
        Sum("part_cnt", alias_name="count_order"))


def q_project_rename(sf_dir: str):
    """M1/M2 projection + rename."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_id", "event_type", "user_id"])
    return ds.rename_columns({"event_type": "etype"})


def q_token_stats(sf_dir: str):
    """Token counting (whitespace + BPE-ish regex)."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(token_count_batch, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "n_tokens_ws", "n_tokens_re"])


def q_normalize_text(sf_dir: str):
    """Canonical text form: lower -> NFC -> collapse whitespace ->
    trim (stages/textstats.normalize_batch, polars fast path with a
    scalar non-ASCII fallback)."""
    from ..stages.textstats import normalize_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(normalize_batch, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "text_norm"])


def q_quality(sf_dir: str):
    """Quality scoring (integer components — SQL-checkable)."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(quality_batch, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "n_chars_actual", "n_tokens_ws",
                              "n_stopwords"])


def q_lang_id(sf_dir: str):
    """Heuristic language ID (stopword-marker argmax, alpha tie-break)."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(lang_id_batch, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "lang_pred"])


def q_embed_quantize(sf_dir: str):
    """Symmetric int8 embedding quantization
    (stages/ann.quantize_batch): zero-shuffle streaming map; exploded
    to (vec_id, dim_idx, qval, max_abs) scalars for the value check —
    the stage itself keeps the list<int8> column."""
    from ..stages.ann import quantize_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    ds = ds.map_batches(quantize_batch, batch_format="pyarrow",
                        batch_size=None)

    def explode(batch: pa.Table) -> pa.Table:
        q = batch["qvec"]
        if isinstance(q, pa.ChunkedArray):
            q = q.combine_chunks()
        offsets = q.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lengths = np.diff(offsets)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        ma = batch["max_abs"].to_numpy(zero_copy_only=False)
        first = offsets[0]
        dim_idx = (np.arange(offsets[-1] - first)
                   - np.repeat(offsets[:-1] - first, lengths))
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, lengths), pa.int64()),
            "dim_idx": pa.array(dim_idx, pa.int64()),
            "qval": pa.array(q.values.to_numpy(zero_copy_only=False)
                             [first:].astype(np.int64)),
            "max_abs": pa.array(np.repeat(ma, lengths), pa.float64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow",
                          batch_size=None)


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k: broadcast query vector, per-batch
    numpy matmul, global top-k by sort+limit."""
    from ..stages.ann import cosine_topk

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    out = cosine_topk(ds, qvec, k=10, round_to=None)
    return out.select_columns(["vec_id"])


def q_ann_int8(sf_dir: str):
    """Quantized retrieval: exact top-k over the int8-compressed
    corpus by the all-integer score (int8 dot x fixed-point per-vector
    scale) — reduction-order independent, bit-exact vs SQL."""
    from ..stages.ann import int8_topk

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    return int8_topk(ds, qvec, k=10)


def q_distinct(sf_dir: str):
    """§2.5 distinct via the pre-aggregate pattern: per-batch local
    distinct inside map_batches, then the (tiny) global groupby —
    only unique pairs ever enter the shuffle."""
    from ray.data.aggregate import Count

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["lang", "source"]).aggregate([])

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["lang", "source"])
    ds = ds.map_batches(local_distinct, batch_format="pyarrow",
                        batch_size=None)
    out = ds.groupby(["lang", "source"]).aggregate(Count(alias_name="_c"))
    return out.select_columns(["lang", "source"])


def q_union_streams(sf_dir: str):
    """O4 union of per-endpoint streams: two filtered reads of the same
    table concatenated with ds.union (order-free concat, no shuffle)."""
    base = ray.data.read_parquet(_tbl(sf_dir, "events"),
                                 columns=["event_id", "event_type"])
    clicks = base.filter(expr="event_type == 'click'")
    views = base.filter(expr="event_type == 'view'")
    return clicks.union(views)


def q_topk_per_group(sf_dir: str):
    """Priority-queue semantics as a windowed top-k: per-source top-3
    docs by (n_chars desc, doc_id asc), with per-batch local pruning to
    k before the shuffle so only candidates move."""
    def local_prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        return df.groupby("source", sort=False).head(3)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"],
                          ascending=[False, True]).head(3)
        g = g.copy()
        g["grp_rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source", "n_chars"])
    ds = ds.map_batches(local_prune, batch_format="pandas")
    out = ds.groupby("source").map_groups(final_topk, batch_format="pandas")
    return out.select_columns(["source", "doc_id", "n_chars", "grp_rank"])


def q_lsh_eval(sf_dir: str):
    """LSH quality evaluation: precision/recall of the MinHash band
    candidates vs exact-Jaccard ground truth at threshold 1/2 —
    integer micro metrics, meant for a bounded tuning sample (the
    all-pairs truth is pairwise per shared gram by necessity)."""
    from ..stages.dedup import minhash_lsh_eval

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return minhash_lsh_eval(ds, "text", "doc_id",
                            jaccard_num=1, jaccard_den=2)


def q_ngram_jaccard(sf_dir: str):
    """n-gram (word-bigram) Jaccard over adjacent-id document pairs;
    integer intersection/union sizes, exactly SQL-checkable."""
    from ..stages.dedup import ngram_jaccard_pairs

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, text_col="text", id_col="doc_id", k=2)


def q_containment(sf_dir: str):
    """Asymmetric n-gram containment (Broder 1997's second resemblance
    measure): derived corpus = every document plus, for each doc_id
    divisible by 3, a QUOTING twin (id + 100000) whose text embeds the
    whole original and appends an 11-word tail — full containment of
    the smaller side at low Jaccard, the case symmetric near-dup
    misses. The oracle replays the whole distributed chain (distinct
    trigram sets -> shared-gram pair join under the boilerplate cap ->
    pair gram counts -> integer cross-multiply threshold) in SQL."""
    from ..stages.dedup import containment_pairs

    TAIL = (" alpha beta gamma delta epsilon zeta eta theta iota"
            " kappa")

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = batch["text"].to_numpy(zero_copy_only=False).astype(object)
        m = d % 3 == 0
        tails = np.char.add(
            np.char.add(" tail", d[m].astype(str)), TAIL).astype(object)
        ids = np.concatenate([d, d[m] + 100000])
        texts = np.concatenate([t, t[m] + tails])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts.tolist(), pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    return containment_pairs(ds, k=3, threshold_pct=80, min_shared=2,
                             max_docs_per_gram=64)


def q_repeated_spans(sf_dir: str):
    """Cross-document repeated-span counts (Lee et al. 2022 signal):
    per doc, distinct word-5-gram count and how many of those grams
    appear in >= 2 distinct documents corpus-wide. Two narrow
    (doc_id, hash) exchanges; text never shuffles."""
    from ..stages.spans import repeated_span_stats

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return repeated_span_stats(ds, text_col="text", id_col="doc_id",
                               span_k=5, min_docs=2)


def q_cut_spans(sf_dir: str):
    """Cross-document repeated-span REMOVAL (the action half of Lee
    et al. 2022): every word covered by a word-5-gram shared by >= 2
    distinct documents is cut; survivors re-joined as clean_text. One
    narrow (doc_id, hash) exchange builds the repeated-gram set
    (broadcast once), then a stateless vectorized rewrite pass."""
    from ..stages.spans import cut_repeated_spans

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return cut_repeated_spans(ds, text_col="text", id_col="doc_id",
                              span_k=5, min_docs=2)


def _wrap3_batch(batch: pa.Table) -> pa.Table:
    """Rewrap each doc's word stream into 3-word lines joined by \\n —
    the deterministic multi-line view of the single-line fixture texts
    (simulating extracted web text whose boilerplate LINES repeat
    across pages). SQL-expressible, so the line-dedup oracle composes
    the same derivation."""
    import polars as pl

    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    df = (pl.DataFrame({
            "doc": pl.Series(ids),
            "t": pl.from_arrow(batch["text"].combine_chunks()
                               .cast(pa.string()))})
          .with_columns(w=pl.col("t").fill_null("").str.split(" "))
          .drop("t"))
    ex = (df.explode("w")
          .with_columns(pos=pl.int_range(pl.len()).over("doc")))
    lines = (ex.group_by("doc", (pl.col("pos") // 3).alias("li"),
                         maintain_order=True)
             .agg(line=pl.col("w").str.join(" ")))
    wrapped = (lines.group_by("doc", maintain_order=True)
               .agg(t=pl.col("line").str.join("\n")))
    out = df.select("doc").join(wrapped, on="doc", how="left",
                                maintain_order="left")
    # positional replace is safe: maintain_order='left' keeps out row
    # i aligned with batch row i
    new_text = out["t"].fill_null("").to_arrow().cast(pa.string())
    idx = batch.schema.get_field_index("text")
    return batch.set_column(idx, "text", new_text)


def q_dedup_lines(sf_dir: str):
    """C4/RefinedWeb duplicate-LINE removal: lines appearing in >= 2
    distinct documents are boilerplate and every copy is cut, with
    clean_text re-joined in original order. One narrow (doc_id,
    line_hash) exchange counts distinct docs per line (run-length, not
    pairwise); the boilerplate set broadcasts once; the cut is a
    stateless vectorized pass — text never shuffles. Fixture texts are
    single-line word streams, so the query first rewraps them into
    3-word lines (deterministic, replicated in the oracle SQL)."""
    from ..stages.lines import dedup_lines

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(_wrap3_batch, batch_format="pyarrow",
                        batch_size=None)
    return dedup_lines(ds, text_col="text", id_col="doc_id",
                       min_docs=2)


def _host_score_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, host, score): host via the seeds derivation's www CASE
    (one host per source x www variant), score = \\w+ token count —
    the integer quality proxy the host aggregate folds."""
    import polars as pl

    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
    source = batch["source"].to_numpy(zero_copy_only=False).astype(str)
    www = np.where((doc_id // 100) % 2 == 0, "www.", "")
    host = np.char.add(np.char.add(www.astype(str), source), ".example")
    s = pl.Series(batch["text"].combine_chunks()).cast(pl.String) \
        .fill_null("").str.to_lowercase().str.count_matches(r"\w+")
    return pa.table({
        "doc_id": batch["doc_id"],
        "host": pa.array(host.tolist(), pa.string()),
        "score": s.cast(pl.Int64).to_arrow(),
    })


def q_host_curation(sf_dir: str):
    """RefinedWeb-style host-level curation: per-host mean of an
    integer quality score (token count), blocked iff host mean <
    corpus mean by EXACT integer cross-multiply — the blocklist-
    construction half of domain filtering. Per-block host partials
    fold before one host-bucket exchange; corpus totals are an
    O(blocks) scalar side pass; the driver holds two ints."""
    from ..stages.hosts import host_quality_stats

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source", "text"])
    ds = ds.map_batches(_host_score_batch, batch_format="pyarrow",
                        batch_size=None)
    return host_quality_stats(ds, host_col="host", score_col="score")


def q_host_filter(sf_dir: str):
    """The ACTION half of host curation: drop every document on a
    blocked host. The blocked-host hash set broadcasts once (robots-
    gate shape); the gate is one vectorized membership pass — the
    corpus streams, nothing shuffles."""
    from ..stages.hosts import filter_blocked_hosts, host_quality_stats

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source", "text"])
    ds = ds.map_batches(_host_score_batch, batch_format="pyarrow",
                        batch_size=None)
    stats = host_quality_stats(ds, host_col="host", score_col="score")
    return filter_blocked_hosts(ds, stats, host_col="host") \
        .select_columns(["doc_id", "host", "score"])


def _host_latency_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, host, score): host via the seeds www CASE, score = a
    deterministic synthetic response latency ``(doc_id*37)%900+100``
    ms — the observation stream an instrumented fetcher would emit."""
    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
    source = batch["source"].to_numpy(zero_copy_only=False).astype(str)
    www = np.where((doc_id // 100) % 2 == 0, "www.", "")
    host = np.char.add(np.char.add(www.astype(str), source), ".example")
    lat = (doc_id * 37) % 900 + 100
    return pa.table({
        "doc_id": batch["doc_id"],
        "host": pa.array(host.tolist(), pa.string()),
        "score": pa.array(lat.astype(np.int64)),
    })


def q_adaptive_politeness(sf_dir: str):
    """Observed-latency politeness: aggregate per-host response times
    (the instrumented fetcher's observation stream) to adaptive crawl
    delays ``clamp(3 * mean_ms, 500, 10000)`` — slow hosts back off,
    fast hosts get the floor. Exact integer math end-to-end; per-block
    partials fold before one host-bucket exchange."""
    from ..stages.hosts import adaptive_delays, host_quality_stats

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source"])
    obs = ds.map_batches(_host_latency_batch, batch_format="pyarrow",
                         batch_size=None)
    return adaptive_delays(host_quality_stats(obs, host_col="host",
                                              score_col="score"))


def q_adaptive_schedule(sf_dir: str):
    """The frontier schedule DRIVEN by observed latency: the flagship
    politeness pipeline (canonicalize -> first-wins dedup -> per-host
    slots) with each host's crawl delay replaced by its adaptive value
    — the feedback loop a production crawler closes every cycle. The
    delay LUT broadcasts once as two sorted arrays (O(hosts) worker
    state); schedule semantics and the exchange path are unchanged."""
    from ..pipelines.frontier import crawl_order
    from ..stages.hosts import (adaptive_delays, host_quality_stats,
                               replace_delays)

    obs = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                                columns=["doc_id", "source"]) \
        .map_batches(_host_latency_batch, batch_format="pyarrow",
                     batch_size=None)
    delays = adaptive_delays(host_quality_stats(obs, host_col="host",
                                                score_col="score"))

    ds = derived_seeds(sf_dir).map_batches(
        _canon_allow_all, batch_format="pyarrow", batch_size=None)
    ds = replace_delays(ds, delays, host_col="host",
                        delay_col="crawl_delay_ms")
    ds = crawl_order(dedup_schedule(ds))
    return ds.select_columns(["urlkey", "host", "priority",
                              "seed_order", "n_dup_dropped",
                              "host_rank", "fetch_ms"])


def q_revisit_generate(sf_dir: str):
    """The WRITE side of revisit semantics (revisit_resolve's twin):
    first capture per content digest stays a response, every later
    identical-content capture becomes a revisit record pointing at it
    — within-crawl digest dedup, the reason the reference's revisit
    records exist at all. Capture stream derived from seeds (every 3
    docs share a digest, so ~2/3 of rows rewrite); one digest-bucket
    exchange, payload bytes never move."""
    from ..stages.recrawl import revisit_generate

    base = derived_seeds(sf_dir).map_batches(
        canonicalize_batch, batch_format="pyarrow", batch_size=None)

    def add_cap(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        ts = np.char.zfill(doc_id.astype(str), 14)
        dig = np.char.add("sha1:", (doc_id // 3).astype(str))
        return batch.append_column(
            "timestamp", pa.array(ts.tolist(), pa.string())) \
            .append_column("digest", pa.array(dig.tolist(), pa.string()))

    caps = base.map_batches(add_cap, batch_format="pyarrow",
                            batch_size=None)
    return revisit_generate(caps, digest_col="digest",
                            ts_col="timestamp", url_col="url",
                            key_col="urlkey")


def q_strip_tracking(sf_dir: str):
    """Tracking-parameter removal (utm_*/fbclid/...): the URL-identity
    normalization run before frontier dedup — shares of one page
    collapse to one entry. Seed URLs get deterministic tracking
    decorations (utm on even docs, fbclid on %5 docs), then the strip
    filters parameters by key (split/filter/rejoin — separators stay
    well-formed). One stateless vectorized pass."""
    from ..stages.urlfeat import strip_tracking_params

    ds = derived_seeds(sf_dir)

    def decorate(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        u = batch["url"].to_numpy(zero_copy_only=False).astype(str)
        has_q = np.char.find(u, "?") >= 0
        t1 = doc_id % 2 == 0
        q1 = np.where(t1, np.where(has_q, "&", "?"), "")
        q1 = np.char.add(q1.astype(str),
                         np.where(t1, "utm_source=feed", "").astype(str))
        has_q2 = has_q | t1
        t2 = doc_id % 5 == 0
        q2 = np.where(t2, np.where(has_q2, "&", "?"), "")
        q2 = np.char.add(q2.astype(str),
                         np.where(t2, "fbclid=abc", "").astype(str))
        u2 = np.char.add(np.char.add(u, q1), q2)
        return pa.table({
            "doc_id": batch["doc_id"],
            "url": pa.array(u2.tolist(), pa.string()),
        })

    ds = ds.map_batches(decorate, batch_format="pyarrow",
                        batch_size=None)
    return strip_tracking_params(ds, url_col="url")


def _events_cents(sf_dir: str):
    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["value"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table({"cents": pa.array(
            np.round(v * 100).astype(np.int64))})

    return ds.map_batches(cents, batch_format="pyarrow",
                          batch_size=None)


def q_kll_quantiles(sf_dir: str):
    """KLL quantile sketch (completes the sketch family: count-min /
    HLL / Misra-Gries / KLL): per-block bounded sketches travel as
    (level, value) rows; one deterministic driver merge reads the
    quantiles. Approximate by design (rank error O(levels/k), block-
    layout dependent like ann_ivf) — the exact-degraded twin below
    carries the oracle."""
    from ..stages.sketch import kll_quantiles

    return kll_quantiles(_events_cents(sf_dir), "cents", k=64)


def q_kll_quantiles_exact(sf_dir: str):
    """The exact-degraded KLL twin: k exceeds the row count so no
    level ever compacts, the sketch IS the value multiset, and the
    weighted rank rule reduces to quantile_disc — the same machinery
    hash-checked end-to-end (the ann_ivf_full pattern)."""
    from ..stages.sketch import kll_quantiles

    return kll_quantiles(_events_cents(sf_dir), "cents",
                         k=10_000_000)


def q_seed_expansion(sf_dir: str):
    """Frontier seed expansion: every seed URL generates its standard
    discovery candidates — the site root, the www-toggled variant, and
    the https upgrade (http seeds only) — the heuristics a crawler
    applies before the first fetch so the canonical entry points join
    the frontier. One stateless vectorized pass; the frontier's exact
    dedup then collapses candidates already present."""

    def expand(batch: pa.Table) -> pa.Table:
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(batch["doc_id"].combine_chunks()),
            "u": pl.from_arrow(batch["url"].combine_chunks()
                               .cast(pa.string())),
        }).with_columns(
            scheme=pl.col("u").str.extract(r"^(https?://)", 1)
            .fill_null(""),
            host=pl.col("u").str.extract(r"^https?://([^/]+)", 1)
            .fill_null(""))
        root = df.select(
            "doc_id", "u",
            candidate=pl.col("scheme") + pl.col("host") + "/",
            kind=pl.lit("root"))
        toggled = df.with_columns(
            th=pl.when(pl.col("host").str.starts_with("www."))
            .then(pl.col("host").str.slice(4))
            .otherwise("www." + pl.col("host")))
        www = toggled.select(
            "doc_id", "u",
            candidate=pl.col("scheme") + pl.col("th") + "/",
            kind=pl.lit("www_toggle"))
        https = (df.filter(pl.col("scheme") == "http://")
                 .select("doc_id", "u",
                         candidate="https://" + pl.col("host") + "/",
                         kind=pl.lit("https_upgrade")))
        out = pl.concat([root, www, https])
        return pa.table({
            "doc_id": out["doc_id"].to_arrow().cast(pa.int64()),
            "url": out["u"].to_arrow().cast(pa.string()),
            "candidate": out["candidate"].to_arrow().cast(pa.string()),
            "kind": out["kind"].to_arrow().cast(pa.string()),
        })

    return derived_seeds(sf_dir).map_batches(
        expand, batch_format="pyarrow", batch_size=None)


def q_sitemap_parse(sf_dir: str):
    """Sitemap render -> parse roundtrip over the derived seed set:
    per-host ``<urlset>`` XML assembled with one host-bucket exchange
    (entries ordered by seed_order, chunked at 20/file so the
    sitemaps.org 50k cap path actually splits), then parsed back to
    ``(host, part, url, lastmod)`` rows. Render escapes the five XML
    entities (seed URLs carry ``&`` query strings) and parse
    unescapes, so the oracle — ground truth stated directly from the
    seed formula, the parse_robots non-circularity pattern — checks
    ``parse ∘ render == identity`` including escaping and the
    optional-``<lastmod>`` null path (every 5th doc omits it)."""
    from ..stages.sitemap import parse_sitemaps, render_sitemaps

    def prep(batch: pa.Table) -> pa.Table:
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        mm = doc_id % 12 + 1
        dd = doc_id % 28 + 1
        lm = np.array(["2023-%02d-%02d" % (m, d)
                       for m, d in zip(mm, dd)], dtype=object)
        lm[doc_id % 5 == 0] = None
        host = (pl.from_arrow(batch["url"].combine_chunks()
                              .cast(pa.string()))
                .str.extract(r"^https?://([^/]+)", 1))
        return pa.table({
            "host": host.to_arrow().cast(pa.string()),
            "url": batch["url"],
            "seed_order": batch["seed_order"],
            "lastmod": pa.array(lm, pa.string()),
        })

    ds = derived_seeds(sf_dir).map_batches(prep, batch_format="pyarrow",
                                           batch_size=None)
    sm = render_sitemaps(ds, max_per_sitemap=20)
    return parse_sitemaps(sm)


def q_sitemap_discovery(sf_dir: str):
    """The crawler's sitemap-discovery chain end-to-end: rendered
    robots.txt bodies -> ``Sitemap:`` line extraction (case-
    insensitive, vectorized) -> each named sitemap "fetched" (rendered
    deterministically: the host root plus ``/new/{k}`` for
    ``k < len(host) % 3`` — the test double for a transport pull) ->
    XML parse back to frontier candidate rows. The sitemap-url map is
    O(hosts) and broadcast once (``ray.put``), the robots-gate
    small-side pattern, with the same budget-raise guard (over-budget
    fails loudly naming the distributed alternative). Output:
    ``(host, sitemap_url, part, url, lastmod)`` with lastmod null
    (discovery sitemaps carry no dates — exercises the optional-tag
    parse path)."""
    from ..pipelines.frontier import render_robots_txt
    from ..stages.sitemap import (extract_sitemap_urls_batch,
                                 parse_sitemaps, render_sitemaps)

    root = _fixture_root(sf_dir)
    robots = ray.data.read_parquet(root + "/robots.parquet")
    raw = robots.map_batches(render_robots_txt, batch_format="pyarrow",
                             batch_size=None)
    sm_urls = raw.map_batches(extract_sitemap_urls_batch,
                              batch_format="pyarrow", batch_size=None)
    # O(hosts) rows — small-side broadcast with the robots-gate
    # budget-raise guard (VERDICT r4 "what's wrong" item 4). The
    # count is a DISTRIBUTED aggregate checked BEFORE take_all, so an
    # over-budget host set fails loudly without ever landing on the
    # driver (round-5 review: the guard must pre-empt the balloon,
    # not follow it); above the budget this must become a host-bucket
    # exchange instead.
    sm_budget_rows = 2_000_000
    sm_urls = sm_urls.materialize()
    n_sm = sm_urls.count()
    if n_sm > sm_budget_rows:
        raise ValueError(
            "sitemap_discovery: %d host->sitemap rows exceed the "
            "broadcast budget (%d) — route the attach through a "
            "host-bucket exchange (the robots_gate_distributed "
            "shape) instead" % (n_sm, sm_budget_rows))
    sm_map = {r["host"]: r["sitemap_url"] for r in sm_urls.take_all()}
    sm_ref = ray.put(sm_map)

    def entries(batch: pa.Table) -> pa.Table:
        hosts, urls, ks = [], [], []
        for h in batch["host"].to_pylist():
            cand = ["https://%s/" % h] + [
                "https://%s/new/%d" % (h, k)
                for k in range(len(h) % 3)]
            hosts += [h] * len(cand)
            urls += cand
            ks += list(range(len(cand)))
        return pa.table({"host": pa.array(hosts, pa.string()),
                         "url": pa.array(urls, pa.string()),
                         "k": pa.array(ks, pa.int64())})

    ent = sm_urls.map_batches(entries, batch_format="pyarrow",
                              batch_size=None)
    parsed = parse_sitemaps(render_sitemaps(
        ent, lastmod_col=None, order_col="k"))

    def attach(batch: pa.Table) -> pa.Table:
        m = ray.get(sm_ref)
        su = [m.get(h) for h in batch["host"].to_pylist()]
        return pa.table({
            "host": batch["host"].combine_chunks().cast(pa.string()),
            "sitemap_url": pa.array(su, pa.string()),
            "part": batch["part"],
            "url": batch["url"],
            "lastmod": batch["lastmod"],
        })

    return parsed.map_batches(attach, batch_format="pyarrow",
                              batch_size=None)


def derive_redirects_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id) -> redirect edges (url, redirect): chains of
    up to 7 hops stepping doc_id-1 inside each block of 8 (terminal at
    doc_id % 8 == 0), except every 48th doc redirects UP to doc_id+2 —
    a 3-cycle (d -> d+2 -> d+1 -> d) whose members and upstream chains
    must exhaust the hop cap. Near the table edge, u(d+2) may not
    exist as a source: terminal by absence, the off-corpus case."""
    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)

    def u(x: np.ndarray) -> np.ndarray:
        return np.char.add(np.char.add(
            np.char.add("http://h", (x % 10).astype(str)),
            ".example/r/"), x.astype(str))

    url = u(d)
    red = np.where(d % 48 == 0, u(d + 2),
                   np.where(d % 8 != 0, u(d - 1), ""))
    red_arr = pa.array(
        [r if r else None for r in red.tolist()], pa.string())
    return pa.table({"url": pa.array(url.tolist(), pa.string()),
                     "redirect": red_arr})


def derive_policy_pages_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id) -> pages with robots-policy annotations: a
    meta-robots tag cycling through noindex / NoFollow (case test) /
    'noindex, nofollow' / none / absent, plus three anchors — a
    root-relative link, an absolute cross-host link, and a
    rel='nofollow' link that must never be followed."""
    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    metas = np.array([
        "<meta name='robots' content='noindex'>",
        "<meta name='robots' content='NoFollow'>",
        "<meta name='robots' content='noindex, nofollow'>",
        "<meta name='robots' content='none'>",
        "",
    ], dtype=object)
    url = np.char.add(np.char.add(
        np.char.add("http://s", (d % 10).astype(str)), ".example/pg/"),
        d.astype(str))
    meta = metas[d % 5]
    links = np.char.add(np.char.add(np.char.add(np.char.add(
        np.char.add(np.char.add(
            "<a href='/l/", (d % 20).astype(str)), "'>x</a>"
            "<a href='http://t"), (d % 7).astype(str)),
        ".example/x'>y</a><a rel='nofollow' href='http://bad"),
        (d % 3).astype(str)), ".example/'>z</a>")
    html = [("<html><head>%s</head><body>%s</body></html>" % (m, l))
            for m, l in zip(meta, links.tolist())]
    return pa.table({"doc_id": batch["doc_id"],
                     "url": pa.array(url.tolist(), pa.string()),
                     "text": pa.array(html, pa.string())})


def q_meta_robots(sf_dir: str):
    """Page-level robots directives (the indexing/following half of
    the robots protocol; robots.txt gates only fetching): parse the
    meta-robots token list per page — comma-separated,
    case-insensitive, ``none`` implies both flags, absent tag means
    fully permissive. Ground truth stated from the derivation formula
    (non-circular)."""
    from ..stages.links import parse_meta_robots_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    pages = ds.map_batches(derive_policy_pages_batch,
                           batch_format="pyarrow", batch_size=None)
    return pages.map_batches(parse_meta_robots_batch,
                             batch_format="pyarrow", batch_size=None)


def q_nofollow_links(sf_dir: str):
    """Policy-aware outlink harvest: extract_links minus everything a
    crawler must not follow — all links of meta-nofollow pages plus
    every rel='nofollow' anchor. One vectorized pass does meta parse,
    tag harvest, rel token check, and URL resolution together."""
    from ..stages.links import followed_links_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    pages = ds.map_batches(derive_policy_pages_batch,
                           batch_format="pyarrow", batch_size=None)
    return pages.map_batches(followed_links_batch,
                             batch_format="pyarrow", batch_size=None)


def derive_canonical_pages_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id) -> pages in groups of four sharing a host,
    where members 1-3 declare ``<link rel=canonical>`` to member 0
    (odd ids via a root-relative href, id%4==2 via an absolute one)
    and member 0 carries no tag (self-canonical)."""
    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    host = np.char.add(np.char.add(
        "http://c", ((d // 4) % 10).astype(str)), ".example")
    url = np.char.add(np.char.add(host, "/v/"), d.astype(str))
    base = (d - d % 4).astype(str)
    rel_tag = np.char.add(np.char.add(
        "<link rel='canonical' href='/v/", base), "'>")
    abs_tag = np.char.add(np.char.add(np.char.add(
        "<link rel='canonical' href='", host), "/v/"),
        np.char.add(base, "'>"))
    tag = np.where(d % 4 == 0, "", np.where(d % 2 == 1, rel_tag, abs_tag))
    html = np.char.add(np.char.add(
        "<html><head>", tag.astype(str)),
        "</head><body>x</body></html>")
    return pa.table({"doc_id": batch["doc_id"],
                     "url": pa.array(url.tolist(), pa.string()),
                     "text": pa.array(html.tolist(), pa.string())})


def q_canonical_dedup(sf_dir: str):
    """rel=canonical alias folding (the duplicate-content signal a
    crawler honors BEFORE content dedup): parse each page's declared
    canonical target — root-relative and absolute hrefs resolve
    identically, tagless pages are self-canonical — then one
    canonical-keyed exchange of per-block partials yields
    ``(canonical_url, keeper_doc, n_pages)`` per alias group. Ground
    truth stated from the derivation formula (groups of four per
    shared host)."""
    from ..stages.links import canonical_groups

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    pages = ds.map_batches(derive_canonical_pages_batch,
                           batch_format="pyarrow", batch_size=None)
    return canonical_groups(pages)


def derive_charset_pages_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id) -> raw html BYTES cycling through the charset
    sniff cases: utf-8/utf-16le/utf-16be BOMs (each also carrying a
    contradicting meta tag the BOM must beat), a meta-only page
    (alternating the 'UTF8' alias-and-case form with a real
    iso-8859-1 label), and a bare default page."""
    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    payloads = []
    for x in d.tolist():
        b = x % 5
        if b == 0:
            p = b"\xef\xbb\xbf<html><head>" \
                b"<meta charset='iso-8859-1'></head></html>"
        elif b == 1:
            p = b"\xff\xfe<html><head></head></html>"
        elif b == 2:
            p = b"\xfe\xff<html><head></head></html>"
        elif b == 3:
            label = "UTF8" if x % 2 == 0 else "ISO-8859-1"
            p = ("<html><head><meta charset='%s'></head></html>"
                 % label).encode()
        else:
            p = b"<html><head></head><body>plain</body></html>"
        payloads.append(p)
    return pa.table({"doc_id": batch["doc_id"],
                     "html": pa.array(payloads, pa.binary())})


def q_charset_sniff(sf_dir: str):
    """Charset detection (how the reference's per-capture ``encoding``
    / ``charset`` fields get populated, README.md:134-136): BOM wins
    (buffer-gather over the first 3 bytes, no payload copy), then the
    meta-charset label (case-insensitive, aliases folded), then the
    utf-8 default the reference's text decode assumes. Truth stated
    from the derivation formula."""
    from ..stages.text import detect_charset_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    pages = ds.map_batches(derive_charset_pages_batch,
                           batch_format="pyarrow", batch_size=None)
    return pages.map_batches(detect_charset_batch,
                             batch_format="pyarrow", batch_size=None)


def derive_soft404_pages_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id) -> (doc_id, url, status, title, text) cycling
    through: 200 + 404-title, 200 + not-found body, 200 +
    does-not-exist body, clean 200, honest 404 (must NOT flag), and a
    200 whose body merely contains the number 404 (negative
    control)."""
    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cases = [
        ("200", "404 Not Found", "hello world"),
        ("200", "Welcome", "sorry — Page Not Found on this server"),
        ("200", "Welcome", "this page does not exist anymore"),
        ("200", "Products", "all good content here"),
        ("404", "404 Not Found", "page not found"),
        ("200", "Items", "we stock 404 items today"),
    ]
    m = d % 6
    url = np.char.add(np.char.add(np.char.add(
        "http://e", (d % 10).astype(str)), ".example/s/"), d.astype(str))
    return pa.table({
        "doc_id": batch["doc_id"],
        "url": pa.array(url.tolist(), pa.string()),
        "status": pa.array([cases[i][0] for i in m], pa.string()),
        "title": pa.array([cases[i][1] for i in m], pa.string()),
        "text": pa.array([cases[i][2] for i in m], pa.string()),
    })


def q_frontier_hygiene(sf_dir: str):
    """The COMPLETE pre-fetch URL hygiene chain in one hash — what a
    production frontier runs between 'url discovered' and 'url
    scheduled': tracking-param strip -> RFC 3986 dot-segment removal
    -> spam lexicon gate -> SURT canonicalize -> first-wins exact
    dedup -> per-host politeness slots (the flagship exchange path).
    The derivation dirties every seed deterministically (utm params on
    evens, a '/./' segment on multiples of 3, a lexicon word on
    multiples of 13); cleaning provably restores the seed formula, so
    the oracle is the frontier_schedule SQL over the non-spam seeds —
    five stages, one hash."""
    from ..pipelines.frontier import crawl_order
    from ..stages.urlfeat import spam_url_gate, strip_dot_segments
    from ..stages.urlfeat import strip_tracking_params

    def dirty(batch: pa.Table) -> pa.Table:
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u = pl.from_arrow(batch["url"].combine_chunks()
                          .cast(pa.string()))
        dot = pl.Series((d % 3 == 0))
        trk = pl.Series((d % 2 == 0))
        spam = pl.Series((d % 13 == 0))
        df = pl.DataFrame({"u": u, "dot": dot, "trk": trk,
                           "spam": spam}).with_columns(
            u=pl.when(pl.col("spam"))
            .then(pl.col("u").str.replace("/doc/", "/doc/casino-",
                                          literal=True))
            .otherwise(pl.col("u"))).with_columns(
            u=pl.when(pl.col("dot"))
            .then(pl.col("u").str.replace("/doc/", "/doc/./",
                                          literal=True))
            .otherwise(pl.col("u"))).with_columns(
            u=pl.when(pl.col("trk") & pl.col("u").str.contains(
                "?", literal=True))
            .then(pl.col("u") + "&utm_source=t")
            .when(pl.col("trk"))
            .then(pl.col("u") + "?utm_source=t")
            .otherwise(pl.col("u")))
        return batch.drop_columns(["url"]).append_column(
            "url", df["u"].to_arrow().cast(pa.string()))

    def adopt(drop: list, src: str):
        # drop the stale columns and let `src` take over as `url`
        def fn(b: pa.Table) -> pa.Table:
            b = b.drop_columns(drop)
            return b.rename_columns(
                ["url" if c == src else c for c in b.column_names])
        return fn

    ds = derived_seeds(sf_dir).map_batches(dirty, batch_format="pyarrow",
                                           batch_size=None)
    ds = strip_tracking_params(ds, url_col="url", out_col="clean_url")
    ds = ds.map_batches(adopt(["url", "was_tracked"], "clean_url"),
                        batch_format="pyarrow", batch_size=None)
    ds = strip_dot_segments(ds, url_col="url", out_col="normalized_url")
    ds = ds.map_batches(adopt(["url"], "normalized_url"),
                        batch_format="pyarrow", batch_size=None)
    # lexicon-only gate (digit cap effectively off): the digit/query
    # trap heuristic would flag the legit parameterized seeds this
    # fixture carries by design
    ds = ds.map_batches(spam_url_gate(max_digits=1 << 30),
                        batch_format="pyarrow", batch_size=None)
    ds = crawl_order(dedup_schedule(ds, prepare=_canon_allow_all))
    return ds.select_columns(["urlkey", "host", "priority", "seed_order",
                              "n_dup_dropped", "host_rank", "fetch_ms"])


def q_registrable_domain(sf_dir: str):
    """eTLD+1 extraction (the key crawl politeness and host curation
    SHOULD group by — per-host budgets over-parallelize multi-vhost
    owners, reference myrequests.py:23-54): two-level public suffixes
    keep three labels, default hosts keep two, single-label hosts are
    their own domain. Truth stated from the derivation formula."""
    from ..stages.urlfeat import registrable_domain_batch

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        k = (d % 40).astype(str)
        pats = ["www.shop%s.co.uk", "a.b.site%s.com", "news%s.com.au",
                "x.y.org%s.example", "intra%s"]
        hosts = [pats[x % 5] % kk for x, kk in zip(d.tolist(),
                                                   k.tolist())]
        return pa.table({"doc_id": batch["doc_id"],
                         "host": pa.array(hosts, pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    ds = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    return ds.map_batches(registrable_domain_batch,
                          batch_format="pyarrow", batch_size=None)


def q_ivfpq_search(sf_dir: str):
    """IVF-PQ probe-all search (the FAISS-standard compressed index):
    vectors route to coarse cells and store ONLY their 4-byte PQ
    codes, hive-partitioned per cell; the search reads nprobe cell
    directories of codes (the float corpus never loads). Probing ALL
    cells provably equals pq_search_adc over the whole corpus, so the
    pq_search SQL oracle value-checks the entire build+route+ADC path
    (the ann_ivf_full exact-twin pattern); the nprobe<cells scale path
    is covered by the pruning test."""
    import tempfile

    from ..stages.ann import ivfpq_build, ivfpq_search

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    idx = tempfile.mkdtemp(prefix="ivfpq_")
    ivfpq_build(ds, idx, n_cells=4, m=4, k=8)
    return ivfpq_search(idx, qvec, m=4, k=10, nprobe=4)


def q_hreflang_clusters(sf_dir: str):
    """Language-cluster assignment: the hreflang alternate graph's
    connected components — variants of one page get ONE cluster id
    (min node hash), the grouping a multilingual pipeline dedups and
    samples by. The engine runs the REAL distributed CC loop
    (stages/components — handles arbitrary alternate graphs); the
    derivation's graphs are stars, so the oracle states the closure in
    closed form (min over each star) without recursion. Node ids =
    hash64(url) >> 1 (the fetch_sessions FNV convention)."""
    from ..canon import hash64_batch
    from ..stages.components import connected_components
    from ..stages.links import parse_hreflang_batch

    _LANGS = ["en", "de", "fr"]

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        urls, texts = [], []
        for x in d.tolist():
            origin = "http://i%d.example" % (x % 10)
            url = "%s/pg/%d" % (origin, x)
            tags = []
            for j in range(x % 3 + 1):
                lang = _LANGS[(x + j) % 3]
                tags.append("<link rel='alternate' hreflang='%s' "
                            "href='%s/%s/pg/%d'>"
                            % (lang, origin, lang, x))
            urls.append(url)
            texts.append("<html><head>%s</head></html>" % "".join(tags))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "text": pa.array(texts, pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    alts = ds.map_batches(derive, batch_format="pyarrow",
                          batch_size=None) \
        .map_batches(parse_hreflang_batch, batch_format="pyarrow",
                     batch_size=None)

    def to_ids(batch: pa.Table) -> pa.Table:
        a = (hash64_batch(batch["url"]) >> np.uint64(1)) \
            .astype(np.int64)
        b = (hash64_batch(batch["target"]) >> np.uint64(1)) \
            .astype(np.int64)
        return pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})

    pairs = alts.map_batches(to_ids, batch_format="pyarrow",
                             batch_size=None)
    cc = connected_components(pairs)
    return cc.map_batches(
        lambda b: pa.table({"node": b["node"], "cluster": b["component"]}),
        batch_format="pyarrow", batch_size=None)


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking (Gear hash, FastCDC family): chunk
    boundaries cut where the 16-byte windowed gear hash masks to zero,
    so an edit only perturbs the chunks it touches — the storage-dedup
    primitive fixed shingles lack. The whole hash is W vectorized
    masked adds over one flat byte buffer; the oracle replays gear
    table, windowed sum, cuts, and per-chunk FNV in SQL."""
    from ..stages.cdc import cdc_chunks

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return cdc_chunks(ds)


def q_cdc_shared(sf_dir: str):
    """Cross-document shared-chunk detection over the CDC chunks:
    chunk contents appearing in >= 2 distinct docs (mirrored
    boilerplate at byte granularity). Per-block distinct (hash, doc)
    partials, one hash-keyed exchange — chunk text never moves."""
    from ..stages.cdc import cdc_shared_chunks

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return cdc_shared_chunks(ds, min_docs=2)


def _derive_cdc_twins(sf_dir: str) -> ray.data.Dataset:
    """Twin corpus for the CDC dedup family: every third doc gets a
    copy with a two-byte prefix insertion (ids doc*2 / doc*2+1)."""

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        txt = batch["text"].to_numpy(zero_copy_only=False)
        twin = d % 3 == 0
        ids = np.concatenate([d * 2, d[twin] * 2 + 1])
        texts = list(txt) + ["x " + (t or "") for t in txt[twin]]
        return pa.table({"doc_id": pa.array(ids),
                         "text": pa.array(texts, pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return ds.map_batches(derive, batch_format="pyarrow",
                          batch_size=None)


def q_cdc_dedup(sf_dir: str):
    """The CDC dedup ACTION: connected components of the is_dup pair
    graph (the REAL distributed hash-to-min loop — 85 of the fixture's
    239 dup pairs are non-twin cross-doc dups, so the closure is a
    genuine graph, not stars) -> ONE min-id representative per
    near-dup cluster, singletons kept, full cluster sizes. Composes
    cdc_neardup_pairs with components.survivors_from_pairs; the
    oracle replays chunks -> pairs -> recursive closure -> survivors
    in one statement."""
    from ..stages.cdc import cdc_neardup_pairs
    from ..stages.components import survivors_from_pairs

    corpus = _derive_cdc_twins(sf_dir)
    pairs = cdc_neardup_pairs(corpus, num=1, den=4)
    dup = pairs.map_batches(
        lambda b: pa.table({"id_a": b.filter(b["is_dup"])["doc_a"],
                            "id_b": b.filter(b["is_dup"])["doc_b"]}),
        batch_format="pyarrow", batch_size=None)
    return survivors_from_pairs(corpus, dup, id_col="doc_id")


def q_cdc_neardup(sf_dir: str):
    """CDC chunk-set near-dup pairs: every third doc gets a twin with
    a two-byte PREFIX insertion — the edit that shifts every fixed
    shingle but leaves CDC chunks realigned, so twins share most of
    their chunk set and flag is_dup at Jaccard >= 1/4; accidental
    cross-doc chunk sharing yields low-Jaccard candidates that must
    NOT flag. Exact integer cross-multiply; the oracle replays the
    whole chain (derive -> gear chunks -> distinct sets -> capped
    pair join -> sizes -> threshold) in SQL."""
    from ..stages.cdc import cdc_neardup_pairs

    return cdc_neardup_pairs(_derive_cdc_twins(sf_dir), num=1, den=4)


def q_pq_encode(sf_dir: str):
    """Product quantization encode (Jégou et al. 2011): dim-64
    embeddings -> m=4 uint8 codes, a 64x storage cut past int8's 4x.
    All fixed-point integer (floor(x*1000+0.5) + exact int64 squared
    distances), so codes are reduction-order independent and the
    oracle — the inner-product identity over integer-valued doubles —
    is bit-exact. Codebook = the kmeans_assign seeded-init rows."""
    from ..stages.ann import pq_codebook, pq_encode

    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    cb = pq_codebook(ds, k=8, seed=0)
    return pq_encode(ds, cb, m=4)


def q_pq_search(sf_dir: str):
    """PQ asymmetric-distance top-10 (the search half): the query
    (vec_id 0) stays exact, each corpus vector is its codeword;
    score = sum of 4 integer table lookups per vector. Local top-k
    prune per batch, tiny global sort."""
    from ..stages.ann import pq_codebook, pq_search_adc

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    cb = pq_codebook(ds, k=8, seed=0)
    return pq_search_adc(ds, cb, qvec, m=4, k=10)


def q_hreflang(sf_dir: str):
    """hreflang alternate harvest (the i18n page-cluster signal):
    each page declares 1-3 language alternates — absolute for en,
    root-relative for de (resolution exercised), plus an x-default on
    multiples of 5. Ground truth stated from the derivation formula
    via generate_series."""
    from ..stages.links import parse_hreflang_batch

    _LANGS = ["en", "de", "fr"]

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        urls, texts = [], []
        for x in d.tolist():
            origin = "http://i%d.example" % (x % 10)
            url = "%s/pg/%d" % (origin, x)
            tags = []
            for j in range(x % 3 + 1):
                lang = _LANGS[(x + j) % 3]
                if lang == "de":
                    href = "/%s/pg/%d" % (lang, x)
                else:
                    href = "%s/%s/pg/%d" % (origin, lang, x)
                tags.append("<link rel='alternate' hreflang='%s' "
                            "href='%s'>" % (lang, href))
            if x % 5 == 0:
                tags.append("<link rel='alternate' "
                            "hreflang='x-default' href='%s/pg/%d'>"
                            % (origin, x))
            urls.append(url)
            texts.append("<html><head>%s</head></html>" % "".join(tags))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "text": pa.array(texts, pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    pages = ds.map_batches(derive, batch_format="pyarrow",
                           batch_size=None)
    return pages.map_batches(parse_hreflang_batch,
                             batch_format="pyarrow", batch_size=None)


def q_mutual_links(sf_dir: str):
    """Reciprocal-link mining (link-farm signal): derived edge set =
    a mutual A-family (u(d) <-> u(d^1) whenever BOTH endpoints escape
    the %3 gap rule) plus a never-reciprocated B-family (u(d) ->
    u(d+2), same parity, so it can never collide with A). The oracle
    states the mutual pairs in closed form: adjacent even/odd doc
    pairs where neither id is divisible by 3."""
    from ..stages.links import mutual_links

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)

        def u(x: np.ndarray) -> np.ndarray:
            return np.char.add(np.char.add(
                np.char.add("http://m", (x % 10).astype(str)),
                ".example/g/"), x.astype(str))

        a_mask = d % 3 != 0
        src = np.concatenate([u(d[a_mask]), u(d)])
        dst = np.concatenate([u(d[a_mask] ^ 1), u(d + 2)])
        return pa.table({"src_url": pa.array(src.tolist(), pa.string()),
                         "dst_url": pa.array(dst.tolist(), pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    edges = ds.map_batches(derive, batch_format="pyarrow",
                           batch_size=None)
    return mutual_links(edges)


def q_domain_politeness(sf_dir: str):
    """Registrable-domain politeness (the eTLD+1 twin of
    ip_politeness): hosts of one owner share one crawl budget — the
    proven scheduler runs UNCHANGED with the registrable domain as its
    grouping key. Seeds' hosts ('www.'-toggled 'srcN.example') all
    collapse to 'srcN.example', so the www/apex split that per-host
    budgets would double-book is exactly what this exercises. Output
    keeps both identities."""
    from ..pipelines.frontier import scheduled_crawl_order
    from ..stages.urlfeat import registrable_domain_batch

    ds = derived_seeds(sf_dir)
    ds = first_wins_dedup(ds, "hash64",
                          [("priority", 19), ("seed_order", 44)],
                          derive_fn=canonicalize_batch)
    ds = ds.map_batches(_add_false_robots, batch_format="pyarrow",
                        batch_size=None)

    def to_domain(batch: pa.Table) -> pa.Table:
        batch = registrable_domain_batch(batch, host_col="host",
                                         out_col="domain")
        batch = batch.append_column("orig_host", batch["host"])
        idx = batch.schema.get_field_index("host")
        return batch.set_column(idx, "host", batch["domain"]) \
            .drop_columns(["domain"])

    ds = ds.map_batches(to_domain, batch_format="pyarrow",
                        batch_size=None)
    ds = scheduled_crawl_order(ds)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "urlkey": batch["urlkey"],
            "host": batch["orig_host"],
            "domain": batch["host"],
            "domain_rank": batch["host_rank"],
            "fetch_ms": batch["fetch_ms"],
        })

    return ds.map_batches(rename, batch_format="pyarrow",
                          batch_size=None)


def q_retry_after(sf_dir: str):
    """RFC 9110 Retry-After honoring (the reference's backoff doubles
    blindly, myrequests.py:94-157): both header forms parsed — delta
    seconds and IMF-fixdate (rendered engine-side with Arrow strftime,
    parsed back with polars strptime — non-circular vs the closed-form
    truth) — plus unparseable and absent headers falling back to the
    blind-backoff default."""
    import pyarrow.compute as pc

    from ..retry import parse_retry_after_batch

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        delta = (30 + d % 90).astype(str)
        epoch_s = 1_700_000_000 + (d % 50) * 3600
        dates = pc.strftime(
            pc.cast(pa.array(epoch_s * 1_000_000, pa.timestamp("us")),
                    pa.timestamp("s")),
            format="%a, %d %b %Y %H:%M:%S GMT").to_numpy(
                zero_copy_only=False)
        m = d % 4
        hdr = np.where(m == 0, delta,
                       np.where(m == 1, dates,
                                np.where(m == 2, "soon", None)))
        return pa.table({
            "doc_id": batch["doc_id"],
            "retry_after": pa.array(hdr.tolist(), pa.string()),
        })

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    ds = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(
        lambda b: parse_retry_after_batch(b, now_ms=1_700_000_000_000),
        batch_format="pyarrow", batch_size=None)
    return ds.select_columns(["doc_id", "next_allowed_ms",
                              "retry_after_form"])


def q_cache_freshness(sf_dir: str):
    """RFC 9111 cache-freshness planning (the reference refetches
    unconditionally — myrequests.py has no cache awareness): response
    headers derived deterministically per doc (Cache-Control token
    soup incl. s-maxage/max-age precedence, no-store winning over a
    lifetime, Expires and Last-Modified HTTP-dates rendered
    engine-side with Arrow strftime and parsed back with polars
    strptime — non-circular vs the closed-form truth), folded to the
    §4.2.1 precedence chain + the §4.2.2 heuristic, with a cutoff
    deciding what is due. Oracle states the whole recurrence in
    closed form from doc_id."""
    import pyarrow.compute as pc

    from ..stages.recrawl import cache_freshness_batch

    fmt = "%a, %d %b %Y %H:%M:%S GMT"

    def http_date(ms: np.ndarray) -> np.ndarray:
        return pc.strftime(
            pc.cast(pa.array((ms // 1000) * 1_000_000,
                             pa.timestamp("us")), pa.timestamp("s")),
            format=fmt).to_numpy(zero_copy_only=False)

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        fetch = 1_700_000_000_000 + (d % 97) * 3_600_000
        m = d % 7
        mage = (60 + d % 1000).astype(str)
        smax = (30 + d % 500).astype(str)
        cc = np.where(
            m == 0, np.char.add("max-age=", mage),
            np.where(m == 1,
                     np.char.add(np.char.add("s-maxage=", smax),
                                 np.char.add(", max-age=", mage)),
                     np.where(m == 2, "no-cache",
                              np.where(m == 3, "no-store, max-age=600",
                                       np.where(m == 4, "private",
                                                None)))))
        exp_mask = (d % 3 == 0) | (m == 4) | (m == 5)
        exp = np.where(exp_mask,
                       http_date(fetch + (d % 50) * 60_000), None)
        lm_mask = (d % 2 == 0) | (m == 6)
        lm = np.where(lm_mask,
                      http_date(fetch - (1 + d % 40) * 86_400_000),
                      None)
        return pa.table({
            "doc_id": batch["doc_id"],
            "cache_control": pa.array(cc.tolist(), pa.string()),
            "expires": pa.array(exp.tolist(), pa.string()),
            "last_modified": pa.array(lm.tolist(), pa.string()),
            "fetch_ms": pa.array(fetch, pa.int64()),
        })

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    ds = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(
        lambda b: cache_freshness_batch(b, cutoff_ms=1_700_200_000_000),
        batch_format="pyarrow", batch_size=None)
    return ds.select_columns(["doc_id", "policy", "fresh_ms",
                              "expires_at_ms", "due"])


def q_fetch_sessions(sf_dir: str):
    """Keep-alive connection planning: the politeness schedule grouped
    into per-host CONNECTION SESSIONS — consecutive fetch slots within
    5 s share one connection, a longer idle gap closes it (HTTP
    keep-alive economics; the reference's serial session object holds
    one connection forever, myrequests.py). Composite of two proven
    kernels: the flagship schedule feeds sessionize with host-hash as
    the user key and fetch_ms as the clock. Hosts with a 6 s crawl
    delay split every fetch; 550/1000/3000 ms hosts batch up."""
    from ..canon import hash64_batch
    from ..pipelines.frontier import crawl_order
    from ..stages.sessions import sessionize

    sched = crawl_order(_frontier_over_seeds(sf_dir))

    def keyed(batch: pa.Table) -> pa.Table:
        hk = (hash64_batch(batch["host"]) >> np.uint64(1)) \
            .astype(np.int64)
        return pa.table({"host_key": pa.array(hk),
                         "fetch_ms": batch["fetch_ms"],
                         "seed_order": batch["seed_order"]})

    out = sessionize(sched.map_batches(keyed, batch_format="pyarrow",
                                       batch_size=None),
                     user_col="host_key", ts_col="fetch_ms",
                     id_col="seed_order", gap_us=5000, level="session")
    return out.map_batches(
        lambda b: b.rename_columns(["host_key", "session_idx",
                                    "n_fetches", "start_ms", "end_ms"]),
        batch_format="pyarrow", batch_size=None)


def q_dot_segments(sf_dir: str):
    """RFC 3986 dot-segment removal (stages/urlfeat.strip_dot_segments)
    — the URL-identity normalization canon.surt deliberately leaves
    alone: '/./' and '/../' paths must collapse before the frontier's
    exact dedup. Two-path kernel: vectorized dirty-row detection,
    scalar RFC spec on the minority. The derivation cycles clean /
    single-dot / pop / double-pop / root-clamped / trailing-pop paths
    (query strings with dots ride along untouched); truth stated in
    closed form."""
    from ..stages.urlfeat import strip_dot_segments

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = (d % 30).astype(str)
        pats = [
            ("/p%s/x", None),
            ("/p%s/./x", None),
            ("/p%s/../x", None),
            ("/p%s/a/../../x?v=1.2", None),
            ("/../p%s", None),
            ("/p%s/..", None),
        ]
        urls = []
        for x, qq in zip(d.tolist(), q.tolist()):
            urls.append("http://n%d.example%s"
                        % (x % 10, pats[x % 6][0] % qq))
        return pa.table({"doc_id": batch["doc_id"],
                         "url": pa.array(urls, pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    return strip_dot_segments(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None))


def q_soft404(sf_dir: str):
    """Soft-404 detection (error pages served as HTTP 200 — capture
    pollution the status field cannot reveal, reference
    README.md:222-225 exposes status as-is): title/body phrase
    lexicons, title the stronger signal, honest 404s never flag.
    Truth stated from the derivation formula."""
    from ..stages.textstats import soft404_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    pages = ds.map_batches(derive_soft404_pages_batch,
                           batch_format="pyarrow", batch_size=None)
    return pages.map_batches(
        lambda b: soft404_batch(b, keep_cols=("doc_id", "url")),
        batch_format="pyarrow", batch_size=None)


def q_revalidation_plan(sf_dir: str):
    """Conditional-fetch planning (If-None-Match / If-Modified-Since):
    the recrawl schedule fused with the latest capture's digest and
    HTTP-date — what a polite incremental crawler sends so unchanged
    pages come back as 304s instead of full bodies (the reference
    always refetches, myrequests.py). One key-bucket exchange; due =
    next_fetch <= 2024-02-05 UTC."""
    from ..stages.recrawl import revalidation_plan

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["user_id", "ts", "event_type"])
    return revalidation_plan(ds, key_col="user_id", ts_col="ts",
                             digest_col="event_type",
                             cutoff_us=1707264000000000)


def q_sitemap_index(sf_dir: str):
    """Sitemap NESTING (sitemaps.org index protocol): per-host urlsets
    chunked at 20 entries -> one ``<sitemapindex>`` per host naming
    each chunk as ``https://{host}/sitemap-{part}.xml`` -> parsed back
    to ``(host, sitemap_url)`` rows. The oracle states the ground
    truth from the seed formula (hosts x ceil(count/20) parts) — the
    chunk-count rule and the index roundtrip in one hash."""
    import os

    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars as pl

    from ..stages.sitemap import (parse_sitemap_index_batch,
                                 render_sitemap_index, render_sitemaps)

    def prep(batch: pa.Table) -> pa.Table:
        host = (pl.from_arrow(batch["url"].combine_chunks()
                              .cast(pa.string()))
                .str.extract(r"^https?://([^/]+)", 1))
        return pa.table({
            "host": host.to_arrow().cast(pa.string()),
            "url": batch["url"],
            "seed_order": batch["seed_order"],
        })

    ds = derived_seeds(sf_dir).map_batches(prep, batch_format="pyarrow",
                                           batch_size=None)
    sm = render_sitemaps(ds, lastmod_col=None, max_per_sitemap=20)
    idx = render_sitemap_index(sm)
    return idx.map_batches(parse_sitemap_index_batch,
                           batch_format="pyarrow", batch_size=None)


def derive_robots_urls_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id) -> frontier candidates (doc_id, host, path):
    ten hosts (k = doc_id//30 % 10, decoupled from the path stem so
    every rule family actually fires), /p/ and /t/ sections, and a
    .tmp extension every 7th doc for the $-anchor rule."""
    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    k = (d // 30) % 10
    host = np.char.add(np.char.add("h", k.astype(str)), ".example")
    base = np.where(d % 3 != 0, "/p/", "/t/")
    ext = np.where(d % 7 == 0, ".tmp", "")
    path = np.char.add(np.char.add(base.astype(str),
                                   (d % 30).astype(str)), ext.astype(str))
    return pa.table({"doc_id": batch["doc_id"],
                     "host": pa.array(host.tolist(), pa.string()),
                     "path": pa.array(path.tolist(), pa.string())})


def q_robots_wildcard(sf_dir: str):
    """RFC 9309 wildcard robots matching (stages/robotsmatch.py): the
    Allow/Disallow dialect with ``*`` and ``$`` and longest-match
    precedence the frontier's prefix-only gate (reference analog:
    politeness constants, myrequests.py:23-54) does not speak. Per
    host hK the rule set exercises star-prefix disallow (/p/K*), a
    longer allow override (/p/K0*), a leading-star end-anchor
    (*.tmp$), and an exact allow/disallow tie (/t/K* both ways —
    allow wins). Urls no rule matches default to allowed with a null
    winning rule."""
    from ..stages.robotsmatch import robots_wildcard_gate

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    urls = ds.map_batches(derive_robots_urls_batch,
                          batch_format="pyarrow", batch_size=None)
    rule_rows = []
    for k in range(10):
        h = "h%d.example" % k
        rule_rows += [
            {"host": h, "rule": "/p/%d*" % k, "allow": False},
            {"host": h, "rule": "/p/%d0*" % k, "allow": True},
            {"host": h, "rule": "*.tmp$", "allow": False},
            {"host": h, "rule": "/t/%d*" % k, "allow": True},
            {"host": h, "rule": "/t/%d*" % k, "allow": False},
        ]
    rules = ray.data.from_arrow(pa.Table.from_pylist(rule_rows))
    return robots_wildcard_gate(urls, rules, keep_cols=("doc_id",))


def q_robots_chain(sf_dir: str):
    """The wildcard robots protocol END-TO-END: per-host rule lists
    render as raw robots.txt bodies (Allow/Disallow lines, wildcards,
    noise the parser must skip) -> parsed back to (host, rule, allow)
    rows -> the RFC 9309 matcher gates the derived frontier. Output ==
    q_robots_wildcard exactly, so the same oracle hash checks render,
    parse, AND match in one chain (the exact-twin pattern)."""
    from ..stages.robotsmatch import (parse_wildcard_robots_batch,
                                     render_wildcard_robots_batch,
                                     robots_wildcard_gate)

    rule_rows = []
    for k in range(10):
        rule_rows.append({
            "host": "h%d.example" % k,
            "rules": [
                {"rule": "/p/%d*" % k, "allow": False},
                {"rule": "/p/%d0*" % k, "allow": True},
                {"rule": "*.tmp$", "allow": False},
                {"rule": "/t/%d*" % k, "allow": True},
                {"rule": "/t/%d*" % k, "allow": False},
            ]})
    hosts = ray.data.from_arrow(pa.Table.from_pylist(rule_rows))
    bodies = hosts.map_batches(render_wildcard_robots_batch,
                               batch_format="pyarrow", batch_size=None)
    rules = bodies.map_batches(parse_wildcard_robots_batch,
                               batch_format="pyarrow", batch_size=None)

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    urls = ds.map_batches(derive_robots_urls_batch,
                          batch_format="pyarrow", batch_size=None)
    return robots_wildcard_gate(urls, rules, keep_cols=("doc_id",))


def q_resolve_redirects(sf_dir: str):
    """Redirect-chain resolution (the corpus-scale twin of the
    reference's per-record redirect following, myrequests.py:57-166 /
    warc.py:19-20): every url resolves to its terminal target via
    pointer doubling — O(log chain) self-join rounds over the narrow
    (url, cur, hops) state, hop-capped at 20 so cycles and over-long
    chains flag ``resolved=false`` instead of looping. The derived
    edge set exercises 0-7 hop chains, a 3-cycle with upstream
    feeders, and terminal-by-absence targets past the table edge."""
    from ..stages.redirects import resolve_redirects

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    edges = ds.map_batches(derive_redirects_batch, batch_format="pyarrow",
                           batch_size=None)
    return resolve_redirects(edges, max_hops=20)


def q_ip_politeness(sf_dir: str):
    """Shared-hosting politeness: budgets keyed by IP, not hostname —
    hosts behind one IP (shared hosting, CDN edge) share a single
    crawl budget so the crawler never hammers the box even when the
    frontier sees many vhosts. The deterministic host->IP map stands
    in for a resolver cache (ip = 'ip' + hash64(host)%16); the proven
    politeness scheduler then runs UNCHANGED with the IP as its
    grouping key. Output keeps both identities: (urlkey, host, ip,
    ip_rank, fetch_ms)."""
    from ..canon import hash64_batch
    from ..pipelines.frontier import scheduled_crawl_order

    ds = derived_seeds(sf_dir)
    ds = first_wins_dedup(ds, "hash64",
                          [("priority", 19), ("seed_order", 44)],
                          derive_fn=canonicalize_batch)
    ds = ds.map_batches(_add_false_robots, batch_format="pyarrow",
                        batch_size=None)

    def to_ip(batch: pa.Table) -> pa.Table:
        ip = np.char.add("ip", (hash64_batch(batch["host"])
                                % np.uint64(16)).astype(str))
        batch = batch.append_column("orig_host", batch["host"])
        idx = batch.schema.get_field_index("host")
        return batch.set_column(idx, "host",
                                pa.array(ip.tolist(), pa.string()))

    ds = ds.map_batches(to_ip, batch_format="pyarrow", batch_size=None)
    ds = scheduled_crawl_order(ds)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "urlkey": batch["urlkey"],
            "host": batch["orig_host"],
            "ip": batch["host"],
            "ip_rank": batch["host_rank"],
            "fetch_ms": batch["fetch_ms"],
        })

    return ds.map_batches(rename, batch_format="pyarrow",
                          batch_size=None)


def q_parallel_politeness(sf_dir: str):
    """Per-host PARALLEL-CONNECTION politeness (what real crawlers
    run: K keep-alive connections per host, each honoring the
    crawl-delay between ITS requests): the proven scheduler with
    ``connections=3`` — ranks share fetch slots three at a time,
    ``fetch_ms = (rank // 3) * delay`` — so host wall-clock shrinks 3x
    while the per-connection interval invariant holds. Oracle: the
    frontier window SQL with the floored-rank slot formula."""
    ds = _frontier_over_seeds(sf_dir, connections=3)
    return ds.select_columns(["urlkey", "host", "host_rank",
                              "fetch_ms"])


def q_trap_detect(sf_dir: str):
    """Crawl-trap detection over the derived frontier: (host,
    path-stem) groups with >= 10 distinct URLs flag as traps — the
    unbounded-URL-space defense (calendars, session ids) a frontier
    needs before it wastes budget. Distinct (host, stem, url-hash)
    partials per block; one stem-bucket exchange; URLs never leave
    their block."""
    from ..stages.urlfeat import detect_traps

    ds = derived_seeds(sf_dir).map_batches(
        canonicalize_batch, batch_format="pyarrow", batch_size=None)
    return detect_traps(ds, url_col="url", host_col="host",
                        min_urls=10)


def q_url_spam(sf_dir: str):
    """RefinedWeb-style URL spam features at the FRONTIER (before any
    content byte): lexicon hits, digit count, path depth, query-param
    count, and the gate verdict — one stateless vectorized pass over
    the derived seed URLs, zero shuffles. Generalizes the reference's
    fgrep/fgrepv URL substring gates (cli.py:188-200)."""
    from ..stages.urlfeat import url_features

    ds = derived_seeds(sf_dir)
    out = url_features(ds, url_col="url", max_digits=1,
                       flag_query=True)
    return out.select_columns(["doc_id", "url", "url_len", "n_digits",
                               "depth", "n_params", "bad_hits",
                               "spam"])


def _source_budgets(sf_dir: str, total: int) -> dict:
    """source -> token budget, ``total * w // sum(w)`` with w = source
    index % 3 + 1; the source list comes from per-block distinct
    partials (never a full materialization)."""
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["source"])

    def distinct_src(batch: pa.Table) -> pa.Table:
        return pa.table({"source": pc.unique(batch["source"])})

    srcs = sorted({r["source"] for r in ds.map_batches(
        distinct_src, batch_format="pyarrow",
        batch_size=None).take_all()})
    w = {s: (int(s[3:]) % 3) + 1 for s in srcs}
    tot_w = sum(w.values())
    return {s: total * w[s] // tot_w for s in srcs}


def q_corpus_pipeline(sf_dir: str):
    """FLAGSHIP curation composite — the end-to-end web-corpus
    pipeline in one oracle-checked query: host-level quality blocklist
    (exact integer cross-multiply) -> duplicate-LINE removal over the
    survivors (boilerplate set from the survivors only) -> a >= 3
    kept-lines gate -> token-budget mixture by source (seeded-hash
    order, exact prefix sums). Every stage is an existing
    oracle-proven operator; one SQL hash checks the whole chain (the
    curation twin of `training_prep`). Text shuffles exactly zero
    times: hosts, line hashes, and (doc, token-count) rows are the
    only exchanged streams."""
    import pyarrow.compute as pc

    from ..stages.hosts import filter_blocked_hosts, host_quality_stats
    from ..stages.lines import dedup_lines
    from ..stages.sampling import token_budget_mixture

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        import polars as pl

        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        source = batch["source"].to_numpy(
            zero_copy_only=False).astype(str)
        www = np.where((doc_id // 100) % 2 == 0, "www.", "")
        host = np.char.add(np.char.add(www.astype(str), source),
                           ".example")
        s = pl.Series(batch["text"].combine_chunks()).cast(pl.String) \
            .fill_null("").str.to_lowercase().str.count_matches(r"\w+")
        return pa.table({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "host": pa.array(host.tolist(), pa.string()),
            "score": s.cast(pl.Int64).to_arrow(),
            "text": batch["text"],
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             batch_size=None)
    stats = host_quality_stats(prepped, host_col="host",
                               score_col="score")
    kept = filter_blocked_hosts(prepped, stats, host_col="host")
    wrapped = kept.map_batches(_wrap3_batch, batch_format="pyarrow",
                               batch_size=None)
    deduped = dedup_lines(wrapped, text_col="text", id_col="doc_id",
                          min_docs=2, keep_cols=("source",))

    def gate(batch: pa.Table) -> pa.Table:
        import polars as pl

        b = batch.filter(pc.greater_equal(batch["n_kept"], 3))
        s = pl.Series(b["clean_text"].combine_chunks()) \
            .cast(pl.String).str.to_lowercase() \
            .str.count_matches(r"\w+")
        return pa.table({
            "doc_id": b["doc_id"],
            "source": b["source"],
            "n_tok": s.cast(pl.Int64).to_arrow(),
        })

    gated = deduped.map_batches(gate, batch_format="pyarrow",
                                batch_size=None)
    return token_budget_mixture(gated, source_col="source",
                                id_col="doc_id", token_col="n_tok",
                                budgets=_source_budgets(sf_dir, 6000),
                                seed=0)


def q_budget_mixture(sf_dir: str):
    """Token-budget corpus mixing (Dolma/SlimPajama): each source gets
    ``12000 * w_s // sum(w)`` tokens (w from the source index, 1..3);
    docs fill the budget in seeded-hash order with concat-and-cut
    boundary semantics. One source-bucket exchange computes the exact
    per-source prefix sums; the budgets dict is O(sources) state; the
    source list comes from per-block distinct partials, never a full
    materialization."""
    from ..stages.sampling import token_budget_mixture

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source", "text"])
    budgets = _source_budgets(sf_dir, 12000)

    def add_ntok(batch: pa.Table) -> pa.Table:
        import polars as pl

        s = pl.Series(batch["text"].combine_chunks()).cast(pl.String) \
            .fill_null("").str.to_lowercase().str.count_matches(r"\w+")
        return batch.append_column("n_tok",
                                   s.cast(pl.Int64).to_arrow())

    ds = ds.map_batches(add_ntok, batch_format="pyarrow",
                        batch_size=None)
    return token_budget_mixture(ds, source_col="source",
                                id_col="doc_id", token_col="n_tok",
                                budgets=budgets, seed=0)


def q_dsir_select(sf_dir: str):
    """DSIR data selection (Xie et al. 2023): importance-weight every
    document by target/raw log-ratios in a 256-bucket hashed unigram
    feature space (target = lang 'en'), then keep the top 10% by
    (weight DESC, doc_id ASC) — the deterministic rank form of the
    resampling draw. Per-block partial bucket counts fold through one
    narrow exchange to a 256-entry integer micro-nat LUT broadcast
    once; scoring is a stateless vectorized pass; the top-k cutoff is
    two scalars from per-block candidates. Text never shuffles."""
    from ..stages.dsir import dsir_scores, dsir_select

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text", "lang"])
    n = ds.count()

    def add_target(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "is_target", pc.equal(batch["lang"], "en"))

    ds = ds.map_batches(add_target, batch_format="pyarrow",
                        batch_size=None)
    scores = dsir_scores(ds, text_col="text", id_col="doc_id",
                         target_col="is_target", n_features=256)
    return dsir_select(scores, k=max(1, n // 10))


def q_hll_distinct(sf_dir: str):
    """Per-group HyperLogLog distinct-user estimate over the events
    stream (the cardinality sketch: count-min's twin for COUNT
    DISTINCT). Per-block register folds before the shuffle; one
    group-keyed exchange merges maxima and evaluates the exact-
    rational estimate (+ linear-counting small-range branch)."""
    from ..stages.sketch import hll_distinct

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["user_id", "event_type"])
    return hll_distinct(ds, "user_id", "event_type", p=8, seed=0)


def q_hll_incremental(sf_dir: str):
    """Incremental distinct counting: the sketch STATE as data — HLL
    register tables built over two disjoint halves of the event stream
    (simulating two crawls), unioned, then estimated. Register max is
    associative/commutative/idempotent, so the result is BIT-IDENTICAL
    to one pass over the whole stream — the oracle is the same
    whole-stream SQL as `hll_distinct`."""
    from ..stages.sketch import hll_estimate, hll_registers

    def half(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            e = batch["event_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(e % 2 == rem))
        return f

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_id", "user_id",
                                        "event_type"])
    a = hll_registers(ds.map_batches(half(0), batch_format="pyarrow",
                                     batch_size=None),
                      "user_id", "event_type", p=8, seed=0)
    b = hll_registers(ds.map_batches(half(1), batch_format="pyarrow",
                                     batch_size=None),
                      "user_id", "event_type", p=8, seed=0)
    return hll_estimate(a.union(b), "event_type", p=8)


def q_url_seen(sf_dir: str):
    """T7 sharded URL-seen actor pool (exact mode): every accepted
    offer is a first-seen canonical URL, so the surviving urlkey set
    equals SQL DISTINCT regardless of arrival order or parallelism."""
    from ..state.seen import SeenFilterStage, ShardedSeenSet

    seen = ShardedSeenSet(num_shards=4, n_bits=1 << 20, exact=True)
    ds = derived_seeds(sf_dir)
    ds = ds.map_batches(canonicalize_batch, batch_format="pyarrow",
                        batch_size=None)
    ds = ds.map_batches(SeenFilterStage(seen), batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["urlkey"])


def q_url_seen_evict(sf_dir: str):
    """T7+ recrawl eviction through the CUCKOO-backed seen set — the
    deletion capability the bloom path cannot provide (north_rule names
    "cuckoo/bloom"; reference has no cluster seen-state at all, its
    dedup identities are README.md:207-212).

    Sequence: (1) offer wave A (priority != 0) so those urlkeys are
    members; (2) FORGET the recrawl-due set (any urlkey with a
    priority-1 seed) via the routed cuckoo delete; (3) re-offer every
    seed — survivors are exactly the urlkeys that were never retained:
    no {2,3}-priority seed, or evicted by a priority-1 seed. Cuckoo
    outcomes are order-independent multiset ops on (fingerprint,
    bucket-pair), so the surviving urlkey set is deterministic under
    any parallelism and exactly SQL-checkable."""
    from ..state.seen import (SeenFilterStage, SeenForgetStage,
                             ShardedSeenSet)

    seen = ShardedSeenSet(num_shards=4, backend="cuckoo",
                          n_buckets=1 << 14)
    # three passes consume the same derived frontier — materialize the
    # narrow canonicalized base once instead of re-deriving per pass
    # (post-canonicalize columns only; at scale this is the persisted
    # frontier partition the crawl driver already writes)
    base = derived_seeds(sf_dir).map_batches(
        canonicalize_batch, batch_format="pyarrow",
        batch_size=None).materialize()

    def pri(keep) -> callable:
        def f(batch: pa.Table) -> pa.Table:
            p = batch["priority"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(keep(p)))
        return f

    wave_a = base.map_batches(pri(lambda p: p != 0),
                              batch_format="pyarrow", batch_size=None)
    wave_a.map_batches(SeenFilterStage(seen), batch_format="pyarrow",
                       batch_size=None).count()
    due = base.map_batches(pri(lambda p: p == 1),
                           batch_format="pyarrow", batch_size=None)
    due.map_batches(SeenForgetStage(seen), batch_format="pyarrow",
                    batch_size=None).count()
    out = base.map_batches(SeenFilterStage(seen), batch_format="pyarrow",
                           batch_size=None)
    return out.select_columns(["urlkey"])


def q_row_sample(sf_dir: str):
    """O6 row sampling, the deterministic scale path: keep rows whose
    64-bit key hash falls in the sample band (hash64(doc_id) % 10 == 0)
    — reproducible under any parallelism and exactly SQL-checkable,
    unlike seeded uniform sampling whose draw depends on block layout.
    (``Dataset.random_sample`` is exercised in tests for the uniform
    variant.)"""
    from ..canon import hash64_batch

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = hash64_batch(np.char.mod("%d", ids).astype(object))
        return batch.filter(pa.array(h % np.uint64(10) == 0))

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang", "source"])
    return ds.map_batches(sample, batch_format="pyarrow",
                        batch_size=None)


def q_fetch_plan(sf_dir: str):
    """T2 status-classified retry planning as a data-plane operator:
    derive a deterministic status per document, classify with the
    reference's retry policy ({429,500,502,503,504,509} retryable,
    backoff 2i doubling capped 60s), budget the virtual backoff."""
    from ..retry import RetryPolicy, make_status_classifier

    statuses = np.array(["200", "301", "404", "429", "500", "503",
                         "403", "502"], dtype=object)

    def add_status(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "status", pa.array(statuses[ids % 8], pa.string()))

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    ds = ds.map_batches(add_status, batch_format="pyarrow",
                        batch_size=None)
    ds = ds.map_batches(
        make_status_classifier(RetryPolicy(minimum_interval=3.0),
                               max_retries=5),
        batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["doc_id", "status", "fetch_action",
                              "retry_budget_ms"])


def _fetched_over_seeds(sf_dir: str):
    """Shared engine path for fetch_execute / fetch_errors: frontier
    schedule -> fetcher actor pool with the deterministic fault
    transport (pipelines/fetch.py) -> outcome rows."""
    from ..pipelines.fetch import TableTransport, fetch_execute

    sched = _frontier_over_seeds(sf_dir).filter(expr="host_rank >= 0")
    transport = TableTransport(_tbl(sf_dir, "documents"),
                               id_col="doc_id", text_col="text")
    out = fetch_execute(sched, transport, max_attempts=3,
                        minimum_interval=3.0, id_col="seed_order")
    return out.select_columns(["urlkey", "host", "seed_order", "fetch_ms",
                               "n_attempts", "final_status",
                               "fetch_action", "backoff_ms", "text"])


def q_fetch_execute(sf_dir: str):
    """The reference's core loop, end-to-end: schedule -> fetch (actor
    pool, injectable transport, RetryPolicy status classification +
    virtual backoff, max 3 attempts) -> content + outcome per request.
    Oracle: serial SQL replay of the identical fault schedule
    (status of attempt k = FAULT_STATUSES[(seed_order + k) % 8])."""
    return _fetched_over_seeds(sf_dir)


def _warc_fixture_segments(sf_dir: str) -> list[str]:
    """Deterministic real-WARC segments for the indexer oracle: the
    frontier's dedup winners (min (priority, seed_order) per urlkey —
    the proven dd/rn=1 relation) written as response records whose
    payload is the winner document's text. Cached per sf_dir; the
    writer is the serial driver-side path (the winner set is bounded
    by the derived-urlkey space, ~O(sources x 100))."""
    import glob as _glob
    import hashlib as _hashlib
    import os

    from ..pipelines.warcbytes import SegmentedWARCWriter

    tag = _hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    root = "/tmp/cdxray_warcfix_%s" % tag
    if not os.path.exists(root + "/.done"):
        os.makedirs(root, exist_ok=True)
        ds = derived_seeds(sf_dir)
        ds = first_wins_dedup(ds, "hash64",
                              [("priority", 19), ("seed_order", 44)],
                              derive_fn=canonicalize_batch)
        winners = sorted(
            ((r["seed_order"], r["url"]) for r in ds.take_all()))
        ids = np.array([w[0] for w in winners], np.int64)
        t = pq.read_table(_tbl(sf_dir, "documents"),
                          columns=["doc_id", "text"],
                          filters=[("doc_id", "in", ids.tolist())])
        text_by_id = dict(zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()))
        w = SegmentedWARCWriter(os.path.join(root, "FIX"), None,
                                {"isPartOf": "warc_index fixture"},
                                size=200_000)
        for so, url in winners:
            w.write_record({
                "warc_type": "response",
                "warc_target_uri": url,
                "payload": (text_by_id.get(so) or "").encode("utf-8"),
                "status": "200", "mime": "text/html",
            })
        w.close()
        open(root + "/.done", "w").close()
    return sorted(_glob.glob(root + "/FIX-*.extracted.warc.gz"))


def q_warc_index(sf_dir: str):
    """CDX indexing over REAL WARC bytes: deterministic segments
    (frontier winners as response records) -> index_warc -> one
    captures-style row per record. The oracle recomputes urlkey (the
    seeds CTE), the fixed writer clock, and the sha256 digest from the
    winner documents' text. offset/length/filename are gzip-layout
    facts SQL cannot see — they are round-trip-verified in pytest via
    fetch_record_range byte-range replay instead."""
    from ..pipelines.warcbytes import index_warc

    segs = _warc_fixture_segments(sf_dir)
    idx = index_warc(segs)
    return idx.select_columns(["urlkey", "timestamp", "url", "digest",
                               "status", "mime"])


def q_archive_roundtrip(sf_dir: str):
    """The FULL archive production chain in one hash: frontier winners
    -> real WARC/1.0 segments (deterministic writer clock) ->
    ``index_warc`` CDX rows (sha256 content digests, gzip-member byte
    spans) -> ``build_zipnum`` over the 9-column index (self-
    describing field set) -> cluster.idx bisect lookup of one source's
    prefix. What Common Crawl runs as WARC -> cdx-index -> zipnum
    serving, end to end. Oracle: the warc_index derivation filtered by
    the same prefix (offset/length/filename are gzip-layout facts SQL
    cannot see — byte-range round-trip proven in
    tests/test_warcbytes.py)."""
    import hashlib as _hashlib
    import os

    from ..pipelines.warcbytes import index_warc
    from ..sources.zipnum import build_zipnum, zipnum_lookup

    segs = _warc_fixture_segments(sf_dir)
    tag = _hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    out = "/tmp/cdxray_archzip_%s" % tag
    if not os.path.exists(out + "/.done"):
        build_zipnum(index_warc(segs), out, lines_per_block=16,
                     num_shards=2)
        open(out + "/.done", "w").close()
    hit = zipnum_lookup(out, urlkey_prefix="example,src1)")
    return hit.select_columns(["urlkey", "timestamp", "url", "digest",
                               "status", "mime"])


def q_fetch_errors(sf_dir: str):
    """The dead-letter side channel of q_fetch_execute: every request
    whose final action is not 'ok' (invalid / error / exhausted), with
    its attempt history — what a rerun re-queues."""
    from ..pipelines.fetch import dead_letter

    return dead_letter(_fetched_over_seeds(sf_dir))


def q_wet_export(sf_dir: str):
    """WET round-trip: frontier winners' document text written as
    text-only ``conversion`` records (the CC *.warc.wet.gz sidecar),
    read back through the WARC source. The value hash byte-checks
    every text through the WET bytes; oracle = winners ⋈ documents."""
    import glob as _glob
    import hashlib as _hashlib
    import os

    from ..pipelines.warcbytes import read_warc, write_wet_distributed

    tag = _hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    root = "/tmp/cdxray_wetfix_%s" % tag
    if not os.path.exists(root + "/.done"):
        os.makedirs(root, exist_ok=True)
        ds = derived_seeds(sf_dir)
        ds = first_wins_dedup(ds, "hash64",
                              [("priority", 19), ("seed_order", 44)],
                              derive_fn=canonicalize_batch)
        winners = sorted(
            ((r["seed_order"], r["url"]) for r in ds.take_all()))
        ids = [w[0] for w in winners]
        t = pq.read_table(_tbl(sf_dir, "documents"),
                          columns=["doc_id", "text"],
                          filters=[("doc_id", "in", ids)])
        text_by_id = dict(zip(t["doc_id"].to_pylist(),
                              t["text"].to_pylist()))
        rows = pa.table({
            "url": pa.array([u for _, u in winners], pa.string()),
            "text": pa.array([text_by_id.get(so, "") for so, _ in winners],
                             pa.string()),
        })
        write_wet_distributed(ray.data.from_arrow(rows),
                              os.path.join(root, "WET"), size=200_000)
        open(root + "/.done", "w").close()
    segs = sorted(_glob.glob(root + "/WET-*.extracted.warc.gz"))
    wet = read_warc(segs, record_types=("conversion",))

    def decode(batch: pa.Table) -> pa.Table:
        texts = [(b or b"").decode("utf-8")
                 for b in batch["payload"].to_pylist()]
        return pa.table({"url": batch["url"],
                         "text": pa.array(texts, pa.string())})

    return wet.map_batches(decode, batch_format="pyarrow")


def q_fetch_requeue(sf_dir: str):
    """The retry feedback edge: fetch wave 1 -> transient dead letters
    requeued into a wave-2 politeness schedule whose clock continues
    each host's wave-1 budget (base = max wave-1 fetch_ms per host,
    slots base + rank*delay). Oracle: the full fault-schedule replay +
    window max + row_number."""
    from ..pipelines.fetch import TableTransport, fetch_execute, requeue

    sched = _frontier_over_seeds(sf_dir).filter(expr="host_rank >= 0")
    transport = TableTransport(_tbl(sf_dir, "documents"),
                               id_col="doc_id", text_col="text")
    out = fetch_execute(sched, transport, max_attempts=3,
                        minimum_interval=3.0, id_col="seed_order")
    rq = requeue(out)
    return rq.select_columns(["urlkey", "host", "priority", "seed_order",
                              "fetch_ms", "retry_wave"])


