"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

The reference defines the dedup IDENTITIES — SURT urlkey and content
digest (cocrawler/cdx_toolkit README.md:207-212, 233-235) — but never
dedups itself (the CDX server does). A training-data engine must, at
100 TB scale, so each scheme is built on the shuffle-frugal pattern:
signatures computed vectorized per batch (``map_batches``), candidates
co-located by ONE ``groupby`` on a short key (band hash / simhash
chunk / hyperplane bucket), verification inside the group — never an
all-pairs comparison.

Determinism: every hash seed is fixed; winners are min-id, so results
are independent of execution order and parallelism.
"""

from __future__ import annotations

import logging
import re
from functools import partial
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

LOGGER = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# fixed 64-bit mixing constants (splitmix64 finalizer)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: golden-ratio multiplier that combines two hashes before a mix:
#: ``_mix64(a * _PHI ^ b)``
_PHI = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _hash_text_array(texts, seed: int = 0) -> np.ndarray:
    """Vectorized-ish 64-bit hash of a string array (python hash of the
    bytes is randomized per process — NOT usable; use FNV)."""
    from ..canon import hash64_batch

    arr = np.asarray(texts, dtype=object)
    h = hash64_batch(arr)
    if seed:
        h = _mix64(h + np.uint64(seed))
    return h


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def add_key_hash(key_col: str, out_col: str = "key_hash"):
    def _add(batch: pa.Table) -> pa.Table:
        vals = batch[key_col].to_numpy(zero_copy_only=False)
        return batch.append_column(
            out_col, pa.array(_hash_text_array(vals), pa.uint64()))

    return _add


def _exact_pairs_stream(ds: ray.data.Dataset, key_col: str,
                        id_col: str, num_buckets: int
                        ) -> ray.data.Dataset:
    """The ONLY stream the exact-dedup exchange moves: ``(key_hash,
    _id, _kb)`` — never the payload columns. The projection comes
    FIRST so a parquet upstream reads just two columns for this pass.
    Split out so tests can assert the narrow schema directly."""
    nb = np.uint64(num_buckets)
    proj = ds.select_columns(list(dict.fromkeys([key_col, id_col])))

    def narrow(batch: pa.Table) -> pa.Table:
        vals = batch[key_col].to_numpy(zero_copy_only=False)
        h = _hash_text_array(vals)
        return pa.table({
            "key_hash": pa.array(h, pa.uint64()),
            "_id": batch[id_col],
            "_kb": pa.array((h % nb).astype(np.int64)),
        })

    return proj.map_batches(narrow, batch_format="pyarrow",
                            batch_size=None)


def exact_dedup(ds: ray.data.Dataset, key_col: str, id_col: str,
                num_buckets: int = 64,
                winners_broadcast_max: int = 4_000_000
                ) -> ray.data.Dataset:
    """Keep the min-``id_col`` row per distinct ``key_col`` value.

    Narrow-shuffle design (VERDICT r4 item 3): the full rows —
    including text payloads when ``key_col`` IS the text — never
    shuffle. Only ``(key_hash, id)`` pairs move, co-located by
    ``hash64(key) % num_buckets``; each bucket resolves ALL its keys
    in one lexsort + run-length pass and folds out the WINNERS (the
    min id per key). The original stream is then gated in place by
    the winner PAIR — a row survives iff the winner id recorded for
    its key hash equals its own id, so an id value that repeats
    under a DIFFERENT key can never veto that key's winner (the
    round-5 review's cross-key-collision case). Gate strategies:

    * winner set fits ``winners_broadcast_max``: broadcast two
      kh-sorted arrays (key hashes are UNIQUE in the winner set, so
      the pair test is one searchsorted + two equality checks); the
      payload moves ZERO times.
    * larger: distributed inner join on ``(key_hash, id)`` — the
      payload moves once, never through a full-row groupby.

    Winner = min id per key-hash: deterministic under any
    parallelism (hash collisions conflate keys, same as the r4
    full-shuffle implementation — identical output contract).
    Duplicate ``(key, id)`` pairs fail loudly in-bucket (they cannot
    be expressed as a per-id gate).
    """
    def fold_winners(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("key_hash", pa.uint64()),
                         ("_id", tbl.schema.field("_id").type)])
        if tbl.num_rows == 0:
            return sch.empty_table()
        k = tbl["key_hash"].to_numpy(zero_copy_only=False)
        i = tbl["_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, k))
        k, i = k[order], i[order]
        first = np.ones(len(k), dtype=bool)
        first[1:] = k[1:] != k[:-1]
        if len(k) > 1 and (~first[1:] & (i[1:] == i[:-1])).any():
            raise ValueError(
                "exact_dedup: duplicate id values within one key — "
                "the pair-gated narrow-shuffle path requires ids "
                "unique within a key")
        return pa.table({"key_hash": pa.array(k[first], pa.uint64()),
                         "_id": pa.array(i[first])}).cast(sch)

    from .exchange import collect_refs, hash_bucket_apply

    winners = hash_bucket_apply(
        _exact_pairs_stream(ds, key_col, id_col, num_buckets), "_kb",
        fold_winners, num_buckets=num_buckets).materialize()
    n_win = winners.count()
    if n_win <= winners_broadcast_max:
        import ray as _ray

        from ..pipelines.frontier import _get_broadcast

        parts = [t for t in _ray.get(collect_refs(winners))
                 if t.num_rows]
        kh = np.concatenate(
            [t["key_hash"].to_numpy(zero_copy_only=False)
             for t in parts]) if parts else np.zeros(0, np.uint64)
        wid = np.concatenate(
            [t["_id"].to_numpy(zero_copy_only=False)
             for t in parts]) if parts else np.zeros(0, np.int64)
        order = np.argsort(kh)
        wref = _ray.put((kh[order], wid[order]))

        def gate(batch: pa.Table) -> pa.Table:
            w_kh, w_id = _get_broadcast(wref)
            vals = batch[key_col].to_numpy(zero_copy_only=False)
            h = _hash_text_array(vals)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(w_kh, h)
            pos_c = np.minimum(pos, max(len(w_kh) - 1, 0))
            keep = (len(w_kh) > 0) \
                & (w_kh[pos_c] == h) & (w_id[pos_c] == ids)
            return batch.filter(pa.array(keep))

        return ds.map_batches(gate, batch_format="pyarrow",
                              batch_size=None)
    # scale fallback: both sides stay distributed; the payload moves
    # once through the (key_hash, id) pair join, still never a
    # full-row groupby
    keyed = ds.map_batches(add_key_hash(key_col),
                           batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True)
    out = keyed.join(winners.repartition(default_join_partitions()),
                     "inner", default_join_partitions(),
                     on=("key_hash", id_col),
                     right_on=("key_hash", "_id"))
    return out.drop_columns(["key_hash"])


def default_join_partitions() -> int:
    """Join/aggregate partition count sized to the cluster: enough
    partitions to spread the shuffle, few enough that the hash-shuffle
    aggregator actors don't starve the map stages of CPUs."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, min(64, cpus // 2))


def first_wins(t: pa.Table, key_col: str = "hash64",
               order: Sequence[str] = ("priority", "seed_order")
               ) -> pa.Table:
    """Exact first-wins dedup of one table (one lexsort): per
    ``key_col``, the row with the smallest ``order`` tuple, with
    ``n_dup_dropped`` = the number of other rows of that key. Rows
    tied on the whole ``order`` tuple keep the earlier row of ``t``
    (lexsort is stable)."""
    keys = [t[c].to_numpy(zero_copy_only=False)
            for c in (*reversed(order), key_col)]
    idx = np.lexsort(keys)
    k = keys[-1][idx]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]][:len(k)])
    runs = np.diff(np.append(starts, len(k)))
    return t.take(pa.array(idx[starts])).append_column(
        "n_dup_dropped", pa.array(runs - 1, pa.int64()))


def _key_bucket(key_col: str, num_buckets: int, derive_fn,
                batch: pa.Table) -> pa.Table:
    """``derive_fn`` (when given), then ``_fw_bucket = uint64(key) %
    num_buckets`` — the key is already a 64-bit hash, so it routes by
    its own bits."""
    if derive_fn is not None:
        batch = derive_fn(batch)
    k = batch[key_col].to_numpy(zero_copy_only=False)
    return batch.append_column("_fw_bucket", pa.array(
        (k.astype(np.uint64) % np.uint64(num_buckets)).astype(np.int64)))


def _first_wins_bucket(key_col: str, order, t: pa.Table) -> pa.Table:
    return first_wins(t.drop_columns(["_fw_bucket"]), key_col, order)


def first_wins_dedup(ds: ray.data.Dataset, key_col: str, cols_bits,
                     derive_fn=None) -> ray.data.Dataset:
    """Exact first-wins dedup of a Dataset: per integer ``key_col``,
    keep the row with the smallest ``cols_bits`` column tuple and
    append ``n_dup_dropped`` (see :func:`first_wins`).

    ``cols_bits`` is ``[(column, bits), ...]``, most significant
    first; only the column names are used (the widths are ignored).
    ``derive_fn`` (e.g. SURT canonicalization producing ``key_col``)
    and the route ``uint64(key) % B`` are the ``prepare`` of ONE
    ``exchange.hash_bucket_apply`` round: they run once per row in its
    split tasks, and its merge is :func:`first_wins`; every copy of a
    key shares a bucket, so the per-bucket dedup is exact; with an
    order tuple unique per key (a unique ``seed_order``), the winners
    do not depend on parallelism or arrival order.
    """
    from .exchange import hash_bucket_apply, round_plan

    order = tuple(c for c, _ in cols_bits)
    ds = ds.materialize()
    nb = round_plan(ds.size_bytes())
    return hash_bucket_apply(ds, "_fw_bucket",
                             partial(_first_wins_bucket, key_col, order),
                             num_buckets=nb,
                             prepare=partial(_key_bucket, key_col, nb,
                                             derive_fn))


# ---------------------------------------------------------------------------
# Shingles + MinHash + LSH
# ---------------------------------------------------------------------------

def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Word k-shingles -> uint64 hash array (unique)."""
    words = _WORD_RE.findall(text.lower())
    if len(words) < k:
        joined = [" ".join(words)] if words else []
    else:
        joined = [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]
    if not joined:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(_hash_text_array(joined))


def doc_gram_hashes(texts: pa.Array | pa.ChunkedArray, shingle_k: int):
    """Distinct word-k-gram FNV hashes per document, fully vectorized:
    polars builds the word lists and the k-gram strings (shift-over-doc
    + concat_str — native string kernels, no per-document Python), the
    FNV hash is the length-sorted batch kernel. Gram convention (same
    as the SQL oracles): >= k words -> one gram per window position;
    1..k-1 words -> the single all-words gram; 0 words -> no grams.

    Returns ``(doc_idx, hashes)`` sorted by (doc_idx, hash) with
    per-document duplicates removed; ``doc_idx`` indexes into
    ``texts`` (docs with no grams are absent).
    """
    import polars as pl

    from ..canon import hash64_batch

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    df = pl.DataFrame({"t": pl.from_arrow(texts)}) \
        .with_row_index("d").with_columns(
            w=pl.col("t").fill_null("").str.to_lowercase()
                .str.extract_all(r"\w+")).drop("t")
    wlen = pl.col("w").list.len()

    big = df.filter(wlen >= shingle_k).explode("w")
    big = big.with_columns([
        pl.col("w").shift(-i).over("d").alias("_w%d" % i)
        for i in range(1, shingle_k)])
    big = big.filter(pl.col("_w%d" % (shingle_k - 1)).is_not_null())
    big = big.select(
        "d", g=pl.concat_str(
            ["w"] + ["_w%d" % i for i in range(1, shingle_k)],
            separator=" "))
    small = df.filter((wlen > 0) & (wlen < shingle_k)).select(
        "d", g=pl.col("w").list.join(" "))

    grams = pl.concat([big, small]) if small.height else big
    d = grams["d"].to_numpy().astype(np.int64)
    hashes = hash64_batch(grams["g"].to_arrow())

    order = np.lexsort((hashes, d))
    ds_, hs_ = d[order], hashes[order]
    keep = np.ones(len(ds_), bool)
    keep[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
    return ds_[keep], hs_[keep]


def make_minhash_stage(text_col: str, num_perm: int = 64, shingle_k: int = 5,
                       seed: int = 1234):
    """map_batches fn: append ``minhash`` (fixed-size uint64 list).

    Permutations are the standard (a*h + b) universal family with
    fixed-seed parameters; signature j = min over shingles.
    """
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 2 ** 62, size=num_perm).astype(np.uint64) | np.uint64(1)
    b = rng.randint(0, 2 ** 62, size=num_perm).astype(np.uint64)

    def minhash(batch: pa.Table) -> pa.Table:
        # per-doc distinct gram hashes (vectorized helper); the per-doc
        # permutation minima are one 1-D pass per permutation reduced
        # with np.minimum.reduceat over doc boundaries
        n = batch.num_rows
        du, hu = doc_gram_hashes(batch[text_col], shingle_k)

        sigs = np.full((n, num_perm), np.uint64(0xFFFFFFFFFFFFFFFF),
                       dtype=np.uint64)
        if len(hu):
            starts = np.flatnonzero(np.r_[True, du[1:] != du[:-1]])
            present = du[starts]
            sig_p = np.empty((len(starts), num_perm), np.uint64)
            # one 1-D pass per permutation: a (grams x num_perm)
            # product matrix would be tens of MB and cache-hostile —
            # same FLOPs column-wise stay in L2 (measured 20x)
            for j in range(num_perm):
                sig_p[:, j] = np.minimum.reduceat(hu * a[j] + b[j],
                                                  starts)
            sigs[present] = sig_p
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.ravel(), pa.uint64()), num_perm)
        return batch.append_column("minhash", col)

    return minhash


def explode_bands(num_perm: int = 64, bands: int = 16, id_col: str = "doc_id"):
    """map_batches fn: signature -> (band_id, band_hash, id) rows."""
    rows_per_band = num_perm // bands

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = np.asarray(batch["minhash"].to_numpy(zero_copy_only=False).tolist(),
                          dtype=np.uint64).reshape(len(ids), num_perm)
        n = len(ids)
        band_ids = np.repeat(np.arange(bands, dtype=np.int32), n)
        out_ids = np.tile(ids, bands)
        band_hashes = np.empty(bands * n, dtype=np.uint64)
        for bidx in range(bands):
            seg = sigs[:, bidx * rows_per_band:(bidx + 1) * rows_per_band]
            h = np.zeros(n, dtype=np.uint64)
            for j in range(rows_per_band):
                h = _mix64(h ^ seg[:, j])
            band_hashes[bidx * n:(bidx + 1) * n] = h
        return pa.table({
            "band_id": pa.array(band_ids, pa.int32()),
            "band_hash": pa.array(band_hashes, pa.uint64()),
            id_col: pa.array(out_ids),
        })

    return explode


def _emit_bucket_pairs(key_cols, id_col):
    """Vectorized multi-group pair emission for one hash bucket of
    groups: a Python map_groups call PER (band, hash) group means one
    call per candidate bucket — tens of thousands of near-empty pandas
    frames (measured: 20s where the signature math took 0.4s). Here
    groups are co-located COARSELY (hash of the group key % B buckets)
    and every group in a bucket is processed by one lexsort +
    run-length pass. Emits anchor-pairs (min id vs rest per group)."""

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        keys = [g[c].to_numpy() for c in key_cols]
        order = np.lexsort((ids,) + tuple(reversed(keys)))
        sids = ids[order]
        new_run = np.zeros(len(ids), dtype=bool)
        if len(ids):
            new_run[0] = True
        for k in keys:
            sk = k[order]
            new_run[1:] |= sk[1:] != sk[:-1]
        run_id = np.cumsum(new_run) - 1
        anchor = sids[np.flatnonzero(new_run)][run_id]
        mask = (~new_run) & (sids != anchor)
        return pd.DataFrame({"id_a": anchor[mask], "id_b": sids[mask]})

    return bucket_pairs


def _distinct_pairs(pairs: ray.data.Dataset,
                    num_buckets: int = 32) -> ray.data.Dataset:
    """Distinct (id_a, id_b) with one balanced shuffle: bucket by a
    pair hash, per-bucket vectorized drop_duplicates (same rationale
    as _emit_bucket_pairs — never a Python call per pair)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        hb = _mix64(a * _PHI ^ b)
        return batch.append_column(
            "pair_bucket",
            pa.array((hb % np.uint64(num_buckets)).astype(np.int64)))

    pairs = pairs.map_batches(add_bucket, batch_format="pyarrow",
                              batch_size=None)
    from .exchange import hash_bucket_apply

    def drop_dupes(tbl: pa.Table) -> pa.Table:
        g = tbl.to_pandas().drop_duplicates(["id_a", "id_b"])
        return pa.Table.from_pandas(g.drop(columns=["pair_bucket"]),
                                    preserve_index=False)

    return hash_bucket_apply(pairs, "pair_bucket", drop_dupes,
                             num_buckets=num_buckets)


def _bucketed_candidate_pairs(exploded: ray.data.Dataset, key_cols,
                              id_col: str, hash_col: str,
                              num_buckets: int = 64) -> ray.data.Dataset:
    """exploded (key_cols + id) -> distinct candidate pairs via TWO
    balanced shuffles total (group-bucket, then pair-dedup bucket)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = batch[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "grp_bucket",
            pa.array((h % np.uint64(num_buckets)).astype(np.int64)))

    exploded = exploded.map_batches(add_bucket, batch_format="pyarrow",
                                    batch_size=None)
    from .exchange import hash_bucket_apply

    emit = _emit_bucket_pairs(key_cols, id_col)

    def emit_arrow(tbl: pa.Table) -> pa.Table:
        # id dtype survives even for the empty-bucket frame
        out = emit(tbl.to_pandas())
        return pa.Table.from_pandas(out, preserve_index=False)

    # both candidate shuffles run on the direct task-graph exchange
    # (streams here are bucket-coded and small next to the corpus; the
    # executor groupby's sampling+barrier tail dominates — same
    # finding as lm/tfidf, A/B-measured there)
    pairs = hash_bucket_apply(exploded, "grp_bucket", emit_arrow,
                              num_buckets=num_buckets)
    return _distinct_pairs(pairs)


def minhash_lsh_candidates(ds: ray.data.Dataset, text_col: str = "text",
                           id_col: str = "doc_id", num_perm: int = 64,
                           bands: int = 16, shingle_k: int = 5,
                           seed: int = 1234) -> ray.data.Dataset:
    """Candidate near-dup pairs (id_a < id_b), deduplicated."""
    sigs = ds.map_batches(make_minhash_stage(text_col, num_perm, shingle_k,
                                             seed),
                          batch_format="pyarrow")
    exploded = sigs.map_batches(explode_bands(num_perm, bands, id_col),
                                batch_format="pyarrow", batch_size=None)
    return _bucketed_candidate_pairs(exploded, ["band_id", "band_hash"],
                                     id_col, "band_hash")


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact word-k-shingle Jaccard (the verification kernel)."""
    return jaccard_counts(text_a, text_b, k)[2]


def jaccard_counts(text_a: str, text_b: str, k: int = 5):
    """(n_inter, n_union, jaccard) over word-k-shingle HASH sets — the
    integer counts are what the DuckDB oracle checks (floats stay out
    of the value hash, same convention as ``ngram_jaccard``)."""
    a = set(_shingle_hashes(text_a, k).tolist())
    b = set(_shingle_hashes(text_b, k).tolist())
    if not a and not b:
        return 0, 0, 1.0
    ni = len(a & b)
    nu = len(a | b)
    return ni, nu, (ni / nu if nu else 0.0)


def minhash_dedup_pairs(ds: ray.data.Dataset, text_col: str = "text",
                        id_col: str = "doc_id", threshold: float = 0.7,
                        verify_buckets: int = 32,
                        num_partitions: int | None = None,
                        **kwargs) -> ray.data.Dataset:
    """LSH candidates verified DISTRIBUTED by exact shingle Jaccard.

    Fully distributed — neither the corpus, the candidate pair list,
    nor the member map ever lands on the driver (a skewed band — e.g.
    millions of identical boilerplate docs — produces a pair list far
    too large for a driver dict):

    1. candidate pairs stay a Dataset; each pair explodes into two
       ``(member_id, pair_id, slot, id_a, id_b)`` membership rows,
       where ``pair_id`` is a 64-bit mix of (id_a, id_b) (collision
       odds ~ pairs^2 / 2^64 — negligible at any realistic scale)
    2. membership joins the corpus on ``member_id == id`` with the
       distributed hash join (both sides move once, balanced)
    3. ONE balanced ``groupby(pair_id % B)`` co-locates both texts of
       each pair; each bucket verifies all its pairs in one call
       (per-pair set intersection is the actual work, not overhead)

    Skew note: a document in P pairs contributes P joined rows, all
    hashed by member_id to one partition — P is bounded by the anchor
    pair emission (min-id vs rest per bucket), not by corpus size.
    """
    k = kwargs.get("shingle_k", 5)
    if num_partitions is None:
        num_partitions = default_join_partitions()
    # materialize the candidate list: it is tiny relative to the corpus
    # (bounded by the anchor emission), the membership join is a
    # barrier over it anyway, and Ray's hash join cannot take a
    # fully-empty side (schema-less empty partitions) — a clean corpus
    # shard with ZERO candidates must short-circuit, not crash
    cands = minhash_lsh_candidates(ds, text_col, id_col, **kwargs) \
        .select_columns(["id_a", "id_b"]).materialize()
    n_cands = cands.count()
    if n_cands == 0:
        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
            "n_inter": pa.array([], pa.int64()),
            "n_union": pa.array([], pa.int64()),
        }))
    # repartition heals the schema-less EMPTY blocks that sparse
    # groupby.map_groups stages emit for empty partitions — a hash-join
    # partition built solely from those has no key column and aborts
    # (pyarrow "No match for key field"); it also right-sizes the block
    # count for the membership join
    cands = cands.repartition(max(1, min(num_partitions, n_cands)))

    def membership(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        pid = _mix64(a.astype(np.uint64) * _PHI
                     ^ b.astype(np.uint64)).view(np.int64)
        return pa.table({
            "member_id": pa.array(np.concatenate([a, b]), pa.int64()),
            "pair_id": pa.array(np.concatenate([pid, pid]), pa.int64()),
            "slot": pa.array(np.concatenate(
                [np.zeros(len(a), np.int8), np.ones(len(b), np.int8)])),
            "id_a": pa.array(np.concatenate([a, a]), pa.int64()),
            "id_b": pa.array(np.concatenate([b, b]), pa.int64()),
        })

    jb = np.uint64(num_partitions)

    def add_members_jb(batch: pa.Table) -> pa.Table:
        batch = membership(batch)
        m = batch["member_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_jb", pa.array((_mix64(m.astype(np.uint64)) % jb)
                            .astype(np.int64)))

    def add_corpus_jb(batch: pa.Table) -> pa.Table:
        batch = pa.table({
            "member_id": pc.cast(batch[id_col], pa.int64()),
            text_col: batch[text_col],
        })
        m = batch["member_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_jb", pa.array((_mix64(m.astype(np.uint64)) % jb)
                            .astype(np.int64)))

    members = cands.map_batches(add_members_jb, batch_format="pyarrow",
                                batch_size=None)
    corpus = ds.select_columns([id_col, text_col]).map_batches(
        add_corpus_jb, batch_format="pyarrow", batch_size=None)

    def join_bucket(tbl: pa.Table) -> pa.Table:
        # membership x corpus inner join inside one bucket (both sides
        # bucketed by the member/doc id). Sides split in ARROW first —
        # the unioned superset schema null-fills each side's missing
        # columns, and to_pandas on the whole bucket would promote the
        # int64 pair columns to float64 (same trick as asof._sided).
        member_cols = ["member_id", "pair_id", "slot", "id_a", "id_b"]
        # member rows always carry slot; corpus rows get it null-filled
        # by the union's schema promotion (text may legitimately be
        # null, so slot — an engine-set column — is the side marker).
        # A bucket fed by ONLY one side never went through that
        # promotion and lacks the other side's columns entirely
        # (block-boundary dependent, so it surfaces as a flake):
        # one-sided buckets can't produce a join row — emit the
        # empty frame with the full output schema.
        names = set(tbl.column_names)
        if "slot" not in names or text_col not in names:
            return pa.schema(
                [("member_id", pa.int64()), ("pair_id", pa.int64()),
                 ("slot", pa.int8()), ("id_a", pa.int64()),
                 ("id_b", pa.int64()), (text_col, pa.string()),
                 ("verify_bucket", pa.int64())]).empty_table()
        is_member = pa.array(pc.is_valid(tbl["slot"]))
        ctab = tbl.filter(pc.invert(is_member))
        mtab = tbl.filter(is_member)
        cid = ctab["member_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(cid, kind="stable")
        cid = cid[order]
        texts = ctab[text_col].to_numpy(zero_copy_only=False)[order]
        mid = mtab["member_id"].to_numpy(zero_copy_only=False)
        if len(cid):
            pos = np.searchsorted(cid, mid)
            pos[pos == len(cid)] = 0
            hit = cid[pos] == mid
        else:
            pos = np.zeros(len(mid), np.int64)
            hit = np.zeros(len(mid), bool)
        out = {c: mtab[c].to_numpy(zero_copy_only=False)[hit]
               for c in member_cols}
        pid = out["pair_id"]
        return pa.table({
            **{c: pa.array(out[c]) for c in member_cols},
            text_col: pa.array(texts[pos[hit]], pa.string()),
            "verify_bucket": pa.array(
                (pid.astype(np.uint64) % np.uint64(verify_buckets))
                .astype(np.int64)),
        })

    from .exchange import hash_bucket_apply

    joined = hash_bucket_apply(members.union(corpus), "_jb", join_bucket,
                               num_buckets=num_partitions)

    def verify_bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["pair_id", "slot", "id_a"])
        pids = g["pair_id"].to_numpy()
        slots = g["slot"].to_numpy()
        texts = g[text_col].to_numpy()
        ida = g["id_a"].to_numpy()
        idb = g["id_b"].to_numpy()
        out_a, out_b, out_j, out_ni, out_nu = [], [], [], [], []
        i = 0
        n = len(g)
        while i + 1 < n:
            if pids[i] != pids[i + 1] or slots[i] == slots[i + 1]:
                i += 1  # member missing (shouldn't happen)
                continue
            ni, nu, j = jaccard_counts(texts[i], texts[i + 1], k)
            if j >= threshold:
                out_a.append(int(ida[i]))
                out_b.append(int(idb[i]))
                out_j.append(float(j))
                out_ni.append(ni)
                out_nu.append(nu)
            i += 2
        return pd.DataFrame({"id_a": pd.Series(out_a, dtype=np.int64),
                             "id_b": pd.Series(out_b, dtype=np.int64),
                             "jaccard": pd.Series(out_j, dtype=np.float64),
                             "n_inter": pd.Series(out_ni, dtype=np.int64),
                             "n_union": pd.Series(out_nu, dtype=np.int64)})

    from .exchange import hash_bucket_apply

    def verify_arrow(tbl: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(verify_bucket_fn(tbl.to_pandas()),
                                    preserve_index=False)

    return hash_bucket_apply(joined, "verify_bucket", verify_arrow,
                             num_buckets=verify_buckets)


def _word_shingle_set(text: str, k: int) -> set:
    """Distinct word-k-gram STRINGS (not hashes) — the exact-verification
    identity, directly comparable to a SQL list_intersect oracle."""
    words = _WORD_RE.findall((text or "").lower())
    if len(words) < k:
        return set()
    return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}


def shared_key_pairs_with_sizes(kd: ray.data.Dataset, *, key_col: str,
                                bucket_col: str, num_buckets: int,
                                min_shared: int, max_docs_per_key: int,
                                warn_label: str, flag_name: str,
                                flag_fn, string_docs: bool = False,
                                out_a: str = "doc_a",
                                out_b: str = "doc_b"
                                ) -> ray.data.Dataset:
    """Doc pairs sharing >= ``min_shared`` distinct keys, with BOTH
    per-doc distinct-key set sizes attached — zero driver-side per-doc
    state (the 100-TB contract: at 10^10 docs an O(docs) driver dict is
    the driver OOM; here every per-doc quantity travels as rows).

    Input: per-block-distinct ``(key_col, doc, bucket_col)`` rows where
    ``bucket_col = key_hash % num_buckets``. Three hash exchanges:

    1. key-bucket: global-distinct (key, doc); emits each shared key's
       doc pairs (keys shared by > ``max_docs_per_key`` docs dropped
       loudly — the LSH-band boilerplate guard) PLUS per-doc partial
       set sizes, both routed by ``hash(doc) % num_buckets`` (pairs by
       doc_a) so sizes co-locate with the pairs that need them.
    2. doc_a-bucket: counts pair multiplicity -> ``n_shared``, filters
       ``min_shared``, attaches ``n_a`` from the bucket-local size sum
       (doc_a's partials all land here by construction); re-emits the
       summed ``(doc, size)`` rows and routes pairs by doc_b.
    3. doc_b-bucket: attaches ``n_b`` the same way and computes the
       ``flag_name`` column via ``flag_fn(shared, n_a, n_b)``.

    Each merge task holds O(pairs_in_bucket + docs/num_buckets) memory;
    the driver holds only object refs.

    ``string_docs=True`` switches the doc identity to strings (the
    mirror-host case, where docs are hostnames): same plan, doc-hash
    routing via the engine's hash64 and empty-string placeholders in
    the union rows (the psz/sz discriminator columns stay integer).
    """
    from .exchange import hash_bucket_apply

    nbu = np.uint64(num_buckets)

    if string_docs:
        from ..canon import hash64_batch

        doc_type = pa.string()

        def doc_np(col):
            return col.combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(str)

        def doc_pa(arr):
            return pa.array(np.asarray(arr, object).tolist(),
                            pa.string())

        def doc_fill(n):
            return np.full(n, "", object)

        def doc_bucket(vals):
            return (hash64_batch(pa.array(
                np.asarray(vals, object).tolist(), pa.string()))
                % nbu).astype(np.int64)
    else:
        doc_type = pa.int64()

        def doc_np(col):
            return col.to_numpy(zero_copy_only=False)

        def doc_pa(arr):
            return pa.array(np.asarray(arr, np.int64))

        def doc_fill(n):
            return np.full(n, -1, np.int64)

        def doc_bucket(vals):
            return ((np.asarray(vals).astype(np.uint64) * _PHI)
                    % nbu).astype(np.int64)

    def merge_keys(tbl: pa.Table) -> pa.Table:
        # union rows: pairs have psz == -1, size partials have no pair
        sch = pa.schema([("a", doc_type), ("b", doc_type),
                         ("psz", pa.int64()), ("_k2", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        g = tbl[key_col].to_numpy(zero_copy_only=False)
        d = doc_np(tbl["doc"])
        order = np.lexsort((d, g))
        gs, ds_ = g[order], d[order]
        new = np.ones(len(gs), bool)
        new[1:] = (gs[1:] != gs[:-1]) | (ds_[1:] != ds_[:-1])
        gs, ds_ = gs[new], ds_[new]
        ud, psz = np.unique(ds_, return_counts=True)
        run = np.ones(len(gs), bool)
        run[1:] = gs[1:] != gs[:-1]
        st = np.flatnonzero(run)
        ln = np.diff(np.r_[st, len(gs)])
        big = ln > max_docs_per_key
        if big.any():
            LOGGER.warning(
                "%s: %d keys shared by > %d docs dropped as "
                "boilerplate", warn_label, int(big.sum()),
                max_docs_per_key)
        a_all, b_all = [], []
        for s, n in zip(st[~big].tolist(), ln[~big].tolist()):
            if n < 2:
                continue
            grp = ds_[s:s + n]  # doc-sorted, so a < b per pair
            ii, jj = np.triu_indices(n, k=1)
            a_all.append(grp[ii])
            b_all.append(grp[jj])
        a = np.concatenate(a_all) if a_all else doc_fill(0)
        b = np.concatenate(b_all) if a_all else doc_fill(0)
        ka = doc_bucket(a)
        kd = doc_bucket(ud)
        return pa.table({
            "a": doc_pa(np.concatenate([a, ud])),
            "b": doc_pa(np.concatenate([b, doc_fill(len(ud))])),
            "psz": pa.array(np.r_[np.full(len(a), -1, np.int64),
                                  psz.astype(np.int64)]),
            "_k2": pa.array(np.r_[ka, kd]),
        })

    u1 = hash_bucket_apply(kd, bucket_col, merge_keys,
                           num_buckets=num_buckets)

    def merge_a(tbl: pa.Table) -> pa.Table:
        # union rows out: pairs have sz == -1, size rows have no pair
        sch = pa.schema([("a", doc_type), ("b", doc_type),
                         ("n_shared", pa.int64()), ("n_a", pa.int64()),
                         ("sz", pa.int64()), ("_k3", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        a = doc_np(tbl["a"])
        b = doc_np(tbl["b"])
        psz = tbl["psz"].to_numpy(zero_copy_only=False)
        is_sz = psz >= 0
        sd, inv = np.unique(a[is_sz], return_inverse=True)
        tot = np.zeros(len(sd), np.int64)
        np.add.at(tot, inv, psz[is_sz])
        pa_, pb_ = a[~is_sz], b[~is_sz]
        order = np.lexsort((pb_, pa_))
        pa_, pb_ = pa_[order], pb_[order]
        new = np.ones(len(pa_), bool)
        new[1:] = (pa_[1:] != pa_[:-1]) | (pb_[1:] != pb_[:-1])
        st = np.flatnonzero(new)
        shared = np.diff(np.r_[st, len(pa_)]).astype(np.int64)
        pa_, pb_ = pa_[st], pb_[st]
        keep = shared >= min_shared
        pa_, pb_, shared = pa_[keep], pb_[keep], shared[keep]
        if len(pa_):
            pos = np.minimum(np.searchsorted(sd, pa_),
                             max(len(sd) - 1, 0))
            if not len(sd) or not (sd[pos] == pa_).all():
                # cheap probe-hit check (ADVICE r4): a routing change
                # that broke co-location would otherwise return
                # silently wrong n_a
                raise AssertionError(
                    "size row missing for a pair's a-doc — size and "
                    "pair rows must share the doc-bucket exchange "
                    "(co-location invariant)")
            na = tot[pos]
        else:
            na = np.zeros(0, np.int64)
        kb = doc_bucket(pb_)
        ksd = doc_bucket(sd)
        nsz = len(sd)
        return pa.table({
            "a": doc_pa(np.concatenate([pa_, doc_fill(nsz)])),
            "b": doc_pa(np.concatenate([pb_, sd])),
            "n_shared": pa.array(np.r_[shared,
                                       np.full(nsz, -1, np.int64)]),
            "n_a": pa.array(np.r_[na, np.full(nsz, -1, np.int64)]),
            "sz": pa.array(np.r_[np.full(len(pa_), -1, np.int64), tot]),
            "_k3": pa.array(np.r_[kb, ksd]),
        })

    u2 = hash_bucket_apply(u1, "_k2", merge_a, num_buckets=num_buckets)

    def merge_b(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([(out_a, doc_type), (out_b, doc_type),
                         ("n_shared", pa.int64()), ("n_a", pa.int64()),
                         ("n_b", pa.int64()), (flag_name, pa.bool_())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        sz = tbl["sz"].to_numpy(zero_copy_only=False)
        is_sz = sz >= 0
        sd = doc_np(tbl["b"])[is_sz]
        tot = sz[is_sz]
        order = np.argsort(sd)
        sd, tot = sd[order], tot[order]
        pair = tbl.filter(pa.array(~is_sz))
        if pair.num_rows == 0:
            return sch.empty_table()
        pb_ = doc_np(pair["b"])
        pos = np.minimum(np.searchsorted(sd, pb_),
                         max(len(sd) - 1, 0))
        if not len(sd) or not (sd[pos] == pb_).all():
            # cheap probe-hit check (ADVICE r4), as in merge_a
            raise AssertionError(
                "size row missing for a pair's b-doc — size and "
                "pair rows must share the doc-bucket exchange "
                "(co-location invariant)")
        nb = tot[pos]
        shared = pair["n_shared"].to_numpy(zero_copy_only=False)
        na = pair["n_a"].to_numpy(zero_copy_only=False)
        return pa.table({
            out_a: pair["a"], out_b: pair["b"],
            "n_shared": pair["n_shared"], "n_a": pair["n_a"],
            "n_b": pa.array(nb.astype(np.int64)),
            flag_name: pa.array(flag_fn(shared, na, nb)),
        })

    return hash_bucket_apply(u2, "_k3", merge_b,
                             num_buckets=num_buckets)


def containment_pairs(ds: ray.data.Dataset, *, text_col: str = "text",
                      id_col: str = "doc_id", k: int = 3,
                      threshold_pct: int = 80, min_shared: int = 2,
                      max_docs_per_gram: int = 64,
                      num_buckets: int = 32) -> ray.data.Dataset:
    """Asymmetric n-gram CONTAINMENT near-dup pairs — the
    quote/superset signal symmetric Jaccard under-scores: a short
    document fully embedded in a long one has containment 100% of the
    smaller side while its Jaccard stays low (Broder 1997's second
    resemblance measure; the dedup literature's answer to quoted
    boilerplate and wrapper pages).

    For every candidate pair: ``n_shared`` distinct word-``k``-grams
    in common, both set sizes, and ``contained`` by EXACT integer
    cross-multiply (``100 * shared >= threshold_pct * min(n_a, n_b)``).
    Pairs surface only when they share >= ``min_shared`` grams; a gram
    shared by more than ``max_docs_per_gram`` docs is boilerplate,
    dropped loudly (the LSH-band guard).

    Dataflow (the cdc_neardup_pairs shape): per block, distinct
    (gram-hash, doc) rows -> :func:`shared_key_pairs_with_sizes`'s
    three-exchange plan where per-doc set sizes travel as rows
    co-located with the pairs by doc-hash bucket — no driver-side
    per-doc structure at any point. Text never shuffles; grams travel
    as 64-bit hashes (a collision would overcount sharing by one —
    negligible at 64 bits; the SQL oracle counts the same strings).
    """
    nbu = np.uint64(num_buckets)

    def gram_doc(batch: pa.Table) -> pa.Table:
        import os

        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import polars as pl

        sch = pa.schema([("g", pa.uint64()), ("doc", pa.int64()),
                         ("_b", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        # vectorized k-gram build: k shifted list slices exploded in
        # lockstep, joined with ' ' — no per-row Python
        df = pl.DataFrame({
            "doc": pl.from_arrow(batch[id_col].combine_chunks()),
            "t": pl.from_arrow(batch[text_col].combine_chunks()),
        }).with_columns(
            w=pl.col("t").cast(pl.String).fill_null("")
            .str.to_lowercase().str.extract_all(r"\w+")).drop("t")
        df = df.filter(pl.col("w").list.len() >= k)
        if not len(df):
            return sch.empty_table()
        n = pl.col("w").list.len() - (k - 1)
        df = df.with_columns(
            **{"w%d" % j: pl.col("w").list.slice(j, n)
               for j in range(k)}).drop("w")
        ex = (df.explode(["w%d" % j for j in range(k)])
              .drop_nulls("w0")
              .with_columns(gram=pl.concat_str(
                  [pl.col("w%d" % j) for j in range(k)],
                  separator=" "))
              .select("doc", "gram").unique())
        if not len(ex):
            return sch.empty_table()
        g = _hash_text_array(ex["gram"].to_arrow())
        d = ex["doc"].cast(pl.Int64).to_numpy()
        return pa.table({
            "g": pa.array(g, pa.uint64()),
            "doc": pa.array(d.astype(np.int64), pa.int64()),
            "_b": pa.array((g % nbu).astype(np.int64), pa.int64()),
        })

    gd = ds.map_batches(gram_doc, batch_format="pyarrow",
                        batch_size=None)
    return shared_key_pairs_with_sizes(
        gd, key_col="g", bucket_col="_b", num_buckets=num_buckets,
        min_shared=min_shared, max_docs_per_key=max_docs_per_gram,
        warn_label="containment_pairs", flag_name="contained",
        flag_fn=lambda shared, na, nb:
            100 * shared >= threshold_pct * np.minimum(na, nb))


def ngram_jaccard_pairs(ds: ray.data.Dataset, text_col: str = "text",
                        id_col: str = "doc_id", k: int = 2,
                        ) -> ray.data.Dataset:
    """Exact n-gram Jaccard for deterministic adjacent-id pairs
    (id 2g vs 2g+1): co-locate each pair with ONE groupby on
    ``id // 2`` (no all-pairs, no broadcast of texts — each group holds
    exactly the two documents it compares). Emits integer
    ``n_inter`` / ``n_union`` so results are float-free and exactly
    checkable. The same per-group kernel verifies arbitrary candidate
    pairs when fed a (pair_id, id, text) table from an LSH stage."""
    def add_pair(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.append_column("pair_id",
                                   pa.array(ids // 2, pa.int64()))

    ds = ds.map_batches(add_pair, batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) != 2:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64),
                                 "n_inter": pd.Series([], dtype=np.int64),
                                 "n_union": pd.Series([], dtype=np.int64)})
        g = g.sort_values(id_col)
        a = _word_shingle_set(g[text_col].iloc[0], k)
        b = _word_shingle_set(g[text_col].iloc[1], k)
        return pd.DataFrame({
            "id_a": [np.int64(g[id_col].iloc[0])],
            "id_b": [np.int64(g[id_col].iloc[1])],
            "n_inter": [np.int64(len(a & b))],
            "n_union": [np.int64(len(a | b))],
        })

    return ds.groupby("pair_id").map_groups(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def make_simhash_stage(text_col: str, out_col: str = "simhash"):
    """map_batches fn: 64-bit simhash over word hashes."""

    def simhash(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_numpy(zero_copy_only=False)
        n = len(texts)
        out = np.zeros(n, dtype=np.uint64)
        bitcols = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        # one hash call for the whole batch's words (see minhash note)
        all_words: list = []
        bounds = np.zeros(n + 1, dtype=np.int64)
        for i, t in enumerate(texts):
            all_words.extend(_WORD_RE.findall((t or "").lower()))
            bounds[i + 1] = len(all_words)
        hashes = (_hash_text_array(np.asarray(all_words, dtype=object))
                  if all_words else np.zeros(0, np.uint64))
        counts = np.diff(bounds)
        nz = counts > 0
        if nz.any():
            # per-bit majority vote, vectorized across the whole
            # batch: 64 reduceats over the flat word-hash stream
            # (never a per-doc matrix — measured 3.3s -> sub-second
            # on the sf0.1 documents table)
            starts = bounds[:-1][nz]
            cnz = counts[nz]
            sums = np.empty((len(starts), 64), np.int64)
            for b in range(64):
                sums[:, b] = np.add.reduceat(
                    ((hashes >> np.uint64(b)) & np.uint64(1))
                    .astype(np.int64), starts)
            maj = (2 * sums) > cnz[:, None]
            out[nz] = (maj * bitcols[None, :]).sum(axis=1,
                                                   dtype=np.uint64)
        return batch.append_column(out_col, pa.array(out, pa.uint64()))

    return simhash


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


#: byte popcount LUT (numpy 1.x has no bitwise_count)
_POPCNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                         axis=1).sum(axis=1).astype(np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount via the byte LUT."""
    return _POPCNT8[x.view(np.uint8).reshape(-1, 8)].sum(
        axis=1).astype(np.int64)


def simhash_hamming_pairs(ds: ray.data.Dataset, *,
                          text_col: str = "text",
                          id_col: str = "doc_id",
                          max_hamming: int = 3,
                          max_group: int = 512,
                          num_buckets: int = 32) -> ray.data.Dataset:
    """Hamming-distance near-dup PAIR MINING over 64-bit simhash
    (Manku, Jain & Das Sarma, WWW 2007 — the web-scale near-dup
    detector Google ran on 8B pages): split each signature into
    ``max_hamming + 1`` equal bit blocks; by pigeonhole, any pair
    within Hamming distance ``max_hamming`` agrees EXACTLY on at
    least one block, so block-equality buckets contain every true
    pair — candidates are verified by popcount(xor) and the miss
    rate is zero, not probabilistic like MinHash bands.

    A block value shared by more than ``max_group`` docs is
    boilerplate (it would emit O(group²) pairs) and is dropped
    loudly — the co_link_pairs fanout guard; the SQL oracle
    replicates the same cap, so the contract stays exact.

    Dataflow (the containment shape): signatures are one vectorized
    map pass; 4 narrow ``(block_id, block_val, id, sim)`` rows per
    doc move through ONE block-bucket exchange that emits verified
    pairs, then one pair-bucket exchange dedups — text never
    shuffles, and no all-pairs step exists anywhere.

    Returns ``(id_a, id_b, hamming)`` with ``id_a < id_b``, one row
    per unordered pair. Reference anchor: the digest/urlkey dedup
    identities (cdx_toolkit README.md:207-212, 233-235) generalized
    to near-identity."""
    from .exchange import hash_bucket_apply

    n_blocks = max_hamming + 1
    if 64 % n_blocks:
        raise ValueError("max_hamming + 1 must divide 64")
    width = 64 // n_blocks
    mask = np.uint64((1 << width) - 1)
    nbu = np.uint64(num_buckets)

    sigs = ds.map_batches(make_simhash_stage(text_col),
                          batch_format="pyarrow", batch_size=None)

    def explode(batch: pa.Table) -> pa.Table:
        sch = pa.schema([("block_id", pa.int32()),
                         ("block_val", pa.uint64()),
                         ("id", pa.int64()), ("sim", pa.uint64()),
                         ("_b", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sh = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bid, bval, oid, osim = [], [], [], []
        for c in range(n_blocks):
            bid.append(np.full(len(ids), c, np.int32))
            bval.append((sh >> np.uint64(c * width)) & mask)
            oid.append(ids)
            osim.append(sh)
        bid = np.concatenate(bid)
        bval = np.concatenate(bval)
        # block identity (block_id, block_val) -> one bucket
        bkey = _mix64(bval * _PHI
                      + bid.astype(np.uint64))
        return pa.table({
            "block_id": pa.array(bid, pa.int32()),
            "block_val": pa.array(bval, pa.uint64()),
            "id": pa.array(np.concatenate(oid), pa.int64()),
            "sim": pa.array(np.concatenate(osim), pa.uint64()),
            "_b": pa.array((bkey % nbu).astype(np.int64), pa.int64()),
        })

    rows = sigs.map_batches(explode, batch_format="pyarrow",
                            batch_size=None)

    def emit_pairs(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                         ("hamming", pa.int64()), ("_pb", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        bid = tbl["block_id"].to_numpy(zero_copy_only=False)
        bval = tbl["block_val"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        ids = tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sim = tbl["sim"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids, bval, bid))
        bid, bval = bid[order], bval[order]
        ids, sim = ids[order], sim[order]
        new = np.ones(len(ids), bool)
        new[1:] = (bid[1:] != bid[:-1]) | (bval[1:] != bval[:-1])
        st = np.flatnonzero(new)
        ln = np.diff(np.r_[st, len(ids)])
        big = ln > max_group
        if big.any():
            LOGGER.warning(
                "simhash_hamming_pairs: %d blocks shared by > %d docs "
                "dropped as boilerplate", int(big.sum()), max_group)
        a_all, b_all, h_all = [], [], []
        for s, n in zip(st[~big].tolist(), ln[~big].tolist()):
            if n < 2:
                continue
            gi, gs = ids[s:s + n], sim[s:s + n]   # ids sorted in run
            ii, jj = np.triu_indices(n, k=1)
            hd = _popcount64(np.bitwise_xor(gs[ii], gs[jj]))
            keep = hd <= max_hamming
            if keep.any():
                a_all.append(gi[ii][keep])
                b_all.append(gi[jj][keep])
                h_all.append(hd[keep])
        if not a_all:
            return sch.empty_table()
        a = np.concatenate(a_all)
        b = np.concatenate(b_all)
        hb = _mix64(a.astype(np.uint64)
                    * _PHI
                    ^ b.astype(np.uint64))
        return pa.table({
            "id_a": pa.array(a, pa.int64()),
            "id_b": pa.array(b, pa.int64()),
            "hamming": pa.array(np.concatenate(h_all), pa.int64()),
            "_pb": pa.array((hb % nbu).astype(np.int64), pa.int64()),
        })

    pairs = hash_bucket_apply(rows, "_b", emit_pairs,
                              num_buckets=num_buckets)

    def dedup_pairs(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                         ("hamming", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        a = tbl["id_a"].to_numpy(zero_copy_only=False)
        b = tbl["id_b"].to_numpy(zero_copy_only=False)
        h = tbl["hamming"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b, h = a[order], b[order], h[order]
        new = np.ones(len(a), bool)
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return pa.table({
            "id_a": pa.array(a[new], pa.int64()),
            "id_b": pa.array(b[new], pa.int64()),
            "hamming": pa.array(h[new], pa.int64()),
        })

    return hash_bucket_apply(pairs, "_pb", dedup_pairs,
                             num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup (hyperplane LSH + verified cosine)
# ---------------------------------------------------------------------------

def make_hyperplane_stage(vec_col: str, dim: int, n_planes: int = 16,
                          seed: int = 7, out_col: str = "lsh_bucket"):
    rng = np.random.RandomState(seed)
    # float32-rounded plane values, float64 dot: the SQL oracle inlines
    # the same float32 literals and computes in DOUBLE, so the sign of
    # each projection agrees bit-for-bit except for |dot| ~ 1e-13 ties
    planes = rng.normal(size=(dim, n_planes)).astype(np.float32) \
        .astype(np.float64)

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = np.asarray(batch[vec_col].to_numpy(zero_copy_only=False).tolist(),
                          dtype=np.float64)
        signs = (vecs @ planes) > 0
        buckets = np.zeros(len(vecs), dtype=np.uint64)
        for j in range(n_planes):
            buckets |= signs[:, j].astype(np.uint64) << np.uint64(j)
        return batch.append_column(out_col, pa.array(buckets, pa.uint64()))

    return bucketize


def embedding_neardup_pairs(ds: ray.data.Dataset, vec_col: str = "embedding",
                            id_col: str = "vec_id", dim: int = 64,
                            n_planes: int = 12, threshold: float = 0.95,
                            seed: int = 7,
                            max_bucket: int | None = 200_000
                            ) -> ray.data.Dataset:
    """Same-LSH-bucket pairs verified by exact cosine >= threshold.

    Scale contract: the per-bucket verify is an all-pairs matmul —
    O(bucket^2) work and memory. With ``n_planes`` chosen so buckets
    stay small (expected corpus / 2^n_planes vectors) this is the
    dominant useful compute; a degenerate bucket (e.g. a corpus of
    near-identical embeddings) would quadratically blow up, so buckets
    larger than ``max_bucket`` raise rather than silently stall — the
    fix is more planes or pre-clustering, not a bigger box.
    """
    ds = ds.map_batches(make_hyperplane_stage(vec_col, dim, n_planes, seed),
                        batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        if max_bucket is not None and len(g) > max_bucket:
            raise ValueError(
                "embedding LSH bucket of %d vectors exceeds max_bucket=%d"
                " (raise n_planes)" % (len(g), max_bucket))
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        vecs = np.asarray(g[vec_col].tolist(), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        unit = vecs / norms[:, None]
        sim = unit @ unit.T
        ia, ib = np.triu_indices(len(ids), k=1)
        keep = sim[ia, ib] >= threshold
        return pd.DataFrame({"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                             "cosine": sim[ia, ib][keep]})

    pairs = ds.groupby("lsh_bucket").map_groups(verify, batch_format="pandas")
    return _distinct_pairs(pairs)


def minhash_lsh_eval(ds: ray.data.Dataset, text_col: str = "text",
                     id_col: str = "doc_id", *, jaccard_num: int = 1,
                     jaccard_den: int = 2, num_buckets: int = 32,
                     **mh_kwargs) -> pa.Table:
    """LSH quality evaluation: precision / recall of the MinHash band
    candidates against exact-Jaccard ground truth at threshold
    ``jaccard_num/jaccard_den`` (integer form: a pair is TRUE iff
    ``n_inter * den >= n_union * num``).

    Ground truth needs ALL true pairs, which is inherently
    pairwise-per-shared-gram work — this evaluator is meant for a
    BOUNDED sample of the corpus (tuning bands/permutations before a
    full run), not the full 100-TB stream; the pairwise emission is
    per-gram (a gram shared by D sample docs costs D^2 rows in its
    bucket) and documented as such.

    Returns ONE row: ``(n_candidates, n_true, n_hits,
    precision_micro, recall_micro)`` — all integers, so the SQL
    oracle (the full MinHash chain + an all-pairs truth self-join)
    compares exactly. ``n_hits`` = candidate pairs that meet the
    threshold = |candidates ∩ truth| (truth contains every pair at or
    above threshold by construction).
    """
    nbu = np.uint64(num_buckets)

    # --- candidates, verified with exact counts (threshold 0 keeps all)
    cands = minhash_dedup_pairs(ds, text_col, id_col, threshold=0.0,
                                **mh_kwargs)

    def cand_partial(batch: pa.Table) -> pa.Table:
        # per-block (count, hits) partials: only two scalars per block
        # reach the driver, never the pair rows (a skewed band's pair
        # explosion stays distributed)
        if batch.num_rows == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "h": pa.array([0], pa.int64())})
        ni = batch["n_inter"].to_numpy(zero_copy_only=False)
        nu = batch["n_union"].to_numpy(zero_copy_only=False)
        hits = int((ni * jaccard_den >= nu * jaccard_num).sum())
        return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                         "h": pa.array([hits], pa.int64())})

    from .exchange import collect_refs, hash_bucket_apply

    cparts = [t for t in ray.get(collect_refs(
        cands.map_batches(cand_partial, batch_format="pyarrow",
                          batch_size=None))) if t.num_rows]
    n_cand = sum(int(t["n"].to_numpy().sum()) for t in cparts)
    n_hits = sum(int(t["h"].to_numpy().sum()) for t in cparts)

    # --- ground truth: all-pairs intersections via per-gram emission
    shingle_k = mh_kwargs.get("shingle_k", 5)

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        didx, hashes = doc_gram_hashes(batch[text_col], shingle_k)
        gb = (_mix64(hashes) % nbu).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[didx], pa.int64()),
            "h": pa.array(hashes, pa.uint64()),
            "_gb": pa.array(gb),
        })

    def per_gram_pairs(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("_pb", pa.int64()), ("ia", pa.int64()),
                         ("ib", pa.int64()), ("c", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        h = tbl["h"].to_numpy(zero_copy_only=False)
        d = tbl["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, h))
        hs, ds_ = h[order], d[order]
        new = np.ones(len(hs), bool)
        new[1:] = hs[1:] != hs[:-1]
        starts = np.flatnonzero(new)
        bounds = np.append(starts, len(hs))
        ia_parts, ib_parts = [], []
        for i in range(len(starts)):
            run = ds_[bounds[i]:bounds[i + 1]]
            if len(run) < 2:
                continue
            ii, jj = np.triu_indices(len(run), k=1)
            ia_parts.append(run[ii])
            ib_parts.append(run[jj])
        if not ia_parts:
            return sch.empty_table()
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        key = _mix64(ia.astype(np.uint64) * _PHI
                     ^ ib.astype(np.uint64))
        # fold this bucket's pair counts before the exchange
        order2 = np.lexsort((ib, ia))
        ia, ib = ia[order2], ib[order2]
        new2 = np.ones(len(ia), bool)
        new2[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
        s2 = np.flatnonzero(new2)
        cnt = np.diff(np.append(s2, len(ia)))
        ia, ib = ia[s2], ib[s2]
        pb = (key[order2][s2] % nbu).astype(np.int64)
        return pa.table({
            "_pb": pa.array(pb, pa.int64()),
            "ia": pa.array(ia, pa.int64()),
            "ib": pa.array(ib, pa.int64()),
            "c": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    # per-doc distinct gram counts (the |A| side) -> tiny driver LUT
    def sizes(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        didx, _ = doc_gram_hashes(batch[text_col], shingle_k)
        cnt = np.bincount(didx, minlength=len(ids)).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "ns": pa.array(cnt, pa.int64())})

    sz_tbls = ray.get(collect_refs(ds.select_columns([id_col, text_col])
                                   .map_batches(sizes, batch_format="pyarrow",
                                                batch_size=None)))
    lut: dict = {}
    for t in sz_tbls:
        for i, n in zip(t["doc_id"].to_pylist(), t["ns"].to_pylist()):
            lut[i] = lut.get(i, 0) + n
    lut_ref = ray.put(lut)
    num, den = jaccard_num, jaccard_den

    def finish(tbl: pa.Table) -> pa.Table:
        from ..pipelines.frontier import _get_broadcast

        sch = pa.schema([("n", pa.int64())])
        if tbl.num_rows == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        sz = _get_broadcast(lut_ref)
        ia = tbl["ia"].to_numpy(zero_copy_only=False)
        ib = tbl["ib"].to_numpy(zero_copy_only=False)
        c = tbl["c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ib, ia))
        ia, ib, c = ia[order], ib[order], c[order]
        new = np.ones(len(ia), bool)
        new[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
        starts = np.flatnonzero(new)
        ni = np.add.reduceat(c, starts)
        pia, pib = ia[starts], ib[starts]
        sa = np.array([sz[i] for i in pia], np.int64)
        sb = np.array([sz[i] for i in pib], np.int64)
        nu = sa + sb - ni
        true = int((ni * den >= nu * num).sum())
        return pa.table({"n": pa.array([true], pa.int64())})

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        emit, batch_format="pyarrow", batch_size=None)
    emitted = hash_bucket_apply(pairs, "_gb", per_gram_pairs,
                                num_buckets=num_buckets)
    counted = hash_bucket_apply(emitted, "_pb", finish,
                                num_buckets=num_buckets)
    n_true = sum(t["n"].to_pylist()[0] if t.num_rows else 0
                 for t in ray.get(collect_refs(counted)))

    return pa.table({
        "n_candidates": pa.array([n_cand], pa.int64()),
        "n_true": pa.array([n_true], pa.int64()),
        "n_hits": pa.array([n_hits], pa.int64()),
        "precision_micro": pa.array(
            [n_hits * 1_000_000 // max(n_cand, 1)], pa.int64()),
        "recall_micro": pa.array(
            [n_hits * 1_000_000 // max(n_true, 1)], pa.int64()),
    })


def shingle_novelty(old: ray.data.Dataset, new: ray.data.Dataset, *,
                    text_col: str = "text", id_col: str = "url",
                    k: int = 3, num_buckets: int = 32
                    ) -> ray.data.Dataset:
    """Cross-crawl shingle novelty — per NEW document, how much of its
    word-``k``-gram set was already present anywhere in the OLD crawl.

    ``crawl_delta`` answers "which urls changed" at digest granularity;
    this answers the incremental-crawl budgeting question underneath
    it: *how much genuinely new text does a recrawl bring* (near-zero
    novelty -> the host's change rate is cosmetic boilerplate churn;
    high novelty -> spend fetch budget there). Returns one row per new
    document that has >= 1 shingle: ``(id, n_shingles, n_seen)`` with
    ``n_shingles`` the distinct-gram count (union across duplicate
    ids) and ``n_seen`` how many of those grams exist in the old side.

    Dataflow: per block, distinct gram rows fold BEFORE any exchange
    (text never shuffles; grams travel as 64-bit hashes — a collision
    flips one gram's novelty, negligible at 64 bits; the SQL oracle
    counts the same strings). One gram-bucket exchange marks each new
    (id, gram) row against the old side's distinct gram set — all
    copies of a gram land in one bucket, so membership is exact — and
    folds to per-id partial counts; one id-bucket exchange sums them.
    Both exchanges carry only narrow post-fold streams.
    """
    from .exchange import hash_bucket_apply

    nbu = np.uint64(num_buckets)

    def gram_rows(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            import os

            os.environ.setdefault("POLARS_MAX_THREADS", "1")
            import polars as pl

            from ..canon import hash64_batch

            sch = pa.schema([("g", pa.uint64()), ("doc", pa.string()),
                             ("side", pa.int8()), ("_b", pa.int64())])
            if batch.num_rows == 0:
                return sch.empty_table()
            df = pl.DataFrame({
                "doc": pl.from_arrow(
                    batch[id_col].combine_chunks().cast(pa.string())),
                "t": pl.from_arrow(batch[text_col].combine_chunks()),
            }).with_columns(
                w=pl.col("t").cast(pl.String).fill_null("")
                .str.to_lowercase().str.extract_all(r"\w+")).drop("t")
            df = df.filter(pl.col("w").list.len() >= k)
            if not len(df):
                return sch.empty_table()
            n = pl.col("w").list.len() - (k - 1)
            df = df.with_columns(
                **{"w%d" % j: pl.col("w").list.slice(j, n)
                   for j in range(k)}).drop("w")
            ex = (df.explode(["w%d" % j for j in range(k)])
                  .with_columns(gram=pl.concat_str(
                      [pl.col("w%d" % j) for j in range(k)],
                      separator=" ")))
            if side == 0:
                grams = ex.select("gram").unique()["gram"].to_arrow()
                h = hash64_batch(grams)
                doc = pa.array([""] * len(h), pa.string())
            else:
                dd = ex.select("doc", "gram").unique()
                h = hash64_batch(dd["gram"].to_arrow())
                doc = dd["doc"].to_arrow().cast(pa.string())
                # distinct (doc, gram-hash) — two grams colliding
                # within one doc would double-count; fold on the hash
                tmp = pa.table({"g": pa.array(h, pa.uint64()),
                                "doc": doc})
                import polars as _pl

                tmp = _pl.from_arrow(tmp).unique()
                h = tmp["g"].to_numpy()
                doc = tmp["doc"].to_arrow().cast(pa.string())
            return pa.table({
                "g": pa.array(h, pa.uint64()),
                "doc": doc,
                "side": pa.array(np.full(len(h), side, np.int8),
                                 pa.int8()),
                "_b": pa.array((h % nbu).astype(np.int64), pa.int64()),
            })
        return fn

    def mark_and_fold(t: pa.Table) -> pa.Table:
        import polars as pl

        from ..canon import hash64_batch

        df = pl.from_arrow(t)
        seen = df.filter(pl.col("side") == 0).select("g").unique()
        nw = (df.filter(pl.col("side") == 1)
              .select("doc", "g").unique()
              .join(seen.with_columns(hit=pl.lit(1, pl.Int64)),
                    on="g", how="left")
              .with_columns(hit=pl.col("hit").fill_null(0)))
        part = (nw.group_by("doc")
                .agg(n_part=pl.len().cast(pl.Int64),
                     seen_part=pl.col("hit").sum()))
        if not part.height:
            return pa.table({
                "doc": pa.array([], pa.string()),
                "n_part": pa.array([], pa.int64()),
                "seen_part": pa.array([], pa.int64()),
                "_b2": pa.array([], pa.int64())})
        out = part.to_arrow()
        h = hash64_batch(out["doc"].combine_chunks())
        return out.append_column(
            "_b2", pa.array((h % nbu).astype(np.int64), pa.int64()))

    def sum_per_doc(t: pa.Table) -> pa.Table:
        import polars as pl

        agg = (pl.from_arrow(t).group_by("doc")
               .agg(n_shingles=pl.col("n_part").sum(),
                    n_seen=pl.col("seen_part").sum()))
        return agg.rename({"doc": id_col}).to_arrow()

    rows = (old.map_batches(gram_rows(0), batch_format="pyarrow",
                            batch_size=None)
            .union(new.map_batches(gram_rows(1), batch_format="pyarrow",
                                   batch_size=None)))
    parts = hash_bucket_apply(rows, "_b", mark_and_fold,
                              num_buckets=num_buckets)
    return hash_bucket_apply(parts, "_b2", sum_per_doc,
                             num_buckets=num_buckets)
