"""Dedup family over a corpus with planted near/exact duplicates."""

import numpy as np
import pytest
import ray.data

from cdx_toolkit_ray.stages import dedup as dd

pytestmark = pytest.mark.usefixtures("ray_session")

BASE = ("the quick brown fox jumps over the lazy dog while the cat "
        "watches from the warm windowsill in the afternoon sun light")


@pytest.fixture(scope="module")
def corpus():
    rows = []
    for i in range(40):
        rows.append({"doc_id": i, "text": "unique document number %d with "
                     "content words alpha beta gamma delta %d" % (i, i * 7)})
    # exact dup pair
    rows.append({"doc_id": 100, "text": BASE})
    rows.append({"doc_id": 101, "text": BASE})
    # near dup: one word changed
    rows.append({"doc_id": 102, "text": BASE.replace("lazy", "sleepy")})
    # unrelated long doc
    rows.append({"doc_id": 103, "text": " ".join("w%d" % j for j in range(60))})
    return ray.data.from_items(rows)


def test_exact_dedup(corpus):
    out = dd.exact_dedup(corpus, key_col="text", id_col="doc_id")
    ids = sorted(r["doc_id"] for r in out.take_all())
    assert 100 in ids and 101 not in ids  # min id wins
    assert len(ids) == corpus.count() - 1


def test_minhash_finds_planted_dups(corpus):
    pairs = dd.minhash_dedup_pairs(corpus, threshold=0.5, num_perm=64,
                                   bands=16, shingle_k=3)
    got = {(r["id_a"], r["id_b"]) for r in pairs.take_all()}
    assert (100, 101) in got          # exact dup pair found
    assert any(a in (100, 101) and b == 102 or a == 102
               for a, b in got)       # near-dup found
    # no false positives among the unique docs
    for a, b in got:
        assert a >= 100 and b >= 100


def test_jaccard_kernel():
    assert dd.jaccard(BASE, BASE, 3) == 1.0
    assert dd.jaccard(BASE, "totally different words here", 3) == 0.0
    j = dd.jaccard(BASE, BASE.replace("lazy", "sleepy"), 3)
    assert 0.5 < j < 1.0


def test_simhash_near_dups(corpus):
    sigs = {r["doc_id"]: r["simhash"] for r in
            corpus.map_batches(dd.make_simhash_stage("text"),
                               batch_format="pyarrow").take_all()}
    assert sigs[100] == sigs[101]
    assert dd.hamming64(sigs[100], sigs[102]) <= 12
    assert dd.hamming64(sigs[100], sigs[103]) > 12


def test_embedding_neardup():
    rng = np.random.RandomState(3)
    vecs = rng.normal(size=(30, 16)).astype(np.float32)
    vecs[7] = vecs[3] + rng.normal(scale=0.01, size=16)  # planted near-dup
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(30)]
    ds = ray.data.from_items(rows)
    pairs = dd.embedding_neardup_pairs(ds, dim=16, n_planes=6,
                                       threshold=0.98)
    got = {(int(r["id_a"]), int(r["id_b"])) for r in pairs.take_all()}
    assert (3, 7) in got
    for a, b in got:
        assert (a, b) == (3, 7)  # nothing else is that similar


def test_minhash_signature_properties(corpus):
    sigs = corpus.map_batches(dd.make_minhash_stage("text", 64, 3),
                              batch_format="pyarrow").take_all()
    by_id = {r["doc_id"]: np.array(r["minhash"], dtype=np.uint64)
             for r in sigs}
    assert (by_id[100] == by_id[101]).all()
    frac = (by_id[100] == by_id[102]).mean()
    assert 0.4 < frac <= 1.0   # minhash agreement approximates jaccard
    assert (by_id[0] == by_id[103]).mean() < 0.2  # disjoint vocabularies


def test_minhash_skewed_corpus_distributed():
    """1k identical docs: every band bucket holds the whole corpus.
    The pre-round-2 implementation collected the candidate pair list
    and a per-member dict onto the driver; the distributed verify must
    produce the full anchor-pair set (doc 0 vs every other) with
    jaccard 1.0, entirely through Dataset joins."""
    import pandas as pd

    from cdx_toolkit_ray.stages.dedup import minhash_dedup_pairs

    n = 1000
    docs = pd.DataFrame({
        "doc_id": range(n),
        "text": ["alpha beta gamma delta epsilon zeta eta theta"] * n,
    })
    out = minhash_dedup_pairs(ray.data.from_pandas(docs),
                              threshold=0.99).to_pandas()
    assert len(out) == n - 1
    assert (out.id_a == 0).all()
    assert sorted(out.id_b) == list(range(1, n))
    assert (out.jaccard == 1.0).all()


def _serial_first_wins(keys, prio, order):
    """Reference: per key, the row with the smallest (priority,
    seed_order) and how many other rows share the key."""
    best: dict = {}
    rows: dict = {}
    for k, p, s in zip(keys.tolist(), prio.tolist(), order.tolist()):
        rows[k] = rows.get(k, 0) + 1
        if k not in best or (p, s) < best[k]:
            best[k] = (p, s)
    return {s: rows[k] - 1 for k, (_, s) in best.items()}


def test_first_wins_dedup_matches_serial_reference():
    """One hash-routed round over 12 blocks whose uint64 keys all have
    the top bit set keeps, per key, the min (priority, seed_order) row
    (seed_order breaks priority ties, not arrival order) and counts
    the other rows exactly; derive_fn runs once per row; an empty
    input gives no rows."""
    import pyarrow as pa

    rng = np.random.default_rng(11)
    n, blocks = 12_000, 12
    key = rng.integers(0, 1_500, n)
    k64 = (key.astype(np.uint64) * np.uint64(2654435761)) \
        | np.uint64(1 << 63)
    prio = rng.integers(0, 3, n)
    order = rng.permutation(n)
    want = _serial_first_wins(k64, prio, order)
    ties = {}
    for k, p in zip(k64.tolist(), prio.tolist()):
        ties.setdefault(k, []).append(p)
    assert sum(v.count(min(v)) > 1 for v in ties.values()) > 100

    def block(i, cols):
        return pa.table({c: v[i::blocks] for c, v in cols.items()})

    cols = {"k": k64, "priority": prio, "seed_order": order}
    out = dd.first_wins_dedup(
        ray.data.from_arrow([block(i, cols) for i in range(blocks)]),
        "k", [("priority", 19), ("seed_order", 44)]).to_pandas()
    assert list(out.columns) == ["k", "priority", "seed_order",
                                 "n_dup_dropped"]
    assert (out["k"] >= np.uint64(1 << 63)).all()
    assert dict(zip(out["seed_order"], out["n_dup_dropped"])) == want

    # derive_fn: the key column is derived in the streaming pass
    def derive(batch: pa.Table) -> pa.Table:
        raw = batch["raw"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "k", pa.array((raw.astype(np.uint64) * np.uint64(2654435761))
                          | np.uint64(1 << 63)))

    raw = {"raw": key, "priority": prio, "seed_order": order}
    out = dd.first_wins_dedup(
        ray.data.from_arrow([block(i, raw) for i in range(blocks)]),
        "k", [("priority", 19), ("seed_order", 44)],
        derive_fn=derive).to_pandas()
    assert list(out.columns) == ["raw", "priority", "seed_order", "k",
                                 "n_dup_dropped"]
    assert dict(zip(out["seed_order"], out["n_dup_dropped"])) == want

    empty = pa.table({"k": pa.array([], pa.uint64()),
                      "priority": pa.array([], pa.int64()),
                      "seed_order": pa.array([], pa.int64())})
    assert dd.first_wins_dedup(ray.data.from_arrow(empty), "k",
                               [("priority", 19), ("seed_order", 44)]
                               ).count() == 0


@pytest.mark.parametrize("derive", [False, True])
def test_first_wins_dedup_invariant_under_round_plan(monkeypatch, derive):
    """first_wins_dedup gives byte-identical winners (in key order)
    whether the round plan is 1, 2 or 4 split tasks and buckets."""
    import pyarrow as pa

    from cdx_toolkit_ray.stages import exchange

    rng = np.random.default_rng(5)
    n, blocks = 6_000, 7
    key = rng.integers(0, 900, n).astype(np.uint64)
    cols = {"raw" if derive else "k": key,
            "priority": rng.integers(0, 3, n),
            "seed_order": rng.permutation(n)}

    def mix(batch: pa.Table) -> pa.Table:
        raw = batch["raw"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "k", pa.array(raw * np.uint64(2654435761)))

    outs = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(exchange, "_cluster_cpus", lambda c=cpus: c)
        ds = ray.data.from_arrow(
            [pa.table({c: v[i::blocks] for c, v in cols.items()})
             for i in range(blocks)])
        out = dd.first_wins_dedup(ds, "k", [("priority", 19),
                                            ("seed_order", 44)],
                                  derive_fn=mix if derive else None)
        t = pa.concat_tables(ray.get(out.to_arrow_refs()))
        outs.append(t.sort_by("k").combine_chunks())
    assert outs[0].num_rows == len(np.unique(key))
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])


def test_minhash_pairs_empty_candidates_short_circuit():
    """A corpus shard with ZERO LSH candidates must return a typed
    empty pair table, not crash the membership join (Ray's hash join
    cannot take a fully-empty side)."""
    rows = [{"doc_id": i,
             "text": "totally distinct subject %d covering topic %d "
                     "with vocabulary %d %d" % (i, i * 3, i * 7, i * 11)}
            for i in range(20)]
    out = dd.minhash_dedup_pairs(ray.data.from_items(rows),
                                 text_col="text", id_col="doc_id",
                                 threshold=0.5)
    assert out.schema().names == ["id_a", "id_b", "jaccard",
                                  "n_inter", "n_union"]
    assert out.count() == 0


def test_corpus_clean_composite(corpus):
    """Gate -> exact dedup -> near-dup anti-join end to end: the exact
    duplicate keeps its min id, the near-duplicate of the surviving
    anchor is dropped, short gibberish rows never pass the gate."""
    from cdx_toolkit_ray.pipelines.corpus import corpus_clean

    extra = ray.data.from_items(
        [{"doc_id": 200, "text": "tiny"},                  # fails gate
         {"doc_id": 201, "text": " ".join(["zz"] * 40)}])  # no stopwords
    ds = corpus.union(extra)
    out = corpus_clean(ds, min_tokens=10, stopword_pct=5,
                       jaccard_threshold=0.5).to_pandas()
    ids = set(out["doc_id"])
    assert 100 in ids          # exact-dup winner (min id)
    assert 101 not in ids      # exact-dup loser
    assert 102 not in ids      # near-dup of 100 (one word changed)
    assert 200 not in ids and 201 not in ids   # gated
    # the generic 40 docs have no stopwords -> gated out too
    assert ids == {100}


def test_corpus_clean_join_fallback_matches_broadcast(corpus,
                                                      monkeypatch):
    """Forcing the distributed left_anti path (broadcast budget = 0)
    must produce the same survivors as the broadcast anti filter."""
    from cdx_toolkit_ray.pipelines import corpus as cmod

    want = cmod.corpus_clean(corpus, min_tokens=10, stopword_pct=5,
                             jaccard_threshold=0.5).to_pandas()
    monkeypatch.setattr(cmod, "_DROP_BROADCAST_MAX", 0)
    got = cmod.corpus_clean(corpus, min_tokens=10, stopword_pct=5,
                            jaccard_threshold=0.5).to_pandas()
    key = ["doc_id", "n_tokens_ws", "n_chars_actual"]
    assert sorted(map(tuple, got[key].values.tolist())) == \
        sorted(map(tuple, want[key].values.tolist()))


def test_corpus_clean_never_calls_limit(corpus, monkeypatch):
    """corpus_clean's near-dup victims reach the driver through one
    materialized collect: no implicit ``limit(1)`` schema probe runs."""
    from cdx_toolkit_ray.pipelines.corpus import corpus_clean

    def boom(*a, **k):
        raise AssertionError("Dataset.limit called")

    monkeypatch.setattr(ray.data.Dataset, "limit", boom)
    out = corpus_clean(corpus, min_tokens=10, stopword_pct=5,
                       jaccard_threshold=0.5).take_all()
    assert {r["doc_id"] for r in out} == {100}


def test_minhash_lsh_eval_metrics():
    """Constructed corpus: identical docs are always true AND caught
    (J=1 collides in every band); disjoint docs are neither."""
    _check_lsh_eval_metrics()


def test_minhash_lsh_eval_never_calls_limit(monkeypatch):
    """The LSH eval collects its per-block partials from materialized
    Datasets: no implicit ``limit(1)`` schema probe (whose cancel of
    in-flight tasks can abort the driver) runs."""
    def boom(*a, **k):
        raise AssertionError("Dataset.limit called")

    monkeypatch.setattr(ray.data.Dataset, "limit", boom)
    _check_lsh_eval_metrics()


def _check_lsh_eval_metrics():
    import pandas as pd

    from cdx_toolkit_ray.stages.dedup import minhash_lsh_eval

    dup = ("the quick brown fox jumps over the lazy dog again and "
           "again with vigor and delight every single day")
    rows = [{"doc_id": 1, "text": dup}, {"doc_id": 2, "text": dup}]
    for i in range(3, 23):
        rows.append({"doc_id": i,
                     "text": " ".join("tok%d_%d" % (i, j)
                                      for j in range(30))})
    out = minhash_lsh_eval(ray.data.from_pandas(pd.DataFrame(rows)),
                           jaccard_num=1, jaccard_den=2).to_pandas()
    r = out.iloc[0]
    assert r.n_true == 1                       # only the identical pair
    assert r.n_hits == 1                       # and LSH caught it
    assert r.recall_micro == 1_000_000
    assert r.n_candidates >= 1
    assert r.precision_micro == 1_000_000 * r.n_hits // r.n_candidates


def test_containment_pairs_quote_vs_jaccard():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.dedup import containment_pairs

    short = "the quick brown fox jumps over the lazy dog tonight"
    long_quote = (short + " and then a very long unrelated tail about "
                  "ships sailing across wide oceans under bright "
                  "summer stars while nobody watches the horizon")
    other = "completely different words about database engines and "\
            "vectorized execution over arrow batches in a cluster"
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([short, long_quote, other], pa.string()),
    }))
    df = containment_pairs(ds, k=3, threshold_pct=80,
                           min_shared=2).to_pandas()
    got = {(r.doc_a, r.doc_b): r for r in df.itertuples()}
    assert (1, 2) in got
    r = got[(1, 2)]
    n_short = len(short.split()) - 2
    assert r.n_shared == n_short and r.n_a == n_short
    assert r.contained            # 100% of the smaller side
    # Jaccard of the same pair is low — the asymmetric measure wins
    assert 100 * r.n_shared < 80 * (r.n_a + r.n_b - r.n_shared)
    assert (1, 3) not in got and (2, 3) not in got


def test_containment_boilerplate_cap_and_min_shared():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.dedup import containment_pairs

    # 8 docs all sharing one boilerplate trigram + one genuine pair
    boiler = "copyright footer text"
    rows = [(i, boiler + " unique%d filler%d words%d here%d" % (i, i, i, i))
            for i in range(8)]
    rows += [(100, "alpha beta gamma delta epsilon"),
             (101, "alpha beta gamma delta epsilon")]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))
    # cap=4: the boilerplate gram (8 docs) is dropped; docs 0-7 share
    # nothing else (>= min_shared=2), so only the genuine pair remains
    df = containment_pairs(ds, k=3, threshold_pct=80, min_shared=2,
                           max_docs_per_gram=4).to_pandas()
    assert set(zip(df.doc_a, df.doc_b)) == {(100, 101)}
    assert bool(df.contained.iloc[0])


def test_shingle_novelty_counts_and_union_of_duplicate_ids():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.dedup import shingle_novelty

    old = ray.data.from_arrow(pa.table({
        "url": pa.array(["o1"], pa.string()),
        "text": pa.array(["alpha beta gamma delta"], pa.string())}))
    # grams(old) = {alpha beta gamma, beta gamma delta}
    new = ray.data.from_arrow(pa.table({
        "url": pa.array(["n1", "n1", "n2", "tiny"], pa.string()),
        "text": pa.array([
            "alpha beta gamma x",          # grams: abg, bgx, gx? -> 2 grams: abg(seen), "beta gamma x"
            "beta gamma delta",            # dup id n1: adds bgd(seen)
            "zeta eta theta",              # all novel
            "two words",                   # < 3 words: no output row
        ], pa.string())}))
    df = shingle_novelty(old, new, k=3, num_buckets=4).to_pandas()
    got = {r.url: (r.n_shingles, r.n_seen) for r in df.itertuples()}
    # n1 union grams: {alpha beta gamma, beta gamma x, beta gamma delta}
    assert got["n1"] == (3, 2)
    assert got["n2"] == (1, 0)
    assert "tiny" not in got


def test_simhash_hamming_pairs_exact_and_capped():
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.dedup import (hamming64,
                                              make_simhash_stage,
                                              simhash_hamming_pairs)

    texts = {
        1: "the quick brown fox jumps over the lazy dog today",
        2: "the quick brown fox jumps over the lazy dog tonight",
        3: "completely different words about maritime navigation law",
        4: "the quick brown fox jumps over the lazy dog today",  # = 1
    }
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
    }))
    got = simhash_hamming_pairs(ds, max_hamming=3).to_pandas()
    pairs = {(r.id_a, r.id_b): r.hamming for r in got.itertuples()}

    # brute-force truth over the same signatures
    sigs = ds.map_batches(make_simhash_stage("text"),
                          batch_format="pyarrow").to_pandas()
    sh = dict(zip(sigs.doc_id, sigs.simhash))
    truth = {(a, b): hamming64(int(sh[a]), int(sh[b]))
             for a in sh for b in sh if a < b
             and hamming64(int(sh[a]), int(sh[b])) <= 3}
    assert pairs == truth
    assert pairs[(1, 4)] == 0           # identical docs
    assert (1, 3) not in pairs          # unrelated docs are far

    # max_group cap drops boilerplate blocks entirely (all four docs
    # identical -> every block over a cap of 3 -> no pairs)
    ds_boiler = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([texts[1]] * 4, pa.string()),
    }))
    capped = simhash_hamming_pairs(ds_boiler, max_group=3).to_pandas()
    assert len(capped) == 0


def test_pair_size_attach_holds_no_driver_state():
    """The 100-TB contract for the pair/size operators: per-doc set
    sizes must travel as rows inside the exchanges, never as a
    driver-materialized dict (``take_all``) or an O(docs) ``ray.put``
    broadcast. Grep-able guard per VERDICT r3 finding #1."""
    import inspect

    from cdx_toolkit_ray.stages.cdc import cdc_neardup_pairs
    from cdx_toolkit_ray.stages.dedup import (containment_pairs,
                                              shared_key_pairs_with_sizes)
    from cdx_toolkit_ray.stages.hosts import mirror_hosts

    for fn in (containment_pairs, cdc_neardup_pairs, mirror_hosts,
               shared_key_pairs_with_sizes):
        src = inspect.getsource(fn)
        assert "take_all" not in src, fn.__name__
        assert "ray.put" not in src and "_ray.put" not in src, fn.__name__
        assert "to_pandas" not in src, fn.__name__


def test_shared_key_pairs_with_sizes_matches_bruteforce():
    """Distributed 3-exchange size attach == brute-force set math on a
    corpus whose docs span multiple input blocks (exercises the
    cross-block distinct fold and cross-bucket size partials)."""
    import itertools

    import pyarrow as pa
    import ray

    from cdx_toolkit_ray.stages.dedup import (_word_shingle_set,
                                              containment_pairs)

    texts = {
        1: "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        2: "alpha beta gamma delta epsilon zeta eta theta iota kappa "
           "lamda mu nu xi omicron pi rho sigma tau upsilon",
        3: "one two three four five six seven eight nine ten",
        4: "alpha beta gamma delta epsilon zeta unrelated closing words",
        5: "one two three four five six seven eight nine ten "
           "eleven twelve",
    }
    tbl = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
    })
    # force many tiny blocks so (gram, doc) partials split across them
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = containment_pairs(ds, k=3, threshold_pct=80, min_shared=2,
                            num_buckets=7).to_pandas()
    got_map = {(r.doc_a, r.doc_b): (r.n_shared, r.n_a, r.n_b, r.contained)
               for r in got.itertuples()}

    sets = {d: _word_shingle_set(t, 3) for d, t in texts.items()}
    want = {}
    for a, b in itertools.combinations(sorted(texts), 2):
        sh = len(sets[a] & sets[b])
        if sh >= 2:
            na, nb = len(sets[a]), len(sets[b])
            want[(a, b)] = (sh, na, nb,
                            100 * sh >= 80 * min(na, nb))
    assert got_map == want
