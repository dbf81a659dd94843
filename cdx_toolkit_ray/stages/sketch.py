"""Frequency sketches: exact heavy hitters without a full groupby.

The frontier's politeness stage salts hot hosts — but finding WHICH
keys are hot is itself a wide query, and the naive answer (groupby the
whole key column) shuffles every row to count keys that overwhelmingly
occur once. This module implements the standard two-pass exact
heavy-hitters scheme (Misra-Gries 1982 candidates + an exact verify
restricted to them), which never shuffles the raw stream:

1. **Candidate pass** (zero shuffle): every block runs a vectorized
   Misra-Gries summary with ``m`` counters — by the MG guarantee, any
   key with block count > block_rows/(m+1) survives the block's
   summary, so summing over blocks any key with GLOBAL count >
   n/(m+1) survives in at least one block. With ``m >= 1/phi`` the
   candidate set provably contains every key of frequency >= phi.
   The candidate union is bounded by blocks x m keys (driver-side,
   like the IVF codebook sample — NOT proportional to rows).
2. **Verify pass** (zero shuffle + one tiny reduce): the sorted
   candidate array is broadcast via ``ray.put``; each block counts
   ONLY candidate keys (searchsorted + bincount), and a hash exchange
   over the candidate keys (bounded above) sums the partials and
   applies the threshold. Counts are exact, not estimates.

Vectorized MG per block: one np.unique count of the block (exact
within a block) followed by a top-(m) cut is a valid MG summary — it
dominates the streaming variant's counts, so the containment guarantee
carries over while staying a single vectorized pass.

At 10^10 rows / 32-byte keys and m=1024, blocks of 1M rows produce a
10^4-block x 1024-key candidate pool (~10M keys worst case, deduped on
the driver) — bounded by parallelism, not data; phi-scale thresholds
keep m small. For *estimated* counts of NON-heavy keys use a count-min
sketch instead; exactness for the heavy tail is the point here.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _block_candidates(key_col: str, m: int):
    """Per-block top-m-by-count summary (a dominating MG summary)."""

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({key_col: batch[key_col]})
        counts = pc.value_counts(batch[key_col].combine_chunks())
        vals, cnts = counts.field("values"), counts.field("counts")
        if len(vals) > m:
            order = pc.select_k_unstable(
                pa.table({"c": cnts}), m, [("c", "descending")])
            vals = vals.take(order)
        return pa.table({key_col: vals})

    return fn


def heavy_hitters(ds: ray.data.Dataset, key_col: str, *,
                  threshold: int | None = None, phi: float | None = None,
                  num_counters: int | None = None,
                  count_col: str = "n_rows",
                  num_buckets: int = 16) -> ray.data.Dataset:
    """Exact (key, count) for every key with count >= threshold.

    Exactly one of ``threshold`` (absolute count) or ``phi`` (fraction
    of total rows; threshold = ceil(phi * n)) must be given.
    ``num_counters`` defaults to the smallest m honoring the MG
    containment guarantee for the requested threshold and may be
    raised to shrink the candidate pool's false-positive share.
    """
    if (threshold is None) == (phi is None):
        raise ValueError("give exactly one of threshold= or phi=")
    if phi is not None or num_counters is None:
        # n is needed only to derive threshold/m; with both given,
        # skip the count() so the (possibly unmaterialized) input
        # executes twice, not three times
        n = ds.count()
    if phi is not None:
        if not (0 < phi <= 1):
            raise ValueError("phi must be in (0, 1]")
        threshold = max(1, math.ceil(phi * n))
    # MG guarantee needs global_count > n/(m+1) => m >= n/threshold
    m = num_counters or (max(1, math.ceil(n / max(threshold, 1)))
                         if n else 1)

    cands = ds.select_columns([key_col]).map_batches(
        _block_candidates(key_col, m), batch_format="pyarrow",
        batch_size=None)
    # bounded: <= blocks x m keys, deduped here (the one driver-side
    # structure, same budget class as the IVF codebook sample)
    from .exchange import collect_refs

    cand_tbl = pa.concat_tables(
        ray.get(collect_refs(cands))).combine_chunks()
    uniq = pc.unique(cand_tbl[key_col]).sort()
    if len(uniq) == 0:
        return ray.data.from_arrow(pa.table(
            {key_col: uniq, count_col: pa.array([], pa.int64())}))
    cref = ray.put(uniq)

    def partial_counts(batch: pa.Table) -> pa.Table:
        cand = ray.get(cref)
        idx = pc.index_in(batch[key_col].combine_chunks(), cand)
        valid = idx.drop_null().to_numpy(zero_copy_only=False)
        if len(valid) == 0:
            return pa.table({key_col: cand.slice(0, 0),
                             count_col: pa.array([], pa.int64())})
        bc = np.bincount(valid, minlength=len(cand))
        nz = np.flatnonzero(bc)
        return pa.table({key_col: cand.take(pa.array(nz)),
                         count_col: pa.array(bc[nz].astype(np.int64))})

    partials = ds.select_columns([key_col]).map_batches(
        partial_counts, batch_format="pyarrow", batch_size=None)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = pc.cast(pc.index_in(batch[key_col].combine_chunks(),
                                ray.get(cref)), pa.int64())
        return batch.append_column(
            "_hb", pc.cast(pc.bit_wise_and(h, num_buckets - 1)
                           if (num_buckets & (num_buckets - 1)) == 0
                           else pa.array(h.to_numpy(zero_copy_only=False)
                                         % num_buckets), pa.int64()))

    thr = threshold

    def reduce_bucket(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({key_col: tbl[key_col],
                             count_col: pa.array([], pa.int64())})
        g = tbl.group_by(key_col).aggregate([(count_col, "sum")])
        total = g[count_col + "_sum"]
        keep = pc.greater_equal(total, thr)
        g = g.filter(keep)
        return pa.table({key_col: g[key_col],
                         count_col: pc.cast(g[count_col + "_sum"],
                                            pa.int64())})

    from .exchange import hash_bucket_apply

    partials = partials.map_batches(add_bucket, batch_format="pyarrow",
                                    batch_size=None)
    return hash_bucket_apply(partials, "_hb", reduce_bucket,
                             num_buckets=num_buckets)


# --------------------------------------------------------------------------
# Count-min sketch: mergeable approximate frequencies
# --------------------------------------------------------------------------
#
# The complement of the exact heavy-hitters pass above: O(depth x width)
# memory for an ESTIMATE of every key's count (one-sided error — never
# an underestimate; overestimate <= 2n/width with prob 1 - 2^-depth,
# Cormode & Muthukrishnan 2005). Build is per-block partial matrices
# summed by a binary task tree (the bloom.py pattern); the driver holds
# only refs until the final depth x width matrix (KBs).
#
# The sketch is DETERMINISTIC given (seed, width, depth) — row j's cell
# for key k is splitmix64(k + C_j) % width with C_j drawn once from the
# seeded RNG — so its estimates are exactly reproducible in SQL: the
# oracle replicates the same cell sums and min-over-rows, making this
# an approximate operator with a hash-matchable oracle.

def cm_salts(depth: int, seed: int) -> np.ndarray:
    """The per-row mixing constants (inlined into the SQL oracle)."""
    rng = np.random.RandomState(seed)
    return rng.randint(1, 2 ** 62, size=depth).astype(np.uint64)


def _cm_cells(keys: np.ndarray, salts: np.ndarray,
              width: int) -> np.ndarray:
    """(len(keys), depth) cell indices; uint64 wrap-around add."""
    from .dedup import _mix64

    k = keys.astype(np.uint64)
    return np.stack([(_mix64(k + s) % np.uint64(width)).astype(np.int64)
                     for s in salts], axis=1)


@ray.remote
def _partial_cm(key_col: str, width: int, salts: np.ndarray, *tbls):
    depth = len(salts)
    m = np.zeros((depth, width), dtype=np.int64)
    for t in tbls:
        if not t.num_rows or key_col not in t.column_names:
            continue
        keys = t[key_col].to_numpy(zero_copy_only=False)
        cells = _cm_cells(keys, salts, width)
        for j in range(depth):
            m[j] += np.bincount(cells[:, j], minlength=width)
    return m


@ray.remote
def _sum_fold(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def count_min_build(ds: ray.data.Dataset, key_col: str, *,
                    width: int = 1024, depth: int = 4,
                    seed: int = 0) -> np.ndarray:
    """Build the depth x width count matrix over an integer key column
    (non-negative for SQL-oracle parity; any int64 works engine-side).
    """
    salts = cm_salts(depth, seed)
    refs = ds.select_columns([key_col]).materialize().to_arrow_refs()
    if not refs:
        return np.zeros((depth, width), dtype=np.int64)
    chunk = max(1, (len(refs) + 31) // 32)
    parts = [_partial_cm.remote(key_col, width, salts,
                                *refs[i:i + chunk])
             for i in range(0, len(refs), chunk)]
    while len(parts) > 1:
        nxt = [_sum_fold.remote(parts[i], parts[i + 1])
               for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return ray.get(parts[0])


def count_min_estimate(matrix: np.ndarray, keys: np.ndarray, *,
                       seed: int = 0) -> np.ndarray:
    """Vectorized point estimates: min over rows of each key's cell."""
    depth, width = matrix.shape
    cells = _cm_cells(np.asarray(keys), cm_salts(depth, seed), width)
    return np.min(matrix[np.arange(depth)[None, :], cells], axis=1)


def count_min_stage(matrix_ref, key_col: str, *, seed: int = 0,
                    out_col: str = "cm_est"):
    """map_batches stage appending the sketch estimate per row —
    the broadcast-read pattern (``ray.put`` the matrix once)."""

    def fn(batch: pa.Table) -> pa.Table:
        m = ray.get(matrix_ref)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        est = count_min_estimate(m, keys)
        return batch.append_column(out_col,
                                   pa.array(est.astype(np.int64)))

    return fn


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (per-group cardinality)
# ---------------------------------------------------------------------------

def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit_length of a uint64 array (0 -> 0): 6-step
    bisection, no float log2 (whose rounding is wrong exactly at the
    power-of-two boundaries that decide an HLL rank)."""
    x = x.astype(np.uint64, copy=True)
    out = np.zeros(x.shape, np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(s))
        out[big] += s
        x[big] >>= np.uint64(s)
    out[x > 0] += 1
    return out


def hll_distinct(ds: ray.data.Dataset, key_col: str, group_col: str, *,
                 p: int = 8, seed: int = 0,
                 num_buckets: int = 16) -> ray.data.Dataset:
    """Per-group HyperLogLog distinct-count estimate (Flajolet et al.
    2007) — the cardinality member of the sketch family (count-min =
    frequencies, bloom = membership, Misra-Gries = heavy hitters):
    "how many distinct users per event type / distinct URLs per host"
    without shuffling one row per distinct key.

    All-integer raw estimator, exactly reproducible in SQL: the key
    hash is the proven seeded chain (FNV-1a of ``"{seed}:{key}"`` ->
    splitmix64 finalizer, stages/sampling._seeded_key + dedup._mix64),
    bucket = top ``p`` hash bits, rank = leading-zero run of the
    remaining bits + 1, and the harmonic estimate is computed in exact
    rational arithmetic: with Rmax = 64 - p + 1 and integer
    T = sum_j 2^(Rmax - M_j) over all m = 2^p registers,

        estimate = alpha_num * m^2 * 2^Rmax  //  (alpha_den * T)

    where alpha_num/alpha_den is the exact rational form of the
    published bias constant 0.7213 / (1 + 1.079/m). The standard
    small-range (linear-counting) correction IS applied: when the raw
    estimate is <= 5m/2 and some register is empty, the estimate is
    ``floor(m * ln(m / n_zero))`` — a float expression, but n_zero
    takes only m possible integer values and both sides (numpy-free
    Python ``math`` here, ``ln`` in DuckDB) evaluate the identical
    double-precision formula on the same libm, so the floor is
    bit-stable in practice and hash-checked at two scales. The
    large-range correction is unnecessary with 64-bit hashing
    (standard practice) and omitted.

    Returns one row per group: ``(group_col, n_zero, rank_sum,
    hll_estimate)`` — ``n_zero``/``rank_sum`` are register-array
    digests that make a mismatch diagnosable.

    Dataflow: each block folds to per-(group, register) maxima BEFORE
    the shuffle (<= groups x m rows per block regardless of block
    size), one group-keyed exchange merges maxima and evaluates the
    estimate. Mergeability of the register max is what makes the
    sketch partition-independent — asserted by tests.
    """
    regs = _hll_partials(ds, key_col, group_col, p=p, seed=seed,
                         num_buckets=num_buckets)
    from .exchange import hash_bucket_apply

    return hash_bucket_apply(regs, "_gb",
                             _hll_estimate_kernel(group_col, p),
                             num_buckets=num_buckets)


def _hll_partials(ds: ray.data.Dataset, key_col: str, group_col: str, *,
                  p: int, seed: int, num_buckets: int) -> ray.data.Dataset:
    """Per-block (grp, register, max-rank) fold, keyed for the group
    exchange — the mergeable state every HLL entry point shares."""
    if not 4 <= p <= 16:
        raise ValueError("p must be in [4, 16]")
    rmax = 64 - p + 1
    nbu = np.uint64(num_buckets)
    from .dedup import _mix64
    from .sampling import _seeded_key

    part_sch = pa.schema([("_gb", pa.int64()), ("grp", pa.string()),
                          ("bidx", pa.int64()), ("mr", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_sch.empty_table()
        g = batch[group_col].to_numpy(zero_copy_only=False)
        h = _mix64(_seeded_key(batch[key_col], seed))
        bidx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h << np.uint64(p)  # wraps mod 2^64: the non-bucket bits
        rank = np.where(w == 0, rmax, 64 - _bit_length_u64(w) + 1) \
            .astype(np.int64)
        # fold to per-(group, register) max before anything moves
        order = np.lexsort((bidx, g))
        gs, bs, rs = g[order], bidx[order], rank[order]
        new = np.ones(len(gs), bool)
        new[1:] = (gs[1:] != gs[:-1]) | (bs[1:] != bs[:-1])
        starts = np.flatnonzero(new)
        mr = np.maximum.reduceat(rs, starts)
        grp = gs[starts].astype(object)
        from ..canon import hash64_batch
        gb = (hash64_batch(grp) % nbu).astype(np.int64)
        return pa.table({
            "_gb": pa.array(gb, pa.int64()),
            "grp": pa.array(grp, pa.string()),
            "bidx": pa.array(bs[starts], pa.int64()),
            "mr": pa.array(mr, pa.int64()),
        })

    return ds.select_columns([key_col, group_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None)


def _hll_fold(tbl: pa.Table) -> pa.Table:
    """Register-level merge: max rank per (grp, bidx)."""
    sch = pa.schema([("grp", pa.string()), ("bidx", pa.int64()),
                     ("mr", pa.int64())])
    if tbl.num_rows == 0:
        return sch.empty_table()
    g = tbl["grp"].to_numpy(zero_copy_only=False)
    b = tbl["bidx"].to_numpy(zero_copy_only=False)
    r = tbl["mr"].to_numpy(zero_copy_only=False)
    order = np.lexsort((b, g))
    gs, bs, rs = g[order], b[order], r[order]
    new = np.ones(len(gs), bool)
    new[1:] = (gs[1:] != gs[:-1]) | (bs[1:] != bs[:-1])
    starts = np.flatnonzero(new)
    return pa.table({
        "grp": pa.array(gs[starts], pa.string()),
        "bidx": pa.array(bs[starts], pa.int64()),
        "mr": pa.array(np.maximum.reduceat(rs, starts), pa.int64()),
    })


def _hll_estimate_kernel(group_col: str, p: int):
    """Exchange kernel: fold registers, evaluate the exact-rational
    estimate (+ linear-counting small-range branch) per group."""
    m = 1 << p
    rmax = 64 - p + 1
    alpha_den = 10000 * (1000 * m + 1079)
    numer = (7213 * 1000 * m) * m * m * (1 << rmax)
    out_sch = pa.schema([(group_col, pa.string()), ("n_zero", pa.int64()),
                         ("rank_sum", pa.int64()),
                         ("hll_estimate", pa.int64())])

    def merge(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_sch.empty_table()
        folded = _hll_fold(tbl)
        gg = folded["grp"].to_numpy(zero_copy_only=False)
        mr = folded["mr"].to_numpy(zero_copy_only=False)
        gnew = np.ones(len(gg), bool)
        gnew[1:] = gg[1:] != gg[:-1]
        gstarts = np.flatnonzero(gnew)
        groups, zeros, sums, ests = [], [], [], []
        bounds = np.append(gstarts, len(gg))
        for i in range(len(gstarts)):
            lo, hi = bounds[i], bounds[i + 1]
            regs = mr[lo:hi]
            n_zero = m - (hi - lo)
            # exact rational estimate (python ints: ~2^105 numerator)
            t = (int(n_zero) << rmax) + int(
                np.sum((np.int64(1) << np.int64(rmax)) >> regs))
            raw = numer // (alpha_den * t)
            if raw <= (5 * m) // 2 and n_zero > 0:
                raw = math.floor(m * math.log(m / n_zero))
            groups.append(gg[lo])
            zeros.append(n_zero)
            sums.append(int(regs.sum()))
            ests.append(raw)
        return pa.table({
            group_col: pa.array(groups, pa.string()),
            "n_zero": pa.array(zeros, pa.int64()),
            "rank_sum": pa.array(sums, pa.int64()),
            "hll_estimate": pa.array(ests, pa.int64()),
        })

    return merge


def hll_registers(ds: ray.data.Dataset, key_col: str, group_col: str, *,
                  p: int = 8, seed: int = 0,
                  num_buckets: int = 16) -> ray.data.Dataset:
    """The sketch STATE as data: one ``(grp, bidx, mr)`` row per
    non-empty register per group — persistable (write_parquet) and
    mergeable (register max), so distinct counts accumulate across
    crawls without re-reading old corpora: union the register tables
    and call :func:`hll_estimate`."""
    regs = _hll_partials(ds, key_col, group_col, p=p, seed=seed,
                         num_buckets=num_buckets)
    from .exchange import hash_bucket_apply

    return hash_bucket_apply(regs, "_gb", _hll_fold,
                             num_buckets=num_buckets)


def hll_estimate(regs: ray.data.Dataset, group_col: str = "event_type",
                 *, p: int = 8,
                 num_buckets: int = 16) -> ray.data.Dataset:
    """Estimates from (a union of) :func:`hll_registers` tables —
    the incremental path: registers(A) U registers(B) estimates
    EXACTLY like one pass over A U B (register max is associative,
    commutative, idempotent; asserted by tests + the oracle)."""
    from ..canon import hash64_batch
    from .exchange import hash_bucket_apply

    nbu = np.uint64(num_buckets)

    def rekey(batch: pa.Table) -> pa.Table:
        sch = pa.schema([("_gb", pa.int64()), ("grp", pa.string()),
                         ("bidx", pa.int64()), ("mr", pa.int64())])
        if batch.num_rows == 0:
            return sch.empty_table()
        gb = (hash64_batch(batch["grp"].combine_chunks())
              % nbu).astype(np.int64)
        return pa.table({
            "_gb": pa.array(gb, pa.int64()),
            "grp": batch["grp"].cast(pa.string()),
            "bidx": batch["bidx"].cast(pa.int64()),
            "mr": batch["mr"].cast(pa.int64()),
        })

    keyed = regs.map_batches(rekey, batch_format="pyarrow",
                             batch_size=None)
    return hash_bucket_apply(keyed, "_gb",
                             _hll_estimate_kernel(group_col, p),
                             num_buckets=num_buckets)


class KLLSketch:
    """Deterministic KLL-style mergeable quantile sketch over int64
    values (Karnin-Lang-Liberty 2016, simplified): each level holds at
    most ``k`` values with weight ``2^level``; an overflowing level is
    sorted and its odd-index survivors promoted (DETERMINISTIC
    compactor — standard KLL flips a coin per compaction; the fixed
    choice keeps the sketch reproducible at the cost of a small
    systematic rank bias, acceptable because the sketch is approximate
    by contract and the exact-degraded twin `kll_quantiles_exact`
    oracle-checks the machinery). Rank error is O(levels/k).

    With ``k`` >= n nothing ever compacts and the sketch IS the exact
    value multiset — quantiles then equal SQL ``quantile_disc`` under
    the corpus rule (stages/textstats.group_quantiles: index
    ``max(0, ceil(q*n)-1)``).

    Completes the sketch family: count-min (frequency), HLL
    (distinct), Misra-Gries (heavy hitters), KLL (quantiles).
    """

    def __init__(self, k: int = 200):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self.levels: list[np.ndarray] = [np.zeros(0, np.int64)]

    def add(self, values: np.ndarray) -> None:
        if not len(values):
            return
        self.levels[0] = np.concatenate(
            [self.levels[0], values.astype(np.int64)])
        self._compress()

    def _compress(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            if len(self.levels[lvl]) > self.k:
                a = np.sort(self.levels[lvl])
                self.levels[lvl] = np.zeros(0, np.int64)
                if lvl + 1 == len(self.levels):
                    self.levels.append(np.zeros(0, np.int64))
                self.levels[lvl + 1] = np.concatenate(
                    [self.levels[lvl + 1], a[1::2]])
            lvl += 1

    def rows(self):
        """(level, value) arrays — the sketch as data, for exchanges."""
        ls, vs = [], []
        for lvl, a in enumerate(self.levels):
            if len(a):
                ls.append(np.full(len(a), lvl, np.int64))
                vs.append(a)
        if not ls:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(ls), np.concatenate(vs)

    @classmethod
    def from_rows(cls, levels: np.ndarray, values: np.ndarray,
                  k: int) -> "KLLSketch":
        sk = cls(k)
        if len(levels):
            top = int(levels.max())
            sk.levels = [values[levels == l].astype(np.int64)
                         for l in range(top + 1)]
        sk._compress()
        return sk

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        out = KLLSketch(self.k)
        top = max(len(self.levels), len(other.levels))
        out.levels = []
        for l in range(top):
            parts = []
            if l < len(self.levels):
                parts.append(self.levels[l])
            if l < len(other.levels):
                parts.append(other.levels[l])
            out.levels.append(np.concatenate(parts) if parts
                              else np.zeros(0, np.int64))
        out._compress()
        return out

    def n_stored(self) -> int:
        return sum(len(a) for a in self.levels)

    def quantiles(self, q_pcts) -> list[int]:
        """Weighted lower-quantile per the corpus quantile_disc rule:
        target index ``max(0, ceil(q*W)-1)`` over the weighted
        multiset, W = total weight."""
        import math

        ls, vs = self.rows()
        if not len(vs):
            raise ValueError("empty sketch")
        w = (np.int64(1) << ls).astype(np.int64)
        order = np.argsort(vs, kind="stable")
        vs, w = vs[order], w[order]
        cum = np.cumsum(w)
        total = int(cum[-1])
        out = []
        for p in q_pcts:
            idx = max(0, math.ceil(p / 100 * total) - 1)
            out.append(int(vs[int(np.searchsorted(cum, idx + 1))]))
        return out


def kll_quantiles(ds: "ray.data.Dataset", value_col: str,
                  q_pcts=(25, 50, 75, 90, 99),
                  k: int = 200) -> "pa.Table":
    """Distributed quantile estimation through the KLL sketch: one
    per-block sketch (map-side, bounded k*levels values), sketches
    travel as (level, value) rows, one driver-side merge + final
    compression reads every quantile. Driver holds O(blocks * k *
    log n / k) rows — never the data. Output: (q_pct, value).

    Like ann_ivf, the approximate result depends on the block layout
    (each block compacts its own sketch) — deterministic for a fixed
    input layout, rank error O(levels/k). ``k >= n`` degrades to
    exact (see `q_kll_quantiles_exact`'s quantile_disc oracle)."""

    def partial(batch: pa.Table) -> pa.Table:
        sk = KLLSketch(k)
        sk.add(batch[value_col].to_numpy(zero_copy_only=False)
               .astype(np.int64))
        ls, vs = sk.rows()
        return pa.table({"level": pa.array(ls), "value": pa.array(vs)})

    parts = ds.select_columns([value_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None).take_all()
    if parts:
        levels = np.array([r["level"] for r in parts], np.int64)
        values = np.array([r["value"] for r in parts], np.int64)
    else:
        levels = values = np.zeros(0, np.int64)
    sk = KLLSketch.from_rows(levels, values, k)
    qs = sk.quantiles(q_pcts)
    return pa.table({
        "q_pct": pa.array(list(q_pcts), pa.int64()),
        "value": pa.array(qs, pa.int64()),
    })
