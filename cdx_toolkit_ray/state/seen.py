"""Sharded URL-seen set: bloom/cuckoo filter actor pool keyed by hash
range (bloom = cheapest bits/key for append-only membership; cuckoo =
slightly more memory, adds DELETION for recrawl eviction).

north_rule component: "a sharded cuckoo/bloom URL-seen set lives in an
actor pool keyed by hash-range partitions". The reference's only seen
state is a per-process hostname set (cocrawler/cdx_toolkit
cdx_toolkit/myrequests.py:10-20) plus the urlkey/digest dedup
identities it documents (README.md:207-212, 233-235); at frontier scale
that becomes cluster state:

* shard routing: top bits of ``hash64(urlkey)`` -> one of 2^b actors,
  so each shard owns a contiguous hash range and checkpoints
  independently
* each shard holds a numpy-bitarray bloom filter (k probes via
  double hashing) and — optionally, for exact small-scale verification
  — the exact backing set of hashes
* batched vectorized calls: a map_batches stage partitions each Arrow
  batch's hashes by shard and issues ONE actor call per shard per
  batch (no per-row RPCs)

Determinism note: concurrent ``offer`` arrival order is
nondeterministic, so the STREAMING seen-set is used for cross-run /
incremental membership. The frontier pipeline's dedup-for-scheduling is
exact: ``stages/dedup.first_wins`` (one lexsort per bucket of
``pipelines/frontier.py``'s host round) keeps, per ``hash64``, the row
with the smallest (priority, seed_order), a rule that is arrival-order
independent; the bloom path is verified against it for zero false
negatives.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray

# odd multiplier for the second probe hash (splitmix64 finalizer constant)
_H2_MULT = np.uint64(0xBF58476D1CE4E5B9)


class BloomFilter:
    """Vectorized bloom filter over uint64 keys (plain object, used
    inside shard actors and unit tests)."""

    def __init__(self, n_bits: int = 1 << 24, k: int = 7, exact: bool = False):
        if n_bits & (n_bits - 1):
            raise ValueError("n_bits must be a power of two")
        self.n_bits = n_bits
        self.k = k
        self.words = np.zeros(n_bits // 64, dtype=np.uint64)
        self.n_added = 0
        self.exact = set() if exact else None

    def _probes(self, hashes: np.ndarray) -> np.ndarray:
        """(k, n) bit indices via double hashing.

        h2 must depend on the HIGH bits of the key: with m a power of
        two, ``h*C mod m`` preserves low-bit-only dependence, which
        would collapse the probe entropy to log2(m) bits (observed as
        birthday-paradox false positives). Xor-shift folds the high
        bits down first (splitmix64-style finalizer).
        """
        h1 = hashes.astype(np.uint64)
        x = h1.copy()
        x ^= x >> np.uint64(33)
        x *= _H2_MULT
        x ^= x >> np.uint64(29)
        h2 = x | np.uint64(1)
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + ks * h2[None, :]) & np.uint64(self.n_bits - 1)

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        # exact mode answers from the backing set — this is what makes
        # exact=True actually deliver the zero-false-positive contract
        # the crawl loops document (a bitmap FP would silently prune a
        # URL and its whole reachable subtree); the bitmap is still
        # maintained for checkpoint compatibility. Per-row set probes
        # are the documented cost of the exactness mode.
        if self.exact is not None:
            return np.fromiter((int(h) in self.exact for h in hashes),
                               bool, len(hashes))
        idx = self._probes(hashes)
        word = idx >> np.uint64(6)
        bit = np.uint64(1) << (idx & np.uint64(63))
        hit = (self.words[word] & bit) != 0
        return hit.all(axis=0)

    def add(self, hashes: np.ndarray) -> None:
        idx = self._probes(hashes)
        word = (idx >> np.uint64(6)).ravel()
        bit = (np.uint64(1) << (idx & np.uint64(63))).ravel()
        np.bitwise_or.at(self.words, word, bit)
        self.n_added += len(hashes)
        if self.exact is not None:
            self.exact.update(int(h) for h in hashes)

    def offer(self, hashes: np.ndarray) -> np.ndarray:
        """Insert all; return mask of hashes NOT seen before this call.

        Within one call, duplicate hashes after their first occurrence
        report as seen (first-occurrence-wins), matching serial
        semantics for a single ordered batch.
        """
        seen_before = self.contains(hashes)
        # first-occurrence-wins within the batch
        _, first_idx = np.unique(hashes, return_index=True)
        is_first = np.zeros(len(hashes), dtype=bool)
        is_first[first_idx] = True
        new = (~seen_before) & is_first
        if new.any():
            self.add(hashes[new])
        return new


# splitmix64 finalizer constants (public-domain PRNG mixing function)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= _SM_M1
    x ^= x >> np.uint64(27)
    x *= _SM_M2
    x ^= x >> np.uint64(31)
    return x


class CuckooFilter:
    """Vectorized partial-key cuckoo filter over uint64 keys with
    DELETION support (Fan et al. 2014, "Cuckoo Filter: Practically
    Better Than Bloom") — the north_rule's "cuckoo" seen-set variant.

    Deletion is what the bloom filter cannot do, and is what recrawl
    needs: a URL whose revisit interval has elapsed is *forgotten* so
    the next frontier pass re-admits it, without rebuilding the whole
    membership state (``stages/recrawl.recrawl_schedule`` decides WHO
    is due; this structure makes the eviction cheap).

    Layout: ``n_buckets`` (power of two) buckets x 4 slots of 32-bit
    fingerprints, 0 = empty (a zero fingerprint is remapped to 1).
    For key hash h: fp = high 32 bits of splitmix64(h); primary bucket
    i1 = h & mask; partner i2 = i1 ^ (mix(fp) & mask) — an involution,
    so a fingerprint can only ever live in its two-bucket pair no
    matter how many evictions move it. That makes membership, offer
    and delete outcomes ORDER-INDEPENDENT as multiset operations on
    (fingerprint, bucket-pair): safe under Ray's nondeterministic
    batch arrival, same as the bloom path.

    False positives: a probe collides only with a same-fingerprint
    same-pair entry — p ≈ 8/2^32 per lookup against full buckets
    (~2e-9), vs the bloom path's ~1e-4 at design load; the price is
    ~4.3 bits/key more memory. No false negatives ever. At 10^10 URLs
    (sharded) expect ~20 total FPs — document, don't ignore.

    Capacity: inserts start failing (RuntimeError) as load factor
    approaches ~0.95; size ``n_buckets >= expected_keys / 3.8``.

    The bulk ``add`` is vectorized for the common no-eviction case
    (both candidate buckets are given one grouped scatter pass each);
    only items whose both buckets are full fall into the per-item
    kick loop — a vanishing minority below ~0.9 load.
    """

    def __init__(self, n_buckets: int = 1 << 16, max_kicks: int = 500):
        if n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a power of two")
        self.n_buckets = n_buckets
        self.max_kicks = max_kicks
        self.table = np.zeros((n_buckets, 4), dtype=np.uint32)
        self.n_added = 0

    # -- addressing ----------------------------------------------------
    def _addr(self, hashes: np.ndarray):
        """(fp, i1, i2) for each key hash; all vectorized."""
        h = hashes.astype(np.uint64)
        fp = (_splitmix64(h) >> np.uint64(32)).astype(np.uint32)
        fp = np.where(fp == 0, np.uint32(1), fp)
        mask = np.uint64(self.n_buckets - 1)
        i1 = (h & mask).astype(np.int64)
        off = (_splitmix64(fp.astype(np.uint64)) & mask).astype(np.int64)
        # never let the partner equal the primary (off==0): force bit 0
        off = np.where(off == 0, 1, off)
        i2 = i1 ^ off
        return fp, i1, i2

    def _partner(self, fp: int, b: int) -> int:
        off = int(_splitmix64(np.array([fp], np.uint64))[0]
                  & np.uint64(self.n_buckets - 1))
        return b ^ (off if off else 1)

    # -- membership ----------------------------------------------------
    def contains(self, hashes: np.ndarray) -> np.ndarray:
        if not len(hashes):
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._addr(hashes)
        hit = (self.table[i1] == fp[:, None]).any(axis=1)
        hit |= (self.table[i2] == fp[:, None]).any(axis=1)
        return hit

    # -- insert --------------------------------------------------------
    def _place_bulk(self, fps: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """Try to place each fp in its bucket's free slots; one grouped
        scatter (rank-within-bucket < free-capacity). Returns placed
        mask. Distinct (bucket, rank) targets never collide."""
        rows_empty = self.table[buckets] == 0
        cap = rows_empty.sum(axis=1)
        order = np.lexsort((np.arange(len(buckets)), buckets))
        b_sorted = buckets[order]
        new_grp = np.r_[True, b_sorted[1:] != b_sorted[:-1]]
        grp_first = np.flatnonzero(new_grp)
        rank = np.arange(len(b_sorted)) - grp_first[np.cumsum(new_grp) - 1]
        ok = rank < cap[order]
        # rank-th empty slot of each row (empty slots sorted first)
        slot_order = np.argsort(~rows_empty, axis=1, kind="stable")
        slot = slot_order[order, np.minimum(rank, 3)]
        self.table[b_sorted[ok], slot[ok]] = fps[order][ok]
        placed = np.zeros(len(buckets), dtype=bool)
        placed[order[ok]] = True
        return placed

    def _insert_kick(self, fp: int, i1: int, i2: int) -> None:
        for b in (i1, i2):
            row = self.table[b]
            z = np.flatnonzero(row == 0)
            if len(z):
                row[z[0]] = fp
                return
        b, cur = i2, fp
        for kick in range(self.max_kicks):
            s = kick & 3
            cur, self.table[b, s] = int(self.table[b, s]), np.uint32(cur)
            b = self._partner(cur, b)
            row = self.table[b]
            z = np.flatnonzero(row == 0)
            if len(z):
                row[z[0]] = cur
                return
        raise RuntimeError(
            "cuckoo filter over capacity (n_buckets=%d, load=%.2f): "
            "size n_buckets >= expected_keys/3.8" %
            (self.n_buckets, self.load_factor()))

    def add(self, hashes: np.ndarray) -> None:
        """Insert all (multiset semantics: duplicates insert copies —
        route through ``offer`` for set semantics)."""
        if not len(hashes):
            return
        fp, i1, i2 = self._addr(hashes)
        pending = np.arange(len(hashes))
        for cand in (i1, i2):
            if not len(pending):
                break
            placed = self._place_bulk(fp[pending], cand[pending])
            pending = pending[~placed]
        for j in pending:
            self._insert_kick(int(fp[j]), int(i1[j]), int(i2[j]))
        self.n_added += len(hashes)

    def offer(self, hashes: np.ndarray) -> np.ndarray:
        """Insert unseen; return is-new mask (first-occurrence-wins
        within the call, matching ``BloomFilter.offer``)."""
        if not len(hashes):
            return np.zeros(0, dtype=bool)
        seen_before = self.contains(hashes)
        _, first_idx = np.unique(hashes, return_index=True)
        is_first = np.zeros(len(hashes), dtype=bool)
        is_first[first_idx] = True
        new = (~seen_before) & is_first
        if new.any():
            self.add(hashes[new])
        return new

    # -- delete --------------------------------------------------------
    def delete(self, hashes: np.ndarray) -> np.ndarray:
        """Remove one stored copy per requested key; returns a
        found-and-removed mask. Keys sharing a (fingerprint,
        bucket-pair) group are resolved together so copy counts stay
        exact; the vectorized path handles the singleton majority."""
        if not len(hashes):
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._addr(hashes)
        # canonical group key: same fp + same pair -> same group
        lo = np.minimum(i1, i2).astype(np.uint64)
        key = (lo << np.uint64(32)) | fp.astype(np.uint64)
        uniq, inv, counts = np.unique(key, return_inverse=True,
                                      return_counts=True)
        removed = np.zeros(len(hashes), dtype=bool)
        solo = counts[inv] == 1
        if solo.any():
            s_fp, s_i1, s_i2 = fp[solo], i1[solo], i2[solo]
            m1 = self.table[s_i1] == s_fp[:, None]
            has1 = m1.any(axis=1)
            slot1 = m1.argmax(axis=1)
            self.table[s_i1[has1], slot1[has1]] = 0
            rest = ~has1
            if rest.any():
                m2 = self.table[s_i2[rest]] == s_fp[rest, None]
                has2 = m2.any(axis=1)
                slot2 = m2.argmax(axis=1)
                self.table[s_i2[rest][has2], slot2[has2]] = 0
                got = has1.copy()
                got[np.flatnonzero(rest)[has2]] = True
            else:
                got = has1
            removed[solo] = got
        if (~solo).any():
            for g in np.flatnonzero(counts > 1):
                members = np.flatnonzero(inv == g)
                j = members[0]
                pair = (int(i1[j]), int(i2[j])) if i1[j] != i2[j] \
                    else (int(i1[j]),)
                want = len(members)
                taken = 0
                for b in pair:
                    row = self.table[b]
                    hits = np.flatnonzero(row == fp[j])
                    take = hits[:want - taken]
                    row[take] = 0
                    taken += len(take)
                    if taken >= want:
                        break
                removed[members[:taken]] = True
        self.n_added -= int(removed.sum())
        return removed

    def load_factor(self) -> float:
        return float(np.count_nonzero(self.table)) / self.table.size


@ray.remote(num_cpus=0.25)
class SeenShard:
    """One hash-range shard of the URL-seen set (bloom or cuckoo)."""

    def __init__(self, n_bits: int, k: int, exact: bool,
                 backend: str = "bloom", n_buckets: int = 1 << 16,
                 max_kicks: int = 500):
        self.backend = backend
        if backend == "bloom":
            self.filt = BloomFilter(n_bits=n_bits, k=k, exact=exact)
        elif backend == "cuckoo":
            self.filt = CuckooFilter(n_buckets=n_buckets,
                                     max_kicks=max_kicks)
        else:
            raise ValueError("backend must be 'bloom' or 'cuckoo'")
        self.bloom = self.filt  # legacy attribute name

    def offer(self, hashes: np.ndarray) -> np.ndarray:
        return self.filt.offer(hashes)

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        return self.filt.contains(hashes)

    def forget(self, hashes: np.ndarray) -> np.ndarray:
        if self.backend != "cuckoo":
            raise NotImplementedError(
                "bloom filters cannot delete — build the seen set with "
                "backend='cuckoo' for recrawl eviction")
        return self.filt.delete(hashes)

    def stats(self) -> dict:
        if self.backend == "cuckoo":
            return {"n_added": self.filt.n_added,
                    "fill": self.filt.load_factor(),
                    "backend": "cuckoo"}
        return {"n_added": self.filt.n_added,
                "fill": float(np.count_nonzero(
                    np.unpackbits(self.filt.words.view(np.uint8)))) / self.filt.n_bits,
                "backend": "bloom"}

    def checkpoint(self, path: str) -> str:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if self.backend == "cuckoo":
            np.save(path, self.filt.table)
            return path
        np.save(path, self.filt.words)
        if self.filt.exact is not None:
            # base.exact.npy — the exact name restore/merge read (the
            # old path+".exact.npy" produced base.npy.exact.npy, which
            # nothing ever loaded back)
            base = path[:-4] if path.endswith(".npy") else path
            np.save(base + ".exact",
                    np.fromiter(self.filt.exact, dtype=np.uint64))
        return path

    def restore(self, path: str) -> int:
        arr = np.load(path if path.endswith(".npy") else path + ".npy")
        if self.backend == "cuckoo":
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise ValueError("checkpoint %r is not a cuckoo table" % path)
            if arr.shape[0] & (arr.shape[0] - 1):
                raise ValueError(
                    "cuckoo checkpoint %r has non-power-of-two bucket "
                    "count %d" % (path, arr.shape[0]))
            # addressing follows the STORED table's geometry — a set
            # restored into a differently-sized shard must re-key,
            # not probe the wrong buckets
            self.filt.table = arr.astype(np.uint32)
            self.filt.n_buckets = arr.shape[0]
            self.filt.n_added = int(np.count_nonzero(arr))
            return self.filt.n_added
        self.filt.words = arr
        exact_p = (path if not path.endswith(".npy") else path[:-4]) + ".exact.npy"
        legacy_p = (path if path.endswith(".npy") else path + ".npy") \
            + ".exact.npy"
        if os.path.exists(exact_p):
            self.filt.exact = set(int(h) for h in np.load(exact_p))
        elif os.path.exists(legacy_p):  # pre-fix checkpoint name
            self.filt.exact = set(int(h) for h in np.load(legacy_p))
        elif self.filt.exact is not None:
            raise ValueError(
                "restoring into exact mode but checkpoint %r has no "
                ".exact.npy sidecar — the bitmap alone cannot honor "
                "the zero-false-positive contract; restore with "
                "exact=False or rebuild the checkpoint" % path)
        return int(self.filt.words.sum())


class ShardedSeenSet:
    """Driver-side handle to the shard actor pool.

    ``num_shards`` must be a power of two; routing uses the TOP bits of
    hash64 so each shard owns a contiguous hash range (hash-range
    partitioning, checkpointable per shard).
    """

    def __init__(self, num_shards: int = 8, n_bits: int = 1 << 22,
                 k: int = 7, exact: bool = False,
                 backend: str = "bloom", n_buckets: int = 1 << 16,
                 max_kicks: int = 500,
                 expected_keys: int | None = None):
        if num_shards & (num_shards - 1):
            raise ValueError("num_shards must be a power of two")
        if expected_keys is not None:
            # size from the frontier estimate instead of guessing:
            # bloom ~20 bits/key (FP ~1e-4 at k=7); cuckoo 4-slot
            # buckets filled to ~0.95 -> keys/3.8 buckets per shard
            per = max(1, expected_keys // num_shards)
            if backend == "bloom":
                n_bits = 1 << max(10, int(np.ceil(np.log2(per * 20))))
            else:
                # size for load ~0.8 at the estimate (per/3.2), not
                # the ~0.95 failure threshold: hash-range imbalance
                # puts a few percent extra on some shard, and the
                # power-of-two ceil must not land exactly on the
                # capacity cliff
                n_buckets = 1 << max(4, int(np.ceil(
                    np.log2(per / 3.2))))
        self.num_shards = num_shards
        self.backend = backend
        self.shift = np.uint64(64 - int(np.log2(num_shards)))
        self.shards = [SeenShard.remote(n_bits, k, exact, backend,
                                        n_buckets, max_kicks)
                       for _ in range(num_shards)]

    def shard_of(self, hashes: np.ndarray) -> np.ndarray:
        return (hashes.astype(np.uint64) >> self.shift).astype(np.int64)

    def offer(self, hashes: np.ndarray) -> np.ndarray:
        """Batched routed offer; returns is-new mask aligned to input."""
        sid = self.shard_of(hashes)
        out = np.zeros(len(hashes), dtype=bool)
        futures, slots = [], []
        for s in np.unique(sid):
            m = sid == s
            futures.append(self.shards[int(s)].offer.remote(hashes[m]))
            slots.append(m)
        for m, r in zip(slots, ray.get(futures)):
            out[m] = r
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        sid = self.shard_of(hashes)
        out = np.zeros(len(hashes), dtype=bool)
        futures, slots = [], []
        for s in np.unique(sid):
            m = sid == s
            futures.append(self.shards[int(s)].contains.remote(hashes[m]))
            slots.append(m)
        for m, r in zip(slots, ray.get(futures)):
            out[m] = r
        return out

    def forget(self, hashes: np.ndarray) -> np.ndarray:
        """Batched routed delete (cuckoo backend only): remove keys so
        the next offer re-admits them — the recrawl-eviction primitive.
        Returns the found-and-removed mask aligned to input."""
        sid = self.shard_of(hashes)
        out = np.zeros(len(hashes), dtype=bool)
        futures, slots = [], []
        for s in np.unique(sid):
            m = sid == s
            futures.append(self.shards[int(s)].forget.remote(hashes[m]))
            slots.append(m)
        for m, r in zip(slots, ray.get(futures)):
            out[m] = r
        return out

    def checkpoint(self, directory: str) -> list[str]:
        return ray.get([sh.checkpoint.remote(
            os.path.join(directory, "seen-shard-%04d.npy" % i))
            for i, sh in enumerate(self.shards)])

    def restore(self, directory: str) -> None:
        ray.get([sh.restore.remote(
            os.path.join(directory, "seen-shard-%04d.npy" % i))
            for i, sh in enumerate(self.shards)])

    def stats(self) -> list[dict]:
        return ray.get([sh.stats.remote() for sh in self.shards])


class SeenFilterStage:
    """map_batches callable: drop rows whose hash64 was already seen.

    Holds the shard handles; one routed actor round-trip per batch.
    Use for INCREMENTAL runs (membership vs prior crawls); in-run
    scheduling dedup is the exact first-wins kernel
    ``stages/dedup.first_wins``, run per bucket of the frontier's host
    round (``pipelines/frontier.py``).
    """

    def __init__(self, seen: ShardedSeenSet, hash_col: str = "hash64"):
        self.seen = seen
        self.hash_col = hash_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        hashes = batch[self.hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = self.seen.offer(hashes)
        return batch.filter(pa.array(keep))


class SeenForgetStage:
    """map_batches callable: evict each row's hash64 from the cuckoo
    seen set (pass-through rows, `forgotten` column appended). Feed it
    the recrawl-due rows from ``stages/recrawl.recrawl_schedule`` so
    the next frontier pass re-admits them — deletion is the capability
    the cuckoo backend exists for."""

    def __init__(self, seen: ShardedSeenSet, hash_col: str = "hash64"):
        if seen.backend != "cuckoo":
            raise ValueError("SeenForgetStage requires backend='cuckoo'")
        self.seen = seen
        self.hash_col = hash_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("forgotten",
                                       pa.array([], pa.bool_()))
        hashes = batch[self.hash_col].to_numpy(
            zero_copy_only=False).astype(np.uint64)
        removed = self.seen.forget(hashes)
        return batch.append_column("forgotten", pa.array(removed))


def merge_checkpoints(dir_a: str, dir_b: str, out_dir: str) -> int:
    """Union two seen-set checkpoints into a third — the incremental
    crawl story for membership state (the bloom twin of the HLL
    register merge, stages/sketch.hll_registers): bitwise OR of each
    shard's bitmap (Bloom union is exact: OR of the filters equals the
    filter of the union) plus the union of the exact backing sets
    where present. Pure file-level numpy; no actors needed. Shard
    layouts must match (same count, same n_bits). Returns the number
    of shards merged.
    """
    import glob as _glob

    a_paths = sorted(_glob.glob(os.path.join(dir_a, "seen-shard-*.npy")))
    a_paths = [p for p in a_paths if not p.endswith(".exact.npy")]
    b_paths = sorted(_glob.glob(os.path.join(dir_b, "seen-shard-*.npy")))
    b_paths = [p for p in b_paths if not p.endswith(".exact.npy")]
    if len(a_paths) != len(b_paths) or not a_paths:
        raise ValueError("shard count mismatch: %d vs %d"
                         % (len(a_paths), len(b_paths)))
    os.makedirs(out_dir, exist_ok=True)
    for pa_, pb in zip(a_paths, b_paths):
        wa, wb = np.load(pa_), np.load(pb)
        if wa.ndim != 1 or wb.ndim != 1:
            raise ValueError(
                "%s holds a cuckoo table — cuckoo checkpoints cannot "
                "be merged bitwise (OR of fingerprint slots is "
                "garbage); restore one side and re-offer the other's "
                "keys instead" % pa_)
        if wa.shape != wb.shape:
            raise ValueError("bitmap shape mismatch in %s" % pa_)
        out = os.path.join(out_dir, os.path.basename(pa_))
        np.save(out[:-4], wa | wb)
        ea, eb = pa_[:-4] + ".exact.npy", pb[:-4] + ".exact.npy"
        # legacy pre-fix sidecar name (base.npy.exact.npy)
        ea2, eb2 = pa_ + ".exact.npy", pb + ".exact.npy"
        cand = [(ea, ea2), (eb, eb2)]
        if any(os.path.exists(p) for pair in cand for p in pair):
            xs = []
            for new, old in cand:
                e = new if os.path.exists(new) else old
                if os.path.exists(e):
                    xs.append(np.load(e))
            merged = np.unique(np.concatenate(xs)) if xs else \
                np.zeros(0, np.uint64)
            np.save(out[:-4] + ".exact", merged.astype(np.uint64))
    return len(a_paths)
