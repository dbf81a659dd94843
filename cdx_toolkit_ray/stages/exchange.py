"""Direct task-graph exchange: the one bucket-superstep primitive.

Ray Data's ``sort`` / ``groupby`` operators are the right tool when the
shuffled payload is a large fraction of the input, but each one costs a
boundary-sampling round plus two executor barriers — a fixed ~2-4 s on
this engine's post-dedup survivor streams (measured: the flagship's
politeness groupby + final order sort added ~6 s of wall at 8 CPUs for
a 593k-row / ~80 MB stream whose actual kernel work is <0.5 s).

Every hand-built round of the engine — the frontier's politeness and
crawl order, and each iteration of the graph family (links.py, scc.py,
balls.py) — is made of the three parts below.

1. **Bucket split** (worker side). :func:`split_by_code` partitions a
   table into ``n`` slices by int codes (one stable argsort + take,
   then zero-copy slices); :func:`split_by_hash` routes rows by
   ``hash64(key) % n``. A kernel that fans out returns a *list* of its
   ``n`` parts. Ray hands a ``num_returns=1`` value over as-is, so
   :func:`_returns` unwraps a one-part list on the worker and
   :func:`_submit` always gives the driver a list of ``n`` refs — the
   only place the ``n == 1`` case is handled.
2. **Partition once** (driver side). :func:`partition` turns a Dataset
   into ``n`` bucket-cached tables: one split task per group of blocks,
   then one combine task per bucket. The tables always have a schema,
   even when empty. :func:`vertices` derives each bucket's node state
   from cached edges (distinct endpoints routed to their own bucket).
3. **Superstep.** :func:`scatter` runs one task per sender bucket, each
   returning one message slice per receiver, and transposes them into
   receiver inboxes; :func:`gather` runs one task per receiver bucket
   over its inbox and returns receiver-aligned refs, with extra returns
   for per-bucket scalars (change counters, a max) or a fan-out of its
   own. :func:`superstep` is the Pregel round: scatter over (edges,
   state), then gather into state.

:func:`hash_bucket_apply` (the ``groupby().map_groups()`` twin) and
:func:`range_order` (the ``Dataset.sort()`` twin) are Dataset-level
exchanges built from the same split: one SPLIT round over groups of
blocks and one MERGE round per bucket or range.

Scale contract: a round is O(blocks + buckets) tasks, and the driver
holds only object refs plus O(buckets) scalars per round (row counts,
change counters, a max, range samples) — never rows. Edges are split
once and stay in the object store for every iteration; a round moves
only its narrow message stream. An input to the two Dataset-level
exchanges over ``EXCHANGE_BYTES_BUDGET`` falls back to the executor
operator, which brings its spill/backpressure machinery.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..canon import hash64_batch

LOGGER = logging.getLogger(__name__)


# -- 1. bucket split (worker side) ------------------------------------------

def split_by_code(tbl: pa.Table, codes: np.ndarray, n: int) -> list:
    """Partition ``tbl`` into ``n`` slices by int bucket codes: one
    stable argsort + take, then zero-copy slices (``n`` filter scans
    would read the block ``n`` times)."""
    order = np.argsort(codes, kind="stable")
    t = tbl.take(pa.array(order))
    bounds = np.searchsorted(codes[order], np.arange(n + 1))
    return [t.slice(bounds[p], bounds[p + 1] - bounds[p]) for p in range(n)]


def split_by_hash(tbl: pa.Table, key: str, n: int) -> list:
    """Partition ``tbl`` into ``n`` slices by ``hash64(tbl[key]) % n``."""
    codes = (hash64_batch(tbl[key]) % np.uint64(n)).astype(np.int64)
    return split_by_code(tbl, codes, n)


def _returns(out):
    """A kernel's list of ``n`` parts is its task's ``n`` returns; with
    ``num_returns=1`` Ray takes the value as-is, so a one-part list
    returns its part (a 1-list would reach the receiver unexploded)."""
    return out[0] if isinstance(out, list) and len(out) == 1 else out


def _submit(task, n: int, *args) -> list:
    """Submit ``task`` with ``num_returns=n``; always a list of n refs."""
    refs = task.options(num_returns=n).remote(*args)
    return [refs] if n == 1 else list(refs)


@ray.remote
def _run(fn, n_args, *args):
    """``fn(*args)``; with ``n_args`` set, the args past the first
    ``n_args`` are an inbox and arrive as one list."""
    if n_args is not None:
        args = (*args[:n_args], list(args[n_args:]))
    return _returns(fn(*args))


def fan_out(fn: Callable, n: int, *args) -> list:
    """One task running ``fn(*args)``, which returns ``n`` parts; the
    driver gets their ``n`` refs."""
    return _submit(_run, n, fn, None, *args)


def concat(tables: Sequence[pa.Table]) -> pa.Table:
    """One inbox as one table (typed empty slices keep the schema)."""
    return pa.concat_tables([t for t in tables if t.num_rows]
                            or list(tables[:1]),
                            promote_options="permissive")


# -- 2. partition once ------------------------------------------------------

def _project_split(columns, key: str, nb: int, *blocks) -> list:
    """Project blocks onto string ``(name, source)`` columns and split
    by ``hash64(key)``; schema-less empty blocks carry no rows."""
    live = [b for b in map(_as_arrow, blocks) if b.num_rows]
    t = pa.table({
        name: pa.chunked_array(
            [c for b in live for c in b[src].cast(pa.string()).chunks],
            pa.string())
        for name, src in columns})
    return split_by_hash(t, key, nb)


def partition(ds: ray.data.Dataset, nb: int, key: str, columns,
              combine: Callable = concat) -> list:
    """Split ``ds`` ONCE into ``nb`` bucket-cached tables of the string
    ``columns`` (``(name, source column)`` pairs), routed by
    ``hash64(key) % nb``; one ``combine(slices)`` task per bucket
    (default: concatenate). Every table has the projected schema, even
    an empty one."""
    refs = ds.materialize().to_arrow_refs()
    splits = [fan_out(_project_split, nb, tuple(columns), key, nb, *g)
              for g in (_chunked(refs) or [[]])]
    return gather(combine, inbox=[[s[p] for s in splits]
                                  for p in range(nb)])


def distinct(cols: Sequence[str], tables: Sequence[pa.Table]) -> pa.Table:
    """Combine kernel: one bucket's slices -> distinct rows sorted by
    ``cols`` (searchsorted-ready)."""
    import polars as pl

    t = concat(tables)
    return (pl.from_arrow(t).unique().sort(list(cols)).to_arrow()
            .cast(t.schema))


def _endpoints(cols, nb: int, edges: pa.Table) -> list:
    """One edge bucket's distinct endpoints with their out-degree here,
    routed to their own buckets."""
    src = edges[cols[0]].combine_chunks()
    enc = pa.concat_arrays(
        [src, edges[cols[1]].combine_chunks()]).dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False)
    out = np.bincount(idx[:len(src)], minlength=len(enc.dictionary))
    t = pa.table({"url": enc.dictionary,
                  "out": pa.array(out.astype(np.int64), pa.int64())})
    return split_by_hash(t, "url", nb)


def _vertex_init(init: Callable, inbox: list) -> pa.Table:
    t = concat(inbox)
    enc = t["url"].combine_chunks().dictionary_encode()
    deg = np.zeros(len(enc.dictionary), np.int64)
    np.add.at(deg, enc.indices.to_numpy(zero_copy_only=False),
              t["out"].to_numpy(zero_copy_only=False))
    order = pc.sort_indices(enc.dictionary)
    return init(enc.dictionary.take(order),
                deg[order.to_numpy(zero_copy_only=False)])


def vertices(edges_b: list, init: Callable,
             cols: Sequence[str] = ("src", "dst")) -> list:
    """Per bucket, the node set of bucket-cached edges — every
    ``cols[0]`` / ``cols[1]`` endpoint, in the bucket of its own hash —
    as ``init(url, outdeg)``: the urls sorted (searchsorted-ready) and
    each one's out-degree (edge rows with it as ``cols[0]``)."""
    return gather(partial(_vertex_init, init),
                  inbox=scatter(partial(_endpoints, tuple(cols)), edges_b))


# -- 3. superstep: scatter -> transpose -> gather ---------------------------

def _bucket_args(bucket_args, inbox, p):
    return [a[p] for a in bucket_args] + (list(inbox[p]) if inbox else [])


def scatter(fn: Callable, *bucket_args, inbox=None) -> list:
    """One task per sender bucket ``q`` running ``fn(nb, *[a[q] for a in
    bucket_args])`` (plus ``inbox[q]`` as a list, when given), which
    returns ``nb`` slices, one per receiver. Returns the receiver
    inboxes: ``out[p]`` lists the slices addressed to bucket ``p``."""
    nb = len(bucket_args[0]) if bucket_args else len(inbox)
    n_args = None if inbox is None else 1 + len(bucket_args)
    sent = [_submit(_run, nb, fn, n_args, nb,
                    *_bucket_args(bucket_args, inbox, q))
            for q in range(nb)]
    return [[s[p] for s in sent] for p in range(nb)]


def gather(fn: Callable, *bucket_args, inbox=None, returns: int = 1) -> list:
    """One task per bucket ``p`` running ``fn(*[a[p] for a in
    bucket_args])`` (plus ``inbox[p]`` as a list, when given). Returns
    one ref per bucket, or per bucket a list of ``returns`` refs."""
    nb = len(bucket_args[0]) if bucket_args else len(inbox)
    n_args = None if inbox is None else len(bucket_args)
    out = [_submit(_run, returns, fn, n_args,
                   *_bucket_args(bucket_args, inbox, p))
           for p in range(nb)]
    return [o[0] for o in out] if returns == 1 else out


def superstep(edges_b: list, state_b: list, scatter_fn: Callable,
              gather_fn: Callable, *, returns: int = 1) -> list:
    """One Pregel round over bucket-cached edges: sender ``q`` runs
    ``scatter_fn(nb, edges_b[q], state_b[q])`` -> ``nb`` message slices;
    receiver ``p`` runs ``gather_fn(state_b[p], inbox)`` -> its new
    state (or a tuple of ``returns`` values, the state first)."""
    return gather(gather_fn, state_b,
                  inbox=scatter(scatter_fn, edges_b, state_b),
                  returns=returns)


def rehash(refs_b: list, key: str) -> list:
    """Re-route bucketed tables by ``hash64(key)``: receiver inboxes."""
    return scatter(partial(_split_key, key), refs_b)


def _split_key(key: str, nb: int, tbl: pa.Table) -> list:
    return split_by_hash(tbl, key, nb)


# -- Dataset-level exchanges ------------------------------------------------

def _as_arrow(tbl) -> pa.Table:
    """Some upstreams (pandas-block map_groups stages) hand
    ``to_arrow_refs`` pandas blocks; coerce worker-side."""
    if isinstance(tbl, pa.Table):
        return tbl
    return pa.Table.from_pandas(tbl, preserve_index=False)


@ray.remote
def _nrows(tbl) -> int:
    return tbl.num_rows if isinstance(tbl, pa.Table) else len(tbl)


@ray.remote
def _split_hash(bucket_col: str, nb: int, *tbls):
    # a map_batches stage that filters a block to zero rows can emit a
    # SCHEMA-LESS empty block (no bucket column); it carries no rows,
    # so it splits into nb empties rather than aborting the exchange
    live = [_as_arrow(t) for t in tbls]
    live = [t for t in live
            if t.num_rows or bucket_col in t.column_names]
    if not live:
        return _returns([pa.table({})] * nb)
    tbl = pa.concat_tables(live, promote_options="permissive")
    codes = tbl[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return _returns(split_by_code(tbl, codes, nb))


@ray.remote
def _merge_bucket(merge_fn, *tbls):
    """Concat one bucket's slices and apply ``merge_fn``."""
    return merge_fn(concat(tbls))


#: every SAMPLE_EVERY-th value of a block's sorted range key is a
#: boundary sample
SAMPLE_EVERY = 64


@ray.remote
def _sample(col: str, tbl):
    """Boundary samples of one block's ``col``; None for an empty block
    (which may carry no schema at all)."""
    tbl = _as_arrow(tbl)
    if not tbl.num_rows:
        return None
    v = tbl[col].to_numpy(zero_copy_only=False)
    return np.sort(v)[::SAMPLE_EVERY].copy()


@ray.remote
def _split_range(col: str, bounds: np.ndarray, *tbls):
    tbl = pa.concat_tables([_as_arrow(t) for t in tbls],
                           promote_options="permissive")
    v = tbl[col].to_numpy(zero_copy_only=False)
    codes = np.searchsorted(bounds, v, side="right")
    return _returns(split_by_code(tbl, codes, len(bounds) + 1))


@ray.remote
def _merge_range(cols: Sequence[str], *tbls):
    t = concat(tbls)
    keys = [t[c].to_numpy(zero_copy_only=False) for c in reversed(cols)]
    return t.take(pa.array(np.lexsort(keys)))


def _cluster_cpus() -> int:
    return (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)


def _chunked(refs: Sequence, max_tasks: int | None = None):
    if max_tasks is None:
        # one split task per CPU (min 8 so small clusters still
        # parallelize the fetches); more tasks than CPUs only
        # multiplies per-object scheduling cost
        max_tasks = min(32, max(8, _cluster_cpus()))
    chunk = max(1, (len(refs) + max_tasks - 1) // max_tasks)
    return [refs[i:i + chunk] for i in range(0, len(refs), chunk)]


#: direct-task-graph budget: a materialized input above this falls back
#: to the executor operator (spill/backpressure machinery) instead of
#: holding the whole stream as task-graph refs. The contract ("narrow /
#: post-reduction streams only") is enforced, not advisory.
EXCHANGE_BYTES_BUDGET = 2 << 30


def _over_budget(mat: ray.data.Dataset, bytes_budget: int | None,
                 what: str) -> bool:
    size = mat.size_bytes() or 0
    if bytes_budget is None or size <= bytes_budget:
        return False
    LOGGER.warning(
        "%s input is %.1f MB (> %.1f MB budget): falling back to the "
        "executor path — this exchange is for narrow/post-reduction "
        "streams", what, size / 1e6, bytes_budget / 1e6)
    return True


def hash_bucket_apply(ds: ray.data.Dataset, bucket_col: str,
                      merge_fn: Callable[[pa.Table], pa.Table], *,
                      num_buckets: int = 64,
                      bytes_budget: int = EXCHANGE_BYTES_BUDGET
                      ) -> ray.data.Dataset:
    """Group-apply as one task graph.

    Every row whose ``bucket_col`` matches lands in exactly one MERGE
    task, which runs ``merge_fn`` over the whole group-set — identical
    semantics to ``groupby(bucket_col).map_groups(merge_fn)`` for
    kernels (like the politeness scheduler) that handle multiple
    groups per call.

    Executes eagerly (the task graph needs materialized input blocks);
    the input should be the narrow/post-reduction stream of a pipeline,
    not its raw input. A stream over ``bytes_budget`` falls back to the
    executor ``groupby().map_groups()`` path (same rows, executor
    spill/backpressure instead of object-store pressure).
    """
    mat = ds.materialize()
    if _over_budget(mat, bytes_budget, "hash_bucket_apply"):
        return mat.groupby(bucket_col).map_groups(
            merge_fn, batch_format="pyarrow")
    refs = mat.to_arrow_refs()
    # upstream Filter/map stages emit schema-less zero-row blocks that
    # would poison pa.concat_tables — drop them (worker-side row-count
    # probe; blocks stay in the object store)
    counts = ray.get([_nrows.remote(r) for r in refs])
    refs = [r for r, n in zip(refs, counts) if n]
    if not refs:
        # empty input: run merge_fn once over an empty typed table so
        # the OUTPUT schema (what downstream select_columns sees) is
        # merge_fn's, not the input's
        try:
            empty = mat.schema().base_schema.empty_table()
            return ray.data.from_arrow(merge_fn(empty))
        except Exception:
            return mat

    nb = num_buckets
    splits = [_submit(_split_hash, nb, bucket_col, nb, *g)
              for g in _chunked(refs)]
    return ray.data.from_arrow_refs(
        [_merge_bucket.remote(merge_fn, *[sp[b] for sp in splits])
         for b in range(nb)])


def range_order(ds: ray.data.Dataset, cols: Sequence[str], *,
                bytes_budget: int = EXCHANGE_BYTES_BUDGET
                ) -> ray.data.Dataset:
    """Global order by ``cols`` (lexicographic, ascending) as one range
    exchange — the task-graph twin of ``Dataset.sort(cols)``.

    Range boundaries are quantiles of sampled ``cols[0]`` values, and a
    row goes to range ``searchsorted(bounds, cols[0], 'right')``, so
    rows with equal ``cols[0]`` always share a range; each range's
    merge ``np.lexsort``s all of ``cols``. Concatenating the ranges in
    order is therefore the global order, whatever the value widths.

    Executes eagerly, like :func:`hash_bucket_apply`; a stream over
    ``bytes_budget`` falls back to the executor ``Dataset.sort``.
    """
    mat = ds.materialize()
    if _over_budget(mat, bytes_budget, "range_order"):
        return mat.sort(list(cols))
    refs = mat.to_arrow_refs()
    samples = ray.get([_sample.remote(cols[0], r) for r in refs])
    live = [(r, s) for r, s in zip(refs, samples) if s is not None]
    if not live:
        return mat
    refs = [r for r, _ in live]
    alls = np.sort(np.concatenate([s for _, s in live]))
    nr = max(4, min(_cluster_cpus(), len(refs)))
    qs = np.linspace(0, len(alls) - 1, nr + 1)[1:-1].astype(np.int64)
    bounds = np.unique(alls[qs])
    nr = len(bounds) + 1

    rsplits = [_submit(_split_range, nr, cols[0], bounds, *g)
               for g in _chunked(refs)]
    return ray.data.from_arrow_refs(
        [_merge_range.remote(list(cols), *[s[r] for s in rsplits])
         for r in range(nr)])
