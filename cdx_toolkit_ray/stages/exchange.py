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
blocks and one MERGE round per bucket or range. Each runs its caller's
per-block pass inside the split tasks — ``prepare`` (a ``table ->
table`` map that may add the bucket column) for the hash round,
``where`` (a row filter) for the range round — so that pass is no
Ray Data execution of its own. :func:`hash_bucket_apply` also takes
block refs instead of a Dataset: :func:`plan_parquet` reads row counts
and byte sizes from the Parquet footers, and :func:`read_planned` cuts
the files into one slice per split task of the round.

Scale contract: a round is O(tasks + buckets) tasks and tasks x buckets
objects, counts from :func:`round_plan` unless given; the driver holds
only object refs plus O(buckets) scalars per round (row counts, change
counters, a max, range samples) — never rows. Edges are split once and
stay in the object store for every iteration; a round moves only its
narrow message stream. An input to the two Dataset-level exchanges over
``EXCHANGE_BYTES_BUDGET`` falls back to the executor operator, which
brings its spill/backpressure machinery; a planned read's caller checks
the same budget against the footer bytes and reads with
``ray.data.read_parquet`` above it.
"""

from __future__ import annotations

import logging
import os
from functools import partial
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
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


def _submit(task, n: int, *args, **kwargs) -> list:
    """Submit ``task`` with ``num_returns=n``; always a list of n refs."""
    refs = task.options(num_returns=n).remote(*args, **kwargs)
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
    """One inbox as one table. With no rows anywhere, a slice that has a
    schema stands for the inbox (a split group of only empty blocks
    sends column-less slices)."""
    return pa.concat_tables([t for t in tables if t.num_rows]
                            or [t for t in tables if t.num_columns][:1]
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
    mat = ds.materialize()
    groups = _chunked(mat.to_arrow_refs(), round_plan(mat.size_bytes()))
    splits = [fan_out(_project_split, nb, tuple(columns), key, nb, *g)
              for g in groups or [[]]]
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


_to_arrow = ray.remote(_as_arrow)


def collect_refs(ds: ray.data.Dataset) -> list:
    """The one driver-side collect: execute ``ds`` once and return its
    blocks as refs of Arrow tables.

    ``Dataset.to_arrow_refs()`` on a lazy Dataset runs it and then asks
    for its schema; a schema the plan cannot infer Ray fetches with a
    hidden ``limit(1)`` execution, a second partial run whose cancel of
    in-flight tasks can abort the driver. Here the blocks come from one
    ``materialize()`` and keep the schemas their bundles carry; a block
    that is not Arrow (pandas, or an empty one of no known schema)
    becomes an Arrow table in a task."""
    refs = []
    for bundle in ds.materialize().iter_internal_ref_bundles():
        arrow = isinstance(bundle.schema, pa.Schema)
        refs += [r if arrow else _to_arrow.remote(r)
                 for r, _ in bundle.blocks]
    return refs


@ray.remote
def _split_hash(bucket_col: str, nb: int, *tbls, prepare=None):
    # a map_batches stage that filters a block to zero rows can emit a
    # SCHEMA-LESS empty block (no bucket column); empty blocks carry no
    # rows, so a group of only those splits into nb column-less empties
    # (concat skips them at the merge) rather than aborting the exchange
    live = [_as_arrow(t) for t in tbls]
    live = [t if prepare is None else prepare(t) for t in live if t.num_rows]
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


def _rows_where(where, tbl) -> pa.Table:
    """One block as Arrow, cut to the rows ``where`` keeps (all rows
    when ``where`` is None)."""
    tbl = _as_arrow(tbl)
    return where(tbl) if where is not None and tbl.num_rows else tbl


@ray.remote
def _sample(col: str, where, tbl):
    """Boundary samples of one block's ``col`` over the rows ``where``
    keeps; None when none are left (an empty block may carry no schema
    at all)."""
    tbl = _rows_where(where, tbl)
    if not tbl.num_rows:
        return None
    v = tbl[col].to_numpy(zero_copy_only=False)
    return np.sort(v)[::SAMPLE_EVERY].copy()


@ray.remote
def _split_range(col: str, bounds: np.ndarray, where, *tbls):
    tbl = pa.concat_tables([_rows_where(where, t) for t in tbls],
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


def _store_bytes() -> int:
    return (int(ray.cluster_resources().get("object_store_memory", 0))
            if ray.is_initialized() else 0)


def round_plan(nbytes: int | None = None) -> int:
    """A round's task or bucket count: the smallest multiple of the
    CPUs (a partial wave costs a full one) that keeps each task's share
    of ``nbytes`` within a Ray Data target block and half a CPU's share
    of the object store (a wave holds inputs and outputs); no floor."""
    cpus = max(1, _cluster_cpus())
    cap = min(ray.data.DataContext.get_current().target_max_block_size
              or 1 << 62, _store_bytes() // (2 * cpus) or 1 << 62)
    return cpus * max(1, -(-int(nbytes or 0) // (cpus * cap)))


def _chunked(refs: Sequence, n: int) -> list:
    chunk = max(1, -(-len(refs) // n))
    return [refs[i:i + chunk] for i in range(0, len(refs), chunk)]


# -- planned Parquet read ---------------------------------------------------

def plan_parquet(path: str) -> list | None:
    """``(file, rows, uncompressed bytes)`` per Parquet file of ``path``,
    read from the footers: one file, or a flat directory's files in
    sorted order (names starting with ``.`` or ``_`` skipped). None for
    a directory with subdirectories: hive partition columns are
    ``ray.data.read_parquet``'s job."""
    if os.path.isfile(path):
        files = [path]
    else:
        names = [n for n in sorted(os.listdir(path))
                 if not n.startswith((".", "_"))]
        files = [os.path.join(path, n) for n in names]
        if any(os.path.isdir(f) for f in files):
            return None
    plan = []
    for f in files:
        md = pq.read_metadata(f)
        plan.append((f, md.num_rows,
                     sum(md.row_group(i).total_byte_size
                         for i in range(md.num_row_groups))))
    return plan


@ray.remote
def _read_slices(path: str, k: int):
    """One Parquet file read by one task, cut into ``k`` zero-copy row
    slices (Ray serializes only each slice's buffer range)."""
    t = pq.ParquetFile(path).read()
    step = -(-t.num_rows // k)
    return _returns([t.slice(i * step, step) for i in range(k)])


def read_planned(plan: list) -> list:
    """Refs to the row slices of a :func:`plan_parquet` plan, one read
    task per file: about :func:`round_plan` of the footer bytes in all,
    each file's share in proportion to its rows (at least one), so each
    split task gets one slice and no Ray Data execution runs first."""
    n = round_plan(sum(nbytes for _, _, nbytes in plan))
    total = max(1, sum(rows for _, rows, _ in plan))
    refs = []
    for f, rows, _ in plan:
        k = max(1, min(rows, round(n * rows / total)))
        refs += _submit(_read_slices, k, f, k)
    return refs


#: direct-task-graph budget: a materialized input above this falls back
#: to the executor operator (spill/backpressure machinery) instead of
#: holding the whole stream as task-graph refs. The contract ("narrow /
#: post-reduction streams only") is enforced, not advisory.
EXCHANGE_BYTES_BUDGET = 2 << 30


def _over_budget(size: int, bytes_budget: int | None, what: str) -> bool:
    if bytes_budget is None or size <= bytes_budget:
        return False
    LOGGER.warning(
        "%s input is %.1f MB (> %.1f MB budget): falling back to the "
        "executor path — this exchange is for narrow/post-reduction "
        "streams", what, size / 1e6, bytes_budget / 1e6)
    return True


def hash_bucket_apply(ds: ray.data.Dataset | Sequence[ray.ObjectRef],
                      bucket_col: str,
                      merge_fn: Callable[[pa.Table], pa.Table], *,
                      num_buckets: int = 64,
                      bytes_budget: int = EXCHANGE_BYTES_BUDGET,
                      prepare: Callable[[pa.Table], pa.Table] | None = None
                      ) -> ray.data.Dataset:
    """Group-apply as one task graph.

    Every row whose ``bucket_col`` matches lands in exactly one MERGE
    task, which runs ``merge_fn`` over the whole group-set — identical
    semantics to ``groupby(bucket_col).map_groups(merge_fn)`` for
    kernels (like the politeness scheduler) that handle multiple
    groups per call.

    ``prepare`` (a picklable ``table -> table`` function, the twin of
    :func:`range_order`'s ``where``) runs on each non-empty input block
    inside the split tasks, before routing, and may add ``bucket_col``
    itself: the per-row pass that feeds the round is no execution of
    its own, and its output is never pinned before the split.

    ``ds`` is a Dataset, split by :func:`round_plan` of its bytes, or a
    list of refs to Arrow tables with at least one row in total (a
    planned read, :func:`read_planned`): one split task per ref, with
    no materialize and no budget check (their planner sized them).

    Executes eagerly (the task graph needs materialized input blocks);
    the input should be the narrow/post-reduction stream of a pipeline,
    not its raw input. A Dataset over ``bytes_budget`` falls back to the
    executor ``map_batches(prepare)`` + ``groupby().map_groups()`` path
    (same rows, executor spill/backpressure instead of object-store
    pressure).
    """
    if isinstance(ds, ray.data.Dataset):
        mat = ds.materialize()
        size = mat.size_bytes() or 0
        if _over_budget(size, bytes_budget, "hash_bucket_apply"):
            if prepare is not None:
                mat = mat.map_batches(prepare, batch_format="pyarrow",
                                      batch_size=None)
            return mat.groupby(bucket_col).map_groups(
                merge_fn, batch_format="pyarrow")
        if not mat.count():
            # empty input: run merge_fn once over an empty typed table so
            # the OUTPUT schema (what downstream select_columns sees) is
            # merge_fn's, not the input's
            try:
                empty = mat.schema().base_schema.empty_table()
                if prepare is not None:
                    empty = prepare(empty)
                return ray.data.from_arrow(merge_fn(empty))
            except Exception:
                return mat
        groups = _chunked(mat.to_arrow_refs(), round_plan(size))
    else:
        groups = [[r] for r in ds]

    nb = num_buckets
    splits = [_submit(_split_hash, nb, bucket_col, nb, *g, prepare=prepare)
              for g in groups]
    return ray.data.from_arrow_refs(
        [_merge_bucket.remote(merge_fn, *[sp[b] for sp in splits])
         for b in range(nb)])


def range_order(ds: ray.data.Dataset, cols: Sequence[str], *,
                where: Callable[[pa.Table], pa.Table] | None = None,
                bytes_budget: int = EXCHANGE_BYTES_BUDGET
                ) -> ray.data.Dataset:
    """Global order by ``cols`` (lexicographic, ascending) as one range
    exchange — the task-graph twin of ``Dataset.sort(cols)``.

    ``where`` (a picklable ``table -> table`` row filter) keeps only
    the rows it returns. It runs inside the sample and split tasks, so
    filtering costs no execution of its own.

    Range boundaries are quantiles of sampled ``cols[0]`` values, and a
    row goes to range ``searchsorted(bounds, cols[0], 'right')``, so
    rows with equal ``cols[0]`` always share a range; each range's
    merge ``np.lexsort``s all of ``cols``. Concatenating the ranges in
    order is therefore the global order, whatever the value widths.

    Executes eagerly, like :func:`hash_bucket_apply`; a stream over
    ``bytes_budget`` falls back to the executor ``Dataset.sort``.
    """
    mat = ds.materialize()
    kept = mat if where is None else mat.map_batches(
        where, batch_format="pyarrow", batch_size=None)
    size = mat.size_bytes() or 0
    if _over_budget(size, bytes_budget, "range_order"):
        return kept.sort(list(cols))
    refs = mat.to_arrow_refs()
    samples = ray.get([_sample.remote(cols[0], where, r) for r in refs])
    live = [(r, s) for r, s in zip(refs, samples) if s is not None]
    if not live:
        return kept
    refs = [r for r, _ in live]
    alls = np.sort(np.concatenate([s for _, s in live]))
    n = round_plan(size)
    nr = min(n, len(refs))
    qs = np.linspace(0, len(alls) - 1, nr + 1)[1:-1].astype(np.int64)
    bounds = np.unique(alls[qs])
    nr = len(bounds) + 1

    rsplits = [_submit(_split_range, nr, cols[0], bounds, where, *g)
               for g in _chunked(refs, n)]
    return ray.data.from_arrow_refs(
        [_merge_range.remote(list(cols), *[s[r] for s in rsplits])
         for r in range(nr)])
