"""Direct task-graph exchange: barrier-light shuffle for narrow streams.

Ray Data's ``sort`` / ``groupby`` operators are the right tool when the
shuffled payload is a large fraction of the input, but each one costs a
boundary-sampling round plus two executor barriers — a fixed ~2-4 s on
this engine's post-dedup survivor streams (measured: the flagship's
politeness groupby + final order sort added ~6 s of wall at 8 CPUs for
a 593k-row / ~80 MB stream whose actual kernel work is <0.5 s).

This module implements the same shuffles as direct Ray task graphs
(the pattern already proven by the first-wins winner combine,
dedup.py), each a SPLIT round that partitions every input block into
per-bucket slices (single argsort pass, ``num_returns`` slices per
task) and a MERGE round that concatenates and reduces each bucket:

- :func:`hash_bucket_apply` — group-apply by an int bucket column (the
  ``groupby().map_groups()`` twin); no sampling round.
- :func:`range_order` — global lexicographic order (the
  ``Dataset.sort()`` twin); one sampling task per block picks the range
  boundaries, so the driver only ever sees O(blocks x sample) keys,
  never rows.

Scale contract: rounds are O(blocks + buckets) tasks and the driver
holds only object refs + samples, so the pattern scales exactly like
the executor shuffle it replaces; use it when per-job fixed latency
matters (the scheduling tail of a much larger pipeline). An input over
``EXCHANGE_BYTES_BUDGET`` falls back to the executor operator, which
brings its spill/backpressure machinery.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data

logger = logging.getLogger(__name__)


def _split_by_code(tbl: pa.Table, codes: np.ndarray, n: int):
    """Partition ``tbl`` into ``n`` slices by int bucket codes: one
    stable argsort + take, then zero-copy slices (``n`` filter scans
    would read the block ``n`` times)."""
    order = np.argsort(codes, kind="stable")
    t = tbl.take(pa.array(order))
    bounds = np.searchsorted(codes[order], np.arange(n + 1))
    return [t.slice(bounds[p], bounds[p + 1] - bounds[p]) for p in range(n)]


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
        empty = pa.table({})
        return empty if nb == 1 else tuple([empty] * nb)
    tbl = pa.concat_tables(live, promote_options="permissive")
    codes = tbl[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
    slices = _split_by_code(tbl, codes, nb)
    # with num_returns=1 Ray returns the value as-is — a 1-tuple here
    # would reach the merge side unexploded
    return slices[0] if nb == 1 else tuple(slices)


@ray.remote
def _merge_bucket(merge_fn, *tbls):
    """Concat one bucket's slices and apply ``merge_fn``."""
    t = pa.concat_tables([x for x in tbls if x.num_rows] or [tbls[0]],
                         promote_options="permissive")
    return merge_fn(t)


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
    slices = _split_by_code(tbl, codes, len(bounds) + 1)
    return slices[0] if len(slices) == 1 else tuple(slices)


@ray.remote
def _merge_range(cols: Sequence[str], *tbls):
    t = pa.concat_tables([x for x in tbls if x.num_rows] or [tbls[0]],
                         promote_options="permissive")
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
    logger.warning(
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
    splits = [_split_hash.options(num_returns=nb).remote(bucket_col, nb, *g)
              for g in _chunked(refs)]
    if nb == 1:  # num_returns=1 collapses the tuple
        splits = [[s] for s in splits]
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

    rsplits = [_split_range.options(num_returns=nr).remote(
        cols[0], bounds, *g) for g in _chunked(refs)]
    if nr == 1:
        rsplits = [[s] for s in rsplits]
    return ray.data.from_arrow_refs(
        [_merge_range.remote(list(cols), *[s[r] for s in rsplits])
         for r in range(nr)])
