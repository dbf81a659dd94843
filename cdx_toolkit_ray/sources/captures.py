"""Captures-table source: the CDX query engine over partitioned Parquet.

Re-expresses the reference's capture-iteration surface
(cocrawler/cdx_toolkit cdx_toolkit/__init__.py:260-384 — get / iter /
get_size_estimate, endpoint walk, limit decrement) as one planned
graph of Ray tasks:

* one hive partition ``crawl=CC-MAIN-YYYY-WW/`` of the captures table
  stands in for one per-crawl CDX endpoint (SURVEY.md §1.2)
* ``plan_query`` selects and orders the crawls (partition pruning — no
  byte of a non-selected crawl is read), lists each partition's files
  and picks the columns to read from the Parquet footers: fields plus
  predicate columns, or the whole schema when no fields are given
* one scan task per partition reads its files in sorted path order and
  runs the vectorized url match, time window and filter language
  (``CaptureMatcher``) over them
* ``scan_captures`` submits the scans in cc_sort order, at most the
  cluster's CPU count in flight, and yields their tables in plan order:
  ascending (urlkey, timestamp) within a crawl, crawls concatenated in
  cc_sort order (README.md:243-252)
* ``limit`` is the reference's decrement-and-break
  (__init__.py:291-294): once ``limit`` rows are out no further scan is
  submitted and the last table is sliced. Scans still in flight finish
  and are dropped; no task is ever cancelled
* ``closest`` ranks each partition by distance to the target, and one
  merge task ranks their union, keeping ``limit`` rows

``CDXFetcher.iter`` consumes the stream directly, so its first row
costs one partition's scan; ``query_captures`` wraps the same refs in a
``ray.data.Dataset`` for pipelines that continue in Ray Data.
``size_estimate`` counts every selected partition with the same kernel
and columns in one round of tasks.

Each scan worker keeps the columns it decoded (``_DECODED``): an entry
per file, keyed by the file's path, stat identity and raw Parquet
footer, holding the columns queries have read from it so far and its
hive partition columns. A later scan of the same file decodes only the
columns its entry lacks. Entries are evicted least recently used first
to keep the worker's bytes within ``DataContext.target_max_block_size``;
a file whose columns exceed that alone is read and not kept.

Scale notes: partitions scan independently (no shuffle anywhere in
this source). A scan holds one file plus its matches in memory, and
each scan worker holds at most ``target_max_block_size`` bytes of
decoded columns between scans.
"""

from __future__ import annotations

import math
import os
import re
from collections import OrderedDict, deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data import DataContext
from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

from ..filters import apply_filters, compile_filters
from ..planner import (
    UrlMatch,
    pad_timestamp,
    pad_timestamp_up,
    resolve_query_params,
    select_crawls,
    url_to_match,
)
from ..timeutils import timestamps_to_epoch

LINES_PER_PAGE = 3000  # parity: cdx_toolkit/__init__.py:29

# collinfo-cache parity (cdx_toolkit/commoncrawl.py:42-70): the crawl
# list refreshes at most once per TTL; within the TTL the memo answers
# without touching storage.
COLLINFO_TTL_SEC = 86400.0
_PARTITIONS_CACHE: dict[str, tuple[float, dict[str, str]]] = {}


def list_crawl_partitions(captures_root: str, *, now: float | None = None,
                          ttl: float = COLLINFO_TTL_SEC) -> dict[str, str]:
    """Discover hive partitions: {crawl_name: partition_dir}.

    Results are memoized per root with the reference's 24h collinfo
    TTL; pass ``ttl=0`` (or a ``now`` past the entry) to force a
    re-scan. ``now`` is injectable so the TTL contract is testable
    without wall-clock sleeps.
    """
    import time

    t = time.time() if now is None else now
    hit = _PARTITIONS_CACHE.get(captures_root)
    if hit is not None and t - hit[0] < ttl:
        return hit[1]
    out = {}
    for entry in sorted(os.listdir(captures_root)):
        m = re.match(r"crawl=(.+)$", entry)
        if m:
            out[m.group(1)] = os.path.join(captures_root, entry)
    _PARTITIONS_CACHE[captures_root] = (t, out)
    return out


def _url_mask(batch: pa.Table, um: UrlMatch) -> pa.ChunkedArray:
    key = pc.cast(batch["urlkey"], pa.string())
    if um.match_type == "exact":
        return pc.equal(key, um.key)
    if um.match_type == "prefix":
        return pc.starts_with(key, um.key)
    if um.match_type == "host":
        return pc.starts_with(key, um.key + ")")
    # domain: the host itself or any subdomain of it
    return pc.or_(pc.starts_with(key, um.key + ")"),
                  pc.starts_with(key, um.key + ","))


class CaptureMatcher:
    """Table callable: url match + time window + filter language.

    All three predicates are vectorized Arrow kernels compiled once
    (the filter regexes especially), ANDed per table.
    """

    def __init__(self, um: UrlMatch | None, from_ts: str | None,
                 to: str | None, filters, source: str = "cc"):
        self.um = um
        self.lo = pad_timestamp(from_ts) if from_ts else None
        self.hi = pad_timestamp_up(to) if to else None
        self.compiled = compile_filters(filters, source)

    @property
    def predicate_columns(self) -> set[str]:
        """The columns the predicates read; empty when every row
        matches."""
        cols = {cf.field for cf in self.compiled}
        if self.um is not None:
            cols.add("urlkey")
        if self.lo is not None or self.hi is not None:
            cols.add("timestamp")
        return cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        mask = None
        if self.um is not None:
            mask = _url_mask(batch, self.um)
        if self.lo is not None or self.hi is not None:
            ts = pc.cast(batch["timestamp"], pa.string())
        if self.lo is not None:
            m = pc.greater_equal(ts, self.lo)
            mask = m if mask is None else pc.and_(mask, m)
        if self.hi is not None:
            m = pc.less_equal(ts, self.hi)
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            batch = batch.filter(pc.fill_null(mask, False))
        return apply_filters(batch, self.compiled)


def _partition_files(part: str) -> list[str]:
    """Parquet files of one partition in sorted path order. A partition
    is a single parquet FILE (a ``--source`` custom table), a flat
    directory, or a nested hive layout (recursive walk)."""
    if os.path.isfile(part):
        return [part]
    return sorted(os.path.join(root, f) for root, _, files in os.walk(part)
                  for f in files if f.endswith(".parquet"))


def _hive_values(path: str) -> dict[str, str]:
    """``key=value`` directory names on a file's path: the partition
    columns a hive reader adds to its rows (as strings)."""
    return dict(d.split("=") for d in os.path.dirname(path).split("/")
                if d.count("=") == 1)


@dataclass(frozen=True)
class PartitionScan:
    """One chosen partition: its files and the columns to read from
    them (``None`` reads the whole schema)."""

    path: str
    files: list[str]
    columns: list[str] | None


@dataclass(frozen=True)
class CapturePlan:
    """A planned capture query: partitions in cc_sort order plus what
    every scan applies to them."""

    partitions: list[PartitionScan]
    matcher: CaptureMatcher
    fields: list[str] | None
    limit: int | None
    closest: float | None   # target as unix seconds


def plan_query(captures_root: str, url: str | None = None, source: str = "cc",
               cc_sort: str = "mixed", crawl=None,
               fields: list[str] | None = None,
               now: float | None = None, **kwargs) -> CapturePlan:
    """Resolve params, prune and order partitions, and pick each
    partition's files and read columns.

    kwargs: from_ts, to, closest, limit, filter, matchType — the
    reference's param vocabulary (__init__.py:261-262). ``fields`` are
    the output columns: ``None`` reads and returns the whole schema; a
    list (empty for a count) reads only those fields plus the predicate
    and sort columns, as far as the partition's footer schema carries
    them — a missing positive-filter field matches nothing, which the
    matcher handles (dynamic-schema parity).
    """
    match_type = kwargs.pop("matchType", None)
    limit = kwargs.pop("limit", None)
    filters = kwargs.pop("filter", None)
    closest = kwargs.get("closest")
    params = resolve_query_params(url or "", source=source, crawl=crawl,
                                  now=now, **kwargs)
    if source == "custom":
        # arbitrary-endpoint source (reference source=<URL> analog): the
        # whole table is ONE endpoint — pywb dialect, no crawl pruning
        dirs = [captures_root]
    else:
        parts = list_crawl_partitions(captures_root)
        available = sorted(parts)
        chosen = (select_crawls(available, cc_sort, params)
                  if source == "cc" else available)
        dirs = [parts[c] for c in chosen]
    um = url_to_match(url, match_type) if url else None
    matcher = CaptureMatcher(um, params.get("from_ts"), params.get("to"),
                             filters, source)

    need = None
    if fields is not None:
        need = set(fields) | matcher.predicate_columns
        if closest is not None:
            need.update(("urlkey", "timestamp"))  # the ranking's sort keys
    partitions = []
    for d in dirs:
        files = _partition_files(d)
        if not files:
            continue  # a partition without parquet files has no rows
        cols = None
        if need is not None:
            present = set(pq.read_schema(files[0]).names) \
                | set(_hive_values(files[0]))
            cols = sorted(need & present)
        partitions.append(PartitionScan(d, files, cols))
    target = None
    if closest is not None:
        target = timestamps_to_epoch(
            pa.array([pad_timestamp(str(closest))]))[0].as_py()
    return CapturePlan(partitions, matcher, list(fields) if fields else None,
                       None if limit is None else int(limit), target)


@dataclass
class _FileColumns:
    """One file's decoded columns, kept by one scan worker."""

    ident: tuple          # stat identity and footer (_file_identity)
    names: list[str]      # the file's column names
    table: pa.Table | None  # the columns decoded so far, in read order
    hive: dict            # built hive partition columns by key
    nbytes: int           # the footer and the columns held


class _DecodedColumns:
    """A scan worker's decoded columns: file entries, least recently
    used first, holding at most ``DataContext.target_max_block_size``
    bytes (an entry is dropped whole)."""

    def __init__(self):
        self.files: OrderedDict[str, _FileColumns] = OrderedDict()
        self.nbytes = 0

    def take(self, path: str, ident: tuple) -> _FileColumns | None:
        """Remove ``path``'s entry and return it if it is still the
        file named by ``ident``."""
        entry = self.files.pop(path, None)
        if entry is None:
            return None
        self.nbytes -= entry.nbytes
        return entry if entry.ident == ident else None

    def keep(self, path: str, entry: _FileColumns) -> None:
        """Store ``entry`` as the most recent one and evict the least
        recent ones past the budget (``entry`` itself last, when it
        exceeds the whole budget)."""
        budget = DataContext.get_current().target_max_block_size
        if budget is None:
            budget = DEFAULT_TARGET_MAX_BLOCK_SIZE
        self.files[path] = entry
        self.nbytes += entry.nbytes
        while self.nbytes > budget:
            self.nbytes -= self.files.popitem(last=False)[1].nbytes


# per process: a scan worker keeps the columns it decoded for the next
# query that reads the same file
_DECODED = _DecodedColumns()


def _file_identity(path: str) -> tuple:
    """The file's stat identity plus its raw Parquet footer (the last
    ``8 + footer_len`` bytes), so a rewrite in place within one mtime
    tick still reads as another file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        st = os.fstat(fd)
        end = st.st_size - 8
        n = int.from_bytes(os.pread(fd, 4, max(0, end)), "little")
        footer = os.pread(fd, n + 8, max(0, end - n))
    finally:
        os.close(fd)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
            st.st_ctime_ns, footer)


def _read_file(path: str, columns: list[str] | None) -> pa.Table:
    """``columns`` of one file (all of them for ``None``) plus the hive
    partition columns on its path, as ``ParquetFile.read`` and an
    appended string column per hive key give them: a requested column
    the file lacks is skipped. Columns the worker decoded before come
    from ``_DECODED``; only the missing ones are read from disk."""
    hive = _hive_values(path)
    ident = _file_identity(path)
    entry = _DECODED.take(path, ident)
    pf = None
    if entry is None:
        pf = pq.ParquetFile(path)
        entry = _FileColumns(ident, pf.schema_arrow.names, None, {},
                             len(ident[-1]))
    names = entry.names if columns is None else \
        [c for c in columns if c not in hive and c in entry.names]
    if entry.table is None:
        # a new entry starts from the read of this call's columns (none
        # at all still gives the file's row count)
        entry.table = pf.read(columns=names)
        entry.nbytes += entry.table.get_total_buffer_size()
    missing = [c for c in names if c not in entry.table.column_names]
    if missing:
        t = pq.ParquetFile(path).read(columns=missing)
        for field, col in zip(t.schema, t.columns):
            entry.table = entry.table.append_column(field, col)
        entry.nbytes += t.get_total_buffer_size()
    table = entry.table
    if table.column_names != names:
        table = table.select(names)
    for k, v in hive.items():
        if k not in names and (columns is None or k in columns):
            if k not in entry.hive:
                entry.hive[k] = pa.repeat(pa.scalar(v, pa.string()),
                                          table.num_rows)
                entry.nbytes += entry.hive[k].get_total_buffer_size()
            table = table.append_column(pa.field(k, pa.string()),
                                        entry.hive[k])
    _DECODED.keep(path, entry)
    return table


def _closest_head(table: pa.Table, limit: int | None) -> pa.Table:
    """Rank by (closest_delta, timestamp, urlkey) — a stable sort, so
    full ties keep their input order — and keep ``limit`` rows."""
    return table.sort_by([("closest_delta", "ascending"),
                          ("timestamp", "ascending"),
                          ("urlkey", "ascending")]).slice(0, limit)


def _select(table: pa.Table, fields: list[str] | None) -> pa.Table:
    return table.select(fields) if fields else table


def _scan(plan: CapturePlan, i: int) -> pa.Table:
    """The scan kernel: read partition ``i``'s files in order and
    match them. Without ``closest`` the scan stops reading files once
    ``limit`` rows matched, since no partition contributes more than
    ``limit`` rows."""
    part = plan.partitions[i]
    tables, n = [], 0
    for path in part.files:
        t = plan.matcher(_read_file(path, part.columns))
        tables.append(t)
        n += t.num_rows
        if plan.closest is None and plan.limit is not None \
                and n >= plan.limit:
            break
    table = pa.concat_tables(tables, promote_options="default")
    if plan.closest is not None:
        delta = pc.abs(pc.subtract(timestamps_to_epoch(table["timestamp"]),
                                   plan.closest))
        table = _closest_head(table.append_column("closest_delta", delta),
                              plan.limit)
    else:
        table = _select(table.slice(0, plan.limit), plan.fields)
    return table


@ray.remote(num_returns=2)
def _scan_partition(plan: CapturePlan, i: int) -> tuple[pa.Table, int]:
    """``_scan`` in a scan worker: (matched table, its row count)."""
    table = _scan(plan, i)
    return table, table.num_rows


@ray.remote
def _merge_closest(plan: CapturePlan, *tables: pa.Table) -> pa.Table:
    """Rank the union of the partitions' ranked tables. Each holds its
    partition's best ``limit`` rows, so the union holds the best
    ``limit`` overall."""
    merged = pa.concat_tables(tables, promote_options="default")
    return _select(_closest_head(merged, plan.limit), plan.fields)


def _scan_width() -> int:
    """Scans kept in flight: the cluster's CPU count."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def scan_captures(plan: CapturePlan) -> Iterator[ray.ObjectRef]:
    """The ordered stream: refs to the plan's matched tables, in plan
    order, cut at its ``limit``.

    Scans are submitted in plan order with at most the cluster's CPU
    count in flight. Once ``limit`` rows are out no further scan is
    submitted, the last table is sliced, and the scans still in flight
    are left to finish and dropped — nothing is cancelled.
    """
    if not plan.partitions:
        return
    todo = iter(range(len(plan.partitions)))
    if plan.closest is not None:
        yield _merge_closest.remote(
            plan, *(_scan_partition.remote(plan, i)[0] for i in todo))
        return
    # the first .remote() starts Ray when no session is up, so the
    # width is read after it
    in_flight = deque([_scan_partition.remote(plan, next(todo))])
    in_flight.extend(_scan_partition.remote(plan, i)
                     for i in islice(todo, _scan_width() - 1))
    remaining = plan.limit
    while in_flight:
        table_ref, n_ref = in_flight.popleft()
        n = ray.get(n_ref)
        if remaining is not None and n >= remaining:
            if n > remaining:
                table_ref = ray.put(ray.get(table_ref).slice(0, remaining))
            yield table_ref
            return
        if remaining is not None:
            remaining -= n
        in_flight.extend(_scan_partition.remote(plan, i)
                         for i in islice(todo, 1))
        yield table_ref


def query_captures(captures_root: str, url: str | None = None,
                   source: str = "cc", cc_sort: str = "mixed", crawl=None,
                   fields: list[str] | None = None,
                   now: float | None = None, **kwargs) -> ray.data.Dataset:
    """The capture query as a ``ray.data.Dataset`` (reference .iter
    parity), for pipelines that continue in Ray Data: the stream's
    tables, in order, as the Dataset's blocks.

    kwargs: from_ts, to, closest, limit, filter, matchType — the
    reference's param vocabulary (__init__.py:261-262).
    """
    plan = plan_query(captures_root, url=url, source=source, cc_sort=cc_sort,
                      crawl=crawl, fields=fields or None, now=now, **kwargs)
    refs = list(scan_captures(plan))
    if not refs:
        return ray.data.from_arrow(pa.table({"urlkey": []}))
    return ray.data.from_arrow_refs(refs)


def pages_to_samples(pages: int) -> int:
    """Page-count -> sample-count adjustment (parity __init__.py:43-50)."""
    p = float(pages)
    if p > 1:
        p -= 1.0
    elif p >= 1:
        p -= 0.5
    return int(p * LINES_PER_PAGE)


def size_estimate(captures_root: str, url: str | None = None,
                  source: str = "cc", cc_sort: str = "mixed", crawl=None,
                  as_pages: bool = False, details: bool = False,
                  now: float | None = None, **kwargs):
    """Approximate result-size estimate (reference get_size_estimate
    parity, __init__.py:344-384): per-crawl matching row counts ->
    pages of 3,000 -> pages_to_samples, summed in plan order with early
    break past ``limit``.

    Counting is metadata-only (Parquet row counts) when there is no
    predicate; otherwise one scan task per partition, all in one round,
    reading only the predicate columns the query would read.
    """
    limit = kwargs.pop("limit", None)
    kwargs.pop("closest", None)
    plan = plan_query(captures_root, url=url, source=source, cc_sort=cc_sort,
                      crawl=crawl, fields=[], now=now, **kwargs)
    if plan.matcher.predicate_columns:
        counts = ray.get([_scan_partition.remote(plan, i)[1]
                          for i in range(len(plan.partitions))])
    else:
        counts = [sum(pq.read_metadata(f).num_rows for f in p.files)
                  for p in plan.partitions]

    total_pages = 0
    total_samples = 0
    per_crawl = []
    for part, n in zip(plan.partitions, counts):
        pages = math.ceil(n / LINES_PER_PAGE)
        samples = pages_to_samples(pages)
        total_pages += pages
        total_samples += samples
        per_crawl.append((os.path.basename(part.path), samples))
        if limit is not None and samples > limit:
            break

    if details:
        return (total_pages if as_pages else total_samples), per_crawl
    return total_pages if as_pages else total_samples
