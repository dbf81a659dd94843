"""The integrated crawl loop: seeds -> fetch -> discover -> fetch.

``crawl_bfs`` (stages/links.py) walks a PRE-EXTRACTED link graph;
``fetch_execute`` (pipelines/fetch.py) executes ONE wave of a schedule.
This module closes the feedback edge between them — the loop the
reference leaves to its users (the examples/iter-and-warc composition
over ``obj.content``, reference cdx_toolkit/__init__.py:122-127 +
cli.py:235-276): each wave's *fetched content* is the only place the
next wave's URLs can come from. A page that fails its fetch (invalid /
retry-exhausted under the deterministic fault schedule) contributes no
outlinks, so the reachable set is fetch-outcome-dependent — semantics
``crawl_bfs`` cannot express.

Wave anatomy (driver holds only object refs + a per-wave count):

1. **gate** — the wave frontier is offered block-wise to the sharded
   URL-seen actor pool (state/seen.py, ``exact=True`` for the oracle's
   zero-FP contract); first-seen-wins across and within waves.
2. **fetch** — survivors run through the ``FetchExecutor`` actor pool
   (RetryPolicy classification, virtual backoff, max-attempt budget)
   against the injectable transport. One streaming-executor launch per
   wave; transport state loads once per actor.
3. **discover** — outlinks are harvested from the *ok* rows' fetched
   text by one raw task per fetched block (``links.link_kernel``, the
   crawl_bfs probe-round pattern — no extra executor launch), and the
   distinct dst URLs become the next wave's frontier.

``crawl_waves`` and ``run_crawl`` run the same wave loop
(``_wave_loop``). ``run_crawl`` adds, around it, per-wave politeness
and persistence:

- **schedule** — between the seen gate and the fetch, each wave runs
  ONE host round (``frontier._host_round``): its split tasks add fetch
  ids, hosts and robots flags; its merges fold the earlier waves'
  per-host (host, last slot, count) partials and slot the rows on the
  engine's one politeness kernel (``frontier.make_bucket_scheduler``,
  ranked by url, the carried last slot as base); ``max_per_host``
  filters ``prior + host_rank < cap`` after it;
- **persist** — one atomic partition per wave plus its manifest entry;
  a resume re-primes the seen gate, the partials and the frontier
  from the stored waves.

Scale notes (100 TB / multi-node): the per-wave fetched blocks stay in
the object store as refs (spillable); the seen set is the sharded actor
pool a resumable crawl checkpoints; the loop count is the bounded
``max_waves``, never data-dependent. At real scale the payload side of
the transport rides the hash-bucket content join (pipelines/warcout.py
extract_content) — ``UrlTableTransport``'s per-actor index is the
bounded-corpus sandbox twin.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..canon import hash64_batch
from ..state.seen import SeenFilterStage, ShardedSeenSet
from ..stages.links import _gate_block, link_kernel
from .fetch import TableTransport, fetch_execute
from .frontier import (_host_round, load_robots, make_bucket_scheduler,
                       make_robots_gate)

__all__ = ["UrlTableTransport", "crawl_waves", "run_crawl"]

_OUT_SCHEMA = pa.schema([
    ("url", pa.string()), ("wave", pa.int64()),
    ("n_attempts", pa.int64()), ("final_status", pa.int64()),
    ("fetch_action", pa.string()), ("text", pa.string()),
])


class UrlTableTransport(TableTransport):
    """Sandbox transport keyed by ``hash64(url)`` (canon.py FNV-1a):
    the fault schedule is the same pure function of (id, attempt) as
    :class:`TableTransport` — here the id is the url hash, so a serial
    oracle replays it from the url string alone. Payloads resolve from
    the pages table by hashing its url column once per actor
    (column-pruned read).

    A pages table is an ARCHIVE — multiple captures per url — but a
    live fetch returns one current page, so when ``ts_col`` exists the
    LATEST capture wins (max ``ts_col`` per url; ``(url, ts)`` is
    unique in the fixture contract). Without a timestamp column the
    first file-order row wins.

    No over-budget filtered path exists here: the hash column is not on
    disk, so predicate pushdown can't prune row groups. At corpus scale
    payload resolution belongs to the hash-bucket content join
    (extract_content); this transport is the bounded-corpus twin and
    raises above ``index_budget_bytes`` rather than silently scanning.
    """

    def __init__(self, table_path: str, url_col: str = "url",
                 text_col: str = "text", ts_col: str | None = "warc_ts",
                 index_budget_bytes: int = 1 << 31):
        super().__init__(table_path, id_col=url_col, text_col=text_col,
                         index_budget_bytes=index_budget_bytes)
        self.ts_col = ts_col

    def _load(self) -> None:
        import pyarrow.parquet as pq

        have_ts = (self.ts_col is not None and self.ts_col in
                   pq.read_schema(self.table_path).names)
        cols = [self.id_col, self.text_col] + \
            ([self.ts_col] if have_ts else [])
        t = pq.read_table(self.table_path, columns=cols)
        ids = hash64_batch(t[self.id_col]).view(np.int64)
        if have_ts:
            ts = t[self.ts_col].cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            # primary: hash; secondary: ts ascending -> the run's LAST
            # row per hash is the latest capture
            order = np.lexsort((ts, ids))
            sids = ids[order]
            last = np.r_[sids[1:] != sids[:-1], True] \
                if len(sids) else np.zeros(0, bool)
            self._ids = sids[last]
            keep = order[last]
        else:
            order = np.argsort(ids, kind="stable")
            sids = ids[order]
            first = np.r_[True, sids[1:] != sids[:-1]] \
                if len(sids) else np.zeros(0, bool)
            self._ids = sids[first]
            keep = order[first]
        self._texts = t[self.text_col].combine_chunks().take(
            pa.array(keep))

    def _payloads_filtered(self, ids: np.ndarray) -> pa.Array:
        raise NotImplementedError(
            "pages table exceeds index_budget_bytes and hash64(url) "
            "cannot push down to parquet row groups; resolve payloads "
            "through the hash-bucket content join (extract_content) "
            "at this scale")


def _add_fetch_id(batch: pa.Table) -> pa.Table:
    h = hash64_batch(batch["url"]).view(np.int64)
    return batch.append_column("fetch_id", pa.array(h, pa.int64()))


def _prep_wave(batch: pa.Table) -> pa.Table:
    """(url, hop) -> + fetch_id (hash64 of the raw url, the fault-
    schedule identity) + host (the politeness/robots key, via the
    proven canonicalizer kernel)."""
    from ..canon import canonicalize_batch

    batch = _add_fetch_id(batch)
    cb = canonicalize_batch(batch.select(["url"]))
    return batch.append_column("host", cb["host"])


# --- cross-wave politeness: per-host partials beside the wave's rows ----
#
# The per-host virtual clock must hold ACROSS waves, not only within
# one (the fetch_requeue contract generalized to N waves): wave w+1's
# first slot for host h starts after wave w's last slot for h. The
# carried state is one narrow (host, last_ms, n_fetched) partial per
# host per scheduled block of each earlier wave (per stored wave file
# on resume). The partials travel through the wave's host round beside
# the rows, never through a driver dict, and each bucket folds its
# hosts' partials by (max slot, summed count).


def _host_partials(src) -> pa.Table:
    """``(host, last_ms, n_fetched)`` per host of scheduled rows: a
    table of them, or the path of a stored wave file."""
    if isinstance(src, str):
        import pyarrow.parquet as pq

        src = pq.read_table(src, columns=["host", "fetch_ms"])
    g = src.group_by("host").aggregate([("fetch_ms", "max"),
                                        ("fetch_ms", "count")])
    return pa.table({"host": g["host"], "last_ms": g["fetch_ms_max"],
                     "n_fetched": g["fetch_ms_count"]})


_partials = ray.remote(_host_partials)


def _wave_rows(robots_fn):
    """The wave round's per-block pass: frontier blocks get their fetch
    id, host and robots flags; carried partials pass as they are."""

    def run(t: pa.Table) -> pa.Table:
        return t if "n_fetched" in t.column_names else robots_fn(_prep_wave(t))

    return run


def _schedule_bucket(cap: int | None, t: pa.Table) -> pa.Table:
    """One host bucket of a wave: fold the carried partials by (max
    slot, summed count), slot the frontier rows in url order on the
    politeness kernel, and keep the schedulable rows. With ``cap`` set,
    a row whose host's count (earlier waves + its rank) would reach the
    cap is DROPPED — the per-host crawl budget; its links are never
    harvested and the seen gate keeps it from coming back."""
    base = None
    if "n_fetched" in t.column_names:
        carried = t["n_fetched"].is_valid()
        folded = t.filter(carried).group_by("host").aggregate(
            [("last_ms", "max"), ("n_fetched", "sum")])
        base = pa.table({"host": folded["host"],
                         "last_ms": folded["last_ms_max"],
                         "n_fetched": folded["n_fetched_sum"]})
        t = t.filter(pc.invert(carried)).drop_columns(["last_ms",
                                                       "n_fetched"])
    if "url" not in t.column_names:
        return pa.table({})
    out = make_bucket_scheduler(order=("url",))(t, base)
    keep = pc.greater_equal(out["host_rank"], 0)
    if cap is not None:
        prior = 0 if base is None else pc.fill_null(base["n_fetched"].take(
            pc.index_in(out["host"], value_set=base["host"])), 0)
        keep = pc.and_(keep, pc.less(pc.add(prior, out["host_rank"]), cap))
    return out.filter(keep)


@ray.remote
def _url_gate_block(gate_fn, tbl: pa.Table) -> pa.Table:
    """Apply a stateless URL hygiene gate (spam/trap/tracking filter,
    stages/urlfeat) to one frontier block BEFORE the seen gate — a
    gated URL is never offered, never fetched, and prunes its
    subtree."""
    if tbl is None or tbl.num_rows == 0:
        return tbl
    return gate_fn(tbl)


def _outlinks_tbl(tbl: pa.Table) -> pa.Table:
    """Distinct outlink dst URLs of one fetched block's ok rows — the
    next wave's frontier contribution. Cross-block and cross-wave dedup
    is the seen gate's job."""
    ok = tbl.filter(pc.and_kleene(
        pc.equal(tbl["fetch_action"], "ok"),
        pc.is_valid(tbl["text"])))
    if ok.num_rows == 0:
        return pa.table({"url": pa.array([], pa.string())})
    links = link_kernel(ok, "url", "text")
    dst = pc.unique(links["dst_url"].combine_chunks())
    return pa.table({"url": dst.cast(pa.string())})


@ray.remote
def _wave_outlinks(tbl: pa.Table) -> pa.Table:
    """Raw task round over materialized wave refs (no executor
    launch)."""
    return _outlinks_tbl(tbl)


@ray.remote
def _stored_wave_outlinks(path: str) -> pa.Table:
    """Resume path: outlinks of one PERSISTED wave file (column-pruned
    read; the text column never reaches the driver)."""
    import pyarrow.parquet as pq

    return _outlinks_tbl(pq.read_table(
        path, columns=["url", "text", "fetch_action"]))


@ray.remote
def _stored_wave_urls(path: str) -> pa.Table:
    """Resume path: the url column of one persisted wave file, for
    re-priming the seen gate."""
    import pyarrow.parquet as pq

    return pq.read_table(path, columns=["url"])


@ray.remote
def _wave_counters(tbl: pa.Table) -> dict:
    acts = tbl["fetch_action"]
    return {"rows": tbl.num_rows,
            "ok": int(pc.sum(pc.equal(acts, "ok")).as_py() or 0)}


def _wave_loop(pages_path: str, stored: list, schedule, *, seeds,
               seed_suffix: str, transport, max_waves: int,
               max_attempts: int, minimum_interval: float, num_shards: int,
               n_bits: int, exact: bool, seen_backend: str,
               seen_expected_keys: int | None, url_gate, concurrency):
    """The crawl loop of :func:`crawl_waves` and :func:`run_crawl`:
    yields ``(wave, fetched, wave_refs)`` per fetched wave.

    ``stored`` holds the files of completed waves ``0..k-1`` (a resume):
    their urls prime the seen gate, the outlinks of the last one are the
    frontier, and the loop starts at wave ``k``. Without them the
    frontier is ``seeds`` (default: the pages urls ending in
    ``seed_suffix``). ``schedule(hop_refs)`` turns a wave's gated
    blocks into the Dataset to fetch, or None when nothing is left to
    fetch (the crawl ends); without it each row just gets its fetch
    id."""
    if len(stored) > max_waves:
        return  # every wave is stored: no seen set, no frontier
    if transport is None:
        transport = UrlTableTransport(pages_path)
    # exact= applies to the bloom backend only; cuckoo has no false
    # negatives by construction (fingerprints never leave their
    # bucket pair) and sizes via seen_expected_keys
    gate = SeenFilterStage(ShardedSeenSet(
        num_shards=num_shards, n_bits=n_bits, exact=exact,
        backend=seen_backend, expected_keys=seen_expected_keys))
    if stored:
        primed = [_gate_block.options(num_returns=2).remote(
            gate, "url", 0, _stored_wave_urls.remote(f))
            for files in stored for f in files]
        ray.get([p[1] for p in primed])
        frontier_refs = [_stored_wave_outlinks.remote(f)
                         for f in stored[-1]]
    else:
        if seeds is None:
            seeds = (ray.data.read_parquet(pages_path, columns=["url"])
                     .map_batches(lambda b: b.filter(
                         pc.ends_with(b["url"], seed_suffix)),
                         batch_format="pyarrow", batch_size=None))
        frontier_refs = (seeds.select_columns(["url"]).materialize()
                         .to_arrow_refs())

    for wave in range(len(stored), max_waves + 1):
        if url_gate is not None:
            frontier_refs = [_url_gate_block.remote(url_gate, r)
                             for r in frontier_refs]
        gated = [_gate_block.options(num_returns=2).remote(
            gate, "url", wave, r) for r in frontier_refs]
        counts = ray.get([g[1] for g in gated])
        if int(sum(counts)) == 0:
            return
        hop_refs = [g[0] for g, n in zip(gated, counts) if n]
        if schedule is None:
            wds = ray.data.from_arrow_refs(hop_refs).map_batches(
                _add_fetch_id, batch_format="pyarrow", batch_size=None)
        else:
            wds = schedule(hop_refs)
            if wds is None:
                return
        fetched = fetch_execute(
            wds, transport, max_attempts=max_attempts,
            minimum_interval=minimum_interval, id_col="fetch_id",
            concurrency=concurrency).materialize()
        wave_refs = fetched.to_arrow_refs()
        yield wave, fetched, wave_refs
        if wave == max_waves:
            return
        frontier_refs = [_wave_outlinks.remote(r) for r in wave_refs]


def crawl_waves(pages_path: str, *,
                seeds: ray.data.Dataset | None = None,
                seed_suffix: str = ".example/",
                transport=None,
                max_waves: int = 3, max_attempts: int = 3,
                minimum_interval: float = 3.0,
                num_shards: int = 8, n_bits: int = 1 << 22,
                exact: bool = True, seen_backend: str = "bloom",
                seen_expected_keys: int | None = None,
                url_gate=None,
                concurrency: int | tuple = (1, 4)) -> ray.data.Dataset:
    """Run the full crawl loop to a wave budget; one row per URL ever
    fetched: ``(url, wave, n_attempts, final_status, fetch_action,
    text)`` with ``wave`` = the BFS level at which the URL was first
    fetched (seeds are wave 0) and ``text`` the fetched payload for ok
    rows (null for failures and for ok URLs the corpus doesn't host —
    dangling outlinks are fetched, yield nothing, and expand nothing).

    Equivalent relation (the SQL oracle): min-wave over the wave-capped
    transitive closure of the link graph restricted to edges whose
    source URL's fault-schedule replay classifies ok, with each reached
    URL's (n_attempts, final_status, fetch_action) the serial
    RetryPolicy replay of ``FAULT_STATUSES[(hash64(url)+k) % 8]`` and
    ``text`` the pages-table payload for ok rows.

    ``exact=True`` (default here, unlike ``crawl_bfs``) because a
    Bloom false positive drops a URL *and every page reachable only
    through it*; pass ``exact=False`` plus a generous ``n_bits`` only
    when approximate reach is acceptable.
    """
    if max_waves < 0:
        raise ValueError("max_waves must be >= 0")
    out_refs = [r for _, _, refs in _wave_loop(
        pages_path, [], None, seeds=seeds, seed_suffix=seed_suffix,
        transport=transport, max_waves=max_waves,
        max_attempts=max_attempts, minimum_interval=minimum_interval,
        num_shards=num_shards, n_bits=n_bits, exact=exact,
        seen_backend=seen_backend, seen_expected_keys=seen_expected_keys,
        url_gate=url_gate, concurrency=concurrency) for r in refs]
    if not out_refs:
        return ray.data.from_arrow(_OUT_SCHEMA.empty_table())
    return (ray.data.from_arrow_refs(out_refs)
            .rename_columns({"hop": "wave"})
            .select_columns([f.name for f in _OUT_SCHEMA]))


def run_crawl(pages_path: str, out_dir: str, *,
              seeds: ray.data.Dataset | None = None,
              seed_suffix: str = ".example/",
              transport=None,
              max_waves: int = 3, max_attempts: int = 3,
              minimum_interval: float = 3.0,
              num_shards: int = 8, n_bits: int = 1 << 22,
              exact: bool = True, seen_backend: str = "bloom",
              seen_expected_keys: int | None = None,
              politeness: bool = True,
              robots_path: str | None = None,
              default_delay_ms: int = 1000,
              max_per_host: int | None = None,
              warc_prefix: str | None = None,
              warc_size: int = 1 << 30,
              url_gate=None, url_gate_tag: str | None = None,
              concurrency: int | tuple = (1, 4)) -> dict:
    """Resumable :func:`crawl_waves`: one atomic output partition per
    wave (``<out_dir>/wave=N/``), each recorded in the lineage manifest
    with its fetch counters — a crawl that dies at wave 7 of 12 reruns
    waves 8..12 only.

    **Politeness across waves** (``politeness=True``): every wave's
    rows get virtual-clock slots in one host round
    (``frontier._host_round``) on the politeness kernel
    (``frontier.make_bucket_scheduler``, ranked by url), whose carried
    state is narrow (host, last slot, count) partials of the earlier
    waves — wave w+1's first slot for a host starts one crawl-delay
    after the host's LAST slot in any earlier wave (the fetch_requeue
    contract generalized to N waves), never a wall-clock sleep and
    never a driver-side dict. With ``robots_path`` the per-host
    crawl-delay and disallow rules come from the proven robots gate
    (blocked URLs are dropped after the seen gate, so they are never
    reconsidered); otherwise every host gets ``default_delay_ms``.
    ``max_per_host`` caps each host's fetches over the whole crawl.

    Resume mechanics: completed waves (manifest fingerprint = pages
    footer + fetch params + seed rule) are never refetched; their urls
    re-prime the seen gate from the stored url columns (column-pruned
    reads), the politeness state re-derives from per-file (host, max
    fetch_ms, count) partials, and the next frontier is re-derived
    from the LAST completed wave's persisted ok rows. A wave's row set
    depends only on (pages, seeds, max_attempts), never on
    ``max_waves`` — so a finished shallow crawl extends to a deeper one
    without refetching (the fingerprint deliberately excludes
    ``max_waves``).

    Caller contract when passing ``seeds=``: the seed set must be
    stable across reruns (it is part of wave 0's identity but cannot be
    fingerprinted through a Dataset); the default ``seed_suffix`` rule
    is fingerprinted.

    Returns ``{"skipped_waves", "ran_waves", "counters": {wave: {rows,
    ok}}}``.
    """
    import glob as _glob
    import os

    from ..state.lineage import (LineageManifest, atomic_write_dir,
                                 fingerprint_file)

    if max_waves < 0:
        raise ValueError("max_waves must be >= 0")
    manifest = LineageManifest(out_dir)
    fp = "%s+a%d+i%s+s%s" % (fingerprint_file(pages_path), max_attempts,
                             minimum_interval,
                             seed_suffix if seeds is None else "custom")
    if url_gate is not None:
        if not url_gate_tag:
            raise ValueError(
                "url_gate requires url_gate_tag (a stable string "
                "naming the gate — callables cannot be fingerprinted "
                "into the resume manifest)")
        fp += "+g" + url_gate_tag
    if politeness:
        fp += "+p%d" % default_delay_ms
        if robots_path is not None:
            fp += "+r" + fingerprint_file(robots_path)
        if max_per_host is not None:
            fp += "+c%d" % max_per_host
    elif max_per_host is not None:
        raise ValueError("max_per_host requires politeness=True (the "
                         "budget lives in the schedule kernel)")

    _names = [f.name for f in _OUT_SCHEMA]
    out_names = (_names[:2] +
                 (["host", "fetch_ms"] if politeness else []) +
                 _names[2:])

    # completed waves count only as a contiguous prefix: wave N+1's
    # frontier derives from wave N's output
    done: list[int] = []
    for w in range(max_waves + 1):
        if manifest.is_complete("wave=%d" % w, fp):
            done.append(w)
        else:
            break

    result = {"skipped_waves": list(done), "ran_waves": [],
              "counters": {w: {k: manifest.entries["wave=%d" % w][k]
                               for k in ("rows", "ok")} for w in done}}
    stored = [sorted(_glob.glob(os.path.join(out_dir, "wave=%d" % w,
                                             "*.parquet"))) for w in done]

    schedule = None
    if politeness:
        # no robots table: every host allowed, at the default delay
        robots = ({} if robots_path is None
                  else ray.put(load_robots(robots_path)))
        prepare = _wave_rows(make_robots_gate(robots, default_delay_ms))
        kern = functools.partial(_schedule_bucket, max_per_host)
        carried = [_partials.remote(f) for files in stored for f in files]

        def schedule(hop_refs: list) -> ray.data.Dataset | None:
            sched = [r for b in _host_round(
                ray.data.from_arrow_refs(hop_refs + carried), kern,
                prepare).iter_internal_ref_bundles()
                for r, meta in b.blocks if meta.num_rows]
            # no rows left (all over budget or robots-blocked): the
            # crawl ends here
            if not sched:
                return None
            carried.extend(_partials.remote(r) for r in sched)
            return ray.data.from_arrow_refs(sched)

    for wave, fetched, wave_refs in _wave_loop(
            pages_path, stored, schedule, seeds=seeds,
            seed_suffix=seed_suffix, transport=transport,
            max_waves=max_waves, max_attempts=max_attempts,
            minimum_interval=minimum_interval, num_shards=num_shards,
            n_bits=n_bits, exact=exact, seen_backend=seen_backend,
            seen_expected_keys=seen_expected_keys, url_gate=url_gate,
            concurrency=concurrency):
        parts = ray.get([_wave_counters.remote(r) for r in wave_refs])
        counters = {"rows": sum(p["rows"] for p in parts),
                    "ok": sum(p["ok"] for p in parts)}
        final = os.path.join(out_dir, "wave=%d" % wave)
        with atomic_write_dir(final) as tmp:
            (fetched.rename_columns({"hop": "wave"})
             .select_columns(out_names)
             .write_parquet(tmp))
        if warc_prefix is not None:
            # real WARC/1.0 bytes next to the parquet partition: one
            # size-rotated segment family per wave, ok rows as
            # response records (reference warc.py contract). Runs
            # BEFORE the manifest mark so a crash here re-renders the
            # wave on resume — and the re-render first REMOVES any
            # stale segments a crashed attempt left behind (the writer
            # probes for unused segment numbers, so without the sweep
            # a resumed wave would duplicate every record in the
            # segment family / leave a truncated member for ingest to
            # trip on). Safe: only never-recorded waves reach here.
            from .warcbytes import write_warc_distributed

            for stale in _glob.glob(os.path.join(
                    out_dir, "%s-w%d-*.warc*" % (warc_prefix, wave))):
                os.unlink(stale)

            def _warc_rows(batch: pa.Table) -> pa.Table:
                ok = batch.filter(pc.and_kleene(
                    pc.equal(batch["fetch_action"], "ok"),
                    pc.is_valid(batch["text"])))
                return pa.table({
                    "url": ok["url"].cast(pa.string()),
                    "text": ok["text"].cast(pa.string()),
                    "status": ok["final_status"].cast(pa.string()),
                })

            write_warc_distributed(
                ray.data.from_arrow_refs(wave_refs)
                .map_batches(_warc_rows, batch_format="pyarrow",
                             batch_size=None),
                os.path.join(out_dir, warc_prefix), "w%d" % wave,
                {"isPartOf": warc_prefix,
                 "description": "crawl wave %d" % wave},
                size=warc_size)
        manifest.record("wave=%d" % wave, fp, counters, final)
        result["ran_waves"].append(wave)
        result["counters"][wave] = counters
    return result
