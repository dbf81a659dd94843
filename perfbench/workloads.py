"""The benchmark workloads: inputs, one op, its output check, the
end-to-end metrics over the measured ops, and the traced layer probes.

Layer probes time calls into each module's public functions from the
outside. The frontier chain is measured as cumulative prefixes of
``frontier_flow`` (read, +canonicalize_batch, +first_wins_dedup,
+robots gate, +schedule_politeness, +crawl_order), each consumed to the
last row at the Ray driver; a layer's self time is the difference between
the medians of its prefix and the one before it.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import gen
import oracle

ORDER_COLS = ["fetch_ms", "priority", "seed_order", "urlkey"]
FRONTIER_NUM_BUCKETS = 8
SEEN_SHARDS = 4
SEEN_SHARD_CPUS = 0.25  # what state.seen.SeenShard reserves per actor


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (``numpy.percentile`` default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q * 100.0))


def _batches(ds):
    return ds.iter_batches(batch_format="pyarrow", batch_size=None)


def _consume(ds) -> list[pa.Table]:
    return list(_batches(ds))


def _rows(batches) -> int:
    return sum(b.num_rows for b in batches)


class Op:
    """One measured operation: its ``calls``, each (wall seconds, seconds
    to the first output row or to the end of an empty result, rows
    returned or None for a call that returns a count), and ``check``
    returning whether every output was right."""

    def __init__(self, calls: list[tuple], check):
        self.calls, self.check = calls, check
        self.wall = sum(c[0] for c in calls)


class FrontierOrder:
    """crawl_order(frontier_flow(seeds, robots)) consumed at the Ray driver.

    The traced run also times the write path on the same seeds
    (run_frontier, its lineage resume, the seen set), so every frontier
    layer is measured here."""

    name = "frontier_order"
    n_rows = 240_000
    dup_share = 0.1
    warm_rows = 5_000
    min_ops = 1
    op_timeout = 90.0
    reserved_cpus = SEEN_SHARDS * SEEN_SHARD_CPUS

    def __init__(self, work: str, seed: int):
        self.work = work
        self.paths, truth, robots = gen.frontier_inputs(
            os.path.join(work, "in"), seed, self.n_rows, self.dup_share)
        self.warm_paths, _, _ = gen.frontier_inputs(
            os.path.join(work, "warm"), seed + 7919, self.warm_rows, self.dup_share)
        self.want = oracle.frontier(truth, robots, FRONTIER_NUM_BUCKETS)

    def construct(self) -> None:
        pass

    def describe(self) -> dict:
        return {"seed_rows": self.n_rows, "survivors": self.want["survivors"],
                "robots_blocked": self.want["blocked"],
                "hot_host_scheduled": self.want["hot_scheduled"],
                "scheduled": self.want["scheduled"]}

    # --- end-to-end ------------------------------------------------------
    @staticmethod
    def end_to_end(ops: list[Op]) -> dict:
        calls = [c for o in ops for c in o.calls]
        walls = [w for w, _, _ in calls]
        return {
            "rows_per_s": statistics.median(rows / w for w, _, rows in calls),
            "call_p50_ms": statistics.median(walls) * 1e3,
            "call_p90_ms": _quantile(walls, 0.9) * 1e3,
            "first_row_ms": statistics.median(f for _, f, _ in calls) * 1e3,
        }

    # --- traced probes ---------------------------------------------------
    def _prefixes(self, tr, k: int, bad: list) -> dict:
        """Time the cumulative prefixes read .. frontier_flow once;
        returns the outputs later probes need."""
        import ray
        import ray.data
        from cdx_toolkit_ray.canon import canonicalize_batch
        from cdx_toolkit_ray.pipelines.frontier import (
            frontier_flow, load_robots, make_robots_gate)
        from cdx_toolkit_ray.stages.dedup import first_wins_dedup

        seeds, robots = self.paths["seeds"], self.paths["robots"]
        want = self.want

        def read():
            return ray.data.read_parquet(seeds)

        def dedup():
            return first_wins_dedup(read(), "hash64",
                                    [("priority", 19), ("seed_order", 44)],
                                    derive_fn=canonicalize_batch)

        def gated():
            gate = make_robots_gate(ray.put(load_robots(robots)))
            return dedup().map_batches(gate, batch_size=None,
                                       batch_format="pyarrow")

        with tr.span("prefix.read", k):
            n = _rows(_batches(read()))
        bad.append(n != self.n_rows)
        hashes = []
        with tr.span("prefix.canon", k):
            for b in _batches(read().map_batches(canonicalize_batch,
                                                 batch_format="pyarrow")):
                hashes.append(b["hash64"].to_numpy())
        hashes = np.concatenate(hashes)
        bad.append(len(hashes) != self.n_rows)
        with tr.span("prefix.dedup", k):
            survivors = _rows(_batches(dedup()))
        bad.append(survivors != want["survivors"])
        blocked = 0
        with tr.span("prefix.robots", k):
            for b in _batches(gated()):
                blocked += int(np.count_nonzero(b["robots_blocked"].to_numpy()))
        bad.append(blocked != want["blocked"])
        sched = hot = 0
        with tr.span("prefix.politeness", k):
            for b in _batches(frontier_flow(seeds, robots)):
                on = b["host_rank"].to_numpy() >= 0
                sched += int(on.sum())
                hot += int((on & (b["host"].to_numpy(zero_copy_only=False)
                                  == gen.HOT_HOST)).sum())
        bad.append((sched, hot) != (want["scheduled"], want["hot_scheduled"]))

        table = pq.read_table(seeds)
        with tr.span("canon.direct", k):
            canonicalize_batch(table)
        del table
        return {"hash64": hashes, "gated": gated, "survivors": survivors,
                "blocked": blocked, "hot_share": hot / max(sched, 1)}

    def _untraced(self, tr, k: int, bad: list) -> None:
        """The plain op, timed as in an untraced run; the baseline of
        ``trace.overhead_pct``."""
        op = self.op(k)
        bad.append(not op.check())
        op.check = None
        tr.record("untraced.op", k, op.wall)

    def _prefix_layers(self, tr, traced_op: str) -> dict:
        """Layers up to frontier_flow, and the tracing overhead of the
        whole op (``traced_op`` span vs the untraced op)."""
        m = tr.median
        return {
            "pipelines.frontier.read.self_s": m("prefix.read"),
            "canon.self_s": m("prefix.canon") - m("prefix.read"),
            "canon.rows_per_s": self.n_rows / m("canon.direct"),
            "stages.dedup.self_s": m("prefix.dedup") - m("prefix.canon"),
            "stages.dedup.survivor_ratio": self.last["survivors"] / self.n_rows,
            "pipelines.frontier.robots.self_s": m("prefix.robots") - m("prefix.dedup"),
            "pipelines.frontier.robots.blocked_rows": self.last["blocked"],
            "pipelines.frontier.politeness.self_s":
                m("prefix.politeness") - m("prefix.robots"),
            "pipelines.frontier.politeness.hot_host_share": self.last["hot_share"],
            "trace.overhead_pct":
                100.0 * (m(traced_op) - m("untraced.op")) / m("untraced.op"),
        }


    # --- the op ------------------------------------------------------------
    def _run(self, paths) -> tuple[float, float | None, list]:
        from cdx_toolkit_ray.pipelines.frontier import crawl_order, frontier_flow

        # free the previous op's datasets first: they sit in reference
        # cycles, and the object-store blocks they hold would pile up
        # until a full collection happened to run
        gc.collect()
        t0 = time.perf_counter()
        first, batches = None, []
        ds = crawl_order(frontier_flow(paths["seeds"], paths["robots"]))
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = time.perf_counter() - t0
            batches.append(b)
        return time.perf_counter() - t0, first, batches

    def warm_up(self) -> None:
        self._run(self.warm_paths)

    def _check(self, batches) -> bool:
        if _rows(batches) != self.want["order"].num_rows:
            return False
        got = pa.concat_tables([b.select(ORDER_COLS) for b in batches if b.num_rows])
        return got.cast(self.want["order"].schema).equals(self.want["order"])

    def op(self, k: int) -> Op:
        wall, first, batches = self._run(self.paths)
        return Op([(wall, first, self.n_rows)], lambda: self._check(batches))

    def trace_cycle(self, tr, k: int, bad: list) -> None:
        from cdx_toolkit_ray.pipelines.frontier import scheduled_crawl_order

        self._untraced(tr, k, bad)
        got = self._prefixes(tr, k, bad)
        with tr.span("prefix.order", k):
            _, _, batches = self._run(self.paths)
        bad.append(not self._check(batches))
        del batches
        with tr.span("exchange.order", k):
            batches = _consume(scheduled_crawl_order(got["gated"]()))
        bad.append(not self._check(batches))
        del batches
        self.last = dict(got, **self._write_probes(tr, k, bad, got["hash64"]))

    # --- write path: run_frontier, lineage resume, seen set --------------
    @staticmethod
    def _disk_rows(out: str, bucket: int) -> int:
        part = os.path.join(out, "flow", "host_bucket=%d" % bucket)
        if not os.path.isdir(part):
            return 0
        return sum(pq.read_metadata(os.path.join(part, f)).num_rows
                   for f in os.listdir(part))

    def _check_write(self, out: str, first: dict, rerun: dict) -> bool:
        """Rows on disk per bucket == manifest counters == oracle
        counters folded by bucket; the rerun skipped every bucket."""
        every = list(range(FRONTIER_NUM_BUCKETS))
        ok = (first.get("ran_buckets") == every
              and rerun.get("skipped_buckets") == every
              and rerun.get("ran_buckets") == [])
        with open(os.path.join(out, "_lineage.json")) as fd:
            manifest = json.load(fd)
        for b, want in self.want["buckets"].items():
            e = manifest.get(str(b), {})
            got = [e.get(k) for k in ("fetched", "deduped", "deferred_politeness",
                                      "robots_blocked", "rows")]
            ok = ok and got == want and self._disk_rows(out, b) == want[4]
        return ok

    def _write_probes(self, tr, k: int, bad: list, hashes) -> dict:
        """run_frontier into a fresh directory, then the identical rerun
        (which must skip every bucket); the lineage fingerprint; and a
        ShardedSeenSet offered every row's hash64, whose novel keys must
        equal the dedup survivors."""
        import ray
        from cdx_toolkit_ray.pipelines.frontier import run_frontier
        from cdx_toolkit_ray.state.lineage import fingerprint_file
        from cdx_toolkit_ray.state.seen import ShardedSeenSet

        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        args = (self.paths["seeds"], self.paths["robots"], out)
        with tr.span("write.run", k):
            first = run_frontier(*args, num_buckets=FRONTIER_NUM_BUCKETS)
        with tr.span("lineage.resume", k):
            rerun = run_frontier(*args, num_buckets=FRONTIER_NUM_BUCKETS)
        bad.append(not self._check_write(out, first, rerun))
        written = sum(self._disk_rows(out, b) for b in range(FRONTIER_NUM_BUCKETS))
        shutil.rmtree(out, ignore_errors=True)
        with tr.span("lineage.fingerprint", k):
            fingerprint_file(self.paths["seeds"])
            fingerprint_file(self.paths["robots"])

        seen = ShardedSeenSet(num_shards=SEEN_SHARDS, exact=True)
        try:
            with tr.span("seen.offer", k):
                novel = int(seen.offer(hashes).sum())
        finally:
            for shard in seen.shards:
                ray.kill(shard)
        bad.append(novel != self.want["survivors"])
        return {"novel": novel, "written": written}

    def per_layer(self, tr) -> dict:
        m = tr.median
        out = self._prefix_layers(tr, "prefix.order")
        out.update({
            "pipelines.frontier.order.self_s": m("prefix.order") - m("prefix.politeness"),
            "stages.exchange.order_s": m("exchange.order") - m("prefix.robots"),
            "pipelines.frontier.write.self_s": m("write.run") - m("prefix.politeness"),
            "pipelines.frontier.write.rows": self.last["written"],
            "state.lineage.fingerprint_ms": m("lineage.fingerprint") * 1e3,
            "state.lineage.resume_ms": m("lineage.resume") * 1e3,
            "state.seen.offer_keys_per_s": self.n_rows / m("seen.offer"),
            "state.seen.novel_keys": self.last["novel"],
        })
        return out


# --- capture queries -------------------------------------------------------

def _ts14(t: float) -> str:
    return time.strftime("%Y%m%d%H%M%S", time.gmtime(t))


# the query shapes: (kind, match, window, filters, limit)
SHAPES = (
    ("iter", "exact", "window", [], None),
    ("iter", "prefix", "window", ["=status:200"], None),
    ("iter", "host", "crawl", [], None),
    ("iter", "domain", "window", ["!mime:warc/revisit"], 100),
    ("size", "domain", "window", [], None),
    ("iter", "exact", "crawl", [], None),
    ("iter", "prefix", "crawl", ["~url:https://.*"], None),
    ("iter", "host", "window", [], 10),
    ("iter", "domain", "crawl", ["=status:200"], None),
    ("size", "host", "window", ["=status:200"], None),
)
# one op is CALLS_PER_OP calls. Call i has shape i % 10, domain
# (i + i // 10) % 10 and crawl i % 4 whatever the seed, so every op asks
# the same mix and each domain twice; a "window" call spans the last
# WINDOW_DAYS[i % 2] days of its crawl instead of naming it
CALLS_PER_OP = 2 * len(SHAPES)
WINDOW_DAYS = (46, 20)
# the seed picks only among choices of equal expected result size: a
# host query's subdomain, a prefix query's digit (page ids are below
# n_pages / 3 <= 50000, so /p/5* .. /p/9* cover equally many of them),
# and an exact query's url among those captured in the call's window
HOST_SUBDOMAINS = ("m.", "news.", "img.")
PREFIX_DIGITS = tuple(range(5, 10))


def capture_queries(truth: pa.Table, rng: np.random.Generator, n_ops: int) -> list[list[dict]]:
    """``n_ops`` ops of CALLS_PER_OP queries each. Each query carries its
    match type and urlkey prefix for the oracle."""
    domains = [d for d, _ in gen.CAPTURE_DOMAINS]
    urls = truth["url"].to_pylist()
    stamps = truth["timestamp"].to_pylist()
    crawls = truth["crawl"].to_pylist()
    # (domain, crawl) -> [(url, timestamp)] of the captures there
    captured: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for url, ts, crawl in zip(urls, stamps, crawls):
        host = url.split("/")[2]
        dom = host.split(".", 1)[1] if host.count(".") > 1 else host
        captured.setdefault((dom, crawl), []).append((url, ts))
    ops = []
    for _ in range(n_ops):
        calls = []
        for i in range(CALLS_PER_OP):
            kind, match, window, filters, limit = SHAPES[i % len(SHAPES)]
            dom = domains[(i + i // len(SHAPES)) % len(domains)]
            crawl, end = gen.CRAWLS[i % 4], gen.CRAWL_ENDS[i % 4]
            kwargs = {}
            if window == "crawl":
                kwargs["crawl"] = crawl
                start = ""
            else:
                start = _ts14(end - WINDOW_DAYS[i % 2] * 86400)
                kwargs["from_ts"], kwargs["to"] = start, _ts14(end)
            if match == "exact":
                pool = [u for u, ts in captured[(dom, crawl)] if ts >= start]
                url = pool[int(rng.integers(0, len(pool)))]
                host, path = url.split("/", 3)[2], "/" + url.split("/", 3)[3]
                if rng.random() < 0.5:  # the other scheme: same urlkey
                    url = ("http://" if url.startswith("https") else "https://") \
                        + url.split("://", 1)[1]
                key = gen.rev_host(host) + ")" + path
                q = {"url": url}
            elif match == "prefix":
                host = HOST_SUBDOMAINS[int(rng.integers(0, len(HOST_SUBDOMAINS)))] + dom
                digit = PREFIX_DIGITS[int(rng.integers(0, len(PREFIX_DIGITS)))]
                key = gen.rev_host(host) + ")/p/%d" % digit
                q = {"url": "%s/p/%d*" % (host, digit)}
            elif match == "host":
                host = HOST_SUBDOMAINS[int(rng.integers(0, len(HOST_SUBDOMAINS)))] + dom
                key = gen.rev_host(host)
                q = {"url": host}
                kwargs["matchType"] = "host"
            else:
                key = gen.rev_host(dom)
                q = {"url": "*." + dom}
            if filters:
                kwargs["filter"] = list(filters)
            if limit is not None:
                kwargs["limit"] = limit
            calls.append({"kind": kind, "match": match, "key": key,
                          "url": q["url"], "kwargs": kwargs})
        ops.append(calls)
    return ops


class CaptureQuery:
    """A seeded mix of cdx_toolkit queries against ``CDXFetcher``: one op
    is a fixed group of CALLS_PER_OP calls; iter results are fully
    iterated and ``.text`` read."""

    name = "capture_query"
    n_pages = 100_000
    pool_ops = 6
    # each call slot's latency is a median over at least 5 ops
    min_ops = 5
    # the warm-up asks every shape once, so no shape's first call
    # (its code paths, and the Ray workers its reads start) is timed
    warm_calls = len(SHAPES)
    op_timeout = 120.0
    reserved_cpus = 0.0

    def __init__(self, work: str, seed: int):
        self.paths, truth, pages = gen.capture_inputs(
            os.path.join(work, "in"), seed, self.n_pages)
        rng = np.random.default_rng(seed)
        self.ops = capture_queries(truth, rng, self.pool_ops)
        self.warm_queries = capture_queries(
            truth, np.random.default_rng(seed + 7919), 1)[0][:self.warm_calls]
        want = oracle.CaptureOracle(truth, pages)
        try:
            self.want = [[want.size_estimate(q) if q["kind"] == "size"
                          else want.captures(q) for q in op] for op in self.ops]
        finally:
            want.close()
        self.texts = want.texts
        self.cdx = None

    def describe(self) -> dict:
        return {"pages": self.n_pages, "pool_ops": len(self.ops),
                "calls_per_op": CALLS_PER_OP,
                "pool_captures": sum(len(w) for op in self.want for w in op
                                     if isinstance(w, list))}

    def construct(self) -> None:
        import cdx_toolkit_ray as ctr

        self.cdx = ctr.CDXFetcher(captures_root=self.paths["captures"],
                                  pages_path=self.paths["pages"])
        self.cdx._index()

    def _call(self, q: dict):
        """One API call; returns (wall, first, result)."""
        kw = {k: (list(v) if isinstance(v, list) else v) for k, v in q["kwargs"].items()}
        t0 = time.perf_counter()
        if q["kind"] == "size":
            res = self.cdx.get_size_estimate(q["url"], **kw)
            return time.perf_counter() - t0, None, res
        first, res = None, []
        for obj in self.cdx.iter(q["url"], **kw):
            if first is None:
                first = time.perf_counter() - t0
            res.append((obj["urlkey"], obj["timestamp"], obj["url"], obj.text))
        wall = time.perf_counter() - t0
        return wall, wall if first is None else first, res

    def warm_up(self) -> None:
        for q in self.warm_queries:
            self._call(q)

    def _check(self, q: dict, want, res) -> bool:
        if q["kind"] == "size":
            return res == want
        return ([(k, t) for k, t, _, _ in res] == [(k, t) for k, t, _ in want]
                and all(text == self.texts[url] for _, _, url, text in res))

    def op(self, k: int) -> Op:
        queries, wants = self.ops[k % len(self.ops)], self.want[k % len(self.ops)]
        calls, ok = [], True
        for q, want in zip(queries, wants):
            wall, first, res = self._call(q)
            ok = ok and self._check(q, want, res)
            calls.append((wall, first, None if q["kind"] == "size" else len(res)))
        return Op(calls, lambda: ok)

    @staticmethod
    def end_to_end(ops: list[Op]) -> dict:
        calls = [c for o in ops for c in o.calls]
        iters = [c for c in calls if c[2] is not None]
        # call i of every op has the same shape, domain and crawl: a
        # slot's latency is its median over the run's ops, so one slow op
        # moves no slot, and the quantiles are taken over the slots
        slots = list(zip(*(o.calls for o in ops)))
        walls = [statistics.median(w for w, _, _ in s) for s in slots]
        firsts = [statistics.median(f for _, f, _ in s) for s in slots
                  if s[0][2] is not None]
        return {
            "rows_per_s": sum(r for _, _, r in iters) / sum(w for w, _, _ in iters),
            "call_p50_ms": statistics.median(walls) * 1e3,
            "call_p90_ms": _quantile(walls, 0.9) * 1e3,
            # the slots' first-row times fall in a few far-apart groups,
            # so their median would sit on a group's edge; the mean does not
            "first_row_ms": statistics.fmean(firsts) * 1e3,
        }

    def trace_cycle(self, tr, k: int, bad: list) -> None:
        import cdx_toolkit_ray as ctr
        from cdx_toolkit_ray.filters import apply_filters, compile_filters
        from cdx_toolkit_ray.planner import resolve_query_params
        from cdx_toolkit_ray.sources.captures import query_captures, size_estimate

        queries, wants = self.ops[k % len(self.ops)], self.want[k % len(self.ops)]
        for i, (q, want) in enumerate(zip(queries, wants)):
            j = k * CALLS_PER_OP + i
            kw = dict(q["kwargs"])
            plan_kw = {key: v for key, v in kw.items()
                       if key not in ("matchType", "limit", "filter")}
            if "crawl" in plan_kw:
                plan_kw["crawl"] = [plan_kw["crawl"]]
            with tr.span("planner.resolve", j):
                resolve_query_params(q["url"], source="cc", **plan_kw)
            src_kw = dict(kw, filter=list(kw.get("filter", [])))
            if "crawl" in src_kw:
                src_kw["crawl"] = [src_kw["crawl"]]

            def source():
                if q["kind"] == "size":
                    with tr.span("sources.size_estimate", j):
                        size_estimate(self.paths["captures"], url=q["url"], **src_kw)
                else:
                    with tr.span("sources.query", j):
                        sum(1 for _ in query_captures(self.paths["captures"],
                                                      url=q["url"], **src_kw).iter_rows())

            # alternate which of the pair runs first, so neither gains
            # from warm caches on every query
            if (k + i) % 2:
                source()
            with tr.span("api.call." + q["kind"], j):
                _, _, res = self._call(q)
            if not (k + i) % 2:
                source()
            bad.append(not self._check(q, want, res))
            wall, _, _ = self._call(q)
            tr.record("api.untraced", j, wall)

        table = pa.concat_tables(
            pq.read_table(os.path.join(self.paths["captures"], d))
            for d in sorted(os.listdir(self.paths["captures"])))
        self.filter_rows = table.num_rows * len(SHAPES)
        with tr.span("filters.apply", k):
            for _, _, _, filters, _ in SHAPES:
                apply_filters(table, compile_filters(filters))
        with tr.span("api.index_build", k):
            ctr.CDXFetcher(captures_root=self.paths["captures"],
                           pages_path=self.paths["pages"])._index()

    def per_layer(self, tr) -> dict:
        m = tr.median
        by_op = {}
        for s in tr.spans:
            if s["name"] in ("sources.query", "api.call.iter"):
                by_op.setdefault(s["op"], {})[s["name"]] = s["end"] - s["start"]
        api_self = [d["api.call.iter"] - d["sources.query"] for d in by_op.values()
                    if len(d) == 2]
        traced = sum(tr.durations("api.call.iter") + tr.durations("api.call.size"))
        untraced = sum(tr.durations("api.untraced"))
        return {
            "planner.resolve_ms": m("planner.resolve") * 1e3,
            "sources.captures.query_ms": m("sources.query") * 1e3,
            "sources.captures.size_estimate_ms": m("sources.size_estimate") * 1e3,
            "filters.rows_per_s": self.filter_rows / m("filters.apply"),
            "api.self_ms": statistics.median(api_self) * 1e3,
            "api.index_build_s": m("api.index_build"),
            "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        }


WORKLOADS = {w.name: w for w in (FrontierOrder, CaptureQuery)}
