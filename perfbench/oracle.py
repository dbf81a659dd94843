"""DuckDB oracles, computed once per run from the generators' ground
truth (never from the program's output or its canonicalizer).

The frontier oracle restates the pipeline's contract in SQL: first-wins
dedup per urlkey on (priority, seed_order), robots prefix blocking on
the raw url path, per-host politeness slots ``rank * crawl_delay_ms``
over unblocked survivors, and the global order (fetch_ms, priority,
seed_order). The capture oracle evaluates each query's match type,
time window, filters and limit over the captures' own urlkeys.
"""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pyarrow as pa

from gen import HOT_HOST

DEFAULT_DELAY_MS = 3000
LINES_PER_PAGE = 3000
# cdx_toolkit pads a ``to`` timestamp up by moving its day to the last
# day of its month, February always the 28th, even when ``to`` is a full
# 14-digit timestamp
MONTH_LAST_DAY = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(s: str) -> int:
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def frontier(truth: pa.Table, robots: pa.Table, num_buckets: int = 8) -> dict:
    """Survivors with their politeness slots, the crawl order, and the
    per-bucket counters ``run_frontier`` records.

    Returns a dict: ``order`` (Arrow table fetch_ms, priority,
    seed_order, urlkey in crawl order), ``survivors`` (row count after
    dedup), ``blocked`` (robots-blocked survivors), ``hot_scheduled``
    and ``scheduled`` (unblocked survivors on the hot host / overall),
    ``buckets`` ({bucket: [fetched, deduped, deferred, blocked, rows]}).
    """
    con = duckdb.connect()
    try:
        rules = robots.select(["host", "crawl_delay_ms"])
        prefixes = pa.table({
            "host": pa.array([h for h, d in zip(robots["host"].to_pylist(),
                                                robots["disallow"].to_pylist())
                              for _ in (d or [])], pa.string()),
            "prefix": pa.array([p for d in robots["disallow"].to_pylist()
                                for p in (d or [])], pa.string()),
        })
        con.register("seeds", truth)
        con.register("rules", rules)
        con.register("prefixes", prefixes)
        con.execute("""
            CREATE TABLE flow AS
            WITH ranked AS (
                SELECT *, row_number() OVER w AS pos,
                       count(*) OVER (PARTITION BY urlkey) - 1 AS n_dup
                FROM seeds
                WINDOW w AS (PARTITION BY urlkey ORDER BY priority, seed_order)
            ), winners AS (
                SELECT r.*, coalesce(ru.crawl_delay_ms, %d) AS delay,
                       EXISTS (SELECT 1 FROM prefixes p
                               WHERE p.host = r.host
                                 AND starts_with(r.path, p.prefix)) AS blocked
                FROM ranked r LEFT JOIN rules ru USING (host)
                WHERE r.pos = 1
            )
            SELECT *, CASE WHEN blocked THEN -1 ELSE row_number() OVER (
                       PARTITION BY host, blocked ORDER BY priority, seed_order) - 1
                   END AS host_rank
            FROM winners
        """ % DEFAULT_DELAY_MS)
        order = con.execute("""
            SELECT host_rank * delay AS fetch_ms, priority, seed_order, urlkey
            FROM flow WHERE NOT blocked
            ORDER BY fetch_ms, priority, seed_order
        """).fetch_arrow_table()
        hosts = con.execute("""
            SELECT host, count(*) FILTER (WHERE NOT blocked),
                   sum(n_dup), count(*) FILTER (WHERE host_rank > 0),
                   count(*) FILTER (WHERE blocked), count(*)
            FROM flow GROUP BY host
        """).fetchall()
    finally:
        con.close()

    buckets = {b: [0, 0, 0, 0, 0] for b in range(num_buckets)}
    for host, *counts in hosts:
        agg = buckets[fnv1a64(host) % num_buckets]
        for k, v in enumerate(counts):
            agg[k] += int(v)
    scheduled = sum(c[0] for c in buckets.values())
    hot = next((int(h[1]) for h in hosts if h[0] == HOT_HOST), 0)
    return {
        "order": order.cast(pa.schema([("fetch_ms", pa.int64()),
                                       ("priority", pa.int32()),
                                       ("seed_order", pa.int64()),
                                       ("urlkey", pa.string())])),
        "survivors": sum(c[4] for c in buckets.values()),
        "blocked": sum(c[3] for c in buckets.values()),
        "scheduled": scheduled,
        "hot_scheduled": hot,
        "buckets": buckets,
    }


def _pages_to_samples(pages: int) -> int:
    p = float(pages)
    if p > 1:
        p -= 1.0
    elif p >= 1:
        p -= 0.5
    return int(p * LINES_PER_PAGE)


class CaptureOracle:
    """Answers capture queries over the captures' ground truth."""

    def __init__(self, truth: pa.Table, pages: pa.Table):
        self.con = duckdb.connect()
        self.con.register("caps", truth)
        self.con.register("pages", pages.select(["url", "text"]).append_column(
            "row", pa.array(np.arange(pages.num_rows), pa.int64())))
        self.texts = dict(self.con.execute(
            "SELECT url, arg_max(text, row) FROM pages GROUP BY url").fetchall())

    def close(self) -> None:
        self.con.close()

    @staticmethod
    def _where(q: dict) -> tuple[str, list]:
        """SQL predicate + parameters for one query's match, window
        and filters (see workloads.capture_queries for the shapes)."""
        conds, args = [], []
        mt, key = q["match"], q["key"]
        if mt == "exact":
            conds.append("urlkey = ?")
            args.append(key)
        elif mt == "prefix":
            conds.append("starts_with(urlkey, ?)")
            args.append(key)
        elif mt == "host":
            conds.append("starts_with(urlkey, ?)")
            args.append(key + ")")
        else:  # domain: the host itself or any subdomain
            conds.append("(starts_with(urlkey, ?) OR starts_with(urlkey, ?))")
            args += [key + ")", key + ","]
        kw = q["kwargs"]
        if "crawl" in kw:
            conds.append("crawl = ?")
            args.append(kw["crawl"])
        else:
            to = kw["to"]
            to = to[:6] + "%02d" % MONTH_LAST_DAY[int(to[4:6]) - 1] + to[8:]
            conds.append("timestamp >= ? AND timestamp <= ?")
            args += [kw["from_ts"], to]
        for f in kw.get("filter", []):
            if f.startswith("="):
                field, _, val = f[1:].partition(":")
                conds.append("%s = ?" % field)
            elif f.startswith("!"):
                field, _, val = f[1:].partition(":")
                conds.append("NOT contains(%s, ?)" % field)
            else:  # "~field:regex", full match
                field, _, val = f[1:].partition(":")
                conds.append("regexp_full_match(%s, ?)" % field)
            args.append(val)
        return " AND ".join(conds), args

    def captures(self, q: dict) -> list[tuple[str, str]]:
        """(urlkey, timestamp) in iteration order: newest crawl first,
        (urlkey, timestamp) ascending within a crawl, then ``limit``."""
        where, args = self._where(q)
        sql = ("SELECT urlkey, timestamp, url FROM caps WHERE %s "
               "ORDER BY crawl_end DESC, urlkey, timestamp" % where)
        if q["kwargs"].get("limit") is not None:
            sql += " LIMIT %d" % int(q["kwargs"]["limit"])
        return self.con.execute(sql, args).fetchall()

    def size_estimate(self, q: dict) -> int:
        """Per-crawl matching rows -> pages of 3000 -> samples, summed."""
        where, args = self._where(q)
        counts = self.con.execute(
            "SELECT count(*) FROM caps WHERE %s GROUP BY crawl" % where,
            args).fetchall()
        return sum(_pages_to_samples(math.ceil(n / LINES_PER_PAGE))
                   for (n,) in counts)
