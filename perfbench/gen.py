"""Seeded input generators for the benchmark workloads.

Each generator writes only the Parquet the program reads and returns,
in memory, the ground truth it built the rows from (canonical urlkey,
host, url path, crawl). The oracles read that ground truth, so they
never call the program's canonicalizer.

Frontier seeds follow the canonicalizer's SURT rules by construction:
scheme, a ``www.`` prefix, host case, default ports, fragments and
query-parameter order vary between the copies of one URL, and all of
them map to ``rev,host)/path?a=..&b=..``. ``host`` is the lowercased
hostname as written (``www.`` kept), which is what the program keys
politeness and robots on.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HOT_HOST = "hot-portal.example"
# share of the distinct seed URLs on the hot host
HOT_SHARE = 0.2
N_HOSTS = 1200
DELAYS_MS = (550, 1000, 3000, 6000)
DISALLOW = ("/p/1", "/private")

CRAWLS = ("CC-MAIN-2022-05", "CC-MAIN-2022-40", "CC-MAIN-2023-14",
          "CC-MAIN-2023-50")
# unix end time of each crawl (the planner's crawl_to_end_time):
# the Monday of ISO week WW, midnight UTC
CRAWL_ENDS = (1644105600, 1665273600, 1680998400, 1702771200)

CAPTURE_DOMAINS = (
    ("big-portal.example", 0.30), ("news-hub.example", 0.20),
    ("shop.example", 0.12), ("blog-alpha.example", 0.10),
    ("wiki-beta.example", 0.08), ("forum-gamma.example", 0.07),
    ("docs-delta.example", 0.06), ("mail-epsilon.example", 0.04),
    ("tiny-one.example", 0.02), ("tiny-two.example", 0.01),
)
SUBDOMAINS = ("", "", "", "m.", "news.", "img.")
STATUSES = ("200", "200", "200", "301", "404", "-")


def rev_host(host: str) -> str:
    """``a.b.example`` -> ``example,b,a``: the host part of a SURT urlkey."""
    return ",".join(reversed(host.split(".")))


def frontier_inputs(root: str, seed: int, n_rows: int, dup_share: float):
    """Write ``seeds.parquet`` (url, priority, seed_order) and
    ``robots.parquet`` under ``root``.

    ``dup_share`` of the rows repeat a URL another row already has
    (in another surface form); ``HOT_SHARE`` of the distinct URLs sit
    on one hot host, which is never written with ``www.``. Returns
    (paths, truth, robots) where ``truth`` is an Arrow table with one row per seed row: url, priority,
    seed_order, urlkey, host, path.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    hosts = [HOT_HOST] + ["site%04d.%s" % (k, ("example", "test", "net.example")[k % 3])
                          for k in range(1, N_HOSTS)]

    n_unique = max(1, int(round(n_rows * (1.0 - dup_share))))
    # distinct URLs: host (hot share fixed, the rest Zipf-like), page id,
    # optional two-parameter query
    weights = 1.0 / np.arange(1, N_HOSTS) ** 0.8
    cold = rng.choice(np.arange(1, N_HOSTS), size=n_unique, p=weights / weights.sum())
    u_host = np.where(rng.random(n_unique) < HOT_SHARE, 0, cold)
    u_page = rng.integers(0, 1 << 20, size=n_unique)
    u_query = rng.random(n_unique) < 0.3
    u_root = rng.random(n_unique) < 0.02
    # (host, page, query) must be distinct for the URLs to be distinct
    key = (u_host.astype(np.int64) << 22) | (u_page << 1) | u_query
    key[u_root] = u_host[u_root].astype(np.int64) << 22 | (1 << 21)
    _, first = np.unique(key, return_index=True)
    keep = np.sort(first)
    u_host, u_page, u_query, u_root = u_host[keep], u_page[keep], u_query[keep], u_root[keep]
    n_unique = len(keep)

    # every distinct URL once, the rest repeats
    pick = np.concatenate([np.arange(n_unique),
                           rng.integers(0, n_unique, size=n_rows - n_unique)])
    pick = pick[rng.permutation(n_rows)]
    https = rng.random(n_rows) < 0.7
    # www. copies only off the hot host, so the hot host keeps its share
    www = (rng.random(n_rows) < 0.3) & (u_host[pick] != 0)
    upper = rng.random(n_rows) < 0.05
    port = rng.random(n_rows) < 0.03
    frag = rng.random(n_rows) < 0.05
    swap_q = rng.random(n_rows) < 0.5

    urls, keys, row_hosts, paths = [], [], [], []
    for i in range(n_rows):
        u = pick[i]
        bare = hosts[u_host[u]]
        host = ("www." if www[i] else "") + bare
        netloc = host.upper() if upper[i] else host
        if port[i]:
            netloc += ":443" if https[i] else ":80"
        if u_root[u]:
            path, query, canon_q = "", "", ""
        else:
            page = int(u_page[u])
            path = "/p/%d" % page
            if u_query[u]:
                a, b = "a=%d" % (page % 7), "b=%d" % (page % 5)
                query = "?" + (b + "&" + a if swap_q[i] else a + "&" + b)
                canon_q = "?" + a + "&" + b
            else:
                query, canon_q = "", ""
        urls.append(("https://" if https[i] else "http://") + netloc + path
                     + query + ("#top" if frag[i] else ""))
        keys.append(rev_host(bare) + ")" + (path or "/") + canon_q)
        row_hosts.append(host)
        paths.append(path or "/")

    priority = rng.integers(0, 4, size=n_rows).astype(np.int32)
    seed_order = np.arange(n_rows, dtype=np.int64)
    seeds = pa.table({"url": pa.array(urls, pa.string()),
                      "priority": pa.array(priority),
                      "seed_order": pa.array(seed_order)})
    seeds_path = os.path.join(root, "seeds.parquet")
    pq.write_table(seeds, seeds_path)
    truth = seeds.append_column("urlkey", pa.array(keys, pa.string())) \
        .append_column("host", pa.array(row_hosts, pa.string())) \
        .append_column("path", pa.array(paths, pa.string()))

    # robots rows for every bare host; a disallow list on 1 host in 7
    # (the hot host among them); www. hosts fall back to the default
    delay = [DELAYS_MS[int(d)] for d in rng.integers(0, len(DELAYS_MS), size=N_HOSTS)]
    disallow = [list(DISALLOW) if k % 7 == 0 else [] for k in range(N_HOSTS)]
    robots = pa.table({"host": pa.array(hosts, pa.string()),
                       "crawl_delay_ms": pa.array(delay, pa.int64()),
                       "disallow": pa.array(disallow, pa.list_(pa.string()))})
    robots_path = os.path.join(root, "robots.parquet")
    pq.write_table(robots, robots_path)
    return {"seeds": seeds_path, "robots": robots_path}, truth, robots


def _ts14(t: np.ndarray) -> list[str]:
    return [s.replace("-", "").replace("T", "").replace(":", "")
            for s in np.datetime_as_string(t.astype("datetime64[s]"), unit="s")]


def capture_inputs(root: str, seed: int, n_pages: int):
    """Write a ``pages.parquet`` and a hive-partitioned ``captures``
    table (one ``crawl=`` partition per crawl, rows ascending by
    (urlkey, timestamp)) under ``root``.

    Every page is one capture: a URL on a skewed set of hosts and
    subdomains, a distinct timestamp up to 45 days before its crawl's
    end. Returns (paths, truth) where ``truth`` is an Arrow table with
    one row per capture: urlkey, timestamp, url, status, mime, crawl,
    crawl_end, pages_row.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    names = [d for d, _ in CAPTURE_DOMAINS]
    p = np.array([w for _, w in CAPTURE_DOMAINS])
    dom = rng.choice(len(names), size=n_pages, p=p / p.sum())
    sub = rng.integers(0, len(SUBDOMAINS), size=n_pages)
    page = rng.integers(0, max(10, n_pages // 3), size=n_pages)
    crawl = rng.integers(0, len(CRAWLS), size=n_pages)
    # distinct offsets: no two captures share a timestamp
    offset = 1 + rng.permutation(45 * 86400)[:n_pages]
    ts = np.array(CRAWL_ENDS)[crawl] - offset
    https = rng.random(n_pages) < 0.7
    status = rng.integers(0, len(STATUSES), size=n_pages)
    bad_utf8 = rng.random(n_pages) < 0.05

    urls, keys, htmls, texts = [], [], [], []
    for i in range(n_pages):
        host = SUBDOMAINS[sub[i]] + names[dom[i]]
        path = "/p/%d" % page[i]
        url = ("https://" if https[i] else "http://") + host + path
        body = ("<html><head><title>page %d</title></head><body><p>%s</p>"
                "</body></html>" % (i, url)).encode()
        if bad_utf8[i]:
            body = body[:20] + b"\xff\xfe\x80\xc3" + body[20:]
        urls.append(url)
        keys.append(rev_host(host) + ")" + path)
        htmls.append(body)
        texts.append(body.decode("utf-8", errors="replace"))

    stamps = _ts14(ts)
    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts * 1_000_000, pa.timestamp("us", tz="UTC")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["eng"] * n_pages, pa.string()),
    })
    pages_path = os.path.join(root, "pages.parquet")
    pq.write_table(pages, pages_path)

    statuses = [STATUSES[s] for s in status]
    captures = pa.table({
        "urlkey": pa.array(keys, pa.string()),
        "timestamp": pa.array(stamps, pa.string()),
        "url": pa.array(urls, pa.string()),
        "mime": pa.array(["warc/revisit" if s == "-" else "text/html"
                          for s in statuses], pa.string()),
        "mime_detected": pa.array(["text/html"] * n_pages, pa.string()),
        "status": pa.array(statuses, pa.string()),
        "digest": pa.array(["%032X" % i for i in range(n_pages)], pa.string()),
        "length": pa.array([len(h) for h in htmls], pa.int64()),
        "offset": pa.array(rng.integers(0, 1 << 30, size=n_pages), pa.int64()),
        "filename": pa.array(["crawl-data/%s/warc/%06d.warc.gz" % (CRAWLS[c], i)
                              for i, c in enumerate(crawl)], pa.string()),
        "redirect": pa.array([None] * n_pages, pa.string()),
        "languages": pa.array(["eng"] * n_pages, pa.string()),
        "encoding": pa.array(["UTF-8"] * n_pages, pa.string()),
    })
    cap_root = os.path.join(root, "captures")
    for c, name in enumerate(CRAWLS):
        part = captures.filter(pa.array(crawl == c)) \
            .sort_by([("urlkey", "ascending"), ("timestamp", "ascending")])
        part_dir = os.path.join(cap_root, "crawl=%s" % name)
        os.makedirs(part_dir, exist_ok=True)
        pq.write_table(part, os.path.join(part_dir, "part-0.parquet"))

    truth = pa.table({
        "urlkey": captures["urlkey"], "timestamp": captures["timestamp"],
        "url": captures["url"], "status": captures["status"],
        "mime": captures["mime"],
        "crawl": pa.array([CRAWLS[c] for c in crawl], pa.string()),
        "crawl_end": pa.array(np.array(CRAWL_ENDS)[crawl], pa.int64()),
        "pages_row": pa.array(np.arange(n_pages), pa.int64()),
    })
    return {"pages": pages_path, "captures": cap_root}, truth, pages
