"""User-facing API parity surface: CDXFetcher / CaptureObject.

Mirrors the reference's Python API (cocrawler/cdx_toolkit
cdx_toolkit/__init__.py:208-384: ``CDXFetcher(source=, crawl=,
cc_sort=, loglevel=)``, ``.get()``, ``.iter()``, ``.get_size_estimate()``,
and the dict-duck-typed ``CaptureObject`` with lazy ``.content`` /
``.text`` / ``.fetch_warc_record()`` / ``.is_revisit()``) — but backed
by local Parquet tables instead of remote CDX HTTP APIs.

``iter`` / ``get`` consume the planned task scan of
``sources.captures`` directly: one Ray task per selected crawl
partition, results yielded in cc_sort order as each partition's scan
lands, and ``limit`` stops further scans from being submitted.
``get_size_estimate`` counts the same plan in one round of tasks.
``dataset()`` returns the same scan as a ``ray.data.Dataset``. Zipnum
sources still iterate their Ray Data lookup. The row-wise iterator is
for interactive / small use; bulk content work should use the
distributed ``pipelines.warcout`` stage instead.
"""

from __future__ import annotations

import logging
import os
import warnings
from collections.abc import MutableMapping

import pyarrow.parquet as pq
import ray

from .planner import normalize_crawl
from .sources.captures import (plan_query, query_captures, scan_captures,
                               size_estimate)

LOGGER = logging.getLogger(__name__)


class CaptureObject(MutableMapping):
    """One capture row, duck-typed as a dict, with lazy content access.

    Parity: cdx_toolkit/__init__.py:90-154. ``content`` resolves via a
    lookup against the pages table (the sandbox stand-in for a WARC
    byte-range fetch); ``text`` is the byte-identical
    ``content.decode('utf-8', errors='replace')``.
    """

    def __init__(self, data: dict, content_index=None,
                 warc_download_prefix: str | None = None,
                 wb: str | None = None, warc_dir: str | None = None):
        self.data = data
        self._content_index = content_index
        self._warc_download_prefix = warc_download_prefix
        self._wb = wb
        self._warc_dir = warc_dir
        self.warc_record = None
        self._content = None

    def is_revisit(self) -> bool:
        return self.data.get("mime") == "warc/revisit"

    def fetch_warc_record(self) -> dict:
        if self.warc_record is not None:
            return self.warc_record
        url = self.data.get("url")
        payload = None
        if self._warc_dir and self.data.get("filename") \
                and self.data.get("offset") is not None \
                and self.data.get("length") is not None:
            # the REAL S6 path: byte-range read of exactly the indexed
            # span from the WARC segment (reference warc.py:123-137 —
            # Range GET on warc_download_prefix/filename), then parse
            # the one record inside
            from .pipelines.warcbytes import fetch_record_range

            rec = fetch_record_range(
                os.path.join(self._warc_dir, self.data["filename"]),
                int(self.data["offset"]), int(self.data["length"]))
            body = rec["content"]
            sep = body.find(b"\r\n\r\n")
            payload = body[sep + 4:] if body.startswith(b"HTTP/") \
                and sep >= 0 else body
        elif self._content_index is None:
            raise ValueError("no content source configured")
        if payload is None and self._content_index is not None:
            payload = self._content_index.get(url)
        if payload is None:
            raise RuntimeError("404: no content for url " + str(url))
        # source-uri stamping parity: wayback replay url in wb mode
        # (warc.py:107), download-prefix + filename otherwise
        # (warc.py:126), bare filename as the local fallback
        filename = self.data.get("filename")
        if self._wb:
            source_uri = "%s/%sid_/%s" % (self._wb,
                                          self.data.get("timestamp"), url)
        elif self._warc_download_prefix and filename:
            source_uri = self._warc_download_prefix + "/" + filename
        else:
            source_uri = filename
        self.warc_record = {
            "warc_type": "response",
            "warc_target_uri": url,
            "warc_source_uri": source_uri,
            "warc_source_range": "bytes={}-{}".format(
                self.data.get("offset"),
                (self.data.get("offset") or 0) + (self.data.get("length") or 0) - 1,
            ),
            "payload": payload,
        }
        return self.warc_record

    @property
    def content_stream(self):
        """File-like stream over the record payload (parity:
        cdx_toolkit/__init__.py:119-120 — the reference returns the
        warcio record's content_stream; here the payload is local
        bytes, exposed through the same read() interface)."""
        import io

        return io.BytesIO(self.fetch_warc_record()["payload"])

    @property
    def content(self) -> bytes:
        if self._content is None:
            self._content = self.fetch_warc_record()["payload"]
        return self._content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def __getitem__(self, k):
        return self.data[k]

    def __setitem__(self, k, v):
        self.data[k] = v

    def __delitem__(self, k):
        del self.data[k]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)

    def __contains__(self, k):
        return k in self.data


class _LazyContentIndex:
    """Duck-typed stand-in for the url->html dict when the pages table
    is over the driver-index budget: each ``.get(url)`` is one
    predicate-pushdown parquet read (row groups whose url stats exclude
    the key never load) with a small LRU memo. Last row wins, matching
    the dict path's on-disk-order semantics."""

    _MISS = object()  # sentinel: a cached miss, independent of default

    def __init__(self, pages_path: str, memo_size: int = 256):
        from collections import OrderedDict

        self.pages_path = pages_path
        self.memo_size = memo_size
        self._memo: "OrderedDict" = OrderedDict()

    def get(self, url, default=None):
        if url is None:
            return default
        if url in self._memo:
            self._memo.move_to_end(url)  # true LRU: hits refresh
            val = self._memo[url]
            return default if val is self._MISS else val
        t = pq.read_table(self.pages_path, columns=["html"],
                          filters=[("url", "==", url)])
        val = t["html"][-1].as_py() if t.num_rows else self._MISS
        if len(self._memo) >= self.memo_size:
            self._memo.popitem(last=False)
        self._memo[url] = val
        return default if val is self._MISS else val


class CDXFetcher:
    """Query-engine facade over a local captures table.

    Args mirror the reference constructor (__init__.py:208-242); the
    remote-source args are replaced by table paths:

    * ``captures_root`` — hive-partitioned captures table directory
    * ``pages_path``    — pages Parquet (content lookups)
    """

    def __init__(self, captures_root: str | None = None,
                 pages_path: str | None = None,
                 source: str = "cc", crawl=None, wb: str | None = None,
                 warc_download_prefix: str | None = None,
                 cc_mirror: str | None = None, cc_sort: str = "mixed",
                 warc_dir: str | None = None, loglevel=None):
        # source resolution parity (__init__.py:226-239): cc applies
        # the mirror + download-prefix defaults and rejects wb=; ia
        # defaults wb; any other source must name an arbitrary endpoint
        # — in this local engine that is a captures TABLE PATH (the
        # analog of the reference's arbitrary CDX server URL; remote
        # http(s) endpoints are unreachable by design)
        if wb is not None and warc_download_prefix is not None:
            raise ValueError(
                "cannot specify both wb and warc_download_prefix")
        self.wb = wb
        self.warc_download_prefix = warc_download_prefix
        if source == "cc":
            if wb is not None:
                raise ValueError("cannot specify wb= for source=cc")
            if cc_mirror:  # local-mirror analog: same table, other root
                captures_root = cc_mirror
            self.warc_download_prefix = (warc_download_prefix
                                         or "https://data.commoncrawl.org")
        elif source == "ia":
            if self.warc_download_prefix is None and self.wb is None:
                self.wb = "https://web.archive.org/web"
        elif source.startswith("https://") or source.startswith("http://"):
            raise ValueError(
                "remote CDX servers are unreachable from this local "
                "engine; pass a captures table path as source=")
        elif os.path.exists(source):
            from .sources.zipnum import is_zipnum_dir, is_zipnum_multi_dir

            captures_root = source
            if is_zipnum_dir(source):
                # a zipnum cluster directory — the serving structure
                # index.commoncrawl.org answers the reference from;
                # queried through the cluster.idx bisect + pruned
                # block reads (sources/zipnum.query_zipnum)
                source = "zipnum"
            elif is_zipnum_multi_dir(source):
                # one cluster per crawl (the real CC deployment);
                # walked in cc_sort order like the reference's
                # endpoint loop
                source = "zipnum_multi"
            else:
                source = "custom"   # single endpoint, pywb dialect,
                #                     no crawl-window pruning
        else:
            raise ValueError("could not understand source")
        if not captures_root:
            raise ValueError("captures_root (or a path source=/"
                             "cc_mirror=) is required")
        self.captures_root = captures_root
        self.pages_path = pages_path
        #: directory of real WARC segments: captures rows carrying
        #: (filename, offset, length) resolve content via byte-range
        #: reads of exactly the indexed span (the reference's actual
        #: fetch path) instead of the pages-table lookup
        self.warc_dir = warc_dir
        self.source = source
        self.crawl = normalize_crawl(crawl) if crawl else None
        self.cc_sort = cc_sort
        self._content_index = None
        if loglevel:
            LOGGER.setLevel(loglevel)

    #: build the url->html driver dict only under this on-disk budget
    #: (the content join's byte-budget check, warcout._pages_bytes);
    #: above it, per-url filtered reads keep memory O(1) — bulk content
    #: belongs in pipelines.warcout.extract_content
    INDEX_BUDGET_BYTES = 256 << 20

    def _index(self):
        """url -> html bytes lookup. Under the budget: a dict built
        once (broadcast-side pattern). Over it: a lazy per-url filtered
        reader — the interactive veneer must never materialize a
        terabyte pages table on the driver."""
        if self._content_index is None and self.pages_path:
            if os.path.getsize(self.pages_path) > self.INDEX_BUDGET_BYTES:
                LOGGER.warning(
                    "pages table exceeds the %d MB driver-index budget; "
                    "resolving content per url (use "
                    "pipelines.warcout.extract_content for bulk work)",
                    self.INDEX_BUDGET_BYTES >> 20)
                self._content_index = _LazyContentIndex(self.pages_path)
            else:
                t = pq.read_table(self.pages_path, columns=["url", "html"])
                urls = t["url"].to_pylist()
                htmls = t["html"].to_pylist()
                # last capture of a url wins, matching on-disk order
                self._content_index = dict(zip(urls, htmls))
        return self._content_index

    def _kwargs(self, kwargs):
        if "crawl" not in kwargs and self.crawl:
            kwargs["crawl"] = self.crawl
        elif isinstance(kwargs.get("crawl"), str):
            kwargs["crawl"] = normalize_crawl([kwargs["crawl"]])
        if kwargs.get("crawl") is None:
            kwargs.pop("crawl", None)
        return kwargs

    def iter(self, url: str | None = None, **kwargs):
        """Streaming capture iterator (reference .iter parity)."""
        if self.source == "zipnum":
            from .sources.zipnum import query_zipnum

            kw = self._kwargs(kwargs)
            kw.pop("crawl", None)  # single endpoint: no crawl pruning
            rows = query_zipnum(self.captures_root, url=url,
                                **kw).iter_rows()
        elif self.source == "zipnum_multi":
            from .sources.zipnum import query_zipnum_multi

            kw = self._kwargs(kwargs)
            kw.pop("crawl", None)
            rows = query_zipnum_multi(self.captures_root, url=url,
                                      cc_sort=self.cc_sort,
                                      **kw).iter_rows()
        else:
            plan = plan_query(self.captures_root, url=url,
                              source=self.source, cc_sort=self.cc_sort,
                              **self._kwargs(kwargs))
            rows = (row for ref in scan_captures(plan)
                    for row in ray.get(ref).to_pylist())
        idx = self._index()
        for row in rows:
            yield CaptureObject(
                row, content_index=idx,
                warc_download_prefix=self.warc_download_prefix,
                wb=self.wb, warc_dir=self.warc_dir)

    def items(self, url: str | None = None, **kwargs):  # pragma: no cover
        warnings.warn("items() is an alias of iter()", FutureWarning)
        return self.iter(url, **kwargs)

    def get(self, url: str | None = None, **kwargs) -> list[CaptureObject]:
        """One-shot query; applies the reference's default limit=1000."""
        if "limit" not in kwargs:
            kwargs["limit"] = 1000
        return list(self.iter(url, **kwargs))

    def get_size_estimate(self, url: str | None = None, as_pages: bool = False,
                          **kwargs):
        if self.source in ("zipnum", "zipnum_multi"):
            from .sources.zipnum import (list_zipnum_crawls,
                                         zipnum_size_estimate)

            kw = self._kwargs(kwargs)
            kw.pop("crawl", None)
            for k in ("from_ts", "to", "closest", "limit", "filter"):
                kw.pop(k, None)   # showNumPages counts blocks by key
            dirs = ([self.captures_root] if self.source == "zipnum"
                    else list_zipnum_crawls(self.captures_root))
            # per-endpoint sum, the reference's A1 cross-endpoint fold
            return sum(zipnum_size_estimate(d, url=url,
                                            as_pages=as_pages,
                                            **dict(kw))
                       for d in dirs)
        return size_estimate(self.captures_root, url=url, source=self.source,
                             cc_sort=self.cc_sort, as_pages=as_pages,
                             **self._kwargs(kwargs))

    def dataset(self, url: str | None = None, **kwargs) -> "ray.data.Dataset":
        """The engine-native surface: the query as a Ray Dataset."""
        if self.source == "zipnum":
            from .sources.zipnum import query_zipnum

            kw = self._kwargs(kwargs)
            kw.pop("crawl", None)
            return query_zipnum(self.captures_root, url=url, **kw)
        return query_captures(self.captures_root, url=url, source=self.source,
                              cc_sort=self.cc_sort, **self._kwargs(kwargs))
