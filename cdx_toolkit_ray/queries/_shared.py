"""Driver-facing query catalog: every operator family from SURVEY.md §2
expressed as a Ray Data pipeline over the driver's testdata tables
(``region nation customer supplier part orders lineitem events
documents embeddings``), each paired (where SQL-expressible) with an
equivalent DuckDB oracle in :data:`ORACLES`.

Crawl-specific semantics (SURT canonicalization, first-wins dedup,
politeness scheduling, CDX filter language, timestamp algebra) run over
a **derived seeds view** of the ``documents`` table: both the Ray
pipeline and the oracle SQL construct the identical URL set from
``(doc_id, source)`` by the same closed-form rules, so the engine's
canonicalizer / dedup / scheduler are checked value-for-value against
pure SQL window functions.

Column-name contract: every computed column is named identically in the
Ray pipeline and the oracle SQL (the driver hashes values after sorting
columns by name). Float columns are avoided in oracle-checked outputs
except where values are carried through unmodified.
"""

from __future__ import annotations

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..canon import canonicalize_batch
from ..filters import FilterStage
from ..pipelines.frontier import (
    dedup_schedule,
    host_counters,
)
from ..sources.captures import LINES_PER_PAGE, pages_to_samples
from ..stages.dedup import (
    exact_dedup,
    first_wins_dedup,
    make_simhash_stage,
    minhash_dedup_pairs,
)
from ..stages.textstats import (
    lang_id_batch,
    make_fingerprint_stage,
    quality_batch,
    token_count_batch,
)
from ..timeutils import pad_timestamp, timestamp_to_time, timestamps_to_epoch

# ---------------------------------------------------------------------------
# Derived seeds view of `documents` (same rules in SQL below)
# ---------------------------------------------------------------------------

_DELAYS = np.array([550, 1000, 3000, 6000], dtype=np.int64)


def _tbl(sf_dir: str, name: str) -> str:
    return "%s/%s.parquet" % (sf_dir.rstrip("/"), name)


def derive_seeds_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id, source) -> seeds(url, priority, seed_order,
    crawl_delay_ms). URL shape varies scheme / www. / query-param order
    deterministically so SURT canonicalization has real work to do."""
    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
    source = batch["source"].to_numpy(zero_copy_only=False).astype(str)

    scheme = np.where((doc_id // 200) % 2 == 0, "https://", "http://")
    www = np.where((doc_id // 100) % 2 == 0, "www.", "")
    q = np.where(doc_id % 10 < 3, "?b=2&a=1", "")
    page = (doc_id % 100).astype(str)

    url = np.char.add(scheme.astype(str), www.astype(str))
    url = np.char.add(url, source)
    url = np.char.add(url, ".example/doc/")
    url = np.char.add(url, page)
    url = np.char.add(url, q.astype(str))

    src_idx = np.array([int(s[3:]) for s in source], dtype=np.int64)
    delays = _DELAYS[src_idx % 4]

    return pa.table({
        "doc_id": batch["doc_id"],
        "url": pa.array(url.tolist(), pa.string()),
        "priority": pa.array((doc_id % 4).astype(np.int32)),
        "seed_order": pa.array(doc_id.astype(np.int64)),
        "crawl_delay_ms": pa.array(delays, pa.int64()),
    })


_SEEDS_CTE = """
seeds AS (
  SELECT doc_id,
         (CASE WHEN (doc_id // 200) % 2 = 0 THEN 'https://' ELSE 'http://' END)
           || (CASE WHEN (doc_id // 100) % 2 = 0 THEN 'www.' ELSE '' END)
           || source || '.example/doc/' || (doc_id % 100)
           || (CASE WHEN doc_id % 10 < 3 THEN '?b=2&a=1' ELSE '' END) AS url,
         'example,' || source || ')/doc/' || (doc_id % 100)
           || (CASE WHEN doc_id % 10 < 3 THEN '?a=1&b=2' ELSE '' END) AS urlkey,
         (CASE WHEN (doc_id // 100) % 2 = 0 THEN 'www.' ELSE '' END)
           || source || '.example' AS host,
         CAST(doc_id % 4 AS INTEGER) AS priority,
         doc_id AS seed_order,
         CAST(CASE (CAST(substr(source, 4, 8) AS INTEGER) % 4)
              WHEN 0 THEN 550 WHEN 1 THEN 1000 WHEN 2 THEN 3000
              ELSE 6000 END AS BIGINT) AS crawl_delay_ms
  FROM documents
)
"""


def derived_seeds(sf_dir: str) -> ray.data.Dataset:
    ds = ray.data.read_parquet(_tbl(sf_dir, "documents"),
                               columns=["doc_id", "source"])
    return ds.map_batches(derive_seeds_batch, batch_format="pyarrow",
                        batch_size=None)


def _add_false_robots(batch: pa.Table) -> pa.Table:
    return batch.append_column(
        "robots_blocked", pa.array(np.zeros(batch.num_rows, dtype=bool)))


def _canon_allow_all(batch: pa.Table) -> pa.Table:
    """``canonicalize_batch`` plus the all-allow robots gate (the
    derived seeds carry their own ``crawl_delay_ms``)."""
    return _add_false_robots(canonicalize_batch(batch))


def _frontier_over_seeds(sf_dir: str, *,
                         connections: int = 1) -> ray.data.Dataset:
    """seeds -> one host round (pipelines/frontier.dedup_schedule):
    canonicalize + gate in its split tasks, then first-wins dedup and
    politeness."""
    return dedup_schedule(derived_seeds(sf_dir), prepare=_canon_allow_all,
                          connections=connections)


# ---------------------------------------------------------------------------
# Query callables (each: sf_dir -> Dataset / DataFrame)
# ---------------------------------------------------------------------------

