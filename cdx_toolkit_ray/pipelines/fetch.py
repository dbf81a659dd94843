"""Fetch-loop execution: scheduled crawl order -> fetcher actor pool ->
content rows + dead-letter side channel.

This is the stage that *executes* the politeness schedule — the engine
twin of the reference's serial fetch loop (cocrawler/cdx_toolkit
cli.py:235-276 ``warcer`` composed with myrequests.py:94-157
``myrequests_get``'s retry loop). Every piece of control state it uses
is the oracle-proven data-plane object from :mod:`cdx_toolkit_ray.retry`:

* status classification — ``RetryPolicy.classify`` (the reference's
  branch order, myrequests.py:101-124)
* exponential backoff — ``RetryPolicy.backoff_schedule`` (2x interval
  doubling capped at 60 s, myrequests.py:95, 121-122)
* the virtual clock — backoff is *budgeted*, never slept (the
  politeness scheduler owns time; no worker blocks)

The transport is injectable. In this sandbox ``TableTransport`` serves
a deterministic fault schedule + payloads from a Parquet table, which
makes the whole fetch loop a pure function of the input — replayable
by a serial oracle (the ``fetch_execute`` catalog entry hash-matches a
SQL replay of the same failure schedule). In a real crawl the same
protocol wraps an HTTP client pool; nothing else changes.

Scale notes (100 TB / 10^10-URL frontier):
* the stage is an actor pool (``map_batches(FetchExecutor,
  concurrency=N)``) — transport state (content index, HTTP session,
  DNS cache) loads ONCE per actor in ``__init__``/first use, never per
  batch;
* the retry loop is vectorized across the batch (one transport round
  per *attempt*, not per row) — the scalar ``RetryState`` remains the
  executable spec and a property test pins the two together;
* error rows never poison the stream: they ride the same dataset with
  ``fetch_action != 'ok'`` and ``dead_letter`` peels them into the
  side table (SURVEY.md §4 "retries (permanent)" design row).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..retry import RetryPolicy

__all__ = ["TableTransport", "FetchExecutor", "fetch_execute",
           "dead_letter"]

#: deterministic fault schedule: status of attempt k for request id d is
#: ``FAULT_STATUSES[(d + k) % 8]``. Chosen so the fixture exercises
#: every branch: first-try ok (200/301), invalid (404), one-retry-then-
#: ok (503->200), retry-then-invalid (429->404), and full exhaustion
#: (503->500->429 at max_attempts=3).
FAULT_STATUSES = np.array([200, 503, 500, 429, 404, 200, 301, 503],
                          dtype=np.int64)


class TableTransport:
    """Sandbox transport: deterministic fault injection + payloads from
    a Parquet table (the stand-in for an HTTP client; swap this class
    for a real fetcher and ``fetch_execute`` is a crawler).

    ``statuses(ids, attempt)`` is the injected-failure schedule — a pure
    function of (request id, attempt), so a serial oracle can replay
    the exact same outcome. ``payloads(ids)`` resolves content for the
    requests whose final status classified ok, auto-selecting by the
    table's on-disk footprint (the content join's budget idiom): under
    ``index_budget_bytes`` the (id -> text) index loads ONCE per actor
    from a column-pruned read; above it every call is a
    predicate-pushdown read of just the requested ids (row groups whose
    id stats exclude them never load) — a terabyte content table never
    sits in an actor heap.
    """

    def __init__(self, table_path: str, id_col: str = "doc_id",
                 text_col: str = "text",
                 index_budget_bytes: int = 256 << 20):
        self.table_path = table_path
        self.id_col = id_col
        self.text_col = text_col
        self.index_budget_bytes = index_budget_bytes
        self._ids = None          # sorted int64 ids
        self._texts = None        # matching text values

    def statuses(self, ids: np.ndarray, attempt: int) -> np.ndarray:
        return FAULT_STATUSES[(ids + attempt) % len(FAULT_STATUSES)]

    def _load(self) -> None:
        import pyarrow.parquet as pq

        t = pq.read_table(self.table_path,
                          columns=[self.id_col, self.text_col])
        ids = t[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        self._ids = ids[order]
        self._texts = t[self.text_col].combine_chunks().take(
            pa.array(order))

    def _payloads_filtered(self, ids: np.ndarray) -> pa.Array:
        """Over-budget path: one predicate-pushdown read per call."""
        import pyarrow.parquet as pq

        uniq = np.unique(ids)
        t = pq.read_table(self.table_path,
                          columns=[self.id_col, self.text_col],
                          filters=[(self.id_col, "in", uniq.tolist())])
        got_ids = t[self.id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(got_ids, kind="stable")
        sids = got_ids[order]
        texts = t[self.text_col].combine_chunks().take(pa.array(order))
        pos = np.searchsorted(sids, ids)
        pos_c = np.clip(pos, 0, max(len(sids) - 1, 0))
        hit = (sids[pos_c] == ids) if len(sids) else \
            np.zeros(len(ids), bool)
        idx = np.where(hit, pos_c, -1)
        return texts.take(pa.array(idx, mask=idx < 0)) \
            if len(sids) else pa.array([None] * len(ids), pa.string())

    def payloads(self, ids: np.ndarray) -> pa.Array:
        """text per id (null when the id is unknown)."""
        import os

        if self._ids is None and \
                os.path.getsize(self.table_path) > self.index_budget_bytes:
            return self._payloads_filtered(ids)
        if self._ids is None:
            self._load()
        if not len(self._ids):
            # empty content table: every id is unknown -> all null
            return pa.array([None] * len(ids), pa.string())
        pos = np.searchsorted(self._ids, ids)
        pos_c = np.clip(pos, 0, len(self._ids) - 1)
        hit = self._ids[pos_c] == ids
        taken = self._texts.take(pa.array(pos_c.astype(np.int64)))
        if bool(hit.all()):
            return taken
        return pa.array(
            [taken[i].as_py() if hit[i] else None for i in range(len(ids))],
            pa.string())


class FetchExecutor:
    """Actor-pool ``map_batches`` stage: execute one batch of the crawl
    schedule through the transport with the reference's retry policy.

    Per request (one row): attempts ``k = 0 .. max_attempts-1`` draw a
    status from the transport and classify it (RetryPolicy.classify).
    The first non-'retry' classification finalizes the request; a
    request still retrying after ``max_attempts`` attempts finalizes as
    ``'exhausted'`` (dead-letter). Virtual backoff accumulates for every
    retry actually *followed by* another attempt — giving up does not
    sleep (myrequests.py gives up without a final wait).

    The loop is vectorized: one transport round per ATTEMPT over the
    still-pending rows, classification per distinct status. The scalar
    ``RetryState`` drive is the executable spec; a test replays random
    batches through both and asserts identity.

    Appends: ``n_attempts:int64``, ``final_status:int64``,
    ``fetch_action:string`` (ok / invalid / error / exhausted),
    ``backoff_ms:int64``, ``text:string`` (payload for ok rows, null
    otherwise).
    """

    def __init__(self, transport, *, max_attempts: int = 3,
                 minimum_interval: float = 3.0,
                 id_col: str = "seed_order", url_col: str = "url",
                 cdx: bool = False, allow404: bool = False):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.transport = transport
        self.url_col = url_col
        self.policy = RetryPolicy(minimum_interval=minimum_interval)
        self.max_attempts = int(max_attempts)
        self.id_col = id_col
        self.cdx = cdx
        self.allow404 = allow404
        # virtual sleep before attempt k+1, ms (pure function of k)
        self._sleep_ms = np.array(
            [int(round(s * 1000))
             for s in self.policy.backoff_schedule(self.max_attempts)],
            dtype=np.int64)
        self._cls_cache: dict = {}

    def _classify(self, statuses: np.ndarray) -> np.ndarray:
        """action per row, one policy call per DISTINCT status."""
        uniq, codes = np.unique(statuses, return_inverse=True)
        acts = np.empty(len(uniq), dtype=object)
        for i, s in enumerate(uniq):
            key = int(s)
            a = self._cls_cache.get(key)
            if a is None:
                a = self.policy.classify(key, cdx=self.cdx,
                                         allow404=self.allow404)
                self._cls_cache[key] = a
            acts[i] = a
        return acts[codes]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch[self.id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)

        # URL-carrying transports (HttpTransport) get the id -> url
        # binding per batch; table transports resolve by id alone.
        # A missing column is a schema bug — silently feeding None
        # urls would turn the whole crawl into plausible-looking
        # dead-letter rows (every request a synthetic 400)
        if getattr(self.transport, "needs_urls", False):
            if self.url_col not in batch.column_names:
                raise ValueError(
                    "FetchExecutor: transport %s needs urls but the "
                    "schedule has no %r column (columns: %r)"
                    % (type(self.transport).__name__, self.url_col,
                       batch.column_names))
            self.transport.begin_batch(
                ids, batch[self.url_col].to_pylist())

        n_attempts = np.zeros(n, dtype=np.int64)
        final_status = np.zeros(n, dtype=np.int64)
        action = np.full(n, "exhausted", dtype=object)
        backoff_ms = np.zeros(n, dtype=np.int64)

        pending = np.arange(n)
        for k in range(self.max_attempts):
            if len(pending) == 0:
                break
            st = self.transport.statuses(ids[pending], k) \
                .astype(np.int64)
            act = self._classify(st)
            done = act != "retry"
            fin = pending[done]
            n_attempts[fin] = k + 1
            final_status[fin] = st[done]
            action[fin] = act[done]
            pending = pending[~done]
            if len(pending) and k < self.max_attempts - 1:
                # these rows sleep (virtually) then try again
                backoff_ms[pending] += self._sleep_ms[k]
        # rows still pending exhausted the budget: last status sticks,
        # no sleep after giving up
        if len(pending):
            n_attempts[pending] = self.max_attempts
            final_status[pending] = st[~done]

        ok = action == "ok"
        if ok.any():
            texts = self.transport.payloads(ids[ok])
            # scatter ok payloads into a null column: take() with null
            # indices yields nulls — no per-row Python
            idx = np.full(n, -1, dtype=np.int64)
            idx[ok] = np.arange(int(ok.sum()), dtype=np.int64)
            text_arr = texts.take(pa.array(idx, mask=idx < 0))
            if isinstance(text_arr, pa.ChunkedArray):
                text_arr = text_arr.combine_chunks()
        else:
            text_arr = pa.array([None] * n, pa.string())

        batch = batch.append_column("n_attempts",
                                    pa.array(n_attempts, pa.int64()))
        batch = batch.append_column("final_status",
                                    pa.array(final_status, pa.int64()))
        batch = batch.append_column("fetch_action",
                                    pa.array(action, pa.string()))
        batch = batch.append_column("backoff_ms",
                                    pa.array(backoff_ms, pa.int64()))
        return batch.append_column("text", text_arr)


def fetch_execute(schedule: ray.data.Dataset, transport, *,
                  max_attempts: int = 3, minimum_interval: float = 3.0,
                  id_col: str = "seed_order", url_col: str = "url",
                  concurrency: int | tuple = (1, 4),
                  batch_size: int | None = 2048,
                  cdx: bool = False,
                  allow404: bool = False) -> ray.data.Dataset:
    """Execute a politeness schedule through the fetcher actor pool.

    ``schedule`` is the crawl-order stream (rows carrying ``id_col`` as
    the request identity — ``seed_order`` from the frontier). Returns
    the same rows plus the fetch outcome columns (see
    :class:`FetchExecutor`); peel failures with :func:`dead_letter`.

    ``concurrency`` sizes the actor pool — transport state (content
    index, HTTP session, DNS cache) persists per actor across batches.
    The default is an AUTOSCALING (min, max) pool: a fixed pool equal
    to the CPU count deadlocks against upstream shuffle stages on small
    clusters (the pool reserves every CPU before the shuffle can run).
    """
    return schedule.map_batches(
        FetchExecutor,
        fn_constructor_kwargs={
            "transport": transport, "max_attempts": max_attempts,
            "minimum_interval": minimum_interval, "id_col": id_col,
            "url_col": url_col, "cdx": cdx, "allow404": allow404},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def dead_letter(fetched: ray.data.Dataset) -> ray.data.Dataset:
    """The error-row side channel: every request whose final action is
    not 'ok' (invalid / error / exhausted), with its attempt history
    columns intact. Write this next to the content output so a rerun
    can re-queue exactly these rows."""
    return fetched.filter(expr="fetch_action != 'ok'")


def requeue(fetched: ray.data.Dataset, *,
            actions: tuple = ("exhausted",)) -> ray.data.Dataset:
    """The crawl loop's retry feedback edge: transient dead letters ->
    a wave-2 politeness schedule.

    Only TRANSIENT failures requeue (default: the retry-budget-
    'exhausted' rows; 'invalid' 400/404s are permanently dead, the
    reference's giving-up rule, myrequests.py:101-110). The wave-2
    clock continues each host's wave-1 budget: the host's base is
    ``max(fetch_ms)`` over ALL its wave-1 rows, and eligible rows get
    slots ``base + (rank+1) * crawl_delay_ms`` in (priority,
    seed_order) rank order — so the per-host minimum interval holds
    ACROSS waves, not just within one.

    Input needs the schedule columns (host, fetch_ms, crawl_delay_ms,
    priority, seed_order) plus fetch_action. One host round
    (``frontier._host_round``): each bucket takes its hosts' bases,
    keeps the eligible rows and slots them on the politeness kernel
    (``frontier.make_bucket_scheduler``). Output: the input columns of
    the requeued rows, with the wave-2 ``fetch_ms`` and ``host_rank``,
    plus ``retry_wave=2``.
    """
    from .frontier import _host_round

    return _host_round(fetched, partial(_requeue_bucket, tuple(actions)))


def _requeue_bucket(actions: tuple, t: pa.Table) -> pa.Table:
    """One host bucket of :func:`requeue`."""
    from .frontier import make_bucket_scheduler

    last = t.group_by("host").aggregate([("fetch_ms", "max")])
    base = pa.table({"host": last["host"], "last_ms": last["fetch_ms_max"]})
    rows = t.filter(pc.is_in(t["fetch_action"],
                             value_set=pa.array(actions, pa.string())))
    out = make_bucket_scheduler()(
        rows.drop_columns([c for c in ("host_rank", "fetch_ms")
                           if c in t.column_names]), base)
    return out.select(t.column_names).append_column(
        "retry_wave", pa.array(np.full(out.num_rows, 2, np.int64)))
