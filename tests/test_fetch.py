"""Fetch-loop execution (pipelines/fetch.py): the engine twin of the
reference's serial fetch loop (cdx_toolkit cli.py warcer +
myrequests.py retry loop), executed as a fetcher actor pool under the
virtual clock."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs_table(tmp_path, n=64):
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(["payload-%d é" % i for i in range(n)],
                         pa.string()),
    }), path)
    return path


def _schedule(ids, hosts=None, fetch_ms=None):
    n = len(ids)
    return ray.data.from_arrow(pa.table({
        "seed_order": pa.array(np.asarray(ids, np.int64)),
        "host": pa.array(hosts if hosts is not None
                         else ["h%d" % (i % 3) for i in range(n)]),
        "fetch_ms": pa.array(fetch_ms if fetch_ms is not None
                             else np.zeros(n, np.int64)),
    }))


def _serial_replay(ids, max_attempts=3, minimum_interval=3.0):
    """The executable spec: drive the scalar RetryState per request,
    the way the reference's while-loop would."""
    from cdx_toolkit_ray.pipelines.fetch import FAULT_STATUSES
    from cdx_toolkit_ray.retry import RetryPolicy, RetryState

    policy = RetryPolicy(minimum_interval=minimum_interval)
    out = []
    for d in ids:
        state = RetryState(policy)
        backoff_ms = 0
        for k in range(max_attempts):
            status = int(FAULT_STATUSES[(d + k) % len(FAULT_STATUSES)])
            action, sleep = state.on_status(status)
            if action != "retry":
                out.append((d, k + 1, status, action, backoff_ms))
                break
            if k < max_attempts - 1:
                backoff_ms += int(round(sleep * 1000))
        else:
            out.append((d, max_attempts, status, "exhausted", backoff_ms))
    return out


def test_vectorized_loop_matches_scalar_retrystate(tmp_path):
    """The actor's per-attempt vectorized loop == the scalar RetryState
    spec, row for row, including backoff accounting and exhaustion."""
    from cdx_toolkit_ray.pipelines.fetch import TableTransport, fetch_execute

    docs = _docs_table(tmp_path, n=64)
    ids = np.arange(64, dtype=np.int64)
    got = fetch_execute(_schedule(ids), TableTransport(docs),
                        max_attempts=3).to_pandas().sort_values(
                            "seed_order").reset_index(drop=True)
    want = _serial_replay(ids)
    for i, (d, n_att, status, action, backoff) in enumerate(want):
        row = got.iloc[i]
        assert row["seed_order"] == d
        assert row["n_attempts"] == n_att, d
        assert row["final_status"] == status, d
        assert row["fetch_action"] == action, d
        assert row["backoff_ms"] == backoff, d
    # every branch of the fault schedule is actually exercised
    assert set(got["fetch_action"]) == {"ok", "invalid", "exhausted"}


def test_payloads_only_for_ok_and_byte_identical(tmp_path):
    from cdx_toolkit_ray.pipelines.fetch import TableTransport, fetch_execute

    docs = _docs_table(tmp_path, n=32)
    got = fetch_execute(_schedule(np.arange(32)), TableTransport(docs),
                        max_attempts=3).to_pandas()
    ok = got["fetch_action"] == "ok"
    assert ok.any() and (~ok).any()
    # ok rows carry the exact table text; the rest are null
    for _, r in got[ok].iterrows():
        assert r["text"] == "payload-%d é" % r["seed_order"]
    assert got.loc[~ok, "text"].isna().all()


def test_dead_letter_is_the_complement(tmp_path):
    from cdx_toolkit_ray.pipelines.fetch import (TableTransport,
                                                 dead_letter,
                                                 fetch_execute)

    docs = _docs_table(tmp_path, n=48)
    fetched = fetch_execute(_schedule(np.arange(48)),
                            TableTransport(docs), max_attempts=3)
    all_rows = fetched.to_pandas()
    dead = dead_letter(fetched).to_pandas()
    assert set(dead["seed_order"]) == set(
        all_rows.loc[all_rows["fetch_action"] != "ok", "seed_order"])
    assert (dead["fetch_action"] != "ok").all()


def test_transport_unknown_id_yields_null_payload(tmp_path):
    """A 'fetched ok' id missing from the content table must surface as
    a null payload, not a crash (content table lags the schedule in a
    real incremental crawl)."""
    from cdx_toolkit_ray.pipelines.fetch import TableTransport

    docs = _docs_table(tmp_path, n=4)
    tr = TableTransport(docs)
    got = tr.payloads(np.array([0, 99, 3], np.int64)).to_pylist()
    assert got[0] == "payload-0 é" and got[2] == "payload-3 é"
    assert got[1] is None


def test_fetch_preserves_schedule_rows_and_clock(tmp_path):
    """The fetcher annotates, never reorders/drops: row multiset and
    fetch_ms values pass through untouched."""
    from cdx_toolkit_ray.pipelines.fetch import TableTransport, fetch_execute

    docs = _docs_table(tmp_path, n=16)
    fm = np.arange(16, dtype=np.int64) * 550
    got = fetch_execute(_schedule(np.arange(16), fetch_ms=fm),
                        TableTransport(docs)).to_pandas()
    assert sorted(got["seed_order"]) == list(range(16))
    assert (got.sort_values("seed_order")["fetch_ms"].to_numpy()
            == fm).all()


# ---------------------------------------------------------------------------
# Politeness conformance under salting (SURVEY §4 hard part (c)):
# executing the schedule through the fetcher pool never violates the
# per-host minimum interval, and sub-queue budgets sum to the host
# budget.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    n_urls=st.integers(min_value=1, max_value=200),
    n_hosts=st.integers(min_value=1, max_value=8),
    num_salts=st.sampled_from([1, 2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_politeness_budget_preserved_under_salting(
        n_urls, n_hosts, num_salts, seed):
    """Property over the scheduling KERNEL (make_bucket_scheduler —
    the exact function schedule_politeness ships to every bucket; the
    exchange==serial-groupby identity has its own property test):
    per-host slots respect the interval, the union of sub-queue slots
    is exactly the host budget, and each sub-queue is spaced
    num_salts * delay. Random seed lists, priorities, per-host delays."""
    import pandas as pd

    from cdx_toolkit_ray.pipelines.frontier import make_bucket_scheduler

    rng = np.random.default_rng(seed)
    host_ids = rng.integers(0, n_hosts, n_urls)
    delays = np.array([550, 1000, 3000, 6000])[
        rng.integers(0, 4, n_hosts)]
    df = pd.DataFrame({
        "host": ["h%d.example" % h for h in host_ids],
        "priority": rng.integers(0, 4, n_urls).astype(np.int32),
        "seed_order": rng.permutation(n_urls).astype(np.int64),
        "crawl_delay_ms": delays[host_ids].astype(np.int64),
        "robots_blocked": np.zeros(n_urls, dtype=bool),
        "host_bucket": np.zeros(n_urls, dtype=np.int64),
    })
    sched = make_bucket_scheduler(num_salts)(
        pa.Table.from_pandas(df, preserve_index=False)).to_pandas()
    for host, g in sched.groupby("host"):
        delay_ms = int(g["crawl_delay_ms"].iloc[0])
        slots = np.sort(g["fetch_ms"].to_numpy())
        # host budget: consecutive fetches >= delay apart, zero-based
        assert slots[0] == 0
        if len(slots) > 1:
            assert (np.diff(slots) >= delay_ms).all()
        # sub-queue budgets sum to the host budget: the union of
        # sub-queue slots is exactly {0..n-1} * delay, and each
        # sub-queue is spaced num_salts * delay
        assert (slots == np.arange(len(slots)) * delay_ms).all()
        if num_salts > 1:
            for _, sq in g.groupby("subqueue"):
                sl = np.sort(sq["fetch_ms"].to_numpy())
                if len(sl) > 1:
                    assert (np.diff(sl) >= num_salts * delay_ms).all()


def test_fetch_through_pool_keeps_politeness(tmp_path):
    """End-to-end task-10 check: schedule -> fetcher pool; per-host
    virtual fetch times in the OUTPUT still respect the interval (the
    pool annotates rows, the clock belongs to the scheduler)."""
    from cdx_toolkit_ray.pipelines.fetch import TableTransport, fetch_execute
    from cdx_toolkit_ray.pipelines.frontier import schedule_politeness

    docs = _docs_table(tmp_path, n=40)
    rng = np.random.default_rng(7)
    host_ids = rng.integers(0, 3, 40)
    t = pa.table({
        "url": pa.array(["https://h%d.example/p/%d" % (h, i)
                         for i, h in enumerate(host_ids)]),
        "host": pa.array(["h%d.example" % h for h in host_ids]),
        "priority": pa.array(rng.integers(0, 4, 40).astype(np.int32)),
        "seed_order": pa.array(np.arange(40, dtype=np.int64)),
        "crawl_delay_ms": pa.array(np.full(40, 1000, np.int64)),
        "robots_blocked": pa.array(np.zeros(40, dtype=bool)),
    })
    sched = schedule_politeness(ray.data.from_arrow(t), num_salts=2)
    got = fetch_execute(sched, TableTransport(docs),
                        max_attempts=3).to_pandas()
    assert len(got) == 40
    for _, g in got.groupby("host"):
        slots = np.sort(g["fetch_ms"].to_numpy())
        if len(slots) > 1:
            assert (np.diff(slots) >= 1000).all()


def test_requeue_wave2_continues_host_budget(tmp_path):
    """Transient dead letters reschedule AFTER the host's wave-1 clock:
    slots = max(wave-1 fetch_ms of the host) + (rank+1)*delay, eligible
    rows ranked by (priority, seed_order); 'invalid' rows never
    requeue."""
    from cdx_toolkit_ray.pipelines.fetch import (TableTransport,
                                                 fetch_execute, requeue)
    from cdx_toolkit_ray.pipelines.frontier import schedule_politeness

    docs = _docs_table(tmp_path, n=64)
    ids = np.arange(64, dtype=np.int64)
    host_ids = ids % 4
    t = pa.table({
        "url": pa.array(["https://h%d.example/p/%d" % (h, i)
                         for i, h in zip(ids, host_ids)]),
        "host": pa.array(["h%d.example" % h for h in host_ids]),
        "priority": pa.array((ids % 3).astype(np.int32)),
        "seed_order": pa.array(ids),
        "crawl_delay_ms": pa.array(np.full(64, 1000, np.int64)),
        "robots_blocked": pa.array(np.zeros(64, dtype=bool)),
    })
    sched = schedule_politeness(ray.data.from_arrow(t))
    fetched = fetch_execute(sched, TableTransport(docs), max_attempts=3)
    wave1 = fetched.to_pandas()
    rq = requeue(fetched).to_pandas()

    assert (rq["retry_wave"] == 2).all()
    # only exhausted rows requeue
    exhausted = wave1[wave1["fetch_action"] == "exhausted"]
    assert set(rq["seed_order"]) == set(exhausted["seed_order"])
    assert not set(rq["seed_order"]) & set(
        wave1.loc[wave1["fetch_action"] == "invalid", "seed_order"])
    for host, g in rq.groupby("host"):
        base = wave1.loc[wave1["host"] == host, "fetch_ms"].max()
        slots = np.sort(g["fetch_ms"].to_numpy())
        # continues strictly after the wave-1 budget, interval kept
        assert slots[0] == base + 1000
        assert (slots == base + (np.arange(len(slots)) + 1) * 1000).all()
        # rank order is (priority, seed_order)
        order = g.sort_values("fetch_ms")[["priority", "seed_order"]] \
            .to_numpy().tolist()
        assert order == sorted(order)


def test_transport_filtered_path_matches_index_path(tmp_path):
    """Over the index budget the transport reads just the requested ids
    (predicate pushdown) — same payloads as the per-actor index,
    including unknown-id nulls."""
    from cdx_toolkit_ray.pipelines.fetch import TableTransport

    docs = _docs_table(tmp_path, n=32)
    ids = np.array([5, 31, 999, 0, 5], np.int64)
    indexed = TableTransport(docs).payloads(ids).to_pylist()
    filtered = TableTransport(docs, index_budget_bytes=0) \
        .payloads(ids).to_pylist()
    assert indexed == filtered
    assert filtered[2] is None and filtered[0] == "payload-5 é"


def test_table_transport_empty_table(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cdx_toolkit_ray.pipelines.fetch import TableTransport

    p = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}), p)
    tr = TableTransport(p)
    got = tr.payloads(np.array([1, 2, 3], np.int64))
    assert got.null_count == 3
