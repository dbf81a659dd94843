"""HttpTransport integration: the real-HTTP fetch path against a
loopback stdlib http.server (no external network), proving the
transport seam — fetch_execute + dead_letter produce IDENTICAL rows
through HttpTransport and TableTransport under the same fault
schedule (VERDICT r3, next-round item 5).

Reference behavior matched: myrequests.py:57-166 retry loop, DNS
fail-fast (10-21, 128-140), per-host politeness spacing (23-55).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from cdx_toolkit_ray.pipelines.fetch import (TableTransport,
                                             dead_letter, fetch_execute)
from cdx_toolkit_ray.pipelines.httpfetch import HttpTransport


@pytest.fixture()
def fault_server():
    """Shared loopback fault server (pipelines/httpfetch
    .FaultScheduleServer): serves the exact TableTransport fault
    schedule + per-id payload bodies, so the two transports must
    agree row for row; records request arrival times for the
    wall-clock spacing test."""
    from cdx_toolkit_ray.pipelines.httpfetch import FaultScheduleServer

    srv = FaultScheduleServer({i: "payload-%d" % i for i in range(16)})
    yield srv
    srv.close()


def _schedule(base: str, ids) -> ray.data.Dataset:
    return ray.data.from_arrow(pa.table({
        "seed_order": pa.array(ids, pa.int64()),
        "url": pa.array(["%s/p/%d" % (base, i) for i in ids],
                        pa.string()),
    }))


_OUT = ["seed_order", "n_attempts", "final_status", "fetch_action",
        "backoff_ms", "text"]


def test_http_matches_table_transport_end_to_end(fault_server,
                                                 tmp_path):
    """fetch -> dead-letter parity: HttpTransport over a live loopback
    server == TableTransport replaying the same fault schedule."""
    ids = list(range(16))            # covers every schedule branch

    # content table for the TableTransport twin: same payloads the
    # server sends
    pq.write_table(pa.table({
        "seed_order": pa.array(ids, pa.int64()),
        "text": pa.array(["payload-%d" % i for i in ids], pa.string()),
    }), str(tmp_path / "content.parquet"))

    http_tr = HttpTransport(min_interval=0.0, timeout=10.0)
    tbl_tr = TableTransport(str(tmp_path / "content.parquet"),
                            id_col="seed_order")

    # materialize once: the fetch ran exactly one schedule against the
    # live server; dead_letter then filters the pinned blocks instead
    # of re-fetching (a lazy re-execution would advance the server's
    # per-id attempt counters and change the schedule)
    fetched_http = fetch_execute(_schedule(fault_server.base_url, ids), http_tr,
                                 max_attempts=3, concurrency=1,
                                 batch_size=4).materialize()
    fetched_tbl = fetch_execute(_schedule(fault_server.base_url, ids), tbl_tr,
                                max_attempts=3, concurrency=1,
                                batch_size=4).materialize()
    got_http = (fetched_http.to_pandas()[_OUT]
                .sort_values("seed_order").reset_index(drop=True))
    got_tbl = (fetched_tbl.to_pandas()[_OUT]
               .sort_values("seed_order").reset_index(drop=True))
    pd.testing.assert_frame_equal(got_http, got_tbl)

    # both exercise ok / invalid / exhausted branches
    acts = set(got_http["fetch_action"])
    assert {"ok", "invalid", "exhausted"} <= acts

    # dead-letter channels agree too
    dl_http = (dead_letter(fetched_http).to_pandas()[_OUT]
               .sort_values("seed_order").reset_index(drop=True))
    dl_tbl = (dead_letter(fetched_tbl).to_pandas()[_OUT]
              .sort_values("seed_order").reset_index(drop=True))
    pd.testing.assert_frame_equal(dl_http, dl_tbl)
    assert (dl_http["fetch_action"] != "ok").all() and len(dl_http)


def test_http_per_host_wall_clock_spacing(fault_server):
    """Consecutive requests to one host are spaced >= min_interval in
    WALL CLOCK (myrequests.py:23-55) — measured server-side."""
    ids = [0, 5, 8, 13]              # first-attempt-ok ids (no retries)
    tr = HttpTransport(min_interval=0.05, timeout=10.0)
    out = fetch_execute(_schedule(fault_server.base_url, ids), tr,
                        max_attempts=3, concurrency=1,
                        batch_size=None).to_pandas()
    assert (out["fetch_action"] == "ok").all()
    stamps = sorted(t for _, t in fault_server.times)
    gaps = np.diff(np.array(stamps))
    assert len(gaps) == len(ids) - 1
    assert (gaps >= 0.04).all(), gaps     # 10 ms scheduler tolerance


def test_http_dns_fail_fast_vs_seen_host():
    """A DNS failure is fatal (invalid, 1 attempt) for a never-seen
    host; for a pre-seeded seen host the same failure retries like a
    connection error until the budget exhausts (myrequests.py:10-21,
    128-140)."""
    sched = ray.data.from_arrow(pa.table({
        "seed_order": pa.array([1], pa.int64()),
        "url": pa.array(["http://never-seen-host.invalid/p/1"],
                        pa.string()),
    }))
    cold = fetch_execute(sched, HttpTransport(min_interval=0.0,
                                              timeout=2.0),
                         max_attempts=3, concurrency=1,
                         batch_size=None).to_pandas()
    assert cold.loc[0, "fetch_action"] == "invalid"
    assert cold.loc[0, "n_attempts"] == 1        # no retry: fail-fast
    assert cold.loc[0, "backoff_ms"] == 0

    warm_tr = HttpTransport(min_interval=0.0, timeout=2.0,
                            seen_hosts=("never-seen-host.invalid",))
    warm = fetch_execute(sched, warm_tr, max_attempts=3,
                         concurrency=1, batch_size=None).to_pandas()
    assert warm.loc[0, "fetch_action"] == "exhausted"
    assert warm.loc[0, "n_attempts"] == 3        # retried to budget
    assert warm.loc[0, "backoff_ms"] > 0         # backoff was budgeted


def test_cassette_record_replay_roundtrip(fault_server, tmp_path):
    """Record a live loopback run serially (the reference's recording
    mode), then REPLAY it through the distributed fetch loop offline:
    identical rows, and a drifted schedule fails loudly."""
    from cdx_toolkit_ray.pipelines.cassette import (ReplayTransport,
                                                    record_cassette)

    ids = list(range(16))
    sched_tbl = pa.table({
        "seed_order": pa.array(ids, pa.int64()),
        "url": pa.array(["%s/p/%d" % (fault_server.base_url, i)
                         for i in ids],
                        pa.string()),
    })
    cassette = record_cassette(
        sched_tbl, HttpTransport(min_interval=0.0, timeout=10.0),
        str(tmp_path / "cassette.parquet"), max_attempts=3)

    # the live recording consumed the server's counters; replay is
    # offline, so run it twice to prove it is a pure function
    replays = []
    for _ in range(2):
        replays.append(
            fetch_execute(ray.data.from_arrow(sched_tbl),
                          ReplayTransport(cassette), max_attempts=3,
                          concurrency=2, batch_size=4)
            .to_pandas()[_OUT].sort_values("seed_order")
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(replays[0], replays[1])
    acts = set(replays[0]["fetch_action"])
    assert {"ok", "invalid", "exhausted"} <= acts
    ok = replays[0][replays[0].fetch_action == "ok"]
    assert (ok["text"] == ok["seed_order"].map(
        lambda d: "payload-%d" % d)).all()

    # replay == what the live run would have produced: the recorder
    # drew the fault schedule at server attempt counts 0..; a fresh
    # TableTransport replays the same pure function
    tbl_tr_expect = (fetch_execute(
        ray.data.from_arrow(sched_tbl),
        __import__("cdx_toolkit_ray.pipelines.fetch",
                   fromlist=["TableTransport"]).TableTransport(
            _write_payload_table(tmp_path, ids), id_col="seed_order"),
        max_attempts=3, concurrency=1, batch_size=4)
        .to_pandas()[_OUT].sort_values("seed_order")
        .reset_index(drop=True))
    pd.testing.assert_frame_equal(replays[0], tbl_tr_expect)

    # strict replay: unknown request -> loud error
    drifted = ray.data.from_arrow(pa.table({
        "seed_order": pa.array([999], pa.int64()),
        "url": pa.array(["%s/p/999" % fault_server.base_url],
                        pa.string())}))
    with pytest.raises(Exception, match="cassette has no recording"):
        fetch_execute(drifted, ReplayTransport(cassette),
                      max_attempts=3, concurrency=1,
                      batch_size=None).to_pandas()


def _write_payload_table(tmp_path, ids):
    import pyarrow.parquet as pq

    p = str(tmp_path / "content.parquet")
    pq.write_table(pa.table({
        "seed_order": pa.array(ids, pa.int64()),
        "text": pa.array(["payload-%d" % i for i in ids], pa.string()),
    }), p)
    return p


from http.server import BaseHTTPRequestHandler


class _SlowHandler(BaseHTTPRequestHandler):
    delay = 0.6

    def do_GET(self):
        import time as _t

        _t.sleep(self.delay)
        body = b"late"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *a):
        pass


def test_http_timeout_retries_like_connection_error():
    """A socket timeout maps to the synthetic retryable status
    (myrequests' ConnectionError branch): the request retries with
    backoff and exhausts, and the connection-error budget counts it;
    past error_after the transport raises."""
    import threading
    from http.server import ThreadingHTTPServer

    from cdx_toolkit_ray.retry import RetryPolicy

    srv = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    url = "http://127.0.0.1:%d/p/1" % srv.server_address[1]
    try:
        sched = ray.data.from_arrow(pa.table({
            "seed_order": pa.array([1], pa.int64()),
            "url": pa.array([url], pa.string())}))
        tr = HttpTransport(min_interval=0.0, timeout=0.15)
        out = fetch_execute(sched, tr, max_attempts=3, concurrency=1,
                            batch_size=None).to_pandas()
        assert out.loc[0, "fetch_action"] == "exhausted"
        assert out.loc[0, "final_status"] == 503   # synthetic retry
        assert out.loc[0, "n_attempts"] == 3
        assert out.loc[0, "backoff_ms"] > 0

        # budget: error_after raises loudly
        tight = HttpTransport(min_interval=0.0, timeout=0.15,
                              policy=RetryPolicy(warn_after=1,
                                                 error_after=2))
        tight.begin_batch(np.array([1], np.int64), [url])
        tight.statuses(np.array([1], np.int64), 0)
        tight.statuses(np.array([1], np.int64), 1)
        with pytest.raises(RuntimeError, match="connection errors"):
            tight.statuses(np.array([1], np.int64), 2)
    finally:
        srv.shutdown()
        srv.server_close()


def test_http_missing_url_column_raises():
    """needs_urls transport + schedule without the url column must be
    a loud schema error, not a silent all-invalid run."""
    sched = ray.data.from_arrow(pa.table({
        "seed_order": pa.array([1], pa.int64())}))
    with pytest.raises(Exception, match="needs urls"):
        fetch_execute(sched, HttpTransport(min_interval=0.0),
                      max_attempts=3, concurrency=1,
                      batch_size=None).to_pandas()


def test_ok_possible_agrees_with_classify():
    """The body cache keeps a status's body iff some executor flag set
    (cdx / allow404) classifies it 'ok': 2xx/3xx outside the retryable
    set, plus 404 for allow404 executors."""
    from cdx_toolkit_ray.retry import RETRYABLE_STATUSES

    tr = HttpTransport(min_interval=0.0)
    for status in range(100, 600):
        ok = "ok" in {tr.policy.classify(status, cdx=cdx, allow404=allow404)
                      for cdx in (False, True)
                      for allow404 in (False, True)}
        assert tr._ok_possible(status) == ok, status
        assert ok == (status == 404 or (200 <= status < 400 and
                                        status not in RETRYABLE_STATUSES))
