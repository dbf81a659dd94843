#!/usr/bin/env python
"""Memory-pressure evidence: run pipelines against an object store
several times SMALLER than their working set and show they spill (or
backpressure) and COMPLETE with correct results — the 100x-scale
failure mode the timed bench never exercises (VERDICT r3, next-round
item 7).

Two subjects:

* ``frontier``  — the north_rule flagship (bench.run_frontier) over a
  GRAFT_REPLICATE-inflated seeds table. Its host round
  (``hash_bucket_apply``) materializes the raw seeds and canonicalizes
  them in its split tasks, then ships every canonicalized copy to its
  merges, so the evidence here is spill: the store is oversubscribed
  by the round's input and shuffle, and the run completes.
* ``text``      — a text-heavy dedup: the sf documents table
  replicated in-memory N times (shifted doc_ids, identical text),
  MATERIALIZED (the pressure generator — pins the whole inflated
  corpus in a store sized well below it, forcing plasma spill), then
  ``exact_dedup`` on the text (min doc_id wins; only (key hash, id)
  pairs shuffle, never the text). Correctness gate: survivors ==
  distinct texts of ONE copy.

Usage:
    python tools/memory_pressure.py frontier|text \
        [--store-mb 256] [--cpus 8] [--replicate N]

Prints one JSON line:
    {"pipeline": ..., "replicate": N, "store_mb": M, "wall_sec": ...,
     "rows_out": ..., "peak_spill_mb": ..., "driver_peak_rss_mb": ...,
     "ok": true}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

os.environ.setdefault("POLARS_MAX_THREADS", "1")
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "-1")

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _spill_dirs() -> list[str]:
    import glob

    import ray

    sess = getattr(getattr(ray._private.worker.global_worker, "node",
                           None), "get_session_dir_path", lambda: None)()
    roots = [sess] if sess else glob.glob("/tmp/ray/session_*")
    out = []
    for r in roots:
        out.extend(glob.glob(os.path.join(r, "ray_spilled_objects*")))
    return out


def _spill_bytes() -> int:
    total = 0
    for d in _spill_dirs():
        for root, _, files in os.walk(d):
            for f in files:
                try:
                    total += os.path.getsize(os.path.join(root, f))
                except OSError:
                    pass
    return total


class SpillSampler:
    """Background sampler for PEAK on-disk spill bytes (plasma deletes
    spill files as refs release, so an end-of-run snapshot undercounts;
    grpc — and with it ray.internal memory_summary — is not in this
    container)."""

    def __init__(self, interval: float = 0.25):
        import threading

        self.peak = 0
        self._stop = threading.Event()

        def loop():
            while not self._stop.is_set():
                self.peak = max(self.peak, _spill_bytes())
                self._stop.wait(interval)

        self._t = threading.Thread(target=loop, daemon=True)

    def __enter__(self):
        self._t.start()
        return self

    def __exit__(self, *a):
        self.peak = max(self.peak, _spill_bytes())
        self._stop.set()
        self._t.join(timeout=2)


def run_frontier(replicate: int, cpus: int) -> dict:
    os.environ["GRAFT_REPLICATE"] = str(replicate)
    import bench

    bench.REPLICATE = replicate
    t0 = time.monotonic()
    rows = bench.run_frontier(SF_DIR, cpus)
    wall = time.monotonic() - t0
    return {"rows_out": int(rows), "wall_sec": round(wall, 2),
            "ok": rows > 0}


def run_text(replicate: int, cpus: int) -> dict:
    import duckdb
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.dedup import exact_dedup

    path = os.path.join(SF_DIR, "documents.parquet")
    n_one = duckdb.sql(
        "SELECT count(*), count(DISTINCT text) "
        "FROM read_parquet('%s')" % path).fetchone()
    n_rows, n_distinct = int(n_one[0]), int(n_one[1])

    def inflate(batch: pa.Table) -> pa.Table:
        out = []
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        for r in range(replicate):
            out.append(pa.table({
                "doc_id": pa.array(ids + r * 10_000_000),
                "text": batch["text"]}))
        return pa.concat_tables(out)

    t0 = time.monotonic()
    ds = (ray.data.read_parquet(path, columns=["doc_id", "text"])
          .map_batches(inflate, batch_format="pyarrow",
                       batch_size=512))
    # THE PRESSURE: pin the whole inflated corpus (>> object store)
    ds = ds.materialize()
    total = ds.count()
    # dedup must read the pinned-and-spilled blocks back
    survivors = exact_dedup(ds, "text", "doc_id").count()
    wall = time.monotonic() - t0
    return {"rows_out": int(survivors), "wall_sec": round(wall, 2),
            "input_rows": int(total),
            "ok": (survivors == n_distinct
                   and total == n_rows * replicate)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("pipeline", choices=["frontier", "text"])
    ap.add_argument("--store-mb", type=int, default=256)
    ap.add_argument("--cpus", type=int, default=8)
    ap.add_argument("--replicate", type=int, default=None)
    args = ap.parse_args()
    replicate = args.replicate or \
        {"frontier": 16, "text": 256}[args.pipeline]

    import ray

    ray.init(address="local", num_cpus=args.cpus,
             include_dashboard=False, logging_level="ERROR",
             object_store_memory=args.store_mb << 20)
    try:
        with SpillSampler() as sampler:
            out = (run_frontier if args.pipeline == "frontier"
                   else run_text)(replicate, args.cpus)
        out.update({
            "pipeline": args.pipeline, "replicate": replicate,
            "store_mb": args.store_mb, "num_cpus": args.cpus,
            "peak_spill_mb": round(sampler.peak / (1 << 20), 1),
            "driver_peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, 1),
        })
        print(json.dumps(out))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
