"""Exact heavy hitters (stages/sketch): MG candidates + exact verify."""

import collections

import numpy as np
import pytest
import ray.data

from cdx_toolkit_ray.stages.sketch import heavy_hitters

pytestmark = pytest.mark.usefixtures("ray_session")


def _skewed_keys(n=20000, seed=5):
    """Zipf-ish host stream: a few very hot keys + a long unique tail."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 8, n // 2)          # 8 keys share half the rows
    tail = rng.integers(1000, 1000 + n, n - n // 2)  # mostly-unique tail
    keys = np.concatenate([hot, tail])
    rng.shuffle(keys)
    return [f"host-{k}.example" for k in keys]


def _exact(keys, threshold):
    c = collections.Counter(keys)
    return {k: v for k, v in c.items() if v >= threshold}


@pytest.mark.parametrize("m", [4, 16, None])
def test_heavy_hitters_exact_under_pruning(m):
    """Small num_counters forces real per-block MG pruning; the
    containment guarantee (m >= n/threshold) still holds for m=None
    (auto) and the result must be EXACT regardless."""
    keys = _skewed_keys()
    threshold = len(keys) // 16  # hot keys qualify, tail never does
    want = _exact(keys, threshold)
    ds = ray.data.from_items([{"host": k} for k in keys],
                             override_num_blocks=16)
    got = heavy_hitters(ds, "host", threshold=threshold,
                        num_counters=m, count_col="n").to_pandas()
    assert dict(zip(got.host, got.n)) == want
    assert len(want) > 0  # the test actually exercises hits


def test_heavy_hitters_never_calls_limit(monkeypatch):
    """The candidate keys reach the driver through one materialized
    collect: no implicit ``limit(1)`` schema probe runs."""
    def boom(*a, **k):
        raise AssertionError("Dataset.limit called")

    keys = _skewed_keys(n=4000)
    ds = ray.data.from_items([{"host": k} for k in keys],
                             override_num_blocks=8)
    monkeypatch.setattr(ray.data.Dataset, "limit", boom)
    threshold = len(keys) // 16
    got = heavy_hitters(ds, "host", threshold=threshold).take_all()
    assert {r["host"]: r["n_rows"] for r in got} == \
        _exact(keys, threshold)


def test_heavy_hitters_phi_threshold():
    keys = _skewed_keys(n=4000)
    ds = ray.data.from_items([{"host": k} for k in keys],
                             override_num_blocks=8)
    got = heavy_hitters(ds, "host", phi=0.05).to_pandas()
    want = _exact(keys, int(np.ceil(0.05 * len(keys))))
    assert dict(zip(got.host, got.n_rows)) == want


def test_heavy_hitters_empty_result_keeps_schema():
    ds = ray.data.from_items([{"host": f"h{i}"} for i in range(100)],
                             override_num_blocks=4)
    got = heavy_hitters(ds, "host", threshold=50)
    # Dataset.to_pandas() drops columns when every block is empty (Ray
    # Data quirk), so assert on the Dataset schema — the engine truth.
    assert set(got.schema().names) == {"host", "n_rows"}
    assert got.count() == 0


def test_heavy_hitters_arg_validation():
    ds = ray.data.from_items([{"host": "a"}])
    with pytest.raises(ValueError):
        heavy_hitters(ds, "host")
    with pytest.raises(ValueError):
        heavy_hitters(ds, "host", threshold=1, phi=0.1)
    with pytest.raises(ValueError):
        heavy_hitters(ds, "host", phi=1.5)


def test_heavy_hitters_int_keys():
    ids = np.r_[np.zeros(500, np.int64), np.arange(1000)]
    ds = ray.data.from_items([{"uid": int(i)} for i in ids],
                             override_num_blocks=8)
    got = heavy_hitters(ds, "uid", threshold=100).to_pandas()
    assert dict(zip(got.uid, got.n_rows)) == {0: 501}


# --- count-min sketch -----------------------------------------------------

def _cm_corpus(n=30000, seed=9):
    rng = np.random.default_rng(seed)
    # heavy head + long tail
    keys = np.concatenate([rng.integers(0, 5, n // 2),
                           rng.integers(100, 100 + n, n - n // 2)])
    rng.shuffle(keys)
    return keys.astype(np.int64)


def test_count_min_never_underestimates():
    from cdx_toolkit_ray.stages.sketch import (count_min_build,
                                               count_min_estimate)

    keys = _cm_corpus()
    ds = ray.data.from_items([{"k": int(k)} for k in keys],
                             override_num_blocks=8)
    m = count_min_build(ds, "k", width=512, depth=4, seed=1)
    exact = collections.Counter(keys.tolist())
    qk = np.array(sorted(exact), dtype=np.int64)[:2000]
    est = count_min_estimate(m, qk, seed=1)
    truth = np.array([exact[int(k)] for k in qk])
    assert (est >= truth).all()          # one-sided error, always
    # total mass conserved per row
    assert (m.sum(axis=1) == len(keys)).all()
    # Markov bound: E[overestimate] <= n/width; allow 10x slack on the
    # MEAN (the bound is per-row expectation, depth takes the min)
    assert (est - truth).mean() <= 10 * len(keys) / 512


def test_count_min_heavy_keys_near_exact():
    """With width >> distinct tail mass per cell, the heavy head's
    estimates are exact or nearly so."""
    from cdx_toolkit_ray.stages.sketch import (count_min_build,
                                               count_min_estimate)

    keys = _cm_corpus(n=8000)
    ds = ray.data.from_items([{"k": int(k)} for k in keys],
                             override_num_blocks=4)
    m = count_min_build(ds, "k", width=1 << 14, depth=4, seed=0)
    exact = collections.Counter(keys.tolist())
    hot = np.arange(5, dtype=np.int64)
    est = count_min_estimate(m, hot, seed=0)
    truth = np.array([exact[int(k)] for k in hot])
    assert (est - truth <= 2).all()


def test_count_min_build_is_mergeable_and_deterministic():
    from cdx_toolkit_ray.stages.sketch import count_min_build

    keys = _cm_corpus(n=4000)
    rows = [{"k": int(k)} for k in keys]
    a = count_min_build(ray.data.from_items(rows, override_num_blocks=2),
                        "k", width=128, depth=3, seed=7)
    b = count_min_build(ray.data.from_items(rows[::-1],
                                            override_num_blocks=16),
                        "k", width=128, depth=3, seed=7)
    assert np.array_equal(a, b)   # order- and partitioning-free


def test_count_min_stage_appends_estimates():
    from cdx_toolkit_ray.stages.sketch import (count_min_build,
                                               count_min_stage)
    import ray as _ray

    rows = [{"k": 1}] * 50 + [{"k": 2}] * 3
    ds = ray.data.from_items(rows)
    m = count_min_build(ds, "k", width=64, depth=4, seed=0)
    out = ds.map_batches(count_min_stage(_ray.put(m), "k", seed=0),
                         batch_format="pyarrow").to_pandas()
    assert (out[out.k == 1].cm_est >= 50).all()
    assert (out[out.k == 2].cm_est >= 3).all()


# ---------------------------------------------------------------------------
# HyperLogLog distinct sketch
# ---------------------------------------------------------------------------

def _hll_corpus():
    """Three regimes: small-range (correction), mid, and raw-branch."""
    import pandas as pd

    rng = np.random.default_rng(3)
    rows = []
    for grp, nd, nrows in [("small", 40, 2000), ("mid", 600, 6000),
                           ("big", 5000, 20000)]:
        for i in rng.integers(0, nd, size=nrows):
            rows.append({"user_id": int(i) + hash(grp) % 10**6,
                         "event_type": grp})
    return pd.DataFrame(rows)


def test_hll_accuracy_all_regimes():
    from cdx_toolkit_ray.stages.sketch import hll_distinct

    df = _hll_corpus()
    exact = df.groupby("event_type")["user_id"].nunique()
    got = hll_distinct(ray.data.from_pandas(df).repartition(8),
                       "user_id", "event_type", p=8) \
        .to_pandas().set_index("event_type")
    # 1.04/sqrt(256) ~ 6.5% standard error; allow 4 sigma
    for grp in exact.index:
        err = abs(got.loc[grp, "hll_estimate"] - exact[grp]) / exact[grp]
        assert err < 0.26, (grp, got.loc[grp, "hll_estimate"], exact[grp])


def test_hll_partition_independent():
    from cdx_toolkit_ray.stages.sketch import hll_distinct

    df = _hll_corpus()
    a = hll_distinct(ray.data.from_pandas(df).repartition(2),
                     "user_id", "event_type", p=6).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    b = hll_distinct(ray.data.from_pandas(df).repartition(13),
                     "user_id", "event_type", p=6).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(a, b)


def test_hll_exact_when_all_registers_hit_vs_duckdb(fixture_dir):
    """Catalog-parity on real events-shaped data: Ray == the SQL
    oracle bit-for-bit (including the small-range ln branch)."""
    import duckdb
    import pandas as pd

    from cdx_toolkit_ray.queries import ORACLES
    from cdx_toolkit_ray.stages.sketch import hll_distinct

    rng = np.random.default_rng(11)
    events = pd.DataFrame({
        "user_id": rng.integers(0, 300, 4000),
        "event_type": rng.choice(["a", "b", "c"], 4000),
    })
    got = hll_distinct(ray.data.from_pandas(events),
                       "user_id", "event_type", p=8) \
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    con = duckdb.connect()
    con.register("events", events)
    want = con.execute(ORACLES["hll_distinct"]
                       + " ORDER BY event_type").df() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_hll_bit_length_kernel():
    from cdx_toolkit_ray.stages.sketch import _bit_length_u64

    xs = np.array([0, 1, 2, 3, 255, 256, 2**52 - 1, 2**52, 2**63,
                   2**64 - 1], dtype=np.uint64)
    got = _bit_length_u64(xs)
    want = np.array([int(x).bit_length() for x in xs], dtype=np.int64)
    assert (got == want).all()


def test_hll_registers_persist_and_merge(tmp_path):
    """Register tables written to Parquet, re-read, unioned, and
    estimated == the one-pass sketch bit-for-bit (the incremental
    crawl path)."""
    import pandas as pd

    from cdx_toolkit_ray.stages.sketch import (hll_distinct,
                                               hll_estimate,
                                               hll_registers)

    df = _hll_corpus()
    whole = hll_distinct(ray.data.from_pandas(df), "user_id",
                         "event_type", p=7).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)

    a, b = df.iloc[::2], df.iloc[1::2]
    pa_dir, pb_dir = str(tmp_path / "a"), str(tmp_path / "b")
    hll_registers(ray.data.from_pandas(a), "user_id", "event_type",
                  p=7).write_parquet(pa_dir)
    hll_registers(ray.data.from_pandas(b), "user_id", "event_type",
                  p=7).write_parquet(pb_dir)
    regs = ray.data.read_parquet(pa_dir).union(
        ray.data.read_parquet(pb_dir))
    merged = hll_estimate(regs, "event_type", p=7).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(merged, whole)
    # idempotent: merging a register table with itself changes nothing
    twice = hll_estimate(
        ray.data.read_parquet(pa_dir).union(
            ray.data.read_parquet(pa_dir),
            ray.data.read_parquet(pb_dir)),
        "event_type", p=7).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(twice, whole)


def test_kll_exact_when_uncompacted():
    import numpy as np

    from cdx_toolkit_ray.stages.sketch import KLLSketch

    rng = np.random.default_rng(3)
    vals = rng.integers(-1000, 1000, 5000).astype(np.int64)
    sk = KLLSketch(k=10_000)
    sk.add(vals)
    import math
    srt = np.sort(vals)
    for p in (1, 25, 50, 75, 99):
        idx = max(0, math.ceil(p / 100 * len(vals)) - 1)
        assert sk.quantiles([p])[0] == srt[idx]


def test_kll_rank_error_bounded():
    import numpy as np

    from cdx_toolkit_ray.stages.sketch import KLLSketch

    rng = np.random.default_rng(4)
    vals = rng.integers(0, 1_000_000, 50_000).astype(np.int64)
    sk = KLLSketch(k=200)
    for chunk in np.array_split(vals, 37):
        sk.add(chunk)
    assert sk.n_stored() < 3_000  # bounded memory
    srt = np.sort(vals)
    for p in (25, 50, 75, 90):
        got = sk.quantiles([p])[0]
        rank = np.searchsorted(srt, got)
        assert abs(rank - p / 100 * len(vals)) < 0.03 * len(vals)


def test_kll_merge_equals_row_rebuild():
    import numpy as np

    from cdx_toolkit_ray.stages.sketch import KLLSketch

    rng = np.random.default_rng(5)
    a, b = (rng.integers(0, 10**6, 20_000).astype(np.int64),
            rng.integers(0, 10**6, 20_000).astype(np.int64))
    sa, sb = KLLSketch(k=128), KLLSketch(k=128)
    sa.add(a)
    sb.add(b)
    merged = sa.merge(sb)
    # the driver-side path: stack both sketches' rows, rebuild
    la, va = sa.rows()
    lb, vb = sb.rows()
    rebuilt = KLLSketch.from_rows(np.concatenate([la, lb]),
                                  np.concatenate([va, vb]), 128)
    assert merged.quantiles([25, 50, 75]) == \
        rebuilt.quantiles([25, 50, 75])


def test_kll_guards():
    import numpy as np
    import pytest

    from cdx_toolkit_ray.stages.sketch import KLLSketch

    with pytest.raises(ValueError):
        KLLSketch(k=1)
    with pytest.raises(ValueError):
        KLLSketch(k=8).quantiles([50])
