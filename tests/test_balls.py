"""Neighborhood function / harmonic centrality / HyperBall
(stages/balls.py — Boldi & Vigna's ball-size family)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from cdx_toolkit_ray.stages.balls import (_hll_estimate,
                                          _hll_init_registers,
                                          hyperball,
                                          neighborhood_function)


def _edges(pairs):
    return ray.data.from_arrow(pa.table({
        "src_url": pa.array([a for a, _ in pairs], pa.string()),
        "dst_url": pa.array([b for _, b in pairs], pa.string())}))


def test_neighborhood_exact_chain_and_cycle():
    # chain a->b->c->d plus back-edge e->a: hand-computed balls
    ds = _edges([("a", "b"), ("b", "c"), ("c", "d"), ("e", "a")])
    want = {"a": (4, 11), "b": (3, 9), "c": (2, 6), "d": (1, 0),
            "e": (4, 11)}
    for nb in (4, 1):
        df = (neighborhood_function(ds, radius=3, num_buckets=nb)
              .to_pandas().set_index("url"))
        got = {u: (int(r.ball), int(r.h_num)) for u, r in df.iterrows()}
        assert got == want


def test_neighborhood_radius_zero_and_dup_edges():
    ds = _edges([("a", "b"), ("a", "b"), ("b", "a")])
    df = (neighborhood_function(ds, radius=0, num_buckets=2)
          .to_pandas())
    assert set(df.ball) == {1} and set(df.h_num) == {0}
    # duplicate edges dedup; 2-cycle saturates at ball=2
    df = (neighborhood_function(ds, radius=5, num_buckets=2)
          .to_pandas().set_index("url"))
    assert int(df.loc["a"].ball) == 2
    # lcm(1..5)=60: only dist-1 contributes -> 60
    assert int(df.loc["a"].h_num) == 60


def test_hll_registers_merge_and_estimate():
    urls = pa.array(["u%d" % i for i in range(2000)], pa.string())
    regs = _hll_init_registers(urls, 9)
    assert regs.shape == (2000, 512)
    # singleton counters estimate exactly 1 (linear counting regime)
    assert (_hll_estimate(regs) == 1).all()
    merged = regs.max(axis=0)[None, :]
    est = int(_hll_estimate(merged)[0])
    assert abs(est - 2000) / 2000 < 0.15  # ~1/sqrt(512) noise


def test_hyperball_tracks_exact_twin():
    # star-of-chains graph: hub -> s0..s19 -> t0..t19
    pairs = [("hub", "s%d" % i) for i in range(20)]
    pairs += [("s%d" % i, "t%d" % i) for i in range(20)]
    ds = _edges(pairs)
    exact = (neighborhood_function(ds, radius=2, num_buckets=4)
             .to_pandas().set_index("url").ball)
    est = (hyperball(ds, radius=2, p=9, num_buckets=4)
           .to_pandas().set_index("url").ball_est)
    assert int(exact.loc["hub"]) == 41
    # small counts sit in HLL's exact linear-counting regime
    for u in exact.index:
        assert abs(int(est.loc[u]) - int(exact.loc[u])) \
            <= max(1, int(0.1 * exact.loc[u]))


def test_hyperball_deterministic():
    ds = _edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
    one = (hyperball(ds, radius=3, p=9, num_buckets=2)
           .to_pandas().sort_values("url").reset_index(drop=True))
    two = (hyperball(ds, radius=3, p=9, num_buckets=4)
           .to_pandas().sort_values("url").reset_index(drop=True))
    assert one.equals(two)


def test_balls_validation():
    ds = _edges([("a", "b")])
    with pytest.raises(ValueError):
        neighborhood_function(ds, radius=-1)
    with pytest.raises(ValueError):
        hyperball(ds, p=2)


def test_distance_distribution_exact():
    from cdx_toolkit_ray.stages.balls import distance_distribution

    ds = _edges([("a", "b"), ("b", "c"), ("c", "d"), ("e", "a")])
    for nb in (4, 1):
        df = (distance_distribution(ds, radius=3, num_buckets=nb)
              .to_pandas().set_index("d").n_pairs)
        # d=0: 5 nodes; d=1: 4 edges; d=2: a->c, e->b, b->d;
        # d=3: a->d, e->c
        assert dict(df) == {0: 5, 1: 4, 2: 3, 3: 2}


def test_graph_report_permille_values():
    from cdx_toolkit_ray.stages.balls import graph_report

    # chain a->b->c->d + e->a: dd = {0:5, 1:4, 2:3, 3:2}, T=14
    ds = _edges([("a", "b"), ("b", "c"), ("c", "d"), ("e", "a")])
    got = dict(graph_report(ds, radius=3, num_buckets=4)
               .to_pandas().values)
    # mean = (0*5+1*4+2*3+3*2)/14 = 16/14 -> 1142 permille
    assert got["mean_distance"] == 1000 * 16 // 14
    # eff d90: 0.9*14 = 12.6; cum: 5,9,12,14 -> d=3 row;
    # interp = 2 + (12.6-12)/2 = 2.3 -> 2300
    assert got["eff_diameter_90"] == 2300
    # spid = (T*S2 - S1^2)/(T*S1); S2 = 4+12+18 = 34
    assert got["spid"] == 1000 * (14 * 34 - 16 * 16) // (14 * 16)


def test_greedy_seed_cover_hand_truth():
    from cdx_toolkit_ray.stages.balls import greedy_seed_cover

    # balls r2: a:{a,b,c} b:{b,c,d} c:{c,d} d:{d} e:{e,a,b}
    ds = _edges([("a", "b"), ("b", "c"), ("c", "d"), ("e", "a")])
    # round 1: tie a/b/e at 3 -> min url 'a'; round 2: b adds {d};
    # round 3: e adds {e}
    for nb in (4, 1):
        got = (greedy_seed_cover(ds, k=3, radius=2, num_buckets=nb)
               .to_pandas().values.tolist())
        assert got == [[1, "a", 3], [2, "b", 1], [3, "e", 1]]
    # early stop: k larger than needed ends when gain hits 0
    full = (greedy_seed_cover(ds, k=10, radius=2, num_buckets=2)
            .to_pandas())
    assert len(full) == 3 and int(full.gain.sum()) == 5
