"""SCC + bow-tie (stages/scc.py — Broder 2000 / FB-min-label)."""

import pyarrow as pa
import pytest
import ray.data

from cdx_toolkit_ray.stages.scc import (bowtie, strongly_connected,
                                        with_intrahost_backlinks)


def _edges(pairs):
    return ray.data.from_arrow(pa.table({
        "src_url": pa.array([a for a, _ in pairs], pa.string()),
        "dst_url": pa.array([b for _, b in pairs], pa.string())}))


def test_scc_cycle_chain_and_selfcontained():
    # 3-cycle + feeder + drain + far 2-cycle
    ds = _edges([("c1", "c2"), ("c2", "c3"), ("c3", "c1"),
                 ("in1", "c1"), ("c2", "out1"),
                 ("x1", "x2"), ("x2", "x1")])
    for nb in (4, 1):
        scc = (strongly_connected(ds, num_buckets=nb)
               .to_pandas().set_index("url").scc)
        assert scc.loc["c1"] == scc.loc["c2"] == scc.loc["c3"] == "c1"
        assert scc.loc["x1"] == scc.loc["x2"] == "x1"
        assert scc.loc["in1"] == "in1" and scc.loc["out1"] == "out1"


def test_scc_nested_dag_of_cycles():
    # two 2-cycles joined by a one-way bridge stay separate SCCs
    ds = _edges([("a1", "a2"), ("a2", "a1"), ("a2", "b1"),
                 ("b1", "b2"), ("b2", "b1")])
    scc = (strongly_connected(ds, num_buckets=2)
           .to_pandas().set_index("url").scc)
    assert scc.loc["a1"] == scc.loc["a2"] == "a1"
    assert scc.loc["b1"] == scc.loc["b2"] == "b1"


def test_bowtie_components():
    ds = _edges([("c1", "c2"), ("c2", "c3"), ("c3", "c1"),
                 ("in1", "c1"), ("c2", "out1"),
                 ("in1", "t3"), ("d1", "d2")])
    bt = bowtie(ds, num_buckets=4).to_pandas().set_index("url")
    comp = bt.component
    one = bowtie(ds, num_buckets=1).to_pandas().set_index("url")
    assert one.sort_index().equals(bt.sort_index())
    assert (comp.loc[["c1", "c2", "c3"]] == "SCC").all()
    assert comp.loc["in1"] == "IN"
    assert comp.loc["out1"] == "OUT"
    assert comp.loc["t3"] == "TENDRIL"      # in-tendril (Broder)
    assert comp.loc["d1"] == comp.loc["d2"] == "DISC"
    # scc labels ride along
    assert bt.scc.loc["c2"] == "c1"


def test_bowtie_out_side_reachability_is_out_not_tendril():
    # t hangs off OUT but is still REACHED from the core -> OUT
    ds = _edges([("c1", "c2"), ("c2", "c1"), ("c2", "o1"),
                 ("o1", "t1")])
    comp = (bowtie(ds, num_buckets=2).to_pandas()
            .set_index("url").component)
    assert comp.loc["o1"] == "OUT" and comp.loc["t1"] == "OUT"


def test_with_intrahost_backlinks_rule():
    ds = _edges([("https://a.example/p1", "https://a.example/p2"),
                 ("https://a.example/p1", "https://b.example/q")])
    got = set(map(tuple, with_intrahost_backlinks(ds)
                  .to_pandas().values))
    assert got == {
        ("https://a.example/p1", "https://a.example/p2"),
        ("https://a.example/p2", "https://a.example/p1"),
        ("https://a.example/p1", "https://b.example/q")}


def test_scc_empty_and_bad_args():
    empty = _edges([])
    assert strongly_connected(empty, num_buckets=2).count() == 0
    with pytest.raises(RuntimeError):
        # unconvergeable: max_rounds=0 forces the loud failure path
        strongly_connected(_edges([("a", "b")]), num_buckets=1,
                           max_rounds=0)
