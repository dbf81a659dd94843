"""The graph family on the one exchange superstep primitive
(stages/exchange.py): typed empty results on an empty link set, and
results that do not depend on the number of hash buckets."""

import pyarrow as pa
import pytest
import ray.data

from cdx_toolkit_ray.stages.balls import (distance_distribution,
                                          greedy_seed_cover, hyperball,
                                          neighborhood_function)
from cdx_toolkit_ray.stages.links import (crawl_bfs, hits, kcore_peel,
                                          link_rank, opic, trust_rank)
from cdx_toolkit_ray.stages.scc import bowtie, strongly_connected

pytestmark = pytest.mark.usefixtures("ray_session")

#: every ported algorithm with its documented output columns
ALGOS = {
    "link_rank": (link_rank, ["url", "rank"]),
    "hits": (hits, ["url", "authority", "hub"]),
    "trust_rank": (trust_rank, ["url", "trust"]),
    "opic": (opic, ["url", "cash", "hist", "importance"]),
    "kcore_peel": (kcore_peel, ["url", "in_core"]),
    "strongly_connected": (strongly_connected, ["url", "scc"]),
    "bowtie": (bowtie, ["url", "scc", "component"]),
    "neighborhood_function": (neighborhood_function,
                              ["url", "ball", "h_num"]),
    "hyperball": (hyperball, ["url", "ball_est"]),
    "distance_distribution": (distance_distribution, ["d", "n_pairs"]),
    "greedy_seed_cover": (greedy_seed_cover, ["rank", "seed", "gain"]),
}

# a cycle a->b->c->a, a self-loop b->b, a parallel edge a->b, a
# dangling node d, a source-only node r/ (also the one root-page
# TrustRank seed) and a separate 2-cycle x<->y feeding d
EDGES = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"),
         ("b", "b"), ("c", "d"), ("r/", "s"), ("x", "y"), ("y", "x"),
         ("x", "d")]


def _links(pairs):
    return ray.data.from_arrow(pa.table({
        "src_url": pa.array([a for a, _ in pairs], pa.string()),
        "dst_url": pa.array([b for _, b in pairs], pa.string())}))


def _rows(ds):
    df = ds.to_pandas()
    return sorted(map(tuple, df[sorted(df.columns)].astype(str).values))


@pytest.mark.parametrize("nb", [1, 2])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_empty_link_set_gives_typed_empty_result(name, nb):
    fn, cols = ALGOS[name]
    ds = fn(_links([]), num_buckets=nb)
    assert ds.count() == 0
    assert ds.schema().names == cols


@pytest.mark.parametrize("name", sorted(ALGOS) + ["crawl_bfs_disk"])
def test_results_independent_of_num_buckets(name, tmp_path):
    def run(nb):
        if name == "crawl_bfs_disk":
            seeds = ray.data.from_arrow(pa.table({"url": ["r/", "x"]}))
            return crawl_bfs(_links(EDGES), seeds, max_hops=4,
                             num_buckets=nb, exact=True,
                             edges_path=str(tmp_path / ("e%d" % nb)))
        return ALGOS[name][0](_links(EDGES), num_buckets=nb)

    one = _rows(run(1))
    assert one, "the test graph must give rows"
    assert _rows(run(3)) == one
    assert _rows(run(8)) == one
