"""Neighborhood function, harmonic centrality and HyperBall.

Boldi & Vigna, "HyperANF / HyperBall: in-core centrality at bounded
memory" (WebConf/WWW-era line of work on the neighborhood function
N(v, t) = |{u : dist(v, u) <= t}|): per-node ball sizes drive
harmonic centrality, effective-diameter estimation and crawl
prioritization over web graphs far too large for per-node visited
sets. Two modes share one dataflow here:

* **exact** (``neighborhood_function``): the verification twin — the
  (root, node, dist) pair stream is materialized bucket-by-bucket.
  Exact and SQL-oracle-checkable, but the stream is O(n x ball):
  small-scale / truth-table use only (the ann_ivf_full convention).
* **HyperBall** (``hyperball``): the scale path — each node carries a
  fixed ``2^p``-register HLL counter of its ball; one round max-merges
  each node's counter into its IN-neighbors' counters (counters move,
  never node sets), so per-round traffic is ``edges x 2^p`` bytes and
  per-node memory is constant. Registers are deterministic (fixed
  FNV-derived node hashes), so results are reproducible run to run.

Reference anchor: the reference has no graph ops at all (it is an
HTTP CDX client, cdx_toolkit/__init__.py); this family exists for the
crawl-frontier north star — ball growth and harmonic centrality are
standard crawl-ordering / seed-quality signals.

Dataflow (the kcore_peel/link_rank shape, on the ``stages/exchange.py``
primitive): ``partition`` hash-buckets the edges ONCE and caches them
in the object store; every round is a ``scatter`` / ``gather`` pair
that moves only the narrow frontier (exact) or the register rows
(HyperBall).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..canon import hash64_batch
from .dedup import _PHI, _mix64
from .exchange import (concat, distinct, gather, partition, rehash, scatter,
                       split_by_code, split_by_hash, superstep, vertices)


def _pair_codes(pairs: pa.Table, nb: int) -> np.ndarray:
    """Pair-hash bucket codes of (root, node) rows."""
    h = _mix64(hash64_batch(pairs["root"]) * _PHI
               ^ hash64_batch(pairs["node"]))
    return (h % np.uint64(nb)).astype(np.int64)


def _ranges_to_indices(starts: np.ndarray, counts: np.ndarray
                       ) -> np.ndarray:
    """Concatenate [s, s+c) ranges without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(starts, counts))


_EMPTY_PAIRS = pa.table({"root": pa.array([], pa.string()),
                         "node": pa.array([], pa.string())})
_EMPTY_VIS = pa.table({"root": pa.array([], pa.string()),
                       "node": pa.array([], pa.string()),
                       "dist": pa.array([], pa.int64())})


def _edge_buckets(links: ray.data.Dataset, nb: int, src_col: str,
                  dst_col: str, key: str = "src") -> list:
    """Distinct (src, dst) edges cached per ``hash64(key)`` bucket,
    sorted by key."""
    other = "dst" if key == "src" else "src"
    return partition(links, nb, key, (("src", src_col), ("dst", dst_col)),
                     partial(distinct, (key, other)))


def _nf_self_pairs(nb: int, nodes: pa.Table) -> list:
    """One node-bucket's (v, v) pairs, routed by pair hash."""
    pairs = pa.table({"root": nodes["url"], "node": nodes["url"]})
    return split_by_code(pairs, _pair_codes(pairs, nb), nb)


def _nf_expand(nb: int, edges: pa.Table, front_parts: list):
    """Expand one node-bucket's frontier along its cached out-edges
    (sorted by src); candidate (root, dst) pairs route by pair hash."""
    f = concat(front_parts)
    roots = f["root"].combine_chunks().to_numpy(zero_copy_only=False)
    nodes = f["node"].combine_chunks().to_numpy(zero_copy_only=False)
    src = edges["src"].combine_chunks().to_numpy(zero_copy_only=False)
    lo = np.searchsorted(src, nodes, side="left")
    hi = np.searchsorted(src, nodes, side="right")
    counts = (hi - lo).astype(np.int64)
    idx = _ranges_to_indices(lo.astype(np.int64), counts)
    cand = pa.table({
        "root": pa.array(np.repeat(roots, counts), pa.string()),
        "node": edges["dst"].combine_chunks().take(pa.array(idx))})
    return split_by_code(cand, _pair_codes(cand, nb), nb)


def _nf_visit(d: int, nb: int, vis: pa.Table, cands: list):
    """One pair-bucket: distinct new candidates not yet visited join
    the visited set at dist=d; new pairs are re-routed by NODE hash
    (the next round's expansion key)."""
    c = concat(cands)
    if not c.num_rows:
        return (vis, *[_EMPTY_PAIRS] * nb)
    cr = c["root"].combine_chunks().to_numpy(zero_copy_only=False)
    cn = c["node"].combine_chunks().to_numpy(zero_copy_only=False)
    ckey = np.char.add(np.char.add(cr.astype(str), "\x00"),
                       cn.astype(str))
    order = np.argsort(ckey, kind="stable")
    ckey, cr, cn = ckey[order], cr[order], cn[order]
    first = np.ones(len(ckey), bool)
    first[1:] = ckey[1:] != ckey[:-1]
    ckey, cr, cn = ckey[first], cr[first], cn[first]
    if vis.num_rows:
        vr = vis["root"].combine_chunks().to_numpy(zero_copy_only=False)
        vn = vis["node"].combine_chunks().to_numpy(zero_copy_only=False)
        vkey = np.sort(np.char.add(np.char.add(vr.astype(str), "\x00"),
                                   vn.astype(str)))
        pos = np.searchsorted(vkey, ckey)
        pos_c = np.minimum(pos, len(vkey) - 1)
        seen = vkey[pos_c] == ckey
        cr, cn = cr[~seen], cn[~seen]
    new = pa.table({"root": pa.array(cr, pa.string()),
                    "node": pa.array(cn, pa.string())})
    vis_out = concat([vis, new.append_column(
        "dist", pa.array(np.full(len(cr), d, np.int64), pa.int64()))])
    return (vis_out, *split_by_hash(new, "node", nb))


def _node_table(url: pa.Array, outdeg: np.ndarray) -> pa.Table:
    return pa.table({"url": url})


def _ball_pairs(links: ray.data.Dataset, nb: int, radius: int,
                src_col: str, dst_col: str) -> list:
    """The exact BFS pair stream: per pair bucket, the visited
    ``(root, node, dist)`` rows with ``dist <= radius``.

    Edges are cached per src bucket ONCE; the frontier lives in node
    buckets and the visited set in pair buckets, so a hop is one
    expand scatter (frontier x out-edges -> candidates by pair hash)
    and one visit gather (dedup vs visited, emitting the new frontier
    by node hash as extra returns)."""
    edges_b = _edge_buckets(links, nb, src_col, dst_col)
    cands = scatter(_nf_self_pairs, vertices(edges_b, _node_table))
    vis_b = [_EMPTY_VIS] * nb
    for d in range(radius + 1):
        outs = gather(partial(_nf_visit, d, nb), vis_b, inbox=cands,
                      returns=1 + nb)
        vis_b = [o[0] for o in outs]
        if d < radius:
            front = [[o[1 + b] for o in outs] for b in range(nb)]
            cands = scatter(_nf_expand, edges_b, inbox=front)
    return vis_b


def _nf_partial(lcm: int, nb: int, vis: pa.Table) -> list:
    """One pair-bucket's visited rows -> per-root partial (count,
    harmonic numerator), routed by root for the final fold."""
    r = vis["root"].combine_chunks().to_numpy(zero_copy_only=False)
    dist = vis["dist"].to_numpy(zero_copy_only=False)
    order = np.argsort(r, kind="stable")
    r, dist = r[order], dist[order]
    new = np.ones(len(r), bool)
    new[1:] = r[1:] != r[:-1]
    st = np.flatnonzero(new)
    cnt = np.diff(np.r_[st, len(r)]).astype(np.int64)
    contrib = np.where(dist > 0, lcm // np.maximum(dist, 1), 0)
    hsum = np.add.reduceat(contrib, st).astype(np.int64)
    t = pa.table({"url": pa.array(r[st], pa.string()),
                  "ball": pa.array(cnt, pa.int64()),
                  "h_num": pa.array(hsum, pa.int64())})
    return split_by_hash(t, "url", nb)


def _sum_by(key: str, parts: list) -> pa.Table:
    """Fold partial rows: sum every other column per ``key``."""
    import polars as pl

    t = concat(parts)
    vals = [c for c in t.column_names if c != key]
    return (pl.from_arrow(t).group_by(key)
            .agg([pl.col(c).sum() for c in vals])
            .to_arrow().cast(t.schema))


def neighborhood_function(links: ray.data.Dataset, *, radius: int = 3,
                          lcm: int | None = None,
                          num_buckets: int = 16,
                          src_col: str = "src_url",
                          dst_col: str = "dst_url"
                          ) -> ray.data.Dataset:
    """EXACT per-node neighborhood function + harmonic centrality at
    bounded radius over the directed link graph: for every node v,
    ``ball`` = |{u : dist(v,u) <= radius}| (v included) and ``h_num``
    = sum over reachable u != v of ``lcm // dist(v,u)`` — harmonic
    centrality as an exact integer (``lcm`` defaults to lcm(1..radius)
    so every 1/d term is integral; Boldi & Vigna's axioms pick the
    harmonic form over closeness for disconnected web graphs).

    This is the small-scale verification twin of :func:`hyperball`
    (the ann_ivf_full convention): the (root, node, dist) pair stream
    it materializes is O(n x ball) and would not fit a 10^10-node
    graph — the register-passing HyperBall is the scale path.

    Dataflow: edges bucket-cached by src ONCE; each hop moves only the
    frontier pair stream twice (expand by node key, dedup by pair
    key) — see ``_ball_pairs``; one root-keyed scatter/gather folds
    the per-root counts. Returns ``(url, ball, h_num)``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if lcm is None:
        lcm = int(np.lcm.reduce(np.arange(1, radius + 1))) \
            if radius else 1
    nb = num_buckets
    vis_b = _ball_pairs(links, nb, radius, src_col, dst_col)
    return ray.data.from_arrow_refs(gather(
        partial(_sum_by, "url"),
        inbox=scatter(partial(_nf_partial, lcm), vis_b)))


# --------------------------------------------------------------------------
# HyperBall — register passing (the scale path)
# --------------------------------------------------------------------------

def _hll_init_registers(urls: pa.Array, p: int) -> np.ndarray:
    """Each node's counter starts as HLL({node}): one register set."""
    m = 1 << p
    # splitmix64 finalizer: raw FNV's high bits don't avalanche on
    # short/similar urls (the measured FNV-prefix bias the sampling
    # stages also correct) and HLL keys off the TOP p bits
    h = _mix64(hash64_batch(urls))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    # rho = leading zeros of the remaining bits + 1 (capped by width)
    lz = np.zeros(len(h), np.uint8)
    cur = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        cur[mask] = cur[mask] << np.uint64(shift)
    rho = (lz + 1).astype(np.uint8)
    regs = np.zeros((len(h), m), np.uint8)
    regs[np.arange(len(h)), idx] = rho
    return regs


def _hll_estimate(regs: np.ndarray) -> np.ndarray:
    """Standard HLL estimator with linear-counting small-range
    correction; deterministic, returned as floor int64."""
    n, m = regs.shape
    if n == 0:
        return np.zeros(0, np.int64)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m))
    inv = np.power(2.0, -regs.astype(np.float64)).sum(axis=1)
    est = alpha * m * m / inv
    zeros = (regs == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)
    with np.errstate(divide="ignore"):
        lin = m * np.log(m / np.maximum(zeros, 1))
    est = np.where(small, lin, est)
    return np.floor(est).astype(np.int64)


def _regs(t: pa.Table) -> np.ndarray:
    """A table's ``regs`` column (fixed-size binary, one 2^p-byte
    counter per row) as an (n, 2^p) uint8 matrix."""
    a = t["regs"].combine_chunks()
    m = a.type.byte_width
    if len(a) == 0:
        return np.zeros((0, m), np.uint8)
    return np.frombuffer(a.buffers()[1], np.uint8, count=len(a) * m,
                         offset=a.offset * m).reshape(len(a), m)


def _with_regs(urls, regs: np.ndarray) -> pa.Table:
    m = regs.shape[1]
    return pa.table({"url": urls, "regs": pa.FixedSizeBinaryArray
                     .from_buffers(pa.binary(m), len(regs),
                                   [None, pa.py_buffer(
                                       np.ascontiguousarray(regs))])})


def _hb_init(p: int, url: pa.Array, outdeg: np.ndarray) -> pa.Table:
    return _with_regs(url, _hll_init_registers(url, p))


def _hb_scatter(nb: int, edges: pa.Table, state: pa.Table) -> list:
    """Counters flow dst -> src (v's ball absorbs its out-neighbors'
    balls), so edges are cached keyed by DST (the sender side): this
    task looks up the LOCAL dst-nodes' registers per edge, max-merges
    them per src receiver in-task (the combiner), and routes one row
    per receiver to the receiver's bucket."""
    urls = state["url"].to_numpy(zero_copy_only=False)
    regs = _regs(state)
    e_dst = edges["dst"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.minimum(np.searchsorted(urls, e_dst), max(len(urls) - 1, 0))
    ok = (urls[idx] == e_dst) if len(urls) else np.zeros(len(e_dst), bool)
    sn = edges["src"].combine_chunks().filter(pa.array(ok)) \
        .to_numpy(zero_copy_only=False)
    payload = regs[idx[ok]]
    # pre-merge per receiver within the task (combiner): one row per src
    order = np.argsort(sn, kind="stable")
    sn, payload = sn[order], payload[order]
    first = np.ones(len(sn), bool)
    first[1:] = sn[1:] != sn[:-1]
    st = np.flatnonzero(first)
    merged = (np.maximum.reduceat(payload, st, axis=0) if len(st)
              else payload)
    msg = _with_regs(pa.array(sn[st], pa.string()), merged)
    return split_by_hash(msg, "url", nb)


def _hb_gather(state: pa.Table, msgs: list) -> pa.Table:
    """Max-merge incoming register rows into this bucket's state."""
    m = concat(msgs)
    out = _regs(state).copy()
    if m.num_rows:
        urls = state["url"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(urls, m["url"].to_numpy(zero_copy_only=False))
        np.maximum.at(out, idx, _regs(m))
    return _with_regs(state["url"], out)


def _hb_final(state: pa.Table) -> pa.Table:
    return pa.table({
        "url": state["url"],
        "ball_est": pa.array(_hll_estimate(_regs(state)), pa.int64())})


def hyperball(links: ray.data.Dataset, *, radius: int = 3, p: int = 9,
              num_buckets: int = 16, src_col: str = "src_url",
              dst_col: str = "dst_url") -> ray.data.Dataset:
    """HyperBall (Boldi & Vigna): APPROXIMATE per-node ball sizes at
    bounded radius via mergeable HLL counters — the 10^10-node scale
    path for :func:`neighborhood_function`. Each node carries 2^p
    one-byte registers; each round every node's counter max-merges
    into its in-neighbors' counters (ball_d(v) = ball_{d-1}(v) union
    the out-neighbors' balls). Per-round traffic is edges x 2^p bytes
    with an in-task per-receiver combiner; node sets never move.
    Deterministic: node hashes are the engine's fixed FNV-64, so the
    estimate is bit-stable run to run (rows-only catalog entry; the
    exact twin is the oracle, the accuracy bound is pytest-checked).

    Dataflow: edges cached per dst bucket ONCE; the state is one
    ``(url, regs)`` table per bucket, the registers a fixed-size
    binary column, so a round is one ``superstep`` whose messages are
    ordinary (url, regs) tables.

    Returns ``(url, ball_est)`` with ``ball_est = floor(HLL estimate)``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if not 4 <= p <= 14:
        raise ValueError("p must be in [4, 14]")
    # edges cached keyed by DST (the sender side: dst's registers flow
    # to src)
    edges_b = _edge_buckets(links, num_buckets, src_col, dst_col, "dst")
    state_b = vertices(edges_b, partial(_hb_init, p))
    for _ in range(radius):
        state_b = superstep(edges_b, state_b, _hb_scatter, _hb_gather)
    return ray.data.from_arrow_refs(gather(_hb_final, state_b))


def _dd_partial(nb: int, vis: pa.Table) -> list:
    """One pair-bucket's visited rows -> (dist, n) partial counts,
    routed by dist."""
    vals, cnt = np.unique(vis["dist"].to_numpy(zero_copy_only=False),
                          return_counts=True)
    vals = vals.astype(np.int64)
    t = pa.table({"d": pa.array(vals, pa.int64()),
                  "n_pairs": pa.array(cnt.astype(np.int64), pa.int64())})
    return split_by_code(t, vals % nb, nb)


def distance_distribution(links: ray.data.Dataset, *, radius: int = 3,
                          num_buckets: int = 16,
                          src_col: str = "src_url",
                          dst_col: str = "dst_url"
                          ) -> ray.data.Dataset:
    """EXACT distance distribution of the directed graph at bounded
    radius — the neighborhood function N(d) = |{(u,v) : dist(u,v) =
    d}| that HyperANF estimates (Boldi, Rosa & Vigna, WWW 2011), the
    basis of effective-diameter and spid reports. Shares the
    bucket-cached BFS dataflow of :func:`neighborhood_function`
    (``_ball_pairs``); the reduction to one row per distance is one
    dist-keyed scatter/gather fold.
    Returns ``(d, n_pairs)`` with d = 0..radius (d=0 rows = nodes)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    vis_b = _ball_pairs(links, num_buckets, radius, src_col, dst_col)
    return ray.data.from_arrow_refs(gather(
        partial(_sum_by, "d"), inbox=scatter(_dd_partial, vis_b)))


def graph_report(links: ray.data.Dataset, *, radius: int = 3,
                 num_buckets: int = 16, src_col: str = "src_url",
                 dst_col: str = "dst_url") -> ray.data.Dataset:
    """The HyperANF summary report over the radius-capped distance
    distribution (Boldi, Rosa & Vigna 2011): ``eff_diameter_90`` (the
    90th-percentile distance with the standard linear interpolation),
    ``mean_distance`` and ``spid`` (variance/mean — the
    shortest-paths index of dispersion; < 1000 permille = proper web
    graph, > 1000 = "galaxy" per the paper). All three are EXACT
    integer permille computed from the exact N(d) counts with Python
    big-int arithmetic in one final task over <= radius+1 rows (the
    T·Σd²n products wrap int64 at web-scale pair counts). Distances
    are capped at ``radius`` — the report describes the radius-ball,
    as any bounded-iteration HyperANF run does."""
    dd = distance_distribution(links, radius=radius,
                               num_buckets=num_buckets,
                               src_col=src_col, dst_col=dst_col)

    def report(tbl: pa.Table) -> pa.Table:
        sch = pa.schema([("metric", pa.string()),
                         ("value_permille", pa.int64())])
        if tbl.num_rows == 0:
            return sch.empty_table()
        d = tbl["d"].to_numpy(zero_copy_only=False).tolist()
        n = tbl["n_pairs"].to_numpy(zero_copy_only=False).tolist()
        order = sorted(range(len(d)), key=lambda i: d[i])
        d = [int(d[i]) for i in order]
        n = [int(n[i]) for i in order]
        t = sum(n)
        s1 = sum(di * ni for di, ni in zip(d, n))
        s2 = sum(di * di * ni for di, ni in zip(d, n))
        mean_pm = 1000 * s1 // t
        var_num = t * s2 - s1 * s1          # variance = var_num / t^2
        spid_pm = (1000 * var_num // (t * s1)) if s1 else 0
        cum = 0
        ed_pm = 0
        for di, ni in zip(d, n):
            if 10 * (cum + ni) >= 9 * t:
                ed_pm = 0 if di == 0 else \
                    1000 * (di - 1) + (1000 * (9 * t - 10 * cum)
                                       ) // (10 * ni)
                break
            cum += ni
        return pa.table({
            "metric": pa.array(["eff_diameter_90", "mean_distance",
                                "spid"], pa.string()),
            "value_permille": pa.array([ed_pm, mean_pm, spid_pm],
                                       pa.int64())})

    return dd.repartition(1).map_batches(report,
                                         batch_format="pyarrow",
                                         batch_size=None)


def _gc_init(parts: list) -> pa.Table:
    """One node-bucket's ball pairs + an all-False covered flag."""
    t = concat(parts)
    return pa.table({"root": t["root"], "node": t["node"],
                     "covered": pa.array(np.zeros(t.num_rows, bool))})


def _gc_count(nb: int, pairs: pa.Table) -> list:
    """Per-root count of this bucket's UNCOVERED nodes, routed by root
    (a root's ball spans buckets, so the counts fold across buckets
    before the best is picked)."""
    unc = ~pairs["covered"].to_numpy(zero_copy_only=False)
    r = pairs["root"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(str)[unc]
    r = r[np.argsort(r, kind="stable")]
    first = np.ones(len(r), bool)
    first[1:] = r[1:] != r[:-1]
    st = np.flatnonzero(first)
    cnt = np.diff(np.r_[st, len(r)]).astype(np.int64)
    t = pa.table({"root": pa.array(r[st], pa.string()),
                  "cnt": pa.array(cnt, pa.int64())})
    return split_by_hash(t, "root", nb)


def _gc_best(parts: list):
    """Fold (root, cnt) partials of one root-bucket -> its best
    candidate (cnt desc, root asc)."""
    t = concat(parts)
    if not t.num_rows:
        return None
    r = t["root"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(str)
    c = t["cnt"].to_numpy(zero_copy_only=False)
    order = np.argsort(r, kind="stable")
    r, c = r[order], c[order]
    first = np.ones(len(r), bool)
    first[1:] = r[1:] != r[:-1]
    st = np.flatnonzero(first)
    tot = np.add.reduceat(c, st)
    cand = sorted(zip((-tot).tolist(), r[st].tolist()))[0]
    return int(-cand[0]), cand[1]


def _gc_mark(winner: str, pairs: pa.Table) -> pa.Table:
    """Mark the winner's ball nodes covered in this bucket."""
    import pyarrow.compute as pc

    ball = pairs.filter(pc.equal(pairs["root"], winner))["node"]
    covered = pc.or_(pairs["covered"],
                     pc.is_in(pairs["node"], value_set=ball.combine_chunks()))
    return pairs.set_column(2, "covered", covered)


def greedy_seed_cover(links: ray.data.Dataset, *, k: int = 3,
                      radius: int = 2, num_buckets: int = 16,
                      src_col: str = "src_url",
                      dst_col: str = "dst_url") -> ray.data.Dataset:
    """Greedy maximum-coverage seed selection: pick ``k`` seeds, each
    round taking the url whose radius-``radius`` forward ball covers
    the most NOT-YET-COVERED urls (ties to the smaller url) — the
    (1 - 1/e)-approximate max-cover rule, the standard way to build a
    small seed list that still reaches most of a web graph. Rounds
    with zero marginal gain stop early.

    Dataflow: the exact ball pair stream (``_ball_pairs``, the
    neighborhood_function BFS over bucket-cached edges) is re-keyed
    ONCE by node so each node's covered flag sits with all of its
    pairs; each greedy round is one uncovered-count scatter + one
    per-root fold; the driver holds only the current winner and its
    gain. Returns ``(rank, seed, gain)``.

    Oracle: the recursive-CTE walk with ``k`` greedy rounds unrolled
    in SQL (NOT-IN against the accumulated cover)."""
    if k < 0 or radius < 0:
        raise ValueError("k and radius must be >= 0")
    vis_b = _ball_pairs(links, num_buckets, radius, src_col, dst_col)
    pairs_b = gather(_gc_init, inbox=rehash(vis_b, "node"))
    ranks, seeds, gains = [], [], []
    for rank in range(1, k + 1):
        bests = [x for x in ray.get(gather(
            _gc_best, inbox=scatter(_gc_count, pairs_b))) if x is not None]
        if not bests:
            break
        gain, winner = sorted(((-c, r) for c, r in bests))[0]
        gain = -gain
        if gain <= 0:
            break
        ranks.append(rank)
        seeds.append(winner)
        gains.append(gain)
        pairs_b = gather(partial(_gc_mark, winner), pairs_b)
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(ranks, pa.int64()),
        "seed": pa.array(seeds, pa.string()),
        "gain": pa.array(gains, pa.int64())}))
