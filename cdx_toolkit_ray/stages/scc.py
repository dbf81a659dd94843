"""Strongly connected components + Broder bow-tie decomposition.

Broder et al., "Graph structure in the Web" (WWW 2000): the web's
directed link graph decomposes into a giant strongly-connected CORE,
an IN set that reaches it, an OUT set it reaches, TENDRILS/tubes
hanging off, and DISCONNECTED islands — the canonical macro-map a
crawler uses to judge seed quality and reachable-corpus share (seeds
in IN cover core+OUT; seeds in OUT cover almost nothing).

SCC algorithm: distributed FORWARD-BACKWARD MIN-LABEL PARTITION
REFINEMENT (the "coloring" family: Orzan 2004; Slota, Rajamanickam &
Madduri 2014) — no transitive closure, no per-node visited sets:

* within each partition, propagate to fixpoint F(v) = min url that
  REACHES v and B(v) = min url v REACHES (messages hop only between
  same-partition unassigned nodes; min-label relaxation plus POINTER
  JUMPING — f(v) <- f(f(v)) — so a diameter-d chain converges in
  O(log d) rounds, the components.py contract);
* F(v) == B(v) == w proves v is in SCC(w) (w reaches v and v reaches
  w): assign; every partition retires at least its min node's SCC
  per outer round;
* survivors refine their partition by the (F, B) pair and repeat.

Each round moves only narrow (node, label) messages over edges that
were hash-bucket-cached ONCE (two copies: by src for F, by dst for
B); the driver holds a change counter per round and nothing else.
The rounds are ``scatter`` / ``gather`` calls of the one
``stages/exchange.py`` primitive.

The reference (an HTTP CDX client) has no graph ops; this pairs with
links.py's PageRank/HITS/k-core family for the crawl north star.
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
                       split_by_hash, vertices)

_EMPTY_MSG = pa.table({"recv": pa.array([], pa.string()),
                       "label": pa.array([], pa.string()),
                       "part": pa.array([], pa.int64())})

#: combine kernel of both edge copies: distinct, sorted by key
_KEY_RECV = partial(distinct, ("key", "recv"))


def _sc_init(url: pa.Array, outdeg: np.ndarray) -> pa.Table:
    n = len(url)
    return pa.table({
        "url": url, "part": pa.array(np.zeros(n, np.int64), pa.int64()),
        "f": url, "b": url,
        "scc": pa.array([None] * n, pa.string())})


def _state_arrays(state: pa.Table, col: str):
    urls = state["url"].combine_chunks().to_numpy(zero_copy_only=False)
    lab = state[col].combine_chunks().to_numpy(zero_copy_only=False)
    part = state["part"].to_numpy(zero_copy_only=False)
    scc = state["scc"].combine_chunks().to_numpy(zero_copy_only=False)
    return urls, lab, part, scc


def _sc_scatter(col: str, nb: int, edges: pa.Table, state: pa.Table):
    """Unassigned senders relax their label along cached edges."""
    if edges.num_rows == 0 or state.num_rows == 0:
        return [_EMPTY_MSG] * nb
    urls, lab, part, scc = _state_arrays(state, col)
    key = edges["key"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.searchsorted(urls, key)
    idx_c = np.minimum(idx, len(urls) - 1)
    ok = (urls[idx_c] == key) & (scc[idx_c] == None)  # noqa: E711
    msg = pa.table({
        "recv": edges["recv"].combine_chunks().filter(pa.array(ok)),
        "label": pa.array(lab[idx_c[ok]], pa.string()),
        "part": pa.array(part[idx_c[ok]], pa.int64())})
    return split_by_hash(msg, "recv", nb)


def _sc_jumpreq(col: str, nb: int, state: pa.Table):
    """Pointer-jump requests: v asks owner w = label(v) for w's label."""
    urls, lab, part, scc = _state_arrays(state, col)
    ok = (scc == None) & (lab != urls)  # noqa: E711
    req = pa.table({"owner": pa.array(lab[ok], pa.string()),
                    "asker": pa.array(urls[ok], pa.string()),
                    "part": pa.array(part[ok], pa.int64())})
    return split_by_hash(req, "owner", nb)


def _sc_jumprep(col: str, nb: int, state: pa.Table, reqs: list):
    """Answer jump requests from this bucket's (owner) state rows."""
    r = concat(reqs)
    if not r.num_rows or state.num_rows == 0:
        return [_EMPTY_MSG] * nb
    urls, lab, part, scc = _state_arrays(state, col)
    owner = r["owner"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.searchsorted(urls, owner)
    idx_c = np.minimum(idx, len(urls) - 1)
    rp = r["part"].to_numpy(zero_copy_only=False)
    ok = (urls[idx_c] == owner) & (scc[idx_c] == None) \
        & (part[idx_c] == rp)  # noqa: E711
    msg = pa.table({
        "recv": r["asker"].combine_chunks().filter(pa.array(ok)),
        "label": pa.array(lab[idx_c[ok]], pa.string()),
        "part": pa.array(rp[ok], pa.int64())})
    return split_by_hash(msg, "recv", nb)


def _sc_gather(col: str, state: pa.Table, msgs: list):
    """Min-merge part-matched messages into unassigned receivers."""
    m = concat(msgs)
    if not m.num_rows or state.num_rows == 0:
        return state, 0
    urls, lab, part, scc = _state_arrays(state, col)
    recv = m["recv"].combine_chunks().to_numpy(zero_copy_only=False)
    mlab = m["label"].combine_chunks().to_numpy(zero_copy_only=False)
    mpart = m["part"].to_numpy(zero_copy_only=False)
    idx = np.searchsorted(urls, recv)
    idx_c = np.minimum(idx, len(urls) - 1)
    ok = (urls[idx_c] == recv) & (scc[idx_c] == None) \
        & (part[idx_c] == mpart)  # noqa: E711
    if not ok.any():
        return state, 0
    ridx, rlab = idx_c[ok], mlab[ok]
    # min per receiver: sort by (ridx, label), keep first per ridx
    order = np.lexsort((rlab, ridx))
    ridx, rlab = ridx[order], rlab[order]
    first = np.ones(len(ridx), bool)
    first[1:] = ridx[1:] != ridx[:-1]
    ridx, rlab = ridx[first], rlab[first]
    new = lab.copy()
    better = rlab < new[ridx]
    if not better.any():
        return state, 0
    new[ridx[better]] = rlab[better]
    cols = {c: state[c] for c in state.column_names}
    cols[col] = pa.array(new, pa.string())
    return pa.table(cols), int(better.sum())


def _sc_assign_refine(state: pa.Table):
    """Assign scc where F == B; refine survivors' partitions; F and B
    restart from self-labels for the next outer round."""
    if state.num_rows == 0:
        return state, 0
    f = state["f"].combine_chunks().to_numpy(zero_copy_only=False)
    b = state["b"].combine_chunks().to_numpy(zero_copy_only=False)
    part = state["part"].to_numpy(zero_copy_only=False)
    scc = state["scc"].combine_chunks().to_numpy(zero_copy_only=False)
    unassigned = scc == None  # noqa: E711
    hit = unassigned & (f == b)
    scc = scc.copy()
    scc[hit] = f[hit]
    still = unassigned & ~hit
    newpart = part.copy()
    if still.any():
        hf = hash64_batch(pa.array(f[still], pa.string()))
        hb = hash64_batch(pa.array(b[still], pa.string()))
        mixed = _mix64(part[still].astype(np.uint64) * _PHI
                       ^ _mix64(hf * _PHI ^ hb))
        newpart[still] = mixed.view(np.int64)
    out = pa.table({"url": state["url"],
                    "part": pa.array(newpart, pa.int64()),
                    "f": state["url"], "b": state["url"],
                    "scc": pa.array(scc, pa.string())})
    return out, int(still.sum())


def _sc_final(state: pa.Table) -> pa.Table:
    return pa.table({
        "url": state["url"].combine_chunks().cast(pa.string()),
        "scc": state["scc"].combine_chunks().cast(pa.string())})


def _fixpoint(edges_b: list, state_b: list, col: str,
              max_inner: int = 200) -> list:
    """Min-label relaxation + pointer jumping to fixpoint: per round
    one label scatter over the cached edges and one request/reply
    scatter pair, gathered into the state; the driver holds one
    change counter per bucket and round (the components.py
    contract)."""
    for _ in range(max_inner):
        msgs = scatter(partial(_sc_scatter, col), edges_b, state_b)
        reps = scatter(partial(_sc_jumprep, col), state_b,
                       inbox=scatter(partial(_sc_jumpreq, col), state_b))
        outs = gather(partial(_sc_gather, col), state_b,
                      inbox=[m + r for m, r in zip(msgs, reps)],
                      returns=2)
        state_b = [o[0] for o in outs]
        if sum(ray.get([o[1] for o in outs])) == 0:
            return state_b
    raise RuntimeError("scc: %s-fixpoint did not converge in %d rounds"
                       % (col, max_inner))


def _scc_state(links: ray.data.Dataset, *, num_buckets: int,
               src_col: str, dst_col: str, max_rounds: int):
    """Shared core: returns (labels_b, edges_f_b) — per-bucket
    (url, scc) rows and the src-keyed edge copy."""
    links = links.materialize()
    edges_f = partition(links, num_buckets, "key",
                        (("key", src_col), ("recv", dst_col)), _KEY_RECV)
    edges_bwd = partition(links, num_buckets, "key",
                          (("key", dst_col), ("recv", src_col)), _KEY_RECV)
    # nodes from the F copy (key=src, recv=dst covers all endpoints)
    state_b = vertices(edges_f, _sc_init, ("key", "recv"))
    for _ in range(max_rounds):
        state_b = _fixpoint(edges_f, state_b, "f")
        state_b = _fixpoint(edges_bwd, state_b, "b")
        outs = gather(_sc_assign_refine, state_b, returns=2)
        state_b = [o[0] for o in outs]
        if sum(ray.get([o[1] for o in outs])) == 0:
            return gather(_sc_final, state_b), edges_f
    raise RuntimeError("scc: partition refinement did not converge "
                       "in %d rounds" % max_rounds)


def strongly_connected(links: ray.data.Dataset, *,
                       src_col: str = "src_url",
                       dst_col: str = "dst_url",
                       num_buckets: int = 8,
                       max_rounds: int = 30) -> ray.data.Dataset:
    """SCC labels over the directed graph of ``links``: one row per
    node ``(url, scc)`` where ``scc`` is the lexicographically
    smallest url in the node's strongly connected component (the
    deterministic canonical label). See the module docstring for the
    forward-backward min-label partition-refinement dataflow."""
    labels_b, _ = _scc_state(links, num_buckets=num_buckets,
                             src_col=src_col, dst_col=dst_col,
                             max_rounds=max_rounds)
    return ray.data.from_arrow_refs(labels_b)


# --------------------------------------------------------------------------
# Bow-tie decomposition over the SCC condensation
# --------------------------------------------------------------------------

_EMPTY_FLAGS = pa.table({"lbl": pa.array([], pa.string()),
                         "fwd": pa.array([], pa.int8()),
                         "bwd": pa.array([], pa.int8()),
                         "weak": pa.array([], pa.int8())})

_COND_SCHEMA = pa.schema([("s_scc", pa.string()), ("d_scc", pa.string())])


def _bt_edges_local(nb: int, edges: pa.Table, state: pa.Table):
    """F-copy edge bucket (key=src co-located with its labels): attach
    scc(src), route by hash(dst) for the dst-side attach."""
    urls = state["url"].combine_chunks().to_numpy(zero_copy_only=False)
    scc = state["scc"].combine_chunks().to_numpy(zero_copy_only=False)
    key = edges["key"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.searchsorted(urls, key)
    t = pa.table({"s_scc": pa.array(scc[idx], pa.string()),
                  "dst": edges["recv"].cast(pa.string())})
    return split_by_hash(t, "dst", nb)


def _bt_edges_cond(nb: int, state: pa.Table, parts: list):
    """Attach scc(dst), emit distinct condensation edges
    (s_scc != d_scc), routed by hash(s_scc) — the flag-scatter key."""
    t = concat(parts)
    if not t.num_rows:
        return [_COND_SCHEMA.empty_table()] * nb
    urls = state["url"].combine_chunks().to_numpy(zero_copy_only=False)
    scc = state["scc"].combine_chunks().to_numpy(zero_copy_only=False)
    dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.minimum(np.searchsorted(urls, dst), len(urls) - 1)
    s_scc = t["s_scc"].combine_chunks().to_numpy(zero_copy_only=False)
    d_scc = scc[idx]
    keep = s_scc != d_scc
    import polars as pl

    ct = pl.DataFrame({"s_scc": s_scc[keep],
                       "d_scc": d_scc[keep]}).unique().to_arrow() \
        .cast(_COND_SCHEMA)
    return split_by_hash(ct, "s_scc", nb)


def _bt_scc_sizes(nb: int, state: pa.Table):
    """Per-bucket (scc, n) partials routed by hash(scc)."""
    scc = state["scc"].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.argsort(scc)
    s = scc[order]
    first = np.ones(len(s), bool)
    first[1:] = s[1:] != s[:-1]
    st = np.flatnonzero(first)
    n = np.diff(np.r_[st, len(s)]).astype(np.int64)
    t = pa.table({"lbl": pa.array(s[st], pa.string()),
                  "n": pa.array(n, pa.int64())})
    return split_by_hash(t, "lbl", nb)


def _bt_best(parts: list):
    """One scc-bucket's candidate core: (max total n, min lbl)."""
    t = concat(parts)
    if not t.num_rows:
        return None
    lbl = t["lbl"].combine_chunks().to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    order = np.argsort(lbl)
    lbl, n = lbl[order], n[order]
    first = np.ones(len(lbl), bool)
    first[1:] = lbl[1:] != lbl[:-1]
    st = np.flatnonzero(first)
    tot = np.add.reduceat(n, st)
    # max count, tie -> lexicographically smallest label
    cand = sorted(zip((-tot).tolist(), lbl[st].tolist()))[0]
    return int(-cand[0]), cand[1]


def _bt_flags_init(core: str, lbl_parts: list) -> pa.Table:
    """Distinct condensation nodes of one scc-bucket + seed flags."""
    import pyarrow.compute as pc

    t = concat(lbl_parts)
    if not t.num_rows:
        return _EMPTY_FLAGS
    u = pc.unique(t["lbl"].combine_chunks()).cast(pa.string())
    un = u.to_numpy(zero_copy_only=False)
    order = np.argsort(un)
    u = u.take(pa.array(order))
    seed = (u.to_numpy(zero_copy_only=False) == core).astype(np.int8)
    return pa.table({"lbl": u, "fwd": pa.array(seed, pa.int8()),
                     "bwd": pa.array(seed, pa.int8()),
                     "weak": pa.array(seed, pa.int8())})


def _flag_msgs(edges: pa.Table, flags: pa.Table, key_col: str,
               recv_col: str, flow: str) -> pa.Table:
    """Senders (``key_col``) pass their ``flow`` flag and weak flag to
    the ``recv_col`` endpoint."""
    lbl = flags["lbl"].combine_chunks().to_numpy(zero_copy_only=False)
    key = edges[key_col].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.minimum(np.searchsorted(lbl, key), len(lbl) - 1)
    sent = {c: flags[c].to_numpy(zero_copy_only=False)[idx]
            for c in (flow, "weak")}
    send = (sent[flow] | sent["weak"]).astype(bool) & (lbl[idx] == key)
    cols = {"recv": edges[recv_col].combine_chunks().filter(pa.array(send))}
    for c in ("fwd", "bwd", "weak"):
        v = sent[c][send] if c in sent else np.zeros(int(send.sum()))
        cols[c] = pa.array(v.astype(np.int8), pa.int8())
    return pa.table(cols)


def _bt_flag_scatter(nb: int, by_s: pa.Table, by_d: pa.Table,
                     flags: pa.Table):
    """s sends fwd/weak to d over the s_scc-keyed copy; d sends
    bwd/weak to s over the d_scc-keyed copy."""
    if flags.num_rows == 0:
        return [_EMPTY_FLAGS.rename_columns(["recv", "fwd", "bwd",
                                             "weak"])] * nb
    t = pa.concat_tables([
        _flag_msgs(by_s, flags, "s_scc", "d_scc", "fwd"),
        _flag_msgs(by_d, flags, "d_scc", "s_scc", "bwd")])
    return split_by_hash(t, "recv", nb)


def _bt_flag_gather(flags: pa.Table, msgs: list):
    m = concat(msgs)
    if not m.num_rows or flags.num_rows == 0:
        return flags, 0
    lbl = flags["lbl"].combine_chunks().to_numpy(zero_copy_only=False)
    recv = m["recv"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.minimum(np.searchsorted(lbl, recv), len(lbl) - 1)
    ok = lbl[idx] == recv
    out = {}
    changed = 0
    for c in ("fwd", "bwd", "weak"):
        cur = flags[c].to_numpy(zero_copy_only=False).copy()
        inc = m[c].to_numpy(zero_copy_only=False)[ok]
        before = cur.sum()
        np.maximum.at(cur, idx[ok], inc)
        changed += int(cur.sum() - before)
        out[c] = pa.array(cur, pa.int8())
    return pa.table({"lbl": flags["lbl"], **out}), changed


def _bt_classify(core: str, flags: pa.Table) -> pa.Table:
    """(scc label -> component), keyed by hash(lbl) like the url rows
    routed for the join."""
    lbl = flags["lbl"].combine_chunks().to_numpy(zero_copy_only=False)
    fwd = flags["fwd"].to_numpy(zero_copy_only=False).astype(bool)
    bwd = flags["bwd"].to_numpy(zero_copy_only=False).astype(bool)
    weak = flags["weak"].to_numpy(zero_copy_only=False).astype(bool)
    comp = np.where(lbl == core, "SCC",
                    np.where(bwd, "IN",
                             np.where(fwd, "OUT",
                                      np.where(weak, "TENDRIL",
                                               "DISC"))))
    return pa.table({"lbl": pa.array(lbl, pa.string()),
                     "component": pa.array(comp, pa.string())})


def _bt_join_urls(comp: pa.Table, url_parts: list) -> pa.Table:
    """(url, scc) rows routed by hash(scc) + this bucket's component
    map -> (url, scc, component)."""
    sch = pa.schema([("url", pa.string()), ("scc", pa.string()),
                     ("component", pa.string())])
    t = concat(url_parts)
    if not t.num_rows:
        return sch.empty_table()
    lbl = comp["lbl"].combine_chunks().to_numpy(zero_copy_only=False)
    cmp_ = comp["component"].combine_chunks() \
        .to_numpy(zero_copy_only=False)
    scc = t["scc"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.minimum(np.searchsorted(lbl, scc), max(len(lbl) - 1, 0))
    if len(lbl) == 0:
        raise RuntimeError("bowtie: url rows routed to an empty "
                           "component bucket")
    return pa.table({"url": t["url"], "scc": t["scc"],
                     "component": pa.array(cmp_[idx], pa.string())})


def bowtie(links: ray.data.Dataset, *, src_col: str = "src_url",
           dst_col: str = "dst_url", num_buckets: int = 8,
           max_rounds: int = 30,
           max_flag_rounds: int = 200) -> ray.data.Dataset:
    """Broder bow-tie decomposition: ``(url, scc, component)`` with
    component in {SCC, IN, OUT, TENDRIL, DISC} relative to the CORE
    (the largest SCC; ties break to the smallest label — the one
    scalar the driver holds). TENDRIL lumps Broder's tendrils and
    tubes (weakly but not directionally attached); DISC is everything
    outside the core's weak component.

    Flags propagate on the SCC CONDENSATION (a DAG whose diameter is
    small once cycles collapse), built with two narrow exchanges from
    the already-bucketed state — per-url rows move exactly twice
    (condense, classify-join)."""
    labels_b, edges_f = _scc_state(
        links, num_buckets=num_buckets, src_col=src_col,
        dst_col=dst_col, max_rounds=max_rounds)

    # condensation edges (two attach hops): an s_scc-keyed copy for
    # forward flag flow and a d_scc-keyed copy for backward flow
    cond_s = scatter(_bt_edges_cond, labels_b,
                     inbox=scatter(_bt_edges_local, edges_f, labels_b))
    by_s = gather(partial(distinct, ("s_scc", "d_scc")), inbox=cond_s)
    by_d = gather(partial(distinct, ("d_scc", "s_scc")),
                  inbox=rehash(by_s, "d_scc"))

    # core = largest SCC (count desc, label asc): per-bucket partials,
    # per-bucket best, one driver reduce over nb candidates
    sizes = scatter(_bt_scc_sizes, labels_b)
    bests = [x for x in ray.get(gather(_bt_best, inbox=sizes))
             if x is not None]
    if not bests:
        return ray.data.from_arrow(pa.table({
            "url": pa.array([], pa.string()),
            "scc": pa.array([], pa.string()),
            "component": pa.array([], pa.string())}))
    core = sorted(((-n, lbl) for n, lbl in bests))[0][1]

    # condensation node flags, seeded at the core
    flags_b = gather(partial(_bt_flags_init, core), inbox=sizes)
    for _ in range(max_flag_rounds):
        outs = gather(_bt_flag_gather, flags_b,
                      inbox=scatter(_bt_flag_scatter, by_s, by_d, flags_b),
                      returns=2)
        flags_b = [o[0] for o in outs]
        if sum(ray.get([o[1] for o in outs])) == 0:
            break
    else:
        raise RuntimeError("bowtie: flag propagation did not converge "
                           "in %d rounds" % max_flag_rounds)

    comp_b = gather(partial(_bt_classify, core), flags_b)
    return ray.data.from_arrow_refs(
        gather(_bt_join_urls, comp_b, inbox=rehash(labels_b, "scc")))


def with_intrahost_backlinks(links: ray.data.Dataset, *,
                             src_col: str = "src_url",
                             dst_col: str = "dst_url"
                             ) -> ray.data.Dataset:
    """Navigation-graph model: an intra-host link is treated as
    BIDIRECTIONAL (site nav / back-links make pages of one host
    mutually reachable in practice), cross-host links stay directed —
    the standard coarsening that gives raw href snapshots (which are
    DAG-like per page sample) a meaningful SCC/bow-tie structure.
    Zero-shuffle: one vectorized host-compare per block."""

    def aug(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch.select([src_col, dst_col]))
        hosts = df.select(
            pl.col(src_col).str.extract(r"://([^/]+)", 1).alias("hs"),
            pl.col(dst_col).str.extract(r"://([^/]+)", 1).alias("hd"))
        same = (hosts["hs"] == hosts["hd"]).fill_null(False)
        rev = df.filter(same).select(
            pl.col(dst_col).alias(src_col),
            pl.col(src_col).alias(dst_col))
        return pl.concat([df, rev]).to_arrow().cast(pa.schema([
            (src_col, pa.string()), (dst_col, pa.string())]))

    return links.map_batches(aug, batch_format="pyarrow",
                             batch_size=None)
