"""Property-based tests (hypothesis) for the subtlest kernels: the
polars SURT fast path vs the scalar spec, the length-sorted vectorized
FNV vs the scalar recurrence, and the timestamp algebra. These are
the kernels where a vectorized shortcut can silently diverge from the
executable spec on adversarial inputs (the round-1 advice found two
such edges by review; these find them mechanically)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from cdx_toolkit_ray.canon import canonicalize_batch, hash64, host_of, surt
from cdx_toolkit_ray.canon import hash64_batch
from cdx_toolkit_ray import timeutils

pytestmark = pytest.mark.usefixtures("ray_session")

# URL-shaped strings with adversarial parts: schemeless and odd-scheme
# urls, %-escapes, brackets, whitespace incl. \r\n\t, non-ASCII hosts
# and paths, trailing-dot and bare www. hosts, default / leading-zero /
# empty / out-of-range ports, '#' before '?', '?' inside the query
_scheme = st.sampled_from(["http://", "https://", "HTTP://", "hTTpS://",
                           "ftp+x.y-z://", "", "//", "1x://", "mailto:"])
_label = st.text(alphabet="abcZ09-_%\u00e9\u0130", min_size=1, max_size=6)
_host = st.lists(_label, min_size=0, max_size=3).map(".".join)
_dot = st.sampled_from(["", "", "."])
_port = st.one_of(st.just(""), st.integers(0, 99999).map(":{}".format),
                  st.sampled_from([":80", ":443", ":08080", ":", ":0080",
                                   ":x1", ":8080:9"]))
_pathc = st.text(alphabet="abZ/%20?&=#[] \t\r\n.~:@\u00e9\u0130",
                 max_size=14)
_www = st.sampled_from(["", "www.", "WWW.", "www2.", "www"])


@st.composite
def urls(draw):
    return "%s%s%s%s%s/%s" % (draw(_scheme), draw(_www), draw(_host),
                                draw(_dot), draw(_port), draw(_pathc))


# mostly url-shaped, some arbitrary text, empty and null urls
_any_url = st.one_of(urls(), urls(), urls(), st.text(max_size=30),
                     st.just(""), st.none())


def _spec_row(u):
    """(urlkey, host, hash64) by the scalar spec; a null url or one
    ``urlsplit`` rejects gets (None, None, 0)."""
    if u is None:
        return None, None, 0
    try:
        key = surt(u)
        return key, host_of(u), hash64(key)
    except ValueError:
        return None, None, 0


def _assert_spec(out, batch_urls):
    want = [_spec_row(u) for u in batch_urls]
    assert out["urlkey"].to_pylist() == [w[0] for w in want]
    # host is the politeness and robots key
    assert out["host"].to_pylist() == [w[1] for w in want]
    assert out["hash64"].to_pylist() == [w[2] for w in want]


@given(st.lists(_any_url, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_canonicalize_batch_matches_scalar_spec(batch_urls):
    tbl = pa.table({"url": pa.array(batch_urls, pa.string())})
    _assert_spec(canonicalize_batch(tbl), batch_urls)


@given(st.lists(_any_url, min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_canonicalize_batch_many_rows_per_origin(pool, seed):
    """Over 2,048 rows drawn from a small pool: origins repeat, and the
    per-origin hash states feed the vectorized FNV path."""
    rng = np.random.default_rng(seed)
    batch_urls = [pool[i] for i in rng.integers(0, len(pool), 2100)]
    out = canonicalize_batch(pa.table({"url": pa.array(batch_urls,
                                                       pa.string())}))
    want = {i: _spec_row(u) for i, u in enumerate(pool)}
    pos = {u: i for i, u in enumerate(pool)}
    rows = [want[pos[u]] for u in batch_urls]
    assert out["urlkey"].to_pylist() == [r[0] for r in rows]
    assert out["host"].to_pylist() == [r[1] for r in rows]
    assert out["hash64"].to_pylist() == [r[2] for r in rows]


@given(st.lists(_any_url, min_size=0, max_size=40), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_canonicalize_batch_composes_over_blocks(batch_urls, cut):
    """A batch's output is the concatenation of its two halves' outputs,
    on every column: no row depends on the other rows of its block."""
    tbl = pa.table({"url": pa.array(batch_urls, pa.string())})
    cut = min(cut, len(batch_urls))
    whole = canonicalize_batch(tbl)
    parts = pa.concat_tables([canonicalize_batch(tbl.slice(0, cut)),
                              canonicalize_batch(tbl.slice(cut))])
    assert whole.schema == parts.schema
    assert whole.equals(parts)


_hosts = st.one_of(st.none(), st.text(alphabet="aw.2W\u00e9", max_size=8),
                  st.sampled_from(["www.a.com", "a.com", "www2.a.com",
                                   "wwwa.com", "www.", "WWW.a.com"]))


@given(st.lists(_hosts, min_size=0, max_size=60), st.integers(1, 70),
       st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_add_host_bucket_hashes_each_host(hosts, num_buckets, reps):
    """Row by row, the route bucket is hash64(host without
    ^www\\d*\\.) % B (B buckets), the lineage bucket hash64(host) % B,
    and a null host goes to bucket 0; repeats reach the vectorized
    hash path."""
    import re

    from cdx_toolkit_ray.pipelines.frontier import _add_host_bucket

    hosts = hosts * (reps if len(hosts) * reps <= 2500 else 1)
    tbl = pa.table({"host": pa.array(hosts, pa.string())})
    for strip in (True, False):
        got = _add_host_bucket(num_buckets, strip_www=strip)(tbl)
        want = [0 if h is None else
                hash64(re.sub(r"^www\d*\.", "", h) if strip else h)
                % num_buckets for h in hosts]
        assert got["host_bucket"].to_pylist() == want
        assert got.schema.field("host_bucket").type == pa.int64()


_PATH_RE = r"^[a-zA-Z][a-zA-Z0-9+.\-]*://[^/?#]*([^?#]*)"


@given(st.lists(st.tuples(_any_url, st.sampled_from(["h1", "h2", "h3"])),
                min_size=1, max_size=40),
       st.lists(st.text(alphabet="/ab?#\u00e9%", min_size=1, max_size=4),
                min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_robots_gate_path_matches_scalar_reference(rows, prefixes):
    """The gate's path (everything after ``scheme://authority`` up to
    ``?``/``#``, '/' when empty or schemeless) and its startswith check
    against a scalar ``re`` reference, non-ASCII urls included."""
    import re

    from cdx_toolkit_ray.pipelines.frontier import make_robots_gate

    robots = {"h1": (100, tuple(prefixes)), "h2": (200, ())}
    tbl = pa.table({"url": pa.array([u for u, _ in rows], pa.string()),
                    "host": pa.array([h for _, h in rows], pa.string())})
    out = make_robots_gate(robots)(tbl)

    def blocked(u, h):
        m = re.match(_PATH_RE, u) if u is not None else None
        path = (m.group(1) if m else "") or "/"
        return any(path.startswith(p) for p in robots.get(h, (0, ()))[1])

    assert out["robots_blocked"].to_pylist() == [blocked(u, h)
                                                 for u, h in rows]
    assert out["crawl_delay_ms"].to_pylist() == [
        robots.get(h, (3000,))[0] for _, h in rows]


def test_canonicalize_batch_nulls_urls_urlsplit_rejects():
    """A url whose bracketed host ``urlsplit`` rejects gets a null
    urlkey and host (hash64 0), like a null url, and does not fail its
    batch: the good rows are byte-identical to a batch without it. The
    scalar spec keeps raising."""
    bad = ["http://[z]/a", "http://[::1/x"]
    good = ["http://ok.com/", "https://www.Example.org:8080/B?z=1&a=2",
            "http://x.test/%41"]
    for u in bad:
        with pytest.raises(ValueError):
            surt(u)
    mixed = canonicalize_batch(pa.table({"url": pa.array(
        [good[0], bad[0], good[1], bad[1], good[2]], pa.string())}))
    alone = canonicalize_batch(pa.table({"url": pa.array(good,
                                                         pa.string())}))
    assert mixed.take([0, 2, 4]).equals(alone)
    for col in ("urlkey", "host"):
        assert mixed[col].to_pylist()[1::2] == [None, None]
    assert mixed["hash64"].to_pylist()[1::2] == [0, 0]


@given(st.lists(st.text(max_size=40), min_size=1, max_size=64))
@settings(max_examples=150, deadline=None)
def test_hash64_batch_matches_scalar(keys):
    got = hash64_batch(pa.array(keys, pa.string()))
    want = np.array([hash64(k) for k in keys], np.uint64)
    assert (got == want).all()


@given(st.lists(st.text(max_size=300), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_hash64_batch_long_strings(keys):
    # exercise the column-wise path's prefix logic on long strings too
    big = [k * 40 for k in keys] * 300  # >2048 rows -> vectorized path
    got = hash64_batch(pa.array(big, pa.string()))
    want = np.array([hash64(k) for k in big], np.uint64)
    assert (got == want).all()


@given(st.lists(st.tuples(st.text(max_size=20), st.text(max_size=20)),
                min_size=1, max_size=30), st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_hash64_batch_init_continues_the_prefix_state(pairs, reps):
    """hash64_batch(suffixes, init=hash64_batch(prefixes)) is the hash
    of prefix + suffix, on the scalar and the vectorized path."""
    pairs = pairs * reps
    pre = [p for p, _ in pairs]
    suf = [s for _, s in pairs]
    got = hash64_batch(pa.array(suf, pa.string()),
                       init=hash64_batch(pa.array(pre, pa.string())))
    want = np.array([hash64(p + s) for p, s in pairs], np.uint64)
    assert (got == want).all()


@given(st.integers(1998, 2030), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_pad_timestamp_round_trip(y, m):
    lo = timeutils.pad_timestamp("%04d%02d" % (y, m))
    hi = timeutils.pad_timestamp_up("%04d%02d" % (y, m))
    assert len(lo) == len(hi) == 14
    assert lo <= hi
    # both parse to valid epochs and preserve ordering
    assert (timeutils.timestamp_to_time(lo)
            <= timeutils.timestamp_to_time(hi))
    # round trip through unixtime reproduces the padded string
    assert timeutils.time_to_timestamp(
        timeutils.timestamp_to_time(lo)) == lo


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_bit_length_kernel_matches_python(x):
    from cdx_toolkit_ray.stages.sketch import _bit_length_u64

    got = _bit_length_u64(np.array([x], np.uint64))[0]
    assert got == int(x).bit_length()


# --- filter-language compiler vs a scalar reference ---------------------

_FIELD_VALS = st.text(alphabet="abc01.*x", max_size=6)


def _scalar_filter(mod: str, expr: str, value):
    import re

    if value is None:
        hit = False
    elif mod in ("", "!"):
        hit = expr in value
    elif mod in ("=", "!="):
        hit = value == expr
    else:  # '~' / '!~'
        try:
            hit = re.fullmatch("(?:%s)" % expr, value) is not None
        except re.error:
            return None
    return (not hit) if mod.startswith("!") else hit


@given(st.sampled_from(["", "!", "=", "!=", "~", "!~"]),
       _FIELD_VALS,
       st.lists(st.one_of(st.none(), _FIELD_VALS),
                min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_filter_compiler_matches_scalar_reference(mod, expr, values):
    import pyarrow as pa

    from cdx_toolkit_ray.filters import compile_filters

    if mod in ("~", "!~"):
        import re

        try:
            re.compile("(?:%s)" % expr)
        except re.error:
            return  # invalid regex: both sides error at their layer
    want = [_scalar_filter(mod, expr, v) for v in values]
    if any(w is None for w in want):
        return
    batch = pa.table({"status": pa.array(values, pa.string())})
    try:
        [cf] = compile_filters(["%sstatus:%s" % (mod, expr)], "cc")
    except Exception:
        return
    got = cf.mask(batch).to_pylist()
    assert got == want, (mod, expr, values)


# --- the central exchange primitive vs a serial reference ---------------

@given(st.lists(st.tuples(st.integers(0, 12), st.integers(-50, 50)),
                min_size=1, max_size=120),
       st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_hash_bucket_apply_equals_serial_groupby(rows, num_buckets):
    """hash_bucket_apply(ds, key, fn) must produce exactly the rows a
    serial per-bucket application produces, for any bucketing of any
    input — the invariant every exchange-based operator relies on."""
    import pandas as pd
    import ray.data

    from cdx_toolkit_ray.canon import hash64_batch
    from cdx_toolkit_ray.stages.exchange import hash_bucket_apply

    df = pd.DataFrame(rows, columns=["k", "v"])
    df["bucket"] = (hash64_batch(df["k"].astype(str).to_numpy(
        dtype=object)) % np.uint64(num_buckets)).astype("int64")

    def per_bucket(tbl: pa.Table) -> pa.Table:
        # a representative kernel: per-key sum + count within bucket
        d = tbl.to_pandas()
        g = d.groupby("k", as_index=False).agg(
            s=("v", "sum"), n=("v", "size"))
        return pa.Table.from_pandas(g[["k", "s", "n"]],
                                    preserve_index=False)

    got = hash_bucket_apply(
        ray.data.from_pandas(df).repartition(3), "bucket", per_bucket,
        num_buckets=num_buckets).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    want = df.groupby("k", as_index=False).agg(
        s=("v", "sum"), n=("v", "size"))[["k", "s", "n"]] \
        .sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"s": "int64", "n": "int64"}),
        want.astype({"s": "int64", "n": "int64"}))


def test_hash_bucket_apply_budget_fallback_identical_rows():
    """An input over the bytes budget must take the executor fallbacks
    (groupby for the hash exchange, Dataset.sort for the range order —
    contract enforcement) and return exactly the same rows in the same
    global order."""
    import pandas as pd
    import ray.data

    from cdx_toolkit_ray.stages.exchange import hash_bucket_apply, range_order

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k": rng.integers(0, 40, 4000),
        "v": rng.integers(-100, 100, 4000),
    })
    df["bucket"] = (df["k"] % 7).astype("int64")

    def per_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.to_pandas()
        g = d.groupby("k", as_index=False).agg(s=("v", "sum"))
        g["odd"] = (g["k"] % 2).astype("int64")
        return pa.Table.from_pandas(g[["k", "s", "odd"]],
                                    preserve_index=False)

    def run(budget, where=None):
        grouped = hash_bucket_apply(
            ray.data.from_pandas(df).repartition(4), "bucket",
            per_bucket, num_buckets=7, bytes_budget=budget)
        return range_order(grouped, ["odd", "k"], where=where,
                           bytes_budget=budget) \
            .to_pandas().reset_index(drop=True)

    direct = run(1 << 40)   # far above: direct path
    fallback = run(0)       # zero budget: fallback
    pd.testing.assert_frame_equal(direct, fallback)
    # a row filter inside the exchange keeps exactly the rows it passes,
    # on both paths
    def gains(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater(t["s"], 0))

    kept = direct[direct["s"] > 0].reset_index(drop=True)
    assert 0 < len(kept) < len(direct)
    for budget in (1 << 40, 0):
        pd.testing.assert_frame_equal(run(budget, gains), kept)
    # global order kept: the ties on the first column are ordered by the
    # second
    keys = list(zip(direct["odd"], direct["k"]))
    assert keys == sorted(keys) and len(set(direct["k"])) == 40



def _exchange_kernels():
    """A per-row pass that adds the bucket column and a derived one, and
    a per-key sum kernel (defined in a function: Ray workers cannot
    import this test module, so they travel by value)."""
    def prepare(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = t["k"].to_numpy(zero_copy_only=False)
        return t.append_column("bucket", pa.array(k % 5, pa.int64())) \
            .append_column("v2", pc.multiply(t["v"], 2))

    def sum_per_key(tbl: pa.Table) -> pa.Table:
        d = tbl.to_pandas()
        g = d.groupby("k", as_index=False).agg(s=("v2", "sum"),
                                               n=("v", "size"))
        return pa.Table.from_pandas(g[["k", "s", "n"]],
                                    preserve_index=False)

    return prepare, sum_per_key


@pytest.mark.parametrize("budget", [1 << 40, 0])
def test_hash_bucket_apply_prepare_equals_map_batches(budget):
    """hash_bucket_apply(ds, c, f, prepare=p) returns the rows of
    hash_bucket_apply(ds.map_batches(p), c, f), on the direct path and
    on the executor fallback (budget 0), and for an empty input."""
    import pandas as pd
    import ray.data

    _prepare_bucket, _sum_per_key = _exchange_kernels()
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"k": rng.integers(0, 60, 3000),
                       "v": rng.integers(-9, 9, 3000)})
    ds = ray.data.from_pandas(df).repartition(6)

    def apply(d, prepare=None):
        from cdx_toolkit_ray.stages.exchange import hash_bucket_apply

        return hash_bucket_apply(d, "bucket", _sum_per_key, num_buckets=5,
                                 bytes_budget=budget, prepare=prepare)

    def run(d, prepare=None):
        return apply(d, prepare).to_pandas().sort_values("k") \
            .reset_index(drop=True)

    mapped = ds.map_batches(_prepare_bucket, batch_format="pyarrow",
                            batch_size=None)
    want = run(mapped)
    assert len(want) == 60
    pd.testing.assert_frame_equal(run(ds, _prepare_bucket), want)
    # empty input: merge_fn(prepare(empty)) gives the output schema
    empty = ray.data.from_arrow(pa.Table.from_pandas(df.iloc[:0]))
    got = apply(empty, _prepare_bucket)
    assert got.count() == 0 and got.schema().names == ["k", "s", "n"]


def test_round_plan_is_the_smallest_cpu_multiple_within_one_block(
        monkeypatch):
    """round_plan: one task per CPU with no bytes or few bytes; for more
    bytes, the smallest multiple of the CPUs whose tasks each hold at
    most one target block, or less when a wave of them (input and
    output) would not fit the object store."""
    import ray.data

    from cdx_toolkit_ray.stages import exchange

    block = ray.data.DataContext.get_current().target_max_block_size
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(exchange, "_cluster_cpus", lambda c=cpus: c)
        monkeypatch.setattr(exchange, "_store_bytes", lambda: 0)
        assert exchange.round_plan() == cpus
        assert exchange.round_plan(0) == cpus
        assert exchange.round_plan(cpus * block) == cpus
        assert exchange.round_plan(cpus * block + 1) == 2 * cpus
        assert exchange.round_plan(5 * cpus * block) == 5 * cpus
        # a store of one block per CPU caps each task at half a block
        monkeypatch.setattr(exchange, "_store_bytes",
                            lambda c=cpus: c * block)
        assert exchange.round_plan() == cpus
        assert exchange.round_plan(cpus * block) == 2 * cpus
        monkeypatch.setattr(exchange, "_store_bytes",
                            lambda c=cpus: 4 * c * block)
        assert exchange.round_plan(cpus * block) == cpus


def test_hash_bucket_apply_block_refs_first_group_all_empty():
    """Block-ref input whose first split groups are all empty blocks
    (one column-less, one typed; each ref is one split group): every
    merge still sees a typed table, even the merge of a bucket no row
    routes to (bucket 5 of 6), and the rows equal the serial
    reference."""
    import pandas as pd
    import ray

    from cdx_toolkit_ray.stages.exchange import (hash_bucket_apply,
                                                 round_plan)

    _prepare_bucket, _sum_per_key = _exchange_kernels()
    rng = np.random.default_rng(9)
    live = [pa.table({"k": pa.array(rng.integers(0, 30, 200), pa.int64()),
                      "v": pa.array(rng.integers(-9, 9, 200), pa.int64())})
            for _ in range(2 * round_plan() - 2)]
    blocks = [pa.table({}), live[0].slice(0, 0)] + live
    seen = []

    def merge(t: pa.Table) -> pa.Table:
        assert t.column_names[:3] == ["k", "v", "bucket"], t.schema
        seen.append(1)
        return _sum_per_key(t)

    got = hash_bucket_apply([ray.put(b) for b in blocks], "bucket", merge,
                            num_buckets=6, prepare=_prepare_bucket) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    want = pa.concat_tables(live).to_pandas().groupby(
        "k", as_index=False).agg(s=("v", lambda v: int(2 * v.sum())),
                                 n=("v", "size")) \
        .sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


# --- api.rows (table -> row dicts a column at a time) vs Table.to_pylist

_ROW_TYPES = {
    "str": (pa.string(), st.text(max_size=8)),
    "lstr": (pa.large_string(), st.text(max_size=8)),
    "bin": (pa.binary(), st.binary(max_size=8)),
    "i64": (pa.int64(), st.integers(-2**63, 2**63 - 1)),
    "u64": (pa.uint64(), st.integers(0, 2**64 - 1)),
    "i8": (pa.int8(), st.integers(-128, 127)),
    "bool": (pa.bool_(), st.booleans()),
    "f64": (pa.float64(), st.floats(allow_nan=False)),
    "ts": (pa.timestamp("us"), st.integers(0, 2**50)),
    "list": (pa.list_(pa.int64()), st.lists(st.integers(-9, 9), max_size=3)),
}


@st.composite
def _row_tables(draw):
    n = draw(st.integers(0, 12))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    cols = {}
    for name in draw(st.lists(st.sampled_from(sorted(_ROW_TYPES)),
                              max_size=5, unique=True)):
        typ, vals = _ROW_TYPES[name]
        if draw(st.booleans()):
            vals = st.one_of(st.none(), vals)
        arr = pa.array(draw(st.lists(vals, min_size=n, max_size=n)), typ)
        # chunk boundaries at the drawn cuts, empty chunks included
        bounds = [0] + cuts + [n]
        cols[name] = pa.chunked_array(
            [arr.slice(a, b - a) for a, b in zip(bounds, bounds[1:])], typ)
    if draw(st.booleans()):
        # a hive partition column, built as the scan kernel builds it
        cols["crawl"] = pa.chunked_array(
            [pa.repeat(pa.scalar("CC-MAIN-2022-05", pa.string()), n)])
    if not cols:   # rows without a column
        return pa.table([pa.nulls(n)], ["_"]).select([])
    return pa.table(cols)


@given(_row_tables())
@settings(max_examples=300, deadline=None)
def test_rows_equal_to_pylist(table):
    from cdx_toolkit_ray.api import rows

    got = rows(table)
    want = table.to_pylist()
    assert got == want
    # same Python types, not just equal values (1 == True == 1.0)
    assert [[type(v) for v in r.values()] for r in got] \
        == [[type(v) for v in r.values()] for r in want]
