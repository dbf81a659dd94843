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

from cdx_toolkit_ray.canon import canonicalize_batch, hash64, surt
from cdx_toolkit_ray.canon import hash64_batch
from cdx_toolkit_ray import timeutils

pytestmark = pytest.mark.usefixtures("ray_session")

# URL-shaped strings with adversarial parts: %-escapes, brackets,
# whitespace incl. \r\n\t, odd ports, empty labels, query soup
_scheme = st.sampled_from(["http", "https"])
_label = st.text(alphabet="abcz09-_%", min_size=1, max_size=6)
_host = st.lists(_label, min_size=1, max_size=3).map(".".join)
_port = st.one_of(st.just(""), st.integers(0, 99999).map(":{}".format),
                  st.just(":08080"), st.just(":"))
_pathc = st.text(alphabet="abz/%20?&=#[] \t\r\n.~", max_size=12)
_www = st.sampled_from(["", "www.", "WWW.", "www2."])


@st.composite
def urls(draw):
    return "%s://%s%s%s/%s" % (draw(_scheme), draw(_www), draw(_host),
                               draw(_port), draw(_pathc))


@given(st.lists(urls(), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_canonicalize_batch_matches_scalar_spec(batch_urls):
    tbl = pa.table({"url": pa.array(batch_urls, pa.string())})
    got = canonicalize_batch(tbl)["urlkey"].to_pylist()
    want = [surt(u) for u in batch_urls]
    assert got == want


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

    def run(budget):
        grouped = hash_bucket_apply(
            ray.data.from_pandas(df).repartition(4), "bucket",
            per_bucket, num_buckets=7, bytes_budget=budget)
        return range_order(grouped, ["odd", "k"], bytes_budget=budget) \
            .to_pandas().reset_index(drop=True)

    direct = run(1 << 40)   # far above: direct path
    fallback = run(0)       # zero budget: fallback
    pd.testing.assert_frame_equal(direct, fallback)
    # global order kept: the ties on the first column are ordered by the
    # second
    keys = list(zip(direct["odd"], direct["k"]))
    assert keys == sorted(keys) and len(set(direct["k"])) == 40
