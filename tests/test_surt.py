import numpy as np
import pyarrow as pa

import cdx_toolkit_ray.canon as s


def test_surt_basic():
    assert s.surt("https://www.commoncrawl.org/") == "org,commoncrawl)/"
    assert s.surt("http://commoncrawl.org") == "org,commoncrawl)/"
    assert s.surt("commoncrawl.org/") == "org,commoncrawl)/"


def test_surt_equivalences():
    # www vs bare, scheme http vs https, case, query order — all collapse
    variants = [
        "https://www.Example.COM/Path?b=2&a=1",
        "http://example.com/path?a=1&b=2",
        "example.com/Path?b=2&a=1",
        "https://www2.example.com/path?a=1&b=2",
    ]
    keys = {s.surt(u) for u in variants}
    assert keys == {"com,example)/path?a=1&b=2"}


def test_surt_distinctions():
    assert s.surt("https://example.com/a") != s.surt("https://example.com/b")
    assert s.surt("https://sub.example.com/") != s.surt("https://example.com/")
    assert s.surt("https://example.com:8080/") == "com,example:8080)/"
    assert s.surt("https://example.com/#frag") == "com,example)/"


def test_host_of():
    assert s.host_of("https://www.Example.com/x") == "www.example.com"
    assert s.host_of("example.com/x") == "example.com"


def test_hash64_deterministic():
    h1 = s.hash64("org,commoncrawl)/")
    h2 = s.hash64("org,commoncrawl)/")
    assert h1 == h2
    assert 0 <= h1 < 2 ** 64
    assert s.hash64("a") != s.hash64("b")
    # FNV-1a known vector: empty string -> offset basis
    assert s.hash64("") == 0xCBF29CE484222325


def test_hash64_batch_matches_scalar():
    keys = np.array(["a", "org,commoncrawl)/", "com,example)/p?a=1"], dtype=object)
    out = s.hash64_batch(keys)
    assert out.dtype == np.uint64
    for k, h in zip(keys, out):
        assert int(h) == s.hash64(k)


def test_canonicalize_batch():
    t = pa.table({"url": ["https://www.example.com/A?b=2&a=1",
                          "http://example.com/a?a=1&b=2", None]})
    out = s.canonicalize_batch(t)
    assert out.column_names == ["url", "urlkey", "hash64", "host"]
    keys = out["urlkey"].to_pylist()
    assert keys[0] == keys[1] == "com,example)/a?a=1&b=2"
    assert keys[2] is None
    hashes = out["hash64"].to_pylist()
    assert hashes[0] == hashes[1] == s.hash64(keys[0])
    assert out["host"].to_pylist()[0] == "www.example.com"


def test_canonicalize_batch_fallback_edges():
    """URLs with embedded CR/LF take the scalar fallback (urlsplit
    strips \\r\\n); leading-zero ports are read as urlsplit's integer
    port ("08080" -> ":8080", "080" -> default, dropped)."""
    import pyarrow as pa

    from cdx_toolkit_ray import canon as s

    urls = [
        "http://example.com/a\r\nb",
        "http://example.com/a\nb?x=1",
        "http://example.com:08080/x",
        "http://example.com:8080/x",
        "http://example.com:080/x",
    ]
    out = s.canonicalize_batch(pa.table({"url": urls}))
    got = out["urlkey"].to_pylist()
    want = [s.surt(u) for u in urls]
    assert got == want
