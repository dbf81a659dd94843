"""Real multimodal codecs (pure-numpy BMP / PCM-WAV) + actor stages."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from cdx_toolkit_ray.stages.multimodal import (
    BmpDecoder, WavStats, decode_bmp, decode_wav,
    encode_bmp, encode_wav, real_media_table, resize_nearest)

pytestmark = pytest.mark.usefixtures("ray_session")


def test_bmp_roundtrip_with_padding():
    rng = np.random.RandomState(1)
    for w, h in [(20, 13), (7, 5), (4, 1), (33, 2)]:
        px = rng.randint(0, 256, (h, w, 3)).astype(np.uint8)
        assert (decode_bmp(encode_bmp(px)) == px).all(), (w, h)


def test_wav_roundtrip():
    rng = np.random.RandomState(2)
    s = rng.randint(-32768, 32768, 777).astype(np.int16)
    rate, s2 = decode_wav(encode_wav(s, 22050))
    assert rate == 22050 and (s2 == s).all()


def test_resize_nearest_known_map():
    px = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
    r = resize_nearest(px, 4, 4)
    assert (r == px[::2][:, ::2]).all()
    up = resize_nearest(px, 16, 16)
    assert up.shape == (16, 16, 3)
    # upsample replicates: every source pixel appears exactly 4x
    assert (up[::2][:, ::2] == px).all() and (up[1::2][:, 1::2] == px).all()


def test_bmp_decoder_stage_matches_numpy():
    t = real_media_table(32, 42)
    img = t.filter(pa.compute.equal(t["media_type"], "image"))
    got = ray.data.from_arrow(img).map_batches(
        BmpDecoder, batch_format="pyarrow", batch_size=8,
        concurrency=2).to_pandas().set_index("media_id")
    for mid, p in zip(img["media_id"].to_pylist(),
                      img["payload"].to_pylist()):
        px = decode_bmp(p)
        assert got.loc[mid, "width"] == px.shape[1]
        assert got.loc[mid, "height"] == px.shape[0]
        assert got.loc[mid, "px_sum"] == px.sum(dtype=np.int64)
        lum = px.sum(axis=2, dtype=np.int64) // 3
        want = np.bincount((lum >> 4).ravel(), minlength=16)
        assert (np.array(got.loc[mid, "lum_hist"]) == want).all()


def test_wav_stats_stage_matches_numpy():
    t = real_media_table(32, 42)
    aud = t.filter(pa.compute.equal(t["media_type"], "audio"))
    got = ray.data.from_arrow(aud).map_batches(
        WavStats, batch_format="pyarrow", batch_size=8, concurrency=2) \
        .to_pandas().set_index("media_id")
    for mid, p in zip(aud["media_id"].to_pylist(),
                      aud["payload"].to_pylist()):
        rate, s = decode_wav(p)
        a = np.abs(s.astype(np.int64))
        assert got.loc[mid, "sample_rate"] == rate
        assert got.loc[mid, "n_samples"] == len(s)
        assert got.loc[mid, "sum_abs"] == a.sum()
        assert got.loc[mid, "peak"] == a.max()


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_bmp(b"not a bitmap at all")
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxNOPE")


def test_sniff_batch_magic_bytes():
    from cdx_toolkit_ray.stages.multimodal import (encode_bmp,
                                                   encode_wav,
                                                   sniff_batch)

    bmp = encode_bmp(np.zeros((2, 4, 3), np.uint8))
    wav = encode_wav(np.zeros(4, np.int16), 8000)
    batch = pa.table({
        "payload": pa.array([
            bmp, wav, b"<html><body>x</body></html>",
            b"  \r\n\t<!DOCTYPE html>", b"\x00\x01garbage", b"",
            b"RIFFxxxxAVI ",          # RIFF but not WAVE
        ], pa.binary()),
    })
    got = sniff_batch(batch)["sniffed_type"].to_pylist()
    assert got == ["image/bmp", "audio/wav", "text/html", "text/html",
                   "application/octet-stream",
                   "application/octet-stream",
                   "application/octet-stream"]


def test_sniff_batch_sliced_nulls_and_buffer_offsets():
    """The vectorized prefix gather must honor array slices (nonzero
    offset into shared buffers) and nulls — the regression for the old
    per-row as_py() path."""
    from cdx_toolkit_ray.stages.multimodal import sniff_batch

    payloads = [b"BM" + b"\x00" * 50, None, b"<html>", b"",
                b"RIFF1234WAVEdata", b"xxxBM"]
    batch = pa.table({"payload": pa.array(payloads, pa.binary())})
    sliced = batch.slice(1, 4)         # nonzero offset window
    got = sniff_batch(sliced)["sniffed_type"].to_pylist()
    assert got == ["application/octet-stream", "text/html",
                   "application/octet-stream", "audio/wav"]
    full = sniff_batch(batch)["sniffed_type"].to_pylist()
    assert full == ["image/bmp", "application/octet-stream",
                    "text/html", "application/octet-stream",
                    "audio/wav", "application/octet-stream"]


def _scalar_unfilter(scanlines, w, h, bpp):
    import numpy as np

    out = [[0] * (w * bpp) for _ in range(h)]
    for y, (f, line) in enumerate(scanlines):
        for i in range(w * bpp):
            a = out[y][i - bpp] if i >= bpp else 0
            b = out[y - 1][i] if y else 0
            c = out[y - 1][i - bpp] if (y and i >= bpp) else 0
            x = line[i]
            if f == 0:
                r = x
            elif f == 1:
                r = (x + a) % 256
            elif f == 2:
                r = (x + b) % 256
            elif f == 3:
                r = (x + (a + b) // 2) % 256
            else:
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else c)
                r = (x + pred) % 256
            out[y][i] = r
    import numpy as np
    return np.array(out, np.uint8)


def _build_png(scanlines, w, h, color):
    import struct
    import zlib

    from cdx_toolkit_ray.stages.multimodal import _PNG_SIG, _png_chunk

    raw = b"".join(bytes([f]) + bytes(s) for f, s in scanlines)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b""))


def test_png_roundtrip_gray_and_rgb():
    import numpy as np

    from cdx_toolkit_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(0)
    for shape in [(8, 8), (10, 13), (1, 1), (5, 7, 3), (16, 3, 3)]:
        px = rng.integers(0, 256, shape).astype(np.uint8)
        assert (decode_png(encode_png(px)) == px).all()


def test_png_all_filters_match_scalar_reference():
    import numpy as np

    from cdx_toolkit_ray.stages.multimodal import decode_png

    rng = np.random.default_rng(1)
    for bpp, color in [(1, 0), (3, 2)]:
        w, h = 6, 10
        lines = [(y % 5, list(rng.integers(0, 256, w * bpp)))
                 for y in range(h)]
        got = decode_png(_build_png(lines, w, h, color)) \
            .reshape(h, w * bpp)
        assert (got == _scalar_unfilter(lines, w, h, bpp)).all()


def test_png_rejects_garbage():
    import struct
    import zlib

    import numpy as np
    import pytest

    from cdx_toolkit_ray.stages.multimodal import (_PNG_SIG, _png_chunk,
                                                   decode_png,
                                                   encode_png)

    with pytest.raises(ValueError, match="signature"):
        decode_png(b"BM123456")
    good = encode_png(np.zeros((4, 4), np.uint8))
    bad = bytearray(good)
    bad[20] ^= 0xFF  # corrupt IHDR body -> CRC mismatch
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(bad))
    # 16-bit gray is SUPPORTED now (round 4): decodes to uint16 zeros
    ihdr = struct.pack(">IIBBBBB", 4, 4, 16, 0, 0, 0, 0)
    png16 = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
             + _png_chunk(b"IDAT", zlib.compress(b"\0" * 36))
             + _png_chunk(b"IEND", b""))
    got16 = decode_png(png16)
    assert got16.dtype == np.uint16 and (got16 == 0).all()
    # 1-bit gray is SUPPORTED now (round 5): 4x4 of packed zeros
    # (scanline = 1 filter byte + 1 data byte)
    ihdr1 = struct.pack(">IIBBBBB", 4, 4, 1, 0, 0, 0, 0)
    png1 = (_PNG_SIG + _png_chunk(b"IHDR", ihdr1)
            + _png_chunk(b"IDAT", zlib.compress(b"\0" * 8))
            + _png_chunk(b"IEND", b""))
    got1 = decode_png(png1)
    assert got1.shape == (4, 4) and (got1 == 0).all()
    # 3-bit depth is not a legal PNG depth -> clear error
    ihdr3 = struct.pack(">IIBBBBB", 4, 4, 3, 0, 0, 0, 0)
    png3 = (_PNG_SIG + _png_chunk(b"IHDR", ihdr3)
            + _png_chunk(b"IDAT", zlib.compress(b"\0" * 12))
            + _png_chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="unsupported"):
        decode_png(png3)


def test_sniff_detects_png():
    import numpy as np
    import pyarrow as pa

    from cdx_toolkit_ray.stages.multimodal import (encode_png,
                                                   sniff_batch)

    png = encode_png(np.zeros((3, 3), np.uint8))
    t = pa.table({"payload": pa.array(
        [png, b"BM1234567890", b"  <html>", b"\x89PNGxxxx"],
        pa.binary())})
    got = sniff_batch(t)["sniffed_type"].to_pylist()
    assert got == ["image/png", "image/bmp", "text/html",
                   "application/octet-stream"]


def test_media_decoder_png_path(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from cdx_toolkit_ray.stages.multimodal import (MediaDecoder,
                                                   encode_png)

    rng = np.random.default_rng(2)
    gray = rng.integers(0, 256, (6, 9)).astype(np.uint8)
    rgb = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
    ds = ray.data.from_arrow(pa.table({
        "payload": pa.array([encode_png(gray), encode_png(rgb)],
                            pa.binary())}))
    out = ds.map_batches(MediaDecoder,
                         fn_constructor_kwargs={"decoder": "png"},
                         batch_format="pyarrow", batch_size=2,
                         concurrency=1).to_pandas()
    assert list(out.width) == [9, 5] and list(out.height) == [6, 4]
    # histogram matches a direct computation for the gray image
    want = np.bincount((gray.astype(np.int64) >> 4).ravel(),
                       minlength=16).astype(np.float32)
    want /= want.sum()
    assert np.allclose(np.array(out.features[0]), want)


def _chunk(tag, body):
    import struct
    import zlib

    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def _build_png_spec(pixels, *, depth=8, interlace=0):
    """Independent PNG writer for decode tests: filter 0 on every
    scanline, optional Adam7 interlacing and 16-bit big-endian
    samples — built from the spec, not from the codec under test."""
    import struct
    import zlib

    import numpy as np

    from cdx_toolkit_ray.stages.multimodal import _PNG_SIG

    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, c = pixels.shape
    color = {1: 0, 2: 4, 3: 2, 4: 6}[c]

    def rows_bytes(img):
        hh, ww, _ = img.shape
        if depth == 8:
            flat = img.astype(np.uint8).reshape(hh, ww * c)
        else:
            v = img.astype(np.uint16)
            flat = np.zeros((hh, ww * c * 2), np.uint8)
            flat[:, 0::2] = (v >> 8).reshape(hh, ww * c)
            flat[:, 1::2] = (v & 0xFF).reshape(hh, ww * c)
        return b"".join(b"\x00" + flat[y].tobytes() for y in range(hh))

    if interlace == 0:
        raw = rows_bytes(pixels)
    else:
        passes = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8),
                  (2, 0, 4, 4), (0, 2, 2, 4), (1, 0, 2, 2),
                  (0, 1, 1, 2))
        raw = b"".join(rows_bytes(pixels[y0::dy, x0::dx])
                       for x0, y0, dx, dy in passes
                       if pixels[y0::dy, x0::dx].size)
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, interlace)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw, 6))
            + _chunk(b"IEND", b""))


def test_png_decode_adam7_interlaced():
    """Adam7 files decode to the same pixels as their sequential twin
    (the real-web-corpus case the codec previously rejected)."""
    from cdx_toolkit_ray.stages.multimodal import decode_png

    rng = np.random.default_rng(7)
    for shape in ((13, 11, 3), (8, 8), (5, 3, 4), (1, 9), (9, 1, 2)):
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        seq = decode_png(_build_png_spec(img, interlace=0))
        adam = decode_png(_build_png_spec(img, interlace=1))
        np.testing.assert_array_equal(seq, adam)
        np.testing.assert_array_equal(adam.reshape(img.shape), img)


def test_png_decode_16bit_and_alpha():
    from cdx_toolkit_ray.stages.multimodal import decode_png

    rng = np.random.default_rng(11)
    img16 = rng.integers(0, 65536, (6, 7), dtype=np.uint16)
    got = decode_png(_build_png_spec(img16, depth=16))
    assert got.dtype == np.uint16
    np.testing.assert_array_equal(got, img16)

    rgba = rng.integers(0, 256, (9, 4, 4), dtype=np.uint8)
    np.testing.assert_array_equal(decode_png(_build_png_spec(rgba)), rgba)
    ga16 = rng.integers(0, 65536, (3, 5, 2), dtype=np.uint16)
    got = decode_png(_build_png_spec(ga16, depth=16, interlace=1))
    assert got.dtype == np.uint16
    np.testing.assert_array_equal(got, ga16)


def test_png_palette_decode_and_boundaries():
    """8-bit palette PNGs resolve through PLTE (RGB) and tRNS (RGBA);
    a missing PLTE and sub-8-bit packed depths fail loudly."""
    import struct
    import zlib

    from cdx_toolkit_ray.stages.multimodal import _PNG_SIG, decode_png

    pal = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])   # R, G, B
    idx_rows = b"\x00" + bytes([0, 1]) + b"\x00" + bytes([2, 0])
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    blob = (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"PLTE", pal)
            + _chunk(b"IDAT", zlib.compress(idx_rows))
            + _chunk(b"IEND", b""))
    got = decode_png(blob)
    np.testing.assert_array_equal(got, np.array(
        [[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [255, 0, 0]]],
        np.uint8))

    # tRNS adds per-index alpha (missing entries default 255)
    blob_a = (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"PLTE", pal)
              + _chunk(b"tRNS", bytes([10, 200]))
              + _chunk(b"IDAT", zlib.compress(idx_rows))
              + _chunk(b"IEND", b""))
    got_a = decode_png(blob_a)
    assert got_a.shape == (2, 2, 4)
    np.testing.assert_array_equal(got_a[..., 3],
                                  [[10, 200], [255, 10]])

    # missing PLTE -> loud error
    no_plte = (_PNG_SIG + _chunk(b"IHDR", ihdr)
               + _chunk(b"IDAT", zlib.compress(idx_rows))
               + _chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="PLTE"):
        decode_png(no_plte)

    # out-of-range palette index -> loud error
    bad_idx = (_PNG_SIG + _chunk(b"IHDR", ihdr)
               + _chunk(b"PLTE", pal)
               + _chunk(b"IDAT", zlib.compress(
                   b"\x00" + bytes([7, 1]) + b"\x00" + bytes([2, 0])))
               + _chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="palette index"):
        decode_png(bad_idx)

    # sub-8-bit packed palette is SUPPORTED now (round 5): 4-bit
    # indices pack two-per-byte MSB-first; 2x2 of [[0,1],[0,2]]
    ihdr4 = struct.pack(">IIBBBBB", 2, 2, 4, 3, 0, 0, 0)
    packed = (_PNG_SIG + _chunk(b"IHDR", ihdr4) + _chunk(b"PLTE", pal)
              + _chunk(b"IDAT", zlib.compress(b"\x00\x01\x00\x02"))
              + _chunk(b"IEND", b""))
    got_p = decode_png(packed)
    np.testing.assert_array_equal(got_p, np.array(
        [[[255, 0, 0], [0, 255, 0]], [[255, 0, 0], [0, 0, 255]]],
        np.uint8))


from hypothesis import given, settings
from hypothesis import strategies as hst


@given(seed=hst.integers(0, 10_000),
       h=hst.integers(1, 21), w=hst.integers(1, 21),
       c=hst.sampled_from([1, 2, 3, 4]),
       depth=hst.sampled_from([8, 16]),
       interlace=hst.sampled_from([0, 1]))
@settings(max_examples=120, deadline=None)
def test_png_decode_property_roundtrip(seed, h, w, c, depth,
                                       interlace):
    """Any (shape, channels, depth, interlace) built by the
    independent spec writer decodes to the original pixels — the
    mechanical sweep over the Adam7 pass geometry and 16-bit byte
    packing that example-based tests only sample."""
    from cdx_toolkit_ray.stages.multimodal import decode_png

    rng = np.random.default_rng(seed)
    hi = 256 if depth == 8 else 65536
    dt = np.uint8 if depth == 8 else np.uint16
    shape = (h, w) if c == 1 else (h, w, c)
    img = rng.integers(0, hi, shape, dtype=dt)
    got = decode_png(_build_png_spec(img, depth=depth,
                                     interlace=interlace))
    assert got.dtype == dt
    np.testing.assert_array_equal(got.reshape(shape), img)


def _build_packed_png(samples, depth, color, palette=None, trns=None,
                      interlace=0):
    """Test-side packed sub-8-bit PNG builder (gray type 0 or palette
    type 3): samples (h, w) of raw values < 2**depth, MSB-first
    byte-aligned scanlines, filter 0, optional Adam7."""
    import struct
    import zlib

    from cdx_toolkit_ray.stages.multimodal import _PNG_SIG, _png_chunk

    h, w = samples.shape

    def rows_bytes(sub):
        hh, ww = sub.shape
        if hh == 0 or ww == 0:
            return b""
        bits = np.unpackbits(sub.astype(np.uint8)[:, :, None],
                             axis=2)[:, :, 8 - depth:]
        rows = np.packbits(bits.reshape(hh, ww * depth), axis=1)
        return b"".join(b"\x00" + rows[y].tobytes()
                        for y in range(hh))

    if interlace == 0:
        raw = rows_bytes(samples)
    else:
        passes = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8),
                  (2, 0, 4, 4), (0, 2, 2, 4), (1, 0, 2, 2),
                  (0, 1, 1, 2))
        raw = b"".join(rows_bytes(samples[y0::dy, x0::dx])
                       for x0, y0, dx, dy in passes)
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, interlace)
    png = _PNG_SIG + _png_chunk(b"IHDR", ihdr)
    if palette is not None:
        png += _png_chunk(b"PLTE", palette.astype(np.uint8).tobytes())
    if trns is not None:
        png += _png_chunk(b"tRNS", bytes(trns))
    png += _png_chunk(b"IDAT", zlib.compress(raw, 6))
    return png + _png_chunk(b"IEND", b"")


def test_png_packed_gray_truth_table():
    """Hand-computed 1/2/4-bit gray values decode to the exact
    255/(2^d - 1)-scaled 8-bit samples (spec sample scaling)."""
    from cdx_toolkit_ray.stages.multimodal import decode_png, encode_png

    # depth 2, 2x5 (scanline = 10 bits -> 2 bytes, padded tail)
    s = np.array([[0, 1, 2, 3, 0], [3, 2, 1, 0, 2]], np.uint8)
    dec = decode_png(_build_packed_png(s, 2, 0))
    np.testing.assert_array_equal(dec, s * 85)
    # depth 1: 0/255 bilevel
    s1 = np.array([[1, 0, 1, 1, 0, 0, 1, 0, 1]], np.uint8)
    np.testing.assert_array_equal(
        decode_png(_build_packed_png(s1, 1, 0)), s1 * 255)
    # depth 4 via the library encoder, odd width
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        px = rng.integers(0, 1 << d, (7, 13), dtype=np.uint8)
        got = decode_png(encode_png(px, depth=d))
        np.testing.assert_array_equal(got, px * (255 // ((1 << d) - 1)))


def test_png_packed_palette_and_trns():
    from cdx_toolkit_ray.stages.multimodal import decode_png

    pal = np.array([[250, 10, 3], [0, 128, 255], [7, 7, 7], [90, 0, 1]],
                   np.uint8)
    s = np.array([[0, 3, 1], [2, 1, 0]], np.uint8)
    dec = decode_png(_build_packed_png(s, 2, 3, palette=pal))
    np.testing.assert_array_equal(dec, pal[s])
    # tRNS alpha on a 1-bit palette
    s1 = np.array([[0, 1, 1, 0, 1]], np.uint8)
    dec_a = decode_png(_build_packed_png(s1, 1, 3, palette=pal[:2],
                                         trns=[64]))
    np.testing.assert_array_equal(dec_a[..., :3], pal[:2][s1])
    np.testing.assert_array_equal(dec_a[..., 3],
                                  np.where(s1 == 0, 64, 255))


def test_png_packed_interlaced_palette_matches_sequential():
    """The VERDICT-named combination: Adam7-interlaced sub-8-bit
    palette — per-pass byte-aligned packing must agree with the
    sequential twin on every geometry including single-pixel rows."""
    from cdx_toolkit_ray.stages.multimodal import decode_png

    rng = np.random.default_rng(9)
    pal = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    for d in (1, 2, 4):
        for shape in ((13, 11), (8, 8), (1, 9), (9, 1), (3, 17)):
            s = rng.integers(0, 1 << d, shape, dtype=np.uint8)
            seq = decode_png(_build_packed_png(s, d, 3,
                                               palette=pal[:1 << d]))
            adam = decode_png(_build_packed_png(s, d, 3,
                                                palette=pal[:1 << d],
                                                interlace=1))
            np.testing.assert_array_equal(seq, adam)
            np.testing.assert_array_equal(seq, pal[:1 << d][s])
    # interlaced packed GRAY too
    for d in (1, 2, 4):
        s = rng.integers(0, 1 << d, (10, 10), dtype=np.uint8)
        seq = decode_png(_build_packed_png(s, d, 0))
        adam = decode_png(_build_packed_png(s, d, 0, interlace=1))
        np.testing.assert_array_equal(seq, adam)


def test_png_packed_boundaries():
    import pytest as _pytest

    from cdx_toolkit_ray.stages.multimodal import decode_png, encode_png

    # packed depths are gray/palette-only: a depth-2 RGB IHDR rejects
    s = np.array([[1, 0]], np.uint8)
    bad = bytearray(_build_packed_png(s, 2, 0))
    # rewrite color byte (IHDR body offset: 8 sig + 8 hdr + 9th byte)
    import struct
    import zlib

    from cdx_toolkit_ray.stages.multimodal import _PNG_SIG, _png_chunk

    ihdr = struct.pack(">IIBBBBB", 2, 1, 2, 2, 0, 0, 0)
    bad = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
           + _png_chunk(b"IDAT", zlib.compress(b"\x00\x11\x22"))
           + _png_chunk(b"IEND", b""))
    with _pytest.raises(ValueError, match="unsupported"):
        decode_png(bad)
    # encoder rejects out-of-range samples and non-gray packed input
    with _pytest.raises(ValueError, match="range"):
        encode_png(np.array([[4]], np.uint8), depth=2)
    with _pytest.raises(ValueError, match="grayscale-only"):
        encode_png(np.zeros((2, 2, 3), np.uint8), depth=4)
