"""Multimodal (image/audio/video) column plumbing.

Media payloads are opaque Arrow ``binary`` cells with typed metadata —
same pattern as the PDF cells: the blob is the intra-row unit of work,
decode/feature stages are task stages over small pyarrow batches, with
one stage instance per worker process
(:func:`~..functions.broadcast.task_stage`).

Decode modes: :func:`decode_media` runs ``DecodeMedia``'s
deterministic fake decode (header sniff + content hash + fake
dimensions) so the Ray-side plumbing — schema, batch sizing, stage
signature, output layout — is testable and value-gated identically in
every container; ``DecodeMedia(deterministic=False)`` is the REAL decode — Pillow
when installed, else the built-in pure-python PNG codec
(:func:`decode_png`: stdlib zlib inflate + spec-correct unfiltering);
other formats without Pillow raise ``NotImplementedError`` marking
where a real codec (Pillow / ffmpeg) plugs in.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.broadcast import task_stage
from ..functions.hashing import stable_hash64

# rows per batch of the media stages (blobs are wide rows)
MEDIA_BATCH_SIZE = 16
# frames sampled from each video payload
NUM_FRAMES = 4

_MAGIC = {
    b"\xff\xd8\xff": "jpeg",
    b"\x89PNG": "png",
    b"GIF8": "gif",
    b"RIFF": "riff-wav",
    b"ID3": "mp3",
    b"\x00\x00\x00 ftyp": "mp4",
}


def sniff_media_format(payload: bytes) -> str:
    for magic, name in _MAGIC.items():
        if payload.startswith(magic):
            return name
    return "unknown"


def decode_png(payload: bytes):
    """REAL pure-python/numpy PNG decode — stdlib ``zlib`` inflate +
    spec-correct scanline unfiltering (W3C PNG §9, public spec).

    Supports the common web shapes: 8-bit depth, color types 0 (gray),
    2 (RGB), 4 (gray+alpha), 6 (RGBA), non-interlaced. Palette /
    16-bit / interlaced raise ``NotImplementedError``. Returns
    ``(width, height, channels, pixels)`` with ``pixels`` a
    ``(height, width, channels)`` uint8 array.

    NOTE: the kernel's ``undo_png_predictor`` deliberately keeps the
    PDF reference's raw-left Sub quirk (``filters.py``, mirroring
    ``/root/reference/pdf4py/_decoders.py:63``) for byte parity with
    the reference, so this decoder carries its own spec-correct
    unfilter: Sub adds the *reconstructed* left byte (vectorized as a
    per-channel cumsum mod 256), Average/Paeth walk the row."""
    import struct
    import zlib

    from ..kernel.filters import _paeth

    if not payload.startswith(b"\x89PNG\r\n\x1a\n"):
        raise ValueError("not a PNG payload")
    pos, ihdr, idat = 8, None, []
    while pos + 8 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos:pos + 4])
        tag = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif tag == b"IDAT":
            idat.append(data)
        elif tag == b"IEND":
            break
    if ihdr is None or not idat:
        raise ValueError("truncated PNG (missing IHDR/IDAT)")
    width, height, depth, ctype, _comp, _filt, interlace = ihdr
    if depth != 8 or interlace or ctype not in (0, 2, 4, 6):
        raise NotImplementedError(
            f"PNG shape not supported by the built-in decoder: "
            f"depth={depth} color_type={ctype} interlace={interlace}"
        )
    channels = {0: 1, 2: 3, 4: 2, 6: 4}[ctype]
    bpp = channels  # bytes per pixel at depth 8
    rowlen = width * bpp
    stride = rowlen + 1
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != stride * height:
        raise ValueError("PNG scanline payload size mismatch")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride)
    ftypes = arr[:, 0]
    body = arr[:, 1:].astype(np.int64)
    out = np.zeros((height, rowlen), dtype=np.int64)
    prev = np.zeros(rowlen, dtype=np.int64)
    for r in range(height):
        cur, ft = body[r], int(ftypes[r])
        if ft == 0:  # None
            dec = cur
        elif ft == 1:  # Sub: per-channel prefix sum mod 256
            dec = np.cumsum(cur.reshape(width, bpp), axis=0) % 256
            dec = dec.reshape(rowlen)
        elif ft == 2:  # Up
            dec = (cur + prev) % 256
        elif ft == 3:  # Average
            dec = cur.copy()
            for i in range(rowlen):
                left = dec[i - bpp] if i >= bpp else 0
                dec[i] = (cur[i] + (left + prev[i]) // 2) % 256
        elif ft == 4:  # Paeth
            dec = cur.copy()
            for i in range(rowlen):
                a = int(dec[i - bpp]) if i >= bpp else 0
                c = int(prev[i - bpp]) if i >= bpp else 0
                dec[i] = (cur[i] + _paeth(a, int(prev[i]), c)) % 256
        else:
            raise ValueError(f"invalid PNG row filter {ft}")
        out[r] = dec
        prev = out[r]
    return width, height, channels, out.astype(np.uint8).reshape(
        height, width, channels)


def _png_luminance(pixels: np.ndarray) -> np.ndarray:
    """ITU-R 601-2 luma, Pillow's exact integer ``convert('L')``
    arithmetic (``(R·19595 + G·38470 + B·7471 + 0x8000) >> 16``) so
    the built-in path and the Pillow path produce the same histogram
    on the same image. Gray inputs pass through; alpha is ignored."""
    c = pixels.shape[2]
    if c in (1, 2):  # gray / gray+alpha
        return pixels[:, :, 0]
    p = pixels.astype(np.uint32)
    return ((p[:, :, 0] * 19595 + p[:, :, 1] * 38470 + p[:, :, 2] * 7471
             + 0x8000) >> 16).astype(np.uint8)


def synth_media_table(num_rows: int = 64) -> pa.Table:
    """Deterministic fake media table for plumbing tests: binary
    payloads with recognizable magics + metadata columns."""
    kinds = ["image", "audio", "video"]
    magics = [b"\xff\xd8\xff", b"RIFF", b"\x00\x00\x00 ftyp"]
    rows = {"media_id": [], "kind": [], "payload": [], "meta": []}
    for i in range(num_rows):
        k = i % 3
        body = magics[k] + bytes((i * 31 + j) % 256 for j in range(256 + i % 128))
        rows["media_id"].append(i)
        rows["kind"].append(kinds[k])
        rows["payload"].append(body)
        rows["meta"].append('{"source": "synthetic"}')
    return pa.table(
        {
            "media_id": pa.array(rows["media_id"], type=pa.int64()),
            "kind": pa.array(rows["kind"], type=pa.string()),
            "payload": pa.array(rows["payload"], type=pa.binary()),
            "meta": pa.array(rows["meta"], type=pa.string()),
        }
    )


class DecodeMedia:
    """Task stage: binary payload → decoded metadata (+ features).

    Two modes, selected once per instance in ``__init__``:

    - ``deterministic=True`` (default): a deterministic fake decode
      (header sniff + content hash + hash-derived dimensions) so the
      Ray-side plumbing — schema, batch sizing, stage signature,
      output layout — is real and testable in containers without
      codec libraries, and so the driver's value gate is stable
      whether or not Pillow happens to be installed.
    - ``deterministic=False``: REAL image decode — Pillow when
      available, imported once at construction (codec setup once
      per worker process, never per batch), else the
      built-in pure-python :func:`decode_png` for PNG payloads (real
      pixels from a real inflate+unfilter, same luminance-histogram
      features via Pillow's exact ``convert('L')`` integer
      arithmetic). Width/height/format come from the decoded image
      and the feature vector is its grayscale histogram folded to
      ``feature_dim`` bins. A non-PNG payload without Pillow raises
      ``NotImplementedError`` at decode time — the honest marker for
      the missing codec, never a silent fake.
    """

    def __init__(self, deterministic: bool = True, feature_dim: int = 8) -> None:
        self.deterministic = deterministic
        self.feature_dim = feature_dim
        self._pil = None
        if not deterministic:
            try:  # optional dependency: resolved once per instance
                from PIL import Image

                self._pil = Image
            except ImportError:
                self._pil = None

    def _features_from_hist(self, hist: np.ndarray) -> np.ndarray:
        folded = hist.reshape(self.feature_dim, -1).sum(axis=1)
        total = folded.sum()
        return (folded / total if total else folded).astype(np.float32)

    def _decode_real(self, payload: bytes):
        """Real decode: dimensions/format + a grayscale-histogram
        feature vector (sum-normalized, ``feature_dim`` bins). Pillow
        when present; the built-in :func:`decode_png` otherwise."""
        h = stable_hash64(payload)
        if self._pil is not None:
            import io

            img = self._pil.open(io.BytesIO(payload))
            width, height = img.size
            fmt = (img.format or "unknown").lower()
            hist = np.asarray(img.convert("L").histogram(), dtype=np.float64)
            features = self._features_from_hist(hist)
            return fmt, len(payload), int(h >> 1), int(width), int(height), features
        if sniff_media_format(payload) == "png":
            width, height, _c, pixels = decode_png(payload)
            lum = _png_luminance(pixels)
            hist = np.bincount(lum.ravel(), minlength=256).astype(np.float64)
            features = self._features_from_hist(hist)
            return "png", len(payload), int(h >> 1), int(width), int(height), features
        raise NotImplementedError(
            "Real media decode for this format requires Pillow — not in "
            "this container (the built-in codec covers PNG only)."
        )

    def decode_one(self, payload: bytes):
        if not self.deterministic:
            return self._decode_real(payload)
        fmt = sniff_media_format(payload)
        h = stable_hash64(payload)
        rng = np.random.RandomState(h % (2**31))
        features = rng.standard_normal(self.feature_dim).astype(np.float32)
        width = 16 + h % 1024
        height = 16 + (h >> 10) % 1024
        return fmt, len(payload), int(h >> 1), int(width), int(height), features

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts, sizes, hashes, ws, hs, feats = [], [], [], [], [], []
        for payload in batch["payload"].to_pylist():
            fmt, size, h, w, ht, f = self.decode_one(payload or b"")
            fmts.append(fmt)
            sizes.append(size)
            hashes.append(h)
            ws.append(w)
            hs.append(ht)
            feats.append(f.tolist())
        out = batch.drop_columns(["payload"])  # blobs do not flow past decode
        out = out.append_column("format", pa.array(fmts, type=pa.string()))
        out = out.append_column("n_bytes", pa.array(sizes, type=pa.int64()))
        out = out.append_column("content_hash", pa.array(hashes, type=pa.int64()))
        out = out.append_column("width", pa.array(ws, type=pa.int32()))
        out = out.append_column("height", pa.array(hs, type=pa.int32()))
        out = out.append_column("features", pa.array(feats, type=pa.list_(pa.float32())))
        return out


def frame_sample(batch: pa.Table) -> pa.Table:
    """Deterministic frame sampling of 'video' payloads: splits each
    blob into ``NUM_FRAMES`` chunks and emits one row per sampled frame
    (the flat_map-shaped stage of a real video pipeline)."""
    rows = {"media_id": [], "frame_idx": [], "frame_hash": []}
    for mid, payload in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
        payload = payload or b""
        step = max(1, len(payload) // NUM_FRAMES)
        for fi in range(NUM_FRAMES):
            chunk = payload[fi * step : (fi + 1) * step]
            rows["media_id"].append(mid)
            rows["frame_idx"].append(fi)
            rows["frame_hash"].append(stable_hash64(chunk) >> 1)
    return pa.table(
        {
            "media_id": pa.array(rows["media_id"], type=pa.int64()),
            "frame_idx": pa.array(rows["frame_idx"], type=pa.int32()),
            "frame_hash": pa.array(rows["frame_hash"], type=pa.int64()),
        }
    )


def decode_media(ds):
    """Media decode pipeline stage (small batches: blobs are wide rows):
    :class:`DecodeMedia`'s deterministic decode, which the driver
    value-gates. ``DecodeMedia(deterministic=False)`` is the real
    decode."""
    return ds.map_batches(
        task_stage("decode_media", DecodeMedia),
        batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE,
    )


def sample_frames(ds):
    """``NUM_FRAMES`` frame rows per video payload (:func:`frame_sample`),
    a stateless task stage."""
    return ds.map_batches(frame_sample, batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE)
