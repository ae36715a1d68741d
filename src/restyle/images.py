"""Bit-exact PPM image I/O and pyramid resampling.

Images are numpy arrays of shape (H, W, 3), float32, values in [0, 1].
The only wire format is binary PPM (P6, maxval 255). `pyramid` halves an image
once per level below the top; the sides a walk takes are `encoder.side_multiple`'s.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, PpmParseError


def _validate(img, op):
    if not isinstance(img, np.ndarray) or img.ndim != 3 or img.shape[2] != 3:
        raise ContractError(f"{op}: expected an (H, W, 3) array")


def load_ppm(data: bytes) -> np.ndarray:
    """Parse binary P6 PPM bytes into an (H, W, 3) float image in [0,1]."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break

    def read_int(what):
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(data) and data[pos:pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise PpmParseError(f"expected {what}", start)
        if pos - start > 12:
            raise PpmParseError(f"{what} has {pos - start} digits, at most 12 allowed", start)
        return int(data[start:pos])

    if data[:2] != b"P6":
        raise PpmParseError(f"bad magic {data[:2]!r}, expected b'P6'", 0)
    pos = 2
    width = read_int("width")
    height = read_int("height")
    maxval = read_int("maxval")
    if maxval != 255:
        raise PpmParseError(f"maxval {maxval} unsupported, expected 255", pos)
    if width < 1 or height < 1:
        raise PpmParseError(f"bad dimensions {width}x{height}", 2)
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise PpmParseError("expected single whitespace after maxval", pos)
    pos += 1
    need = width * height * 3
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise PpmParseError(f"truncated payload, need {need} bytes, have {len(payload)}",
                            pos + len(payload))
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float32) / 255.0
    return pixels.reshape(height, width, 3)


def save_ppm(img: np.ndarray) -> bytes:
    """Encode an (H, W, 3) float image as binary P6 bytes (values clamped)."""
    _validate(img, "save_ppm")
    h, w, _ = img.shape
    quantized = np.rint(np.clip(img, 0.0, 1.0).astype(np.float32) * 255.0).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + quantized.tobytes()


def downsample(img: np.ndarray) -> np.ndarray:
    """Half-size float32 image by 2x2 average pooling per channel.

    The four pixels of each block are added left to right, top row first,
    as numpy's reshape-and-mean over the block axes adds them.
    """
    _validate(img, "downsample")
    h, w, _ = img.shape
    if h % 2 or w % 2:
        raise ContractError(f"downsample: dimensions must be even, got {h}x{w}")
    img = img.astype(np.float32, copy=False)
    total = ((img[0::2, 0::2] + img[0::2, 1::2]) + img[1::2, 0::2]) + img[1::2, 1::2]
    return total * np.float32(0.25)


def upsample(img: np.ndarray) -> np.ndarray:
    """Double-size image by nearest-neighbor duplication."""
    _validate(img, "upsample")
    h, w, c = img.shape
    # each row is widened once and written twice; four strided pixel writes
    # are slower here, since a pixel is only three values
    wide = np.repeat(img, 2, axis=1)
    out = np.empty((h, 2, 2 * w, c), dtype=img.dtype)
    out[:, 0] = wide
    out[:, 1] = wide
    return out.reshape(2 * h, 2 * w, c)


def pyramid(img, levels):
    """[level 1, ..., level `levels`] versions of img: level 1 is img itself,
    each further level the `downsample` of the one before."""
    chain = [img]
    for _ in range(levels - 1):
        chain.append(downsample(chain[-1]))
    return chain


def to_chw(img: np.ndarray) -> np.ndarray:
    """(H, W, 3) image -> (3, H, W) float32 feature layout."""
    _validate(img, "to_chw")
    return np.ascontiguousarray(img.transpose(2, 0, 1), dtype=np.float32)


def from_chw(chw: np.ndarray) -> np.ndarray:
    """(3, H, W) -> (H, W, 3) float32 image layout."""
    if chw.ndim != 3 or chw.shape[0] != 3:
        raise ContractError(f"from_chw: expected (3, H, W), got {chw.shape}")
    return np.ascontiguousarray(chw.transpose(1, 2, 0), dtype=np.float32)
