"""Binary PPM (P6, maxval 255) reader/writer; 8-bit values map to [0,1] by v/255."""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from .raster import Image, PixelMask


def _read_token(fh) -> bytes:
    # Tokens are separated by whitespace; '#' starts a comment to end of line.
    tok = b""
    while True:
        ch = fh.read(1)
        if not ch:
            if tok:
                return tok
            raise FormatError("unexpected end of PPM header")
        if ch == b"#":
            while ch not in (b"", b"\n"):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def read_ppm(path) -> Image:
    with open(path, "rb") as fh:
        if _read_token(fh) != b"P6":
            raise FormatError(f"{path}: not a binary P6 PPM")
        try:
            width = int(_read_token(fh))
            height = int(_read_token(fh))
            maxval = int(_read_token(fh))
        except ValueError as exc:
            raise FormatError(f"{path}: malformed header") from exc
        if width < 1 or height < 1:
            raise FormatError(f"{path}: bad dimensions {width}x{height}")
        if maxval != 255:
            raise FormatError(f"{path}: unsupported maxval {maxval}")
        payload = fh.read(3 * width * height)
    if len(payload) != 3 * width * height:
        raise IOError(f"{path}: truncated payload")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(raw.astype(np.float64) / 255.0)


def write_ppm(image: Image, path) -> None:
    quantized = np.clip(np.round(image.data * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (image.width, image.height))
        fh.write(quantized.tobytes())


def mask_to_image(mask: PixelMask) -> Image:
    """Expand a binary mask to a black/white 3-channel image for PPM output."""
    return Image(np.repeat(mask.data[:, :, None].astype(np.float64), 3, axis=2))


def image_to_mask(image: Image) -> PixelMask:
    """Inverse of mask_to_image: any channel above 0.5 marks the pixel."""
    return PixelMask((image.data.max(axis=2) > 0.5).astype(np.uint8))
