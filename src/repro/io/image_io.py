"""Minimal PGM image IO (no external imaging dependencies).

Grayscale images are written as PGM, ASCII P2 or raw P5.  The ASCII
flavour is trivially inspectable in a terminal; the raw flavour is what
real image tooling emits and is ~3x smaller.  ``read_pgm`` auto-detects
the flavour from the magic number, so the imaging CLI eats either
transparently.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.exceptions import SerializationError

__all__ = ["write_pgm", "read_pgm"]

PathLike = Union[str, Path]

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _header_tokens(data: bytes, count: int) -> Tuple[List[str], int]:
    """Read ``count`` whitespace-separated Netpbm header tokens.

    Returns the tokens and the offset just past the single whitespace
    byte terminating the last one — the raster start for the binary
    (P5) flavour.  ``#`` comments run to end of line, anywhere in
    the header.  Binary-safe: never decodes raster bytes as text.
    """
    tokens: List[str] = []
    i, n = 0, len(data)
    while len(tokens) < count:
        while i < n:
            c = data[i : i + 1]
            if c in _WHITESPACE:
                i += 1
            elif c == b"#":
                j = data.find(b"\n", i)
                i = n if j < 0 else j + 1
            else:
                break
        j = i
        while j < n and data[j : j + 1] not in _WHITESPACE + b"#":
            j += 1
        if j == i:
            raise SerializationError(
                f"truncated Netpbm header: expected {count} tokens, "
                f"found {len(tokens)}"
            )
        try:
            tokens.append(data[i:j].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise SerializationError(
                f"non-ASCII bytes in Netpbm header: {exc}"
            ) from exc
        i = j
    if i < n and data[i : i + 1] in _WHITESPACE:
        i += 1  # the single whitespace separating header from raster
    return tokens, i


def _check_2d(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise SerializationError(
            f"image must be 2-D, got shape {arr.shape}"
        )
    return arr


def write_pgm(
    image: np.ndarray,
    path: PathLike,
    max_value: int = 255,
    binary: bool = False,
) -> None:
    """Write a 2-D array in [0, 1] as a PGM file.

    ``binary=False`` writes ASCII P2; ``binary=True`` writes raw P5
    (one byte per pixel, or big-endian 16-bit when ``max_value`` > 255,
    per the Netpbm spec).
    """
    arr = _check_2d(image)
    if not 1 <= max_value <= 65535:
        raise SerializationError(
            f"max_value must be in [1, 65535], got {max_value}"
        )
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise SerializationError(
            f"pixel values must be in [0, 1], got range "
            f"[{arr.min():.3g}, {arr.max():.3g}]"
        )
    levels = np.rint(arr * max_value).astype(np.uint32)
    h, w = levels.shape
    if binary:
        header = f"P5\n{w} {h}\n{max_value}\n".encode("ascii")
        dtype = np.uint8 if max_value <= 255 else ">u2"
        raster = np.ascontiguousarray(levels, dtype=dtype).tobytes()
        Path(path).write_bytes(header + raster)
        return
    lines = ["P2", f"{w} {h}", f"{max_value}"]
    lines += [" ".join(str(int(v)) for v in row) for row in levels]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_pgm(path: PathLike) -> np.ndarray:
    """Read a PGM (ASCII P2 or raw P5) file into a [0, 1] float array."""
    data = Path(path).read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise SerializationError("not a PGM (P2/P5) file")
    try:
        tokens, offset = _header_tokens(data, 4)
        magic = tokens[0]
        w, h, maxv = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise SerializationError(f"malformed PGM header: {exc}") from exc
    if w < 1 or h < 1 or not 1 <= maxv <= 65535:
        raise SerializationError(
            f"bad PGM geometry: {w}x{h}, max {maxv}"
        )
    if magic == "P2":
        text = data[offset:].decode("ascii", errors="replace")
        body = [
            tok
            for line in text.splitlines()
            for tok in line.split("#", 1)[0].split()
        ]
        try:
            values = np.array([int(t) for t in body], dtype=np.float64)
        except ValueError as exc:
            raise SerializationError(f"malformed PGM: {exc}") from exc
        if values.size != w * h:
            raise SerializationError(
                f"PGM header promises {w * h} pixels, found {values.size}"
            )
    else:
        dtype = np.dtype(np.uint8) if maxv <= 255 else np.dtype(">u2")
        expected = w * h * dtype.itemsize
        raster = data[offset:]
        if len(raster) != expected:
            raise SerializationError(
                f"P5 raster is {len(raster)} bytes, expected {expected}"
            )
        values = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    if values.min() < 0 or values.max() > maxv:
        raise SerializationError("PGM pixel values exceed the stated maximum")
    return (values / maxv).reshape(h, w)
