"""The byte conventions of sharc's three binary formats: SHRCDAT4 frame
containers (`synth`), SHRCIDX2 gallery indexes (`gallery`) and SHRCENC1
encoder parameters (`encoders`). A file is an 8-byte magic, then fields:
little-endian u32 counts, text as a u32 byte length and UTF-8, little-endian
f32 payloads. Each format's own rules (tags, widths, counts) stay with it.
"""

from __future__ import annotations

import struct

import numpy as np

from .exceptions import CorruptFile, InvalidInput


def u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return u32(len(raw)) + raw


def f32(values, message: str | None = None) -> np.ndarray:
    """`values` as little-endian f32 (a value beyond its range becomes inf),
    refused with InvalidInput(message), if given, unless all are finite."""
    with np.errstate(over="ignore"):
        cast = np.asarray(values).astype("<f4")
    if message is not None and not np.all(np.isfinite(cast)):
        raise InvalidInput(message)
    return cast


class Reader:
    """One file's fields, taken in order after its magic. A refusal raises
    `error` naming the path; a magic in `retired` (magic -> hint) gets its hint."""

    def __init__(self, data: bytes, path, magic: bytes, error: type[CorruptFile] = CorruptFile, retired=None):
        self.data, self.path, self.error, self.offset = data, path, error, len(magic)
        found = data[: len(magic)]
        if retired and found in retired:
            raise self.corrupt(f"{found.decode()} {retired[found]}")
        if found != magic:
            raise self.corrupt(f"bad magic, not a {magic.decode()} file")

    def corrupt(self, message: str) -> CorruptFile:
        return self.error(f"{self.path}: {message}")

    def _take(self, size: int) -> int:
        """The offset of the next `size` bytes, which the reader then passes."""
        start = self.offset
        if size > len(self.data) - start:
            raise self.corrupt(f"truncated at byte {start}")
        self.offset += size
        return start

    def u32(self, count: int = 1) -> tuple[int, ...]:
        return struct.unpack_from(f"<{count}I", self.data, self._take(4 * count))

    def text(self) -> str:
        (size,) = self.u32()
        start = self._take(size)
        try:
            return self.data[start : start + size].decode("utf-8")
        except UnicodeDecodeError:
            raise self.corrupt("text field is not UTF-8") from None

    def array(self, dtype, count: int) -> np.ndarray:
        """The next `count` values of `dtype`: a read-only view of the bytes."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.data, dtype, count, offset=self._take(dtype.itemsize * count))

    def f32(self, count: int, message: str) -> np.ndarray:
        """The next `count` f32 values as float64, refused with `message` unless
        all are finite; checked before the cast, which warns on a signalling NaN."""
        raw = self.array("<f4", count)
        if not np.all(np.isfinite(raw)):
            raise self.corrupt(message)
        return raw.astype(np.float64)

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise self.corrupt(f"{len(self.data) - self.offset} trailing bytes")
