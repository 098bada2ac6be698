"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  b"MXFL"
    version u32      format version (currently 2)
    mlen    u64      manifest length in bytes
    manifest         UTF-8 strict JSON object (architecture dims, widths,
                     block counts, training metadata; no NaN or infinity)
    count   u64      number of named arrays
    per array:
        nlen  u32, name UTF-8
        dlen  u16, dtype string (numpy little-endian spec, e.g. "<f4")
        ndim  u32, shape ndim*u64
        raw C-order array bytes
    check   32 bytes sha256 of every byte before it (version 2 only)

Version 1 files (no check digest) are still read. Every read is
bounds-checked, so a truncated or corrupt file raises DataFormatError and
nothing else; the check digest makes any changed byte of a version 2 file
an error as well. It costs no extra pass: one running sha256 yields both
it and the checkpoint id.

Round-trips bit-exactly; the sha256 of the file doubles as checkpoint id.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from ..errors import DataFormatError, NumericError
from ..io import write_file

MAGIC = b"MXFL"
FORMAT_VERSION = 2

__all__ = ["save_checkpoint", "load_checkpoint", "check_arrays", "checkpoint_id", "FORMAT_VERSION"]


def _chunks(manifest: dict, arrays: dict[str, np.ndarray]):
    """The container's bytes before the check digest, in order, each
    array's as a view of its C-order data."""
    try:  # strict JSON: NaN and infinities have no JSON token
        mbytes = json.dumps(manifest, sort_keys=True, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise NumericError(f"checkpoint manifest holds a non-finite number ({exc})") from None
    yield MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(mbytes))
    yield mbytes
    yield struct.pack("<Q", len(arrays))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        le = arr.dtype.newbyteorder("<")
        arr = arr.astype(le, copy=False)
        nbytes = name.encode("utf-8")
        dbytes = le.str.encode("ascii")
        yield (struct.pack("<I", len(nbytes)) + nbytes + struct.pack("<H", len(dbytes)) + dbytes
               + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
        yield arr.reshape(-1).view(np.uint8)


def save_checkpoint(path, manifest: dict, arrays: dict[str, np.ndarray]) -> str:
    """Write the container atomically, streaming its chunks through the
    running sha256 on their way to the file; returns that sha256's hex
    digest, the file's."""
    running = hashlib.sha256()

    def checked():
        for chunk in _chunks(manifest, arrays):
            running.update(chunk)
            yield chunk
        check = running.digest()
        running.update(check)
        yield check

    write_file(path, checked())
    return running.hexdigest()


class _Reader:
    """Cursor over the file bytes; reading past the end, or bytes that do
    not decode, raises DataFormatError naming the file and offset."""

    def __init__(self, view: memoryview, path):
        self.view, self.off, self.path = view, 0, path

    def fail(self, what: str):
        raise DataFormatError(f"{self.path}: {what} at byte {self.off}")

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.view):
            self.fail(f"truncated: {n} bytes wanted, {len(self.view) - self.off} left")
        out = self.view[self.off:self.off + n]
        self.off += n
        return out

    def uint(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def text(self, n: int, encoding: str, what: str) -> str:
        raw = bytes(self.take(n))
        try:
            return raw.decode(encoding)
        except UnicodeDecodeError:
            self.fail(f"undecodable {what}")


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], str]:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(memoryview(blob), path)
    if len(blob) < 8 or bytes(r.take(4)) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    version = r.uint("<I")
    if version not in (1, FORMAT_VERSION):
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    # version 2 ends in the check digest, compared once the body has parsed
    body_len = max(len(blob) - 32, 0) if version == 2 else len(blob)
    r.view = r.view[:body_len]
    running = hashlib.sha256(r.view)
    check = running.digest()
    running.update(blob[body_len:])
    digest = running.hexdigest()
    try:
        manifest = json.loads(r.text(r.uint("<Q"), "utf-8", "manifest"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: manifest is not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        r.fail("manifest is not a JSON object")
    count = r.uint("<Q")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.text(r.uint("<I"), "utf-8", "array name")
        if name in arrays:
            r.fail(f"duplicate array {name!r}")
        spec = r.text(r.uint("<H"), "ascii", "dtype")
        try:
            dtype = np.dtype(spec)
        except (TypeError, ValueError, SyntaxError):  # numpy's spec parser raises all three
            dtype = None
        if dtype is None or dtype.kind not in "biufc":
            r.fail(f"array {name!r} has unsupported dtype {spec!r}")
        ndim = r.uint("<I")
        shape = tuple(int(s) for s in np.frombuffer(r.take(8 * ndim), dtype="<u8"))
        raw = r.take(math.prod(shape) * dtype.itemsize)
        try:
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError:  # more dimensions than numpy supports
            r.fail(f"array {name!r} has unsupported shape {shape}")
    if r.off != len(r.view):
        raise DataFormatError(f"{path}: {len(r.view) - r.off} trailing bytes")
    if version == 2 and check != blob[body_len:]:
        raise DataFormatError(f"{path}: check digest mismatch (corrupt file)")
    return manifest, arrays, digest


def checkpoint_id(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_arrays(what: str, arrays: dict[str, np.ndarray], shapes: dict[str, tuple]):
    """DataFormatError unless `arrays` holds exactly the names in `shapes`, with those shapes."""
    if arrays.keys() != shapes.keys():
        missing, extra = sorted(shapes.keys() - arrays.keys()), sorted(arrays.keys() - shapes.keys())
        raise DataFormatError(f"{what}: missing {missing[:5]}, unexpected {extra[:5]}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise DataFormatError(f"{what}: {name} has shape {arrays[name].shape}, expected {shape}")
