"""The checkpoint encoder as it was written before saves were streamed.

`_encode` builds the whole container body (everything before the check
digest) as one bytes object. It is kept only as the oracle that
`mixedflow.nn.checkpoint.save_checkpoint` must reproduce byte for byte:
the body, then its sha256 as the check digest.
"""

import json
import struct

import numpy as np

from mixedflow.nn.checkpoint import FORMAT_VERSION, MAGIC


def encode(manifest: dict, arrays: dict[str, np.ndarray]) -> bytes:
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    mbytes = json.dumps(manifest, sort_keys=True, allow_nan=False).encode("utf-8")
    chunks.append(struct.pack("<Q", len(mbytes)))
    chunks.append(mbytes)
    chunks.append(struct.pack("<Q", len(arrays)))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        le = arr.dtype.newbyteorder("<")
        arr = arr.astype(le, copy=False)
        nbytes = name.encode("utf-8")
        dbytes = le.str.encode("ascii")
        chunks.append(struct.pack("<I", len(nbytes)))
        chunks.append(nbytes)
        chunks.append(struct.pack("<H", len(dbytes)))
        chunks.append(dbytes)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes(order="C"))
    return b"".join(chunks)
