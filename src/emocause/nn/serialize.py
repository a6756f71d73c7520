"""Flat binary container for trained model parameters and table sidecars.

Layout (all integers little-endian u32, all floats little-endian f64):

    bytes 0..4   magic "ECPE1" (ASCII)
    u32          number of descriptor values that follow
    u32 * n      architecture descriptor (model kind + dims)
    f64 * ...    the flat parameter vector

The descriptor alone determines every tensor shape, through the model's
layout table (bilstm_mlp.layout), so the payload carries no per-tensor
headers. Kind codes: 1 = emotion classifier, 2 = cause scorer,
3 = embedding-table sidecar (descriptor [3, V, d, the SHA-256 of the text
table as 8 u32 words], payload the (V, d) values row by row; see
embeddings.save_word_embeddings). A cause file written while the input
weights were stored row-interleaved has the same header but another
payload order; it must be retrained.

A file is written to a temporary file in the target's directory and then
renamed over the target (atomic_open), so a failed write leaves any earlier
file intact. The text embedding tables are written the same way.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from ..errors import DataError

MAGIC = b"ECPE1"

KIND_EMOTION = 1
KIND_CAUSE = 2
KIND_TABLE = 3


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """open() a temporary file in path's directory for writing. When the
    block ends cleanly the file is renamed over path; when it raises, the
    file is removed. So a failed write leaves any earlier file intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_container(path, descriptor: list[int], payload: np.ndarray) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(descriptor)))
        for value in descriptor:
            fh.write(struct.pack("<I", value))
        np.asarray(payload, dtype="<f8").tofile(fh)


def load_container(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Returns (descriptor, flat float64 payload). The payload is read
    straight into one array, so the file's bytes are held once."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a model file (bad magic)")
        head = fh.read(4)
        if len(head) < 4:
            raise DataError(f"{path}: truncated descriptor")
        (n,) = struct.unpack("<I", head)
        size = os.fstat(fh.fileno()).st_size
        # the count is checked against the file before it sizes a read
        if 4 * n > size - fh.tell():
            raise DataError(f"{path}: truncated descriptor ({n} values do not fit in the file)")
        descriptor = struct.unpack(f"<{n}I", fh.read(4 * n))
        # np.fromfile drops a trailing partial value, so check the size first
        if (size - fh.tell()) % 8 != 0:
            raise DataError(f"{path}: payload is not a whole number of f64 values")
        payload = np.fromfile(fh, dtype="<f8")
    return descriptor, payload
