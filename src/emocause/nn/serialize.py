"""Flat binary container for trained model parameters.

Layout (all integers little-endian u32, all floats little-endian f64):

    bytes 0..4   magic "ECPE1" (ASCII)
    u32          number of descriptor values that follow
    u32 * n      architecture descriptor (model kind + dims)
    f64 * ...    parameter tensors, raw row-major, in declaration order

The descriptor alone determines every tensor shape, so the payload carries
no per-tensor headers. Kind codes: 1 = emotion classifier, 2 = cause scorer.

A file is written to a temporary file in the target's directory and then
renamed over the target, so a failed write leaves any earlier file intact.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..errors import DataError

MAGIC = b"ECPE1"

KIND_EMOTION = 1
KIND_CAUSE = 2


def save_container(path, descriptor: list[int], tensors: list[np.ndarray]) -> None:
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(descriptor)))
            for value in descriptor:
                fh.write(struct.pack("<I", value))
            for tensor in tensors:
                fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_container(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Returns (descriptor, flat float64 payload)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    offset = len(MAGIC)
    if len(blob) < offset + 4:
        raise DataError(f"{path}: truncated descriptor")
    (n,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if len(blob) < offset + 4 * n:
        raise DataError(f"{path}: truncated descriptor")
    descriptor = struct.unpack_from(f"<{n}I", blob, offset)
    offset += 4 * n
    payload = blob[offset:]
    if len(payload) % 8 != 0:
        raise DataError(f"{path}: payload is not a whole number of f64 values")
    return descriptor, np.frombuffer(payload, dtype="<f8")


def split_payload(payload: np.ndarray, shapes: list[tuple[int, ...]], path) -> list[np.ndarray]:
    sizes = [int(np.prod(s)) for s in shapes]
    if payload.size != sum(sizes):
        raise DataError(f"{path}: payload holds {payload.size} values, expected {sum(sizes)}")
    out = []
    start = 0
    for shape, size in zip(shapes, sizes):
        out.append(payload[start:start + size].reshape(shape).copy())
        start += size
    return out
