"""Bit-exact binary snapshots of physical fields (the DPMF format).

Layout, all little-endian:
  magic 'DPMF', u32 version=1, u8 dim, u8 buoyancy_axis,
  u64 n per axis, f64 time, f64 values row-major.
A checkpoint is a snapshot followed by one trailing f64 carrying the 1D
module's accumulator g; readers tell the two apart by file length.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .spectral import Domain, PhysicalField

MAGIC = b"DPMF"
VERSION = 1


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """A file for writing that replaces path only when the block exits cleanly.

    The data go to a temporary file in the same directory, which os.replace
    then moves over path; a block that raises leaves path as it was and the
    temporary file removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_snapshot(path, time: float, field: PhysicalField, g: float | None = None):
    d = field.domain
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<4sIBB", MAGIC, VERSION, d.dim, d.buoyancy_axis))
        fh.write(struct.pack(f"<{d.dim}Q", *d.n))
        fh.write(struct.pack("<d", float(time)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
        if g is not None:
            fh.write(struct.pack("<d", float(g)))


def read_snapshot(path):
    """Read a snapshot or checkpoint; returns (time, field, g_or_None)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = struct.calcsize("<4sIBB")
    if len(raw) < head:
        raise ValueError(f"{path}: truncated snapshot")
    magic, version, dim, baxis = struct.unpack_from("<4sIBB", raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    off = head
    if len(raw) < off + 8 * dim + 8:
        raise ValueError(f"{path}: truncated snapshot header")
    n = struct.unpack_from(f"<{dim}Q", raw, off)
    off += 8 * dim
    (time,) = struct.unpack_from("<d", raw, off)
    off += 8
    count = 1
    for m in n:
        count *= m
    need = off + 8 * count
    if len(raw) not in (need, need + 8):
        raise ValueError(f"{path}: size {len(raw)} does not match header "
                         f"(expected {need} or {need + 8})")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(n)
    g = None
    if len(raw) == need + 8:
        (g,) = struct.unpack_from("<d", raw, need)
    field = PhysicalField(Domain(tuple(int(m) for m in n), int(baxis)),
                          values.astype(np.float64))
    return float(time), field, g
