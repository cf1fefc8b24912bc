"""Graph variables: tensors with explicit tile mappings.

A variable's data never lives in one place — it is sharded across tile SRAM
according to its mapping, exactly as Poplar tensors are.  Three mapping
shapes cover the framework's needs:

- **linear**: contiguous index ranges across a set of tiles (vectors,
  matrix row blocks),
- **single-tile**: whole tensor on one tile,
- **replicated**: every participating tile holds a full copy (solver
  scalars like alpha/omega, which every tile consumes after a reduction).

Double-word variables shard into *pairs* of float32 arrays (hi, lo).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dw.eft import from_float64

__all__ = ["Interval", "Shard", "Variable", "NUMPY_DTYPES"]

#: dtype-name -> numpy storage dtype of the primary (hi) array.
NUMPY_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "dw": np.float32,
    "int32": np.int32,
}

#: dtypes that carry a second (lo) float32 array per shard.
_PAIRED = {"dw"}


@dataclass(frozen=True)
class Interval:
    """A contiguous chunk ``[start, stop)`` of a variable on one tile."""

    tile_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


class Shard:
    """The on-tile storage of one interval (or full copy) of a variable.

    ``size`` is the *logical* element count of the interval — for a batched
    variable the backing array has shape ``(size, batch)``, so callers that
    reason about per-element work (vertex splitting, scalar detection) must
    use ``size``, not ``data.size``.
    """

    __slots__ = ("data", "lo", "interval")

    def __init__(self, data: np.ndarray, lo, interval: Interval):
        self.data = data
        self.lo = lo
        self.interval = interval

    @property
    def size(self) -> int:
        return self.interval.size


class Variable:
    """A tensor distributed over tile SRAM.

    Shards are *views* into one flat per-device buffer (``flat_data`` /
    ``flat_lo``): a distributed variable's buffer is indexed by global
    element (shard ``t`` is ``flat_data[start:stop]``), a replicated
    variable's buffer has one row per replica (``replica_rows`` maps
    ``tile_id`` to its row).  Tile-local codelets and exchange copies go
    through the views exactly as before; the fused kernels
    (:mod:`repro.graph.passes.kernels`) operate on the flat buffers
    directly, which is what hoists gather/scatter out of the hot path.

    A variable may carry a trailing *batch* axis of width ``batch`` (multi-RHS
    solves): storage becomes ``(n, batch)`` element-major, so every exchange
    copy — which indexes axis 0 — moves all ``batch`` columns of an element in
    one instruction, and ``batch == 1`` keeps the exact 1-D layout (and
    bit-identical artifacts) of the unbatched code.  Host-facing
    ``gather``/``scatter`` use the conventional batch-*leading* ``(batch, n)``
    orientation and transpose at the boundary.
    """

    def __init__(
        self, name: str, shape, dtype: str, replicated: bool = False, batch: int = 1
    ):
        if dtype not in NUMPY_DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.replicated = replicated
        self.batch = int(batch)
        self.shards: dict[int, Shard] = {}
        #: Flat per-device storage backing the shard views (see class doc).
        self.flat_data: np.ndarray | None = None
        self.flat_lo: np.ndarray | None = None
        #: Replicated variables: tile_id -> row index into ``flat_data``.
        self.replica_rows: dict[int, int] = {}

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def is_scalar(self) -> bool:
        return self.size == 1

    @property
    def batched(self) -> bool:
        return self.batch > 1

    @property
    def paired(self) -> bool:
        return self.dtype in _PAIRED

    @property
    def tile_ids(self):
        return sorted(self.shards)

    def shard(self, tile_id: int) -> Shard:
        return self.shards[tile_id]

    def element_bytes(self) -> int:
        base = np.dtype(NUMPY_DTYPES[self.dtype]).itemsize
        return base * 2 if self.paired else base

    def unit_bytes(self) -> int:
        """Bytes moved per *logical* element — all batch columns ride along."""
        return self.element_bytes() * self.batch

    # -- host-side whole-tensor access ---------------------------------------------
    #
    # All of it goes through the flat buffers, never shard by shard: every
    # shard is a view into them (``Graph._alloc_shard``), so one array
    # assignment per variable reads or writes the whole device.

    def snapshot(self) -> tuple:
        """A copy of the variable's whole storage: ``(flat_data, flat_lo)``
        (``flat_lo`` is ``None`` unless the dtype is paired)."""
        return self.flat_data.copy(), None if self.flat_lo is None else self.flat_lo.copy()

    def restore(self, snap) -> None:
        """Write a :meth:`snapshot` (or arrays broadcastable to the storage
        layout) back into the storage, in place."""
        data, lo = snap
        self.flat_data[...] = data
        if lo is not None:
            self.flat_lo[...] = lo

    def gather(self) -> np.ndarray:
        """Assemble the full tensor on the host (float64 view for dw).

        Batched variables return batch-leading ``(batch,) + shape``.
        """
        data, lo = self.flat_data, self.flat_lo
        if self.replicated:  # every replica holds the same values; read the first
            row = self.replica_rows[self.tile_ids[0]]
            data, lo = data[row], None if lo is None else lo[row]
        joined = data.astype(np.float64) + lo.astype(np.float64) if self.paired else data
        if self.batched:  # storage is element-major (n, batch)
            return np.array(joined.T, order="C").reshape((self.batch,) + self.shape)
        return np.array(joined).reshape(self.shape)  # a copy, never the storage

    def scatter(self, values) -> None:
        """Write a full host tensor into the storage.

        Batched variables take batch-leading ``(batch,) + shape`` (or plain
        ``shape``, broadcast to every batch column).
        """
        arr = np.asarray(values)
        if self.batched:
            if arr.size == self.size:  # one tensor broadcast across the batch
                flat = arr.reshape(self.size, 1)
            elif arr.size == self.size * self.batch:
                flat = arr.reshape(self.batch, self.size).T
            else:
                raise ValueError(
                    f"size mismatch: {arr.size} != {self.batch}x{self.size}"
                )
        else:
            flat = arr.reshape(-1)
            if flat.size != self.size:
                raise ValueError(f"size mismatch: {flat.size} != {self.size}")
        # ``flat`` is one replica's (or the whole distributed) layout; restore
        # broadcasts it over the batch columns and over the replica rows.
        if self.paired:
            self.restore(from_float64(flat))
        else:
            self.restore((flat, None))

    def __repr__(self):
        kind = "replicated" if self.replicated else f"{len(self.shards)} shards"
        batch = f", batch={self.batch}" if self.batched else ""
        return f"Variable({self.name!r}, shape={self.shape}, dtype={self.dtype}{batch}, {kind})"
