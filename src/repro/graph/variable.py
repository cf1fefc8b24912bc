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
    """A view of one tile's part of a variable: its interval (or full copy)
    of the flat storage, built on demand by :meth:`Variable.shard`.

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


def as_mapping(mapping) -> np.ndarray:
    """A tile mapping as a ``(k, 3)`` int64 array of ``(tile, start, stop)``
    rows: an array passes through, a sequence of :class:`Interval` is
    converted."""
    if isinstance(mapping, np.ndarray):
        return mapping.astype(np.int64, copy=False).reshape(-1, 3)
    rows = [(iv.tile_id, iv.start, iv.stop) for iv in mapping]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


class Variable:
    """A tensor distributed over tile SRAM.

    The storage is one flat per-device buffer (``flat_data`` / ``flat_lo``)
    and the tile mapping one ``(tile, start, stop)`` int array
    (``mapping``, a row per shard in mapping order).  A distributed
    variable's buffer is indexed by global element (tile ``t``'s shard is
    ``flat_data[start:stop]``); a replicated variable's buffer has one row
    per replica, row ``i`` on the tile of mapping row ``i`` (whose interval
    is the whole ``[0, size)``).  :meth:`shard` builds a tile's view on
    demand — the stepped ``sim`` path, the codelets and the fault injector
    read through such views; the fused kernels
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
        #: One ``(tile, start, stop)`` row per shard (see class doc).
        self.mapping = np.zeros((0, 3), dtype=np.int64)
        #: Flat per-device storage the shard views alias (see class doc).
        self.flat_data: np.ndarray | None = None
        self.flat_lo: np.ndarray | None = None
        self._lookup = None  # tile -> mapping row (-1: none), on first lookup
        self._views: dict = {}  # tile_id -> Shard, as the per-tile paths ask

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
    def tiles(self) -> np.ndarray:
        """The tile of each shard, in mapping order."""
        return self.mapping[:, 0]

    @property
    def tile_ids(self) -> list:
        return np.sort(self.tiles).tolist()

    def rows_of(self, tiles) -> np.ndarray:
        """The mapping row of each tile in ``tiles`` (for a replicated
        variable, its replica row), ``-1`` where the variable has no
        shard."""
        if self._lookup is None:  # tile -> row, up to one past the last tile
            self._lookup = np.full(int(self.tiles.max(initial=-1)) + 2, -1, dtype=np.int64)
            self._lookup[self.tiles] = np.arange(len(self.tiles))
        return self._lookup[np.minimum(tiles, len(self._lookup) - 1)]

    def maps(self, rows: np.ndarray) -> bool:
        """Whether every ``(tile, start, stop)`` row of ``rows`` is one of
        this variable's shards."""
        found = self.rows_of(rows[:, 0])
        return bool((found >= 0).all()) and np.array_equal(self.mapping[found], rows)

    def sizes_on(self, tiles, missing: int | None = None) -> np.ndarray:
        """Each tile's shard size (logical elements); ``missing`` where a
        tile holds no shard (``None``: ``KeyError``)."""
        rows = self.rows_of(tiles)
        sizes = self.mapping[rows, 2] - self.mapping[rows, 1]
        if (rows < 0).any():
            if missing is None:
                raise KeyError(int(np.asarray(tiles)[rows < 0][0]))
            sizes[rows < 0] = missing
        return sizes

    def shard(self, tile_id: int) -> Shard:
        """A view of ``tile_id``'s part of the storage, built on first use
        (only the per-tile paths ask) and kept."""
        sh = self._views.get(tile_id)
        if sh is None:
            row = int(self.rows_of(tile_id))
            if row < 0:
                raise KeyError(tile_id)
            start, stop = self.mapping[row, 1:].tolist()
            index = row if self.replicated else slice(start, stop)
            lo = None if self.flat_lo is None else self.flat_lo[index]
            sh = Shard(self.flat_data[index], lo, Interval(int(tile_id), start, stop))
            self._views[tile_id] = sh
        return sh

    # -- a region of device SRAM (repro.machine.tile.SRAM) ----------------------------

    def shard_bytes(self) -> tuple:
        """Bytes of each shard's hi half, and of its lo half for a double word."""
        nbytes = (self.mapping[:, 2] - self.mapping[:, 1]) * self.flat_data.itemsize * self.batch
        return (nbytes, nbytes) if self.paired else (nbytes,)

    def shard_name(self, k: int, half: int = 0) -> str:
        return f"{self.name}@{int(self.mapping[k, 0])}" + ("!lo" if half else "")

    def arrays_on(self, tile_id: int) -> dict:
        row = int(self.rows_of(tile_id))
        if row < 0:
            return {}
        sh = self.shard(tile_id)
        return {self.shard_name(row, half): a for half, a in enumerate((sh.data, sh.lo))
                if a is not None}

    def element_bytes(self) -> int:
        base = np.dtype(NUMPY_DTYPES[self.dtype]).itemsize
        return base * 2 if self.paired else base

    def unit_bytes(self) -> int:
        """Bytes moved per *logical* element — all batch columns ride along."""
        return self.element_bytes() * self.batch

    # -- host-side whole-tensor access ---------------------------------------------
    #
    # All of it goes through the flat buffers, never shard by shard: every
    # shard is a view into them (``Variable.shard``), so one array
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
            row = int(self.rows_of(self.tile_ids[0]))
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
        kind = "replicated" if self.replicated else f"{len(self.mapping)} shards"
        batch = f", batch={self.batch}" if self.batched else ""
        return f"Variable({self.name!r}, shape={self.shape}, dtype={self.dtype}{batch}, {kind})"
