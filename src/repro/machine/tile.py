"""IPU tiles: exclusive SRAM, accounted for a whole device in arrays, plus six worker threads."""

from __future__ import annotations

import numpy as np

from repro.errors import SRAMOverflowError
from repro.machine.spec import IPUSpec

# Re-exported for backward compatibility: the class now lives in
# repro.errors so it can participate in the unified error hierarchy.
__all__ = ["SRAM", "Tile", "SRAMOverflowError"]


class SRAM:
    """Every tile's SRAM of one device, accounted in whole-device arrays.

    ``used`` and ``peak`` hold each tile's bytes in use and its high-water
    mark (frees never lower it).  A *region* — a graph variable, a
    matrix's local blocks, one array placed by :meth:`Tile.alloc` — is
    placed in one call over all its tiles (:meth:`place`); its per-tile
    arrays are views of its whole-device storage, named only when
    something asks (:meth:`contents`).  A region has ``name``, ``tiles``,
    ``shard_bytes()`` (a byte array per half, aligned with ``tiles``, in
    allocation order), ``shard_name(k, half)`` and ``arrays_on(tile)``
    (name -> array); every array it names is its ``name``, or its ``name``
    followed by ``@`` or ``.`` and more.
    """

    __slots__ = ("used", "peak", "capacity", "regions")

    def __init__(self, num_tiles: int, capacity: int):
        self.used = np.zeros(num_tiles, dtype=np.int64)
        self.peak = np.zeros(num_tiles, dtype=np.int64)
        self.capacity = capacity
        self.regions: dict = {}  # key -> the regions placed under it

    def claim(self, tiles, halves, name) -> None:
        """Charge ``halves`` (byte arrays aligned with ``tiles``, in
        allocation order) to ``tiles`` — all or nothing.  The first half
        that does not fit, in ``tiles`` order and each tile's halves in
        turn, raises, named ``name(k, half)``."""
        free = self.capacity - self.used[tiles]
        reach = np.cumsum(halves, axis=0)  # bytes in use after each half
        over = reach > free
        if over.any():
            k = int(np.argmax(over.any(axis=0)))
            half = int(np.argmax(over[:, k]))
            raise SRAMOverflowError(
                f"allocating shard {name(k, half)!r} exceeds SRAM capacity",
                tile_id=int(tiles[k]),
                requested=int(halves[half][k]),
                free=int(free[k] - reach[half][k] + halves[half][k]),
                capacity=self.capacity,
            )
        self.used[tiles] += reach[-1]
        self.peak[tiles] = np.maximum(self.peak[tiles], self.used[tiles])

    def place(self, region, keys=None) -> None:
        """Charge every shard of ``region`` to its tile and register it
        under ``keys`` (default: its name).  A failed placement charges
        nothing.  An array name already on one of its tiles — among the
        regions registered under ``keys`` — raises ``KeyError``."""
        keys = (region.name,) if keys is None else keys
        others = {id(r): r for key in keys for r in self.regions.get(key, ())}
        for other in others.values():
            common = np.intersect1d(other.tiles, region.tiles)
            if common.size:  # a region names its arrays alike on every tile: one tells
                t = int(common[0])
                held = other.arrays_on(t)
                for name in region.arrays_on(t):
                    if name in held:
                        raise KeyError(f"tile {t}: shard {name!r} already allocated")
        self.claim(region.tiles, region.shard_bytes(), region.shard_name)
        for key in keys:
            self.regions.setdefault(key, []).append(region)

    def release(self, region) -> None:
        """Undo :meth:`place`: ``used`` drops, ``peak`` stays."""
        for key in _keys(region.name):
            placed = self.regions.get(key, [])
            placed[:] = [r for r in placed if r is not region]
        self.used[region.tiles] -= np.sum(region.shard_bytes(), axis=0)

    def contents(self) -> list:
        """``(tile, name, array)`` of everything placed, by tile, then by
        name within a tile."""
        regions = {id(r): r for placed in self.regions.values() for r in placed}
        items = [(t, name, arr) for region in regions.values()
                 for t in np.asarray(region.tiles).tolist()
                 for name, arr in region.arrays_on(t).items()]
        return sorted(items, key=lambda item: item[:2])


def _keys(name: str) -> list:
    """``name`` and each prefix of it that ends before a ``.`` or ``@``."""
    return [name[:i] for i, c in enumerate(name) if c in ".@"] + [name]


class _Array:
    """A region of one array on one tile (:meth:`Tile.alloc`)."""

    __slots__ = ("name", "tiles", "array")

    def __init__(self, name: str, tile_id: int, array: np.ndarray):
        self.name, self.tiles, self.array = name, np.array([tile_id]), array

    def shard_bytes(self) -> list:
        return [[self.array.nbytes]]

    def shard_name(self, k: int, half: int) -> str:
        return self.name

    def arrays_on(self, tile_id: int) -> dict:
        return {self.name: self.array} if tile_id == self.tiles[0] else {}


class Tile:
    """One processor tile: a view of its device's :class:`SRAM`.

    ``memory`` maps shard names to NumPy arrays (a double-word shard is a
    pair of arrays registered under ``name`` and ``name + "!lo"``).  The
    tile enforces its SRAM capacity — the hard constraint that shapes all
    partitioning decisions on a real IPU.
    """

    __slots__ = ("tile_id", "ipu_id", "spec", "_sram")

    def __init__(self, tile_id: int, ipu_id: int, spec: IPUSpec, sram: SRAM):
        self.tile_id = tile_id
        self.ipu_id = ipu_id
        self.spec = spec
        self._sram = sram  # the device's, shared by its tiles

    @property
    def memory(self) -> dict:
        """Name -> array of everything in this tile's SRAM."""
        return {name: arr for t, name, arr in self._sram.contents() if t == self.tile_id}

    @property
    def bytes_used(self) -> int:
        return int(self._sram.used[self.tile_id])

    @property
    def bytes_peak(self) -> int:
        """High-water mark of SRAM usage over the tile's lifetime — what the
        telemetry layer reports per tile (frees never lower it)."""
        return int(self._sram.peak[self.tile_id])

    @property
    def bytes_free(self) -> int:
        return self.spec.sram_per_tile - self.bytes_used

    def alloc(self, name: str, array: np.ndarray) -> np.ndarray:
        """Place ``array`` in tile SRAM under ``name``; enforce capacity.
        Registered under ``name`` and each prefix of it that ends before a
        ``.`` or ``@`` — the names of the regions that could hold an array
        so named."""
        self._sram.place(_Array(name, self.tile_id, array), _keys(name))
        return array

    def free(self, name: str) -> None:
        region = next((r for r in self._sram.regions.get(name, ())
                       if isinstance(r, _Array) and r.tiles[0] == self.tile_id), None)
        if region is None:
            raise KeyError(f"tile {self.tile_id}: no shard {name!r}")
        self._sram.release(region)

    def get(self, name: str) -> np.ndarray:
        return self.memory[name]

    def __contains__(self, name: str) -> bool:
        return name in self.memory

    def run_workers(self, worker_cycles) -> int:
        """Execute one compute set on this tile's worker threads.

        ``worker_cycles`` is an iterable of per-worker cycle counts (at most
        ``workers_per_tile`` entries).  BSP semantics: the tile is busy until
        its slowest worker finishes.
        """
        costs = list(worker_cycles)
        if len(costs) > self.spec.workers_per_tile:
            raise ValueError(
                f"{len(costs)} workers requested on a "
                f"{self.spec.workers_per_tile}-worker tile"
            )
        return max(costs, default=0)

    def __repr__(self):
        return (
            f"Tile(id={self.tile_id}, ipu={self.ipu_id}, "
            f"used={self.bytes_used}/{self.spec.sram_per_tile} B)"
        )
