"""The dataflow graph: owns variables and places their storage in tile SRAM."""

from __future__ import annotations

import numpy as np

from repro.graph.variable import Interval, NUMPY_DTYPES, Variable, as_mapping
from repro.machine.device import IPUDevice

__all__ = ["Graph"]


class Graph:
    """Container for variables mapped onto an :class:`~repro.machine.IPUDevice`.

    Mirrors ``poplar::Graph``: variables are declared with an explicit tile
    mapping and their storage is allocated immediately in tile SRAM (there
    is no lazy placement on a cacheless machine).
    """

    def __init__(self, device: IPUDevice):
        self.device = device
        self.variables: dict[str, Variable] = {}
        self._uid = 0

    # -- naming ---------------------------------------------------------------------

    def unique_name(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}#{self._uid}"

    # -- variable creation ------------------------------------------------------------

    def add_variable(
        self, name: str, shape, dtype: str = "float32", mapping=None, batch: int = 1
    ) -> Variable:
        """Create a variable sharded by ``mapping`` (a ``(tile, start,
        stop)`` int array, or a list of Intervals).

        Without a mapping, the elements are spread linearly and evenly over
        all tiles (Poplar's ``mapLinearly``); scalars land on tile 0.
        ``batch > 1`` adds a trailing multi-RHS axis: storage per shard is
        ``(n_local, batch)`` and the mapping still covers logical elements.
        """
        var = Variable(name, shape, dtype, batch=batch)
        rows = self.linear_mapping(var.size) if mapping is None else as_mapping(mapping)
        self._check_mapping(var, rows)
        store = (var.size,) if batch == 1 else (var.size, batch)
        return self._place(var, rows, store)

    def add_replicated(
        self, name: str, shape, dtype: str = "float32", tile_ids=None, batch: int = 1
    ) -> Variable:
        """Create a variable with a full copy on every tile in ``tile_ids``
        (default: all tiles).  Used for solver scalars."""
        var = Variable(name, shape, dtype, replicated=True, batch=batch)
        tiles = self._tiles(tile_ids)
        rows = np.zeros((len(tiles), 3), dtype=np.int64)
        rows[:, 0], rows[:, 2] = tiles, var.size
        store = (len(tiles), var.size) if batch == 1 else (len(tiles), var.size, batch)
        return self._place(var, rows, store)

    def add_single_tile(
        self, name: str, shape, dtype: str = "float32", tile_id: int = 0, batch: int = 1
    ) -> Variable:
        """Create a variable living entirely on one tile."""
        var = Variable(name, shape, dtype, batch=batch)
        store = (var.size,) if batch == 1 else (var.size, batch)
        return self._place(var, np.array([[tile_id, 0, var.size]], dtype=np.int64), store)

    # -- mapping helpers ------------------------------------------------------------

    def _tiles(self, tile_ids) -> np.ndarray:
        if tile_ids is None:
            return np.arange(self.device.num_tiles, dtype=np.int64)
        if not isinstance(tile_ids, np.ndarray):
            tile_ids = list(tile_ids)
        return np.asarray(tile_ids, dtype=np.int64).reshape(-1)

    def linear_mapping(self, size: int, tile_ids=None) -> np.ndarray:
        """Evenly split ``size`` elements across tiles, remainder spread
        first: ``(tile, start, stop)`` rows."""
        tiles = self._tiles(tile_ids)
        if size <= len(tiles):
            tiles, counts = tiles[:size], np.ones(size, dtype=np.int64)
        else:
            base, extra = divmod(size, len(tiles))
            counts = base + (np.arange(len(tiles)) < extra)
        stops = np.cumsum(counts)
        return np.stack([tiles, stops - counts, stops], axis=1)

    @staticmethod
    def _check_mapping(var: Variable, rows: np.ndarray) -> None:
        ordered = rows[np.argsort(rows[:, 1], kind="stable")]
        starts, stops = ordered[:, 1], ordered[:, 2]
        bad = (starts != np.concatenate([[0], stops[:-1]])) | (stops <= starts)
        if bad.any():
            iv = Interval(*ordered[int(np.argmax(bad))].tolist())
            raise ValueError(f"mapping of {var.name!r} has gaps/overlaps at {iv}")
        pos = int(stops[-1]) if len(stops) else 0
        if pos != var.size:
            raise ValueError(
                f"mapping of {var.name!r} covers {pos} of {var.size} elements"
            )

    # -- storage ---------------------------------------------------------------------

    def _place(self, var: Variable, rows: np.ndarray, store: tuple) -> Variable:
        """Give ``var`` its mapping and flat storage, charge its shards to
        tile SRAM (:meth:`repro.machine.tile.SRAM.place`) and register it."""
        if var.name in self.variables:
            raise KeyError(f"variable {var.name!r} already exists")
        tiles = rows[:, 0]
        ordered = np.sort(tiles)
        if (ordered[1:] == ordered[:-1]).any():
            raise KeyError(f"variable {var.name!r} maps two shards to one tile")
        if len(tiles) and (tiles.min() < 0 or tiles.max() >= self.device.num_tiles):
            raise IndexError(f"variable {var.name!r} maps a shard off the device")
        var.mapping = rows
        var.flat_data = np.zeros(store, dtype=NUMPY_DTYPES[var.dtype])
        if var.paired:
            var.flat_lo = np.zeros(store, dtype=np.float32)
        self.device.sram.place(var)
        self.variables[var.name] = var
        return var

    def free(self, var: Variable) -> None:
        """Release a variable's SRAM (e.g. solver temporaries)."""
        self.device.sram.release(var)
        del self.variables[var.name]
