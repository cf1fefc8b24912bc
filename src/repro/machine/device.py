"""Multi-IPU device: a set of chips wired together by IPU-Links.

An ``IPUDevice`` owns the tiles, the exchange fabric, the cycle model, and a
profiler — everything the graph engine needs to execute programs and account
time.  ``IPUDevice.pod(n)`` builds the paper's IPU-POD configurations
(POD16 = 16 chips across four M2000s).
"""

from __future__ import annotations

from repro.machine.cycles import CycleModel
from repro.machine.fabric import ExchangeFabric
from repro.machine.profiler import Profiler
from repro.machine.spec import MK2, IPUSpec
from repro.machine.tile import SRAM, Tile

__all__ = ["IPUDevice"]


class IPUDevice:
    """``num_ipus`` chips of ``spec.tiles_per_ipu`` tiles each.

    For laptop-scale experiments, ``tiles_per_ipu`` can be overridden to a
    small number while keeping the Mk2 per-tile parameters — the scaling
    benches do exactly that, holding rows-per-tile constant.
    """

    def __init__(self, num_ipus: int = 1, spec: IPUSpec = MK2, tiles_per_ipu: int | None = None):
        if num_ipus < 1:
            raise ValueError("need at least one IPU")
        if tiles_per_ipu is not None:
            spec = spec.with_(tiles_per_ipu=tiles_per_ipu)
        self.spec = spec
        self.num_ipus = num_ipus
        num_tiles = num_ipus * spec.tiles_per_ipu
        #: Every tile's SRAM accounting as whole-device arrays.
        self.sram = SRAM(num_tiles, spec.sram_per_tile)
        self.tiles = [
            Tile(tile_id=i, ipu_id=i // spec.tiles_per_ipu, spec=spec, sram=self.sram)
            for i in range(num_tiles)
        ]
        self.model = CycleModel(spec=spec)
        # Not the bound ``self.ipu_of``: a device the fabric points back to
        # would outlive its last user until a cyclic collection.
        self.fabric = ExchangeFabric(self.model, lambda tile_id, n=spec.tiles_per_ipu: tile_id // n)
        self.profiler = Profiler()

    @classmethod
    def pod(cls, num_ipus: int, spec: IPUSpec = MK2, tiles_per_ipu: int | None = None):
        """Convenience constructor mirroring GraphCore's POD naming."""
        return cls(num_ipus=num_ipus, spec=spec, tiles_per_ipu=tiles_per_ipu)

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def tile(self, tile_id: int) -> Tile:
        return self.tiles[tile_id]

    def ipu_of(self, tile_id: int) -> int:
        return self.tiles[tile_id].ipu_id

    def same_ipu(self, a: int, b: int) -> bool:
        return self.ipu_of(a) == self.ipu_of(b)

    # -- aggregate accounting -----------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return self.profiler.total_cycles

    def seconds(self, cycles: int | None = None) -> float:
        """Wall-clock seconds for ``cycles`` (default: total so far)."""
        return self.spec.seconds(self.total_cycles if cycles is None else cycles)

    #: Measured power of four Mk2 IPUs on an M2000 (Sec. VI-A) -> per chip.
    WATTS_PER_IPU = 420.0 / 4

    def energy_j(self, cycles: int | None = None) -> float:
        """Modeled energy for ``cycles`` (default: total so far) at the
        paper's measured IPU power draw."""
        return self.seconds(cycles) * self.WATTS_PER_IPU * self.num_ipus

    def sram_report(self) -> dict:
        """Current/peak SRAM usage — partitioning sanity checks and the
        telemetry layer's per-tile high-water marks use this."""
        used, peak = self.sram.used, self.sram.peak
        return {
            "max_tile_bytes": int(used.max(initial=0)),
            "total_bytes": int(used.sum()),
            "max_tile_peak_bytes": int(peak.max(initial=0)),
            "per_tile_peak_bytes": peak.tolist(),
            "capacity_per_tile": self.spec.sram_per_tile,
        }

    def __repr__(self):
        return f"IPUDevice(ipus={self.num_ipus}, tiles={self.num_tiles})"
