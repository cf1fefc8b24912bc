"""Tests for Tile memory accounting and IPUDevice assembly."""

import numpy as np
import pytest

from repro.machine import IPUDevice, MK2
from repro.machine.tile import SRAMOverflowError


class TestTile:
    def setup_method(self):
        self.tile = IPUDevice(num_ipus=1, tiles_per_ipu=1).tile(0)

    def test_alloc_tracks_bytes(self):
        a = self.tile.alloc("x", np.zeros(100, dtype=np.float32))
        assert self.tile.bytes_used == 400
        assert "x" in self.tile
        assert self.tile.get("x") is a

    def test_duplicate_name_rejected(self):
        self.tile.alloc("x", np.zeros(1, dtype=np.float32))
        with pytest.raises(KeyError):
            self.tile.alloc("x", np.zeros(1, dtype=np.float32))

    def test_sram_capacity_enforced(self):
        # 612 kB / 4 B = 156,672 f32 elements fit; one element more must not.
        cap = MK2.sram_per_tile // 4
        self.tile.alloc("big", np.zeros(cap, dtype=np.float32))
        with pytest.raises(SRAMOverflowError):
            self.tile.alloc("more", np.zeros(1, dtype=np.float32))

    def test_free_returns_capacity(self):
        self.tile.alloc("x", np.zeros(100, dtype=np.float32))
        self.tile.free("x")
        assert self.tile.bytes_used == 0
        assert "x" not in self.tile

    def test_run_workers_is_max(self):
        assert self.tile.run_workers([10, 50, 30]) == 50
        assert self.tile.run_workers([]) == 0

    def test_run_workers_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            self.tile.run_workers([1] * 7)


class TestDevice:
    def test_pod_shape(self):
        dev = IPUDevice.pod(4, tiles_per_ipu=8)
        assert dev.num_ipus == 4
        assert dev.num_tiles == 32
        assert dev.ipu_of(0) == 0
        assert dev.ipu_of(8) == 1
        assert dev.ipu_of(31) == 3
        assert dev.same_ipu(0, 7) and not dev.same_ipu(7, 8)

    def test_default_is_full_mk2(self):
        dev = IPUDevice()
        assert dev.num_tiles == 1472

    def test_rejects_zero_ipus(self):
        with pytest.raises(ValueError):
            IPUDevice(num_ipus=0)

    def test_sram_report(self):
        dev = IPUDevice(tiles_per_ipu=4)
        dev.tile(2).alloc("x", np.zeros(10, dtype=np.float64))
        rep = dev.sram_report()
        assert rep["max_tile_bytes"] == 80
        assert rep["total_bytes"] == 80
        assert rep["capacity_per_tile"] == MK2.sram_per_tile

    def test_seconds_uses_clock(self):
        dev = IPUDevice(tiles_per_ipu=2)
        dev.profiler.record("compute", int(MK2.clock_hz))
        assert dev.seconds() == pytest.approx(1.0)
