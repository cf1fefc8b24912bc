"""A variable is its flat storage plus one ``(tile, start, stop)`` mapping
array, and tile SRAM is accounted in per-tile byte arrays: a build makes no
Python object per (variable, tile).

What the arrays replaced — a ``Shard`` and a ``Tile.alloc`` per (variable,
tile) — is pinned here by what it produced: the same overflow error, the
same fault-injector targets, the same byte accounting.  The expected values
were recorded from the per-shard implementation.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.faults import sram_targets
from repro.graph import Graph, Interval, variable
from repro.machine import MK2, IPUDevice, Tile
from repro.machine.tile import SRAMOverflowError
from repro.solvers import solve
from repro.sparse import poisson2d, poisson3d
from repro.sparse.distribute import DistributedMatrix
from repro.tensordsl import TensorContext


def _small_sram_graph() -> Graph:
    return Graph(IPUDevice(tiles_per_ipu=4, spec=MK2.with_(sram_per_tile=1024)))


def _overflow(make) -> tuple:
    graph = _small_sram_graph()
    with pytest.raises(SRAMOverflowError) as info:
        make(graph)
    e = info.value
    return e.tile_id, e.requested, e.free, e.capacity, str(e)


def test_a_plain_variable_overflows_on_the_first_full_tile_in_mapping_order():
    def make(graph):
        graph.device.tile(1).alloc("pad", np.zeros(200, np.float32))  # 224 B left
        graph.device.tile(3).alloc("pad", np.zeros(150, np.float32))  # 424 B left
        mapping = [Interval(t, 100 * i, 100 * i + 100) for i, t in enumerate((0, 3, 2, 1))]
        graph.add_variable("x", (400,), mapping=mapping)

    assert _overflow(make) == (
        1, 400, 224, 1024,
        "allocating shard 'x@1' exceeds SRAM capacity (tile 1; requested 400 B, "
        "224 B free of 1024 B) — see IPUDevice.sram_report() for per-tile usage")


def test_a_double_word_variable_overflows_on_its_lo_half_before_a_later_hi():
    def make(graph):
        graph.device.tile(2).alloc("pad", np.zeros(175, np.float32))  # hi fits, lo does not
        graph.device.tile(3).alloc("pad", np.zeros(250, np.float32))  # hi does not fit
        graph.add_variable("w", (200,), dtype="dw")

    assert _overflow(make) == (
        2, 200, 124, 1024,
        "allocating shard 'w@2!lo' exceeds SRAM capacity (tile 2; requested 200 B, "
        "124 B free of 1024 B) — see IPUDevice.sram_report() for per-tile usage")


def test_a_failed_placement_charges_nothing():
    graph = _small_sram_graph()
    graph.device.tile(3).alloc("pad", np.zeros(250, np.float32))
    before = graph.device.sram.used.copy()
    with pytest.raises(SRAMOverflowError):
        graph.add_variable("w", (200,), dtype="dw")
    np.testing.assert_array_equal(graph.device.sram.used, before)
    assert "w" not in graph.variables


def test_a_name_is_held_once_per_tile():
    """Two matrices that keep the default name, and a single array named
    like a variable's shard — before or after the variable — collide as
    each shard's ``Tile.alloc`` did; the same names on other tiles, or a
    variable and a matrix of one name, do not."""
    crs, dims = poisson2d(8)
    ctx = TensorContext(IPUDevice(tiles_per_ipu=4))
    DistributedMatrix(ctx, crs, grid_dims=dims)
    used = ctx.device.sram.used.copy()
    with pytest.raises(KeyError, match="'A.diag@0' already allocated"):
        DistributedMatrix(ctx, crs, grid_dims=dims)
    np.testing.assert_array_equal(ctx.device.sram.used, used)
    ctx.graph.add_variable("A", (4,))
    graph = Graph(IPUDevice(tiles_per_ipu=4))
    graph.add_variable("x", (8,), dtype="dw")
    with pytest.raises(KeyError, match="'x@1!lo' already allocated"):
        graph.device.tile(1).alloc("x@1!lo", np.zeros(1, np.float32))
    graph.device.tile(2).alloc("x@1", np.zeros(1, np.float32))
    graph.device.tile(0).alloc("y@0", np.zeros(1, np.float32))
    with pytest.raises(KeyError, match="'y@0' already allocated"):
        graph.add_variable("y", (8,))
    assert "y" not in graph.variables
    graph.device.tile(0).free("y@0")
    graph.add_variable("y", (8,))
    assert graph.device.tile(0).bytes_used == 2 * 8 + 8


def test_the_fault_injector_targets_the_same_arrays_in_the_same_order():
    """MPIR(dw) + PBiCGStab + ILU(0): matrix blocks, double-word halves and
    replicated scalars, by tile, then by name — 327 targets."""
    crs, dims = poisson2d(6)
    config = {"solver": "mpir", "precision": "dw", "tol": 1e-9, "max_outer": 2,
              "inner": {"solver": "bicgstab", "fixed_iterations": 3,
                        "preconditioner": {"solver": "ilu0"}}}
    res = solve(crs, np.ones(crs.n), config, grid_dims=dims, tiles_per_ipu=4)
    graph = res.compiled.graph
    targets = sram_targets(graph.device)
    seq = "\n".join(f"{t}|{name}|{arr.dtype}|{arr.shape}" for t, name, arr in targets)
    assert len(targets) == 327
    assert hashlib.sha256(seq.encode()).hexdigest()[:16] == "3dc78ad45659e8a0"
    # A variable's targets are views of its storage, the same as its shards.
    for t, name, arr in targets:
        var = graph.variables.get(name.split("@")[0])
        if var is not None:
            flat = var.flat_lo if name.endswith("!lo") else var.flat_data
            assert np.shares_memory(arr, flat)


def test_freeing_a_temporary_lowers_use_and_keeps_the_peak():
    graph = Graph(IPUDevice(tiles_per_ipu=4))
    graph.add_variable("x", (8,))
    tmp = graph.add_variable("tmp", (100,), dtype="dw")
    used, peak = graph.device.sram.used.copy(), graph.device.sram.peak.copy()
    graph.free(tmp)
    np.testing.assert_array_equal(used - graph.device.sram.used, [200, 200, 200, 200])
    np.testing.assert_array_equal(graph.device.sram.peak, peak)
    assert [t.bytes_peak for t in graph.device.tiles] == peak.tolist()
    assert graph.device.tile(0).bytes_used == 8  # x's two float32 elements


def test_a_fused_build_makes_no_shard_and_no_per_shard_alloc():
    crs, dims = poisson3d(16)
    counted = {
        "Shard": mock.patch.object(variable, "Shard", wraps=variable.Shard),
        "Interval": mock.patch.object(variable, "Interval", wraps=variable.Interval),
        "Tile.alloc": mock.patch.object(Tile, "alloc", autospec=True, side_effect=Tile.alloc),
    }
    mocks = {name: patch.start() for name, patch in counted.items()}
    try:
        res = solve(crs, np.ones(crs.n), {"solver": "cg", "tol": 1e-6}, grid_dims=dims,
                    num_ipus=16, tiles_per_ipu=16, backend="fused")
    finally:
        for patch in counted.values():
            patch.stop()
    assert res.failure is None
    assert {name: m.call_count for name, m in mocks.items()} == {
        "Shard": 0, "Interval": 0, "Tile.alloc": 0}
    x = res.compiled.graph.variables["x"]
    assert len(x.mapping) == 256
    sh = x.shard(int(x.tiles[7]))
    assert np.shares_memory(sh.data, x.flat_data)
    assert sh.data.size == sh.size == int(x.mapping[7, 2] - x.mapping[7, 1])
