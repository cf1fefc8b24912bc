"""Tests for graph variables, mappings, and SRAM allocation."""

import numpy as np
import pytest

from repro.graph import Graph, Interval
from repro.machine import IPUDevice


@pytest.fixture
def graph():
    return Graph(IPUDevice(tiles_per_ipu=4))


class TestLinearMapping:
    # A mapping is one (tile, start, stop) row per shard.
    def test_even_split(self, graph):
        m = graph.linear_mapping(8)
        assert (m[:, 2] - m[:, 1]).tolist() == [2, 2, 2, 2]
        assert m[0].tolist() == [0, 0, 2]
        assert m[-1].tolist() == [3, 6, 8]

    def test_remainder_spread_first(self, graph):
        m = graph.linear_mapping(10)
        assert (m[:, 2] - m[:, 1]).tolist() == [3, 3, 2, 2]

    def test_fewer_elements_than_tiles(self, graph):
        m = graph.linear_mapping(2)
        assert len(m) == 2
        assert (m[:, 2] - m[:, 1] == 1).all()

    def test_subset_of_tiles(self, graph):
        m = graph.linear_mapping(4, tile_ids=[1, 3])
        assert set(m[:, 0].tolist()) == {1, 3}


class TestVariables:
    def test_scatter_gather_roundtrip(self, graph):
        v = graph.add_variable("x", (10,))
        data = np.arange(10, dtype=np.float32)
        v.scatter(data)
        np.testing.assert_array_equal(v.gather(), data)
        # Shards physically live in tile SRAM.
        assert graph.device.tile(0).get("x@0")[0] == 0.0

    def test_dw_variable_keeps_float64_precision(self, graph):
        v = graph.add_variable("x", (4,), dtype="dw")
        data = np.array([np.pi, 1 + 1e-9, -3.0, 0.0])
        v.scatter(data)
        np.testing.assert_allclose(v.gather(), data, rtol=2**-45)
        # Paired storage: both hi and lo shards are allocated.
        assert "x@0!lo" in graph.device.tile(0)

    def test_replicated_scalar(self, graph):
        v = graph.add_replicated("alpha", ())
        v.scatter(2.5)
        assert v.gather() == 2.5
        for t in range(4):
            assert graph.device.tile(t).get("alpha@" + str(t))[0] == 2.5

    def test_single_tile(self, graph):
        v = graph.add_single_tile("s", (3,), tile_id=2)
        assert v.tile_ids == [2]
        v.scatter([1, 2, 3])
        np.testing.assert_array_equal(v.gather(), [1, 2, 3])

    def test_duplicate_name_rejected(self, graph):
        graph.add_variable("x", (4,))
        with pytest.raises(KeyError):
            graph.add_variable("x", (4,))

    def test_bad_mapping_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_variable("x", (4,), mapping=[Interval(0, 0, 2), Interval(1, 3, 4)])
        with pytest.raises(ValueError):
            graph.add_variable("y", (4,), mapping=[Interval(0, 0, 2)])

    def test_unknown_dtype_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_variable("x", (4,), dtype="bfloat16")

    def test_scatter_size_mismatch(self, graph):
        v = graph.add_variable("x", (4,))
        with pytest.raises(ValueError):
            v.scatter(np.zeros(5))

    def test_free_releases_sram(self, graph):
        before = graph.device.tile(0).bytes_used
        v = graph.add_variable("tmp", (100,), dtype="dw")
        assert graph.device.tile(0).bytes_used > before
        graph.free(v)
        assert graph.device.tile(0).bytes_used == before
        assert "tmp" not in graph.variables

    def test_element_bytes(self, graph):
        assert graph.add_variable("a", (2,), dtype="float32").element_bytes() == 4
        assert graph.add_variable("b", (2,), dtype="dw").element_bytes() == 8
        assert graph.add_variable("c", (2,), dtype="float64").element_bytes() == 8

    def test_unique_name(self, graph):
        assert graph.unique_name("t") != graph.unique_name("t")
