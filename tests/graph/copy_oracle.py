"""An exchange's copy table read back as :class:`RegionCopy` objects, for
the oracles that reason copy by copy (``test_passes``, ``test_kernels``)."""

import numpy as np

from repro.graph.program import COPY, DST_VAR, SIZE, RegionCopy


def region_copies(step) -> list:
    """One RegionCopy per copy id of ``step``'s table, in table order."""
    out = []
    table = step.table
    for rows in np.split(table, np.flatnonzero(np.diff(table[:, COPY])) + 1):
        if len(rows):
            _, src_var, src_tile, src_offset, *_, size = rows[0].tolist()
            dests = tuple((step.variables[var], tile, offset)
                          for var, tile, offset in rows[:, DST_VAR:SIZE].tolist())
            out.append(RegionCopy(step.variables[src_var], src_tile, src_offset, dests, size))
    return out
