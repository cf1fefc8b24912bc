"""Exchange fabric and IPU-Link cost model.

On-chip, every tile pair is connected by a stateless all-to-all fabric; the
compiler schedules cycle-precise transfers after a BSP sync.  A region sent
to several neighbor tiles is *broadcast*: the sender streams it once and all
receivers latch it (Sec. IV, benefit 2).  Traffic that crosses chips rides
the slower, stateful IPU-Links.

The model charges, per exchange phase:

- a BSP sync (chip-wide, or fleet-wide if any transfer crosses chips),
- per participating tile, one instruction overhead per region it sends or
  receives (the communication-program size the reordering strategy shrinks),
- streaming time = max over tiles of (bytes sent, bytes received) divided by
  the relevant per-tile bandwidth — tiles stream in parallel, which is what
  produces the paper's flat weak-scaling halo-exchange time (Fig. 6).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.machine.cycles import CycleModel

__all__ = ["Transfer", "ExchangePhase", "ExchangeFabric"]


@dataclass(frozen=True)
class Transfer:
    """One blockwise copy: a contiguous region broadcast from ``src_tile``
    to every tile in ``dst_tiles``."""

    src_tile: int
    dst_tiles: tuple
    nbytes: int

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError("negative transfer size")
        if not self.dst_tiles:
            raise ValueError("transfer with no destination tiles")


@dataclass(frozen=True)
class ExchangePhase:
    """Cost breakdown of one exchange superstep.

    Frozen: an exchange plan is priced once (``ExchangePlan.phase``) and
    every superstep that replays it — and the tracer and fault injector
    observing those supersteps — reads the same phase."""

    cycles: int = 0
    sync_cycles: int = 0
    stream_cycles: int = 0
    instr_cycles: int = 0
    total_bytes: int = 0
    num_instructions: int = 0
    inter_ipu: bool = False


class ExchangeFabric:
    """Cost model for BSP exchange phases on a (multi-)IPU device."""

    def __init__(self, model: CycleModel, ipu_of):
        """``ipu_of`` maps a global tile id to its IPU index."""
        self.model = model
        self.ipu_of = ipu_of

    def run(self, transfers) -> ExchangePhase:
        """Price one exchange phase consisting of ``transfers``."""
        transfers = list(transfers)
        if not transfers:
            return ExchangePhase()

        send_bytes = defaultdict(int)
        recv_bytes = defaultdict(int)
        instr_count = defaultdict(int)
        link_out = defaultdict(int)  # per-chip bytes leaving over IPU-Links
        link_in = defaultdict(int)  # per-chip bytes arriving over IPU-Links
        any_inter = False
        total_bytes = num_instructions = 0

        for t in transfers:
            src_ipu = self.ipu_of(t.src_tile)
            # Broadcast: the sender streams the region once...
            send_bytes[t.src_tile] += t.nbytes
            instr_count[t.src_tile] += 1
            # ...and every receiver latches its own copy.
            for d in t.dst_tiles:
                recv_bytes[d] += t.nbytes
                instr_count[d] += 1
            # Traffic that crosses chips rides the shared per-chip links
            # (one link transit per destination chip).
            dst_ipus = {self.ipu_of(d) for d in t.dst_tiles} - {src_ipu}
            if dst_ipus:
                any_inter = True
                link_out[src_ipu] += t.nbytes * len(dst_ipus)
                for ipu in dst_ipus:
                    link_in[ipu] += t.nbytes
            total_bytes += t.nbytes * len(t.dst_tiles)
            num_instructions += 1 + len(t.dst_tiles)

        stream = 0
        for tile in set(send_bytes) | set(recv_bytes):
            busy = max(
                self.model.exchange_bytes(send_bytes[tile]),
                self.model.exchange_bytes(recv_bytes[tile]),
            )
            stream = max(stream, busy)
        for ipu in set(link_out) | set(link_in):
            stream = max(
                stream,
                self.model.link_bytes(max(link_out[ipu], link_in[ipu])),
            )

        instr = max(
            (instr_count[t] * self.model.spec.exchange_instr_cycles for t in instr_count),
            default=0,
        )

        sync = self.model.sync(inter_ipu=any_inter)
        return ExchangePhase(
            cycles=sync + stream + instr,
            sync_cycles=sync,
            stream_cycles=stream,
            instr_cycles=instr,
            total_bytes=total_bytes,
            num_instructions=num_instructions,
            inter_ipu=any_inter,
        )
