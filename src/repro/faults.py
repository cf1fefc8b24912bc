"""``repro.faults``: deterministic, seeded fault injection for the runtime.

Real accelerator fleets see transient single-event upsets in SRAM and
exchange streams, congested or stalling inter-chip links, and per-tile
memory exhaustion.  This module models those failure classes against the
simulated IPU *deterministically*: a :class:`FaultPlan` couples a seed with
a declarative list of fault clauses, and a :class:`FaultInjector` replays
the plan at the superstep boundaries of the frozen execution plans —
the same hook seam the telemetry tracer uses (``Backend.attach``).

Determinism guarantees (``docs/resilience.md``):

- each fault clause owns an independent child RNG spawned from the plan
  seed (``np.random.SeedSequence``), and draws exactly once per superstep
  it is active in, so the injection schedule is a pure function of
  ``(seed, spec, program)``: two runs of the same program with the same
  plan inject the *same* faults at the *same* supersteps and produce
  bit-identical tensors and cycles;
- with no plan attached the backends execute the exact pre-fault code path
  (one ``is None`` check per superstep), so a fault-free run is
  bit-identical to a build without this module.

Spec grammar (compact form; JSON works too — see :meth:`FaultPlan.parse`)::

    seed=42;bitflip:p=0.01,where=exchange;link_stall:ipus=0-1,cycles=500,p=0.1;tile_oom:tile=3,at=12

Every injection is recorded as an :class:`InjectionRecord` and, when a
tracer is attached, emitted as a telemetry ``Instant`` event
(``name="fault"``) so traces and reports show the fault timeline.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import FaultSpecError, SRAMOverflowError

__all__ = [
    "BitFlip",
    "LinkStall",
    "TileOOM",
    "FaultPlan",
    "FaultInjector",
    "InjectionRecord",
    "FAULT_KINDS",
]

FAULT_KINDS = ("bitflip", "link_stall", "tile_oom")

#: Where a bitflip can strike: data being received in an exchange phase, or
#: resident tensor shards in tile SRAM at a compute-phase boundary.
BITFLIP_SITES = ("exchange", "sram")


# -- fault clauses ---------------------------------------------------------------------


@dataclass(frozen=True)
class BitFlip:
    """Transient single-bit upset: with probability ``p`` per superstep,
    flip one uniformly random bit of one element touched by the phase."""

    p: float
    where: str = "exchange"
    kind = "bitflip"

    def validate(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise FaultSpecError(f"bitflip: p must be in [0, 1], got {self.p}")
        if self.where not in BITFLIP_SITES:
            raise FaultSpecError(
                f"bitflip: where must be one of {BITFLIP_SITES}, got {self.where!r}"
            )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "where": self.where}


@dataclass(frozen=True)
class LinkStall:
    """IPU-Link stall: with probability ``p`` per exchange superstep whose
    transfers cross the ``(src_ipu, dst_ipu)`` pair (either direction), the
    phase pays ``cycles`` extra cycles."""

    src_ipu: int
    dst_ipu: int
    cycles: int
    p: float = 1.0
    kind = "link_stall"

    def validate(self) -> None:
        if self.src_ipu < 0 or self.dst_ipu < 0:
            raise FaultSpecError("link_stall: IPU ids must be non-negative")
        if self.src_ipu == self.dst_ipu:
            raise FaultSpecError("link_stall: the IPU pair must name two distinct chips")
        if self.cycles <= 0:
            raise FaultSpecError(f"link_stall: cycles must be positive, got {self.cycles}")
        if not (0.0 <= self.p <= 1.0):
            raise FaultSpecError(f"link_stall: p must be in [0, 1], got {self.p}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "src_ipu": self.src_ipu,
            "dst_ipu": self.dst_ipu,
            "cycles": self.cycles,
            "p": self.p,
        }


@dataclass(frozen=True)
class TileOOM:
    """Deterministic per-tile memory exhaustion: at superstep boundary
    ``at_superstep`` (a global 1-based counter over compute *and* exchange
    phases), raise :class:`SRAMOverflowError` for ``tile``."""

    tile: int
    at_superstep: int
    kind = "tile_oom"

    def validate(self) -> None:
        if self.tile < 0:
            raise FaultSpecError(f"tile_oom: tile must be non-negative, got {self.tile}")
        if self.at_superstep <= 0:
            raise FaultSpecError(
                f"tile_oom: at_superstep must be >= 1, got {self.at_superstep}"
            )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tile": self.tile, "at_superstep": self.at_superstep}


_KIND_CLASSES = {"bitflip": BitFlip, "link_stall": LinkStall, "tile_oom": TileOOM}


# -- the plan --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of fault clauses — the full, declarative
    description of a fault campaign.  Immutable and JSON round-trippable."""

    faults: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.faults:
            raise FaultSpecError("fault plan has no fault clauses")
        for f in self.faults:
            f.validate()

    # -- construction ----------------------------------------------------------------

    @classmethod
    def parse(cls, spec) -> "FaultPlan":
        """Accept a plan, a dict, a JSON string, a ``.json`` path, or the
        compact ``seed=N;kind:k=v,...`` grammar (module docstring)."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if isinstance(spec, Path):
            return cls._from_file(spec)
        if isinstance(spec, str):
            s = spec.strip()
            if not s:
                raise FaultSpecError("empty fault spec")
            if s.startswith("{"):
                try:
                    data = json.loads(s)
                except json.JSONDecodeError as exc:
                    raise FaultSpecError(f"fault spec is not valid JSON: {exc}") from None
                return cls.from_dict(data)
            if s.endswith(".json"):
                return cls._from_file(Path(s))
            return cls._parse_compact(s)
        raise FaultSpecError(
            f"cannot parse a fault plan from {type(spec).__name__}: {spec!r}"
        )

    @classmethod
    def _from_file(cls, path: Path) -> "FaultPlan":
        if not path.exists():
            raise FaultSpecError(f"no such fault-plan file: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FaultSpecError(f"{path}: not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultSpecError(f"fault plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultSpecError(f"unknown fault-plan keys: {sorted(unknown)}")
        faults = []
        for i, fd in enumerate(data.get("faults", ())):
            kw = dict(fd)
            kind = kw.pop("kind", None)
            klass = _KIND_CLASSES.get(kind)
            if klass is None:
                raise FaultSpecError(
                    f"faults[{i}]: unknown kind {kind!r} (one of {FAULT_KINDS})"
                )
            try:
                faults.append(klass(**kw))
            except TypeError as exc:
                raise FaultSpecError(f"faults[{i}] ({kind}): {exc}") from None
        return cls(faults=tuple(faults), seed=int(data.get("seed", 0)))

    @classmethod
    def _parse_compact(cls, s: str) -> "FaultPlan":
        seed = 0
        faults = []
        for clause in filter(None, (c.strip() for c in s.split(";"))):
            head, _, rest = clause.partition(":")
            head = head.strip()
            if head.startswith("seed=") and not rest:
                try:
                    seed = int(head.split("=", 1)[1])
                except ValueError:
                    raise FaultSpecError(f"bad seed clause {clause!r}") from None
                continue
            kv = {}
            if rest:
                for pair in rest.split(","):
                    key, eq, val = pair.partition("=")
                    if not eq:
                        raise FaultSpecError(
                            f"clause {clause!r}: expected key=value, got {pair!r}"
                        )
                    kv[key.strip()] = val.strip()
            faults.append(cls._compact_clause(head, kv, clause))
        return cls(faults=tuple(faults), seed=seed)

    @staticmethod
    def _compact_clause(kind: str, kv: dict, clause: str):
        def num(key, conv, default=None, required=False):
            if key not in kv:
                if required:
                    raise FaultSpecError(f"clause {clause!r}: missing {key}=")
                return default
            try:
                return conv(kv.pop(key))
            except ValueError:
                raise FaultSpecError(f"clause {clause!r}: bad value for {key}") from None

        if kind == "bitflip":
            p = num("p", float, required=True)
            where = kv.pop("where", "exchange")
            fault = BitFlip(p=p, where=where)
        elif kind == "link_stall":
            pair = kv.pop("ipus", None)
            if pair is None or "-" not in pair:
                raise FaultSpecError(f"clause {clause!r}: expected ipus=A-B")
            try:
                a, b = (int(x) for x in pair.split("-", 1))
            except ValueError:
                raise FaultSpecError(f"clause {clause!r}: bad ipus={pair!r}") from None
            fault = LinkStall(src_ipu=a, dst_ipu=b,
                              cycles=num("cycles", int, required=True),
                              p=num("p", float, default=1.0))
        elif kind == "tile_oom":
            fault = TileOOM(tile=num("tile", int, required=True),
                            at_superstep=num("at", int, required=True))
        else:
            raise FaultSpecError(f"unknown fault kind {kind!r} (one of {FAULT_KINDS})")
        if kv:
            raise FaultSpecError(f"clause {clause!r}: unknown keys {sorted(kv)}")
        return fault

    # -- views -----------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __len__(self) -> int:
        return len(self.faults)


# -- injection records -----------------------------------------------------------------


@dataclass(frozen=True)
class InjectionRecord:
    """One concrete injection: what, where on the BSP timeline, and the
    kind-specific detail (flipped bit, stalled pair, OOM tile...)."""

    kind: str
    superstep: int
    cycle: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "superstep": self.superstep,
            "cycle": self.cycle,
            **self.detail,
        }


# -- the injector ----------------------------------------------------------------------


class FaultInjector:
    """Replays a :class:`FaultPlan` against a running backend.

    Attached via ``Backend.attach`` (sim backend only);
    :meth:`compute_superstep` / :meth:`exchange_superstep` are called once
    per BSP phase with that phase's frozen plan.  ``disabled`` names fault
    kinds to skip — the resilience layer disables ``tile_oom`` after a
    degradation restart so the rebuilt solve can complete.
    """

    def __init__(self, plan: FaultPlan, disabled=()):
        self.plan = plan
        self.disabled = frozenset(disabled)
        self.records: list[InjectionRecord] = []
        self.superstep = 0
        self.device = None
        self.tracer = None
        children = np.random.SeedSequence(plan.seed).spawn(len(plan.faults))
        self._rngs = [np.random.default_rng(c) for c in children]

    def bind(self, device, tracer=None) -> None:
        self.device = device
        if tracer is not None:
            self.tracer = tracer

    # -- bookkeeping -----------------------------------------------------------------

    def _now(self) -> int:
        return self.device.profiler.total_cycles if self.device is not None else 0

    def _record(self, kind: str, detail: dict) -> InjectionRecord:
        rec = InjectionRecord(kind=kind, superstep=self.superstep,
                              cycle=self._now(), detail=detail)
        self.records.append(rec)
        if self.tracer is not None:
            self.tracer.instant(
                "fault", "fault",
                {"kind": kind, "superstep": rec.superstep, **detail},
                ts=rec.cycle,
            )
        return rec

    def summary(self) -> dict:
        return {
            "injections": len(self.records),
            "by_kind": dict(Counter(r.kind for r in self.records)),
        }

    # -- backend hooks (one call per superstep) --------------------------------------

    def compute_superstep(self, plan) -> None:
        """Called after each compute phase; may corrupt SRAM or raise OOM."""
        self.superstep += 1
        self._check_tile_oom()
        for fault, rng in zip(self.plan.faults, self._rngs):
            if (fault.kind == "bitflip" and fault.where == "sram"
                    and fault.kind not in self.disabled):
                if rng.random() < fault.p:
                    self._flip_sram(rng, plan)

    def exchange_superstep(self, plan, phase) -> int:
        """Called after each exchange phase's copies and fabric pricing but
        before the cycles are recorded; returns extra stall cycles."""
        self.superstep += 1
        self._check_tile_oom()
        extra = 0
        for fault, rng in zip(self.plan.faults, self._rngs):
            if fault.kind in self.disabled:
                continue
            if fault.kind == "bitflip" and fault.where == "exchange":
                if rng.random() < fault.p:
                    self._flip_exchange(rng, plan)
            elif fault.kind == "link_stall":
                if rng.random() < fault.p and self._crosses(plan, fault):
                    extra += fault.cycles
                    self._record("link_stall", {
                        "src_ipu": fault.src_ipu, "dst_ipu": fault.dst_ipu,
                        "cycles": fault.cycles, "exchange": plan.name,
                    })
        return extra

    # -- per-kind mechanics ----------------------------------------------------------

    def _check_tile_oom(self) -> None:
        for fault in self.plan.faults:
            if fault.kind != "tile_oom" or fault.kind in self.disabled:
                continue
            if self.superstep == fault.at_superstep:
                self._record("tile_oom", {"tile": fault.tile})
                free = 0
                capacity = None
                if self.device is not None and fault.tile < self.device.num_tiles:
                    tile = self.device.tile(fault.tile)
                    free = tile.bytes_free
                    capacity = tile.spec.sram_per_tile
                raise SRAMOverflowError(
                    f"injected tile OOM fault at superstep {self.superstep}",
                    tile_id=fault.tile,
                    requested=free + 1,
                    free=free,
                    capacity=capacity,
                )

    def _crosses(self, plan, fault) -> bool:
        if self.device is None or self.device.num_ipus < 2:
            return False
        pair = {fault.src_ipu, fault.dst_ipu}
        ipu_of = self.device.ipu_of
        for t in plan.transfers:
            src = ipu_of(t.src_tile)
            for dst_tile in t.dst_tiles:
                dst = ipu_of(dst_tile)
                if src != dst and {src, dst} == pair:
                    return True
        return False

    @staticmethod
    def _dst_indices(op):
        """Resolve a CopyOp destination index to a flat list of positions."""
        idx = op.dst_index
        if isinstance(idx, slice):
            return range(*idx.indices(op.dst.shape[0]))
        return np.asarray(idx).ravel()

    @staticmethod
    def _flip_bit(arr: np.ndarray, pos: int, bit: int) -> tuple:
        view = arr.view(np.uint32 if arr.dtype.itemsize == 4 else np.uint64)
        old = float(arr[pos])
        view[pos] ^= view.dtype.type(1) << view.dtype.type(bit)
        return old, float(arr[pos])

    def _flip_exchange(self, rng, plan) -> None:
        ops = [op for op in plan.ops if op.dst.dtype.kind == "f" and op.dst.size]
        if not ops:
            return
        op = ops[int(rng.integers(len(ops)))]
        indices = self._dst_indices(op)
        if len(indices) == 0:
            return
        pos = int(indices[int(rng.integers(len(indices)))])
        bit = int(rng.integers(op.dst.dtype.itemsize * 8))
        old, new = self._flip_bit(op.dst, pos, bit)
        self._record("bitflip", {
            "where": "exchange", "exchange": plan.name,
            "index": pos, "bit": bit, "old": old, "new": new,
        })

    def _flip_sram(self, rng, plan) -> None:
        candidates = []
        for tile in self.device.tiles:
            for name in sorted(tile.memory):
                arr = tile.memory[name]
                if arr.dtype.kind == "f" and arr.size:
                    candidates.append((tile.tile_id, name, arr))
        if not candidates:
            return
        tile_id, name, arr = candidates[int(rng.integers(len(candidates)))]
        pos = int(rng.integers(arr.size))
        bit = int(rng.integers(arr.dtype.itemsize * 8))
        old, new = self._flip_bit(arr, pos, bit)
        self._record("bitflip", {
            "where": "sram", "tile": tile_id, "shard": name,
            "index": pos, "bit": bit, "old": old, "new": new,
            "compute_set": plan.name,
        })

    def __repr__(self):
        return (
            f"FaultInjector(seed={self.plan.seed}, faults={len(self.plan)}, "
            f"injections={len(self.records)})"
        )
