"""``TelemetryReport``: aggregate a trace into the questions people ask.

The event stream answers *when*; this module answers *what mattered*: the
top-N hottest compute sets, the distribution of per-superstep load
imbalance, how exchange time divides against compute (BSP supersteps never
overlap, so the "overlap summary" reports the serial shares and the
uncovered gap), SRAM high-water marks, and the convergence trajectory.
``render()`` produces the text the ``repro trace-report`` CLI prints.

:func:`kernel_rows` is the one per-kernel wall profile: the spans that carry
a ``kind`` arg (a :class:`~repro.telemetry.walltrace.WallTracer`'s launches
and per-step dispatches) folded per name and ranked with GB/s and GFLOP/s.
``WallTracer.profile()``, :attr:`TelemetryReport.wall_kernels`, the
``repro_kernel_*`` metric series ``solve()`` writes and the
``metrics-report`` table are all views of it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.telemetry.events import CounterEvent, InstantEvent, SpanEvent

__all__ = ["TelemetryReport", "IMBALANCE_BUCKETS", "kernel_spans", "kernel_rows",
           "rank_kernels"]

#: Histogram bucket edges for the per-superstep worst/mean tile ratio.
IMBALANCE_BUCKETS = (1.05, 1.1, 1.25, 1.5, 2.0, 4.0)


def _bucket_label(i: int) -> str:
    if i == 0:
        return f"<= {IMBALANCE_BUCKETS[0]:.2f}"
    if i == len(IMBALANCE_BUCKETS):
        return f"> {IMBALANCE_BUCKETS[-1]:.2f}"
    return f"{IMBALANCE_BUCKETS[i - 1]:.2f}-{IMBALANCE_BUCKETS[i]:.2f}"


def kernel_spans(events):
    """The spans that carry a ``kind`` arg: one per wall-timed launch."""
    return [e for e in events if isinstance(e, SpanEvent) and "kind" in e.args]


def rank_kernels(totals) -> list[dict]:
    """Per-name totals (``name``, ``kind``, ``launches``, ``wall_ns``,
    ``est_bytes``, ``est_flops``) with the derived ``gb_per_s`` and
    ``gflop_per_s``, hottest first."""
    rows = []
    for r in totals:
        sec = r["wall_ns"] * 1e-9
        rows.append({
            **r,
            "gb_per_s": (r["est_bytes"] / sec / 1e9) if sec > 0 and r["est_bytes"] else 0.0,
            "gflop_per_s": (r["est_flops"] / sec / 1e9) if sec > 0 and r["est_flops"] else 0.0,
        })
    rows.sort(key=lambda r: -r["wall_ns"])
    return rows


def kernel_rows(events) -> list[dict]:
    """Fold :func:`kernel_spans` into one row per name, ranked
    (:func:`rank_kernels`)."""
    totals: dict = {}
    for ev in kernel_spans(events):
        row = totals.get(ev.name)
        if row is None:
            row = totals[ev.name] = {"name": ev.name, "kind": ev.args["kind"], "launches": 0,
                                     "wall_ns": 0, "est_bytes": 0, "est_flops": 0}
        row["launches"] += 1
        row["wall_ns"] += ev.dur
        row["est_bytes"] += ev.args.get("est_bytes", 0)
        row["est_flops"] += ev.args.get("est_flops", 0)
    return rank_kernels(totals.values())


@dataclass
class TelemetryReport:
    """Aggregated view of one trace (build with :meth:`from_events`)."""

    meta: dict = field(default_factory=dict)
    wall_cycles: int = 0
    compute_cycles: int = 0
    exchange_cycles: int = 0
    control_cycles: int = 0
    compute_phases: int = 0
    exchange_phases: int = 0
    #: [(name, category, total_cycles, executions, share_of_wall)]
    hottest: list = field(default_factory=list)
    #: [(name, total_cycles, executions)] for labeled scopes
    scopes: list = field(default_factory=list)
    #: bucket label -> superstep count
    imbalance_histogram: dict = field(default_factory=dict)
    mean_imbalance: float = 1.0
    max_imbalance: float = 1.0
    exchange: dict = field(default_factory=dict)
    sram: dict = field(default_factory=dict)
    tile_busy: dict = field(default_factory=dict)
    residual: dict = field(default_factory=dict)
    #: Fault-injection / recovery summary (``fault`` / ``rollback`` /
    #: ``resilience`` instants from docs/resilience.md); empty = none seen.
    faults: dict = field(default_factory=dict)
    #: Wall-clock kernel profile (:func:`kernel_rows`, top N) of a
    #: :class:`~repro.telemetry.walltrace.WallTracer` trace.
    wall_kernels: list = field(default_factory=list)

    @property
    def clock_unit(self) -> str:
        """Timestamp unit of this trace: sim cycles or wall nanoseconds."""
        return "ns" if self.meta.get("clock") == "wall_ns" else "cycles"

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_events(cls, events, meta: dict | None = None, top: int = 10):
        rep = cls(meta=dict(meta or {}))
        per_set: dict = defaultdict(lambda: [None, 0, 0])  # name -> [cat, cycles, n]
        per_scope: dict = defaultdict(lambda: [0, 0])
        imbalances: list[float] = []
        exch_bytes = 0
        exch_inter = 0
        congestion_sum = 0.0
        residual_points: list = []
        fault_kinds: dict = defaultdict(int)
        rollback_reasons: dict = defaultdict(int)
        resilience_summary: dict = {}
        t_min, t_max = None, 0

        for ev in events:
            if isinstance(ev, SpanEvent):
                end = ev.start + ev.dur
                t_min = ev.start if t_min is None else min(t_min, ev.start)
                t_max = max(t_max, end)
                if ev.cat == "compute":
                    rep.compute_cycles += ev.dur
                    rep.compute_phases += 1
                    entry = per_set[ev.name]
                    entry[0] = ev.args.get("category", "compute")
                    entry[1] += ev.dur
                    entry[2] += 1
                    imb = ev.args.get("imbalance")
                    if imb is not None:
                        imbalances.append(imb)
                elif ev.cat == "exchange":
                    rep.exchange_cycles += ev.dur
                    rep.exchange_phases += 1
                    exch_bytes += ev.args.get("total_bytes", 0)
                    exch_inter += bool(ev.args.get("inter_ipu"))
                    congestion_sum += ev.args.get("congestion", 1.0)
                elif ev.cat == "control":
                    rep.control_cycles += ev.dur
                elif ev.cat == "scope":
                    per_scope[ev.name][0] += ev.dur
                    per_scope[ev.name][1] += 1
            elif isinstance(ev, CounterEvent) and ev.name == "residual":
                rr = ev.values.get("relative_residual")
                if rr is not None:
                    residual_points.append((ev.ts, rr))
            elif isinstance(ev, InstantEvent):
                if ev.name == "sram_peak":
                    rep.sram = dict(ev.args)
                elif ev.name == "tile_busy":
                    rep.tile_busy = dict(ev.args)
                elif ev.name == "fault":
                    fault_kinds[ev.args.get("kind", "?")] += 1
                elif ev.name == "rollback":
                    rollback_reasons[ev.args.get("reason", "?")] += 1
                elif ev.name == "resilience":
                    resilience_summary = dict(ev.args)

        rep.wall_cycles = (t_max - t_min) if t_min is not None else 0
        wall = max(rep.wall_cycles, 1)
        rep.hottest = sorted(
            ((name, cat, cyc, n, cyc / wall) for name, (cat, cyc, n) in per_set.items()),
            key=lambda row: -row[2],
        )[:top]
        rep.scopes = sorted(
            ((name, cyc, n) for name, (cyc, n) in per_scope.items()),
            key=lambda row: -row[1],
        )[:top]
        rep.wall_kernels = kernel_rows(events)[:top]

        hist: dict = defaultdict(int)
        for imb in imbalances:
            i = sum(imb > edge for edge in IMBALANCE_BUCKETS)
            hist[_bucket_label(i)] += 1
        rep.imbalance_histogram = dict(hist)
        if imbalances:
            rep.mean_imbalance = sum(imbalances) / len(imbalances)
            rep.max_imbalance = max(imbalances)

        covered = rep.compute_cycles + rep.exchange_cycles + rep.control_cycles
        rep.exchange = {
            "phases": rep.exchange_phases,
            "total_bytes": exch_bytes,
            "inter_ipu_phases": exch_inter,
            "mean_congestion": (congestion_sum / rep.exchange_phases)
            if rep.exchange_phases else 1.0,
            "compute_share": rep.compute_cycles / wall,
            "exchange_share": rep.exchange_cycles / wall,
            "control_share": rep.control_cycles / wall,
            # BSP supersteps are serial: nothing overlaps, the remainder is
            # host-side / uncovered time.
            "overlapped_cycles": 0,
            "uncovered_share": max(0.0, 1.0 - covered / wall),
        }

        if residual_points:
            residual_points.sort()
            rep.residual = {
                "points": len(residual_points),
                "first": residual_points[0][1],
                "last": residual_points[-1][1],
                "last_cycle": residual_points[-1][0],
            }

        if fault_kinds or rollback_reasons or resilience_summary:
            rep.faults = {
                "injections": sum(fault_kinds.values()),
                "by_kind": dict(fault_kinds),
                "rollbacks": sum(rollback_reasons.values()),
                "rollback_reasons": dict(rollback_reasons),
                "restarts": resilience_summary.get("restarts", 0),
                "extra_iterations": resilience_summary.get("extra_iterations", 0),
                "outcome": resilience_summary.get("outcome"),
                "failure": resilience_summary.get("failure"),
            }
        return rep

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        m = self.meta
        unit = self.clock_unit
        lines = ["telemetry report"]
        if m:
            lines.append(
                f"  device: {m.get('num_ipus', '?')} IPU(s) x "
                f"{m.get('tiles_per_ipu', '?')} tiles"
            )
        if unit == "ns":
            lines.append("  clock domain: wall (host ns, measured)")
        lines.append(f"  wall {unit}: {self.wall_cycles}")
        ex = self.exchange
        if ex:
            lines.append(
                f"  compute {ex['compute_share']:6.1%}   exchange "
                f"{ex['exchange_share']:6.1%}   control {ex['control_share']:6.1%}   "
                f"uncovered {ex['uncovered_share']:6.1%}"
            )
            lines.append(
                f"  exchange: {ex['phases']} phases, {ex['total_bytes']} B moved, "
                f"{ex['inter_ipu_phases']} inter-IPU, mean congestion "
                f"{ex['mean_congestion']:.2f} (BSP: overlap = 0)"
            )
        if self.wall_kernels:
            lines.append(
                f"\n  hottest kernels (top {len(self.wall_kernels)}, measured wall):"
            )
            lines.append(
                f"    {'kernel':<12s} {'launches':>8s} {'wall ms':>10s} "
                f"{'GB/s':>8s} {'GFLOP/s':>8s}"
            )
            for r in self.wall_kernels:
                lines.append(
                    f"    {r['name']:<12s} {r['launches']:>8d} {r['wall_ns'] / 1e6:>10.3f} "
                    f"{r['gb_per_s']:>8.2f} {r['gflop_per_s']:>8.2f}"
                )
        if self.hottest:
            lines.append(f"\n  hottest compute sets (top {len(self.hottest)}):")
            for name, cat, cyc, n, share in self.hottest:
                lines.append(
                    f"    {name:<28s} {cat:<14s} {cyc:>12d} {unit}  x{n:<6d} {share:6.1%}"
                )
        if self.scopes:
            lines.append("\n  labeled scopes:")
            for name, cyc, n in self.scopes:
                lines.append(f"    {name:<28s} {cyc:>12d} {unit}  x{n}")
        if self.imbalance_histogram:
            lines.append(
                f"\n  load imbalance (worst/mean tile, {self.compute_phases} "
                f"supersteps; mean {self.mean_imbalance:.3f}, max "
                f"{self.max_imbalance:.3f}):"
            )
            for i in range(len(IMBALANCE_BUCKETS) + 1):
                label = _bucket_label(i)
                count = self.imbalance_histogram.get(label, 0)
                if count:
                    lines.append(f"    {label:<12s} {count:>6d}  {'#' * min(count, 40)}")
        if self.sram:
            cap = self.sram.get("capacity_bytes", 0) or 1
            peak = self.sram.get("max_bytes", 0)
            lines.append(
                f"\n  SRAM high-water: {peak} B / tile capacity {cap} B "
                f"({peak / cap:.1%})"
            )
        if self.tile_busy:
            lines.append(
                f"  tile busy-cycle imbalance (whole run): "
                f"{self.tile_busy.get('imbalance', 1.0):.3f}"
            )
        if self.residual:
            r = self.residual
            lines.append(
                f"\n  convergence: {r['points']} samples, relative residual "
                f"{r['first']:.3e} -> {r['last']:.3e} at cycle {r['last_cycle']}"
            )
        if self.faults:
            f = self.faults
            lines.append("\n  faults & recovery:")
            kinds = ", ".join(f"{k}={n}" for k, n in sorted(f["by_kind"].items())) or "-"
            lines.append(f"    injections: {f['injections']} ({kinds})")
            reasons = ", ".join(
                f"{k}={n}" for k, n in sorted(f["rollback_reasons"].items())
            ) or "-"
            lines.append(f"    rollbacks:  {f['rollbacks']} ({reasons})")
            if f.get("restarts"):
                lines.append(f"    restarts:   {f['restarts']} (OOM degradation)")
            lines.append(
                f"    extra iterations paid: {f['extra_iterations']}"
                + (f"   outcome: {f['outcome']}" if f.get("outcome") else "")
                + (f" ({f['failure']})" if f.get("failure") else "")
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"TelemetryReport(wall={self.wall_cycles}, "
            f"compute_phases={self.compute_phases}, "
            f"exchange_phases={self.exchange_phases})"
        )
