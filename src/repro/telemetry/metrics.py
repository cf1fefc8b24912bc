"""``MetricsRegistry``: counters, gauges, and log-bucketed histograms.

The wall-clock observability loop (``docs/observability.md``) needs a
second export surface next to traces: *aggregated* series a scrape-based
monitoring stack can poll — total wall nanoseconds per kernel, launch
counts, solve iterations, residual gauges — rather than one event per
launch.  This module is that surface: a tiny, dependency-free metrics
registry with the three Prometheus instrument kinds the serving layer
(ROADMAP item 1) will expose per job.

Design rules:

- **Zero overhead when disabled.**  Nothing here is global; a registry
  only exists when a caller asks for one, and every producer hook guards
  emission behind one ``is None`` check (the same seam contract as the
  tracers in :mod:`repro.graph.runtime`).
- **Instruments are cheap.**  A counter/gauge sample is one dict store; a
  histogram observation is a bisect over its (few) bucket edges.  Labels
  are plain keyword arguments, stored as sorted key-value tuples.
- **Two snapshot formats.**  :meth:`MetricsRegistry.to_prometheus` renders
  the text exposition format (``# TYPE`` headers, ``_bucket``/``_sum``/
  ``_count`` histogram series); :meth:`MetricsRegistry.to_json` renders a
  structured dict.  ``repro metrics-report`` reads either back.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram", "log_buckets"]


def log_buckets(lo: float, hi: float, per_decade: int = 2) -> tuple:
    """Geometric bucket edges from ``lo`` to at least ``hi``.

    ``per_decade`` edges per power of ten — the default (2) gives edges at
    1, ~3.16, 10, ~31.6, ... which keeps wall-time histograms readable
    across the nanosecond-to-second range without hundreds of buckets.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    edges = []
    step = 10.0 ** (1.0 / per_decade)
    edge = float(lo)
    while edge < hi * (1 + 1e-12):
        edges.append(edge)
        edge *= step
    edges.append(edge)
    return tuple(edges)


#: Default histogram edges: 1 µs .. ~1000 s in half-decade steps (values in
#: seconds; wall-time observations in other units still land monotonically).
DEFAULT_BUCKETS = log_buckets(1e-6, 1e3, per_decade=2)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.series: dict = {}

    def inc(self, value: float = 1, **labels) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {value})")
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + value

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0)


class Gauge:
    """Last-written value (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.series: dict = {}

    def set(self, value: float, **labels) -> None:
        self.series[_label_key(labels)] = value

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0)


class Histogram:
    """Log-bucketed distribution (per label set): counts, sum, and count."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        edges = tuple(sorted(float(e) for e in buckets))
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        self.name = name
        self.help = help
        self.buckets = edges
        self.series: dict = {}  # label key -> [counts per edge + inf, sum, n]

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        entry = self.series.get(key)
        if entry is None:
            entry = self.series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
        entry[0][bisect_left(self.buckets, value)] += 1
        entry[1] += value
        entry[2] += 1

    def snapshot(self, **labels):
        """``(cumulative_bucket_counts, sum, count)`` for one label set."""
        entry = self.series.get(_label_key(labels))
        if entry is None:
            return [0] * (len(self.buckets) + 1), 0.0, 0
        cum, total = [], 0
        for c in entry[0]:
            total += c
            cum.append(total)
        return cum, entry[1], entry[2]


class MetricsRegistry:
    """A named collection of instruments with two snapshot exporters."""

    def __init__(self):
        self._instruments: dict = {}

    # -- instrument accessors (get-or-create) --------------------------------------

    def _get(self, cls, name: str, help: str, **kwargs):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name, help, **kwargs)
        elif not isinstance(inst, cls):
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}, not {cls.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    # -- exporters ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape's worth)."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            if isinstance(inst, Histogram):
                for key in sorted(inst.series):
                    cum, total, n = inst.snapshot(**dict(key))
                    for edge, c in zip(inst.buckets, cum[:-1]):
                        le = _render_labels(key + (("le", f"{edge:g}"),))
                        lines.append(f"{name}_bucket{le} {c}")
                    le = _render_labels(key + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{le} {cum[-1]}")
                    lines.append(f"{name}_sum{_render_labels(key)} {total:g}")
                    lines.append(f"{name}_count{_render_labels(key)} {n}")
            else:
                for key in sorted(inst.series):
                    lines.append(f"{name}{_render_labels(key)} {inst.series[key]:g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """Structured snapshot (the machine-diffable twin of the text form)."""
        out: dict = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            rec: dict = {"kind": inst.kind, "help": inst.help}
            if isinstance(inst, Histogram):
                rec["buckets"] = list(inst.buckets)
                rec["series"] = [
                    {
                        "labels": dict(key),
                        "counts": list(entry[0]),
                        "sum": entry[1],
                        "count": entry[2],
                    }
                    for key, entry in sorted(inst.series.items())
                ]
            else:
                rec["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(inst.series.items())
                ]
            out[name] = rec
        return out

    def write(self, path) -> None:
        """Write a snapshot: ``.json`` paths get JSON, anything else the
        Prometheus text format."""
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")
        else:
            path.write_text(self.to_prometheus())

    def __repr__(self):
        return f"MetricsRegistry({len(self._instruments)} instruments)"
