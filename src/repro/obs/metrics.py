"""The process-global metrics registry: counters, gauges, histograms.

Before this module, every subsystem kept its own counters under its own
names — ``StoreStats`` dataclass fields, ``AnalysisCache`` hit/miss
dicts, the service queue's per-label latency samples, maintainer
``stats`` dicts — and the ``/metrics`` JSON, the dashboard, and the
BENCH records each spelled them differently (``analysis_hits`` vs
``hits``).  The registry gives them one home and one naming scheme::

    from repro.obs.metrics import counter, histogram, get_metric

    counter("repro.store.hits").inc()
    histogram("repro.service.latency_seconds.cold").observe(0.31)
    get_metric("repro.store.hits").value

Names follow ``repro.<subsystem>.<name>`` (lowercase, dot-separated;
validated at registration).  The native stats objects stay — they are
per-instance views — while the registry is the process-wide rollup the
Prometheus exposition (``GET /metrics?format=prometheus``) and the
dashboard sparklines read.

Histograms are **log-scale**: latency and size observations span many
orders of magnitude, so bucket bounds step by powers of ``10^(1/3)``
(three buckets per decade) between 1e-7 and 1e3 by default.

Everything is thread-safe (the service queue bumps counters from N
worker threads) and :func:`reset_metrics` zeroes values **in place** so
modules that cached a metric object keep counting into the live one.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "get_metric",
    "metric_names",
    "snapshot",
    "prometheus_text",
    "reset_metrics",
    "DEFAULT_BUCKET_BOUNDS",
]

#: ``repro.<subsystem>.<name>`` — lowercase segments, dot separated.
_NAME_RE = re.compile(r"^repro(\.[a-z0-9_]+)+$")

#: Log-scale bounds: 10^(1/3) steps, 1e-7 .. 1e3 (31 buckets + overflow).
DEFAULT_BUCKET_BOUNDS = tuple(10.0 ** (k / 3.0) for k in range(-21, 10))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value

    def inc(self, delta=1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += delta

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Gauge:
    """A value that goes up and down (queue depth, live workers)."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, delta=1) -> None:
        with self._lock:
            self._value += delta

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Histogram:
    """Log-scale bucketed observations (latencies, sizes).

    ``bounds`` are upper bucket edges; an observation lands in the first
    bucket whose bound is ``>= value`` (one overflow bucket catches the
    rest).  Tracks count/sum/min/max alongside the buckets.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds=None):
        self.name = name
        chosen = DEFAULT_BUCKET_BOUNDS if bounds is None else tuple(sorted(bounds))
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = chosen
        self._counts = [0] * (len(chosen) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, overflow bucket last."""
        with self._lock:
            return list(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count if self._count else 0.0,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "bounds": list(self.bounds),
                "counts": list(self._counts),
            }


# ---------------------------------------------------------------------- #
# the registry
# ---------------------------------------------------------------------- #

_REGISTRY: dict[str, object] = {}
_LOCK = threading.Lock()


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must match repro.<subsystem>.<name> "
            "(lowercase segments of [a-z0-9_], dot separated)"
        )
    return name


def _register(name: str, cls, *args):
    _check_name(name)
    with _LOCK:
        metric = _REGISTRY.get(name)
        if metric is None:
            metric = cls(name, *args)
            _REGISTRY[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} is already registered as a {metric.kind}"
            )
        return metric


def counter(name: str) -> Counter:
    """The named counter, created on first use."""
    return _register(name, Counter)


def gauge(name: str) -> Gauge:
    """The named gauge, created on first use."""
    return _register(name, Gauge)


def histogram(name: str, bounds=None) -> Histogram:
    """The named log-scale histogram, created on first use."""
    return _register(name, Histogram, bounds)


def get_metric(name: str):
    """Look up a registered metric; ``KeyError`` names the known set."""
    with _LOCK:
        try:
            return _REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY)) or "(none registered)"
            raise KeyError(f"unknown metric {name!r}; known: {known}") from None


def metric_names() -> list[str]:
    with _LOCK:
        return sorted(_REGISTRY)


def snapshot() -> dict:
    """JSON-safe ``{name: {kind, …}}`` view of every registered metric."""
    with _LOCK:
        metrics = list(_REGISTRY.items())
    return {name: metric.to_dict() for name, metric in sorted(metrics)}


def reset_metrics() -> None:
    """Zero every metric **in place** (identities survive; tests use this)."""
    with _LOCK:
        metrics = list(_REGISTRY.values())
    for metric in metrics:
        metric.reset()


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text() -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters and gauges emit one sample; histograms emit cumulative
    ``_bucket{le=…}`` samples plus ``_sum`` and ``_count``, the shape
    ``prometheus`` scrapers and ``promtool check metrics`` expect.
    """
    with _LOCK:
        metrics = sorted(_REGISTRY.items())
    lines: list[str] = []
    for name, metric in metrics:
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} {metric.kind}")
        if isinstance(metric, Histogram):
            data = metric.to_dict()
            cumulative = 0
            for bound, count in zip(data["bounds"], data["counts"]):
                cumulative += count
                lines.append(
                    f'{pname}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                )
            cumulative += data["counts"][-1]
            lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{pname}_sum {_prom_value(data['sum'])}")
            lines.append(f"{pname}_count {data['count']}")
        else:
            lines.append(f"{pname} {_prom_value(metric.value)}")
    return "\n".join(lines) + "\n"
