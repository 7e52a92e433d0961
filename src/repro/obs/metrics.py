"""A lightweight metrics registry: counters, gauges, histograms.

Prometheus-flavored but dependency-free: metrics are named, typed,
optionally labeled, and render to the standard text exposition format
via :meth:`MetricsRegistry.render_prometheus`.  Everything a
:class:`~repro.obs.observer.RunObserver` records is derived from
simulated-time events, so two identical-seed runs dump byte-identical
metrics text (a regression test pins this).

Only the small subset of Prometheus semantics the simulator needs is
implemented: monotonic counters, set-only gauges, fixed-bucket
cumulative histograms, and flat (non-nested) label sets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(Exception):
    """Raised on registry misuse (type clashes, negative counter incs)."""


def _label_key(labels: Dict[str, str]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None
                   ) -> str:
    """Render a label key as the ``{k="v",...}`` exposition suffix."""
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(v: float) -> str:
    """Integers without a decimal point, floats with repr precision."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


class Counter:
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the labeled series.

        Raises:
            MetricsError: on a negative increment.
        """
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current count for one labeled series (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[str]:
        """Exposition lines for every labeled series, sorted."""
        return [
            f"{self.name}{_format_labels(key)} {_format_value(v)}"
            for key, v in sorted(self._values.items())
        ]


class Gauge:
    """A value that can go up or down (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the labeled series to ``value``."""
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        """Current value (0.0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[str]:
        """Exposition lines for every labeled series, sorted."""
        return [
            f"{self.name}{_format_labels(key)} {_format_value(v)}"
            for key, v in sorted(self._values.items())
        ]


#: Default histogram buckets, tuned for simulated-seconds durations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)

#: Buckets for host-time request latencies (seconds) — used by the
#: serving layer (:mod:`repro.serve`), where durations are wall-clock
#: milliseconds-to-seconds rather than simulated classroom seconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Cumulative fixed-bucket histogram of observed values."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not self.buckets:
            raise MetricsError(f"histogram {self.name!r} needs >= 1 bucket")
        # per label key: (bucket counts, sum, count)
        self._series: Dict[LabelKey, Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labeled series."""
        key = _label_key(labels)
        counts, total, n = self._series.get(
            key, ([0] * len(self.buckets), 0.0, 0))
        for i, le in enumerate(self.buckets):
            if value <= le:
                counts[i] += 1
        self._series[key] = (counts, total + float(value), n + 1)

    def count(self, **labels: str) -> int:
        """Number of observations in one labeled series."""
        return self._series.get(_label_key(labels),
                                ([], 0.0, 0))[2]

    def sum(self, **labels: str) -> float:
        """Sum of observations in one labeled series."""
        return self._series.get(_label_key(labels),
                                ([], 0.0, 0))[1]

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Linear interpolation within the bucket that crosses rank
        ``q * count``, the same estimate Prometheus's
        ``histogram_quantile`` computes server-side.  Observations above
        the last finite bucket clamp to that bucket bound; an empty
        series returns 0.0.

        Raises:
            MetricsError: when ``q`` is outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        counts, _, n = self._series.get(
            _label_key(labels), ([], 0.0, 0))
        if n == 0:
            return 0.0
        rank = q * n
        lo = 0.0
        prev = 0
        for le, c in zip(self.buckets, counts):
            if c >= rank:
                width = c - prev
                # An empty bucket crossing the rank (q=0, or sparse
                # low buckets) holds no mass: the estimate stays at its
                # lower bound instead of jumping to the bucket ceiling.
                frac = 0.0 if width == 0 else (rank - prev) / width
                return lo + (le - lo) * frac
            lo, prev = le, c
        return self.buckets[-1]

    def samples(self) -> List[str]:
        """Exposition lines: ``_bucket``/``_sum``/``_count`` per series."""
        out: List[str] = []
        for key, (counts, total, n) in sorted(self._series.items()):
            for le, c in zip(self.buckets, counts):
                suffix = _format_labels(key, ("le", _format_value(le)))
                out.append(f"{self.name}_bucket{suffix} {c}")
            inf = _format_labels(key, ("le", "+Inf"))
            out.append(f"{self.name}_bucket{inf} {n}")
            out.append(f"{self.name}_sum{_format_labels(key)} "
                       f"{_format_value(round(total, 9))}")
            out.append(f"{self.name}_count{_format_labels(key)} {n}")
        return out


class MetricsRegistry:
    """Owns every metric of one run and renders the combined dump.

    Getter methods are idempotent: asking for an existing name returns
    the existing metric (so instrumentation sites don't need to
    coordinate creation), but asking with a different type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, cls, name: str, help_text: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")  # type: ignore[attr-defined]
            return existing
        metric = cls(name, help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Fetch or create a counter."""
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Fetch or create a gauge."""
        return self._get(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Fetch or create a histogram."""
        return self._get(Histogram, name, help_text, buckets=buckets)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Flat ``{metric: {label-suffix: value}}`` view for summaries.

        Histograms contribute their ``_sum`` and ``_count`` series.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, (Counter, Gauge)):
                out[name] = {
                    _format_labels(key): v
                    for key, v in sorted(m._values.items())
                }
            elif isinstance(m, Histogram):
                out[name + "_sum"] = {
                    _format_labels(key): round(total, 9)
                    for key, (c, total, n) in sorted(m._series.items())
                }
                out[name + "_count"] = {
                    _format_labels(key): float(n)
                    for key, (c, total, n) in sorted(m._series.items())
                }
        return out

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in self.names():
            m = self._metrics[name]
            if m.help_text:  # type: ignore[attr-defined]
                lines.append(f"# HELP {name} {m.help_text}")  # type: ignore[attr-defined]
            lines.append(f"# TYPE {name} {m.kind}")  # type: ignore[attr-defined]
            lines.extend(m.samples())  # type: ignore[attr-defined]
        return "\n".join(lines) + ("\n" if lines else "")
