"""A zero-dependency metrics registry: counters, gauges, histograms.

The process-global :data:`REGISTRY` is the single home of the library's
operational series (naming scheme ``repro_*``): cache hits and misses by
artifact kind, per-algorithm solve latencies, queue waits, worker
failures.  Metric *families* carry label names; ``family.labels(k=v)``
returns the child holding one labeled series, and children may be
pre-bound at module import time so hot paths pay one lock plus one add.

Three things make the registry fit the solver's execution model:

* **thread safety** — every mutation takes the registry lock, so counts
  are exact under concurrent threads (pinned by tests);
* **process mergeability** — :meth:`MetricsRegistry.snapshot` renders
  the whole registry as plain picklable data, :func:`diff_snapshots`
  subtracts two snapshots, and :meth:`MetricsRegistry.merge` folds a
  delta back in (creating unknown families on the fly).  This is how
  ``solve_many`` workers report: each chunk returns a snapshot delta and
  the driver merges it, so one registry describes a multi-process batch;
* **exporters** — :meth:`render_prometheus` emits the Prometheus text
  exposition format (validated by :func:`parse_prometheus`, which the
  ``repro stats`` self-check and the tests use) and :meth:`render_json`
  a JSON document with the same content.

``REGISTRY.enabled = False`` turns every mutation into a near-free
boolean check — the no-obs baseline the overhead guard benchmarks
against.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

#: Default histogram buckets (seconds): micro-solves to stuck-solve range.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Override the default bucket boundaries (comma- or space-separated
#: floats, seconds); malformed values raise at first histogram creation
#: rather than silently producing unmergeable series.
BUCKETS_ENV = "REPRO_HIST_BUCKETS"


def default_buckets() -> tuple[float, ...]:
    """The bucket boundaries new histograms get when none are passed.

    Read from ``REPRO_HIST_BUCKETS`` when set — every process of a
    deployment (driver and ``solve_many`` workers inherit the
    environment) then agrees on the boundaries, which :meth:`merge`
    enforces.
    """
    raw = os.environ.get(BUCKETS_ENV, "").strip()
    if not raw:
        return DEFAULT_BUCKETS
    try:
        bounds = tuple(sorted({float(part) for part in raw.replace(",", " ").split()}))
    except ValueError as exc:
        raise MetricError(f"{BUCKETS_ENV}={raw!r} is not a float list") from exc
    if not bounds:
        return DEFAULT_BUCKETS
    return bounds

_KINDS = ("counter", "gauge", "histogram")


class MetricError(ValueError):
    """Inconsistent registration (kind/label mismatch) or bad label use."""


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Child:
    """One labeled series of a family; all mutation under the family lock."""

    __slots__ = ("_family", "value", "bucket_counts", "sum", "count",
                 "exemplars")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0
        if family.kind == "histogram":
            self.bucket_counts = [0] * len(family.buckets)
            self.sum = 0.0
            self.count = 0
            #: per-bucket ``(value, trace_id, wall)`` of the worst (largest)
            #: observation seen carrying an exemplar, or None
            self.exemplars: list[tuple[float, str, float] | None] = (
                [None] * len(family.buckets)
            )

    def inc(self, amount: float = 1.0) -> None:
        registry = self._family.registry
        if not registry.enabled:
            return
        with registry._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set(self, value: float) -> None:
        registry = self._family.registry
        if not registry.enabled:
            return
        with registry._lock:
            self.value = value

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation; *exemplar* attaches a trace ID to the
        bucket the value lands in (kept when it is the bucket's worst —
        largest — exemplared observation so far), surfacing "which
        request produced this latency" in the exporters."""
        registry = self._family.registry
        if not registry.enabled:
            return
        family = self._family
        with registry._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(family.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    if exemplar is not None:
                        slot = self.exemplars[i]
                        if slot is None or value >= slot[0]:
                            self.exemplars[i] = (value, str(exemplar), time.time())
                    break


class _Family:
    """One named metric with its labeled children."""

    __slots__ = ("registry", "name", "kind", "help", "labelnames", "buckets",
                 "children")

    def __init__(self, registry, name, kind, help_text, labelnames, buckets=None):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        if kind == "histogram":
            buckets = tuple(buckets) if buckets else default_buckets()
            if buckets[-1] != math.inf:
                buckets = buckets + (math.inf,)
            self.buckets = buckets
        else:
            self.buckets = ()
        self.children: dict[tuple, _Child] = {}

    def labels(self, **labelvalues) -> _Child:
        try:
            key = tuple([str(labelvalues[name]) for name in self.labelnames])
        except KeyError:
            key = None
        if key is None or len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        # children are only ever added, so a hit needs no lock
        child = self.children.get(key)
        if child is None:
            with self.registry._lock:
                child = self.children.get(key)
                if child is None:
                    child = self.children[key] = _Child(self)
        return child

    # label-free convenience: family acts as its own single child
    def _solo(self) -> _Child:
        if self.labelnames:
            raise MetricError(f"{self.name} requires labels {self.labelnames}")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self._solo().observe(value, exemplar)


class MetricsRegistry:
    """A set of metric families; see the module docstring."""

    def __init__(self, enabled: bool = True):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        self.enabled = enabled

    # -- registration -------------------------------------------------------

    def _family(self, name, kind, help_text, labelnames, buckets=None) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(self, name, kind, help_text, labelnames, buckets)
                self._families[name] = family
                return family
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name} already registered as {family.kind}"
                    f"{family.labelnames}, requested {kind}{tuple(labelnames)}"
                )
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> _Family:
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> _Family:
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] | None = None) -> _Family:
        return self._family(name, "histogram", help_text, labelnames, buckets)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as plain picklable data."""
        with self._lock:
            out: dict = {}
            for name, family in self._families.items():
                series: dict = {}
                for key, child in family.children.items():
                    if family.kind == "histogram":
                        series[key] = {
                            "buckets": list(child.bucket_counts),
                            "sum": child.sum,
                            "count": child.count,
                            "exemplars": [
                                list(e) if e else None for e in child.exemplars
                            ],
                        }
                    else:
                        series[key] = child.value
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "buckets": list(family.buckets),
                    "series": series,
                }
            return out

    def merge(self, delta: dict) -> None:
        """Fold a snapshot (or snapshot delta) into this registry.

        Counters and histograms add; gauges take the incoming value;
        histogram bucket exemplars keep the worst (largest) observation.
        Families absent here are created from the delta's definitions —
        a worker process may register series the driver never touched.

        Histogram bucket boundaries must match exactly: adding counts
        bucket-by-bucket across different boundaries would silently
        misattribute observations, so a mismatch raises
        :class:`ValueError` instead (set ``REPRO_HIST_BUCKETS``
        consistently across processes).
        """
        for name, data in delta.items():
            family = self._family(
                name, data["kind"], data.get("help", ""),
                data.get("labelnames", ()),
                data.get("buckets") or None,
            )
            if family.kind == "histogram":
                incoming = data.get("buckets")
                if incoming:
                    bounds = tuple(float(b) for b in incoming)
                    if bounds and bounds[-1] != math.inf:
                        bounds += (math.inf,)
                    if bounds != family.buckets:
                        raise ValueError(
                            f"cannot merge histogram {name}: incoming bucket "
                            f"boundaries {bounds} do not match the registered "
                            f"{family.buckets} — counts would be silently "
                            "misattributed"
                        )
            for key, value in data.get("series", {}).items():
                key = tuple(key)
                with self._lock:
                    child = family.children.get(key)
                    if child is None:
                        child = family.children[key] = _Child(family)
                if family.kind == "histogram":
                    with self._lock:
                        counts = value.get("buckets", ())
                        if len(counts) > len(child.bucket_counts):
                            raise ValueError(
                                f"cannot merge histogram {name}: delta carries "
                                f"{len(counts)} buckets for "
                                f"{len(child.bucket_counts)} boundaries"
                            )
                        for i, count in enumerate(counts):
                            child.bucket_counts[i] += count
                        child.sum += value.get("sum", 0.0)
                        child.count += value.get("count", 0)
                        for i, exemplar in enumerate(value.get("exemplars") or ()):
                            if exemplar is None or i >= len(child.exemplars):
                                continue
                            slot = child.exemplars[i]
                            if slot is None or exemplar[0] >= slot[0]:
                                child.exemplars[i] = (
                                    float(exemplar[0]),
                                    str(exemplar[1]),
                                    float(exemplar[2]),
                                )
                elif family.kind == "gauge":
                    with self._lock:
                        child.value = value
                else:
                    with self._lock:
                        child.value += value

    def reset(self) -> None:
        """Zero every series, keeping the families (and any pre-bound
        children) registered."""
        with self._lock:
            for family in self._families.values():
                for child in family.children.values():
                    child.value = 0.0
                    if family.kind == "histogram":
                        child.bucket_counts = [0] * len(family.buckets)
                        child.sum = 0.0
                        child.count = 0
                        child.exemplars = [None] * len(family.buckets)

    # -- exporters ----------------------------------------------------------

    def render_prometheus(self, snapshot: dict | None = None) -> str:
        """The Prometheus text exposition format of the registry.

        Histogram buckets carry OpenMetrics **exemplars** when one was
        observed (``... 5 # {trace_id="..."} 0.087 1712345678.0``): the
        trace ID of the bucket's worst exemplared observation, linking a
        latency bucket straight to a flight-recorder trace.  The strict
        :func:`parse_prometheus` validator accepts (and checks) them.
        """
        if snapshot is None:
            snapshot = self.snapshot()
        lines: list[str] = []
        for name in sorted(snapshot):
            data = snapshot[name]
            if data["help"]:
                lines.append(f"# HELP {name} {data['help']}")
            lines.append(f"# TYPE {name} {data['kind']}")
            labelnames = data["labelnames"]
            for key in sorted(data["series"]):
                value = data["series"][key]
                rendered = ",".join(
                    f'{label}="{_escape_label(v)}"'
                    for label, v in zip(labelnames, key)
                )
                if data["kind"] == "histogram":
                    cumulative = 0
                    exemplars = value.get("exemplars") or ()
                    for i, (bound, count) in enumerate(
                        zip(data["buckets"], value["buckets"])
                    ):
                        cumulative += count
                        bucket_labels = rendered + ("," if rendered else "")
                        line = (
                            f"{name}_bucket{{{bucket_labels}"
                            f'le="{_format_value(bound)}"}} {cumulative}'
                        )
                        exemplar = exemplars[i] if i < len(exemplars) else None
                        if exemplar is not None:
                            ex_value, trace_id, wall = exemplar
                            line += (
                                f' # {{trace_id="{_escape_label(trace_id)}"}} '
                                f"{ex_value!r} {wall:.3f}"
                            )
                        lines.append(line)
                    suffix = f"{{{rendered}}}" if rendered else ""
                    lines.append(f"{name}_sum{suffix} {value['sum']!r}")
                    lines.append(f"{name}_count{suffix} {value['count']}")
                else:
                    suffix = f"{{{rendered}}}" if rendered else ""
                    lines.append(f"{name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def render_json(self, snapshot: dict | None = None) -> str:
        """A JSON export with the same content as the Prometheus text
        (histogram values carry per-bucket ``exemplars`` entries of
        ``[value, trace_id, wall]``, or ``null`` where none landed)."""
        if snapshot is None:
            snapshot = self.snapshot()
        out = {}
        for name, data in snapshot.items():
            series = [
                {
                    "labels": dict(zip(data["labelnames"], key)),
                    "value": value,
                }
                for key, value in sorted(data["series"].items())
            ]
            out[name] = {
                "kind": data["kind"],
                "help": data["help"],
                "series": series,
            }
            if data["kind"] == "histogram":
                out[name]["buckets"] = [
                    "+Inf" if b == math.inf else b for b in data["buckets"]
                ]
        return json.dumps(out, indent=2, sort_keys=True) + "\n"


def diff_snapshots(before: dict, after: dict) -> dict:
    """``after - before``, series-wise; gauges keep the ``after`` value."""
    out: dict = {}
    for name, data in after.items():
        base = before.get(name, {}).get("series", {})
        series: dict = {}
        for key, value in data["series"].items():
            prior = base.get(key)
            if data["kind"] == "histogram":
                if prior is None:
                    prior = {"buckets": [0] * len(value["buckets"]),
                             "sum": 0.0, "count": 0}
                delta = {
                    "buckets": [
                        v - p for v, p in zip(value["buckets"], prior["buckets"])
                    ],
                    "sum": value["sum"] - prior["sum"],
                    "count": value["count"] - prior["count"],
                }
                if value.get("exemplars"):
                    # exemplars are max-merged, not added: re-sending the
                    # after-side exemplar is idempotent at the receiver
                    delta["exemplars"] = value["exemplars"]
                if delta["count"]:
                    series[key] = delta
            elif data["kind"] == "gauge":
                series[key] = value
            else:
                delta = value - (prior or 0.0)
                if delta:
                    series[key] = delta
        if series:
            out[name] = dict(data, series=series)
    return out


def estimate_quantile(
    bounds: Iterable[float], counts: Iterable[float], q: float
) -> float | None:
    """Estimate the *q*-quantile of a histogram from its bucket counts.

    *bounds* are the upper boundaries (the family's ``buckets``, usually
    ending in ``+Inf``) and *counts* the per-bucket (non-cumulative)
    counts of a snapshot series.  Standard Prometheus-style estimation:
    find the bucket the target rank falls in and interpolate linearly
    inside it; ranks landing in the ``+Inf`` bucket clamp to the last
    finite boundary.  Returns ``None`` for an empty histogram.
    """
    bounds = list(bounds)
    counts = list(counts)
    total = sum(counts)
    if total <= 0:
        return None
    rank = min(max(q, 0.0), 1.0) * total
    cumulative = 0.0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        if count:
            cumulative += count
            if cumulative >= rank:
                if bound == math.inf:
                    return lower
                return lower + (bound - lower) * (
                    (rank - (cumulative - count)) / count
                )
        if bound != math.inf:
            lower = bound
    return lower


def _validate_exemplar(exemplar: str, lineno: int) -> None:
    """Check the OpenMetrics exemplar tail ``{labels} value [timestamp]``."""
    if not exemplar.startswith("{"):
        raise ValueError(f"line {lineno}: exemplar must start with labels")
    close = exemplar.find("}")
    if close < 0:
        raise ValueError(f"line {lineno}: unbalanced exemplar labels")
    labels = exemplar[1:close]
    if labels and "=" not in labels:
        raise ValueError(f"line {lineno}: bad exemplar labels {labels!r}")
    tokens = exemplar[close + 1:].split()
    if not tokens or len(tokens) > 2:
        raise ValueError(
            f"line {lineno}: exemplar needs a value and an optional "
            f"timestamp, got {tokens!r}"
        )
    for token in tokens:
        try:
            float(token.replace("+Inf", "inf"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad exemplar number {token!r}"
            ) from exc


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a text exposition back to ``{series-with-labels: value}``.

    Strict enough to catch exporter regressions: every non-comment line
    must be ``name{labels} value`` with a float-parsable value, histogram
    bucket counts must be monotonically non-decreasing in ``le`` order,
    and an OpenMetrics exemplar tail (``... # {trace_id="..."} v ts``)
    must itself be well-formed and is only allowed on ``_bucket`` or
    ``_total`` series.  Raises :class:`ValueError` on malformed input.
    """
    series: dict[str, float] = {}
    last_bucket: tuple[str, float] | None = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        exemplar = None
        if " # " in line:
            line, _, exemplar = line.partition(" # ")
            _validate_exemplar(exemplar, lineno)
        head, _, raw_value = line.rpartition(" ")
        if not head:
            raise ValueError(f"line {lineno}: no value in {line!r}")
        try:
            value = float(raw_value.replace("+Inf", "inf"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {raw_value!r}") from exc
        name = head.split("{", 1)[0]
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        if "{" in head and not head.endswith("}"):
            raise ValueError(f"line {lineno}: unbalanced labels in {head!r}")
        if exemplar is not None and not (
            name.endswith("_bucket") or name.endswith("_total")
        ):
            raise ValueError(
                f"line {lineno}: exemplar on non-bucket/counter series {name!r}"
            )
        if head in series:
            raise ValueError(f"line {lineno}: duplicate series {head!r}")
        series[head] = value
        if name.endswith("_bucket"):
            prefix = head.rsplit("le=", 1)[0]
            if last_bucket is not None and last_bucket[0] == prefix:
                if value < last_bucket[1]:
                    raise ValueError(
                        f"line {lineno}: bucket counts not cumulative"
                    )
            last_bucket = (prefix, value)
        else:
            last_bucket = None
    return series


@contextmanager
def observe_seconds(histogram) -> Iterator[None]:
    """Observe the wall-clock seconds of a ``with`` block into *histogram*.

    Works with a family (solo child) or a pre-bound labeled child; the
    observation lands even when the block raises, so latency series
    cover failed operations too.
    """
    started = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - started)


#: The process-global registry every instrumented module binds against.
REGISTRY = MetricsRegistry()
