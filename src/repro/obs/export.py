"""Exporters and golden-schema validators for the telemetry layer.

Three formats, all derived from the same registry snapshot / tracer
snapshot pair so bench JSON and flight recordings can never disagree:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` lines, cumulative ``_bucket{le=...}`` series ending in
  ``+Inf``, ``_sum``/``_count``).  Scrape-ready.
* :func:`json_text` — one JSON document bundling the metrics snapshot and
  the span list; the machine-readable flight recording.
* :func:`chrome_trace` — Chrome Trace Event JSON (``chrome://tracing`` /
  Perfetto): complete events (``ph: "X"``) with integer-microsecond
  timestamps, one synthetic ``tid`` per trace id in first-appearance
  order, so one email reads as one horizontal lane.

Determinism: all three serializers sort keys and use fixed separators, so
identical telemetry yields byte-identical artifacts — the property the
VirtualClock span-pin test relies on.

The ``validate_*`` functions are the "golden schema" CI's obs smoke job
checks a live scrape against; they raise ``ValueError`` with a pointed
message rather than returning False, so failures name the offending entry.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import SNAPSHOT_SCHEMA, render_key

JSON_SCHEMA = "repro-telemetry/1"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: dict[str, str], extra: list[tuple[str, str]] | None = None) -> str:
    pairs = [(key, labels[key]) for key in sorted(labels)]
    if extra:
        pairs.extend(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(str(value))}"' for key, value in pairs)
    return "{" + inner + "}"


def prometheus_text(snapshot: dict) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot["counters"]:
        type_line(entry["name"], "counter")
        lines.append(
            f"{entry['name']}{_render_labels(entry['labels'])} {_format_value(entry['value'])}"
        )
    for entry in snapshot["gauges"]:
        type_line(entry["name"], "gauge")
        lines.append(
            f"{entry['name']}{_render_labels(entry['labels'])} {_format_value(entry['value'])}"
        )
    for entry in snapshot["histograms"]:
        name = entry["name"]
        type_line(name, "histogram")
        cumulative = 0
        for bound, bucket in zip(entry["bounds"], entry["counts"]):
            cumulative += bucket
            le = _render_labels(entry["labels"], extra=[("le", _format_value(bound))])
            lines.append(f"{name}_bucket{le} {cumulative}")
        cumulative += entry["counts"][len(entry["bounds"])]
        inf = _render_labels(entry["labels"], extra=[("le", "+Inf")])
        lines.append(f"{name}_bucket{inf} {cumulative}")
        lines.append(f"{name}_sum{_render_labels(entry['labels'])} {_format_value(entry['sum'])}")
        lines.append(f"{name}_count{_render_labels(entry['labels'])} {entry['count']}")
    return "\n".join(lines) + "\n"


def json_text(snapshot: dict, spans: list[dict] | None = None) -> str:
    """One JSON document bundling metrics and spans (sorted, byte-stable)."""
    payload = {
        "schema": JSON_SCHEMA,
        "metrics": snapshot,
        "spans": spans if spans is not None else [],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def chrome_trace(spans: list[dict]) -> dict:
    """Convert tracer spans to a Chrome Trace Event document.

    Complete events (``ph: "X"``) with µs-integer ``ts``/``dur``; each
    distinct trace id gets its own ``tid`` in first-appearance order plus a
    ``thread_name`` metadata event, so Perfetto shows one lane per email.
    """
    tids: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        tid = tids.setdefault(span["trace_id"], len(tids) + 1)
        start_us = int(round(span["start_seconds"] * 1e6))
        end_us = int(round(span["end_seconds"] * 1e6))
        event = {
            "name": span["name"],
            "cat": span["category"],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": start_us,
            "dur": max(end_us - start_us, 0),
        }
        if span["meta"]:
            event["args"] = {key: span["meta"][key] for key in sorted(span["meta"])}
        events.append(event)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": trace_id},
        }
        for trace_id, tid in tids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def chrome_trace_text(spans: list[dict]) -> str:
    return json.dumps(chrome_trace(spans), sort_keys=True, separators=(",", ":")) + "\n"


# -- golden-schema validators ------------------------------------------------


def validate_snapshot(snapshot: dict) -> None:
    """Raise ValueError unless ``snapshot`` matches the registry schema."""
    if not isinstance(snapshot, dict):
        raise ValueError("snapshot must be a dict")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"bad snapshot schema: {snapshot.get('schema')!r}")
    for section in ("counters", "gauges", "histograms"):
        entries = snapshot.get(section)
        if not isinstance(entries, list):
            raise ValueError(f"snapshot[{section!r}] must be a list")
        seen: set[str] = set()
        for entry in entries:
            if not isinstance(entry.get("name"), str) or not entry["name"]:
                raise ValueError(f"{section} entry missing name: {entry!r}")
            labels = entry.get("labels")
            if not isinstance(labels, dict):
                raise ValueError(f"{section} entry {entry['name']!r} missing labels dict")
            key = render_key(entry["name"], labels)
            if key in seen:
                raise ValueError(f"duplicate {section} series: {key}")
            seen.add(key)
            if section == "histograms":
                bounds, counts = entry.get("bounds"), entry.get("counts")
                if not isinstance(bounds, list) or not isinstance(counts, list):
                    raise ValueError(f"histogram {key} missing bounds/counts")
                if len(counts) != len(bounds) + 1:
                    raise ValueError(
                        f"histogram {key}: {len(counts)} counts for {len(bounds)} bounds"
                    )
                if list(bounds) != sorted(bounds):
                    raise ValueError(f"histogram {key}: bounds not ascending")
                if any(bucket < 0 for bucket in counts):
                    raise ValueError(f"histogram {key}: negative bucket count")
                if sum(counts) != entry.get("count"):
                    raise ValueError(f"histogram {key}: count != sum of buckets")
            else:
                if not isinstance(entry.get("value"), (int, float)):
                    raise ValueError(f"{section} series {key}: non-numeric value")


def validate_chrome_trace(document: dict) -> None:
    """Raise ValueError unless ``document`` is a well-formed Chrome trace."""
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            raise ValueError(f"unexpected event phase: {phase!r}")
        for field in ("name", "cat", "pid", "tid", "ts", "dur"):
            if field not in event:
                raise ValueError(f"trace event missing {field!r}: {event!r}")
        if not isinstance(event["ts"], int) or not isinstance(event["dur"], int):
            raise ValueError(f"trace event ts/dur must be integer microseconds: {event!r}")
        if event["dur"] < 0:
            raise ValueError(f"negative-duration trace event: {event!r}")


def write_artifacts(prefix: str | Path, snapshot: dict, spans: list[dict]) -> list[Path]:
    """Write all three artifacts under ``prefix`` and return their paths.

    ``<prefix>.prom`` (Prometheus text), ``<prefix>.metrics.json`` (bundled
    JSON), ``<prefix>.trace.json`` (Chrome trace); the fabric tests write and
    validate the trio for a real two-agent run.
    """
    prefix = Path(prefix)
    paths = {
        prefix.with_name(prefix.name + ".prom"): prometheus_text(snapshot),
        prefix.with_name(prefix.name + ".metrics.json"): json_text(snapshot, spans),
        prefix.with_name(prefix.name + ".trace.json"): chrome_trace_text(spans),
    }
    for path, text in paths.items():
        path.write_text(text)
    return list(paths)
