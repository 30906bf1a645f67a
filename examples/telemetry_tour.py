#!/usr/bin/env python3
"""Telemetry tour: metrics registry, per-email spans, and the exporters.

The serving stack instruments itself through :mod:`repro.obs` — a
process-local metrics registry (counters, gauges, log-bucket histograms)
plus a span tracer that follows one email end to end.  This example drives
a real windowed serving run and then reads everything back, in three acts:

1. serve a burst of spam classifications through a
   :class:`~repro.core.runtime.ProviderRuntime` whose decrypt window is
   held open, scraping the registry **mid-drain** (open windows and all);
2. drain, and walk one email's span chain —
   ``enqueue -> window_park -> decrypt -> reply`` under one trace id;
3. render the same telemetry through all three exporters (Prometheus
   text, bundled JSON, Chrome trace), validate each against the golden
   schema, and write the artifact trio to disk.

Run with:  python examples/telemetry_tour.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.core.runtime import DecryptScheduler, ProviderRuntime, session_job
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.dh import generate_group
from repro.mail.traces import VirtualClock
from repro.obs import scoped_telemetry
from repro.obs.export import (
    chrome_trace,
    json_text,
    prometheus_text,
    validate_chrome_trace,
    validate_snapshot,
    write_artifacts,
)
from repro.twopc.spam import SpamFilterProtocol

FEATURE_ROWS = 300
EMAILS = 4


def build_protocol():
    scheme = BVScheme(BVParameters.test_parameters())
    group = generate_group(256)
    rng = np.random.default_rng(5)
    linear = LinearModel(
        weights=rng.normal(size=(FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    return protocol, protocol.setup(quantized)


def gauge(snapshot, name):
    return next(e["value"] for e in snapshot["gauges"] if e["name"] == name)


def counter(snapshot, name):
    return next(e["value"] for e in snapshot["counters"] if e["name"] == name)


def main() -> None:
    protocol, setup = build_protocol()
    rng = np.random.default_rng(9)
    feature_sets = [
        {int(row): 1 for row in rng.choice(FEATURE_ROWS, size=30, replace=False)}
        for _ in range(EMAILS)
    ]

    # An isolated registry/tracer for the run: nothing from module import
    # time (or a previous run) pollutes the story we read back.
    with scoped_telemetry() as (registry, tracer):
        clock = VirtualClock()
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=100, max_delay_seconds=2.0, clock=clock
            )
        )
        jobs = [
            session_job(protocol, setup, (features,), label=index)
            for index, features in enumerate(feature_sets)
        ]

        # -- act 1: park the burst, scrape mid-drain ----------------------
        parked = runtime.serve_burst(jobs)
        assert parked == []  # every decrypt is parked in the open window
        mid = registry.snapshot()
        validate_snapshot(mid)
        print("mid-drain scrape (decrypt window still open):")
        print(f"  pending_window_ciphertexts = {gauge(mid, 'pending_window_ciphertexts'):.0f}")
        print(f"  emails_served_total        = {counter(mid, 'emails_served_total'):.0f}")

        # -- act 2: close the window, walk one email's span chain ---------
        clock.advance(2.0)
        finished = runtime.poll()
        print(f"\nwindow aged out: {len(finished)} emails finished in one flush")
        spans = tracer.snapshot()
        chain = [span for span in spans if span["trace_id"] == "email-0"]
        print("span chain for email-0 (virtual seconds):")
        for span in chain:
            width = span["end_seconds"] - span["start_seconds"]
            print(
                f"  {span['name']:<12} [{span['start_seconds']:.3f}, "
                f"{span['end_seconds']:.3f}]  ({width:.3f}s)  {span['meta'] or ''}"
            )
        assert [span["name"] for span in chain] == [
            "enqueue", "window_park", "decrypt", "reply", "email",
        ]

        # -- act 3: the exporters -----------------------------------------
        done = registry.snapshot()
        validate_snapshot(done)
        prom = prometheus_text(done)
        batch_lines = [
            line for line in prom.splitlines()
            if line.startswith("decrypt_batch_ciphertexts_")
            and ("_sum" in line or "_count" in line)
        ]
        print("\nprometheus exposition (batch-size series):")
        for line in batch_lines:
            print(f"  {line}")

        document = chrome_trace(spans)
        validate_chrome_trace(document)
        lanes = {e["tid"] for e in document["traceEvents"] if e["ph"] == "X"}
        print(f"\nchrome trace: {len(document['traceEvents'])} events "
              f"across {len(lanes)} email lanes (load in chrome://tracing)")

        bundled = json.loads(json_text(done, spans))
        print(f"bundled JSON: schema={bundled['schema']}, "
              f"{len(bundled['spans'])} spans, "
              f"{len(bundled['metrics']['histograms'])} histogram series")

        with tempfile.TemporaryDirectory() as tmp:
            paths = write_artifacts(Path(tmp) / "tour.telemetry", done, spans)
            print("\nartifact trio written:")
            for path in paths:
                print(f"  {path.name}  ({path.stat().st_size} bytes)")

    print("\ntelemetry tour complete: registry scraped, chain closed, exporters valid")


if __name__ == "__main__":
    main()
