#!/usr/bin/env python3
"""One harness, one budget: the end-to-end benchmark's entry point.

Driver contract (see BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload spam_warm --seed 7 --seconds 21 --trace 0

runs one workload — three rounds, each with its own set-up, a timed stretch of
``seconds / 3`` and a tear-down — checks every output against the plaintext
reference and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all four with their rounds interleaved
(W1a W2a W3a W4a W1b …), untraced and then traced, prints both tables and
writes ``benchmarks/e2e/out/report.json``.  ``--smoke`` is the same code path
at ring degree 256 in a few seconds.

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SOURCE = REPO / "src"

if __package__ in (None, ""):
    # Run as a script: import the harness as the ``e2e`` package, so that its
    # ``trace.py`` never shadows the standard library's ``trace``.
    sys.path[0] = str(HERE.parent)
    __package__ = "e2e"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"{SOURCE}/repro not found: the benchmark measures the program in src/")
if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))

import numpy  # noqa: E402

from repro.obs import scoped_telemetry  # noqa: E402
from repro.utils.timing import percentile  # noqa: E402

from . import trace as tracing  # noqa: E402
from . import workloads as wl  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "out"

# A traced round splits its stretch: untraced baseline, counted (cProfile), traced.
BASELINE_SHARE = 0.25
COUNTED_SHARE = 0.10
NOISY_ROUND_SPREAD = 0.10
QUIET_SHARE = 0.25           # of the slices of a closed-loop run, see ``quiet_quarter``
SLICE_SECONDS = 0.25         # how long a slice of consecutive emails is, about
FLOOR_PERCENTILE = 10.0      # of one kind of email's costs on the open loop, see ``cost_floor``
# The sizing the email counts of ISSUE 11 assumed: 30 s timed per workload.
REFERENCE_SECONDS = 30.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------
def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of this process and of *pids* (``/proc/<pid>/stat``)."""
    total = time.process_time()
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def rss_bytes(pids: list[int]) -> int:
    """Resident set of this process plus *pids*, right now."""
    return sum(
        int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * _PAGE_BYTES
        for pid in ["self", *pids]
    )


# ---------------------------------------------------------------------------
# One stretch, one round, one run
# ---------------------------------------------------------------------------
@dataclass
class Block:
    """One stretch of a workload's timed region."""

    samples: list[wl.Sample]
    wall: float
    cpu: float

    @property
    def emails_per_s(self) -> float:
        return len(self.samples) / self.wall


def measure(workload: wl.Workload, seconds: float) -> Block:
    samples: list[wl.Sample] = []
    pids = workload.worker_pids()
    cpu = cpu_seconds(pids)
    start = time.perf_counter()
    workload.run(seconds, samples)
    wall = time.perf_counter() - start
    cpu = cpu_seconds(pids) - cpu
    return Block(samples, wall, cpu)


@dataclass
class Rounds:
    """Everything the rounds of one workload produced."""

    open_loop: bool                                       # see ``end_to_end``
    setup_seconds: list[float] = field(default_factory=list)
    timed: list[Block] = field(default_factory=list)      # untraced run: the whole stretch
    baseline: list[Block] = field(default_factory=list)   # traced run: the untraced share
    counted: list[Block] = field(default_factory=list)    # traced run: the cProfile share
    rss: list[int] = field(default_factory=list)
    storage_bytes: int = 0
    served_mismatch: int = 0
    lateness: list[float] = field(default_factory=list)
    setup_spans: list[tuple] = field(default_factory=list)
    run_spans: list[tuple] = field(default_factory=list)
    layer_rows: list[dict[str, float]] = field(default_factory=list)


def run_round(
    workload: wl.Workload, round_index: int, seconds: float, trace: bool, rounds: Rounds
) -> None:
    tracer = workload.tracer
    with scoped_telemetry():
        try:
            mark = len(tracer.spans)
            start = time.perf_counter()
            with tracer.installed() if trace else nullcontext():
                workload.setup(round_index)
            rounds.setup_seconds.append(time.perf_counter() - start)
            rounds.setup_spans += tracer.spans[mark:]
            if trace:
                rounds.baseline.append(measure(workload, BASELINE_SHARE * seconds))
                with tracer.counting():
                    rounds.counted.append(measure(workload, COUNTED_SHARE * seconds))
                tracer.counted_emails += len(rounds.counted[-1].samples)
                mark = len(tracer.spans)
                with tracer.installed():
                    block = measure(workload, (1 - BASELINE_SHARE - COUNTED_SHARE) * seconds)
                rounds.run_spans += tracer.spans[mark:]
            else:
                block = measure(workload, seconds)
            rounds.timed.append(block)
            rounds.rss.append(rss_bytes(workload.worker_pids()))
            rounds.storage_bytes = workload.client_storage_bytes()
            rounds.served_mismatch += workload.emails_served_mismatch()
            rounds.lateness += workload.lateness
            if trace:
                rounds.layer_rows.append(workload.layer_rows())
        finally:
            workload.teardown()


def run_benchmark(
    names: list[str], seed: int, seconds: float, trace: bool, scale: wl.Scale
) -> dict[str, tuple[Rounds, tracing.Tracer]]:
    """Rounds of the named workloads, interleaved: W1a W2a … W1b W2b …"""
    state = {}
    for name in names:
        tracer = tracing.Tracer()
        workload = wl.WORKLOADS[name](seed, scale, tracer)
        state[name] = (workload, Rounds(workload.open_loop), tracer)
    for round_index in range(scale.rounds):
        for workload, rounds, _tracer in state.values():
            run_round(workload, round_index, seconds / scale.rounds, trace, rounds)
    return {name: (rounds, tracer) for name, (_w, rounds, tracer) in state.items()}


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------
def round_spread(blocks: list[Block]) -> float:
    """(max − min) / median of emails/s over the rounds."""
    rates = [block.emails_per_s for block in blocks]
    return (max(rates) - min(rates)) / statistics.median(rates)


def failures(rounds: Rounds) -> tuple[int, int]:
    """(attempted, failed): wrong, raised-as-lost, or miscounted by the fleet."""
    checked = [
        sample
        for block in rounds.timed + rounds.baseline + rounds.counted
        for sample in block.samples
    ]
    failed = sum(1 for sample in checked if not sample.ok) + rounds.served_mismatch
    return max(len(checked), 1), failed


def quiet_quarter(rounds: Rounds) -> tuple[list[wl.Sample], float]:
    """Closed loop: the emails every metric is computed over, and the wall they took.

    Each stretch is cut into slices of consecutive emails about ``SLICE_SECONDS``
    long, and the quarter of the slices with the least wall per email is kept.
    Noise on a shared box is one-sided — slow episodes of a second to ten,
    covering a quarter to over half of the time depending on the hour, some of
    which show as CPU time and all of which show as wall — so the quietest
    quarter estimates the undisturbed machine, while a real regression slows
    every slice.  Short slices find the gaps between episodes; a whole number of
    emails keeps every email's full wall.
    """
    every = [sample for block in rounds.timed for sample in block.samples]
    size = max(1, round(SLICE_SECONDS / statistics.median(s.latency for s in every)))
    chunks = [
        block.samples[start : start + size]
        for block in rounds.timed
        for start in range(0, max(len(block.samples) - size + 1, 1), size)
    ]
    walls = [chunk[-1].finished - (chunk[0].finished - chunk[0].latency) for chunk in chunks]
    order = sorted(range(len(chunks)), key=lambda i: walls[i] / len(chunks[i]))
    order = order[: max(1, round(len(chunks) * QUIET_SHARE))]
    return [s for i in order for s in chunks[i]], sum(walls[i] for i in order)


def cost_floor(samples: list[wl.Sample], cost: Callable[[wl.Sample], float]) -> float:
    """Open loop: one email's *cost* on the undisturbed machine, averaged over the mix.

    The fleet's cores are mostly idle, and what an email costs depends on what
    else the box is doing: the costs of one kind of email fall into two clumps
    1.5× apart (a spam email's provider share: 9–11 ms or 13–16 ms) whose sizes
    change with the hour, which moves a mean or a median by a third while the
    fast clump stays put.  So each kind's cost is its ``FLOOR_PERCENTILE``-th
    percentile, and the kinds are weighted by their counts.
    """
    kinds = [[cost(s) for s in samples if s.topic == topic] for topic in (False, True)]
    return sum(len(k) * percentile(k, FLOOR_PERCENTILE) for k in kinds if k) / len(samples)


def end_to_end(rounds: Rounds) -> dict[str, float]:
    if rounds.open_loop:
        # Goodput and latency are set by the schedule, timers and queues, not by
        # CPU speed.  Goodput discards nothing; the latency percentiles pool the
        # rounds but for the one with the worst tail, so that one disturbed round
        # of the three does not set them.  CPU is the three rounds' bill over
        # their emails: how awake the box is differs from run to run more than
        # from round to round, so there is no quiet round to pick.
        samples = [sample for block in rounds.timed for sample in block.samples]
        wall = sum(block.wall for block in rounds.timed)
        calm = sorted(
            ([1e3 * s.latency for s in block.samples] for block in rounds.timed),
            key=lambda latencies: percentile(latencies, 90),
        )[: max(1, len(rounds.timed) - 1)]
        latencies = [latency for block in calm for latency in block]
        provider = cost_floor(samples, lambda s: s.provider_seconds)
        client = cost_floor(samples, lambda s: s.client_seconds)
        cpu = sum(block.cpu for block in rounds.timed) / len(samples)
    else:
        samples, wall = quiet_quarter(rounds)
        latencies = [1e3 * sample.latency for sample in samples]
        provider = statistics.fmean(s.provider_seconds for s in samples)
        client = statistics.fmean(s.client_seconds for s in samples)
        cpu = statistics.fmean(s.cpu_seconds for s in samples)
    return {
        # The fastest of the run's set-ups, for the same reason as the quiet quarter.
        "setup_s": min(rounds.setup_seconds),
        "emails_per_s": len(samples) / wall,
        "email_latency_p50_ms": percentile(latencies, 50),
        "email_latency_p90_ms": percentile(latencies, 90),
        "provider_cpu_ms_per_email": 1e3 * provider,
        "client_cpu_ms_per_email": 1e3 * client,
        "cpu_ms_per_email": 1e3 * cpu,
        "network_kb_per_email": statistics.fmean(s.network_bytes for s in samples) / 1e3,
        "client_storage_mb": rounds.storage_bytes / 1e6,
        "peak_rss_mb": max(rounds.rss) / 1e6,
    }


def per_layer(rounds: Rounds, tracer: tracing.Tracer) -> tuple[dict[str, float], dict]:
    """The per-layer metrics, and the budget whose rows sum to one email's wall."""
    run = tracing.TraceSummary(rounds.run_spans)
    everything = tracing.TraceSummary(rounds.setup_spans + rounds.run_spans)
    samples = [sample for block in rounds.timed for sample in block.samples]
    latencies = [1e3 * sample.latency for sample in samples]
    emails = len(samples)
    counted = max(tracer.counted_emails, 1)

    def per_email(total: float) -> float:
        return total / emails if emails else 0.0

    def cpu_per_email(blocks: list[Block]) -> float:
        return sum(b.cpu for b in blocks) / max(sum(len(b.samples) for b in blocks), 1)

    handshakes = everything.calls["crypto.ot.base_handshake"]
    tail_pct = max(50.0, 100.0 * (1.0 - 10.0 / max(emails, 1)))
    baseline_cpu = cpu_per_email(rounds.baseline)
    values = {
        "classify.sparse_features_ms": run.ms_per_email("classify.sparse_features"),
        "classify.matrix_rows_ms": everything.ms_per_call("classify.matrix_rows"),
        "crypto.packing.dot_products_ms": run.ms_per_email("crypto.packing.dot_products"),
        "crypto.packing.encrypt_model_ms_per_ct": everything.ms_per_unit(
            "crypto.packing.encrypt_model", "cts"),
        "crypto.packing.ensure_stacks_ms": everything.ms_per_call("crypto.packing.ensure_stacks"),
        "twopc.blinding.blind_ms": run.ms_per_email("twopc.blinding.blind"),
        "crypto.bv.keygen_ms": everything.ms_per_call("crypto.bv.keygen"),
        "crypto.bv.encrypt_ms": run.ms_per_email("crypto.bv.encrypt"),
        "crypto.bv.encrypt_ms_per_ct": everything.ms_per_unit("crypto.bv.encrypt", "cts"),
        "crypto.bv.decrypt_ms": run.ms_per_email("crypto.bv.decrypt"),
        "crypto.bv.decrypt_ms_per_ct": everything.ms_per_unit("crypto.bv.decrypt", "cts"),
        "crypto.ntt.transform_ms": run.ms_per_email("crypto.ntt.transform"),
        "crypto.ntt.transforms_per_email": run.calls_per_email("crypto.ntt.transform"),
        "crypto.garbled.garble_ms": run.ms_per_email("crypto.garbled.garble"),
        "crypto.garbled.evaluate_ms": run.ms_per_email("crypto.garbled.evaluate"),
        "crypto.garbled.decode_ms": run.ms_per_email("crypto.garbled.decode"),
        "crypto.garbled.and_gates_per_email": run.units_per_email(
            "crypto.garbled.garble", "and_gates"),
        "crypto.garbled.table_kb_per_email": run.units_per_email(
            "crypto.garbled.garble", "table_bytes") / 1e3,
        "crypto.yao.session_self_ms": run.ms_per_email("crypto.yao.session"),
        # The handshake is initialize_ot_pool plus the base-OT machines it drives.
        "crypto.ot.base_handshake_ms": 1e3 * (
            everything.total_self["crypto.ot.base_handshake"]
            + everything.total_self["crypto.ot.base_machine"]
        ) / handshakes if handshakes else 0.0,
        "crypto.ot.extend_sender_ms": run.ms_per_email("crypto.ot.extend_sender"),
        "crypto.ot.extend_receiver_ms": run.ms_per_email("crypto.ot.extend_receiver"),
        "crypto.ot.ots_per_email": run.units_per_email("crypto.ot.make_receiver", "ots"),
        "utils.bitops.xor_bytes_calls_per_email": tracer.helper_calls["xor_bytes"] / counted,
        "utils.bitops.bit_pack_calls_per_email": tracer.helper_calls["bit_pack"] / counted,
        "crypto.hashes.sha256_calls_per_email": tracer.helper_calls["sha256"] / counted,
        "twopc.wire.encode_ms": run.ms_per_email("twopc.wire.encode"),
        "twopc.wire.decode_ms": run.ms_per_email("twopc.wire.decode"),
        "twopc.wire.frames_per_email": run.calls_per_email("twopc.wire.encode"),
        "twopc.protocol.setup_self_ms": everything.ms_per_call("twopc.protocol.setup"),
        "twopc.protocol.session_self_ms": run.ms_per_email("twopc.protocol.session"),
        "twopc.session.loop_self_ms": run.ms_per_email("twopc.session.loop"),
        "twopc.session.rounds_per_email": per_email(sum(s.network_rounds for s in samples)),
        "core.runtime.register_ms_per_mailbox": everything.ms_per_call("core.runtime.register"),
        "core.runtime.serve_self_ms": run.ms_per_email("core.runtime.serve"),
        "fabric.agent.spawn_s": everything.ms_per_call("fabric.agent.spawn") / 1e3,
        # One mailbox is two registrations (spam and topics).
        "fabric.register_ms_per_mailbox": 2 * everything.ms_per_call("fabric.register"),
        "fabric.submit_block_ms_per_email": run.ms_per_unit("fabric.submit", "emails"),
        "fabric.poll_ms": run.ms_per_call("fabric.poll"),
        "fabric.control.pack_ms": run.ms_per_call("fabric.control.pack"),
        "fabric.control.unpack_ms": run.ms_per_call("fabric.control.unpack"),
        "fabric.control.commands_per_email": per_email(
            run.units[("fabric.control.pack", "commands")]),
        "fabric.control.kb_per_email": per_email(
            run.units[("fabric.control.pack", "bytes")]
            + run.units[("fabric.control.unpack", "bytes")]) / 1e3,
        "driver.lateness_p90_ms": 1e3 * percentile(rounds.lateness, 90) if rounds.lateness else 0.0,
        "driver.round_spread": round_spread(rounds.timed),
        "driver.email_latency_tail_ms": percentile(latencies, tail_pct),
        "driver.email_latency_tail_pct": tail_pct,
        "driver.trace_overhead_share": (
            (cpu_per_email(rounds.timed) - baseline_cpu) / baseline_cpu if baseline_cpu else 0.0
        ),
        "driver.unattributed_share": (
            run.email_self[tracing.ROOT] / run.wall if run.wall else 0.0
        ),
    }
    # Rows read off the program's public metrics, and the fleet's IPC arms: mean over rounds.
    for key in wl.LAYER_ROWS:
        values[key] = statistics.fmean(rows.get(key, 0.0) for rows in rounds.layer_rows)
    budget = {"rows_ms": run.budget(), "wall_ms": run.wall_ms_per_email(), "emails": run.emails}
    return values, budget


def shaped(values: dict[str, float], section: str) -> dict[str, dict]:
    """``{name: {value, unit}}`` for every metric BENCHMARK.json lists in *section*."""
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in SPEC[section]
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def machine_meta(seed: int, seconds: float, scale: wl.Scale) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "seed": seed,
        "seconds_per_workload": seconds,
        "scale_factor": seconds / REFERENCE_SECONDS,
        "ring_degree": scale.ring_degree,
        "rounds": scale.rounds,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "loadavg_start": os.getloadavg(),
    }


def print_table(title: str, metrics: dict[str, dict], samples: int) -> None:
    print(f"\n{title}  (n = {samples} emails)")
    for name, entry in metrics.items():
        print(f"  {name:<44}{entry['value']:>14.4f} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="ring degree 256, one short round per workload")
    args = parser.parse_args(argv)

    scale = wl.SMOKE if args.smoke else wl.FULL
    seconds = args.seconds or (1.0 if args.smoke else float(SPEC["run_seconds"]))
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    meta = machine_meta(args.seed, seconds, scale)
    OUT.mkdir(exist_ok=True)

    report: dict = {"meta": meta, "noisy": False, "workloads": {name: {} for name in names}}
    last: dict = {}
    all_correct = True
    for trace in passes:
        results = run_benchmark(names, args.seed, seconds, trace, scale)
        for name, (rounds, tracer) in results.items():
            attempted, failed = failures(rounds)
            samples = sum(len(block.samples) for block in rounds.timed)
            entry = report["workloads"][name]
            if trace:
                values, budget = per_layer(rounds, tracer)
                metrics = shaped(values, "per_layer")
                entry.update(per_layer=metrics, budget=budget)
                tracer.write_chrome_trace(OUT / f"trace-{name}.json")
            else:
                metrics = shaped(end_to_end(rounds), "end_to_end")
                entry.update(end_to_end=metrics, round_spread=round_spread(rounds.timed))
                report["noisy"] |= entry["round_spread"] > NOISY_ROUND_SPREAD
            entry["failed_share"] = max(entry.get("failed_share", 0.0), failed / attempted)
            all_correct &= failed == 0
            print_table(f"{name} [{'per-layer, traced' if trace else 'end-to-end'}]",
                        metrics, samples)
            last = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}
    meta["loadavg_end"] = os.getloadavg()
    if report["noisy"]:
        print(f"\nnoisy: a workload's emails/s differed by more than "
              f"{NOISY_ROUND_SPREAD:.0%} between rounds")
    (OUT / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.workload and args.trace is not None:
        print(json.dumps(last))   # the driver contract: the last line of stdout
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
