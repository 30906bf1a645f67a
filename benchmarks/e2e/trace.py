"""Span tracing from outside the program, for the per-layer budget.

The traced run wraps the public callables at each layer boundary *from
here* — nothing under ``src/`` knows it is being measured.  A name that a
module bound with ``from … import`` is patched where it was bound (e.g.
``repro.crypto.yao.garble``), because patching the defining module would
leave the caller's reference untouched.

A span is ``(id, name, start, end, parent, email, thread, units)``.  Spans
of one email share its ``email`` id; spans recorded outside any email (set-up:
keygen, model encryption, base OTs, registration) carry ``email = -1``.  A
span's *self time* is its duration minus the durations of its direct
children, so the self times of every span under one email's root add up to
that email's wall time exactly — that is the budget.

Hot helpers (``xor_bytes`` runs ~25k times per spam email) are counted, not
timed: a wrapper around them would cost more than the helper.  They are
counted by running a few emails under :mod:`cProfile`, away from the timed
spans.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import pstats
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.twopc.wire import ControlVerb

ROOT = "driver.email"

# Spans of these names may nest inside one another (a plan-level transform
# loops over per-prime transforms); their per-email *count* takes only the
# outermost.
_OUTERMOST_ONLY = {"crypto.ntt.transform"}


def _session_span_name(session: Any, *_args: Any) -> str:
    """Route ``ProtocolSession.start/handle`` to the layer that owns *session*."""
    kind = type(session).__name__
    if kind == "PooledIknpSenderMachine":
        return "crypto.ot.extend_sender"
    if kind == "PooledIknpReceiverMachine":
        return "crypto.ot.extend_receiver"
    if kind.startswith("BaseOt"):
        return "crypto.ot.base_machine"   # runs under an initialize_ot_pool span
    if kind.startswith("Yao"):
        return "crypto.yao.session"
    return "twopc.protocol.session"


def _garble_units(args: tuple, _kwargs: dict, result: Any) -> dict[str, float]:
    return {"and_gates": args[0].and_count, "table_bytes": result.tables.size_bytes()}


def _pack_units(args: tuple, _kwargs: dict, result: bytes) -> dict[str, float]:
    return {"bytes": len(result), "commands": 1 if args[0] == ControlVerb.COMMAND else 0}


# (module, owner class or None, attribute, span name, units(args, kwargs, result) or None);
# a method's args start with self (or cls).
# With a class the attribute is patched on the class; without one, on the
# module — which for a ``from … import`` name is the *importing* module.
PATCHES: list[tuple[str, str | None, str, Any, Callable | None]] = [
    ("repro.classify.model", "QuantizedLinearModel", "sparse_features", "classify.sparse_features", None),
    ("repro.classify.model", "QuantizedLinearModel", "matrix_rows", "classify.matrix_rows", None),
    ("repro.twopc.spam", "SpamFilterProtocol", "setup", "twopc.protocol.setup", None),
    ("repro.twopc.topics", "TopicExtractionProtocol", "setup", "twopc.protocol.setup", None),
    ("repro.crypto.packing", "PackedLinearModel", "dot_products", "crypto.packing.dot_products", None),
    ("repro.crypto.packing", "PackedLinearModel", "encrypt", "crypto.packing.encrypt_model",
     lambda a, k, r: {"cts": r.ciphertext_count()}),
    ("repro.crypto.packing", "PackedLinearModel", "ensure_stacks", "crypto.packing.ensure_stacks", None),
    ("repro.twopc.spam", None, "blind_dot_products", "twopc.blinding.blind", None),
    ("repro.twopc.topics", None, "blind_dot_products", "twopc.blinding.blind", None),
    ("repro.twopc.topics", None, "blind_extracted_candidates", "twopc.blinding.blind", None),
    ("repro.crypto.bv", "BVScheme", "generate_keypair", "crypto.bv.keygen", None),
    ("repro.crypto.bv", "BVScheme", "encrypt_slots", "crypto.bv.encrypt", lambda a, k, r: {"cts": 1}),
    ("repro.crypto.bv", "BVScheme", "encrypt_slots_many", "crypto.bv.encrypt",
     lambda a, k, r: {"cts": len(r)}),
    ("repro.crypto.bv", "BVScheme", "decrypt_slots", "crypto.bv.decrypt", lambda a, k, r: {"cts": 1}),
    ("repro.crypto.bv", "BVScheme", "decrypt_slots_many", "crypto.bv.decrypt",
     lambda a, k, r: {"cts": len(r)}),
    ("repro.crypto.ntt", "NttPlan", "forward", "crypto.ntt.transform", None),
    ("repro.crypto.ntt", "NttPlan", "inverse", "crypto.ntt.transform", None),
    ("repro.crypto.ntt", "NttContext", "forward", "crypto.ntt.transform", None),
    ("repro.crypto.ntt", "NttContext", "inverse", "crypto.ntt.transform", None),
    ("repro.crypto.ntt", "NttContext", "forward_many", "crypto.ntt.transform", None),
    ("repro.crypto.ntt", "NttContext", "inverse_many", "crypto.ntt.transform", None),
    ("repro.crypto.yao", None, "garble", "crypto.garbled.garble", _garble_units),
    ("repro.crypto.yao", None, "evaluate", "crypto.garbled.evaluate", None),
    ("repro.crypto.yao", None, "decode_outputs", "crypto.garbled.decode", None),
    ("repro.crypto.yao", None, "make_ot_receiver", "crypto.ot.make_receiver",
     lambda a, k, r: {"ots": len(a[1])}),
    ("repro.twopc.spam", None, "initialize_ot_pool", "crypto.ot.base_handshake", None),
    ("repro.twopc.topics", None, "initialize_ot_pool", "crypto.ot.base_handshake", None),
    ("repro.twopc.session", "ProtocolSession", "start", _session_span_name, None),
    ("repro.twopc.session", "ProtocolSession", "handle", _session_span_name, None),
    ("repro.twopc.session", "DecryptingSession", "supply_decrypted", _session_span_name, None),
    ("repro.twopc.wire", "WireCodec", "encode", "twopc.wire.encode", None),
    ("repro.twopc.wire", "WireCodec", "decode", "twopc.wire.decode", None),
    ("repro.twopc.session", "SessionLoop", "run", "twopc.session.loop", None),
    ("repro.core.runtime", "MailboxDirectory", "register_spam", "core.runtime.register", None),
    ("repro.core.runtime", "MailboxDirectory", "register_topics", "core.runtime.register", None),
    ("repro.core.runtime", "MailboxDirectory", "spam_jobs", "core.runtime.serve", None),
    ("repro.core.runtime", "MailboxDirectory", "topic_jobs", "core.runtime.serve", None),
    ("repro.core.runtime", "ProviderRuntime", "serve_burst", "core.runtime.serve", None),
    ("repro.core.runtime", "ProviderRuntime", "drain", "core.runtime.serve", None),
    ("repro.fabric", None, "spawn_local_agent", "fabric.agent.spawn", None),
    ("repro.fabric.control", "FabricRuntime", "register_spam", "fabric.register", None),
    ("repro.fabric.control", "FabricRuntime", "register_topics", "fabric.register", None),
    ("repro.fabric.control", "FabricRuntime", "submit_spam", "fabric.submit",
     lambda a, k, r: {"emails": len(r)}),
    ("repro.fabric.control", "FabricRuntime", "submit_topics", "fabric.submit",
     lambda a, k, r: {"emails": len(r)}),
    ("repro.fabric.control", "FabricRuntime", "poll", "fabric.poll", None),
    ("repro.fabric.control", "FabricRuntime", "drain", "fabric.drain", None),
    ("repro.fabric.control", None, "pack_control", "fabric.control.pack", _pack_units),
    ("repro.fabric.control", None, "unpack_control", "fabric.control.unpack",
     lambda a, k, r: {"bytes": len(a[0])}),
]

# Hot helpers counted under cProfile: (function, file suffix) -> counter name.
COUNTED_HELPERS = {
    ("xor_bytes", "repro/utils/bitops.py"): "xor_bytes",
    ("bits_to_bytes", "repro/utils/bitops.py"): "bit_pack",
    ("bytes_to_bits", "repro/utils/bitops.py"): "bit_pack",
    ("sha256", "repro/crypto/hashes.py"): "sha256",
}


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.helper_calls: dict[str, int] = defaultdict(int)
        self.counted_emails = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._email_ids = itertools.count()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, name: Any, units: Callable | None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    span_id,
                    name if isinstance(name, str) else name(*args),
                    start,
                    end,
                    parent,
                    getattr(local, "email", -1),
                    threading.get_ident(),
                    units(args, kwargs, result) if units and result is not None else None,
                ))

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def email(self) -> Iterator[None]:
        """The root span of one email; a no-op unless the patches are installed."""
        if not self._installed:
            yield
            return
        local = self._local
        stack = self._stack()
        span_id = next(self._ids)
        local.email = email_id = next(self._email_ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            local.email = -1
            self.spans.append((span_id, ROOT, start, end, -1, email_id,
                               threading.get_ident(), None))

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        if self._installed:
            return
        for module_name, owner_name, attribute, name, units in PATCHES:
            __import__(module_name)
            owner = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                patched: Any = classmethod(self._wrap(original.__func__, name, units))
            else:
                patched = self._wrap(original, name, units)
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def counting(self) -> Iterator[None]:
        """Run a block under cProfile and add its hot-helper calls to ``helper_calls``.

        The caller adds the emails the block served to ``counted_emails``.
        """
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
        for (filename, _line, function), row in pstats.Stats(profile).stats.items():
            for (helper, suffix), counter in COUNTED_HELPERS.items():
                if function == helper and filename.endswith(suffix):
                    self.helper_calls[counter] += row[1]

    # -- output --------------------------------------------------------------
    def write_chrome_trace(self, path: Any) -> None:
        """``trace.json`` in the Chrome/Perfetto "X" (complete event) shape."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": thread,
                "args": {"id": span_id, "parent": parent, "email": email, **(units or {})},
            }
            for span_id, name, start, end, parent, email, thread, units in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class TraceSummary:
    """Self times, call counts and unit totals per span name."""

    def __init__(self, spans: list[tuple]) -> None:
        child_time: dict[int, float] = defaultdict(float)
        names = {span[0]: span[1] for span in spans}
        for _id, _name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.emails = 0
        self.wall = 0.0                      # Σ root durations
        self.email_self: dict[str, float] = defaultdict(float)   # inside an email
        self.total_self: dict[str, float] = defaultdict(float)   # anywhere
        self.calls: dict[str, int] = defaultdict(int)            # anywhere
        self.email_calls: dict[str, int] = defaultdict(int)      # inside an email
        self.units: dict[tuple[str, str], float] = defaultdict(float)        # anywhere
        self.email_units: dict[tuple[str, str], float] = defaultdict(float)  # inside an email
        for span_id, name, start, end, parent, email, _thread, units in spans:
            self_time = (end - start) - child_time.get(span_id, 0.0)
            nested = name in _OUTERMOST_ONLY and names.get(parent) == name
            self.total_self[name] += self_time
            if not nested:
                self.calls[name] += 1
            for key, value in (units or {}).items():
                self.units[(name, key)] += value
            if name == ROOT:
                self.emails += 1
                self.wall += end - start
            if email >= 0:
                self.email_self[name] += self_time
                if not nested:
                    self.email_calls[name] += 1
                for key, value in (units or {}).items():
                    self.email_units[(name, key)] += value

    # Every reducer returns 0.0 when the layer was never entered.
    def ms_per_email(self, name: str) -> float:
        return 1e3 * self.email_self[name] / self.emails if self.emails else 0.0

    def ms_per_call(self, name: str) -> float:
        return 1e3 * self.total_self[name] / self.calls[name] if self.calls[name] else 0.0

    def ms_per_unit(self, name: str, unit: str) -> float:
        total = self.units[(name, unit)]
        return 1e3 * self.total_self[name] / total if total else 0.0

    def calls_per_email(self, name: str) -> float:
        return self.email_calls[name] / self.emails if self.emails else 0.0

    def units_per_email(self, name: str, unit: str) -> float:
        return self.email_units[(name, unit)] / self.emails if self.emails else 0.0

    def budget(self) -> dict[str, float]:
        """ms per email by span name; the root's self time is ``unattributed``."""
        rows = {
            name: self.ms_per_email(name)
            for name in sorted(self.email_self)
            if name != ROOT
        }
        rows["unattributed"] = self.ms_per_email(ROOT)
        return rows

    def wall_ms_per_email(self) -> float:
        return 1e3 * self.wall / self.emails if self.emails else 0.0
