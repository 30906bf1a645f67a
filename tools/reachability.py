#!/usr/bin/env python3
"""Which ``src/repro`` functions do the product runs enter?

    python3 tools/reachability.py

runs the product — every script in ``examples/``, ``benchmarks/e2e/run.py
--smoke`` and the figure benchmarks ``benchmarks/bench_*.py`` under
``--benchmark-disable`` — with a trace hook that records each function of
``src/repro`` the first time it is entered, then compares the record with
every function defined there.  It exits non-zero if a run fails, or if a
function is neither entered nor named in :data:`ALLOWED`.  Tests are not a
product run: code that only tests drive either gets a product caller, moves
into ``tests/`` when tests use it as a reference, or is deleted.

The hook is a ``sitecustomize`` module on a temporary ``PYTHONPATH`` entry, so
it starts in every interpreter the runs start, ``python -m repro.fabric``
agents included.  It is a ``sys.settrace`` global trace function (installed
for new threads with ``threading.settrace``) that returns ``None``, so it sees
one ``call`` event per frame and never traces lines; ``cProfile``, which the
harness's traced arm enables, replaces the profile hook, not this one.  A
forked worker inherits the hook of the thread that forked it.  Each new
function is appended to one log with a single unbuffered ``O_APPEND`` write,
so a worker that is killed loses nothing it already recorded.

The universe is every module-level function and every method of a class
(nested classes included) in ``src/repro``; functions defined inside other
functions are reached with their parent and are not counted.
"""

from __future__ import annotations

import ast
import contextlib
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src"
PACKAGE = SOURCE / "repro"

INTERFACE_STUB = "interface stub"
FAULT_PATH = "fault path"
ITEM_6B_PENDING = "item 6b pending"
ITEM_4C_PENDING = "item 4c pending"
ITEM_2A_PENDING = "item 2a pending"
ITEM_7_INPUT = "item 7's input"
FROZEN_TRACER_NAME = "frozen tracer name"
CATEGORIES = (
    INTERFACE_STUB,
    FAULT_PATH,
    ITEM_6B_PENDING,
    ITEM_4C_PENDING,
    ITEM_2A_PENDING,
    ITEM_7_INPUT,
    FROZEN_TRACER_NAME,
)


def _entries(category: str, reason: str, *names: str) -> dict[str, tuple[str, str]]:
    return {name: (category, reason) for name in names}


#: Functions no product run enters that stay in ``src/``: name
#: (``module:qualname``) -> (category, reason).  ROADMAP.md's items 2a, 4c, 6b
#: and 7 say what will give the pending entries a product caller, or delete them.
ALLOWED: dict[str, tuple[str, str]] = {
    **_entries(
        INTERFACE_STUB,
        "abstract method or default of the FunctionModule ABC; every module overrides it",
        "repro.core.modules:FunctionModule.process_email",
        "repro.core.modules:FunctionModule._output",
        "repro.core.modules:FunctionModule.client_storage_bytes",
    ),
    **_entries(
        INTERFACE_STUB,
        "abstract method of the SessionStore ABC",
        "repro.core.runtime:SessionStore.put",
        "repro.core.runtime:SessionStore.get",
        "repro.core.runtime:SessionStore.delete",
        "repro.core.runtime:SessionStore.keys",
    ),
    **_entries(
        INTERFACE_STUB,
        "method of the ProviderFunction typing.Protocol",
        "repro.core.runtime:ProviderFunction.make_channel",
        "repro.core.runtime:ProviderFunction.make_ot_pool",
        "repro.core.runtime:ProviderFunction.client_session",
        "repro.core.runtime:ProviderFunction.provider_session",
        "repro.core.runtime:ProviderFunction.restore_client",
        "repro.core.runtime:ProviderFunction.restore_provider",
        "repro.core.runtime:ProviderFunction.result_of",
    ),
    **_entries(
        INTERFACE_STUB,
        "method of the WorkerLink typing.Protocol",
        "repro.core.runtime:WorkerLink.alive",
        "repro.core.runtime:WorkerLink.post",
        "repro.core.runtime:WorkerLink.wait",
        "repro.core.runtime:WorkerLink.close",
    ),
    **_entries(
        INTERFACE_STUB,
        "abstract method, or default that refuses, of the AHEScheme ABC",
        "repro.crypto.ahe:AHEScheme.slot_bits",
        "repro.crypto.ahe:AHEScheme.num_slots",
        "repro.crypto.ahe:AHEScheme.supports_slot_shift",
        "repro.crypto.ahe:AHEScheme.generate_keypair",
        "repro.crypto.ahe:AHEScheme.encrypt_slots",
        "repro.crypto.ahe:AHEScheme.decrypt_slots",
        "repro.crypto.ahe:AHEScheme.add",
        "repro.crypto.ahe:AHEScheme.scalar_mul",
        "repro.crypto.ahe:AHEScheme.shift_up",
        "repro.crypto.ahe:AHEScheme.blind_samples",
        "repro.crypto.ahe:AHEScheme.stack_ciphertexts",
        "repro.crypto.ahe:AHEScheme.combine_windows",
        "repro.crypto.ahe:AHEScheme.serialize_ciphertext",
        "repro.crypto.ahe:AHEScheme.deserialize_ciphertext",
        "repro.crypto.ahe:AHEScheme.ciphertext_size_bytes",
    ),
    **_entries(
        INTERFACE_STUB,
        "BV's implementation of an abstract AHEScheme operation that only Paillier's "
        "generic dot-product chain calls in the product; BV dot products run batched",
        "repro.crypto.bv:BVScheme.scalar_mul",
    ),
    **_entries(
        INTERFACE_STUB,
        "BV's half of the AHEScheme whole-ciphertext wire codec; served BV traffic is "
        "score samples, whole ciphertexts are Paillier's",
        "repro.crypto.ringlwe:RingPolynomial.from_spectra",
    ),
    **_entries(
        INTERFACE_STUB,
        "abstract hook of the ProtocolSession / DecryptingSession / "
        "BufferedProviderSession contract; every concrete session overrides it",
        "repro.twopc.session:ProtocolSession._handle",
        "repro.twopc.session:DecryptingSession._resume_with_decryption",
        "repro.twopc.session:BufferedProviderSession._is_request",
        "repro.twopc.session:BufferedProviderSession._handle_request",
        "repro.twopc.session:BufferedProviderSession._build_inner_session",
        "repro.twopc.session:BufferedProviderSession._state_codec",
        "repro.twopc.session:BufferedProviderSession._pending_scheme",
        "repro.twopc.session:BufferedProviderSession._pending_keypair",
        "repro.twopc.session:BufferedProviderSession._restore_inner",
    ),
    **_entries(
        INTERFACE_STUB,
        "abstract method of the Transport ABC",
        "repro.twopc.transport:Transport.send",
        "repro.twopc.transport:Transport.receive",
        "repro.twopc.transport:Transport.close",
    ),
    **_entries(
        FAULT_PATH,
        "liveness probe the kill drills and eviction tests wait on",
        "repro.core.runtime:ShardDriver.worker_alive",
    ),
    **_entries(
        FAULT_PATH,
        "reaps agents when launching a fabric fails",
        "repro.fabric.agent:AgentProcess.kill",
    ),
    **_entries(
        FAULT_PATH,
        "refuses a frame the session's state does not expect",
        "repro.twopc.session:ProtocolSession._unexpected",
    ),
    **_entries(
        FAULT_PATH,
        "the default refusal of a session that cannot be snapshotted",
        "repro.twopc.session:ProtocolSession.snapshot",
    ),
    **_entries(
        ITEM_6B_PENDING,
        "per-email resume: session stores a disconnected client's state waits in",
        "repro.core.runtime:InMemorySessionStore.__init__",
        "repro.core.runtime:InMemorySessionStore.put",
        "repro.core.runtime:InMemorySessionStore.get",
        "repro.core.runtime:InMemorySessionStore.delete",
        "repro.core.runtime:InMemorySessionStore.keys",
        "repro.core.runtime:FileSessionStore._unescape",
        "repro.core.runtime:FileSessionStore._path",
        "repro.core.runtime:FileSessionStore.put",
        "repro.core.runtime:FileSessionStore.get",
        "repro.core.runtime:FileSessionStore.delete",
        "repro.core.runtime:FileSessionStore.keys",
    ),
    **_entries(
        ITEM_6B_PENDING,
        "per-email resume: park a client's session and resume it on a fresh channel",
        "repro.core.runtime:ShardDriver.disconnect_client",
        "repro.core.runtime:ShardDriver.reconnect_client",
    ),
    **_entries(
        ITEM_6B_PENDING,
        "per-email resume: snapshot and restore of a session mid-email",
        "repro.crypto.yao:YaoGarblerSession.snapshot",
        "repro.crypto.yao:YaoGarblerSession.restore",
        "repro.crypto.ot:PooledIknpSenderMachine.snapshot",
        "repro.crypto.ot:PooledIknpSenderMachine.restore",
        "repro.twopc.spam:SpamProviderSession._restore_inner",
        "repro.twopc.topics:TopicClientSession.snapshot",
        "repro.twopc.topics:TopicClientSession.restore",
        "repro.twopc.topics:TopicProviderSession._state_codec",
        "repro.twopc.topics:TopicProviderSession._pending_scheme",
        "repro.twopc.topics:TopicProviderSession._pending_keypair",
        "repro.twopc.topics:TopicProviderSession._snapshot_extra",
        "repro.twopc.topics:TopicProviderSession._apply_extra",
        "repro.twopc.topics:TopicProviderSession._restore_inner",
        "repro.twopc.topics:TopicProviderSession.restore",
        "repro.twopc.topics:TopicExtractionProtocol.restore_client",
        "repro.twopc.topics:TopicExtractionProtocol.restore_provider",
    ),
    **_entries(
        ITEM_4C_PENDING,
        "live migration: the shard state machine of item 4c drives these, or they go",
        "repro.core.runtime:ShardDriver.rebalance",
        "repro.core.runtime:ShardDriver.retire_worker",
        "repro.core.runtime:ShardDriver._owner_of_job",
    ),
    **_entries(
        ITEM_2A_PENDING,
        "the NoPriv arm of the paper-scale run",
        "repro.twopc.noprv:NoPrivClientSession.__init__",
        "repro.twopc.noprv:NoPrivClientSession._start",
        "repro.twopc.noprv:NoPrivClientSession._handle",
        "repro.twopc.noprv:NoPrivClientSession.snapshot",
        "repro.twopc.noprv:NoPrivClientSession.restore",
        "repro.twopc.noprv:NoPrivProviderSession.__init__",
        "repro.twopc.noprv:NoPrivProviderSession._handle",
        "repro.twopc.noprv:NoPrivProviderSession.snapshot",
        "repro.twopc.noprv:NoPrivProviderSession.restore",
        "repro.twopc.noprv:run_noprv_session",
    ),
    **_entries(
        ITEM_2A_PENDING,
        "the paper's parameters (2048-bit DH group) that the paper-scale run uses",
        "repro.core.config:PretzelConfig.standard",
        "repro.crypto.dh:rfc3526_group_2048",
    ),
    **_entries(
        ITEM_7_INPUT,
        "the seeded arrival generator item 7's capacity sweep replays",
        "repro.mail.traces:TraceSpec.__post_init__",
        "repro.mail.traces:_burst_intervals",
        "repro.mail.traces:generate_trace",
    ),
    **_entries(
        FROZEN_TRACER_NAME,
        "benchmarks/e2e/trace.py patches NttContext's transforms by name",
        "repro.crypto.ntt:NttContext.__init__",
        "repro.crypto.ntt:NttContext._transform",
        "repro.crypto.ntt:NttContext.forward",
        "repro.crypto.ntt:NttContext.inverse",
        "repro.crypto.ntt:NttContext.forward_many",
        "repro.crypto.ntt:NttContext.inverse_many",
        "repro.crypto.ntt:NttContext.multiply",
        "repro.crypto.ntt:NttContext.monomial_spectrum",
    ),
}

HOOK = '''\
import os
import sys
import threading

_LOG = os.environ.get("REACHABILITY_LOG")
_PREFIX = os.environ.get("REACHABILITY_PREFIX", "")
if _LOG:
    _fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()

    def _reach(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PREFIX):
                line = f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_qualname}\\n"
                os.write(_fd, line.encode())
        return None

    sys.settrace(_reach)
    threading.settrace(_reach)
'''


class Function(NamedTuple):
    module: str
    qualname: str
    path: str
    firstlineno: int
    lines: int

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def universe() -> list[Function]:
    """Every module-level function and class method defined under ``src/repro``."""
    functions: list[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SOURCE)
        module = ".".join(relative.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(body: list[ast.stmt], prefix: str) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    functions.append(
                        Function(
                            module,
                            prefix + node.name,
                            str(path),
                            first,
                            node.end_lineno - first + 1,
                        )
                    )
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.If, ast.Try)):
                    visit(node.body, prefix)
                    visit(node.orelse, prefix)
                    for handler in getattr(node, "handlers", ()):
                        visit(handler.body, prefix)
                    visit(getattr(node, "finalbody", []), prefix)

        visit(tree.body, "")
    return functions


def product_runs() -> list[tuple[str, list[str]]]:
    """The product: each example, the benchmark's smoke run and the figure benchmarks."""
    runs = [(path.name, [sys.executable, str(path)]) for path in sorted((REPO / "examples").glob("*.py"))]
    runs.append(("e2e --smoke", [sys.executable, str(REPO / "benchmarks/e2e/run.py"), "--smoke"]))
    figures = sorted(str(path) for path in (REPO / "benchmarks").glob("bench_*.py"))
    runs.append(
        (
            f"{len(figures)} figure benchmarks",
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *figures],
        )
    )
    return runs


@contextlib.contextmanager
def hooked_environment(log: Path):
    """An environment whose Python interpreters append what they enter to *log*."""
    with tempfile.TemporaryDirectory(prefix="reachability-") as hook_dir:
        (Path(hook_dir) / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        inherited = os.environ.get("PYTHONPATH", "")
        yield dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in (hook_dir, str(SOURCE), inherited) if p),
            REACHABILITY_LOG=str(log),
            REACHABILITY_PREFIX=str(PACKAGE) + os.sep,
        )


def record(runs: list[tuple[str, list[str]]], log: Path) -> list[str]:
    """Run each command under the hook, appending to *log*; return the failed runs."""
    failed = []
    with hooked_environment(log) as env:
        for label, command in runs:
            print(f"--- {label}", flush=True)
            completed = subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL)
            if completed.returncode != 0:
                print(f"    exited {completed.returncode}", flush=True)
                failed.append(label)
    return failed


def reached(log: Path) -> set[tuple[str, int, str]]:
    """The ``(path, first line, qualname)`` of every function the log records."""
    entries = set()
    for line in log.read_text(encoding="utf-8").splitlines():
        path, firstlineno, qualname = line.split("\t")
        entries.add((path, int(firstlineno), qualname))
    return entries


def unreached(functions: list[Function], entered: set[tuple[str, int, str]]) -> list[Function]:
    return [f for f in functions if (f.path, f.firstlineno, f.qualname) not in entered]


def main() -> int:
    functions = universe()
    with tempfile.TemporaryDirectory(prefix="reachability-log-") as log_dir:
        log = Path(log_dir) / "reached.tsv"
        log.touch()
        failed = record(product_runs(), log)
        entered = reached(log)
    missing = unreached(functions, entered)
    listed = [f for f in missing if f.name in ALLOWED]
    unlisted = [f for f in missing if f.name not in ALLOWED]
    names = {f.name for f in functions}
    missing_names = {f.name for f in missing}
    listed_but_reached = sorted(n for n in ALLOWED if n in names and n not in missing_names)
    stale = sorted(n for n in ALLOWED if n not in names)

    print(
        f"\n{len(functions)} functions in src/repro: {len(functions) - len(missing)} entered "
        f"by the product runs, {len(listed)} allow-listed, {len(unlisted)} neither"
    )
    for category, count in sorted(Counter(ALLOWED[f.name][0] for f in listed).items()):
        print(f"    allow-listed, {category}: {count}")
    for name in listed_but_reached:
        print(f"note: allow-listed but entered: {name}")
    for name in stale:
        print(f"allow-listed but not defined: {name}")
    for f in unlisted:
        print(f"not entered and not allow-listed: {f.name} ({f.path}:{f.firstlineno}, {f.lines} lines)")
    if failed:
        print(f"failed runs: {', '.join(failed)}")
    return 1 if failed or unlisted or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
