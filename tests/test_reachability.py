"""The reachability gate's allow-list names only functions that exist.

``tools/reachability.py`` fails when a ``src/repro`` function is neither
entered by a product run nor allow-listed; this keeps the list from going
stale as code is deleted or renamed, and checks the hook itself records
functions entered in a thread and in a forked child.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reachability", REPO / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)


def test_every_allow_listed_name_is_a_src_function():
    names = {function.name for function in reachability.universe()}
    assert sorted(set(reachability.ALLOWED) - names) == []


def test_every_allow_list_entry_has_a_known_category_and_a_reason():
    for name, (category, reason) in reachability.ALLOWED.items():
        assert category in reachability.CATEGORIES, name
        assert reason.strip(), name


def test_the_universe_keys_match_code_objects():
    from repro.utils import timing

    (function,) = [
        f for f in reachability.universe() if f.name == "repro.utils.timing:percentile"
    ]
    code = timing.percentile.__code__
    assert (function.firstlineno, function.qualname) == (code.co_firstlineno, code.co_qualname)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_hook_follows_threads_and_forked_children(tmp_path):
    script = (
        "import os, threading\n"
        "from repro.utils import bitops, timing\n"
        "thread = threading.Thread(target=timing.percentile, args=([1.0], 50))\n"
        "thread.start(); thread.join()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    bitops.xor_bytes(b'a', b'b')\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
    )
    log = tmp_path / "reached.tsv"
    log.touch()
    with reachability.hooked_environment(log) as env:
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    entered = {qualname for _, _, qualname in reachability.reached(log)}
    assert {"percentile", "xor_bytes"} <= entered
