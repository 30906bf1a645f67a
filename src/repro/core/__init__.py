"""Pretzel's core: configuration, function modules, and the end-to-end system.

This package glues the substrates together into the system of Fig. 1:

* :mod:`repro.core.config` — one place for every tunable (crypto parameters,
  quantization budget, candidate-topic count B', OT mode, scaling knobs).
* :mod:`repro.core.spam_module`, :mod:`repro.core.topic_module`,
  :mod:`repro.core.search_module` — the three function modules of the paper
  (§2.2, §5), each split into a provider half and a client half.
* :mod:`repro.core.system` — :class:`PretzelProvider`, :class:`PretzelClient`
  and :class:`PretzelSystem`, which drive the full pipeline: compose → encrypt
  and sign → deliver → fetch, verify, decrypt → run the function-module
  protocols → report outputs and costs.
"""

from repro.core.config import PretzelConfig
from repro.core.runtime import (
    DecryptScheduler,
    MailboxDirectory,
    ProviderFunction,
    ProviderRuntime,
    SessionJob,
    ShardedRuntime,
    run_batch,
    session_job,
    shard_of_address,
    zip_requests,
)
from repro.core.spam_module import SpamFunctionModule
from repro.core.topic_module import TopicFunctionModule
from repro.core.search_module import SearchFunctionModule
from repro.core.system import EmailProcessingReport, PretzelClient, PretzelProvider, PretzelSystem

__all__ = [
    "PretzelConfig",
    "SpamFunctionModule",
    "TopicFunctionModule",
    "SearchFunctionModule",
    "PretzelProvider",
    "PretzelClient",
    "PretzelSystem",
    "EmailProcessingReport",
    "ProviderRuntime",
    "DecryptScheduler",
    "ShardedRuntime",
    "shard_of_address",
    "MailboxDirectory",
    "SessionJob",
    "ProviderFunction",
    "run_batch",
    "session_job",
    "zip_requests",
]
