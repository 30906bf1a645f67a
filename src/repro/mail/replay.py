"""Replay and duplicate suppression (§4.4, "Repetition and replay").

An adversarial provider could replay the same email to a client k times and
harvest ``k · log B`` output bits instead of ``log B``.  The paper's defence is
for the client to treat each sender as a lossy, duplicating channel and apply
standard duplicate detection — counters and windows — which is exactly what
:class:`ReplayGuard` implements.  Because sequence numbers only bind to a
sender once emails are signed, the guard is consulted *after* signature
verification (see :class:`repro.mail.client.MailClient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ReplayError


@dataclass
class _SenderWindow:
    highest_seen: int = -1
    recent: set[int] = field(default_factory=set)


@dataclass
class ReplayGuard:
    """Per-sender sliding-window duplicate detector.

    Accepts each (sender, sequence number) pair at most once.  Sequence
    numbers may arrive out of order within ``window_size`` of the highest seen
    value; anything older than the window is rejected as a (possible) replay.
    """

    window_size: int = 1024
    _senders: dict[str, _SenderWindow] = field(default_factory=dict)

    def check_and_record(self, sender: str, sequence_number: int) -> None:
        """Record a fresh (sender, sequence) pair or raise :class:`ReplayError`."""
        if sequence_number < 0:
            raise ReplayError(f"negative sequence number from {sender}")
        window = self._senders.setdefault(sender, _SenderWindow())
        lower_bound = window.highest_seen - self.window_size
        if sequence_number <= lower_bound:
            raise ReplayError(
                f"sequence {sequence_number} from {sender} is older than the replay window"
            )
        if sequence_number in window.recent:
            raise ReplayError(f"duplicate email {sequence_number} from {sender}")
        window.recent.add(sequence_number)
        if sequence_number > window.highest_seen:
            window.highest_seen = sequence_number
            # Drop entries that fell out of the window.
            cutoff = window.highest_seen - self.window_size
            window.recent = {value for value in window.recent if value > cutoff}

    def would_accept(self, sender: str, sequence_number: int) -> bool:
        """Non-mutating variant of :meth:`check_and_record`."""
        window = self._senders.get(sender)
        if window is None:
            return sequence_number >= 0
        if sequence_number <= window.highest_seen - self.window_size:
            return False
        return sequence_number not in window.recent

