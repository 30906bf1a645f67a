"""Reconnect-resume and sealed checkpoints: what survives a lost connection.

A deployed Pretzel client is a phone on a flaky network, and a provider's
workers restart.  TCP delivers a live connection's bytes once and in order;
what needs the serving stack is a connection that *dies*.  A client killed
mid-protocol resumes via snapshot + reconnect with zero resubmissions, and
the snapshots a worker writes to disk are sealed (AEAD), so a damaged,
foreign-keyed or pre-AEAD checkpoint is refused, never misparsed.
"""

import pytest

from repro.core.runtime import (
    DecryptScheduler,
    FileSessionStore,
    ProviderRuntime,
    session_job,
)
from repro.crypto.chacha import open_sealed, seal
from repro.exceptions import IntegrityError, ProtocolError, SnapshotError
from repro.twopc.spam import SpamClientSession, SpamFilterProtocol
from repro.twopc.wire import SessionState

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {i: 1 for i in range(0, 200, 7)},
]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


# ---------------------------------------------------------------------------
# Reconnect-resume: snapshot, go away, come back on a fresh channel
# ---------------------------------------------------------------------------
class TestReconnectResume:
    def test_in_process_disconnect_resume_matches_clean(self, spam_setup):
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        clean = protocol.classify_email(setup, SPAM_EMAILS[0])

        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        job = session_job(protocol, setup, (SPAM_EMAILS[0],), label=7, ot_pool=pool)
        assert runtime.serve_burst([job]) == []  # parked inside the open window

        state = runtime.disconnect_job(7)
        assert runtime.outstanding_jobs() == 0
        assert runtime.disconnected_jobs() == 1
        blob = state.to_bytes()  # the bytes the device carries offline

        client = SpamClientSession.restore(
            protocol, setup, SessionState.from_bytes(blob), ot_pool=pool
        )
        channel = protocol.make_channel(setup, name="reconnect")
        runtime.reconnect_job(7, channel, client)
        assert runtime.disconnected_jobs() == 0
        finished = runtime.drain()
        assert [j.label for j in finished] == [7]
        assert finished[0].client.is_spam == clean.is_spam

    def test_disconnect_unknown_or_finished_job_rejected(self, spam_setup):
        protocol, setup = spam_setup
        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        with pytest.raises(ProtocolError):
            runtime.disconnect_job("nope")
        with pytest.raises(ProtocolError):
            runtime.reconnect_job("nope", None, None)

    def test_reconnected_window_still_batches(self, spam_setup):
        # Two jobs park in one window; one client disconnects and returns.
        # The window must still fold both decrypts into one batched call.
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        jobs = [
            session_job(protocol, setup, (features,), label=index, ot_pool=pool)
            for index, features in enumerate(SPAM_EMAILS[:2])
        ]
        assert runtime.serve_burst(jobs) == []
        state = runtime.disconnect_job(0)
        client = SpamClientSession.restore(
            protocol, setup, SessionState.from_bytes(state.to_bytes()), ot_pool=pool
        )
        runtime.reconnect_job(0, protocol.make_channel(setup, name="rc"), client)
        finished = runtime.drain()
        assert sorted(j.label for j in finished) == [0, 1]
        per_email = setup.encrypted_model.result_ciphertext_count()
        assert max(runtime.decrypt_batch_sizes) >= 2 * per_email


# ---------------------------------------------------------------------------
# Sealed checkpoints (the AEAD satellite)
# ---------------------------------------------------------------------------
class TestSealedBlobs:
    def test_seal_round_trip(self):
        key = bytes(range(32))
        blob = seal(key, b"checkpoint payload")
        assert open_sealed(key, blob) == b"checkpoint payload"

    def test_ciphertext_hides_plaintext(self):
        blob = seal(bytes(32), b"garble seeds live here")
        assert b"garble seeds" not in blob

    def test_wrong_key_refused(self):
        blob = seal(bytes(32), b"data")
        with pytest.raises(IntegrityError):
            open_sealed(bytes([1]) * 32, blob)

    def test_every_flipped_bit_refused(self):
        key = bytes(range(32))
        blob = seal(key, b"short")
        for position in range(0, len(blob) * 8, 7):  # stride keeps it fast
            damaged = bytearray(blob)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(IntegrityError):
                open_sealed(key, bytes(damaged))

    def test_legacy_plaintext_version_byte_refused(self):
        with pytest.raises(IntegrityError):
            open_sealed(bytes(32), b"\x00" + bytes(60))
        with pytest.raises(IntegrityError):
            open_sealed(bytes(32), b"too short")


class TestSealedFileStore:
    def test_blobs_are_sealed_on_disk(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.put("window", b"secret session bytes")
        on_disk = (tmp_path / "window.state").read_bytes()
        assert b"secret session bytes" not in on_disk
        assert store.get("window") == b"secret session bytes"

    def test_reopened_store_shares_the_key_file(self, tmp_path):
        FileSessionStore(tmp_path).put("k", b"persisted")
        assert FileSessionStore(tmp_path).get("k") == b"persisted"

    def test_explicit_key_overrides_key_file(self, tmp_path):
        key = bytes(range(32))
        FileSessionStore(tmp_path, key=key).put("k", b"v")
        assert FileSessionStore(tmp_path, key=key).get("k") == b"v"
        with pytest.raises(SnapshotError):
            FileSessionStore(tmp_path, key=bytes(32)).get("k")

    def test_legacy_plaintext_checkpoint_refused_not_misparsed(self, tmp_path):
        store = FileSessionStore(tmp_path)
        (tmp_path / "legacy.state").write_bytes(b"pre-AEAD plaintext checkpoint")
        with pytest.raises(SnapshotError):
            store.get("legacy")
        store.delete("legacy")
        assert store.get("legacy") is None

    def test_tampered_checkpoint_refused(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.put("k", b"authentic")
        path = tmp_path / "k.state"
        sealed = bytearray(path.read_bytes())
        sealed[-1] ^= 1
        path.write_bytes(bytes(sealed))
        with pytest.raises(SnapshotError):
            store.get("k")
