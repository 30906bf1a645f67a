"""Tests for the mail substrate: messages, e2e module, replay guard, delivery."""

import pytest

from repro.exceptions import IntegrityError, MailError, ReplayError, SignatureError
from repro.mail.e2e import E2EIdentity, E2EModule
from repro.mail.client import MailClient
from repro.mail.message import EmailMessage, EncryptedEmail
from repro.mail.provider import MailProvider
from repro.mail.replay import ReplayGuard


@pytest.fixture(scope="module")
def e2e(dh_group):
    return E2EModule(dh_group)


@pytest.fixture(scope="module")
def alice(dh_group):
    return E2EIdentity.generate("alice@example.com", dh_group)


@pytest.fixture(scope="module")
def bob(dh_group):
    return E2EIdentity.generate("bob@example.com", dh_group)


class TestEmailMessage:
    def test_roundtrip_encoding(self):
        message = EmailMessage("a@x.com", "b@y.com", "subject", "body text", {"X-Test": "1"}, 7)
        assert EmailMessage.from_bytes(message.to_bytes()) == message

    def test_size_and_id_stability(self):
        message = EmailMessage("a@x.com", "b@y.com", "s", "b")
        assert message.size_bytes() == len(message.to_bytes())
        assert message.message_id() == message.message_id()

    def test_different_bodies_different_ids(self):
        a = EmailMessage("a@x.com", "b@y.com", "s", "body one")
        b = EmailMessage("a@x.com", "b@y.com", "s", "body two")
        assert a.message_id() != b.message_id()

    def test_missing_addresses_rejected(self):
        with pytest.raises(MailError):
            EmailMessage("", "b@y.com", "s", "b")

    def test_text_content_includes_subject(self):
        message = EmailMessage("a@x.com", "b@y.com", "Lunch", "tomorrow?")
        assert "Lunch" in message.text_content() and "tomorrow?" in message.text_content()


class TestE2EModule:
    def test_encrypt_decrypt_roundtrip(self, e2e, alice, bob):
        message = EmailMessage(alice.address, bob.address, "hi", "secret body")
        encrypted = e2e.encrypt_and_sign(message, alice, bob.public_bundle())
        decrypted = e2e.verify_and_decrypt(encrypted, bob, alice.public_bundle())
        assert decrypted == message

    def test_provider_never_sees_plaintext(self, e2e, alice, bob):
        message = EmailMessage(alice.address, bob.address, "hi", "very secret words")
        encrypted = e2e.encrypt_and_sign(message, alice, bob.public_bundle())
        assert b"very secret words" not in encrypted.ciphertext
        assert b"very secret words" not in encrypted.to_bytes()

    def test_tampered_ciphertext_rejected(self, e2e, alice, bob):
        message = EmailMessage(alice.address, bob.address, "hi", "body")
        encrypted = e2e.encrypt_and_sign(message, alice, bob.public_bundle())
        tampered_bytes = bytearray(encrypted.ciphertext)
        tampered_bytes[0] ^= 0xFF
        tampered = EncryptedEmail(**{**encrypted.__dict__, "ciphertext": bytes(tampered_bytes)})
        with pytest.raises(SignatureError):
            e2e.verify_and_decrypt(tampered, bob, alice.public_bundle())

    def test_wrong_recipient_cannot_decrypt(self, e2e, alice, bob, dh_group):
        eve = E2EIdentity.generate("eve@example.com", dh_group)
        message = EmailMessage(alice.address, bob.address, "hi", "body")
        encrypted = e2e.encrypt_and_sign(message, alice, bob.public_bundle())
        with pytest.raises(IntegrityError):
            e2e.verify_and_decrypt(encrypted, eve, alice.public_bundle())

    def test_forged_sender_rejected(self, e2e, alice, bob, dh_group):
        mallory = E2EIdentity.generate("mallory@example.com", dh_group)
        message = EmailMessage(alice.address, bob.address, "hi", "body")
        forged = e2e.encrypt_and_sign(message, mallory, bob.public_bundle())
        with pytest.raises(SignatureError):
            e2e.verify_and_decrypt(forged, bob, alice.public_bundle())


class TestReplayGuard:
    def test_accepts_fresh_sequences(self):
        guard = ReplayGuard()
        for sequence in range(5):
            guard.check_and_record("alice", sequence)

    def test_rejects_duplicates(self):
        guard = ReplayGuard()
        guard.check_and_record("alice", 3)
        with pytest.raises(ReplayError):
            guard.check_and_record("alice", 3)

    def test_senders_are_independent(self):
        guard = ReplayGuard()
        guard.check_and_record("alice", 0)
        guard.check_and_record("bob", 0)

    def test_out_of_order_within_window_accepted(self):
        guard = ReplayGuard(window_size=10)
        guard.check_and_record("alice", 5)
        guard.check_and_record("alice", 2)

    def test_too_old_rejected(self):
        guard = ReplayGuard(window_size=4)
        guard.check_and_record("alice", 100)
        with pytest.raises(ReplayError):
            guard.check_and_record("alice", 90)

    def test_negative_sequence_rejected(self):
        with pytest.raises(ReplayError):
            ReplayGuard().check_and_record("alice", -1)

    def test_would_accept_is_non_mutating(self):
        guard = ReplayGuard()
        assert guard.would_accept("alice", 1)
        assert guard.would_accept("alice", 1)
        guard.check_and_record("alice", 1)
        assert not guard.would_accept("alice", 1)


class TestProviderAndClient:
    def test_delivery_and_fetch(self, e2e, dh_group):
        provider = MailProvider("mail.example")
        alice_id = E2EIdentity.generate("alice@example.com", dh_group)
        bob_id = E2EIdentity.generate("bob@example.com", dh_group)
        alice_client = MailClient(identity=alice_id, provider=provider, e2e=e2e)
        bob_client = MailClient(identity=bob_id, provider=provider, e2e=e2e)
        alice_client.learn_identity(bob_id.public_bundle())
        bob_client.learn_identity(alice_id.public_bundle())
        alice_client.send_new("bob@example.com", "subject", "hello bob", provider)
        messages = bob_client.fetch_and_decrypt()
        assert len(messages) == 1
        assert messages[0].body == "hello bob"
        assert provider.delivered_count == 1

    def test_replayed_email_is_dropped(self, e2e, dh_group):
        provider = MailProvider("mail.example")
        alice_id = E2EIdentity.generate("alice2@example.com", dh_group)
        bob_id = E2EIdentity.generate("bob2@example.com", dh_group)
        alice_client = MailClient(identity=alice_id, provider=provider, e2e=e2e)
        bob_client = MailClient(identity=bob_id, provider=provider, e2e=e2e)
        alice_client.learn_identity(bob_id.public_bundle())
        bob_client.learn_identity(alice_id.public_bundle())
        encrypted = alice_client.send_new("bob2@example.com", "s", "once only", provider)
        # A malicious provider replays the same ciphertext a second time.
        provider.accept_delivery(encrypted)
        messages = bob_client.fetch_and_decrypt()
        assert len(messages) == 1

    def test_unknown_recipient_rejected(self, e2e, dh_group):
        provider = MailProvider("mail.example")
        alice_id = E2EIdentity.generate("alice3@example.com", dh_group)
        alice_client = MailClient(identity=alice_id, provider=provider, e2e=e2e)
        bob_id = E2EIdentity.generate("bob3@example.com", dh_group)
        alice_client.learn_identity(bob_id.public_bundle())
        message = alice_client.compose("bob3@example.com", "s", "b")
        with pytest.raises(MailError):
            alice_client.send(message, provider)

    def test_sequence_numbers_increment_per_recipient(self, e2e, dh_group):
        provider = MailProvider("mail.example")
        alice_id = E2EIdentity.generate("alice4@example.com", dh_group)
        client = MailClient(identity=alice_id, provider=provider, e2e=e2e)
        first = client.compose("x@example.com", "s", "b")
        second = client.compose("x@example.com", "s", "b")
        other = client.compose("y@example.com", "s", "b")
        assert (first.sequence_number, second.sequence_number, other.sequence_number) == (0, 1, 0)

    def test_mailbox_incremental_fetch(self, dh_group, e2e):
        provider = MailProvider("mail.example")
        recipient = E2EIdentity.generate("r@example.com", dh_group)
        sender = E2EIdentity.generate("s@example.com", dh_group)
        recipient_client = MailClient(identity=recipient, provider=provider, e2e=e2e)
        sender_client = MailClient(identity=sender, provider=provider, e2e=e2e)
        sender_client.learn_identity(recipient.public_bundle())
        recipient_client.learn_identity(sender.public_bundle())
        sender_client.send_new("r@example.com", "1", "first", provider)
        assert len(recipient_client.fetch_and_decrypt()) == 1
        sender_client.send_new("r@example.com", "2", "second", provider)
        newly = recipient_client.fetch_and_decrypt()
        assert len(newly) == 1 and newly[0].subject == "2"
