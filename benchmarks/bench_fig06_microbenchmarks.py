"""Fig. 6 — microbenchmarks of the common operations.

The paper's Fig. 6 reports per-operation CPU costs for GPG (e2e module),
Paillier, XPIR-BV, Yao (comparison and argmax) and the NoPriv plaintext
operations.  Each test here benchmarks one row of that figure using this
library's implementations.
"""

import pytest

from repro.crypto.circuits import SpamCircuit, TopicCircuit
from repro.crypto.garbled import garble
from repro.mail.e2e import E2EIdentity, E2EModule
from repro.mail.message import EmailMessage


@pytest.fixture(scope="module")
def email_identities(dh_group):
    e2e = E2EModule(dh_group)
    alice = E2EIdentity.generate("alice@example.com", dh_group)
    bob = E2EIdentity.generate("bob@example.com", dh_group)
    message = EmailMessage("alice@example.com", "bob@example.com", "bench", "x" * 75_000)
    return e2e, alice, bob, message


class TestGpgRow:
    def test_e2e_encrypt(self, benchmark, email_identities):
        e2e, alice, bob, message = email_identities
        benchmark(e2e.encrypt_and_sign, message, alice, bob.public_bundle())

    def test_e2e_decrypt(self, benchmark, email_identities):
        e2e, alice, bob, message = email_identities
        encrypted = e2e.encrypt_and_sign(message, alice, bob.public_bundle())
        benchmark(e2e.verify_and_decrypt, encrypted, bob, alice.public_bundle())


class TestPaillierRow:
    def test_encrypt(self, benchmark, paillier_scheme):
        keys = paillier_scheme.generate_keypair()
        benchmark(paillier_scheme.encrypt_slots, keys.public, [1, 2, 3])

    def test_decrypt(self, benchmark, paillier_scheme):
        keys = paillier_scheme.generate_keypair()
        ciphertext = paillier_scheme.encrypt_slots(keys.public, [1, 2, 3])
        benchmark(paillier_scheme.decrypt_slots, keys, ciphertext)

    def test_homomorphic_add(self, benchmark, paillier_scheme):
        keys = paillier_scheme.generate_keypair()
        a = paillier_scheme.encrypt_slots(keys.public, [1])
        b = paillier_scheme.encrypt_slots(keys.public, [2])
        benchmark(paillier_scheme.add, a, b)


class TestXpirBvRow:
    def test_encrypt(self, benchmark, bv_scheme):
        keys = bv_scheme.generate_keypair()
        benchmark(bv_scheme.encrypt_slots, keys.public, [1, 2, 3])

    def test_decrypt(self, benchmark, bv_scheme):
        keys = bv_scheme.generate_keypair()
        ciphertext = bv_scheme.encrypt_slots(keys.public, [1, 2, 3])
        benchmark(bv_scheme.decrypt_slots, keys, ciphertext)

    def test_homomorphic_add(self, benchmark, bv_scheme):
        keys = bv_scheme.generate_keypair()
        a = bv_scheme.encrypt_slots(keys.public, [1])
        b = bv_scheme.encrypt_slots(keys.public, [2])
        benchmark(bv_scheme.add, a, b)

    def test_left_shift_and_add(self, benchmark, bv_scheme):
        keys = bv_scheme.generate_keypair()
        accumulator = bv_scheme.encrypt_slots(keys.public, [1, 2])
        row = bv_scheme.encrypt_slots(keys.public, [3, 4])
        benchmark(lambda: bv_scheme.add(accumulator, bv_scheme.shift_up(row, 2)))

    def test_ciphertext_size_matches_paper_scale(self, benchmark, bv_scheme):
        size = benchmark(bv_scheme.ciphertext_size_bytes)
        # The paper quotes ~16 KB XPIR-BV ciphertexts (§4.1).
        assert 12 * 1024 < size < 20 * 1024

    def test_packed_dot_product_per_email(self, benchmark, bv_scheme):
        """The client's whole homomorphic dot product (§4.2) as one operation.

        This is the unit the evaluation-domain representation and the batched
        accumulator optimise: an across-row packed spam model evaluated against
        an L=100 sparse email.
        """
        import numpy as np

        from repro.crypto.packing import PackedLinearModel

        keys = bv_scheme.generate_keypair()
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 1000, size=(501, 2)).tolist()
        model = PackedLinearModel.encrypt(bv_scheme, keys.public, rows, across_rows=True)
        sparse = [(int(row), 1) for row in rng.choice(500, size=100, replace=False)]
        model.dot_products(sparse)  # warm the stacked-model cache
        benchmark(model.dot_products, sparse)

    def test_decrypt_many_batch(self, benchmark, bv_scheme):
        keys = bv_scheme.generate_keypair()
        batch = [bv_scheme.encrypt_slots(keys.public, [index]) for index in range(8)]
        benchmark(bv_scheme.decrypt_slots_many, keys, batch)


class TestYaoRow:
    def test_garble_spam_margin_circuit(self, benchmark):
        """Spam's comparison as served: the sign of one margin, ``w − 1`` ANDs.

        Two unblinded scores and a comparator (``3w − 2`` ANDs) are what
        this row timed before spam became one margin; timings from before
        and after are not the same operation.
        """
        circuit = SpamCircuit.build(32)
        assert circuit.circuit.and_count == 31
        benchmark(garble, circuit.circuit)

    def test_garble_argmax_per_input(self, benchmark):
        circuit = TopicCircuit.build(32, 10, 11)
        result = benchmark(garble, circuit.circuit)
        assert result.tables.size_bytes() > 0


class TestNoPrivRow:
    def test_lookup_and_float_add(self, benchmark):
        import numpy as np

        weights = np.random.default_rng(0).normal(size=(10_000, 2))
        biases = np.zeros(2)

        def classify():
            scores = biases.copy()
            for index in range(0, 10_000, 50):
                scores += weights[index]
            return scores

        benchmark(classify)
