"""Tests for garbling/evaluation, oblivious transfer, and the Yao driver."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.circuits import CircuitBuilder, SpamCircuit, TopicCircuit
from repro.crypto.garbled import decode_outputs, evaluate, garble
from repro.crypto import ot
from repro.crypto.dh import DHKeyPair
from repro.exceptions import OTError, ProtocolAbort
from repro.twopc.transport import FramedChannel
from repro.twopc.wire import OtCipherPairsFrame, OtPublicsFrame, OtResponsesFrame
from repro.utils.bitops import bits_to_int, int_to_bits

from oracles import ObliviousTransfer, evaluate_plain, pending_frames, run_yao


def ot_channel(name="ot-test"):
    return FramedChannel.loopback(name, parties=("sender", "receiver"))


def yao_channel(name="yao-test"):
    return FramedChannel.loopback(name, parties=("garbler", "evaluator"))


def _or(builder, a, b):
    # a OR b = (a XOR b) XOR (a AND b): one AND gate, two free XORs.
    return builder.xor(builder.xor(a, b), builder.and_(a, b))


def _and_xor_circuit():
    builder = CircuitBuilder()
    a = builder.garbler_input(4)
    b = builder.evaluator_input(4)
    outputs = [builder.and_(a[0], b[0]), builder.xor(a[1], b[1]), builder.not_(a[2]), _or(builder, a[3], b[3])]
    return builder.build(outputs)


class TestGarbledEvaluation:
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_matches_plain_evaluation(self, a, b):
        circuit = _and_xor_circuit()
        a_bits, b_bits = int_to_bits(a, 4), int_to_bits(b, 4)
        expected = evaluate_plain(circuit, a_bits, b_bits)
        garbling = garble(circuit)
        labels = evaluate(
            circuit,
            garbling.tables,
            garbling.input_labels(circuit.garbler_inputs, a_bits),
            garbling.input_labels(circuit.evaluator_inputs, b_bits),
        )
        assert decode_outputs(circuit, garbling.tables, labels) == expected

    def test_spam_circuit_garbled(self):
        circuit = SpamCircuit.build(16)
        garbling = garble(circuit.circuit)
        labels = evaluate(
            circuit.circuit,
            garbling.tables,
            garbling.input_labels(circuit.circuit.garbler_inputs, circuit.garbler_bits(40000)),
            garbling.input_labels(circuit.circuit.evaluator_inputs, circuit.evaluator_bits(100)),
        )
        assert SpamCircuit.decode_output(decode_outputs(circuit.circuit, garbling.tables, labels)) is True

    def test_deterministic_garbling_with_seed(self):
        circuit = _and_xor_circuit()
        g1 = garble(circuit, seed=b"fixed")
        g2 = garble(circuit, seed=b"fixed")
        assert g1.offset == g2.offset
        assert g1.zero_labels == g2.zero_labels

    def test_forged_output_label_rejected(self):
        circuit = _and_xor_circuit()
        garbling = garble(circuit)
        with pytest.raises(ProtocolAbort):
            decode_outputs(circuit, garbling.tables, [b"\x00" * 16] * len(circuit.outputs))

    def test_wrong_label_count_rejected(self):
        circuit = _and_xor_circuit()
        garbling = garble(circuit)
        with pytest.raises(ProtocolAbort):
            evaluate(circuit, garbling.tables, [], [])

    def test_table_size_scales_with_and_gates(self):
        circuit = _and_xor_circuit()
        garbling = garble(circuit)
        # 2 AND-bearing gates (AND + the AND inside OR), 4 rows of 16 bytes each.
        assert garbling.tables.size_bytes() >= 2 * 4 * 16


GADGETS = {
    "subtract": (lambda c, x, y: c.subtract_words(x, y), lambda a, b, w: (a - b) % (1 << w)),
    "greater_than": (lambda c, x, y: [c.greater_than(x, y)], lambda a, b, w: int(a > b)),
}


class TestGarbledGadgetsEqualPlain:
    """One garbling per gadget, evaluated on every input pair, decodes what the plain oracle says."""

    @pytest.mark.parametrize("name", sorted(GADGETS))
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustively_at_small_widths(self, name, width):
        build, reference = GADGETS[name]
        builder = CircuitBuilder()
        a_wires = builder.garbler_input(width)
        b_wires = builder.evaluator_input(width)
        circuit = builder.build(build(builder, a_wires, b_wires))
        garbling = garble(circuit, seed=b"gadget")
        for a in range(1 << width):
            for b in range(1 << width):
                a_bits, b_bits = int_to_bits(a, width), int_to_bits(b, width)
                labels = evaluate(
                    circuit,
                    garbling.tables,
                    garbling.input_labels(circuit.garbler_inputs, a_bits),
                    garbling.input_labels(circuit.evaluator_inputs, b_bits),
                )
                bits = decode_outputs(circuit, garbling.tables, labels)
                assert bits == evaluate_plain(circuit, a_bits, b_bits)
                assert bits_to_int(bits) == reference(a, b, width), (name, width, a, b)


class TestObliviousTransfer:
    @pytest.mark.parametrize("mode", ["base", "iknp"])
    def test_receiver_gets_chosen_messages(self, dh_group, mode):
        count = 20
        pairs = [(bytes([i]) * 16, bytes([i + 100]) * 16) for i in range(count)]
        choices = [i % 2 for i in range(count)]
        channel = ot_channel()
        received = ObliviousTransfer(dh_group, mode=mode).run(channel, pairs, choices)
        assert received == [pair[choice] for pair, choice in zip(pairs, choices)]
        assert pending_frames(channel) == 0

    @pytest.mark.parametrize("mode", ["base", "iknp"])
    def test_receiver_does_not_get_other_message(self, dh_group, mode):
        pairs = [(b"A" * 16, b"B" * 16)]
        channel = ot_channel()
        received = ObliviousTransfer(dh_group, mode=mode).run(channel, pairs, [0])
        assert received[0] == b"A" * 16 != b"B" * 16

    def test_empty_batch(self, dh_group):
        channel = ot_channel()
        assert ObliviousTransfer(dh_group).run(channel, [], []) == []

    def test_length_mismatch_rejected(self, dh_group):
        channel = ot_channel()
        with pytest.raises(OTError):
            ObliviousTransfer(dh_group).run(channel, [(b"a" * 16, b"b" * 16)], [0, 1])

    def test_unknown_mode_rejected(self, dh_group):
        with pytest.raises(OTError):
            ObliviousTransfer(dh_group, mode="quantum")

    def test_network_bytes_accounted(self, dh_group, sent_frame_sizes):
        channel = ot_channel()
        sent = sent_frame_sizes(channel)
        pairs = [(b"x" * 16, b"y" * 16)] * 8
        ObliviousTransfer(dh_group, mode="iknp").run(channel, pairs, [1] * 8)
        assert channel.total_bytes() > 0
        # Exact accounting: the total equals the sum of serialized frame sizes.
        assert channel.total_bytes() == sum(sent)
        assert channel.total_messages() == len(sent)


class TestBaseOtConstruction:
    """Chou–Orlandi with one sender key per batch (``crypto/ot.py``)."""

    PAIRS = [(bytes([i]) * 16, bytes([i + 100]) * 16) for i in range(4)]

    @pytest.mark.parametrize("choices", [int_to_bits(value, 4) for value in range(16)])
    def test_chosen_message_and_only_the_chosen_message(self, dh_group, choices):
        sender = DHKeyPair.generate(dh_group)
        responses, keys = ot.base_ot_batch_respond(dh_group, sender.public, choices)
        encrypted = ot.base_ot_batch_send(sender, self.PAIRS, responses)
        for index, (choice, key) in enumerate(zip(choices, keys)):
            assert ot._ot_encrypt(key, encrypted[index][choice], index) == self.PAIRS[index][choice]
            other = ot._ot_encrypt(key, encrypted[index][1 - choice], index)
            assert other != self.PAIRS[index][1 - choice]

    def test_key_is_bound_to_index_and_transcript(self, dh_group):
        # One ``a`` serves the whole batch, so equal responses share B^a: only
        # the (i, A, B) binding keeps their keys apart.
        sender = DHKeyPair.generate(dh_group)
        (response,), _ = ot.base_ot_batch_respond(dh_group, sender.public, [0])
        pair = (b"m" * 16, b"n" * 16)
        first, second = ot.base_ot_batch_send(sender, [pair, pair], [response, response])
        assert first != second
        public = dh_group.encode_element(sender.public)
        shared = dh_group.power(response, sender.secret)
        keys = {
            ot._base_ot_key(dh_group, 0, public, response, shared),
            ot._base_ot_key(dh_group, 1, public, response, shared),
            ot._base_ot_key(dh_group, 0, public, response * 4 % dh_group.p, shared),
            ot._base_ot_key(dh_group, 0, dh_group.encode_element(4), response, shared),
        }
        assert len(keys) == 4

    def test_sender_key_outside_the_subgroup_refused(self, dh_group):
        for public in (0, dh_group.p - 1, dh_group.p, dh_group.p + 1):
            receiver = ot.BaseOtReceiverMachine(dh_group, [0, 1])
            receiver.start()
            with pytest.raises(OTError, match="validation"):
                receiver.handle(OtPublicsFrame((public,)))

    def test_degenerate_response_refused(self, dh_group):
        for response in (0, 1, dh_group.p - 1, dh_group.p):
            sender = ot.BaseOtSenderMachine(dh_group, self.PAIRS[:2])
            ((public,),) = [frame.elements for frame in sender.start()]
            (good, _), _ = ot.base_ot_batch_respond(dh_group, public, [1, 0])
            with pytest.raises(OTError, match="out of range"):
                sender.handle(OtResponsesFrame((good, response)))

    def test_publics_frame_must_carry_one_key_once(self, dh_group):
        public = DHKeyPair.generate(dh_group).public
        for elements in ((), (public, public)):
            receiver = ot.BaseOtReceiverMachine(dh_group, [0, 1])
            receiver.start()
            with pytest.raises(OTError, match="exactly one"):
                receiver.handle(OtPublicsFrame(elements))
        receiver = ot.BaseOtReceiverMachine(dh_group, [0, 1])
        receiver.start()
        (responses,) = receiver.handle(OtPublicsFrame((public,)))
        assert len(responses.elements) == 2
        # A replay used to append a second set of keys, desynchronising
        # keys from choices without any error.
        with pytest.raises(OTError, match="twice"):
            receiver.handle(OtPublicsFrame((public,)))
        assert len(receiver._keys) == 2

    def test_count_mismatches_refused(self, dh_group):
        sender = ot.BaseOtSenderMachine(dh_group, self.PAIRS)
        sender.start()
        with pytest.raises(OTError, match="count"):
            sender.handle(OtResponsesFrame((4, 9)))
        receiver = ot.BaseOtReceiverMachine(dh_group, [0, 1])
        receiver.start()
        receiver.handle(OtPublicsFrame((4,)))
        with pytest.raises(OTError, match="count"):
            receiver.handle(OtCipherPairsFrame(((b"x" * 16, b"y" * 16),)))

    def test_pool_handshake_exponentiation_budget(self, dh_group):
        # 128 B_i^a + A^a + its inverse + the receiver's subgroup check of A;
        # every g^x and A^b comes from a fixed-base table.  The construction
        # this replaced made 896 pow calls here.
        import cProfile
        import pstats

        dh_group.generator_power(1)  # the g table is per group, not per handshake
        profiler = cProfile.Profile()
        profiler.enable()
        pool = ot.initialize_ot_pool(dh_group)
        profiler.disable()
        assert pool.ready
        stats = pstats.Stats(profiler).stats
        kappa = ot.SECURITY_PARAMETER
        (pow_calls,) = [
            count for (_, _, name), (count, *_) in stats.items() if "builtins.pow" in name
        ]
        assert pow_calls == kappa + 3
        # DHGroup.power (variable base: B_i^a, A^a) and FixedBase.power (g^a, g^b_i, A^b_i).
        power_calls = sorted(
            count
            for (file, _, name), (count, *_) in stats.items()
            if name == "power" and file.endswith("dh.py")
        )
        assert power_calls == [kappa + 1, 2 * kappa + 1]


class TestYaoDriver:
    @pytest.mark.parametrize("output_to", ["evaluator", "garbler"])
    def test_spam_comparison_both_output_arrangements(self, dh_group, output_to):
        circuit = SpamCircuit.build(16)
        channel = yao_channel()
        result = run_yao(
            channel,
            circuit.circuit,
            garbler_bits=circuit.garbler_bits(1500),
            evaluator_bits=circuit.evaluator_bits(1500 - 2**15),  # top bit of 2^15
            group=dh_group,
            output_to=output_to,
        )
        assert SpamCircuit.decode_output(result.output_bits) is True
        assert result.network_bytes > 0
        assert result.and_gates == circuit.circuit.and_count
        assert pending_frames(channel) == 0

    def test_topic_argmax_through_yao(self, dh_group):
        circuit = TopicCircuit.build(16, 4, 6)
        scores = [10, 50, 30, 20]
        noises = [7, 11, 13, 17]
        indices = [3, 9, 27, 41]
        blinded = [(s + n) % 2**16 for s, n in zip(scores, noises)]
        channel = yao_channel("yao-topic")
        result = run_yao(
            channel,
            circuit.circuit,
            garbler_bits=circuit.garbler_bits(noises, indices),
            evaluator_bits=circuit.evaluator_bits(blinded),
            group=dh_group,
            output_to="evaluator",
        )
        assert TopicCircuit.decode_output(result.output_bits) == 9

    def test_invalid_output_target_rejected(self, dh_group):
        circuit = SpamCircuit.build(8)
        with pytest.raises(ProtocolAbort):
            run_yao(
                yao_channel("bad"),
                circuit.circuit,
                garbler_bits=circuit.garbler_bits(1),
                evaluator_bits=circuit.evaluator_bits(0),
                group=dh_group,
                output_to="nobody",
            )
