"""Tests for the boolean-circuit builder and the Pretzel-specific circuits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.circuits import CircuitBuilder, SpamCircuit, TopicCircuit
from repro.exceptions import CircuitError
from repro.utils.bitops import bits_to_int, int_to_bits

WIDTH = 12
WORD = st.integers(min_value=0, max_value=2**WIDTH - 1)


def _run_word_op(build_outputs, a, b):
    builder = CircuitBuilder()
    a_wires = builder.garbler_input(WIDTH)
    b_wires = builder.evaluator_input(WIDTH)
    outputs = build_outputs(builder, a_wires, b_wires)
    circuit = builder.build(outputs if isinstance(outputs, list) else [outputs])
    result = circuit.evaluate_plain(int_to_bits(a, WIDTH), int_to_bits(b, WIDTH))
    return result, circuit


class TestGadgets:
    @given(WORD, WORD)
    @settings(max_examples=30, deadline=None)
    def test_adder(self, a, b):
        bits, _ = _run_word_op(lambda c, x, y: c.add_words(x, y), a, b)
        assert bits_to_int(bits) == (a + b) % (1 << WIDTH)

    @given(WORD, WORD)
    @settings(max_examples=30, deadline=None)
    def test_subtractor(self, a, b):
        bits, _ = _run_word_op(lambda c, x, y: c.subtract_words(x, y), a, b)
        assert bits_to_int(bits) == (a - b) % (1 << WIDTH)

    @given(WORD, WORD)
    @settings(max_examples=30, deadline=None)
    def test_greater_than(self, a, b):
        bits, _ = _run_word_op(lambda c, x, y: [c.greater_than(x, y)], a, b)
        assert bits[0] == int(a > b)

    @given(WORD, WORD)
    @settings(max_examples=30, deadline=None)
    def test_greater_or_equal(self, a, b):
        bits, _ = _run_word_op(lambda c, x, y: [c.greater_or_equal(x, y)], a, b)
        assert bits[0] == int(a >= b)

    @given(WORD, WORD, st.integers(min_value=0, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_mux_word(self, a, b, select):
        builder = CircuitBuilder()
        a_wires = builder.garbler_input(WIDTH)
        b_wires = builder.garbler_input(WIDTH)
        select_wire = builder.evaluator_input(1)
        outputs = builder.mux_word(select_wire[0], a_wires, b_wires)
        circuit = builder.build(outputs)
        bits = circuit.evaluate_plain(int_to_bits(a, WIDTH) + int_to_bits(b, WIDTH), [select])
        assert bits_to_int(bits) == (b if select else a)

    def test_or_gate_truth_table(self):
        for a in (0, 1):
            for b in (0, 1):
                builder = CircuitBuilder()
                wa = builder.garbler_input(1)
                wb = builder.evaluator_input(1)
                circuit = builder.build([builder.or_(wa[0], wb[0])])
                assert circuit.evaluate_plain([a], [b]) == [a | b]

    def test_xor_gates_are_free_of_and(self):
        builder = CircuitBuilder()
        a = builder.garbler_input(8)
        b = builder.evaluator_input(8)
        outputs = [builder.xor(x, y) for x, y in zip(a, b)]
        circuit = builder.build(outputs)
        assert circuit.and_count == 0
        assert circuit.xor_count == 8


class TestBuilderValidation:
    def test_unassigned_wire_rejected(self):
        builder = CircuitBuilder()
        builder.garbler_input(1)
        with pytest.raises(CircuitError):
            builder.xor(0, 99)

    def test_output_must_be_assigned(self):
        builder = CircuitBuilder()
        builder.garbler_input(1)
        with pytest.raises(CircuitError):
            builder.build([5])

    def test_evaluate_plain_checks_input_lengths(self):
        builder = CircuitBuilder()
        a = builder.garbler_input(2)
        b = builder.evaluator_input(2)
        circuit = builder.build([builder.xor(a[0], b[0])])
        with pytest.raises(CircuitError):
            circuit.evaluate_plain([1], [0, 0])

    def test_mismatched_adder_widths_rejected(self):
        builder = CircuitBuilder()
        a = builder.garbler_input(3)
        b = builder.evaluator_input(4)
        with pytest.raises(CircuitError):
            builder.add_words(a, b)

    def test_argmax_empty_rejected(self):
        builder = CircuitBuilder()
        with pytest.raises(CircuitError):
            builder.argmax([], [])


class TestSpamCircuit:
    @given(
        st.integers(min_value=0, max_value=2**20 - 1),
        st.integers(min_value=0, max_value=2**20 - 1),
        st.integers(min_value=0, max_value=2**40 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_plain_comparison(self, spam_score, ham_score, noise):
        # b = 20: the margin d_spam − d_ham + τ is blinded, the client's ν
        # unblinds it with the offset that makes the top bit the verdict.
        b, tau = 20, 2**20 - 1
        circuit = SpamCircuit.build(b + 1)
        blinded = spam_score - ham_score + tau + noise
        bits = circuit.circuit.evaluate_plain(
            circuit.garbler_bits(blinded),
            circuit.evaluator_bits(noise + tau + 1 - 2**b),
        )
        assert SpamCircuit.decode_output(bits) == (spam_score > ham_score)

    def test_exhaustively_the_top_bit_of_the_difference(self):
        circuit = SpamCircuit.build(5)
        for a in range(32):
            for b in range(32):
                bits = circuit.circuit.evaluate_plain(
                    circuit.garbler_bits(a), circuit.evaluator_bits(b)
                )
                assert bits == [((a - b) % 32) >> 4], (a, b)

    def test_single_output_bit(self):
        circuit = SpamCircuit.build(8)
        assert len(circuit.circuit.outputs) == 1


class TestTopicCircuit:
    @given(st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=2, max_size=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_plain_argmax(self, scores, data):
        width, index_bits = 24, 8
        count = len(scores)
        noises = [data.draw(st.integers(min_value=0, max_value=2**20 - 1)) for _ in range(count)]
        indices = [data.draw(st.integers(min_value=0, max_value=2**index_bits - 1)) for _ in range(count)]
        circuit = TopicCircuit.build(width, count, index_bits)
        blinded = [(score + noise) % (1 << width) for score, noise in zip(scores, noises)]
        bits = circuit.circuit.evaluate_plain(
            circuit.garbler_bits(noises, indices),
            circuit.evaluator_bits(blinded),
        )
        expected = indices[max(range(count), key=lambda j: (scores[j], -j))]
        assert TopicCircuit.decode_output(bits) == expected

    def test_ties_resolve_to_first(self):
        circuit = TopicCircuit.build(8, 3, 4)
        bits = circuit.circuit.evaluate_plain(
            circuit.garbler_bits([0, 0, 0], [5, 6, 7]),
            circuit.evaluator_bits([9, 9, 9]),
        )
        assert TopicCircuit.decode_output(bits) == 5

    def test_wrong_candidate_count_rejected(self):
        circuit = TopicCircuit.build(8, 3, 4)
        with pytest.raises(CircuitError):
            circuit.garbler_bits([1, 2], [3, 4, 5])
        with pytest.raises(CircuitError):
            circuit.evaluator_bits([1, 2])

    def test_zero_candidates_rejected(self):
        with pytest.raises(CircuitError):
            TopicCircuit.build(8, 0, 4)


# ---------------------------------------------------------------------------
# The one-AND gadgets, proved against integer arithmetic (not against digests)
# ---------------------------------------------------------------------------
WORD_OPS = {
    "add": (lambda c, x, y: c.add_words(x, y), lambda a, b, w: (a + b) % (1 << w)),
    "subtract": (lambda c, x, y: c.subtract_words(x, y), lambda a, b, w: (a - b) % (1 << w)),
    "greater_than": (lambda c, x, y: [c.greater_than(x, y)], lambda a, b, w: int(a > b)),
    "greater_or_equal": (lambda c, x, y: [c.greater_or_equal(x, y)], lambda a, b, w: int(a >= b)),
}
# AND gates per gadget at width w: what a garbled email pays for.
AND_BUDGET = {
    "add": lambda w: w - 1,
    "subtract": lambda w: w - 1,
    "greater_than": lambda w: w,
    "greater_or_equal": lambda w: w,
}


def _word_circuit(name, width):
    builder = CircuitBuilder()
    a_wires = builder.garbler_input(width)
    b_wires = builder.evaluator_input(width)
    return builder.build(WORD_OPS[name][0](builder, a_wires, b_wires))


def _argmax_circuit(width, count, index_bits):
    builder = CircuitBuilder()
    values = [builder.evaluator_input(width) for _ in range(count)]
    payloads = [builder.garbler_input(index_bits) for _ in range(count)]
    return builder.build(builder.argmax(values, payloads))


def _plain_argmax(values):
    """Index of the maximum, ties to the earliest (``numpy.argmax``)."""
    return max(range(len(values)), key=lambda j: (values[j], -j))


WORD32 = st.integers(min_value=0, max_value=2**32 - 1)
# Pairs that exercise the comparator's edge: equal words, neighbours, and
# words that differ only above or only below a long equal run.
PAIR32 = st.one_of(
    st.tuples(WORD32, WORD32),
    WORD32.map(lambda a: (a, a)),
    WORD32.map(lambda a: (a, (a + 1) % 2**32)),
    st.tuples(WORD32, st.integers(min_value=0, max_value=31)).map(
        lambda ab: (ab[0], ab[0] ^ (1 << ab[1]))
    ),
)


class TestGadgetsEqualIntegerArithmetic:
    @pytest.mark.parametrize("name", sorted(WORD_OPS))
    @pytest.mark.parametrize("width", range(1, 7))
    def test_exhaustively_at_small_widths(self, name, width):
        circuit = _word_circuit(name, width)
        reference = WORD_OPS[name][1]
        assert circuit.and_count == AND_BUDGET[name](width)
        for a in range(1 << width):
            for b in range(1 << width):
                bits = circuit.evaluate_plain(int_to_bits(a, width), int_to_bits(b, width))
                assert bits_to_int(bits) == reference(a, b, width), (name, width, a, b)

    @pytest.mark.parametrize("name", sorted(WORD_OPS))
    @given(pair=PAIR32)
    @settings(max_examples=60, deadline=None)
    def test_at_the_protocol_width(self, name, pair):
        a, b = pair
        circuit = _word_circuit(name, 32)
        assert circuit.and_count == AND_BUDGET[name](32)
        bits = circuit.evaluate_plain(int_to_bits(a, 32), int_to_bits(b, 32))
        assert bits_to_int(bits) == WORD_OPS[name][1](a, b, 32)

    @pytest.mark.parametrize("width,count", [(w, 2) for w in range(1, 7)] + [(1, 3), (2, 3), (3, 3)])
    def test_argmax_exhaustively_with_ties_to_the_earliest(self, width, count):
        index_bits = 2
        circuit = _argmax_circuit(width, count, index_bits)
        payload_bits = [bit for index in range(count) for bit in int_to_bits(index + 1, index_bits)]
        for packed in range(1 << (width * count)):
            values = [(packed >> (width * j)) & ((1 << width) - 1) for j in range(count)]
            value_bits = [bit for value in values for bit in int_to_bits(value, width)]
            bits = circuit.evaluate_plain(payload_bits, value_bits)
            assert bits_to_int(bits) == _plain_argmax(values) + 1, values

    @given(values=st.lists(WORD32, min_size=2, max_size=5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_argmax_at_the_protocol_width(self, values, data):
        # Force ties often: overwrite a random entry with a copy of another.
        if data.draw(st.booleans()):
            source = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            target = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            values[target] = values[source]
        circuit = _argmax_circuit(32, len(values), 8)
        payload_bits = [bit for index in range(len(values)) for bit in int_to_bits(index + 7, 8)]
        value_bits = [bit for value in values for bit in int_to_bits(value, 32)]
        bits = circuit.evaluate_plain(payload_bits, value_bits)
        assert bits_to_int(bits) == _plain_argmax(values) + 7


class TestAndBudgets:
    """The AND count is the garbling cost; pinned as formulas, not as numbers."""

    @pytest.mark.parametrize("width", [1, 2, 8, 24, 28, 32])
    def test_spam_circuit_is_one_subtractor(self, width):
        assert SpamCircuit.build(width).circuit.and_count == width - 1

    @pytest.mark.parametrize(
        "width,candidates,index_bits",
        [(32, 10, 8), (32, 1, 8), (24, 2, 4), (8, 5, 3), (32, 20, 11), (27, 10, 8)],
    )
    def test_topic_circuit_is_subtractors_plus_compare_and_select(
        self, width, candidates, index_bits
    ):
        # The last compare-and-select step carries no value forward.
        circuit = TopicCircuit.build(width, candidates, index_bits).circuit
        assert circuit.and_count == (
            candidates * (width - 1)
            + (candidates - 1) * (width + index_bits)
            + max(candidates - 2, 0) * width
        )

    def test_the_benchmark_shapes(self):
        # dot_product_bits = 27: spam garbles b + 1 = 28 bits wide, topics 27.
        assert SpamCircuit.build(28).circuit.and_count == 27
        assert TopicCircuit.build(27, 10, 8).circuit.and_count == 791

    def test_builds_are_shared_per_shape(self):
        assert SpamCircuit.build(32) is SpamCircuit.build(32)
        assert TopicCircuit.build(32, 10, 8) is TopicCircuit.build(32, 10, 8)
        assert TopicCircuit.build(32, 10, 8) is not TopicCircuit.build(32, 9, 8)
