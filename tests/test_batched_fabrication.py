"""Pins for the batched ciphertext-fabrication paths and for score samples.

Every vectorised fast path for the fabrication hot spots — batched
encryption and Garner CRT — promises *bit-identical* output to its scalar
reference, under a shared seeded PRG; ``TestBytePins`` holds encryption and
blinding to digests computed before the client's model moved to the
coefficient domain.

Score samples (what an XPIR-BV client sends instead of a blinded ciphertext:
``c1`` and one slot run of ``c0``) are held to the *full-ciphertext path as
oracle*: the scalar ``shift_up → encrypt_slots → add → decrypt_slots → pick
the slot`` chain, kept here and no longer in ``src/``.  A sample must decrypt
to the oracle's slots, unblind to the plaintext scores, come out of the
documented randomness draw order bit for bit, and cost the transforms the
module docstrings say it costs.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.ntt import NttPlan
from repro.crypto.packing import PackedLinearModel
from repro.crypto.prg import Prg
from repro.crypto.ringlwe import ROW_RUN_LIMIT, RingContext, RingPolynomial
from repro.exceptions import ParameterError
from repro.twopc.blinding import (
    BlindedResult,
    blind_dot_products,
    blind_extracted_candidates,
    score_runs,
)
from repro.utils.rand import secure_uniform_array, secure_uniform_ints


def _wire(scheme, ciphertexts):
    return [scheme.serialize_ciphertext(ct) for ct in ciphertexts]


class TestBatchedEncryption:
    def test_encrypt_slots_many_matches_loop_on_shared_stream(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(11)
        vectors = rng.integers(
            0, bv_scheme.slot_modulus, size=(7, bv_scheme.num_slots), dtype=np.uint64
        ).astype(object).tolist()
        vectors = [[int(v) for v in row] for row in vectors]
        batched = bv_scheme.encrypt_slots_many(
            bv_keys.public, vectors, prg=Prg(b"enc-many", domain=b"pin")
        )
        loop = [
            bv_scheme.encrypt_slots(bv_keys.public, row, prg=prg)
            for prg in [Prg(b"enc-many", domain=b"pin")]
            for row in vectors
        ]
        assert _wire(bv_scheme, batched) == _wire(bv_scheme, loop)

    def test_ndarray_and_list_inputs_agree(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(12)
        matrix = rng.integers(0, bv_scheme.slot_modulus, size=(4, bv_scheme.num_slots), dtype=np.uint64)
        from_array = bv_scheme.encrypt_slots_many(
            bv_keys.public, matrix, prg=Prg(b"enc-kind", domain=b"pin")
        )
        from_lists = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            [[int(v) for v in row] for row in matrix],
            prg=Prg(b"enc-kind", domain=b"pin"),
        )
        assert _wire(bv_scheme, from_array) == _wire(bv_scheme, from_lists)

    def test_short_vectors_pad_with_zero_slots(self, bv_scheme, bv_keys):
        ragged = bv_scheme.encrypt_slots_many(
            bv_keys.public, np.array([[5, 6], [7, 8]]), prg=Prg(b"enc-pad", domain=b"pin")
        )
        padded = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            [[5, 6] + [0] * (bv_scheme.num_slots - 2), [7, 8] + [0] * (bv_scheme.num_slots - 2)],
            prg=Prg(b"enc-pad", domain=b"pin"),
        )
        assert _wire(bv_scheme, ragged) == _wire(bv_scheme, padded)

    def test_batched_ciphertexts_decrypt_correctly(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(13)
        matrix = rng.integers(0, bv_scheme.slot_modulus, size=(5, bv_scheme.num_slots), dtype=np.uint64)
        ciphertexts = bv_scheme.encrypt_slots_many(bv_keys.public, matrix)
        decrypted = bv_scheme.decrypt_slots_many(bv_keys, ciphertexts)
        assert decrypted == matrix.astype(object).tolist()

    def test_empty_batch(self, bv_scheme, bv_keys):
        assert bv_scheme.encrypt_slots_many(bv_keys.public, []) == []
        assert bv_scheme.encrypt_slots_many(bv_keys.public, np.zeros((0, 4), dtype=np.int64)) == []

    def test_out_of_range_matrix_rejected(self, bv_scheme, bv_keys):
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, np.array([[-1]]))
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, np.array([[bv_scheme.slot_modulus]]))
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, np.array([[0.5]]))
        too_wide = np.zeros((1, bv_scheme.num_slots + 1), dtype=np.int64)
        with pytest.raises(ParameterError):
            bv_scheme.encrypt_slots_many(bv_keys.public, too_wide)

    def test_paillier_default_accepts_ndarray(self, paillier_scheme, paillier_keys):
        matrix = np.array([[3, 1], [4, 1]], dtype=np.int64)
        ciphertexts = paillier_scheme.encrypt_slots_many(paillier_keys.public, matrix)
        keypair = paillier_keys
        assert paillier_scheme.decrypt_slots(keypair, ciphertexts[0])[:2] == [3, 1]
        assert paillier_scheme.decrypt_slots(keypair, ciphertexts[1])[:2] == [4, 1]


class TestBatchedHomomorphicOps:
    def test_add_many_matches_scalar_add(self, bv_scheme, bv_keys):
        rng = np.random.default_rng(21)
        lefts = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            rng.integers(0, bv_scheme.slot_modulus, size=(6, bv_scheme.num_slots), dtype=np.uint64),
        )
        rights = bv_scheme.encrypt_slots_many(
            bv_keys.public,
            rng.integers(0, bv_scheme.slot_modulus, size=(6, bv_scheme.num_slots), dtype=np.uint64),
        )
        batched = bv_scheme.add_many(lefts, rights)
        loop = [bv_scheme.add(left, right) for left, right in zip(lefts, rights)]
        assert _wire(bv_scheme, batched) == _wire(bv_scheme, loop)
        assert bv_scheme.add_many([], []) == []

    def test_add_many_length_mismatch_rejected(self, bv_scheme, bv_keys):
        ct = bv_scheme.encrypt_slots(bv_keys.public, [1])
        with pytest.raises(ParameterError):
            bv_scheme.add_many([ct], [])

    @given(exponents=st.lists(st.integers(min_value=0, max_value=2 * 256 - 1), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_monomial_spectra_many_matches_per_exponent(self, exponents):
        ring = RingContext.create(ring_degree=256, prime_bits=31, prime_count=2)
        stacked = ring.monomial_spectra_many(exponents)
        assert stacked.shape == (len(exponents), len(ring.primes), ring.n)
        for row, exponent in enumerate(exponents):
            assert np.array_equal(stacked[row], ring.monomial_spectra(exponent))


# ---------------------------------------------------------------------------
# Score samples, with the full-ciphertext path as the oracle
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module", params=[256, 1024], ids=lambda n: f"n{n}")
def ring_scheme(request, bv_scheme, bv_keys):
    """``(scheme, key pair)`` at both ring degrees the protocols run at."""
    if request.param == bv_scheme.num_slots:
        return bv_scheme, bv_keys
    scheme = BVScheme(BVParameters(ring_degree=request.param))
    return scheme, scheme.generate_keypair()


def _noise_vector(scheme, fixed: dict[int, int]) -> list[int]:
    """Full-range noise in every slot, except the *fixed* slot values."""
    vector = secure_uniform_array(scheme.slot_modulus, scheme.num_slots).tolist()
    for slot, value in fixed.items():
        vector[slot] = int(value)
    return vector


def oracle_slots(scheme, keypair, source, shift, run, noise) -> list[int]:
    """What a sample's run must decrypt to, by the full-ciphertext path, scalar."""
    start, length = run
    shifted = scheme.shift_up(source, shift) if shift else source
    fresh = scheme.encrypt_slots(
        keypair.public, _noise_vector(scheme, dict(zip(range(start, start + length), noise)))
    )
    return scheme.decrypt_slots(keypair, scheme.add(shifted, fresh))[start : start + length]


def whole_dot_products(model, features):
    """The generic chain's result for *features*: whole ciphertexts, every slot
    computed — what the oracles below shift, add and decrypt."""
    return model._dot_products_generic(list(features) + [(model.layout.num_rows - 1, 1)])


def blind_dot_products_reference(scheme, public_key, result, output_noise) -> BlindedResult:
    """The replaced path, one ciphertext at a time: every slot of every result
    ciphertext blinded and sent whole, the output slots with *output_noise*."""
    blinded = []
    for position, ciphertext in enumerate(result.all_ciphertexts()):
        fixed = {slot: noise for at, slot, noise in output_noise.values() if at == position}
        fresh = scheme.encrypt_slots(public_key, _noise_vector(scheme, fixed))
        blinded.append(scheme.add(ciphertext, fresh))
    return BlindedResult(ciphertexts=blinded, output_noise=dict(output_noise))


def blind_extracted_candidates_reference(
    scheme, public_key, model, result, candidate_columns, output_noise
) -> BlindedResult:
    """The replaced path per candidate: ``shift_up`` to the top slot, a whole
    noise ciphertext (recorded noise on top, full-range below), ``add``."""
    ciphertexts = result.all_ciphertexts()
    slot_map = model.column_slot_map()
    top = scheme.num_slots - 1
    blinded = []
    for column in candidate_columns:
        ct_index, slot = slot_map[column]
        extracted = ciphertexts[ct_index]
        if top - slot:
            extracted = scheme.shift_up(extracted, top - slot)
        fresh = scheme.encrypt_slots(
            public_key, _noise_vector(scheme, {top: output_noise[column][2]})
        )
        blinded.append(scheme.add(extracted, fresh))
    return BlindedResult(ciphertexts=blinded, output_noise=dict(output_noise))


def unblind_reference(blinded_value: int, noise: int, scheme) -> int:
    """Plaintext unblinding: ``(blinded - noise) mod 2^slot_bits``."""
    return (blinded_value - noise) % scheme.slot_modulus


BLINDING_EMAIL = [(0, 2), (17, 1), (33, 3)]


@pytest.fixture(scope="module")
def blinding_setup(bv_scheme, bv_keys):
    rng = np.random.default_rng(31)
    matrix = rng.integers(0, 100, size=(40, 12)).tolist()
    model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
    result = model.dot_products(BLINDING_EMAIL)
    return model, result


class TestScoreSamplesAgainstTheOracle:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_sample_decrypts_to_the_oracles_slots(self, ring_scheme, data):
        """Any slot run of any shift — also past the negacyclic wrap, where the
        value comes back negated — opens to what the whole ciphertext would."""
        scheme, keys = ring_scheme
        n, t = scheme.num_slots, scheme.slot_modulus
        length = data.draw(st.sampled_from([1, 2, ROW_RUN_LIMIT, ROW_RUN_LIMIT + 1, 12]))
        start = data.draw(st.integers(0, n - length))
        shift = data.draw(st.sampled_from([0, 1, n // 2, n - 1]) | st.integers(0, n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.integers(0, t, size=n).tolist()
        noise = rng.integers(0, t, size=length)
        source = scheme.encrypt_slots(keys.public, values)
        (sample,) = scheme.blind_samples(keys.public, [source], [0], [shift], [(start, length)], noise)
        assert scheme.ciphertext_run(sample) == (start, length)
        assert sample.size_bytes == len(scheme.serialize_ciphertext(sample))
        opened = scheme.decrypt_slots(keys, sample)
        assert opened == oracle_slots(scheme, keys, source, shift, (start, length), noise)
        # ... and to the plaintext it stands for: slot j of x^shift · m is
        # m[j - shift], negated when it wrapped past the top (x^n = -1).
        expected = [
            ((values[slot - shift] if slot >= shift else -values[slot - shift + n]) + int(extra)) % t
            for slot, extra in zip(range(start, start + length), noise)
        ]
        assert opened == expected

    def test_samples_of_unequal_runs_blind_and_decrypt_in_one_call(self, ring_scheme):
        scheme, keys = ring_scheme
        n = scheme.num_slots
        rng = np.random.default_rng(5)
        sources = scheme.encrypt_slots_many(
            keys.public, rng.integers(0, scheme.slot_modulus, size=(2, n), dtype=np.uint64)
        )
        picks = [(1, 0, (0, n)), (0, 3, (n - 1, 1)), (1, n - 2, (n - 2, 2)), (0, 3, (n - 1, 1))]
        noise = rng.integers(0, scheme.slot_modulus, size=sum(run[1] for *_, run in picks))
        samples = scheme.blind_samples(
            keys.public, sources, *zip(*picks), noise
        )
        full = scheme.encrypt_slots(keys.public, [9, 8, 7])
        opened = scheme.decrypt_slots_many(keys, samples[:2] + [full] + samples[2:])
        assert opened.pop(2)[:3] == [9, 8, 7]
        at = 0
        for (source, shift, run), slots in zip(picks, opened):
            assert slots == oracle_slots(
                scheme, keys, sources[source], shift, run, noise[at : at + run[1]]
            )
            at += run[1]

    def test_blind_samples_validates_arguments(self, bv_scheme, bv_keys):
        source = bv_scheme.encrypt_slots(bv_keys.public, [1])
        n = bv_scheme.num_slots
        blind = lambda *arguments: bv_scheme.blind_samples(bv_keys.public, [source], *arguments)  # noqa: E731
        assert blind([], [], [], np.zeros(0, dtype=np.int64)) == []
        for sources, shifts, runs, noise in (
            ([0], [0, 1], [(0, 1)], [1]),            # unequal lengths
            ([0], [-1], [(0, 1)], [1]),              # negative shift
            ([0], [0], [(0, 0)], []),                # empty run
            ([0], [0], [(n - 1, 2)], [1, 2]),        # run past the top slot
            ([0], [0], [(0, 2)], [1]),               # one noise value short
            ([0], [0], [(0, 1)], [bv_scheme.slot_modulus]),
            ([0], [0], [(0, 1)], [0.5]),
        ):
            with pytest.raises(ParameterError):
                blind(sources, shifts, runs, np.asarray(noise))

    def test_a_read_outside_the_source_run_is_refused(self, bv_scheme, bv_keys, blinding_setup):
        """The across-row result carries ``c0`` on its output region, slots
        240–251 at n = 256, and nothing else: a sample that would read one slot
        of ``c0`` beyond it is refused, one inside it is served."""
        model, result = blinding_setup
        n = bv_scheme.num_slots
        (source,) = result.all_ciphertexts()
        assert bv_scheme.ciphertext_run(source) == (240, 12)
        blind = lambda shift, run: bv_scheme.blind_samples(  # noqa: E731
            bv_keys.public, [source], [0], [shift], [run], np.zeros(run[1], dtype=np.int64)
        )
        for shift, run in (
            (0, (0, 1)),            # slot 0, below the run
            (0, (239, 2)),          # slot 239 and the run's first
            (0, (251, 2)),          # the run's last and slot 252
            (n - 1 - 239, (n - 1, 1)),   # extraction of slot 239
            (n - 1 - 252, (n - 1, 1)),   # extraction of slot 252
            (1, (240, 12)),         # the whole run, one slot too low
        ):
            with pytest.raises(ParameterError, match="computed on run"):
                blind(shift, run)
        inside = ((0, (240, 12)), (n - 1 - 240, (n - 1, 1)), (n - 1 - 251, (n - 1, 1)), (4, (250, 6)))
        for shift, run in inside:
            (sample,) = blind(shift, run)
            assert bv_scheme.ciphertext_run(sample) == run

    @pytest.mark.parametrize("categories", [2, 12])
    def test_unblinded_samples_equal_the_integer_scores(self, ring_scheme, categories):
        """``(sample - recorded noise) mod 2^slot_bits`` is the plaintext score,
        for a two-column run of 2, an output region, and extracted candidates — and
        it is what the replaced full-ciphertext path unblinds to."""
        scheme, keys = ring_scheme
        rng = np.random.default_rng(categories)
        linear = LinearModel(
            weights=rng.normal(size=(60, categories)),
            biases=rng.normal(size=categories),
            category_names=[f"c{index}" for index in range(categories)],
        )
        quantized = QuantizedLinearModel.from_linear_model(
            linear, value_bits=10, frequency_bits=4, max_features_per_email=512
        )
        model = PackedLinearModel.encrypt(scheme, keys.public, quantized.matrix_rows())
        features = {3: 2, 17: 15, 44: 1, 59: 7}
        scores = quantized.integer_scores(features).tolist()
        result = model.dot_products(quantized.sparse_features(features))
        whole = whole_dot_products(model, quantized.sparse_features(features))
        columns = list(range(categories))

        blinded = blind_dot_products(scheme, keys.public, model, result, columns, dot_bits=24)
        runs = score_runs(scheme, model)
        assert [scheme.ciphertext_run(ct) for ct in blinded.ciphertexts] == runs
        reference = blind_dot_products_reference(scheme, keys.public, whole, blinded.output_noise)
        for column in columns:
            at, slot, noise = blinded.output_noise[column]
            sample_slots = scheme.decrypt_slots(keys, blinded.ciphertexts[at])
            whole_slots = scheme.decrypt_slots(keys, reference.ciphertexts[at])
            assert sample_slots[slot - runs[at][0]] == whole_slots[slot]
            assert unblind_reference(whole_slots[slot], noise, scheme) == scores[column]

        candidates = columns[::-1][: max(2, categories // 2)]
        extracted = blind_extracted_candidates(
            scheme, keys.public, model, result, candidates, dot_bits=24
        )
        reference = blind_extracted_candidates_reference(
            scheme, keys.public, model, whole, candidates, extracted.output_noise
        )
        top = scheme.num_slots - 1
        for position, column in enumerate(candidates):
            assert extracted.output_noise[column][:2] == (position, top)
            (opened,) = scheme.decrypt_slots(keys, extracted.ciphertexts[position])
            assert opened == scheme.decrypt_slots(keys, reference.ciphertexts[position])[top]
            assert unblind_reference(opened, extracted.output_noise[column][2], scheme) == scores[column]

    def test_a_repeated_candidate_is_extracted_once_per_mention(self, bv_scheme, bv_keys, blinding_setup):
        model, result = blinding_setup
        columns = [1, 5, 5, 9, 0]
        blinded = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, columns, dot_bits=20
        )
        assert len(blinded.ciphertexts) == len(columns)
        assert blinded.output_noise[5][0] == 2  # the record is the last mention's
        assert blinded.network_bytes() == len(columns) * bv_scheme.sample_size_bytes(1)

    @pytest.mark.parametrize("entry", ["dot_products", "candidates"])
    def test_randomness_is_read_in_the_documented_order(
        self, bv_scheme, bv_keys, blinding_setup, entry
    ):
        """Replay ``blinding.py``'s canonical draw order from one seeded stream and
        rebuild every sample from the scheme's definition, whole polynomials and
        all (the generic chain's result as the source): ``c1`` and the run of
        ``c0`` must come out bit for bit."""
        model, result = blinding_setup
        scheme, ring = bv_scheme, bv_scheme.ring
        n, t, bound = ring.n, scheme.slot_modulus, scheme.parameters.noise_bound
        top = n - 1
        if entry == "candidates":
            columns = [1, 5, 9, 0]
            blinded = blind_extracted_candidates(
                scheme, bv_keys.public, model, result, columns, dot_bits=20,
                prg=Prg(b"draw-order", domain=b"pin"),
            )
            slot_of = model.column_slot_map()
            picks = [(slot_of[column][0], top - slot_of[column][1], (top, 1)) for column in columns]
        else:
            columns = [0, 3, 7, 11]
            blinded = blind_dot_products(
                scheme, bv_keys.public, model, result, columns, dot_bits=20,
                prg=Prg(b"draw-order", domain=b"pin"),
            )
            picks = [(position, 0, run) for position, run in enumerate(score_runs(scheme, model))]
        stream = Prg(b"draw-order", domain=b"pin")
        lengths = [length for _source, _shift, (_start, length) in picks]
        total = sum(lengths)
        # Step 1: the run noise, one call; an output column's record is its slot's draw.
        noise = secure_uniform_array(t, total, stream)
        for column in columns:
            at, slot, recorded = blinded.output_noise[column]
            offset = sum(lengths[:at]) + slot - picks[at][2][0]
            assert recorded == noise[offset]
        # Step 2: per sample n bytes of u then 2n of e2, then two bytes of e1 per run slot.
        fresh = [
            (RingPolynomial.sample_ternary(ring, stream), RingPolynomial.sample_noise(ring, bound, stream))
            for _ in picks
        ]
        e1 = (np.frombuffer(stream.read(2 * total), dtype=">u2") % (2 * bound + 1)).astype(np.int64) - bound
        public = bv_keys.public.payload
        sources = whole_dot_products(model, BLINDING_EMAIL).all_ciphertexts()
        at = 0
        for (source, shift, (start, length)), (u, e2), sample in zip(picks, fresh, blinded.ciphertexts):
            payload = sources[source].payload
            c1 = payload.c1.monomial_multiply(shift).add(public.p1.multiply(u)).add(e2.scalar_multiply(t))
            assert np.array_equal(sample.payload.c1, c1.spectra)
            c0 = payload.c0.monomial_multiply(shift).add(public.p0.multiply(u)).residues
            at_run = t * e1[at : at + length] + noise[at : at + length]
            assert np.array_equal(
                sample.payload.c0, (c0[:, start : start + length] + at_run) % ring.primes_column
            )
            at += length

    def test_transform_counts(self, bv_scheme, bv_keys, blinding_setup, monkeypatch):
        """The two transform gates, as exact counts: blinding B' candidates is
        one forward transform over 2B' polynomials, decrypting k score
        samples is no transform at all."""
        model, result = blinding_setup
        transforms = []
        for direction in ("forward", "inverse"):
            def counted(plan, values, _direction=direction, _real=getattr(NttPlan, direction)):
                transforms.append((_direction, np.shape(values)[:-2]))
                return _real(plan, values)
            monkeypatch.setattr(NttPlan, direction, counted)
        blinded = blind_extracted_candidates(
            bv_scheme, bv_keys.public, model, result, [1, 5, 9, 0, 11], dot_bits=20
        )
        assert transforms == [("forward", (10,))]
        spam_like = bv_scheme.blind_samples(
            bv_keys.public, result.all_ciphertexts(), [0], [0], [(240, 2)], np.array([3, 4])
        )
        assert transforms == [("forward", (10,)), ("forward", (2,))]
        del transforms[:]
        opened = bv_scheme.decrypt_slots_many(bv_keys, blinded.ciphertexts + spam_like)
        assert [len(slots) for slots in opened] == [1] * 5 + [2]
        assert transforms == []


class TestBlindingReadsOnlyTheRun:
    """The client's results carry ``c0`` on their result run only, so blinding
    must read nothing else: over the legacy, across-row, ``B = p`` and
    ``B = p + 19`` layouts, every ``c0`` slot a sample reads lies inside its
    source's run, and the samples unblind to the plaintext scores."""

    # name -> (columns relative to the slot count, across_rows)
    LAYOUTS = {
        "legacy": (lambda n: 3, False),
        "across-row": (lambda n: 12, True),
        "B=p": (lambda n: n, True),
        "B=p+19": (lambda n: n + 19, True),
    }

    @pytest.fixture(scope="class")
    def models(self, bv_scheme, bv_keys):
        models = {}
        for name, (columns, across_rows) in self.LAYOUTS.items():
            matrix = np.random.default_rng(len(name)).integers(
                0, 300, size=(30, columns(bv_scheme.num_slots))
            )
            models[name] = (
                matrix,
                PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=across_rows),
            )
        return models

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_read_is_inside_the_result_run(self, bv_scheme, bv_keys, models, data):
        scheme, n = bv_scheme, bv_scheme.num_slots
        matrix, model = models[data.draw(st.sampled_from(sorted(self.LAYOUTS)), label="layout")]
        columns = matrix.shape[1]
        email = data.draw(
            st.lists(st.tuples(st.integers(0, len(matrix) - 2), st.integers(1, 15)), max_size=12),
            label="email",
        )
        scores = matrix[-1] + sum((frequency * matrix[row] for row, frequency in email), 0)
        picked = st.lists(st.integers(0, columns - 1), min_size=1, max_size=6)
        outputs = data.draw(picked, label="output columns")
        candidates = data.draw(picked, label="candidates")
        result = model.dot_products(email)
        result_runs = model.layout.result_runs()

        reads = []
        real = BVScheme.blind_samples

        def spy(self, public_key, ciphertexts, sources, shifts, runs, noise, prg=None):
            source_runs = [self.ciphertext_run(ciphertext) for ciphertext in ciphertexts]
            for source, shift, (start, length) in zip(sources, shifts, runs):
                # Slot j of x^shift · C reads c0 slot j − shift of C, mod n (the wrap).
                slots = [(j - shift) % n for j in range(start, start + length)]
                reads.append((source_runs[source], slots))
            return real(self, public_key, ciphertexts, sources, shifts, runs, noise, prg)

        with mock.patch.object(BVScheme, "blind_samples", spy):
            blinded = blind_dot_products(scheme, bv_keys.public, model, result, outputs, dot_bits=24)
            extracted = blind_extracted_candidates(
                scheme, bv_keys.public, model, result, candidates, dot_bits=24
            )
        assert [scheme.ciphertext_run(ct) for ct in result.all_ciphertexts()] == result_runs
        assert len(reads) == len(result_runs) + len(candidates)
        for (first, width), slots in reads:
            assert (first, width) in result_runs
            assert all(first <= slot < first + width for slot in slots)

        opened = scheme.decrypt_slots_many(bv_keys, blinded.ciphertexts)
        for column in outputs:
            at, slot, noise = blinded.output_noise[column]
            value = opened[at][slot - result_runs[at][0]]
            assert unblind_reference(value, noise, scheme) == scores[column]
        opened = scheme.decrypt_slots_many(bv_keys, extracted.ciphertexts)
        for column in candidates:
            at, _, noise = extracted.output_noise[column]
            assert unblind_reference(opened[at][0], noise, scheme) == scores[column]


class TestBytePins:
    """SHA-256 of serialized ciphertexts and samples from a fully seeded pipeline.

    Keys and the model draw the OS randomness, replaced here by one seeded
    stream; encryption and blinding take their own seeded ``Prg``.  The digests
    were computed before the client's model moved to the coefficient domain,
    and that move must leave every byte alone.
    """

    PINS = {
        "encrypt_slots_many": "252b33d52b9bc8e34645b6d4a85374d47b6b649b7a6e9d47b5ae8767df0a0a2d",
        "leftover/blind_dot_products": "e69c4c69b2c97b2abf6aae1d1f2a5dcc8a92dd7f4aebcb689032774b3e6322a1",
        "leftover/blind_extracted_candidates": "94465c557efd57fba0177bbd08414f66a8396b134dddef4751324dc46650d5e8",
        "full-segments/blind_dot_products": "b43ca456cdc777190fc770b45e4db16bde428b2c4687e4e49bd55e3f2cff27bf",
        "full-segments/blind_extracted_candidates": "2ba4f807caf179812d2154afb1901963a31dacdaa34c4c454dab8947ca85d644",
    }
    # (columns relative to the slot count, email, candidate columns)
    MODELS = {
        "leftover": (lambda n: 12, [(0, 2), (17, 1), (33, 3), (38, 1)], [1, 5, 9, 0, 11]),
        "full-segments": (lambda n: n + 19, [(0, 1), (3, 4), (11, 2), (23, 1)], [2, 255, 256, 270]),
    }

    @pytest.fixture
    def seeded(self, monkeypatch):
        stream = Prg(b"byte-pins", domain=b"os-randomness")
        monkeypatch.setattr("repro.crypto.bv.secure_bytes", stream.read)
        monkeypatch.setattr("repro.crypto.ringlwe.secure_bytes", stream.read)
        scheme = BVScheme(BVParameters.test_parameters())
        return scheme, scheme.generate_keypair()

    @staticmethod
    def _digest(scheme, ciphertexts) -> str:
        return hashlib.sha256(b"".join(_wire(scheme, ciphertexts))).hexdigest()

    def test_encrypt_slots_many(self, seeded):
        scheme, keys = seeded
        vectors = np.random.default_rng(41).integers(
            0, scheme.slot_modulus, size=(5, scheme.num_slots), dtype=np.uint64
        )
        ciphertexts = scheme.encrypt_slots_many(
            keys.public, vectors, prg=Prg(b"pin-encrypt", domain=b"pin")
        )
        assert self._digest(scheme, ciphertexts) == self.PINS["encrypt_slots_many"]

    @pytest.mark.parametrize("shape", sorted(MODELS))
    def test_blinded_samples(self, seeded, shape):
        scheme, keys = seeded
        columns, email, candidates = self.MODELS[shape]
        matrix = np.random.default_rng(42).integers(0, 300, size=(40, columns(scheme.num_slots)))
        model = PackedLinearModel.encrypt(scheme, keys.public, matrix)
        result = model.dot_products(email)
        blinded = blind_dot_products(
            scheme, keys.public, model, result, list(range(matrix.shape[1])), dot_bits=24,
            prg=Prg(b"pin-dot-products", domain=b"pin"),
        )
        extracted = blind_extracted_candidates(
            scheme, keys.public, model, result, candidates, dot_bits=24,
            prg=Prg(b"pin-candidates", domain=b"pin"),
        )
        assert self._digest(scheme, blinded.ciphertexts) == self.PINS[f"{shape}/blind_dot_products"]
        assert self._digest(scheme, extracted.ciphertexts) == (
            self.PINS[f"{shape}/blind_extracted_candidates"]
        )


class TestCoefficientRuns:
    """``RingContext.coefficient_run``: inverse-transform coefficients as inner products."""

    @pytest.mark.parametrize("degree", [256, 1024])
    def test_every_row_equals_the_inverse_transform(self, degree):
        ring = RingContext.create(ring_degree=degree)
        rng = np.random.default_rng(degree)
        spectra = rng.integers(0, min(ring.primes), size=(2, len(ring.primes), degree))
        weight = rng.integers(0, min(ring.primes), size=(len(ring.primes), degree))
        plain = ring.inverse_transform(spectra)
        weighted = ring.inverse_transform(spectra * weight % ring.primes_column)
        for slot in range(degree):
            assert np.array_equal(ring.coefficient_run(spectra, slot, 1)[..., 0], plain[..., slot])
            assert np.array_equal(
                ring.coefficient_run(spectra, slot, 1, weight)[..., 0], weighted[..., slot]
            )

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_runs_on_both_sides_of_the_row_limit(self, data):
        ring = RingContext.create(ring_degree=256)
        length = data.draw(st.integers(1, 3 * ROW_RUN_LIMIT))
        start = data.draw(st.integers(0, ring.n - length))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        spectra = rng.integers(0, min(ring.primes), size=(3, len(ring.primes), ring.n))
        assert np.array_equal(
            ring.coefficient_run(spectra, start, length),
            ring.inverse_transform(spectra)[..., start : start + length],
        )

    @pytest.mark.parametrize("degree", [256, 1024])
    def test_no_int64_overflow_at_worst_case_residues(self, degree):
        """Every spectrum value and every (weighted) row entry at ``p - 1``: the
        limb sums peak here, and must still equal exact integer arithmetic."""
        ring = RingContext.create(ring_degree=degree)
        primes = ring.primes
        spectra = np.broadcast_to(ring.primes_column - 1, (len(primes), degree)).copy()
        for slot in (0, 1, degree // 2, degree - 1):
            rows = ring.monomial_spectra(-slot).astype(object)
            # The weight that drives every entry of n⁻¹ · row ⊙ weight to p - 1.
            weight = np.array(
                [
                    [(prime - 1) * pow(int(entry) * pow(degree, -1, prime), -1, prime) % prime for entry in row]
                    for prime, row in zip(primes, rows)
                ],
                dtype=np.int64,
            )
            expected = [[degree * (prime - 1) * (prime - 1) % prime] for prime in primes]
            assert ring.coefficient_run(spectra, slot, 1, weight).tolist() == expected

    def test_a_run_outside_the_ring_is_refused(self):
        ring = RingContext.create(ring_degree=256)
        spectra = np.zeros((len(ring.primes), ring.n), dtype=np.int64)
        for start, length in ((0, 0), (-1, 1), (255, 2), (256, 1), (0, 257)):
            with pytest.raises(ParameterError):
                ring.coefficient_run(spectra, start, length)


class TestUniformDraws:
    def test_array_and_list_draws_agree_on_one_stream(self):
        as_list = secure_uniform_ints(1 << 32, 50, Prg(b"uniform", domain=b"pin"))
        as_array = secure_uniform_array(1 << 32, 50, Prg(b"uniform", domain=b"pin"))
        assert as_array.dtype == np.int64
        assert as_array.tolist() == as_list

    def test_array_draw_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            secure_uniform_array(10, 4)
        with pytest.raises(ParameterError):
            secure_uniform_array(1 << 64, 4)

    def test_array_draw_edge_counts(self):
        assert secure_uniform_array(8, 0).tolist() == []
        assert secure_uniform_array(1, 3).tolist() == [0, 0, 0]


def crt_reference(ring: RingContext, residues: np.ndarray) -> np.ndarray:
    """Textbook CRT over Python integers: ``Σ r_i·M_i·(M_i⁻¹ mod p_i) mod q``, centered."""
    q = ring.modulus
    total = 0
    for index, prime in enumerate(ring.primes):
        partial = q // prime
        total = total + residues[..., index, :].astype(object) * (partial * pow(partial, -1, prime))
    total = total % q
    return np.where(total > q // 2, total - q, total)


class TestGarnerCrt:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), prime_count=st.sampled_from([1, 2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_garner_matches_object_dtype_reference(self, seed, prime_count):
        # prime_count=3 pushes q past 62 bits, exercising the object-dtype
        # final recombination branch; 1 and 2 stay int64 end to end.
        ring = RingContext.create(ring_degree=64, prime_bits=31, prime_count=prime_count)
        rng = np.random.default_rng(seed)
        residues = rng.integers(0, min(ring.primes), size=(3, len(ring.primes), ring.n))
        fast = ring.crt_reconstruct_array(residues)
        assert fast.tolist() == crt_reference(ring, residues).tolist()

    def test_object_dtype_input_is_refused(self):
        ring = RingContext.create(ring_degree=64, prime_bits=31, prime_count=2)
        residues = np.ones((len(ring.primes), ring.n), dtype=object)
        with pytest.raises(ParameterError, match="object dtype"):
            ring.crt_reconstruct_array(residues)
        assert ring.crt_reconstruct_array(residues.astype(np.int64)).tolist() == (
            crt_reference(ring, residues).tolist()
        )
