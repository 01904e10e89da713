"""HMAC-DRBG: determinism, sampler correctness, and SP 800-90A parity."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.errors import ParameterError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        assert HmacDrbg(b"s").generate(64) == HmacDrbg(b"s").generate(64)

    def test_different_seed_different_stream(self):
        assert HmacDrbg(b"s1").generate(32) != HmacDrbg(b"s2").generate(32)

    def test_stream_advances(self):
        drbg = HmacDrbg(b"s")
        assert drbg.generate(32) != drbg.generate(32)

    def test_chunked_reads_differ_from_restart(self):
        # generate() finalizes state per call (SP 800-90A update), so
        # two 16-byte reads are not the same as one 32-byte read --
        # but both are reproducible.
        a = HmacDrbg(b"s")
        chunked = a.generate(16) + a.generate(16)
        b = HmacDrbg(b"s")
        chunked2 = b.generate(16) + b.generate(16)
        assert chunked == chunked2

    def test_reseed_changes_stream(self):
        plain = HmacDrbg(b"s")
        reseeded = HmacDrbg(b"s")
        reseeded.reseed(b"extra entropy")
        assert plain.generate(32) != reseeded.generate(32)

    def test_bytes_generated_counter(self):
        drbg = HmacDrbg(b"s")
        drbg.generate(10)
        drbg.generate(22)
        assert drbg.bytes_generated == 32

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").generate(-1)

    def test_zero_length(self):
        assert HmacDrbg(b"s").generate(0) == b""


class TestSamplers:
    def test_randbelow_range(self):
        drbg = HmacDrbg(b"s")
        for _ in range(200):
            assert 0 <= drbg.randbelow(7) < 7

    def test_randbelow_covers_all_values(self):
        drbg = HmacDrbg(b"s")
        seen = {drbg.randbelow(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randbelow_invalid(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").randbelow(0)

    def test_randrange(self):
        drbg = HmacDrbg(b"s")
        for _ in range(100):
            assert 10 <= drbg.randrange(10, 15) < 15

    def test_randrange_empty_rejected(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").randrange(5, 5)

    def test_randint_bits(self):
        drbg = HmacDrbg(b"s")
        for _ in range(50):
            assert 0 <= drbg.randint_bits(12) < 4096

    def test_randint_bits_invalid(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").randint_bits(0)

    def test_uniform_in_unit_interval(self):
        drbg = HmacDrbg(b"s")
        values = [drbg.uniform() for _ in range(300)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7  # sanity, not rigor

    def test_choice(self):
        drbg = HmacDrbg(b"s")
        items = ["a", "b", "c"]
        assert drbg.choice(items) in items

    def test_choice_empty_rejected(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").choice([])

    def test_exponential_positive(self):
        drbg = HmacDrbg(b"s")
        values = [drbg.exponential(2.0) for _ in range(200)]
        assert all(v >= 0 for v in values)
        assert 1.0 < sum(values) / len(values) < 3.5

    def test_exponential_invalid_mean(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s").exponential(0.0)


class TestPermutations:
    def test_permutation_is_valid(self):
        perm = HmacDrbg(b"s").permutation(20)
        assert sorted(perm) == list(range(20))

    def test_permutation_deterministic(self):
        assert HmacDrbg(b"s").permutation(16) == HmacDrbg(b"s").permutation(16)

    def test_different_seeds_differ(self):
        # With 16! possibilities a collision would be a bug.
        assert HmacDrbg(b"a").permutation(16) != HmacDrbg(b"b").permutation(16)

    def test_shuffle_in_place(self):
        items = list(range(10))
        result = HmacDrbg(b"s").shuffle(items)
        assert result is items
        assert sorted(items) == list(range(10))

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=64), st.binary(max_size=16))
    def test_permutation_property(self, n, seed):
        perm = HmacDrbg(seed).permutation(n)
        assert sorted(perm) == list(range(n))

    def test_permutations_not_biased_at_zero(self):
        """First element of the permutation covers all positions."""
        seen = set()
        for i in range(120):
            seen.add(HmacDrbg(b"seed%d" % i).permutation(8)[0])
        assert seen == set(range(8))


class ReferenceDrbg:
    """Straight-line SP 800-90A HMAC-DRBG over the stdlib :mod:`hmac`,
    with K kept as bytes and a fresh HMAC for every step."""

    def __init__(self, seed, algorithm):
        self.algorithm = algorithm
        size = hashlib.new(algorithm).digest_size
        self.key = b"\x00" * size
        self.value = b"\x01" * size
        self.update(seed)

    def mac(self, data):
        return stdlib_hmac.new(self.key, data, self.algorithm).digest()

    def update(self, provided=b""):
        self.key = self.mac(self.value + b"\x00" + provided)
        self.value = self.mac(self.value)
        if provided:
            self.key = self.mac(self.value + b"\x01" + provided)
            self.value = self.mac(self.value)

    def generate(self, num_bytes):
        output = b""
        while len(output) < num_bytes:
            self.value = self.mac(self.value)
            output += self.value
        self.update()
        return output[:num_bytes]


ALGORITHMS = ["sha256", "sha512", "blake2b", "blake2s"]

#: one DRBG call: ("generate", size) or ("reseed", entropy)
_OPS = st.one_of(
    st.tuples(st.just("generate"), st.sampled_from([0, 1, 31, 32, 33, 100])),
    st.tuples(st.just("reseed"), st.binary(max_size=48)),
)


class TestReferenceParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(max_size=64),
        st.lists(_OPS, max_size=8),
        st.sampled_from(ALGORITHMS),
    )
    def test_stream_matches_reference(self, seed, ops, algorithm):
        drbg = HmacDrbg(seed, algorithm)
        reference = ReferenceDrbg(seed, algorithm)
        for op, arg in ops:
            if op == "reseed":
                drbg.reseed(arg)
                reference.update(arg)
            else:
                assert drbg.generate(arg) == reference.generate(arg)
        assert drbg.generate(33) == reference.generate(33)

    def test_unknown_algorithm_rejected_up_front(self):
        with pytest.raises(ParameterError):
            HmacDrbg(b"s", "md4")


class TestKnownAnswer:
    """Pinned stream of the default (SHA-256) profile; any change to
    the key schedule that alters a single output byte fails here."""

    FIRST = (
        "8abbe9af30407350fd29a9a1bc587a26b051ec5f19335fd993a645742a2d23ec"
        "1f9ba331f33d566595f791d72670d8bcdb266a5fc2a2d507bd2da845e5e09202"
    )
    AFTER_RESEED = (
        "7870f6750a25f570a647014621e3a9f17d41c99fe2dbf1e038bf46edaf8ee29e"
        "76916d77cea6608329553630a9457c72ad0c0dcb5e059fd1d2cae4533ac54f0c"
    )

    def test_generate_reseed_generate(self):
        drbg = HmacDrbg(b"repro-kat")
        assert drbg.generate(64).hex() == self.FIRST
        drbg.reseed(b"repro-kat-reseed")
        assert drbg.generate(64).hex() == self.AFTER_RESEED
