"""Deterministic random bit generator (HMAC-DRBG, SP 800-90A profile).

Reproducibility is a design requirement: SMARM's secret measurement
order, SeED's pseudorandom trigger schedule, nonce generation and key
generation must all be replayable from a seed -- both so experiments
are deterministic and because SMARM/SeED *derive* their secrets from
keyed PRFs in exactly this way (the verifier must be able to recompute
the prover's permutation / schedule from the shared key).

This is the SP 800-90A HMAC-DRBG update/generate core without the
reseed-counter ceremony (no prediction-resistance requests in a
simulation).

The state is exactly ``(K, V)``, with K held not as bytes but as a
keyed :class:`~repro.crypto.hmac.Hmac` context: every HMAC under the
current K is a ``copy()`` of that context, and the key schedule runs
only when the update step replaces K.  One ``generate`` call therefore
costs one key schedule (the closing update) however many blocks it
produces; a ``reseed`` or the seeding update costs two.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

from repro.crypto.hashes import get_algorithm
from repro.crypto.hmac import Hmac
from repro.errors import ParameterError

T = TypeVar("T")


class HmacDrbg:
    """HMAC-DRBG over a registered hash algorithm.

    >>> drbg = HmacDrbg(b"seed material")
    >>> a = drbg.generate(16)
    >>> HmacDrbg(b"seed material").generate(16) == a
    True
    """

    def __init__(self, seed: bytes, algorithm: str = "sha256") -> None:
        self.algorithm = algorithm
        digest_size = get_algorithm(algorithm).digest_size
        self._mac = Hmac(b"\x00" * digest_size, algorithm)
        self._value = b"\x01" * digest_size
        self._update(seed)
        self.bytes_generated = 0

    # -- core ------------------------------------------------------------

    def _hmac(self, *chunks: bytes) -> bytes:
        """HMAC under the current K of the concatenated ``chunks``."""
        mac = self._mac.copy()
        for chunk in chunks:
            mac.update(chunk)
        return mac.digest()

    def _rekey(self, *chunks: bytes) -> None:
        """K = HMAC(K, chunks), then V = HMAC(K, V) under the new K."""
        self._mac = Hmac(self._hmac(*chunks), self.algorithm)
        self._value = self._hmac(self._value)

    def _update(self, provided: bytes = b"") -> None:
        self._rekey(self._value, b"\x00", provided)
        if provided:
            self._rekey(self._value, b"\x01", provided)

    def reseed(self, entropy: bytes) -> None:
        """Mix new seed material into the state."""
        self._update(entropy)

    def generate(self, num_bytes: int) -> bytes:
        """The next ``num_bytes`` of the deterministic stream."""
        if num_bytes < 0:
            raise ParameterError("num_bytes must be non-negative")
        output = bytearray()
        while len(output) < num_bytes:
            self._value = self._hmac(self._value)
            output.extend(self._value)
        self._update()
        self.bytes_generated += num_bytes
        return bytes(output[:num_bytes])

    # -- convenience samplers -----------------------------------------------

    def randint_bits(self, bits: int) -> int:
        """A uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise ParameterError("bits must be positive")
        num_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(num_bytes), "big")
        return value >> (num_bytes * 8 - bits)

    def randbelow(self, upper: int) -> int:
        """A uniform integer in ``[0, upper)`` via rejection sampling."""
        if upper <= 0:
            raise ParameterError("upper must be positive")
        bits = upper.bit_length()
        while True:
            candidate = self.randint_bits(bits)
            if candidate < upper:
                return candidate

    def randrange(self, lower: int, upper: int) -> int:
        """A uniform integer in ``[lower, upper)``."""
        if lower >= upper:
            raise ParameterError("empty range")
        return lower + self.randbelow(upper - lower)

    def uniform(self) -> float:
        """A float in ``[0, 1)`` with 53 bits of precision."""
        return self.randint_bits(53) / (1 << 53)

    def shuffle(self, items: List[T]) -> List[T]:
        """In-place Fisher-Yates shuffle; returns the list for chaining."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n: int) -> List[int]:
        """A uniform permutation of ``range(n)`` -- SMARM's secret order."""
        return self.shuffle(list(range(n)))

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ParameterError("cannot choose from an empty sequence")
        return items[self.randbelow(len(items))]

    def exponential(self, mean: float) -> float:
        """An exponential variate (Poisson-process gaps for SeED triggers)."""
        import math

        if mean <= 0:
            raise ParameterError("mean must be positive")
        u = self.uniform()
        # Guard the log: uniform() may return exactly 0.0.
        return -mean * math.log(1.0 - u)
