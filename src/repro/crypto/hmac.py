"""HMAC, implemented from the RFC 2104 definition.

The paper's measurement function is a keyed integrity-ensuring
function, concretely a hash-based MAC (Section 2.4): the inner hash
processes the attested memory, the outer hash is constant-size (the
paper notes its cost is "negligible compared to the inner one").  We
implement HMAC from scratch over the hash registry rather than using
:mod:`hmac` so the construction itself is part of the reproduction and
is covered by the RFC 4231 test vectors in the test suite; only the
tag comparison, :func:`constant_time_equal`, is the stdlib's.

An :class:`Hmac` is a *keyed context*.  The key schedule runs once, in
``__init__``: the key is padded to the block size, XORed with ipad and
opad through two 256-entry :meth:`bytes.translate` tables, and each
padded key is absorbed into its own hash object.  Following the
implementation note of RFC 2104 section 4, those two keyed hash states
are what the context keeps: ``update`` feeds the inner one,
``digest`` finishes a ``copy()`` of the outer one, and :meth:`copy`
forks the inner state while sharing the outer one, which is never
mutated.  So a caller that MACs many messages under one key pays the
key schedule once and one hash-state copy per message.
"""

from __future__ import annotations

from hmac import compare_digest
from typing import Iterable

from repro.crypto.hashes import HashAlgorithm, get_algorithm

#: byte-wise ``x ^ 0x36`` and ``x ^ 0x5C`` (RFC 2104 ipad and opad)
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class Hmac:
    """Streaming HMAC over one key.

    >>> mac = Hmac(b"key", "sha256")
    >>> mac.update(b"message")
    >>> len(mac.digest())
    32
    """

    def __init__(self, key: bytes, algorithm: str = "sha256") -> None:
        self.algorithm: HashAlgorithm = get_algorithm(algorithm)
        block_size = self.algorithm.block_size
        if len(key) > block_size:
            key = self.algorithm.new(key).digest()
        key = key.ljust(block_size, b"\x00")
        self._inner = self.algorithm.new(key.translate(_IPAD))
        self._outer = self.algorithm.new(key.translate(_OPAD))

    def update(self, data: bytes) -> None:
        """Feed attested bytes to the inner hash."""
        self._inner.update(data)

    def copy(self) -> "Hmac":
        """A fork whose ``update`` leaves the original untouched."""
        clone = object.__new__(Hmac)
        clone.algorithm = self.algorithm
        clone._inner = self._inner.copy()
        clone._outer = self._outer
        return clone

    def digest(self) -> bytes:
        """Finalize (non-destructively): outer hash over the inner digest."""
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()

    @property
    def digest_size(self) -> int:
        return self.algorithm.digest_size


def hmac_digest(key: bytes, data: bytes, algorithm: str = "sha256") -> bytes:
    """One-shot HMAC."""
    mac = Hmac(key, algorithm)
    mac.update(data)
    return mac.digest()


def hmac_chain(
    key: bytes, chunks: Iterable[bytes], algorithm: str = "sha256"
) -> bytes:
    """HMAC over the concatenation of ``chunks`` (block-wise measurement)."""
    mac = Hmac(key, algorithm)
    for chunk in chunks:
        mac.update(chunk)
    return mac.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (the verifier compares MACs with this).

    Delegates to the stdlib's C ``hmac.compare_digest``: the comparison
    is not part of the construction being reproduced, and a Python
    XOR loop costs a bytecode round per byte on every verdict.
    """
    return compare_digest(a, b)
