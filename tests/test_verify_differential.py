"""Differential tests of the verifier's digest path against references.

Two fast paths are checked on generated inputs rather than on a few
fixed goldens:

* ``expected_digest`` MACs the attested image in one ``update``; it must
  equal a per-block reference, written here, that feeds the MAC one
  block per ``update`` the way :class:`MeasurementProcess` does --
  for 0, 1 and many blocks, sequential and shuffled orders, normalized
  subsets and every hash algorithm;
* ``Verifier.verify_batch`` memoizes expected digests per batch; on
  generated batches (re-carried history records, an unknown device, an
  unknown region, data copies in and out of range, replays, bad tags)
  it must leave the same result history as serial ``verify_report``
  calls, and raise where the serial loop raises.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.ra.verifier as verifier_module
from repro.crypto.hashes import HASH_ALGORITHMS
from repro.crypto.hmac import Hmac
from repro.errors import ConfigurationError
from repro.ra.measurement import expected_digest, traversal_order
from repro.ra.report import AttestationReport, MeasurementRecord
from repro.ra.verifier import Verifier
from repro.sim.engine import Simulator
from repro.vserver import ServerConfig, VerifierServer

ALGORITHMS = sorted(HASH_ALGORITHMS)


def per_block_digest(key, blocks, algorithm, nonce, counter, measured,
                     order, order_seed, normalized=frozenset()):
    """The reference: one ``Hmac.update`` per visited block."""
    mac = Hmac(key, algorithm)
    mac.update(nonce + counter.to_bytes(8, "big"))
    for block_index in traversal_order(list(measured), order, order_seed):
        if block_index in normalized:
            mac.update(b"\x00" * len(blocks[block_index]))
        else:
            mac.update(blocks[block_index])
    return mac.digest()


@st.composite
def digest_inputs(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    size = draw(st.integers(min_value=1, max_value=48))
    blocks = tuple(
        draw(st.lists(
            st.binary(min_size=size, max_size=size),
            min_size=count, max_size=count,
        ))
    )
    indices = list(range(count))
    measured = draw(st.one_of(
        st.just(indices),
        st.lists(st.sampled_from(indices), unique=True)
        if count else st.just([]),
    ))
    normalized = frozenset(
        draw(st.lists(st.sampled_from(indices), unique=True))
        if count else ()
    )
    return dict(
        key=draw(st.binary(min_size=1, max_size=80)),
        blocks=blocks,
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        nonce=draw(st.binary(max_size=16)),
        counter=draw(st.integers(min_value=0, max_value=2**32)),
        measured=measured,
        order=draw(st.sampled_from(["sequential", "shuffled"])),
        order_seed=draw(st.binary(min_size=16, max_size=16)),
        normalized=normalized,
    )


class TestExpectedDigest:
    @settings(max_examples=150, deadline=None)
    @given(digest_inputs())
    def test_matches_per_block_reference(self, case):
        got = expected_digest(
            case["key"], case["blocks"], case["algorithm"], case["nonce"],
            case["counter"], case["measured"], case["order"],
            case["order_seed"], normalized_blocks=case["normalized"],
        )
        assert got == per_block_digest(
            case["key"], case["blocks"], case["algorithm"], case["nonce"],
            case["counter"], case["measured"], case["order"],
            case["order_seed"], case["normalized"],
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("order", ["sequential", "shuffled"])
    @pytest.mark.parametrize("count", [0, 1, 2, 128])
    def test_edge_block_counts(self, algorithm, order, count):
        blocks = tuple(bytes([index % 256]) * 64 for index in range(count))
        args = (b"k" * 32, blocks, algorithm, b"nonce", 7,
                range(count), order, b"s" * 16)
        assert expected_digest(*args) == per_block_digest(*args)
        # every block normalized: the image content no longer matters
        everything = frozenset(range(count))
        zeros = tuple(bytes(64) for _ in range(count))
        assert expected_digest(
            *args, normalized_blocks=everything
        ) == per_block_digest(*args[:1], zeros, *args[2:])

    def test_normalized_block_outside_visit_is_ignored(self):
        blocks = (b"a" * 8, b"b" * 8, b"c" * 8)
        args = (b"k", blocks, "sha256", b"n", 1, [0, 2], "sequential", b"")
        assert expected_digest(
            *args, normalized_blocks=frozenset({1})
        ) == per_block_digest(*args)

    def test_reference_image_is_not_mutated(self):
        blocks = [b"a" * 8, b"b" * 8]
        expected_digest(b"k", blocks, "sha256", b"n", 1, [0, 1],
                        "sequential", b"", normalized_blocks=frozenset({0}))
        assert blocks == [b"a" * 8, b"b" * 8]


# -- verify_batch vs serial verify_report ------------------------------------

BLOCKS = 6
SIZE = 16
#: two enrolled provers; "ghost" reports name a device nobody enrolled
DEVICES = ("p0", "p1")
REGIONS = {"code": [0, 1, 2, 3], "data": [4, 5]}
MUTABLE = frozenset(REGIONS["data"])


def image_of(name):
    return tuple(
        bytes([(index * 31 + len(name) + ord(name[-1])) % 256]) * SIZE
        for index in range(BLOCKS)
    )


def key_of(name):
    return name.encode() * 8


def enrolled_verifier(sim=None):
    verifier = Verifier(sim or Simulator(), name="diff")
    for name in DEVICES:
        verifier.enroll(
            name, key=key_of(name), reference=image_of(name),
            region_map={k: list(v) for k, v in REGIONS.items()},
            mutable_blocks=MUTABLE,
        )
    return verifier


@st.composite
def records(draw, device):
    region = draw(st.sampled_from(["", "code", "data", "nope"]))
    copy_kind = draw(st.sampled_from(
        ["none", "none", "mutable", "code-block", "out-of-range"]
    ))
    data_copy = {
        "none": (),
        "mutable": ((4, draw(st.binary(min_size=SIZE, max_size=SIZE))),),
        "code-block": ((1, bytes(SIZE)),),
        "out-of-range": ((BLOCKS + draw(st.integers(0, 5)), bytes(SIZE)),),
    }[copy_kind]
    record = MeasurementRecord(
        device=device,
        mechanism="diff",
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        nonce=draw(st.binary(min_size=1, max_size=4)),
        counter=draw(st.integers(min_value=0, max_value=3)),
        digest=b"",
        t_start=0.0,
        t_end=0.0,
        block_count=BLOCKS,
        order_seed=draw(st.sampled_from([b"", b"o" * 16])),
        region=region,
        normalized=draw(st.booleans()),
        data_copy=data_copy,
    )
    honest = draw(st.booleans())
    digest = b"\x00" * 32
    if honest:
        try:
            digest = enrolled_verifier().expected_for(record)
        except (ConfigurationError, IndexError):
            pass  # unknown region / out-of-range copy: never healthy
    return replace(record, digest=digest)


@st.composite
def batches(draw):
    pools = {
        device: draw(st.lists(records(device), min_size=1, max_size=4))
        for device in DEVICES
    }
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        device = draw(st.sampled_from(DEVICES + ("ghost",)))
        # a history ring: several reports re-carry the same records
        carried = draw(st.lists(
            st.sampled_from(pools.get(device, pools["p0"])),
            min_size=1, max_size=3,
        ))
        report = AttestationReport.authenticate(
            key_of(device), device,
            [replace(record, device=device) for record in carried],
            sent_counter=draw(st.integers(min_value=0, max_value=4)),
        )
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            report = AttestationReport(
                report.device, report.records, bytes(32),
                report.sent_counter,
            )
        kwargs = draw(st.sampled_from([
            {},
            {"enforce_counter": True, "counter_stream": "push"},
            {"expected_nonce": report.newest.nonce},
        ]))
        entries.append((report, kwargs))
    return entries


def history(verifier):
    return [
        (
            result.device,
            result.verdict.value,
            result.detail,
            [verdict.value for verdict in result.record_verdicts],
            result.freshness,
        )
        for result in verifier.results
    ]


def outcome(run, verifier):
    try:
        run()
        raised = None
    except ConfigurationError as exc:
        raised = str(exc)
    return raised, history(verifier), verifier._expected_memo


class TestVerifyBatchDifferential:
    @settings(max_examples=120, deadline=None)
    @given(batches())
    def test_batch_matches_serial(self, entries):
        serial = enrolled_verifier()
        batched = enrolled_verifier()

        def run_serial():
            for report, kwargs in entries:
                serial.verify_report(report, **kwargs)

        assert outcome(
            lambda: batched.verify_batch(entries), batched
        ) == outcome(run_serial, serial)

    def test_duplicate_records_are_digested_once(self, monkeypatch):
        verifier = enrolled_verifier()
        record = MeasurementRecord(
            device="p0", mechanism="diff", algorithm="sha256",
            nonce=b"n", counter=1, digest=b"", t_start=0.0, t_end=0.0,
            block_count=BLOCKS,
        )
        record = replace(record, digest=verifier.expected_for(record))
        entries = [
            (AttestationReport.authenticate(
                key_of("p0"), "p0", [record] * 2, sent_counter=counter,
            ), {})
            for counter in range(3)
        ]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return expected_digest(*args, **kwargs)

        monkeypatch.setattr(verifier_module, "expected_digest", counting)
        results = verifier.verify_batch(entries)
        assert [r.verdict.value for r in results] == ["healthy"] * 3
        assert len(calls) == 1
        assert verifier._expected_memo is None


class TestOutOfRangeDataCopy:
    """A tag-valid report whose data copy names a block past the image
    is COMPROMISED in both drain modes (the batch path once raised
    ``IndexError`` on it while computing expected digests up front)."""

    def report(self):
        record = MeasurementRecord(
            device="p0", mechanism="diff", algorithm="sha256",
            nonce=b"n", counter=1, digest=bytes(32), t_start=0.0,
            t_end=0.0, block_count=BLOCKS,
            data_copy=((BLOCKS + 3, bytes(SIZE)),),
        )
        return AttestationReport.authenticate(
            key_of("p0"), "p0", [record], sent_counter=1
        )

    def test_batch_equals_serial(self):
        report = self.report()
        serial = enrolled_verifier()
        serial.verify_report(report)
        batched = enrolled_verifier()
        results = batched.verify_batch([(report, {})])
        assert results[0].verdict.value == "compromised"
        assert history(batched) == history(serial)

    def test_server_drain_survives(self):
        sim = Simulator()
        server = VerifierServer(
            sim, enrolled_verifier(sim), ServerConfig(epoch=0.5)
        )
        server.start()
        server.submit(self.report())
        sim.run(until=1.0)
        assert [entry.verdict for entry in server.ledger] == ["compromised"]
        assert server.unaccounted == 0
