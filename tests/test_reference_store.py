"""ReferenceStore interning and single-measurement goldens.

The cold-path layer is pure memoization: every byte the store hands
out must equal what the uncached generator produces, the interned
image must actually be *shared* (one copy per process, not per
device), and none of it may leak across ``seed`` / ``block_size`` or
show up in simulated time.  The golden tests here pin single
measurements of a fresh prover -- cold, dirtied, shuffled, and across
a reset -- to ``tests/golden/measurement_kernel.json``; the scenario
matrix is pinned by ``tests/test_perf_cache.py``.
"""

import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.perf.reference_store import (
    ReferenceStore,
    raw_benign_fill,
    set_reference_store,
)
from repro.sim.memory import Memory, benign_fill, content_fingerprint
from tests.kernel_golden import (
    load_golden,
    make_device,
    run_measurement,
    run_scenario,
    single_measurement,
)


@pytest.fixture
def fresh_store():
    """Swap in an empty process store; restore the global afterwards."""
    store = ReferenceStore()
    previous = set_reference_store(store)
    try:
        yield store
    finally:
        set_reference_store(previous)


# -- interning is pure memoization ----------------------------------------


class TestByteIdentity:
    def test_block_matches_raw_generator(self, fresh_store):
        for index in (0, 1, 7):
            assert fresh_store.block(index, 64, seed=7) == \
                raw_benign_fill(index, 64, 7)

    def test_benign_fill_is_memoized_raw(self, fresh_store):
        first = benign_fill(3, 32, seed=9)
        assert first == raw_benign_fill(3, 32, 9)
        # second call returns the interned object itself
        assert benign_fill(3, 32, seed=9) is first


# -- isolation and bounding -----------------------------------------------


class TestIsolation:
    def test_no_leak_across_seed(self, fresh_store):
        assert fresh_store.block(0, 64, seed=1) != \
            fresh_store.block(0, 64, seed=2)
        assert fresh_store.block(0, 64, seed=1) == raw_benign_fill(0, 64, 1)
        assert fresh_store.block(0, 64, seed=2) == raw_benign_fill(0, 64, 2)

    def test_no_leak_across_block_size(self, fresh_store):
        # interning at one block_size must not truncate/extend answers
        # for the other: each equals its own raw generation
        small = fresh_store.block(0, 32, seed=7)
        large = fresh_store.block(0, 64, seed=7)
        assert len(small) == 32 and len(large) == 64
        assert small == raw_benign_fill(0, 32, 7)
        assert large == raw_benign_fill(0, 64, 7)

    def test_images_keyed_per_seed_and_size(self, fresh_store):
        a = fresh_store.image(1, 32)
        b = fresh_store.image(2, 32)
        c = fresh_store.image(1, 64)
        assert a is not b and a is not c
        assert fresh_store.image(1, 32) is a

    def test_lru_eviction_at_image_granularity(self):
        store = ReferenceStore(capacity=2)
        store.image(1, 32)
        store.image(2, 32)
        store.image(1, 32)  # refresh; (2, 32) is now LRU
        store.image(3, 32)
        assert store.evictions == 1
        assert store.stats()["images"] == 2
        # the evicted image regenerates correctly on re-request
        assert store.block(0, 32, seed=2) == raw_benign_fill(0, 32, 2)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ReferenceStore(capacity=0)


# -- cross-device sharing -------------------------------------------------


class TestSharing:
    def make_memory(self, seed=7):
        return Memory(16, block_size=64, seed=seed)

    def test_devices_share_one_interned_tuple(self, fresh_store):
        first, second = self.make_memory(), self.make_memory()
        assert first.benign_image() == second.benign_image()
        for index in range(16):
            assert first.benign_block(index) is second.benign_block(index)
            # pristine reads alias the interned bytes: zero-copy and
            # identity-comparable against the reference
            assert first.read_block(index) is second.read_block(index)

    def test_write_unshares_only_the_written_block(self, fresh_store):
        memory = self.make_memory()
        other = self.make_memory()
        memory.write(3, b"\xaa" * 64, actor="test")
        assert memory.read_block(3) != other.read_block(3)
        assert memory.read_block(4) is other.read_block(4)
        # the interned reference is untouched by the device write
        assert other.read_block(3) == raw_benign_fill(3, 64, 7)

    def test_n_devices_one_reference_image_tracemalloc(self, fresh_store):
        image_bytes = 128 * 128
        self.warm = Memory(128, block_size=128, seed=11)  # warm the store
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            memories = [
                Memory(128, block_size=128, seed=11) for _ in range(8)
            ]
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.traceback[0].filename.endswith("reference_store.py")
        )
        # regenerating per device would allocate >= 8 images inside
        # reference_store.py; sharing allocates none of them
        assert grown < image_bytes // 2
        assert all(
            memory.benign_block(index) is memories[0].benign_block(index)
            for memory in memories
            for index in range(128)
        )


# -- single-measurement goldens ------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return load_golden()


class TestMissPathGolden:
    """Single measurements of a fresh prover: trace bytes, record
    digests, audit hashes and block timestamps match the golden."""

    def test_cold_traversal_identical_to_seed_path(self, golden):
        assert single_measurement("cold") == golden["single/cold"]

    def test_dirty_block_audit_is_of_measured_content(self, golden):
        assert single_measurement("dirty5") == golden["single/dirty5"]
        device = make_device()
        device.memory.write(5, b"\xee" * 32, actor="malware")
        record = run_measurement(device)
        # the dirty block's audit is of the *measured* content, not
        # the interned reference
        assert record.audit_block_hashes[5] == \
            content_fingerprint(device.memory.read_block(5))
        assert record.audit_block_hashes[5] != \
            content_fingerprint(device.memory.benign_block(5))

    def test_shuffled_order_identical(self, golden):
        assert single_measurement("shuffled") == golden["single/shuffled"]

    def test_second_traversal_after_reset_refills(self, golden):
        result = single_measurement("reset")
        assert result == golden["single/reset"]
        # the reset does not touch RAM: both traversals see the same
        # contents and, with the same nonce and counter, the same digest
        first, second = result["records"]
        assert first["digest"] == second["digest"]

    def test_store_state_never_leaks_into_sim_time(self):
        """A warm process store and a cold one produce byte-identical
        runs: interning is invisible in simulated time."""
        warm = run_scenario("smarm")  # global store already warm
        previous = set_reference_store(ReferenceStore())
        try:
            cold = run_scenario("smarm")
        finally:
            set_reference_store(previous)
        assert warm == cold
