"""The measurement kernel reproduces its recorded golden byte for byte.

``MeasurementProcess.run`` walks the blocks in one loop; no cache or
coalescing path may ever change what it produces.  The scenarios live
in :mod:`tests.kernel_golden`, and the golden they are checked against
(``tests/golden/measurement_kernel.json``) was recorded before the
opt-in digest cache and its fast paths were removed.  Covered here:

* trace bytes and verdicts for every Table-1 mechanism;
* the same under self-relocating malware (whose writes a measurement
  must see) and across a mid-run brownout;
* ERASMUS coupled with on-demand attestation on the same device,
  parametrized over the digest algorithms: reports, availability
  metrics and the on-demand exchange.

The single-measurement cases are pinned in
``tests/test_reference_store.py``.
"""

import pytest

from tests.kernel_golden import (
    ALGORITHMS,
    MECHANISMS,
    RELOCATING,
    SCENARIOS,
    load_golden,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


class TestGoldenEquality:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_trace_and_verdicts_identical(self, mechanism, golden):
        name = f"mechanism/{mechanism}"
        assert SCENARIOS[name]() == golden[name]


class TestRelocatingMalwareInvalidation:
    """Relocation writes land between and during measurements; the
    kernel must read them exactly as recorded."""

    @pytest.mark.parametrize("mechanism", RELOCATING)
    def test_equal_under_relocation(self, mechanism, golden):
        name = f"relocating/{mechanism}"
        assert SCENARIOS[name]() == golden[name]

    def test_reset_mid_run_equivalence(self, golden):
        assert SCENARIOS["erasmus-reset"]() == golden["erasmus-reset"]


class TestCoupledOnDemandEquality:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_reports_and_availability_identical(self, algorithm, golden):
        name = f"coupled/{algorithm}"
        result = SCENARIOS[name]()
        assert result == golden[name]
        # the collection actually carried records and the on-demand
        # request was served
        assert result["report_count"] > 0
        assert result["served"] == 1
