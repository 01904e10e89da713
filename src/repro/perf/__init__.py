"""Hot-path performance layer: interning and benchmarking.

Wall-clock optimisations that are *provably inert* in sim-time:

* :mod:`repro.perf.reference_store` -- the process-wide interned
  benign firmware image every ``Memory`` and verifier shares;
* :mod:`repro.perf.bench` -- the seeded ``repro bench`` micro/macro
  suite that records throughput numbers in ``BENCH_<rev>.json`` and
  fails comparisons on >20% regression.

Run-level caching (skipping whole fleet runs) lives in
:mod:`repro.fleet.store`; this package covers within-run hot paths.
"""
