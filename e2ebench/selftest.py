"""Sensitivity self-test: a small injected delay must show where it should.

Run from the repository root::

    python3 e2ebench/selftest.py

It busy-waits :data:`DELAY_US` before every ``HmacDrbg.generate`` call
(from the benchmark's side, ``run.py --inject``) and compares against an
undisturbed run of the same seed, every run as long as
``BENCHMARK.json``'s ``run_seconds``:

* on ``smarm_mc`` -- where the DRBG is the hot loop -- ``ops_per_s``
  must drop and ``crypto.drbg.self_s`` must rise by more than the
  ``ops_per_s`` bound of ``BENCHMARK.json``;
* on ``fleet_qoa`` -- which draws only a few DRBG bytes per run -- every
  end-to-end metric must stay inside its bound.

Exits 0 when all three hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BOUNDARY = "HmacDrbg.generate"
#: busy-wait before each call of :data:`BOUNDARY`, in microseconds
DELAY_US = 50


def bench(workload, seconds, trace, inject=None):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "1",
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"selftest: {workload} run was not correct")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def change(base, new):
    """Relative change of ``new`` over ``base``."""
    return (new - base) / base


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    inject = f"{BOUNDARY}:{DELAY_US}"
    verdicts = []

    base = bench("smarm_mc", seconds, 0)
    slow = bench("smarm_mc", seconds, 0, inject)
    drop = -change(base["ops_per_s"], slow["ops_per_s"])
    verdicts.append((
        f"smarm_mc ops_per_s drops {drop:.1%} (> {bounds['ops_per_s']:.0%})",
        drop > bounds["ops_per_s"],
    ))

    base = bench("smarm_mc", seconds, 1)
    slow = bench("smarm_mc", seconds, 1, inject)
    rise = change(base["crypto.drbg.self_s"], slow["crypto.drbg.self_s"])
    verdicts.append((
        f"smarm_mc crypto.drbg.self_s rises {rise:.1%} "
        f"(> {bounds['ops_per_s']:.0%})",
        rise > bounds["ops_per_s"],
    ))

    base = bench("fleet_qoa", seconds, 0)
    slow = bench("fleet_qoa", seconds, 0, inject)
    for name, bound in bounds.items():
        worse = change(base[name], slow[name])
        if better[name] == "higher":
            worse = -worse
        verdicts.append((
            f"fleet_qoa {name} worsens {worse:+.1%} (<= {bound:.0%})",
            worse <= bound,
        ))

    for text, ok in verdicts:
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
    passed = all(ok for _, ok in verdicts)
    print("selftest " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
