"""End-to-end benchmark of the reproduction: served-verifier storm, QoA
fleet campaign and SMARM Monte-Carlo, each in fresh interpreters.

Run from the repository root::

    python3 e2ebench/run.py --workload smarm_mc --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 0 --seconds 30 --trace 0

One run spawns sessions (``session.py``, one fresh interpreter each, one
at a time) until ``--seconds`` have passed and at least three have run.
Every session sets the workload up (``setup_s``) and runs one fixed unit
of it (the timed phase).  ``--trace 0`` reports the end-to-end metrics
from untraced sessions; ``--trace 1`` alternates untraced and traced
sessions and reports the per-layer metrics, including the tracing
overhead between the two.  Each metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Output checks (any failure counts the session's operations as failed,
and a session that crashes counts its planned operations as attempted
and failed):
every session's simulated outputs equal the run's reference output (the
storm's serial-drain ledger, the first campaign's ``runs.jsonl`` and
``summary.json``, SMARM's ``escape_probability``); with the default seed
they also equal ``golden.json``; the storm leaves no report unaccounted
for; every campaign run is ``ok``; the SMARM estimate lies within 4
sigma of ``((n-1)/n)**n``.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from session import WORKLOADS as SESSION_WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("vserver_storm", "fleet_qoa", "smarm_mc")
#: workloads whose checks use an untimed ``reference`` session
REFERENCE_ROLE = ("vserver_storm", "smarm_mc")
DEFAULT_SEED = 0
GOLDEN = os.path.join(HERE, "golden.json")
OUT_ROOT = ".e2ebench_out"
MIN_SESSIONS = 3
MIN_TRACE_PAIRS = 2
SESSION_TIMEOUT_S = 120
SMARM_BLOCKS = 64
#: reference time of ``session.Calibration``'s loop, about what it takes
#: on the 2-core 2.1 GHz box the benchmark was written on; every time is
#: reported in seconds at that speed (see README.md, "Calibration")
REFERENCE_CALIBRATION_S = 0.005

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
SELF_LAYERS = (
    "crypto.hmac", "crypto.drbg", "sim", "ra.verify", "ra.smarm",
    "vserver", "fleet", "scenario", "obs",
)
CALL_LAYERS = (
    "crypto.hmac", "crypto.drbg", "sim", "ra.verify", "vserver",
    "scenario", "obs",
)
#: per-layer counts read from public counters, with their units
COUNT_UNITS = {
    "sim.events_fired": "count",
    "sim.events_cancelled": "count",
    "sim.cancel_ratio": "ratio",
    "ra.blocks_measured": "count",
    "vserver.epochs": "count",
    "vserver.batch_size_mean": "reports",
    "vserver.queue_p99_sim_s": "s",
    "fleet.runs": "count",
    "fleet.artifact_bytes": "bytes",
    "perf.refstore.images": "count",
    "perf.refstore.evictions": "count",
}


class SessionFailed(Exception):
    pass


def spawn(workload, seed, role, out_dir, index, inject=None, spans=None):
    """Run one session in a fresh interpreter; returns its parsed line
    plus ``setup_s`` (spawn to workload ready)."""
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", workload, "--seed", str(seed), "--role", role,
        "--out", os.path.join(out_dir, f"{role}-{index}"),
    ]
    if inject:
        cmd += ["--inject", inject]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SessionFailed(f"{role} session timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise SessionFailed(f"{role} session exited {proc.returncode}: "
                            f"{tail[0]}")
    line = json.loads(lines[-1])
    line["role"] = role
    line["setup_s"] = line["ready"] - spawned
    return line


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def expected_outputs(workload, seed, sessions):
    """What every session's outputs must equal."""
    if seed == DEFAULT_SEED:
        return load_golden()[workload]
    for session in sessions:
        if session["role"] == "reference":
            return session["outputs"]
    return sessions[0]["outputs"]


def check_sessions(workload, seed, sessions, problems):
    """Apply the output checks; returns (attempted, failed)."""
    expected = expected_outputs(workload, seed, sessions)
    attempted = failed = 0
    for session in sessions:
        ok = session["outputs"] == expected
        if not ok:
            problems.append(f"{session['role']} session outputs "
                            f"{session['outputs']} != expected {expected}")
        if workload == "smarm_mc":
            ok = smarm_within_4_sigma(session["outputs"], problems) and ok
        if session["role"] == "reference":
            continue
        attempted += session["ops"]
        failed += session["ops"] if not ok else session["failed"]
    return attempted, failed


def smarm_within_4_sigma(outputs, problems):
    n = SMARM_BLOCKS
    exact = ((n - 1) / n) ** n
    sigma = (exact * (1 - exact) / outputs["trials"]) ** 0.5
    error = abs(outputs["estimate"] - exact)
    if error > 4 * sigma:
        problems.append(f"SMARM estimate {outputs['estimate']} is "
                        f"{error / sigma:.1f} sigma from {exact:.6f}")
        return False
    return True


def run_sessions(workload, seed, seconds, trace, out_dir, inject=None):
    """Spawn sessions until the time budget is spent; returns them, the
    count of sessions that crashed (timed out or exited non-zero), and
    the problems found."""
    roles = ("timed", "traced") if trace else ("timed",)
    minimum = MIN_TRACE_PAIRS * 2 if trace else MIN_SESSIONS
    spans = None
    if trace:
        spans = os.path.join(OUT_ROOT, "spans", f"{workload}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    sessions, crashed, problems = [], 0, []
    start = time.monotonic()
    index = 0
    while index < minimum or time.monotonic() - start < seconds:
        role = roles[index % len(roles)]
        try:
            sessions.append(spawn(
                workload, seed, role, out_dir, index, inject=inject,
                spans=spans if role == "traced" else None,
            ))
        except SessionFailed as exc:
            crashed += 1
            problems.append(str(exc))
        index += 1
    if workload in REFERENCE_ROLE:
        try:
            sessions.append(spawn(workload, seed, "reference", out_dir,
                                  index))
        except SessionFailed as exc:
            crashed += 1
            problems.append(str(exc))
    return sessions, crashed, problems


def scale(session):
    """Factor from the session's host seconds to reference seconds."""
    return REFERENCE_CALIBRATION_S / session["calib_s"]


def end_to_end(timed, attempted, failed):
    latencies = [
        ms * REFERENCE_CALIBRATION_S / calib
        for s in timed
        for ms, calib in zip(s["latencies_ms"], s["op_calib_s"])
    ]
    ops = sum(s["ops"] for s in timed)
    return {
        "setup_s": median(s["setup_s"] * scale(s) for s in timed),
        "ops_per_s": ops / sum(s["timed_s"] * scale(s) for s in timed),
        "op_p50_ms": quantile(latencies, 0.50),
        "op_p90_ms": quantile(latencies, 0.90),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in timed),
        "ok_frac": (attempted - failed) / attempted,
    }, {
        "op_samples": len(latencies),
        "host_setup_s": round(
            median(s["setup_s"] for s in timed), 4
        ),
        "host_ops_per_s": round(ops / sum(s["timed_s"] for s in timed), 2),
        "cpu_speed_vs_reference": round(
            median(scale(s) for s in timed), 3
        ),
    }


def per_layer(timed, traced):
    metrics = {}
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (
            median(s["trace"]["self_s"][layer] * scale(s) for s in traced), "s"
        )
        if layer in CALL_LAYERS:
            metrics[f"{layer}.calls"] = (
                median(s["trace"]["calls"][layer] for s in traced), "count"
            )
    metrics["crypto.hmac.bytes"] = (
        median(s["trace"]["hmac_bytes"] for s in traced), "bytes"
    )
    metrics["crypto.hmac.macs_per_key"] = (
        median(s["trace"]["macs_per_key"] for s in traced), "macs/key"
    )
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (median(s["counts"].get(name, 0) for s in traced), unit)
    metrics["other.self_s"] = (
        median(s["trace"]["other_s"] * scale(s) for s in traced), "s"
    )
    untraced_wall = median((s["build_s"] + s["timed_s"]) * scale(s)
                        for s in timed)
    traced_wall = median(s["trace"]["wall_s"] * scale(s) for s in traced)
    metrics["trace_overhead_pct"] = (
        100.0 * (traced_wall / untraced_wall - 1.0), "%"
    )
    return metrics


def bench(workload, seed, seconds, trace, inject=None):
    """One benchmark run of one workload; returns the result object."""
    out_dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        sessions, crashed, problems = run_sessions(
            workload, seed, seconds, trace, out_dir, inject=inject
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted, failed = (
        check_sessions(workload, seed, sessions, problems)
        if sessions else (0, 0)
    )
    # a crashed session fails every operation it was to run
    planned = crashed * SESSION_WORKLOADS[workload].OPS
    attempted += planned
    failed += planned
    timed = [s for s in sessions if s["role"] == "timed"]
    traced = [s for s in sessions if s["role"] == "traced"]
    metrics, info = {}, {}
    if trace and timed and traced:
        metrics = per_layer(timed, traced)
    elif timed:
        values, info = end_to_end(timed, attempted, failed)
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in values.items()}
    for message in problems:
        print(f"{workload}: check failed: {message}")
    print(f"{workload}: seed {seed}, {len(timed)} timed + {len(traced)} "
          f"traced sessions, {attempted} operations attempted, "
          f"{failed} failed")
    for key, value in info.items():
        print(f"  ({key} {value})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    return {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record_golden():
    """Write the default seed's simulated outputs to golden.json."""
    golden = {}
    out_dir = os.path.join(OUT_ROOT, f"golden-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            golden[workload] = spawn(
                workload, DEFAULT_SEED, "timed", out_dir, 0
            )["outputs"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None,
                        help="Owner.attr:MICROSECONDS delay in every "
                             "session (sensitivity self-test)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the default seed")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("e2ebench: run from the repository root (src/repro is "
              "missing here)", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: bench(w, args.seed, args.seconds, args.trace, args.inject)
               for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": entry
                for w, r in results.items()
                for name, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
