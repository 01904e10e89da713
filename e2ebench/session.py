"""One benchmark session: a fresh interpreter that sets up a workload,
runs one fixed unit of it, and prints what it measured as one JSON line.

Run as ``python3 e2ebench/session.py --workload NAME --seed N --role
ROLE --out DIR`` with ``src`` on ``PYTHONPATH``; ``run.py`` does this
once per session and aggregates the lines.  Roles:

* ``timed``     -- untraced; the end-to-end figures come from these;
* ``traced``    -- the layer-boundary wrappers of :mod:`tracing` are
  installed after the imports and removed after the timed phase;
* ``reference`` -- untimed reference output for the checks (the storm's
  serial-drain ledger, SMARM's ``escape_probability``).

``ready`` is a ``time.monotonic()`` stamp, the system-wide clock the
parent also reads, so set-up time can span the interpreter start.

A :class:`Calibration` loop runs five times right after set-up, five
times after the timed phase, and between operations of the timed phase
of untraced sessions (around the storm's drain, after every
``fleet_qoa`` run, every tenth SMARM trial; its time there is taken off
the phase).  The parent scales the session's times to a reference CPU
speed by ``calib_s``, the loop's median time (a preempted sample does
not move it), and each operation's latency by ``op_calib_s``, the loop's
time just before and after that operation.
"""

import argparse
import hashlib
import json
import statistics
import time

import tracing


class Calibration:
    """Times of a fixed pure-Python loop, which track the CPU's speed.

    The speed swings within seconds, so samples are also taken between
    operations, and an operation's latency is scaled by the samples
    around it (see :meth:`around`); ``between_ops`` is off in traced
    sessions, so no sample lands inside a span.
    """

    LOOPS = 60_000

    def __init__(self, between_ops=True):
        self.samples = []
        self.between_ops = between_ops

    def sample(self):
        start = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * 3 % 7
        self.samples.append(time.perf_counter() - start)

    def between(self):
        """A sample between two operations of the timed phase."""
        if self.between_ops:
            self.sample()

    def mark(self):
        """Call as an operation starts; pass the result to :meth:`around`."""
        return len(self.samples)

    def around(self, mark):
        """Mean of the samples just before and just after the operation
        that started at ``mark``."""
        return (self.samples[mark - 1] + self.samples[mark]) / 2


def peak_rss_mb():
    """Peak resident set of this process since it started the session
    interpreter.  ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would
    also carry the spawning parent's peak over."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flat_sum(flat, prefix):
    """Sum of every flat metric named ``prefix`` (any label set)."""
    return sum(
        value for name, value in flat.items()
        if name == prefix or name.startswith(prefix + "{")
    )


def _refstore_counts():
    from repro.perf import reference_store

    stats = reference_store.REFERENCE_STORE.stats()
    return {
        "perf.refstore.images": stats["images"],
        "perf.refstore.evictions": stats["evictions"],
    }


def _sim_counts(flat):
    fired = _flat_sum(flat, "sim.events.fired")
    cancelled = _flat_sum(flat, "sim.events.cancelled")
    scheduled = _flat_sum(flat, "sim.events.scheduled")
    return {
        "sim.events_fired": fired,
        "sim.events_cancelled": cancelled,
        "sim.cancel_ratio": cancelled / scheduled if scheduled else 0.0,
        "ra.blocks_measured": _flat_sum(flat, "ra.blocks.measured"),
    }


# ---------------------------------------------------------------------------
# Workloads: the constructor does the imports, setup() builds or plans,
# run() is the timed phase, finish() gathers outputs and counters after
# it (untimed)
# ---------------------------------------------------------------------------


class VserverStorm:
    """The storm1k herd, 1000 provers in 4 waves, epoch-batched drains."""

    #: planned operations (verdicts) of one session: 1000 provers x 4 waves
    OPS = 4000

    def __init__(self, seed, out_dir, reference=False):
        from repro.scenario import Scenario

        self.scenario_cls = Scenario
        self.options = {"seed": f"storm1k-{seed}"}
        self.calibration = None
        if reference:
            self.options["batch"] = False

    def setup(self):
        scenario = self.scenario_cls.build(
            service="storm1k", service_options=self.options
        )
        # the server's injected drain clock (what ``repro serve
        # --timing`` uses): called at the start and end of each
        # non-empty drain, so consecutive pairs time each drain; the
        # calibration samples bracket the drain, outside its stamps
        self.stamps = []
        self.drain_marks = []

        def drain_clock():
            starting = len(self.stamps) % 2 == 0
            if starting:
                self.calibration.between()
                self.drain_marks.append(self.calibration.mark())
            now = time.perf_counter()
            self.stamps.append(now)
            if not starting:
                self.calibration.between()
            return now

        scenario.server.verify_wall_clock = drain_clock
        self.scenario = scenario

    def run(self):
        self.stats = self.scenario.run()
        return self.stats["verified"], self.stats["unaccounted"]

    def latencies_ms(self):
        """Per verdict: host time from its drain's start to its verdict
        (verdicts of one drain conclude together), and its drain's
        calibration mark."""
        sizes = {}
        for entry in self.scenario.server.ledger:
            if entry.status == "verified":
                sizes[entry.epoch] = sizes.get(entry.epoch, 0) + 1
        stamps = self.stamps
        out, marks = [], []
        for index, epoch in enumerate(sorted(sizes)):
            drain_ms = (stamps[2 * index + 1] - stamps[2 * index]) * 1e3
            out.extend([drain_ms] * sizes[epoch])
            marks.extend([self.drain_marks[index]] * sizes[epoch])
        return out, marks

    def finish(self):
        server = self.scenario.server
        ledger = "\n".join(server.ledger_lines()).encode()
        flat = self.scenario.obs.metrics.snapshot_flat()
        batches = flat.get("vserver.epoch.batch_size.count", 0.0)
        counts = _sim_counts(flat)
        counts.update({
            "vserver.epochs": self.stats["epochs"],
            "vserver.batch_size_mean": (
                flat.get("vserver.epoch.batch_size.sum", 0.0) / batches
                if batches else 0.0
            ),
            "vserver.queue_p99_sim_s": self.stats["queue_latency_p99"],
        })
        return {"ledger_sha256": _sha256(ledger)}, counts


class FleetQoa:
    """The canned ``qoa`` campaign through ``run_pipeline``, serially."""

    #: campaign seeds per bench seed: 4 x 9 grid points = 36 runs, so a
    #: benchmark run (at least three sessions) has 10 runs beyond its p90
    SEEDS = 4
    #: planned operations (campaign runs) of one session
    OPS = SEEDS * 9

    def __init__(self, seed, out_dir, reference=False):
        import repro.fleet as fleet
        from repro.fleet import executor

        self.fleet = fleet
        self.executor = executor
        self.seed = seed
        self.out_dir = out_dir
        self.latencies = []
        self.marks = []
        self.runner = self._timed_runner
        self.calibration = None

    def _timed_runner(self, spec):
        self.marks.append(self.calibration.mark())
        start = time.perf_counter()
        try:
            return self.executor.execute_run(spec)
        finally:
            self.latencies.append((time.perf_counter() - start) * 1e3)
            self.calibration.between()

    def setup(self):
        canned = self.fleet.canned_campaign("qoa")
        first = self.seed * self.SEEDS
        data = canned.to_dict()
        data["seeds"] = list(range(first, first + self.SEEDS))
        self.campaign = self.fleet.CampaignSpec.from_dict(data)
        self.specs = self.campaign.plan()

    def run(self):
        self.report = self.fleet.run_pipeline(
            self.campaign, self.specs, out_dir=self.out_dir,
            backend=self.fleet.SerialBackend(), runner=self.runner,
        )
        status = self.report.status_counts
        total = sum(status.values())
        return total, total - status.get("ok", 0)

    def latencies_ms(self):
        return self.latencies, self.marks

    def finish(self):
        paths = self.report.paths
        runs = paths.runs.read_bytes()
        summary = paths.summary_json.read_bytes()
        flat = {}
        for result in self.fleet.read_results_jsonl(paths.runs):
            for name, value in result.telemetry.items():
                flat[name] = flat.get(name, 0.0) + value
        counts = _sim_counts(flat)
        counts.update({
            "fleet.runs": self.report.total_runs,
            "fleet.artifact_bytes": (
                len(runs) + len(summary)
                + len(paths.summary_txt.read_bytes())
            ),
        })
        outputs = {
            "runs_sha256": _sha256(runs),
            "summary_sha256": _sha256(summary),
        }
        return outputs, counts


class SmarmMc:
    """The Section 3.2 escape game over 64 blocks, one DRBG per session."""

    BLOCKS = 64
    TRIALS = 400
    #: planned operations (escape trials) of one session
    OPS = TRIALS

    def __init__(self, seed, out_dir, reference=False):
        from repro.crypto.drbg import HmacDrbg
        from repro.ra import smarm

        self.drbg_cls = HmacDrbg
        self.smarm = smarm
        self.drbg_seed = f"smarm-mc-{seed}".encode()
        self.reference = reference
        self.latencies = []
        self.marks = []
        self.calibration = None

    def setup(self):
        self.drbg = self.drbg_cls(self.drbg_seed)

    def run(self):
        if self.reference:
            self.estimate = self.smarm.escape_probability(
                self.BLOCKS, self.TRIALS, seed=self.drbg_seed
            )
            return self.TRIALS, 0
        clock = time.perf_counter
        latencies = self.latencies
        marks = self.marks
        escapes = 0
        for trial in range(self.TRIALS):
            marks.append(self.calibration.mark())
            start = clock()
            # looked up per call so a traced session sees the wrapper
            escapes += self.smarm.escape_trial(self.BLOCKS, self.drbg)
            latencies.append((clock() - start) * 1e3)
            if trial % 10 == 9:
                self.calibration.between()
        self.estimate = escapes / self.TRIALS
        return self.TRIALS, 0

    def latencies_ms(self):
        return self.latencies, self.marks

    def finish(self):
        return {"estimate": self.estimate, "trials": self.TRIALS}, {}


WORKLOADS = {
    "vserver_storm": VserverStorm,
    "fleet_qoa": FleetQoa,
    "smarm_mc": SmarmMc,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", default="timed",
                        choices=("timed", "traced", "reference"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="traced role: write the kept spans here")
    parser.add_argument("--inject", default=None,
                        help="Owner.attr:MICROSECONDS busy-wait per call")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        args.seed, args.out, reference=args.role == "reference"
    )
    if args.inject:
        tracing.inject_delay(args.inject)
    tracer = None
    if args.role == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        if isinstance(workload, FleetQoa):
            workload.runner = tracer.span(
                "runner", None, workload._timed_runner
            )
    traced_from = time.perf_counter()
    workload.setup()
    ready = time.monotonic()
    built = time.perf_counter()
    calibration = workload.calibration = Calibration(
        between_ops=tracer is None
    )
    for _ in range(5):
        calibration.sample()
    before = len(calibration.samples)
    timed_start = time.perf_counter()
    ops, failed = workload.run()
    timed_end = time.perf_counter()
    inside = sum(calibration.samples[before:])
    peak_rss = peak_rss_mb()
    for _ in range(5):
        calibration.sample()
    if tracer is not None:
        tracer.uninstall()
    outputs, counts = workload.finish()
    latencies, marks = workload.latencies_ms()
    counts.update(_refstore_counts())

    line = {
        "ready": ready,
        "build_s": built - traced_from,
        "timed_s": timed_end - timed_start - inside,
        "calib_s": statistics.median(calibration.samples),
        "ops": ops,
        "failed": failed,
        "latencies_ms": latencies,
        "op_calib_s": [calibration.around(mark) for mark in marks],
        "peak_rss_mb": peak_rss,
        "outputs": outputs,
        "counts": counts,
    }
    if tracer is not None:
        wall = line["build_s"] + line["timed_s"]
        layer_self = dict(tracer.self_time)
        digests = tracer.calls.get("Hmac.digest", 0)
        keys = tracer.calls.get("Hmac.__init__", 0)
        line["trace"] = {
            "wall_s": wall,
            "self_s": layer_self,
            "calls": {layer: tracer.layer_calls(layer)
                      for layer in tracing.LAYERS},
            "hmac_bytes": tracer.hmac_bytes,
            "macs_per_key": digests / keys if keys else 0.0,
            "other_s": wall - sum(layer_self.values()),
        }
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
