"""Sim-time SLO engine: declarative objectives with burn-rate alerts.

The paper's tension is a *budget* problem -- attestation steals time
from safety-critical duty cycles -- and budgets are what SLOs speak.
An :class:`SLObjective` declares what fraction of events must be good
(fire-alarm deadline hit-rate, exchange latency under a bound, vserver
queue wait, availability floor); the :class:`SLOEngine` samples the
run's :class:`~repro.obs.metrics.MetricsRegistry` on a fixed *sim-time*
cadence, evaluates each objective over two rolling windows (the
Google-SRE multi-window pattern: a short window for responsiveness, a
long one to suppress blips), and fires a burn-rate alert when **both**
windows burn error budget faster than the objective's threshold.

Everything is deterministic: sampling happens at scheduled simulation
instants, sources are sim-time metrics (or registered probes reading
sim-state like :class:`~repro.sim.task.TaskStats`), and alerts are
recorded as instantaneous first-class spans (category ``slo``) so they
land in the same causal timeline as the exchanges that caused them.
Attaching an engine is strictly opt-in -- default runs schedule no
ticks and their golden artifacts stay byte-identical.

Objective sources
-----------------

``ratio``
    ``good`` / ``total`` counter names; instruments are summed across
    label sets (so per-mechanism counters fold naturally).
``latency``
    a histogram name plus a threshold: good events are observations
    ``<=`` the largest bucket bound not exceeding the threshold
    (bucket-resolution, exactly the Prometheus convention).
``probe``
    a named callable registered via :meth:`SLOEngine.register_probe`
    returning a cumulative ``(good, total)`` pair -- the bridge to
    state the metrics registry does not carry, e.g. task deadline
    accounting.

DSL
---

Objectives can be declared as a comma-separated string (the fleet
``RunSpec.slo`` axis)::

    latency:ra.round_trip.latency<0.5@0.99
    ratio:vserver.verified/vserver.admitted@0.95!1/5
    probe:deadline@0.999
    firealarm              (a preset name expands to clauses)

``@target`` is the good-fraction objective; the optional
``!short/long`` suffix overrides the rolling windows (sim seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "SLObjective",
    "SLOEngine",
    "SLO_PRESETS",
    "parse_objectives",
]

#: default multi-window burn-rate alert threshold: alert when error
#: budget burns at >= 2x the sustainable rate in BOTH windows
DEFAULT_BURN_THRESHOLD = 2.0


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective over a rolling sim-time window."""

    name: str
    kind: str  # "ratio" | "latency" | "probe"
    target: float
    #: ratio: good counter name; latency: histogram name; probe: probe name
    source: str
    #: ratio only: the total counter name
    total_source: str = ""
    #: latency only: good means observation <= threshold (seconds)
    threshold: float = 0.0
    short_window: float = 1.0
    long_window: float = 5.0
    burn_threshold: float = DEFAULT_BURN_THRESHOLD

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "latency", "probe"):
            raise ConfigurationError(
                f"unknown SLO kind {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"SLO target must be in (0, 1), got {self.target!r}"
            )
        if self.kind == "ratio" and not self.total_source:
            raise ConfigurationError(
                f"ratio objective {self.name!r} needs a total counter"
            )
        if self.kind == "latency" and self.threshold <= 0:
            raise ConfigurationError(
                f"latency objective {self.name!r} needs a threshold > 0"
            )
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ConfigurationError(
                "windows must satisfy 0 < short <= long"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn threshold must be > 0")


@dataclass
class _ObjectiveState:
    """Mutable evaluation state for one objective."""

    samples: List[Tuple[float, float, float]] = field(default_factory=list)
    firing: bool = False
    alert_count: int = 0
    worst_burn_short: float = 0.0
    worst_burn_long: float = 0.0
    last_good: float = 0.0
    last_total: float = 0.0


class SLOEngine:
    """Evaluates objectives on a sim-time cadence; records alerts.

    Parameters
    ----------
    obs:
        The run's :class:`~repro.obs.core.Observability`; sources are
        read from ``obs.metrics`` and alerts recorded via ``obs.spans``.
    objectives:
        The declarative objectives to evaluate.
    interval:
        Sampling cadence in sim seconds; defaults to a third of the
        shortest short-window so each window holds >= 3 samples.
    """

    def __init__(
        self,
        obs: Any,
        objectives: Tuple[SLObjective, ...],
        interval: Optional[float] = None,
    ) -> None:
        if not objectives:
            raise ConfigurationError("SLOEngine needs >= 1 objective")
        self.obs = obs
        self.objectives = tuple(objectives)
        if interval is None:
            interval = min(o.short_window for o in self.objectives) / 3.0
        if interval <= 0:
            raise ConfigurationError("interval must be > 0")
        self.interval = interval
        self.alerts: List[Dict[str, Any]] = []
        self._probes: Dict[str, Callable[[], Tuple[float, float]]] = {}
        self._state: Dict[str, _ObjectiveState] = {
            o.name: _ObjectiveState() for o in self.objectives
        }
        self._sim: Any = None
        self._until: float = 0.0

    # -- wiring ---------------------------------------------------------

    def register_probe(
        self, name: str, fn: Callable[[], Tuple[float, float]]
    ) -> None:
        """Register a cumulative ``(good, total)`` source callable."""
        self._probes[name] = fn

    def attach(self, sim: Any, until: float) -> "SLOEngine":
        """Schedule periodic evaluation ticks on ``sim`` up to ``until``.

        The tick chain is an explicit opt-in event source: never wire
        an engine into a run whose golden event sequence matters.
        """
        self._sim = sim
        self._until = until
        sim.schedule(self.interval, self._tick)
        return self

    # -- sources --------------------------------------------------------

    def _instruments_named(self, name: str) -> List[Any]:
        return [
            inst for inst in self.obs.metrics.instruments()
            if inst.name == name
        ]

    def _read(self, objective: SLObjective) -> Tuple[float, float]:
        """Cumulative (good, total) for one objective, summed across
        label sets."""
        if objective.kind == "probe":
            probe = self._probes.get(objective.source)
            if probe is None:
                return (0.0, 0.0)
            good, total = probe()
            return (float(good), float(total))
        if objective.kind == "ratio":
            good = sum(
                inst.value
                for inst in self._instruments_named(objective.source)
                if inst.kind == "counter"
            )
            total = sum(
                inst.value
                for inst in self._instruments_named(objective.total_source)
                if inst.kind == "counter"
            )
            return (good, total)
        # latency: good = observations <= the bucket covering threshold
        good = total = 0.0
        for inst in self._instruments_named(objective.source):
            if inst.kind != "histogram":
                continue
            cumulative = 0
            covered = 0
            for i, bucket in enumerate(inst.bucket_counts):
                cumulative += bucket
                if (
                    i < len(inst.bounds)
                    and inst.bounds[i] <= objective.threshold
                ):
                    covered = cumulative
            good += covered
            total += inst.count
        return (good, total)

    # -- evaluation -----------------------------------------------------

    def _window_rate(
        self,
        samples: List[Tuple[float, float, float]],
        now: float,
        window: float,
    ) -> Tuple[float, float]:
        """(error_rate, total_delta) over [now - window, now]."""
        if not samples:
            return (0.0, 0.0)
        cutoff = now - window
        # baseline = newest sample at or before the window start; the
        # implicit (0, 0, 0) origin covers windows older than the run
        base_good = base_total = 0.0
        for at, good, total in samples:
            if at <= cutoff:
                base_good, base_total = good, total
            else:
                break
        good_now, total_now = samples[-1][1], samples[-1][2]
        delta_total = total_now - base_total
        if delta_total <= 0:
            return (0.0, 0.0)
        delta_good = good_now - base_good
        error_rate = max(0.0, 1.0 - delta_good / delta_total)
        return (error_rate, delta_total)

    def _tick(self) -> None:
        sim = self._sim
        now = sim.now
        for objective in self.objectives:
            state = self._state[objective.name]
            good, total = self._read(objective)
            state.last_good, state.last_total = good, total
            state.samples.append((now, good, total))
            # retire samples older than the long window (keep one
            # baseline sample at-or-before the cutoff)
            cutoff = now - objective.long_window
            while (
                len(state.samples) > 1 and state.samples[1][0] <= cutoff
            ):
                state.samples.pop(0)
            budget = 1.0 - objective.target
            err_short, n_short = self._window_rate(
                state.samples, now, objective.short_window
            )
            err_long, n_long = self._window_rate(
                state.samples, now, objective.long_window
            )
            burn_short = err_short / budget
            burn_long = err_long / budget
            if burn_short > state.worst_burn_short:
                state.worst_burn_short = burn_short
            if burn_long > state.worst_burn_long:
                state.worst_burn_long = burn_long
            should_fire = (
                n_short > 0
                and n_long > 0
                and burn_short >= objective.burn_threshold
                and burn_long >= objective.burn_threshold
            )
            if should_fire and not state.firing:
                state.firing = True
                state.alert_count += 1
                self._record_alert(
                    objective, now, "firing", burn_short, burn_long
                )
            elif state.firing and not should_fire:
                state.firing = False
                self._record_alert(
                    objective, now, "resolved", burn_short, burn_long
                )
        if now + self.interval <= self._until:
            sim.schedule(self.interval, self._tick)

    def _record_alert(
        self,
        objective: SLObjective,
        now: float,
        transition: str,
        burn_short: float,
        burn_long: float,
    ) -> None:
        alert = {
            "objective": objective.name,
            "at": round(now, 9),
            "transition": transition,
            "burn_short": round(burn_short, 6),
            "burn_long": round(burn_long, 6),
        }
        self.alerts.append(alert)
        if self.obs.enabled:
            # Instantaneous first-class span event: alerts live on the
            # same timeline as the exchanges that burned the budget.
            self.obs.spans.add_span(
                f"slo.alert.{objective.name}", now, now,
                category="slo", transition=transition,
                burn_short=round(burn_short, 6),
                burn_long=round(burn_long, 6),
                target=objective.target,
            )

    # -- reporting ------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Deterministic fold of the evaluation state, for RunResult."""
        objectives: Dict[str, Any] = {}
        for objective in self.objectives:
            state = self._state[objective.name]
            compliance = (
                state.last_good / state.last_total
                if state.last_total else 1.0
            )
            objectives[objective.name] = {
                "kind": objective.kind,
                "target": objective.target,
                "good": state.last_good,
                "total": state.last_total,
                "compliance": round(compliance, 9),
                "met": compliance >= objective.target,
                "alerts": state.alert_count,
                "firing": state.firing,
                "worst_burn_short": round(state.worst_burn_short, 6),
                "worst_burn_long": round(state.worst_burn_long, 6),
            }
        return {
            "interval": self.interval,
            "objectives": objectives,
            "alerts": list(self.alerts),
        }


# ---------------------------------------------------------------------------
# DSL + presets
# ---------------------------------------------------------------------------

#: named objective bundles; preset names are valid DSL clauses
SLO_PRESETS: Dict[str, str] = {
    # the paper's headline budget: alarms must reach the actuator
    "firealarm": (
        "latency:app.alarm.latency<0.25@0.99,"
        "probe:deadline@0.99"
    ),
    # challenge-to-verdict latency for on-demand exchanges
    "exchange": "latency:ra.round_trip.latency<0.5@0.99",
    # served-verifier health: queue wait + availability floor
    "vserver": (
        "latency:vserver.stage.queue<0.5@0.95!1/5,"
        "ratio:vserver.verified/vserver.admitted@0.9!1/5"
    ),
}


def _parse_windows(clause: str) -> Tuple[str, float, float]:
    short_window, long_window = 1.0, 5.0
    if "!" in clause:
        clause, _, windows = clause.partition("!")
        try:
            short_text, _, long_text = windows.partition("/")
            short_window = float(short_text)
            long_window = float(long_text) if long_text else short_window * 5
        except ValueError as exc:
            raise ConfigurationError(
                f"bad SLO window spec {windows!r}"
            ) from exc
    return clause, short_window, long_window


def _parse_clause(clause: str) -> SLObjective:
    clause, short_window, long_window = _parse_windows(clause)
    body, _, target_text = clause.partition("@")
    if not target_text:
        raise ConfigurationError(
            f"SLO clause {clause!r} is missing its @target"
        )
    try:
        target = float(target_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad SLO target {target_text!r}"
        ) from exc
    kind, _, spec = body.partition(":")
    if not spec:
        raise ConfigurationError(
            f"SLO clause {clause!r} needs kind:source"
        )
    if kind == "latency":
        source, sep, threshold_text = spec.partition("<")
        if not sep:
            raise ConfigurationError(
                f"latency clause {clause!r} needs source<threshold"
            )
        try:
            threshold = float(threshold_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad latency threshold {threshold_text!r}"
            ) from exc
        return SLObjective(
            name=source, kind="latency", target=target, source=source,
            threshold=threshold, short_window=short_window,
            long_window=long_window,
        )
    if kind == "ratio":
        good, sep, total = spec.partition("/")
        if not sep or not total:
            raise ConfigurationError(
                f"ratio clause {clause!r} needs good/total"
            )
        return SLObjective(
            name=good, kind="ratio", target=target, source=good,
            total_source=total, short_window=short_window,
            long_window=long_window,
        )
    if kind == "probe":
        return SLObjective(
            name=spec, kind="probe", target=target, source=spec,
            short_window=short_window, long_window=long_window,
        )
    raise ConfigurationError(f"unknown SLO kind {kind!r}")


def parse_objectives(text: str) -> Tuple[SLObjective, ...]:
    """Parse a DSL string (or preset name) into objectives.

    Raises :class:`~repro.errors.ConfigurationError` on junk, so it
    doubles as the ``RunSpec.slo`` axis validator.
    """
    text = text.strip()
    if not text:
        raise ConfigurationError("empty SLO spec")
    objectives: List[SLObjective] = []
    seen = set()
    for raw in text.split(","):
        clause = raw.strip()
        if not clause:
            continue
        if clause in SLO_PRESETS:
            expanded = parse_objectives(SLO_PRESETS[clause])
            for objective in expanded:
                if objective.name not in seen:
                    seen.add(objective.name)
                    objectives.append(objective)
            continue
        objective = _parse_clause(clause)
        if objective.name in seen:
            raise ConfigurationError(
                f"duplicate SLO objective {objective.name!r}"
            )
        seen.add(objective.name)
        objectives.append(objective)
    if not objectives:
        raise ConfigurationError(f"SLO spec {text!r} declares nothing")
    return tuple(objectives)
