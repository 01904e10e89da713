"""Layer-boundary tracing installed from the benchmark's side.

:class:`Tracer` wraps public functions at each layer boundary of the
``repro`` package, records one span per call (name, start, end, parent)
in memory, and folds every span into per-layer self time as it closes:
a span's self time is its duration minus the durations of its direct
children, so the layers' self times plus the untraced remainder add up
to the traced wall clock.

Nothing under ``src/`` knows about this module.  Wrappers are installed
only in a traced session, after the imports and before the workload is
built, and :meth:`Tracer.uninstall` restores every original before the
session's untimed output checks run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, owner, attribute); ``owner`` is a class name, or
#: ``None`` for a module-level function (patched in every ``repro``
#: module that imported it by name)
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("crypto.hmac", "repro.crypto.hmac", "Hmac", "__init__"),
    ("crypto.hmac", "repro.crypto.hmac", "Hmac", "update"),
    ("crypto.hmac", "repro.crypto.hmac", "Hmac", "digest"),
    ("crypto.hmac", "repro.crypto.hmac", None, "hmac_digest"),
    ("crypto.drbg", "repro.crypto.drbg", "HmacDrbg", "__init__"),
    ("crypto.drbg", "repro.crypto.drbg", "HmacDrbg", "generate"),
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("ra.verify", "repro.ra.verifier", "Verifier", "verify_report"),
    ("ra.verify", "repro.ra.verifier", "Verifier", "verify_batch"),
    ("ra.verify", "repro.ra.verifier", "Verifier", "expected_for"),
    ("ra.smarm", "repro.ra.smarm", None, "escape_trial"),
    ("vserver", "repro.vserver.server", "VerifierServer", "submit"),
    ("vserver", "repro.vserver.loadgen", "SimProver", "measure"),
    ("vserver", "repro.vserver.loadgen", "SimProver", "emit"),
    ("fleet", "repro.fleet.pipeline", None, "run_pipeline"),
    ("scenario", "repro.scenario", "Scenario", "build"),
    ("obs", "repro.obs.metrics", "Counter", "inc"),
    ("obs", "repro.obs.metrics", "Histogram", "observe"),
)

#: every layer a report names, in report order
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in BOUNDARIES))

#: spans kept for the span file; later spans still count toward the
#: per-layer totals, they are only not written out
SPAN_CAP = 50_000


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: calls per boundary, keyed ``Owner.attr`` / ``function``
        self.calls: Dict[str, int] = {}
        self.hmac_bytes = 0
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.span_count = 0
        # one frame per open span: [span id, child duration]; the base
        # frame collects top-level spans
        self._stack: List[List[Any]] = [[-1, 0.0]]
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, layer: Optional[str],
             fn: Callable[..., Any], sized: bool = False
             ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``layer=None`` charges its self
        time to no layer (it lands in ``other``).  ``sized`` adds the
        length of the first argument after ``self`` to
        :attr:`hmac_bytes`."""
        clock = time.perf_counter
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        calls.setdefault(name, 0)
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self.span_count
            self.span_count = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if layer is not None:
                    self_time[layer] += duration - frame[1]
                stack[-1][1] += duration
                calls[name] += 1
                if sized:
                    self.hmac_bytes += len(args[1])
                if span_id < SPAN_CAP:
                    spans.append((span_id, stack[-1][0], name, start, end))

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary (modules are imported if needed)."""
        for layer, module_name, owner, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            if owner is None:
                self._patch_function(module, attr, layer)
            else:
                self._patch_method(getattr(module, owner), attr, layer)

    def _patch_method(self, cls: type, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.span(name, layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.span(name, layer, raw.__func__))
        else:
            wrapped = self.span(name, layer, raw, sized=name == "Hmac.update")
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, raw))

    def _patch_function(self, module: Any, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapped = self.span(attr, layer, original)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._restore.append((loaded, key, original))

    def uninstall(self) -> None:
        """Put every original back (in reverse installation order)."""
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- reporting ------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        names = {
            f"{owner}.{attr}" if owner else attr
            for lyr, _mod, owner, attr in BOUNDARIES
            if lyr == layer
        }
        return sum(self.calls.get(name, 0) for name in names)

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns the line count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end,
                }) + "\n")
        return len(self.spans)


def delay_wrapper(fn: Callable[..., Any], seconds: float
                  ) -> Callable[..., Any]:
    """``fn`` preceded by a busy-wait of ``seconds`` (sensitivity test)."""
    clock = time.perf_counter

    def delayed(*args: Any, **kwargs: Any) -> Any:
        until = clock() + seconds
        while clock() < until:
            pass
        return fn(*args, **kwargs)

    return delayed


def inject_delay(spec: str) -> None:
    """Install ``Owner.attr:MICROSECONDS`` delay on a ``repro`` class
    boundary listed in :data:`BOUNDARIES`, for the rest of the process."""
    target, _, micros = spec.partition(":")
    for _layer, module_name, owner, attr in BOUNDARIES:
        if owner is not None and f"{owner}.{attr}" == target:
            cls = getattr(importlib.import_module(module_name), owner)
            setattr(cls, attr, delay_wrapper(
                cls.__dict__[attr], float(micros) * 1e-6
            ))
            return
    raise SystemExit(f"unknown boundary for --inject: {target!r}")
