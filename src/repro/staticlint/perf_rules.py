"""Performance rules.

The measurement hot loop is the repo's wall-clock center of gravity:
every mechanism in Table 1 re-walks prover memory, and fleet campaigns
multiply that by thousands of runs.  The measurement kernel hashes
each visited block once and keeps the result in
``MeasurementRecord.audit_block_hashes``.  The ``perf-uncached-digest``
rule flags code that hashes freshly read block contents again
(``audit_hash(memory.read_block(i))`` and friends): that re-pays the
read and the digest for bytes the record already identifies.  The
call sites that must hash -- the kernel itself, one-shot
reference-image builds, verifier-side recomputation -- carry a
``# repro: allow[perf-uncached-digest]`` suppression with the
justification inline.

The ``perf-unbounded-queue`` rule guards the other wall-clock (and
memory) hazard the verifier service introduced: per-message
accumulation on a hot path.  Inside :data:`LintConfig.queue_scope`
(the service and fleet packages, where one code path runs once per
report across thousand-prover storms) a ``deque()`` without ``maxlen``
or a ``self.x.append()`` with no visible bound in the same function
grows without limit under load.  Deliberate accumulators -- the
verdict ledger itself, per-report latency samples -- carry a
``# repro: allow[perf-unbounded-queue]`` suppression at the growth
site.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.staticlint.engine import ModuleContext, walk_scope
from repro.staticlint.findings import Severity
from repro.staticlint.registry import get_rule, rule

#: content-digest entry points whose input may be cacheable
_HASH_NAMES = {"audit_hash", "content_fingerprint", "hmac_digest"}
#: block-content producers: hashing their output re-derives what a
#: generation-keyed cache entry already holds
_SOURCE_NAMES = {"read_block", "benign_block"}


def _called_name(call: ast.Call) -> str:
    """The terminal name of a call target (``f`` or ``obj.f``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_hashlib_call(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "hashlib"
    )


def _contains_source_call(node: ast.AST, tainted: Set[str]) -> bool:
    """True when the expression reads block contents, directly or via a
    name assigned from a block read in the same function body."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _called_name(sub) in _SOURCE_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def _tainted_names(func: ast.AST) -> Set[str]:
    """Names assigned (one level, function scope) from a block read."""
    tainted: Set[str] = set()
    for node in walk_scope(func):
        if not isinstance(node, ast.Assign):
            continue
        has_source = any(
            isinstance(sub, ast.Call)
            and _called_name(sub) in _SOURCE_NAMES
            for sub in ast.walk(node.value)
        )
        if not has_source:
            continue
        for target in node.targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    tainted.add(name.id)
    return tainted


def _hash_calls(func: ast.AST) -> List[ast.Call]:
    calls = []
    for node in walk_scope(func):
        if isinstance(node, ast.Call) and (
            _called_name(node) in _HASH_NAMES or _is_hashlib_call(node)
        ):
            calls.append(node)
    return calls


@rule(
    id="perf-uncached-digest",
    family="performance",
    severity=Severity.WARNING,
    summary="block contents read and hashed outside the measurement",
    rationale=(
        "Measurement traversals dominate wall clock, and the kernel "
        "already hashes every block it visits into the record's "
        "audit_block_hashes.  Hashing the output of read_block()/"
        "benign_block() again re-pays the content copy and the digest "
        "for bytes the record already identifies; at ERASMUS/fleet "
        "scale that is the difference between seconds and minutes of "
        "pure reproduction overhead."
    ),
    hint=(
        "reuse MeasurementRecord.audit_block_hashes, or suppress with "
        "`# repro: allow[perf-uncached-digest]` and a justification "
        "where the call must hash (the measurement kernel, a one-shot "
        "reference build, verifier-side recomputation)"
    ),
)
def check_uncached_digest(ctx: ModuleContext) -> Iterable:
    this = get_rule("perf-uncached-digest")
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        hash_calls = _hash_calls(func)
        if not hash_calls:
            continue
        tainted = _tainted_names(func)
        for call in hash_calls:
            if any(
                _contains_source_call(arg, tainted) for arg in call.args
            ):
                yield this.finding(
                    ctx, call,
                    f"{func.name}() hashes freshly read block contents "
                    f"via {_called_name(call) or 'hashlib'}() instead "
                    f"of reusing the measurement's audit hashes",
                )


#: attribute mutators that grow a collection
_GROW_NAMES = {"append", "extend", "appendleft", "extendleft"}
#: attribute mutators that shrink/drain one -- evidence of a bound
_DRAIN_NAMES = {"pop", "popleft", "popitem", "clear"}


def _self_attr(node: ast.AST) -> str:
    """``"x"`` for a ``self.x`` expression, else ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _bounded_attrs(func: ast.AST) -> Set[str]:
    """Attributes with bound evidence in this function scope: a
    ``len(self.x)`` capacity check, a drain call, or a slice-trim
    assignment (``self.x[:] = ...`` / ``del self.x[...]``)."""
    bounded: Set[str] = set()
    for node in walk_scope(func):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and node.args
            ):
                attr = _self_attr(node.args[0])
                if attr:
                    bounded.add(attr)
            elif name in _DRAIN_NAMES and isinstance(
                node.func, ast.Attribute
            ):
                attr = _self_attr(node.func.value)
                if attr:
                    bounded.add(attr)
        elif isinstance(node, (ast.Delete, ast.Assign)):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                    if attr:
                        bounded.add(attr)
    return bounded


def _deque_without_maxlen(ctx: ModuleContext, call: ast.Call) -> bool:
    if ctx.resolve(call.func) not in ("collections.deque", "deque"):
        return False
    for keyword in call.keywords:
        if keyword.arg == "maxlen" and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        ):
            return False
    # positional form deque(iterable, maxlen)
    return len(call.args) < 2


@rule(
    id="perf-unbounded-queue",
    family="performance",
    severity=Severity.WARNING,
    summary="hot-path accumulation without a capacity bound",
    rationale=(
        "The verifier service and the fleet layer run once per report "
        "or per run: a thousand-prover thundering herd pushes "
        "thousands of messages through a single code path in one sim "
        "second.  A deque() without maxlen, or an append onto a "
        "self-attribute with no visible bound, grows without limit "
        "under exactly the load the service exists to absorb -- the "
        "queueing analogue of the unbounded-buffer bugs the paper's "
        "admission-control discussion warns about.  Bounds belong "
        "where the growth happens: admission checks, maxlen "
        "backstops, ring trims."
    ),
    hint=(
        "bound the structure (deque(maxlen=...), a len() admission "
        "check, or a drain/trim in the same function), or suppress a "
        "deliberate accumulator with "
        "`# repro: allow[perf-unbounded-queue]` and the justification "
        "inline (run artifacts like the verdict ledger qualify; "
        "per-message scratch does not)"
    ),
)
def check_unbounded_queue(ctx: ModuleContext) -> Iterable:
    if not ctx.in_scope(ctx.config.queue_scope):
        return
    this = get_rule("perf-unbounded-queue")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _deque_without_maxlen(ctx, node):
            yield this.finding(
                ctx, node,
                "deque() constructed without a maxlen capacity bound",
            )
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bounded = _bounded_attrs(func)
        for node in walk_scope(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _called_name(node) in _GROW_NAMES
            ):
                continue
            attr = _self_attr(node.func.value)
            if attr and attr not in bounded:
                yield this.finding(
                    ctx, node,
                    f"{func.name}() grows self.{attr} per call with no "
                    f"visible capacity bound in scope",
                )
