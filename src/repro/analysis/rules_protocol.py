"""RPA007/RPA008 — the cross-process message protocol, checked statically.

Process pools and the serving layer talk to their workers through two
shapes of state: *tagged messages* on multiprocessing queues (``("walk",
task_id, ...)`` requests, ``(task_id, "ok" | "error", payload)`` replies)
and *refcounted holds* on shared resources (registry pins, active-walk
counts, shared-memory segments).  Both are pure convention — nothing in
the type system connects a ``put`` to the ``get`` that must understand
it, or a ``publish(pin=True)`` to the ``release`` that must eventually
balance it.  These two rules extract the convention from the source and
check it like a protocol:

**RPA007 — message tags.**  Per module, every queue-like channel (a name
``put`` and ``get`` are called on, normalized so ``self._tasks`` and the
worker's ``tasks`` parameter are the same channel) gets a producer side —
tuple messages whose first string constant is the *tag* — and a consumer
side — functions that ``get`` from the channel and dispatch on a message
field.  The rule flags:

* a tag that is enqueued but matches no dispatch branch in any consumer
  of that channel (the message would be dropped or crash a worker);
* a dispatch branch for a tag the module never enqueues (a dead branch —
  usually a typo on one side of the protocol);
* the same tag handled twice within one ``if``/``elif`` dispatch chain
  (the second branch is unreachable);
* a dispatch chain over two or more tags with no terminal ``else`` — an
  unknown tag must be rejected loudly, not fall through silently.

Channels whose consumers live in another module (or behind an executor)
are skipped: the analysis is per-file, and the consumer's home module is
where its dispatch is audited.

**RPA008 — resource pairing.**  Acquire/release pairs must balance along
the call graph: ``publish(..., pin=True)`` needs a reachable ``release``,
``_acquire_for_walk`` needs ``_release_after_walk`` (scoped to the
enclosing class for methods, the module for functions), and a module
that creates ``SharedMemory`` segments must ``unlink`` somewhere.  When
an acquire and its release sit in the *same* function, the release must
be exception-safe — inside a ``finally``/handler — or the acquired hold
must escape to an owner (stored on ``self`` or in a container) whose
lifecycle releases it; a straight-line acquire…release pair leaks the
hold on every exception raised in between.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import call_attr, resolve
from repro.analysis.diagnostics import Diagnostic

CODES = {
    "RPA007": (
        "message protocol: every enqueued tag needs exactly one dispatch "
        "branch per consumer chain, no dead branches, and dispatch chains "
        "must reject unknown tags explicitly"
    ),
    "RPA008": (
        "resource pairing: publish(pin=True)/release, "
        "_acquire_for_walk/_release_after_walk and segment create/unlink "
        "must balance along the call graph, exception paths included"
    ),
}

_GET_METHODS = frozenset({"get", "get_nowait"})


def _channel_of(recv: ast.expr) -> str | None:
    """Normalized channel name of a queue receiver expression.

    ``self._tasks``/``pool._tasks``/``tasks`` all normalize to ``tasks``
    so the parent's attribute and the worker's parameter line up.
    """
    if isinstance(recv, ast.Attribute):
        return recv.attr.lstrip("_") or None
    if isinstance(recv, ast.Name):
        return recv.id.lstrip("_") or None
    return None


def _first_str_tag(tup: ast.Tuple) -> str | None:
    for elt in tup.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            return elt.value
    return None


def _local_tuple_bindings(func: ast.AST) -> dict[str, ast.Tuple]:
    """Name -> tuple literal it is bound to somewhere in ``func``."""
    out: dict[str, ast.Tuple] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Tuple)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
    return out


class _Consumer:
    """One function's view of the channels it ``get``s messages from."""

    __slots__ = ("func", "channels", "fields", "handled")

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        #: Channels this function consumes.
        self.channels: set[str] = set()
        #: Message-field name -> channel it was unpacked from.
        self.fields: dict[str, str] = {}
        #: Channel -> {tag: [compare nodes]} dispatched in this function.
        self.handled: dict[str, dict[str, list[ast.AST]]] = {}

    def _note(self, channel: str, tag: str, node: ast.AST) -> None:
        self.handled.setdefault(channel, {}).setdefault(tag, []).append(node)


def _get_channel(call: ast.expr) -> str | None:
    """Channel name when ``call`` is a ``<chan>.get(...)`` style read."""
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in _GET_METHODS
    ):
        return _channel_of(call.func.value)
    return None


def _build_consumer(func: ast.AST) -> _Consumer | None:
    consumer = _Consumer(func)
    roots: dict[str, str] = {}  # whole-message name -> channel
    # Pass 1: ``msg = chan.get()`` bindings.  (A separate pass because
    # ast.walk is breadth-first — a ``kind = msg[0]`` at statement level
    # is visited before a ``msg = chan.get()`` nested inside a try.)
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        channel = _get_channel(node.value)
        if channel is None:
            continue
        consumer.channels.add(channel)
        for target in node.targets:
            if isinstance(target, ast.Name):
                roots[target.id] = channel
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        consumer.fields[elt.id] = channel
    if not consumer.channels:
        return None
    # Pass 2: fields peeled off a message root.
    # kind, task_id = msg[0], msg[1]  /  kind = msg[0]
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or _get_channel(node.value):
            continue
        pairs: list[tuple[ast.expr, ast.expr]] = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                pairs.extend(zip(target.elts, node.value.elts))
            else:
                pairs.append((target, node.value))
        for tgt, val in pairs:
            if (
                isinstance(tgt, ast.Name)
                and isinstance(val, ast.Subscript)
                and isinstance(val.value, ast.Name)
                and val.value.id in roots
            ):
                consumer.fields[tgt.id] = roots[val.value.id]
    # Dispatch sites: comparisons of a message field against str constants.
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if isinstance(op, (ast.Eq, ast.NotEq)):
            if isinstance(right, ast.Name) and isinstance(left, ast.Constant):
                left, right = right, left
            if (
                isinstance(left, ast.Name)
                and left.id in consumer.fields
                and isinstance(right, ast.Constant)
                and isinstance(right.value, str)
            ):
                consumer._note(consumer.fields[left.id], right.value, node)
        elif isinstance(op, ast.In):
            if (
                isinstance(left, ast.Name)
                and left.id in consumer.fields
                and isinstance(right, (ast.Tuple, ast.List, ast.Set))
            ):
                for elt in right.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        consumer._note(
                            consumer.fields[left.id], elt.value, node
                        )
    return consumer


def _dispatch_chains(
    consumer: _Consumer,
) -> Iterator[tuple[str, list[tuple[str, ast.If]], ast.If, bool]]:
    """(field, [(tag, if-node)...], head, has_default) per if/elif chain."""
    heads: set[ast.If] = set()
    elifs: set[ast.If] = set()
    for node in ast.walk(consumer.func):
        if isinstance(node, ast.If):
            heads.add(node)
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                elifs.add(node.orelse[0])
    for head in heads - elifs:
        field: str | None = None
        tags: list[tuple[str, ast.If]] = []
        node: ast.stmt | None = head
        has_default = False
        while isinstance(node, ast.If):
            test = node.test
            if (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.left, ast.Name)
                and test.left.id in consumer.fields
                and isinstance(test.comparators[0], ast.Constant)
                and isinstance(test.comparators[0].value, str)
            ):
                if field is None:
                    field = test.left.id
                if test.left.id == field:
                    tags.append((test.comparators[0].value, node))
            elif field is not None:
                break  # chain switched subjects; stop here
            orelse = node.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                node = orelse[0]
            else:
                has_default = bool(orelse)
                node = None
        if field is not None and tags:
            yield field, tags, head, has_default


# ----------------------------------------------------------------------
# RPA007
# ----------------------------------------------------------------------
def _check_protocol(ctx) -> Iterator[Diagnostic]:
    producers: dict[str, dict[str, list[ast.AST]]] = {}
    consumers: list[_Consumer] = []
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bindings = _local_tuple_bindings(func)
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "put"
                and len(node.args) == 1
            ):
                continue
            channel = _channel_of(node.func.value)
            if channel is None:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                arg = bindings.get(arg.id)
            if not isinstance(arg, ast.Tuple):
                continue
            tag = _first_str_tag(arg)
            if tag is not None:
                producers.setdefault(channel, {}).setdefault(tag, []).append(
                    node
                )
        consumer = _build_consumer(func)
        if consumer is not None:
            consumers.append(consumer)

    consumed_channels = {c for co in consumers for c in co.channels}
    handled: dict[str, set[str]] = {}
    for consumer in consumers:
        for channel, tags in consumer.handled.items():
            handled.setdefault(channel, set()).update(tags)

    for channel, tags in sorted(producers.items()):
        if channel not in consumed_channels:
            continue  # the consumer lives in another module
        for tag, sites in sorted(tags.items()):
            if tag not in handled.get(channel, ()):
                yield ctx.diagnostic(
                    sites[0],
                    "RPA007",
                    f"message tag {tag!r} is enqueued on channel "
                    f"{channel!r} but no consumer dispatches on it — the "
                    "message would be dropped (or crash the worker) "
                    "unhandled",
                )

    for consumer in consumers:
        for channel, tags in sorted(consumer.handled.items()):
            produced = producers.get(channel)
            if not produced:
                continue  # producer lives elsewhere; cannot audit liveness
            for tag in sorted(tags):
                if tag not in produced:
                    yield ctx.diagnostic(
                        tags[tag][0],
                        "RPA007",
                        f"dispatch branch for tag {tag!r} on channel "
                        f"{channel!r} is dead — nothing in this module "
                        "enqueues it (typo on one side of the protocol?)",
                    )
        for field, chain, _head, has_default in _dispatch_chains(consumer):
            channel = consumer.fields[field]
            if channel not in producers and channel not in consumed_channels:
                continue
            seen: set[str] = set()
            for tag, node in chain:
                if tag in seen:
                    yield ctx.diagnostic(
                        node,
                        "RPA007",
                        f"tag {tag!r} is dispatched twice in one "
                        "if/elif chain — the second branch is unreachable",
                    )
                seen.add(tag)
            if len(seen) >= 2 and not has_default:
                yield ctx.diagnostic(
                    _head,
                    "RPA007",
                    f"dispatch chain over {field!r} handles "
                    f"{len(seen)} tags with no terminal else — an unknown "
                    "tag must be rejected explicitly, not fall through",
                )


# ----------------------------------------------------------------------
# RPA008
# ----------------------------------------------------------------------
#: Acquire-call name (+ required kwarg) -> release-call name.
_PAIRS = {
    ("publish", "pin"): "release",
    ("_acquire_for_walk", None): "_release_after_walk",
}


def _is_pin_true(call: ast.Call) -> bool:
    return any(
        kw.arg == "pin"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


def _acquire_sites(scope: ast.AST) -> Iterator[tuple[ast.Call, str, str]]:
    """(call, acquire name, paired release name) inside ``scope``."""
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        name = call_attr(node.func)
        if name == "publish" and _is_pin_true(node):
            yield node, "publish(pin=True)", "release"
        elif name == "_acquire_for_walk":
            yield node, "_acquire_for_walk", "_release_after_walk"


def _calls_named(scope: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Call) and call_attr(node.func) == name
        for node in ast.walk(scope)
    )


def _protected_release(func: ast.AST, release: str) -> bool:
    """``release`` is called from a finally block or exception handler."""
    for node in ast.walk(func):
        if isinstance(node, ast.Try):
            regions = list(node.finalbody) + [
                stmt for h in node.handlers for stmt in h.body
            ]
            for stmt in regions:
                if _calls_named(stmt, release):
                    return True
    return False


def _result_escapes(func: ast.AST, acquire: ast.Call) -> bool:
    """The acquire's result is stored on an object or in a container."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or node.value is not acquire:
            continue
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return True
            if isinstance(target, (ast.Tuple, ast.List)) and any(
                isinstance(e, (ast.Attribute, ast.Subscript))
                for e in target.elts
            ):
                return True
    return False


def _enclosing_maps(tree: ast.Module):
    """func node -> enclosing ClassDef (or None)."""
    owner: dict[ast.AST, ast.ClassDef | None] = {}

    def walk(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner[child] = cls
                walk(child, cls)
            else:
                walk(child, cls)

    walk(tree, None)
    return owner


def _check_pairing(ctx) -> Iterator[Diagnostic]:
    owner = _enclosing_maps(ctx.tree)
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        direct = [
            (call, name, release)
            for call, name, release in _acquire_sites(func)
            # Only this function's own sites — nested defs audit themselves.
            if all(
                call not in set(ast.walk(inner))
                for inner in ast.walk(func)
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                and inner is not func
            )
        ]
        for call, name, release in direct:
            scope: ast.AST = owner.get(func) or ctx.tree
            if not _calls_named(scope, release):
                where = (
                    f"class {owner[func].name!r}"
                    if owner.get(func) is not None
                    else "this module"
                )
                yield ctx.diagnostic(
                    call,
                    "RPA008",
                    f"{name} in {func.name!r} has no paired {release}() "
                    f"anywhere in {where} — the hold can never be "
                    "balanced; every pin/acquire needs a release path",
                )
                continue
            if _calls_named(func, release):
                # Same-function pair: the release must survive exceptions.
                if not (
                    _protected_release(func, release)
                    or _result_escapes(func, call)
                ):
                    yield ctx.diagnostic(
                        call,
                        "RPA008",
                        f"{name} and {release}() pair inside "
                        f"{func.name!r} without try/finally protection — "
                        "an exception between them leaks the hold; release "
                        "in a finally or hand the hold to an owner",
                    )

    # Segment creators must unlink somewhere in the module (close-on-all-
    # paths is RPA003's job; unlink-exactly-once needs a call site at all).
    create_sites = []
    has_unlink = False
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            if call_attr(node.func) == "unlink":
                has_unlink = True
            resolved = resolve(node.func, ctx.imports)
            if (
                resolved is not None
                and (
                    resolved == "SharedMemory"
                    or resolved.endswith(".SharedMemory")
                )
                and any(
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
            ):
                create_sites.append(node)
    if create_sites and not has_unlink:
        yield ctx.diagnostic(
            create_sites[0],
            "RPA008",
            "this module creates SharedMemory segments but never calls "
            "unlink() — created segments outlive the process in /dev/shm; "
            "the creator owns exactly-once unlinking",
        )


def check(ctx) -> Iterator[Diagnostic]:
    yield from _check_protocol(ctx)
    yield from _check_pairing(ctx)
