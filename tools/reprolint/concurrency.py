"""The four concurrency-safety rules (R6-R9).

PRs 2-5 layered three concurrent execution paths over the numeric core
(thread pool, process pool, sharded scatter-gather). Byte-identical
results across those paths rest on engineering discipline this module
machine-checks:

========  =====================================================
rule      contract
========  =====================================================
R6        mutable attributes of guarded (executor/registry/cache)
          classes are written only in ``__init__``, under a held
          lock, or through a thread-local
R7        no blocking boundary while a lock is held; lock
          acquisition order is acyclic per module
R8        objects submitted to a ``ProcessPoolExecutor`` come
          from the sanctioned picklable set
R9        every ``Future.result()`` passes a timeout (or lives in
          a deadline-managed gather, justified by pragma)
========  =====================================================

All four are conservative: they only fire when the static evidence is
confident, so unknown constructs never alarm. Suppress a deliberate
exception with ``# reprolint: disable=RX`` plus a justification in the
same comment.
"""

from __future__ import annotations

import ast

from .engine import ModuleContext, Violation
from .rules import Rule, _LIBRARY

__all__ = [
    "GuardedStateRule",
    "LockDisciplineRule",
    "ProcessPoolPickleRule",
    "FutureTimeoutRule",
    "GUARDED_CLASSES",
    "SANCTIONED_PICKLABLE",
    "concurrency_rules",
]

#: Classes whose mutable attributes R6 guards even when the class does
#: not (yet) construct a lock of its own. These are the shared-state
#: homes named by the concurrency design notes: the batch executors,
#: the search facade the serving layer drives from many tasks at once,
#: the metrics registry, and the prepared-tables LRU cache owner.
GUARDED_CLASSES = frozenset(
    {
        "ANNSearcher",
        "BatchExecutor",
        "ProcessBatchExecutor",
        "ScatterGatherExecutor",
        "MetricsRegistry",
        "Observability",
        "PQFastScanner",
    }
)

#: Attribute-method calls that mutate the receiver in place. Within a
#: guarded class, ``self.X.<one of these>(...)`` counts as a write to
#: shared state just like ``self.X = ...`` does.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
        "update",
        "add",
        "pop",
        "popitem",
        "setdefault",
        "move_to_end",
        "set",
    }
)

#: Callables whose results are sanctioned for crossing a process-pool
#: boundary: the frozen bundle/spec dataclasses, paths, scalars and the
#: builtin containers of those.
SANCTIONED_PICKLABLE = frozenset(
    {
        "WorkerBundle",
        "ScannerSpec",
        "for_scanner",
        "Path",
        "PurePath",
        "str",
        "bytes",
        "int",
        "float",
        "bool",
        "tuple",
        "list",
        "dict",
        "frozenset",
        "sorted",
        "len",
        "range",
        "min",
        "max",
        "sanitizer_enabled",
    }
)

#: Parameter/attribute annotations sanctioned as picklable payloads.
_SANCTIONED_ANNOTATIONS = frozenset(
    {
        "WorkerBundle",
        "ScannerSpec",
        "Path",
        "str",
        "bytes",
        "int",
        "float",
        "bool",
    }
)

#: Producers whose results must never cross a process-pool boundary:
#: memmaps, open file handles and the heavyweight index/scanner objects
#: the attach-by-path design exists to keep out of pickles.
_BANNED_PRODUCERS = frozenset({"load_index", "open", "memmap"})

#: Annotations marking a value as unpicklable (or expensively so).
_BANNED_ANNOTATIONS = frozenset(
    {
        "PartitionScanner",
        "PQFastScanner",
        "IVFADCIndex",
        "ndarray",
        "memmap",
        "Executor",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    }
)

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore"})


def _is_lock_expr(node: ast.expr) -> bool:
    """True when a ``with`` context expression looks like a lock."""
    if isinstance(node, ast.Attribute):
        return "lock" in node.attr.lower()
    if isinstance(node, ast.Name):
        return "lock" in node.id.lower()
    return False


def _lock_label(node: ast.expr) -> str:
    """Stable per-module label for a lock expression."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ast.dump(node)


def _self_attribute(node: ast.expr) -> str | None:
    """Name ``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _held_locks(ctx: ModuleContext, node: ast.AST) -> list[str]:
    """Labels of every lock-like ``with`` enclosing ``node``."""
    held: list[str] = []
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, ast.With):
            for item in current.items:
                if _is_lock_expr(item.context_expr):
                    held.append(_lock_label(item.context_expr))
        current = ctx.parents.get(current)
    return held


def _call_name(call: ast.Call) -> str | None:
    """Last path segment of the called expression, if nameable."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_asyncio_call(call: ast.Call) -> bool:
    """True for ``asyncio.X(...)`` — loop-affine, not a thread lock."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "asyncio"
    )


class GuardedStateRule(Rule):
    """R6: guarded-class attributes are written only under a lock.

    A class is guarded when it is named in :data:`GUARDED_CLASSES` or
    when any of its methods constructs a ``threading.Lock``/``RLock``
    (owning a lock is declaring shared state). ``asyncio`` primitives
    (``asyncio.Lock``/``Semaphore``/...) do not count: they synchronize
    tasks on one event loop, so owning one declares loop-affine state,
    not cross-thread state. Inside a guarded class,
    every attribute write outside ``__init__`` — plain assignment,
    augmented assignment, subscript stores and in-place mutator calls
    (``append``/``update``/``set``/...) — must sit lexically inside a
    ``with <lock>:`` block or target a ``threading.local()`` attribute.
    """

    id = "R6"
    title = "guarded-class attribute writes need a held lock"
    scopes = _LIBRARY

    def check(self, ctx: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                violations.extend(self._check_class(ctx, node))
        return violations

    def _check_class(
        self, ctx: ModuleContext, klass: ast.ClassDef
    ) -> list[Violation]:
        lock_attrs, local_attrs = self._special_attrs(klass)
        if klass.name not in GUARDED_CLASSES and not lock_attrs:
            return []
        violations: list[Violation] = []
        for method in klass.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__", "__del__"):
                continue
            for write, attr in self._attribute_writes(method):
                if attr in lock_attrs or attr in local_attrs:
                    continue
                if _held_locks(ctx, write):
                    continue
                violation = self._report(
                    ctx,
                    write,
                    f"write to shared attribute 'self.{attr}' of guarded "
                    f"class {klass.name!r} outside __init__ without a held "
                    "lock; wrap in 'with self._lock:' (or mark the state "
                    "thread-local) so concurrent callers cannot race",
                )
                if violation:
                    violations.append(violation)
        return violations

    def _special_attrs(
        self, klass: ast.ClassDef
    ) -> tuple[set[str], set[str]]:
        """Attribute names holding locks / thread-locals in this class."""
        locks: set[str] = set()
        locals_: set[str] = set()
        for node in ast.walk(klass):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            name = _call_name(node.value)
            for target in node.targets:
                attr = _self_attribute(target)
                if attr is None:
                    continue
                if name in _LOCK_FACTORIES and not _is_asyncio_call(node.value):
                    locks.add(attr)
                elif name == "local":
                    locals_.add(attr)
        return locks, locals_

    def _attribute_writes(
        self, method: ast.AST
    ) -> list[tuple[ast.AST, str]]:
        """(node, attribute-name) for every shared-state write."""
        writes: list[tuple[ast.AST, str]] = []
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                ):
                    attr = _self_attribute(func.value)
                    if attr is not None:
                        writes.append((node, attr))
                continue
            for target in targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                attr = _self_attribute(base)
                if attr is not None:
                    writes.append((node, attr))
        return writes


#: ``.attr`` names that always denote a blocking boundary.
_ALWAYS_BLOCKING = frozenset({"submit", "sleep", "wait"})

#: ``.attr`` names blocking only on suggestive receivers.
_QUEUEISH = ("queue", "_q", "inbox", "outbox", "channel")
_POOLISH = ("pool", "executor")
_THREADISH = ("thread", "proc", "worker", "pool", "queue")
_FUTUREISH = ("future", "fut")


def _receiver_hint(node: ast.expr) -> str:
    """Lower-cased name of the call receiver, best effort."""
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    if isinstance(node, ast.Name):
        return node.id.lower()
    return ""


class LockDisciplineRule(Rule):
    """R7: locks are not held across blocking calls; order is acyclic.

    Part one flags calls that can block indefinitely while a lexically
    enclosing ``with <lock>:`` is held: ``submit``, ``sleep``, ``wait``
    always; ``result``/``get``/``put``/``join``/``map``/``shutdown``
    when the receiver's name marks it as a future, queue, thread or
    pool. Part two builds the module's static lock-order graph from
    nested (and multi-item) ``with`` blocks and reports any cycle —
    two call paths acquiring the same pair of locks in opposite order
    is the textbook ABBA deadlock.
    """

    id = "R7"
    title = "no blocking call under a held lock; acyclic lock order"
    scopes = _LIBRARY

    def check(self, ctx: ModuleContext) -> list[Violation]:
        violations = self._check_blocking(ctx)
        violations.extend(self._check_order(ctx))
        return violations

    def _check_blocking(self, ctx: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            reason = self._blocking_reason(node)
            if reason is None:
                continue
            held = _held_locks(ctx, node)
            if not held:
                continue
            violation = self._report(
                ctx,
                node,
                f"{reason} while holding {held[0]}; release the lock "
                "before crossing a blocking boundary (swap shared refs "
                "under the lock, block outside it)",
            )
            if violation:
                violations.append(violation)
        return violations

    def _blocking_reason(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                return "sleep()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        hint = _receiver_hint(func.value)
        if attr in _ALWAYS_BLOCKING:
            return f".{attr}() blocks"
        if attr == "result" and any(mark in hint for mark in _FUTUREISH):
            return ".result() blocks on a future"
        if attr in ("get", "put") and any(mark in hint for mark in _QUEUEISH):
            return f"queue .{attr}() blocks"
        if attr in ("map", "shutdown") and any(
            mark in hint for mark in _POOLISH
        ):
            return f"pool .{attr}() blocks"
        if attr == "join" and any(mark in hint for mark in _THREADISH):
            return ".join() blocks"
        return None

    def _check_order(self, ctx: ModuleContext) -> list[Violation]:
        edges: dict[str, set[str]] = {}
        witnesses: dict[tuple[str, str], ast.AST] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            outer_here = [
                _lock_label(item.context_expr)
                for item in node.items
                if _is_lock_expr(item.context_expr)
            ]
            if not outer_here:
                continue
            # Multi-item 'with a, b:' acquires left to right.
            for first, second in zip(outer_here, outer_here[1:]):
                edges.setdefault(first, set()).add(second)
                witnesses.setdefault((first, second), node)
            held = _held_locks(ctx, node)
            for inner in outer_here:
                for outer in held:
                    if outer == inner:
                        continue
                    edges.setdefault(outer, set()).add(inner)
                    witnesses.setdefault((outer, inner), node)
        cycle = self._find_cycle(edges)
        if cycle is None:
            return []
        node = witnesses.get((cycle[0], cycle[1]))
        if node is None:  # pragma: no cover - witness always recorded
            return []
        violation = self._report(
            ctx,
            node,
            "inconsistent lock acquisition order in this module: "
            + " -> ".join(cycle)
            + " forms a cycle; pick one global order and take locks in "
            "that order everywhere",
        )
        return [violation] if violation else []

    def _find_cycle(
        self, edges: dict[str, set[str]]
    ) -> list[str] | None:
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[str, int] = {}
        stack: list[str] = []

        def visit(vertex: str) -> list[str] | None:
            color[vertex] = GREY
            stack.append(vertex)
            for succ in sorted(edges.get(vertex, ())):
                state = color.get(succ, WHITE)
                if state == GREY:
                    start = stack.index(succ)
                    return stack[start:] + [succ]
                if state == WHITE:
                    found = visit(succ)
                    if found:
                        return found
            stack.pop()
            color[vertex] = BLACK
            return None

        for vertex in sorted(edges):
            if color.get(vertex, WHITE) == WHITE:
                found = visit(vertex)
                if found:
                    return found
        return None


class ProcessPoolPickleRule(Rule):
    """R8: process-pool payloads come from the sanctioned picklable set.

    Everything submitted to a ``ProcessPoolExecutor`` is pickled into
    the worker. The sanctioned payloads are the frozen ``ScannerSpec``
    / ``WorkerBundle`` dataclasses, paths, scalars and containers of
    those; memmaps, open indexes and scanners must travel by path and
    be re-opened worker-side (the attach-by-path design). The rule
    tracks which names hold process pools (constructor assignments,
    ``with`` targets, and calls to helpers annotated ``->
    ProcessPoolExecutor``) and classifies every ``submit`` argument;
    only confidently-unpicklable arguments fire. The submitted callable
    itself must be a module-level function, never a lambda, closure or
    bound method.
    """

    id = "R8"
    title = "ProcessPoolExecutor payloads must be sanctioned picklables"
    scopes = _LIBRARY

    def check(self, ctx: ModuleContext) -> list[Violation]:
        pools = self._pool_names(ctx)
        if not pools:
            return []
        module_level = self._module_level_callables(ctx)
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "submit":
                if not self._is_pool(func.value, pools):
                    continue
                violations.extend(
                    self._check_submit(ctx, node, module_level)
                )
            elif _call_name(node) == "ProcessPoolExecutor":
                violations.extend(self._check_initargs(ctx, node))
        return violations

    def _pool_names(self, ctx: ModuleContext) -> tuple[set[str], set[str]]:
        """(plain names, self attributes) statically holding pools."""
        makers = {"ProcessPoolExecutor"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                returns = node.returns
                if returns is not None and "ProcessPoolExecutor" in ast.dump(
                    returns
                ):
                    makers.add(node.name)
        names: set[str] = set()
        attrs: set[str] = set()

        def record(target: ast.expr) -> None:
            attr = _self_attribute(target)
            if attr is not None:
                attrs.add(attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)

        for node in ast.walk(ctx.tree):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.AnnAssign):
                if "ProcessPoolExecutor" in ast.dump(node.annotation):
                    record(node.target)
                continue
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and _call_name(expr) in makers
                        and item.optional_vars is not None
                    ):
                        record(item.optional_vars)
                continue
            else:
                continue
            if isinstance(value, ast.Call) and _call_name(value) in makers:
                for target in targets:
                    record(target)
        if not names and not attrs:
            return set(), set()
        return names, attrs

    def _is_pool(
        self, receiver: ast.expr, pools: tuple[set[str], set[str]]
    ) -> bool:
        names, attrs = pools
        if isinstance(receiver, ast.Name):
            return receiver.id in names
        attr = _self_attribute(receiver)
        return attr is not None and attr in attrs

    def _module_level_callables(self, ctx: ModuleContext) -> set[str]:
        names: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in stmt.names)
            elif isinstance(stmt, ast.Import):
                names.update(
                    (alias.asname or alias.name).split(".")[0]
                    for alias in stmt.names
                )
        return names

    def _check_submit(
        self, ctx: ModuleContext, call: ast.Call, module_level: set[str]
    ) -> list[Violation]:
        violations: list[Violation] = []
        if call.args:
            target = call.args[0]
            problem: str | None = None
            if isinstance(target, ast.Lambda):
                problem = "a lambda (captures its closure, unpicklable)"
            elif isinstance(target, ast.Attribute):
                problem = (
                    "a bound method or attribute (pickles the whole receiver)"
                )
            elif (
                isinstance(target, ast.Name)
                and target.id not in module_level
            ):
                problem = (
                    f"{target.id!r}, which is not a module-level function "
                    "(nested defs capture their closure)"
                )
            if problem is not None:
                violation = self._report(
                    ctx,
                    target,
                    f"process-pool submit target is {problem}; submit a "
                    "module-level function taking sanctioned picklable "
                    "arguments (ScannerSpec, WorkerBundle, paths, scalars)",
                )
                if violation:
                    violations.append(violation)
        for arg in list(call.args[1:]) + [kw.value for kw in call.keywords]:
            violations.extend(self._check_payload(ctx, arg))
        return violations

    def _check_initargs(
        self, ctx: ModuleContext, call: ast.Call
    ) -> list[Violation]:
        violations: list[Violation] = []
        for keyword in call.keywords:
            if keyword.arg != "initargs":
                continue
            values = (
                list(keyword.value.elts)
                if isinstance(keyword.value, (ast.Tuple, ast.List))
                else [keyword.value]
            )
            for value in values:
                violations.extend(self._check_payload(ctx, value))
        return violations

    def _check_payload(
        self, ctx: ModuleContext, expr: ast.expr
    ) -> list[Violation]:
        verdict, reason = self._classify(ctx, expr, depth=0)
        if verdict is False:
            violation = self._report(
                ctx,
                expr,
                f"process-pool payload {reason}; pass sanctioned "
                "picklables only (ScannerSpec, WorkerBundle, paths, "
                "scalars) and re-open heavyweight state worker-side "
                "by path",
            )
            if violation:
                return [violation]
        return []

    def _classify(
        self, ctx: ModuleContext, expr: ast.expr, depth: int
    ) -> tuple[bool | None, str]:
        """(sanctioned?, reason). ``None`` = unknown, never flagged."""
        if depth > 4:
            return None, ""
        if isinstance(expr, ast.Constant):
            return True, ""
        if isinstance(expr, ast.Lambda):
            return False, "is a lambda (closure capture)"
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                verdict, reason = self._classify(ctx, element, depth + 1)
                if verdict is False:
                    return False, reason
            return True, ""
        if isinstance(expr, ast.Starred):
            return self._classify(ctx, expr.value, depth + 1)
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                return False, f"is a numpy object from np.{func.attr}(...)"
            if name in _BANNED_PRODUCERS:
                return False, f"comes from {name}(...) (unpicklable handle)"
            if name in SANCTIONED_PICKLABLE:
                return True, ""
            return None, ""
        if isinstance(expr, ast.Name):
            return self._classify_name(ctx, expr, depth)
        attr = _self_attribute(expr)
        if attr is not None:
            return self._classify_self_attr(ctx, expr, attr, depth)
        return None, ""

    def _classify_name(
        self, ctx: ModuleContext, expr: ast.Name, depth: int
    ) -> tuple[bool | None, str]:
        function = ctx.enclosing_function(expr)
        if function is None:
            return None, ""
        verdict = self._classify_annotated_param(function, expr.id)
        if verdict is not None:
            return verdict
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == expr.id:
                    inner, reason = self._classify(ctx, node.value, depth + 1)
                    if inner is not None:
                        return inner, reason or f"({expr.id!r}) {reason}"
        return None, ""

    def _classify_annotated_param(
        self, function: ast.AST, name: str
    ) -> tuple[bool, str] | None:
        args = function.args  # type: ignore[attr-defined]
        for argument in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if argument.arg != name or argument.annotation is None:
                continue
            dump = ast.dump(argument.annotation)
            for banned in _BANNED_ANNOTATIONS:
                if banned in dump:
                    return False, (
                        f"({name!r}) is annotated {banned}, which must "
                        "not cross the process boundary"
                    )
            for fine in _SANCTIONED_ANNOTATIONS:
                if f"'{fine}'" in dump:
                    return True, ""
        return None

    def _classify_self_attr(
        self, ctx: ModuleContext, expr: ast.expr, attr: str, depth: int
    ) -> tuple[bool | None, str]:
        klass = self._enclosing_class(ctx, expr)
        if klass is None:
            return None, ""
        init = next(
            (
                stmt
                for stmt in klass.body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__"
            ),
            None,
        )
        if init is None:
            return None, ""
        for node in ast.walk(init):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            else:
                continue
            for target in targets:
                if _self_attribute(target) == attr:
                    if isinstance(value, ast.Name):
                        verdict = self._classify_annotated_param(
                            init, value.id
                        )
                        if verdict is not None:
                            return verdict
                        return None, ""
                    return self._classify(ctx, value, depth + 1)
        return None, ""

    def _enclosing_class(
        self, ctx: ModuleContext, node: ast.AST
    ) -> ast.ClassDef | None:
        current = ctx.parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = ctx.parents.get(current)
        return None


class FutureTimeoutRule(Rule):
    """R9: ``Future.result()`` always passes a timeout.

    A timeout-less ``result()`` waits forever on a worker that died
    without completing its future — a hung gather is strictly worse
    than a loud ``TimeoutError``. The rule taints every name assigned
    from a ``.submit(...)`` expression (including dict-keyed gathers
    like ``slots[pool.submit(...)] = job`` and loop targets iterating a
    tainted collection) plus anything named like a future, then flags
    tainted ``.result()`` calls carrying neither a positional deadline
    nor ``timeout=``. Deadline-managed gathers that intentionally block
    forever must say why: ``# reprolint: disable=R9``.
    """

    id = "R9"
    title = "Future.result() must pass a timeout"
    scopes = _LIBRARY

    def check(self, ctx: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        functions = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            violations.extend(self._check_function(ctx, function))
        return violations

    def _check_function(
        self, ctx: ModuleContext, function: ast.AST
    ) -> list[Violation]:
        tainted = self._tainted_names(function)
        violations: list[Violation] = []
        for node in ast.walk(function):
            if ctx.enclosing_function(node) is not function:
                continue
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "result"
            ):
                continue
            if node.args or any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if not self._is_future(node.func.value, tainted):
                continue
            violation = self._report(
                ctx,
                node,
                "Future.result() without a timeout can hang forever on a "
                "dead worker; pass timeout=<deadline> (or justify a "
                "deadline-managed gather with '# reprolint: disable=R9')",
            )
            if violation:
                violations.append(violation)
        return violations

    def _tainted_names(self, function: ast.AST) -> set[str]:
        tainted: set[str] = set()
        for _ in range(3):  # small fixpoint: submit -> container -> loop var
            before = len(tainted)
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    if self._contains_submit(node.value) or any(
                        self._contains_submit(target)
                        for target in node.targets
                    ):
                        for target in node.targets:
                            self._taint_target(target, tainted)
                    elif self._mentions_tainted(node.value, tainted):
                        for target in node.targets:
                            self._taint_target(target, tainted)
                elif isinstance(node, ast.For):
                    if self._mentions_tainted(node.iter, tainted):
                        self._taint_target(node.target, tainted)
                elif isinstance(node, ast.comprehension):
                    if self._contains_submit(node.iter) or self._mentions_tainted(
                        node.iter, tainted
                    ):
                        self._taint_target(node.target, tainted)
            if len(tainted) == before:
                break
        return tainted

    def _taint_target(self, target: ast.expr, tainted: set[str]) -> None:
        if isinstance(target, ast.Name):
            tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._taint_target(element, tainted)
        elif isinstance(target, ast.Subscript):
            self._taint_target(target.value, tainted)

    def _contains_submit(self, expr: ast.expr) -> bool:
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            for node in ast.walk(expr)
        )

    def _mentions_tainted(self, expr: ast.expr, tainted: set[str]) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id in tainted
            for node in ast.walk(expr)
        )

    def _is_future(self, receiver: ast.expr, tainted: set[str]) -> bool:
        if self._contains_submit(receiver):
            return True
        hint = _receiver_hint(receiver)
        if any(mark in hint for mark in _FUTUREISH):
            return True
        if isinstance(receiver, ast.Name):
            return receiver.id in tainted
        return False


def concurrency_rules() -> list[Rule]:
    """The concurrency rules in id order."""
    return [
        GuardedStateRule(),
        LockDisciplineRule(),
        ProcessPoolPickleRule(),
        FutureTimeoutRule(),
    ]
