"""Whole-program lock-discipline analysis over the repro codebase.

The serving layer is a genuinely concurrent system: worker threads
draining a bounded queue, a result cache with single-flight leaders and
followers, circuit breakers, and a multi-stage shutdown drain.  This
module makes the locking discipline those layers depend on *checkable*:
it parses every module under ``src/repro`` once (sharing
:class:`SourceFile` loading with the LR lint pass), builds a **lock
model** — which classes own which ``threading.Lock``/``RLock``/
``Condition`` attributes, which attributes their methods only ever
mutate while holding them — and emits the C-code diagnostic family:

* **C001** — an attribute is mutated both inside and outside its guard.
  The guard is *inferred* (every non-``__init__`` write holds the same
  lock) and may be *declared* with a ``# guarded-by: <attr>`` comment on
  the attribute's assignment, which the analyzer verifies against the
  inference.
* **C002** — a cycle in the inter-class lock-acquisition-order graph
  (potential deadlock).  Edges are recorded whenever a lock is acquired
  while another is held, including acquisitions reached through
  intra-class method calls.
* **C003** — a blocking call (pipe ``send``/``recv``, un-timed
  ``Queue.get`` / ``Event.wait`` / ``join``, ``engine.search``,
  ``time.sleep``) while holding a lock.
* **C004** — a manual ``acquire()`` without a ``try``/``finally``
  release in the same function, or a lock object escaping its owner via
  ``return``/``yield``.
* **C006** — an un-timed ``.wait()`` on the request path
  (``repro/service/``): every wait a request can reach must be bounded
  by the deadline budget.

Two discipline mechanisms keep the tree clean *and honest*:

* ``# lock-ok: C00x <justification>`` on the finding line (or the line
  above) suppresses that one finding — but only with a non-empty
  justification; a bare ``lock-ok`` keeps the finding.
* helpers documented as "caller holds the lock" are handled by **held
  inheritance**: a private method whose intra-class call sites *all*
  hold lock ``L`` is analyzed as if its body held ``L``.

The runtime side of this contract lives in
:mod:`repro.analysis.runtime`: an instrumented-lock sanitizer that
observes real acquisition order during the test suite and
cross-validates this static model (codes C002/C007/C008).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.codebase import SourceFile, default_root, load_tree
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = [
    "ClassModel",
    "ConcurrencyReport",
    "LockId",
    "LockModel",
    "LockSite",
    "SuppressedFinding",
    "WriteSite",
    "analyze_concurrency",
    "build_lock_model",
]

_LOCK_KINDS = ("Lock", "RLock", "Condition")
_INIT_METHODS = ("__init__", "__post_init__", "__new__")
_SUPPRESS_RE = re.compile(r"lock-ok:\s*(C\d{3})\b[ \t]*(.*)")
_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _find_suppression(
    source: SourceFile, lineno: int, code: str
) -> Optional["re.Match[str]"]:
    """The ``lock-ok: <code>`` marker covering *lineno*, if present.

    A marker covers the finding line itself (inline comment) or any line
    of the contiguous comment block immediately above it, so multi-line
    justifications work naturally.
    """
    match = _SUPPRESS_RE.search(source.comments.get(lineno, ""))
    if match is not None and match.group(1) == code:
        return match
    lines = source.text.splitlines()
    current = lineno - 1
    while 1 <= current <= len(lines) and lines[current - 1].lstrip().startswith(
        "#"
    ):
        match = _SUPPRESS_RE.search(source.comments.get(current, ""))
        if match is not None and match.group(1) == code:
            return match
        current -= 1
    return None

#: container methods that mutate their receiver in place
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


# ----------------------------------------------------------------------
# Model types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockId:
    """One lock *attribute* (all instances of ``owner`` share the id)."""

    owner: str
    attr: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass(frozen=True)
class LockSite:
    """Where a lock attribute is created."""

    lock: LockId
    kind: str  # Lock | RLock | Condition
    path: str  # root-relative POSIX path
    lineno: int
    via_factory: bool = False  # dataclasses field(default_factory=...)


@dataclass(frozen=True)
class WriteSite:
    """One attribute mutation and the locks lexically held around it."""

    owner: str
    attr: str
    path: str
    lineno: int
    held: FrozenSet[LockId]
    in_init: bool
    fresh: bool  # receiver constructed in the same function (unpublished)


@dataclass
class ClassModel:
    """Everything the analyzer knows about one class."""

    name: str
    module: str
    path: str
    locks: Dict[str, LockSite] = field(default_factory=dict)
    #: attr -> (declared guard lock attr, annotation line)
    annotations: Dict[str, Tuple[str, int]] = field(default_factory=dict)


@dataclass
class LockModel:
    """The whole-program lock model the C-codes are computed from."""

    classes: Dict[str, ClassModel] = field(default_factory=dict)
    writes: List[WriteSite] = field(default_factory=list)
    #: (held, acquired) -> example sites ("path:lineno")
    order_edges: Dict[Tuple[LockId, LockId], List[str]] = field(
        default_factory=dict
    )
    #: (owner class, attr) -> the locks every non-init write holds
    guards: Dict[Tuple[str, str], Tuple[LockId, ...]] = field(
        default_factory=dict
    )

    def lock_sites(self) -> List[LockSite]:
        return [
            site
            for model in self.classes.values()
            for site in model.locks.values()
        ]

    def guarding_locks(self) -> Dict[LockId, LockSite]:
        """Locks that guard at least one attribute (inferred or declared)."""
        guarding: Set[LockId] = set()
        for locks in self.guards.values():
            guarding.update(locks)
        for model in self.classes.values():
            for lock_attr, _ in model.annotations.values():
                if lock_attr in model.locks:
                    guarding.add(LockId(model.name, lock_attr))
        return {
            site.lock: site
            for site in self.lock_sites()
            if site.lock in guarding
        }


@dataclass(frozen=True)
class SuppressedFinding:
    """A finding silenced by an inline ``lock-ok`` justification."""

    diagnostic: Diagnostic
    justification: str


@dataclass
class ConcurrencyReport:
    """The outcome of one static concurrency analysis."""

    findings: List[Diagnostic]
    suppressed: List[SuppressedFinding]
    model: LockModel

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self, indent: str = "") -> str:
        lines = [f"{indent}{finding}" for finding in self.findings]
        if not lines:
            locks = len(self.model.lock_sites())
            guarded = len(self.model.guards)
            lines = [
                f"{indent}concurrency: clean ({locks} locks, "
                f"{guarded} guarded attributes, "
                f"{len(self.suppressed)} justified suppressions)"
            ]
        return "\n".join(lines)


@dataclass(frozen=True)
class _RawFinding:
    """A finding before suppression comments are applied."""

    code: str
    severity: Severity
    message: str
    source: SourceFile
    lineno: int
    hint: str = ""


@dataclass
class _MethodFacts:
    """Phase-1 facts about one method, used for inter-method reasoning."""

    acquires: Set[LockId] = field(default_factory=set)
    #: methods this one calls on ``self`` -> held sets at each call
    calls: Dict[str, List[FrozenSet[LockId]]] = field(default_factory=dict)
    blocking: bool = False


# ----------------------------------------------------------------------
# Pass 1: collect classes, lock attributes and guarded-by annotations
# ----------------------------------------------------------------------
def _lock_kind(value: ast.expr) -> Optional[Tuple[str, bool]]:
    """``(kind, via_factory)`` when *value* creates a threading lock."""
    if isinstance(value, ast.Call):
        func = value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LOCK_KINDS
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
        ):
            return func.attr, False
        # dataclasses: field(default_factory=threading.Lock)
        if isinstance(func, ast.Name) and func.id == "field" or (
            isinstance(func, ast.Attribute) and func.attr == "field"
        ):
            for keyword in value.keywords:
                if keyword.arg != "default_factory":
                    continue
                factory = keyword.value
                if (
                    isinstance(factory, ast.Attribute)
                    and factory.attr in _LOCK_KINDS
                    and isinstance(factory.value, ast.Name)
                    and factory.value.id == "threading"
                ):
                    return factory.attr, True
    return None


def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The class a parameter annotation names, if syntactically simple."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.strip().rsplit(".", 1)[-1] or None
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def _stmt_lines(stmt: ast.stmt) -> Iterable[int]:
    end = getattr(stmt, "end_lineno", None) or stmt.lineno
    return range(stmt.lineno, end + 1)


def _collect_classes(
    sources: Sequence[SourceFile], rel: Dict[str, str]
) -> Dict[str, ClassModel]:
    classes: Dict[str, ClassModel] = {}
    for source in sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            model = ClassModel(
                name=node.name, module=source.module, path=rel[source.posix]
            )
            for stmt in node.body:
                _collect_class_stmt(model, source, rel, stmt)
            for method in node.body:
                if isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    for stmt in method.body:
                        _collect_method_stmt(model, source, rel, stmt)
            classes[node.name] = model
    return classes


def _collect_class_stmt(
    model: ClassModel,
    source: SourceFile,
    rel: Dict[str, str],
    stmt: ast.stmt,
) -> None:
    """Class-body statement: dataclass fields and class-level locks."""
    target: Optional[str] = None
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        target, value = stmt.target.id, stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
        stmt.targets[0], ast.Name
    ):
        target, value = stmt.targets[0].id, stmt.value
    if target is None:
        return
    if value is not None:
        kind = _lock_kind(value)
        if kind is not None:
            model.locks[target] = LockSite(
                lock=LockId(model.name, target),
                kind=kind[0],
                path=rel[source.posix],
                lineno=stmt.lineno,
                via_factory=kind[1],
            )
            return
    _collect_annotation(model, source, stmt, target)


def _collect_method_stmt(
    model: ClassModel,
    source: SourceFile,
    rel: Dict[str, str],
    stmt: ast.stmt,
) -> None:
    """Method-body statement: ``self.X = threading.Lock()`` and friends."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    )
    value = stmt.value
    for target in targets:
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        if value is not None:
            kind = _lock_kind(value)
            if kind is not None:
                model.locks[target.attr] = LockSite(
                    lock=LockId(model.name, target.attr),
                    kind=kind[0],
                    path=rel[source.posix],
                    lineno=stmt.lineno,
                    via_factory=kind[1],
                )
                continue
        _collect_annotation(model, source, stmt, target.attr)


def _collect_annotation(
    model: ClassModel, source: SourceFile, stmt: ast.stmt, attr: str
) -> None:
    for lineno in _stmt_lines(stmt):
        match = _GUARDED_BY_RE.search(source.comments.get(lineno, ""))
        if match is not None:
            model.annotations[attr] = (match.group(1), lineno)
            return


# ----------------------------------------------------------------------
# Pass 2: per-function analysis
# ----------------------------------------------------------------------
class _FunctionAnalyzer:
    """Walks one function body tracking the lexically held lock set."""

    def __init__(
        self,
        analysis: "_Analysis",
        source: SourceFile,
        cls: Optional[ClassModel],
        func: ast.AST,
        name: str,
        inherited: FrozenSet[LockId],
        record: bool,
    ) -> None:
        self.analysis = analysis
        self.source = source
        self.cls = cls
        self.func = func
        self.name = name
        self.inherited = inherited
        self.record = record
        self.facts = _MethodFacts()
        self.in_init = name in _INIT_METHODS
        self.bindings: Dict[str, str] = {}
        self.aliases: Dict[str, LockId] = {}
        self.fresh: Set[str] = set()
        self.manual_acquires: List[Tuple[LockId, int]] = []
        self.released_in_finally: Set[LockId] = set()
        self._collect_bindings()

    # -- environment ---------------------------------------------------
    def _collect_bindings(self) -> None:
        args = getattr(self.func, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                bound = _annotation_class(arg.annotation)
                if bound is not None and bound in self.analysis.classes:
                    self.bindings[arg.arg] = bound
        for node in ast.walk(self.func):  # flow-insensitive, deliberately
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = node.value
                    if (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in self.analysis.classes
                    ):
                        self.bindings[target.id] = value.func.id
                        self.fresh.add(target.id)
                    else:
                        alias = self._self_lock(value)
                        if alias is not None:
                            self.aliases[target.id] = alias
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id != "self"
                and node.value.id not in self.bindings
            ):
                owner = self.analysis.unique_lock_owner.get(node.attr)
                if owner is not None:
                    self.bindings[node.value.id] = owner

    def _self_lock(self, expr: ast.expr) -> Optional[LockId]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.cls is not None
            and expr.attr in self.cls.locks
        ):
            return LockId(self.cls.name, expr.attr)
        return None

    def resolve_lock(self, expr: ast.expr) -> Optional[LockId]:
        """The :class:`LockId` an expression refers to, if resolvable."""
        direct = self._self_lock(expr)
        if direct is not None:
            return direct
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base = expr.value.id
            if base == "self":
                return None
            bound = self.bindings.get(base)
            if bound is not None:
                owner = self.analysis.classes.get(bound)
                if owner is not None and expr.attr in owner.locks:
                    return LockId(bound, expr.attr)
                return None
            unique = self.analysis.unique_lock_owner.get(expr.attr)
            if unique is not None:
                return LockId(unique, expr.attr)
        if isinstance(expr, ast.Name):
            return self.aliases.get(expr.id)
        return None

    def _receiver(self, expr: ast.expr) -> Tuple[Optional[str], bool]:
        """(owning class, receiver-is-fresh) for an attribute receiver."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return (self.cls.name if self.cls else None), False
            return self.bindings.get(expr.id), expr.id in self.fresh
        return None, False

    def site(self, lineno: int) -> str:
        return f"{self.analysis.rel[self.source.posix]}:{lineno}"

    # -- main walk -----------------------------------------------------
    def run(self) -> None:
        body = getattr(self.func, "body", [])
        self._walk_body(body, tuple(sorted(self.inherited, key=str)))
        for lock, lineno in self.manual_acquires:
            if lock not in self.released_in_finally:
                self._finding(
                    "C004",
                    Severity.ERROR,
                    f"manual {lock}.acquire() without a try/finally "
                    f"release in {self.name}()",
                    lineno,
                    hint="release in a finally block, or use 'with'",
                )

    def _walk_body(
        self, stmts: Sequence[ast.stmt], held: Tuple[LockId, ...]
    ) -> None:
        pending: Set[LockId] = set()
        for stmt in stmts:
            self._scan_statement(stmt, held, pending)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # nested functions run later (thread targets, closures):
                # no lock held here is guaranteed to be held there
                self.analysis.analyze_function(
                    self.source, self.cls, stmt, stmt.name,
                    frozenset(), self.record,
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                continue  # local classes are out of scope
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = []
                for item in stmt.items:
                    lock = self.resolve_lock(item.context_expr)
                    if lock is not None:
                        self._acquire(lock, held + tuple(acquired), stmt.lineno)
                        acquired.append(lock)
                self._walk_body(stmt.body, held + tuple(acquired))
            elif isinstance(stmt, ast.Try):
                released = self._finally_releases(stmt.finalbody)
                self.released_in_finally.update(released)
                extra = tuple(
                    lock for lock in released if lock in pending
                )
                inner = held + extra
                self._walk_body(stmt.body, inner)
                for handler in stmt.handlers:
                    self._walk_body(handler.body, inner)
                self._walk_body(stmt.orelse, inner)
                self._walk_body(stmt.finalbody, held)
                pending.difference_update(extra)
            else:
                for field_name in ("body", "orelse", "cases"):
                    children = getattr(stmt, field_name, None)
                    if not children:
                        continue
                    if field_name == "cases":  # match statement
                        for case in children:
                            self._walk_body(case.body, held)
                    else:
                        self._walk_body(children, held)

    def _finally_releases(
        self, finalbody: Sequence[ast.stmt]
    ) -> Set[LockId]:
        released: Set[LockId] = set()
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"
                ):
                    lock = self.resolve_lock(node.func.value)
                    if lock is not None:
                        released.add(lock)
        return released

    # -- statement-level scanning --------------------------------------
    def _scan_statement(
        self,
        stmt: ast.stmt,
        held: Tuple[LockId, ...],
        pending: Set[LockId],
    ) -> None:
        self._record_writes(stmt, held)
        for node in _expression_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            self._scan_call(node, held, pending)

    def _record_writes(
        self, stmt: ast.stmt, held: Tuple[LockId, ...]
    ) -> None:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            for receiver, attr in _write_targets(target):
                self._write(receiver, attr, stmt.lineno, held)

    def _write(
        self,
        receiver: ast.expr,
        attr: str,
        lineno: int,
        held: Tuple[LockId, ...],
    ) -> None:
        owner, fresh = self._receiver(receiver)
        if owner is None or not self.record:
            return
        self.analysis.model.writes.append(
            WriteSite(
                owner=owner,
                attr=attr,
                path=self.analysis.rel[self.source.posix],
                lineno=lineno,
                held=frozenset(held),
                in_init=self.in_init and owner == (
                    self.cls.name if self.cls else None
                ),
                fresh=fresh,
            )
        )

    def _scan_call(
        self,
        call: ast.Call,
        held: Tuple[LockId, ...],
        pending: Set[LockId],
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        # container mutations count as attribute writes
        if func.attr in _MUTATORS and isinstance(func.value, ast.Attribute):
            self._write(
                func.value.value, func.value.attr, call.lineno, held
            )
        # manual lock management
        if func.attr == "acquire":
            lock = self.resolve_lock(func.value)
            if lock is not None:
                self._acquire(lock, held, call.lineno)
                self.manual_acquires.append((lock, call.lineno))
                pending.add(lock)
                return
        # intra-class calls (held inheritance + acquisition closure)
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.cls is not None
        ):
            self.facts.calls.setdefault(func.attr, []).append(
                frozenset(held)
            )
            if held and self.record:
                callee = self.analysis.closure_acquires.get(
                    (self.cls.name, func.attr), set()
                )
                for acquired in callee:
                    for holder in held:
                        self._edge(holder, acquired, call.lineno)
                if self.analysis.may_block.get(
                    (self.cls.name, func.attr), False
                ):
                    self._finding(
                        "C003",
                        Severity.WARNING,
                        f"call to self.{func.attr}() (which performs "
                        f"blocking I/O) while holding "
                        f"{_held_names(held)}",
                        call.lineno,
                        hint="move the call outside the lock",
                    )
        reason = _blocking_reason(call)
        if reason is not None:
            self.facts.blocking = True
            if held and self.record:
                self._finding(
                    "C003",
                    Severity.WARNING,
                    f"blocking {reason} while holding {_held_names(held)}",
                    call.lineno,
                    hint="move the blocking call outside the lock",
                )
            if (
                self.record
                and reason.startswith("un-timed wait")
                and "repro/service/" in self.source.posix
            ):
                self._finding(
                    "C006",
                    Severity.WARNING,
                    "un-timed wait() on the request path",
                    call.lineno,
                    hint="bound the wait with the request deadline",
                )

    def _acquire(
        self, lock: LockId, held: Tuple[LockId, ...], lineno: int
    ) -> None:
        self.facts.acquires.add(lock)
        if not self.record:
            return
        for holder in held:
            self._edge(holder, lock, lineno)

    def _edge(self, holder: LockId, acquired: LockId, lineno: int) -> None:
        if holder == acquired:
            return
        sites = self.analysis.model.order_edges.setdefault(
            (holder, acquired), []
        )
        site = self.site(lineno)
        if site not in sites:
            sites.append(site)

    def _finding(
        self,
        code: str,
        severity: Severity,
        message: str,
        lineno: int,
        hint: str = "",
    ) -> None:
        if self.record:
            self.analysis.raw_findings.append(
                _RawFinding(code, severity, message, self.source, lineno, hint)
            )

    def finish(self) -> None:
        """Findings that need the whole function analyzed first."""
        if not self.record:
            return
        # lock escape: returning/yielding a lock hands it to strangers
        for node in ast.walk(self.func):
            if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
                lock = self._self_lock(node.value)
                if lock is not None:
                    self._finding(
                        "C004",
                        Severity.ERROR,
                        f"{lock} escapes its owner via "
                        f"{type(node).__name__.lower()} in {self.name}()",
                        node.lineno,
                        hint="expose an operation, not the lock",
                    )


def _write_targets(
    target: ast.expr,
) -> Iterable[Tuple[ast.expr, str]]:
    """(receiver, attribute) pairs a store target mutates."""
    if isinstance(target, ast.Attribute):
        yield target.value, target.attr
    elif isinstance(target, ast.Subscript):
        if isinstance(target.value, ast.Attribute):
            yield target.value.value, target.value.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _write_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _write_targets(target.value)


def _expression_nodes(stmt: ast.stmt) -> Iterable[ast.AST]:
    """Every expression node directly owned by *stmt* (not by nested
    statements — those are walked with their own held set)."""
    stack = [
        child
        for child in ast.iter_child_nodes(stmt)
        if not isinstance(child, (ast.stmt, ast.ExceptHandler))
    ]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.stmt, ast.ExceptHandler))
        )


def _terminal_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _untimed(call: ast.Call) -> bool:
    """True when the call has no bounding timeout argument."""
    timeout_kw = next(
        (kw for kw in call.keywords if kw.arg in ("timeout", "block")), None
    )
    if timeout_kw is not None:
        return (
            isinstance(timeout_kw.value, ast.Constant)
            and timeout_kw.value.value is None
        )
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return True


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    receiver = _terminal_name(func.value).lower()
    pipe_like = any(tag in receiver for tag in ("conn", "pipe", "sock"))
    if attr in ("send", "recv") and pipe_like:
        return f"pipe {attr}()"
    if attr == "poll" and pipe_like and _untimed(call):
        return "un-timed pipe poll()"
    if attr == "get" and "queue" in receiver and _untimed(call):
        return "un-timed queue get()"
    if attr == "wait" and _untimed(call):
        return "un-timed wait()"
    if attr == "join" and not call.args and not call.keywords:
        return "un-timed join()"
    if attr.startswith("search") and "engine" in receiver:
        return f"engine {attr}()"
    if attr == "sleep" and receiver == "time":
        return "time.sleep()"
    return None


def _held_names(held: Tuple[LockId, ...]) -> str:
    return ", ".join(str(lock) for lock in held)


# ----------------------------------------------------------------------
# The analysis driver
# ----------------------------------------------------------------------
class _Analysis:
    def __init__(self, sources: Sequence[SourceFile], root: Path) -> None:
        self.sources = sources
        self.root = root
        self.rel = {
            source.posix: _relative(source.path, root)
            for source in sources
        }
        self.classes = _collect_classes(sources, self.rel)
        self.unique_lock_owner: Dict[str, str] = {}
        owners: Dict[str, List[str]] = {}
        for model in self.classes.values():
            for attr in model.locks:
                owners.setdefault(attr, []).append(model.name)
        for attr, names in owners.items():
            if len(names) == 1:
                self.unique_lock_owner[attr] = names[0]
        self.model = LockModel(classes=self.classes)
        self.raw_findings: List[_RawFinding] = []
        self.phase1: Dict[Tuple[str, str], _MethodFacts] = {}
        self.closure_acquires: Dict[Tuple[str, str], Set[LockId]] = {}
        self.may_block: Dict[Tuple[str, str], bool] = {}

    def analyze_function(
        self,
        source: SourceFile,
        cls: Optional[ClassModel],
        func: ast.AST,
        name: str,
        inherited: FrozenSet[LockId],
        record: bool,
    ) -> _MethodFacts:
        analyzer = _FunctionAnalyzer(
            self, source, cls, func, name, inherited, record
        )
        analyzer.run()
        analyzer.finish()
        return analyzer.facts

    # -- phases --------------------------------------------------------
    def run(self) -> None:
        methods = self._enumerate_methods()
        # phase 1: facts only (no findings recorded)
        for source, cls, func, name in methods:
            facts = self.analyze_function(
                source, cls, func, name, frozenset(), record=False
            )
            key = (cls.name if cls else "", name)
            self.phase1[key] = facts
        self._close_acquires()
        inherited = self._inherited_held()
        # phase 2: full analysis with inherited held sets
        for source, cls, func, name in methods:
            key = (cls.name if cls else "", name)
            self.analyze_function(
                source, cls, func, name,
                inherited.get(key, frozenset()), record=True,
            )
        self._check_guards()
        self._check_cycles()

    def _enumerate_methods(
        self,
    ) -> List[Tuple[SourceFile, Optional[ClassModel], ast.AST, str]]:
        methods: List[
            Tuple[SourceFile, Optional[ClassModel], ast.AST, str]
        ] = []
        for source in self.sources:
            for stmt in source.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append((source, None, stmt, stmt.name))
                elif isinstance(stmt, ast.ClassDef):
                    cls = self.classes.get(stmt.name)
                    for member in stmt.body:
                        if isinstance(
                            member, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            methods.append(
                                (source, cls, member, member.name)
                            )
        return methods

    def _close_acquires(self) -> None:
        """Fixed point: locks a method may acquire through self-calls."""
        closure = {
            key: set(facts.acquires) for key, facts in self.phase1.items()
        }
        blocking = {
            key: facts.blocking for key, facts in self.phase1.items()
        }
        changed = True
        while changed:
            changed = False
            for key, facts in self.phase1.items():
                for callee_name in facts.calls:
                    callee = (key[0], callee_name)
                    if callee not in closure:
                        continue
                    before = len(closure[key])
                    closure[key].update(closure[callee])
                    if len(closure[key]) != before:
                        changed = True
                    if blocking[callee] and not blocking[key]:
                        blocking[key] = True
                        changed = True
        self.closure_acquires = closure
        self.may_block = blocking

    def _inherited_held(self) -> Dict[Tuple[str, str], FrozenSet[LockId]]:
        """Locks every intra-class call site of a private method holds.

        Computed to a fixed point so inheritance flows through chains of
        "caller holds the lock" helpers (``load`` -> ``_ensure_fresh``
        -> ``_materialize``): a call site contributes the locks it holds
        lexically *plus* whatever its own method inherited.
        """
        call_sites: Dict[
            Tuple[str, str], List[Tuple[Tuple[str, str], FrozenSet[LockId]]]
        ] = {}
        for caller_key, facts in self.phase1.items():
            for callee_name, held_sets in facts.calls.items():
                callee_key = (caller_key[0], callee_name)
                for held in held_sets:
                    call_sites.setdefault(callee_key, []).append(
                        (caller_key, held)
                    )
        candidates = [
            key
            for key, method in (
                (key, key[1]) for key in call_sites
            )
            if key in self.phase1
            and method.startswith("_")
            and not (method.startswith("__") and method.endswith("__"))
        ]
        inherited: Dict[Tuple[str, str], FrozenSet[LockId]] = {}
        changed = True
        while changed:
            changed = False
            for key in candidates:
                common = frozenset.intersection(
                    *[
                        held | inherited.get(caller_key, frozenset())
                        for caller_key, held in call_sites[key]
                    ]
                )
                if common != inherited.get(key, frozenset()):
                    inherited[key] = common
                    changed = True
        return {key: held for key, held in inherited.items() if held}

    # -- C001: guard discipline ---------------------------------------
    def _check_guards(self) -> None:
        by_attr: Dict[Tuple[str, str], List[WriteSite]] = {}
        for write in self.model.writes:
            if write.in_init or write.fresh:
                continue
            by_attr.setdefault((write.owner, write.attr), []).append(write)
        source_by_rel = {
            self.rel[source.posix]: source for source in self.sources
        }
        for (owner, attr), writes in sorted(by_attr.items()):
            cls = self.classes.get(owner)
            declared: Optional[LockId] = None
            if cls is not None and attr in cls.annotations:
                lock_attr, ann_line = cls.annotations[attr]
                if lock_attr not in cls.locks:
                    source = source_by_rel.get(cls.path)
                    if source is not None:
                        self.raw_findings.append(
                            _RawFinding(
                                "C001",
                                Severity.ERROR,
                                f"guarded-by annotation on {owner}.{attr} "
                                f"names unknown lock {lock_attr!r}",
                                source,
                                ann_line,
                            )
                        )
                else:
                    declared = LockId(owner, lock_attr)
            locked = [write for write in writes if write.held]
            unlocked = [write for write in writes if not write.held]
            if declared is not None:
                for write in writes:
                    if declared not in write.held:
                        self._guard_finding(
                            write,
                            f"{owner}.{attr} is declared guarded-by "
                            f"{declared.attr} but written without it",
                            source_by_rel,
                        )
                if all(declared in write.held for write in writes):
                    self.model.guards[(owner, attr)] = (declared,)
                continue
            if locked and unlocked:
                for write in unlocked:
                    guards = sorted(
                        set.intersection(
                            *[set(write.held) for write in locked]
                        )
                        or set.union(*[set(write.held) for write in locked]),
                        key=str,
                    )
                    self._guard_finding(
                        write,
                        f"{owner}.{attr} is written under "
                        f"{_held_names(tuple(guards))} elsewhere but "
                        f"written here without any lock",
                        source_by_rel,
                    )
            elif locked:
                common = frozenset.intersection(
                    *[write.held for write in locked]
                )
                own = tuple(
                    sorted(
                        (lock for lock in common if lock.owner == owner),
                        key=str,
                    )
                ) or tuple(sorted(common, key=str))
                if own:
                    self.model.guards[(owner, attr)] = own

    def _guard_finding(
        self,
        write: WriteSite,
        message: str,
        source_by_rel: Dict[str, SourceFile],
    ) -> None:
        source = source_by_rel.get(write.path)
        if source is None:  # pragma: no cover - writes come from sources
            return
        self.raw_findings.append(
            _RawFinding(
                "C001",
                Severity.ERROR,
                message,
                source,
                write.lineno,
                hint="hold the guard for every mutation, or justify with "
                "'# lock-ok: C001 <reason>'",
            )
        )

    # -- C002: lock-order cycles ---------------------------------------
    def _check_cycles(self) -> None:
        graph: Dict[LockId, Set[LockId]] = {}
        for (holder, acquired) in self.model.order_edges:
            graph.setdefault(holder, set()).add(acquired)
        reported: Set[FrozenSet[LockId]] = set()
        for start in sorted(graph, key=str):
            cycle = _find_cycle(graph, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            edge = (cycle[0], cycle[1 % len(cycle)])
            sites = self.model.order_edges.get(edge, [])
            source, lineno = self._site_source(sites)
            if source is None:
                continue
            path = " -> ".join(str(lock) for lock in cycle + [cycle[0]])
            self.raw_findings.append(
                _RawFinding(
                    "C002",
                    Severity.ERROR,
                    f"lock-acquisition-order cycle: {path}",
                    source,
                    lineno,
                    hint="impose a global acquisition order",
                )
            )

    def _site_source(
        self, sites: Sequence[str]
    ) -> Tuple[Optional[SourceFile], int]:
        source_by_rel = {
            self.rel[source.posix]: source for source in self.sources
        }
        for site in sites:
            path, _, lineno = site.rpartition(":")
            source = source_by_rel.get(path)
            if source is not None:
                return source, int(lineno)
        return None, 0

    # -- suppression ---------------------------------------------------
    def finalize(self) -> ConcurrencyReport:
        findings: List[Diagnostic] = []
        suppressed: List[SuppressedFinding] = []
        ordered = sorted(
            self.raw_findings,
            key=lambda raw: (raw.source.posix, raw.lineno, raw.code),
        )
        for raw in ordered:
            diagnostic = Diagnostic(
                code=raw.code,
                severity=raw.severity,
                message=raw.message,
                location=(
                    f"{self.rel[raw.source.posix]}:{raw.lineno}"
                ),
                hint=raw.hint,
            )
            match = _find_suppression(raw.source, raw.lineno, raw.code)
            if match is not None:
                justification = match.group(2).strip()
                if justification:
                    suppressed.append(
                        SuppressedFinding(diagnostic, justification)
                    )
                    continue
                diagnostic = Diagnostic(
                    code=raw.code,
                    severity=raw.severity,
                    message=raw.message
                    + " (lock-ok suppression needs a justification)",
                    location=diagnostic.location,
                    hint=raw.hint,
                )
            findings.append(diagnostic)
        return ConcurrencyReport(
            findings=findings, suppressed=suppressed, model=self.model
        )


def _find_cycle(
    graph: Dict[LockId, Set[LockId]], start: LockId
) -> Optional[List[LockId]]:
    """A simple cycle reachable from *start*, as the node list, if any."""
    path: List[LockId] = []
    on_path: Set[LockId] = set()
    visited: Set[LockId] = set()

    def visit(node: LockId) -> Optional[List[LockId]]:
        if node in on_path:
            index = path.index(node)
            return path[index:]
        if node in visited:
            return None
        visited.add(node)
        path.append(node)
        on_path.add(node)
        for neighbor in sorted(graph.get(node, ()), key=str):
            found = visit(neighbor)
            if found is not None:
                return found
        path.pop()
        on_path.discard(node)
        return None

    return visit(start)


def _relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.parent).as_posix()
    except ValueError:
        return path.as_posix()


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def build_lock_model(
    root: Optional[Path] = None,
    sources: Optional[Sequence[SourceFile]] = None,
) -> LockModel:
    """The lock model of the tree under *root* (default: ``src/repro``)."""
    return analyze_concurrency(root=root, sources=sources).model


def analyze_concurrency(
    root: Optional[Path] = None,
    sources: Optional[Sequence[SourceFile]] = None,
) -> ConcurrencyReport:
    """Run the static concurrency pass and return its report."""
    base = root if root is not None else default_root()
    if sources is None:
        sources = load_tree(base)
    analysis = _Analysis(sources, base)
    analysis.run()
    return analysis.finalize()
