"""Codebase-level static analysis: shared AST loading plus the LR rules.

This module is the *codebase gate* CI runs as ``python -m
repro.analysis.codebase``.  It has two layers:

* a shared loader — :func:`load_tree` parses every module under a
  package root once into :class:`SourceFile` values (AST, module name,
  comment map), which every rule below walks;
* the LR rule family, project-specific discipline checks:

  * **LR001** — no bare ``except:`` clauses: always name the exceptions a
    handler is prepared for.
  * **LR002** — ``Tracer()`` may only be constructed at the pipeline
    entry points (engine, CLI, observability, experiments, benchmarks,
    tests); everything else must accept a tracer parameter so spans nest
    into one trace instead of being silently dropped.
  * **LR003** — no string-literal subscripts on row variables outside
    ``repro.relational``: row layout is that package's private concern,
    other layers go through schemas and executors.
  * **LR004** — module-level import layering: lower layers must not
    import upper layers (``repro.sql`` must not know about patterns or
    engines, ``repro.fd`` only depends on itself and errors, and so on).
    Lazy imports inside functions are exempt — they are how intentional
    back-references (executor -> analysis) avoid cycles.
  * **LR005** — every ``threading.Thread(...)`` construction must pass
    both ``name=`` and ``daemon=``: anonymous threads make deadlock
    dumps unreadable, and forgotten non-daemon threads hang interpreter
    shutdown.  ``repro/service/`` is exempt — it is the one layer whose
    whole job is thread lifecycle, and it names everything anyway.
  * **LR006** — ``sqlite3`` may only be imported (at any nesting level)
    inside ``repro/backends/``: every other layer goes through the
    :class:`~repro.backends.base.Backend` protocol, so the RDBMS
    dependency stays swappable.
  * **LR008** — raw file-I/O primitives — binary-mode ``open``,
    ``mmap``, and the ``os.pread``/``os.pwrite`` family — may only be
    used inside ``repro/storage/``: page layout, torn-write handling and
    buffer-pool accounting live in the storage engine, and everything
    else reads bytes through it (or sticks to text-mode files).
  * **LR009** — the cost model and statistics sampling stay inside
    ``repro/planner/``: ``random`` may only be imported there (and in
    ``repro/datasets/``, whose synthetic generators legitimately draw
    values), and ``*_COST_PARAMS`` constants may only be *defined* in
    the planner package — other layers import
    :func:`repro.planner.params_for_backend` instead of forking their
    own coefficients, so calibration happens in exactly one place.
  * **LR010** — no database-wide version: a ``*Database`` class, or the
    disk tier's ``StorageEngine`` (the database its executor reads), may
    not define a ``version`` (or ``<anything>_version``) member, and
    nothing may read one off a ``database`` / ``db``.  Everything derived from
    table data keys on the versions of the tables it reads
    (``Table.version``, ``Database.versions(names)``); one key for the
    whole database made a write to one table rebuild every index,
    profile, plan and backend copy of all the others.
  * **LR011** — declared guards hold: an attribute whose assignment
    carries ``# guarded-by: <lock>`` is written outside the constructor
    only inside ``with self.<lock>:``, or inside a private helper whose
    same-class call sites all hold that lock (to a fixed point, so
    "caller holds the lock" chains need no declaration of their own).
  * **LR012** — nothing blocks under a declared lock: no
    ``time.sleep()``, un-timed ``wait()`` / queue ``get()`` or bare
    ``join()`` while a lock the class declares as a guard is held.
  * **LR013** — every wait on the request path (``repro/service/``) is
    bounded: no un-timed ``wait()``, queue ``get()`` or bare ``join()``
    there, held lock or not, so a request's deadline covers all of it.

  * **LR014** — the value indexes stay inside ``repro/relational/``: no
    other module names ``text_index``, ``numeric_index``,
    ``match_phrase``, ``match_number``, ``positions_for_contains``,
    ``positions_for_value`` or ``tokens_with_prefix`` (as an attribute,
    a variable or an import).  Matching, counting and completion ask the
    database (``hits``, ``candidates``, ``completions``), the calls the
    disk tier can answer too.  Prose — a docstring's cross-reference —
    names nothing.

  Lock *order* needs no static rule: the runtime sanitizer
  (:mod:`repro.analysis.runtime`) watches every lock the package creates
  and sees the calls across classes that a per-class parse cannot.

Findings are plain ``(path, lineno, code, message)`` tuples for the CLI.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = [
    "Finding",
    "SourceFile",
    "default_root",
    "lint_file",
    "lint_tree",
    "load_source_file",
    "load_tree",
    "main",
    "module_name",
]

#: One lint finding: file, line, rule code, human message.
Finding = Tuple[Path, int, str, str]


# ----------------------------------------------------------------------
# Shared source loading (one parse per file, reused by every pass)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceFile:
    """One parsed module: everything an AST pass needs, parsed once."""

    path: Path
    posix: str  # POSIX-style path string, for allowlist substring matches
    module: str  # dotted module name relative to the package root
    text: str
    tree: ast.Module
    comments: Dict[int, str]  # lineno -> comment text (without the '#')


def default_root() -> Path:
    """The package directory analyses default to: ``src/repro``."""
    return Path(__file__).resolve().parent.parent


def module_name(root: Path, path: Path) -> str:
    relative = path.relative_to(root.parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _comment_map(text: str) -> Dict[int, str]:
    """lineno -> comment text for every ``#`` comment in *text*."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        pass
    return comments


def load_source_file(root: Path, path: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    return SourceFile(
        path=path,
        posix=path.as_posix(),
        module=module_name(root, path),
        text=text,
        tree=ast.parse(text, filename=str(path)),
        comments=_comment_map(text),
    )


def load_tree(root: Optional[Path] = None) -> List[SourceFile]:
    """Parse every ``*.py`` under *root* (default: the repro package)."""
    base = root if root is not None else default_root()
    return [load_source_file(base, path) for path in sorted(base.rglob("*.py"))]


# ----------------------------------------------------------------------
# LR rule configuration
# ----------------------------------------------------------------------
# file path substrings (POSIX style) where Tracer() construction is fine
TRACER_ALLOWED = (
    "repro/cli.py",
    "repro/engine.py",
    "repro/observability/",
    "repro/experiments/",
    "repro/analysis/check.py",
    # the differential harness is a pipeline entry point (`repro diff`)
    "repro/backends/differential.py",
    # the service is a pipeline entry point: one tracer per request
    "repro/service/",
)

# file path substrings where importing sqlite3 is allowed (LR006): the
# backend package owns the one RDBMS dependency
SQLITE_ALLOWED = ("repro/backends/",)

# file path substrings where raw file I/O (binary open, mmap, os.pread /
# os.pwrite family) is allowed (LR008): the paged storage engine owns
# byte-level file access
STORAGE_IO_ALLOWED = ("repro/storage/",)

# os.* positioned-I/O functions confined by LR008
_STORAGE_IO_OS_FUNCS = ("pread", "pwrite", "preadv", "pwritev")

# file path substrings where importing random is allowed (LR009): the
# planner samples for statistics, the dataset generators draw values
RANDOM_ALLOWED = ("repro/planner/", "repro/datasets/")

# LR010: member names that are one version for a whole database
# ("versions", the per-table accessor, is not one), and the names a
# database goes by where it is read
_WHOLE_VERSION_RE = re.compile(r"(^|_)version$")
_DATABASE_NAMES = ("database", "db")
# classes an executor reads as its database beside the ``*Database`` ones
_DATABASE_CLASSES = ("StorageEngine",)

# LR014: names of the value indexes' internals, and the package that
# may use them; everything else asks the database
INDEX_INTERNALS = frozenset(
    (
        "text_index",
        "numeric_index",
        "match_phrase",
        "match_number",
        "positions_for_contains",
        "positions_for_value",
        "tokens_with_prefix",
    )
)
INDEX_INTERNALS_ALLOWED = ("repro/relational/",)

# module-level constant-name suffix the cost model owns (LR009)
_COST_CONSTANT_SUFFIX = "_COST_PARAMS"

# variable names treated as raw rows for LR003
ROW_NAMES = ("row", "rows", "tuple_row", "record")

# file path substrings where LR005 (named, explicit-daemon threads) is
# not enforced: the serving layer owns thread lifecycle
THREAD_RULE_EXEMPT = ("repro/service/",)

# (file substring, forbidden prefix) pairs exempt from LR004: justified
# cross-layer dependencies, each with a reason
LAYERING_EXEMPT = (
    # FD discovery profiles table *data*; the fd core stays relational-free
    ("repro/fd/discovery.py", "repro.relational"),
)

# package -> module prefixes it must NOT import at module level
LAYERING: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "repro.sql",
        (
            "repro.patterns",
            "repro.engine",
            "repro.unnormalized",
            "repro.keywords",
            "repro.orm",
            "repro.analysis",
            "repro.planner",
        ),
    ),
    (
        "repro.fd",
        (
            "repro.sql",
            "repro.patterns",
            "repro.engine",
            "repro.relational",
            "repro.unnormalized",
            "repro.keywords",
            "repro.orm",
            "repro.analysis",
            "repro.observability",
            "repro.planner",
        ),
    ),
    (
        "repro.observability",
        (
            "repro.sql",
            "repro.patterns",
            "repro.engine",
            "repro.relational",
            "repro.unnormalized",
            "repro.keywords",
            "repro.orm",
            "repro.fd",
            "repro.analysis",
            "repro.planner",
        ),
    ),
    (
        "repro.relational",
        (
            "repro.patterns",
            "repro.engine",
            "repro.keywords",
            "repro.unnormalized",
            "repro.analysis",
            # the executor consumes the planner lazily (plan-time import
            # inside a property); module level stays one-directional
            "repro.planner",
        ),
    ),
    (
        "repro.planner",
        (
            "repro.patterns",
            "repro.engine",
            "repro.keywords",
            "repro.orm",
            "repro.unnormalized",
            "repro.analysis",
            "repro.backends",
            "repro.service",
            "repro.experiments",
            "repro.baselines",
        ),
    ),
    (
        "repro.analysis",
        ("repro.engine", "repro.experiments", "repro.baselines"),
    ),
)


# ----------------------------------------------------------------------
# LR rule implementation (one walk per file)
# ----------------------------------------------------------------------
def _is_thread_constructor(func: ast.expr) -> bool:
    """True for ``Thread(...)`` and ``threading.Thread(...)`` calls."""
    if isinstance(func, ast.Name):
        return func.id == "Thread"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "Thread"
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    )


def iter_module_level_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """(line, imported module) for imports outside any function body."""

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: List[Tuple[int, str]] = []
            self.depth = 0

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Import(self, node: ast.Import) -> None:
            if self.depth == 0:
                for alias in node.names:
                    self.found.append((node.lineno, alias.name))

        def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
            if self.depth == 0 and node.module:
                self.found.append((node.lineno, node.module))

    visitor = Visitor()
    visitor.visit(tree)
    return iter(visitor.found)


def _imported_names(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def _confined_import(
    source: SourceFile,
    node: ast.AST,
    target: str,
    allowed: Tuple[str, ...],
    code: str,
    message: str,
    findings: List[Finding],
) -> None:
    """Flag imports of *target* outside the *allowed* path substrings."""
    if any(part in source.posix for part in allowed):
        return
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return
    for imported in _imported_names(node):
        if imported == target or imported.startswith(target + "."):
            findings.append((source.path, node.lineno, code, message))


def _named(node: ast.AST) -> Optional[str]:
    """The name *node* uses: an attribute, a variable, an import."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.ImportFrom):
        return next((a.name for a in node.names if a.name in INDEX_INTERNALS), None)
    return None


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an ``open(...)`` call, if written as
    one (second positional argument or ``mode=`` keyword)."""
    mode: Optional[str] = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        value = node.args[1].value
        mode = value if isinstance(value, str) else None
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            mode = value if isinstance(value, str) else None
    return mode


def _database_wide_versions(node: ast.AST) -> Iterator[Tuple[int, str]]:
    """LR010: ``(lineno, member)`` for each database-wide version *node*
    defines (a member of a ``*Database`` class or a ``StorageEngine``)
    or reads (an attribute of something called ``database`` / ``db``)."""
    if isinstance(node, ast.ClassDef) and (
        node.name.endswith("Database") or node.name in _DATABASE_CLASSES
    ):
        for statement in node.body:
            names: List[str] = []
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                names = [statement.target.id]
            for name in names:
                if _WHOLE_VERSION_RE.search(name):
                    yield statement.lineno, f"{node.name}.{name}"
    if isinstance(node, ast.Attribute) and _WHOLE_VERSION_RE.search(node.attr):
        owner = node.value
        owner_name = (
            owner.id
            if isinstance(owner, ast.Name)
            else owner.attr
            if isinstance(owner, ast.Attribute)
            else ""
        )
        if owner_name.lstrip("_") in _DATABASE_NAMES:
            yield node.lineno, f"{owner_name}.{node.attr}"


# ----------------------------------------------------------------------
# Lock discipline (LR011-LR013), checked from the declarations
# ----------------------------------------------------------------------
# ``self.X = ...  # guarded-by: L`` (or a class-body field with the
# comment) declares that every write to X outside the constructor holds
# ``self.L``; the locks a class declares are the ones LR012 watches
_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_]\w*)")

# methods that run before the object is shared: their writes need no lock
_CONSTRUCTORS = ("__init__", "__post_init__")

# container methods that mutate their receiver in place
_MUTATORS = frozenset(
    "add append appendleft clear discard extend insert move_to_end pop "
    "popitem remove setdefault sort update".split()
)

# file path substrings where every wait must be bounded (LR013): the
# request path, whose waits the deadline budget has to cover
REQUEST_PATH = ("repro/service/",)

#: (what, line, the ``self.<attr>`` sections held there)
_Site = Tuple[str, int, FrozenSet[str]]


@dataclass
class _MethodFacts:
    """What one method does to ``self``, and under which ``with
    self.<attr>:`` sections it does it."""

    writes: List[_Site] = field(default_factory=list)  # attribute written
    calls: List[_Site] = field(default_factory=list)  # self.<method>() called
    blocking: List[_Site] = field(default_factory=list)  # why it blocks


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when *node* is ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_attrs(target: ast.expr) -> Iterator[str]:
    """The ``self`` attributes a store target writes (``self.X``,
    ``self.X[k]``, unpacked tuples)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written_attrs(element)
        return
    if isinstance(target, ast.Starred):
        yield from _written_attrs(target.value)
        return
    attr = _self_attr(target.value if isinstance(target, ast.Subscript) else target)
    if attr is not None:
        yield attr


def _untimed(call: ast.Call) -> bool:
    """True when a wait-like call has no bounding timeout argument."""
    for keyword in call.keywords:
        if keyword.arg in ("timeout", "block"):
            return (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            )
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return True


def _unbounded_wait(call: ast.Call) -> Optional[str]:
    """Why *call* may wait forever: an un-timed ``wait()``, queue
    ``get()`` or ``join()``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    name = (
        receiver.id
        if isinstance(receiver, ast.Name)
        else receiver.attr
        if isinstance(receiver, ast.Attribute)
        else ""
    )
    if func.attr == "wait" and _untimed(call):
        return "un-timed wait()"
    if func.attr == "get" and "queue" in name.lower() and _untimed(call):
        return "un-timed queue get()"
    if func.attr == "join" and not call.args and not call.keywords:
        return "un-timed join()"
    return None


def _blocking(call: ast.Call) -> Optional[str]:
    """Why *call* blocks: ``time.sleep()`` or an unbounded wait."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "sleep"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return "time.sleep()"
    return _unbounded_wait(call)


def _method_facts(method: ast.AST) -> _MethodFacts:
    """Walk one method body, tracking the ``with self.<attr>:`` sections
    around each statement.  A nested function runs later, so it starts
    holding nothing."""
    facts = _MethodFacts()

    def walk(statements: List[ast.stmt], held: FrozenSet[str]) -> None:
        for statement in statements:
            targets: List[ast.expr] = []
            if isinstance(statement, (ast.Assign, ast.Delete)):
                targets = list(statement.targets)
            elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                targets = [statement.target]
            for target in targets:
                facts.writes.extend(
                    (attr, statement.lineno, held) for attr in _written_attrs(target)
                )
            for child in ast.iter_child_nodes(statement):
                if not isinstance(child, (ast.expr, ast.withitem)):
                    continue
                for node in ast.walk(child):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    callee = _self_attr(func)
                    if callee is not None:
                        facts.calls.append((callee, node.lineno, held))
                    if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                        mutated = _self_attr(func.value)
                        if mutated is not None:
                            facts.writes.append((mutated, node.lineno, held))
                    reason = _blocking(node)
                    if reason is not None:
                        facts.blocking.append((reason, node.lineno, held))
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(statement.body, frozenset())
                continue
            if isinstance(statement, ast.ClassDef):
                continue
            inner = held
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                entered = (_self_attr(item.context_expr) for item in statement.items)
                inner = held | {attr for attr in entered if attr is not None}
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.stmt):
                    walk([child], inner)
                elif not isinstance(child, (ast.expr, ast.withitem)):
                    # except handlers and match cases
                    walk(getattr(child, "body", []), inner)

    walk(getattr(method, "body", []), frozenset())
    return facts


def _inherited_holds(facts: Dict[str, _MethodFacts]) -> Dict[str, FrozenSet[str]]:
    """The sections every same-class call site of each private helper
    holds, to a fixed point: a call site holds what it holds lexically
    plus what its own method inherited.  This is how "caller holds the
    lock" helpers are checked without a declaration of their own."""
    sites: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for caller, fact in facts.items():
        for callee, _, held in fact.calls:
            if callee in facts and callee.startswith("_") and not callee.endswith("__"):
                sites.setdefault(callee, []).append((caller, held))
    inherited: Dict[str, FrozenSet[str]] = {name: frozenset() for name in facts}
    changed = True
    while changed:
        changed = False
        for callee, calls in sites.items():
            common = frozenset.intersection(
                *(held | inherited[caller] for caller, held in calls)
            )
            if common != inherited[callee]:
                inherited[callee] = common
                changed = True
    return inherited


def _declared_guards(source: SourceFile, cls: ast.ClassDef) -> Dict[str, str]:
    """attribute -> lock for every ``# guarded-by:`` declaration in *cls*."""
    guards: Dict[str, str] = {}
    for statement in ast.walk(cls):
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        last = statement.end_lineno or statement.lineno
        for lineno in range(statement.lineno, last + 1):
            match = _GUARDED_BY_RE.search(source.comments.get(lineno, ""))
            if match is None:
                continue
            for target in targets:
                attr = target.id if isinstance(target, ast.Name) else _self_attr(target)
                if attr is not None:
                    guards[attr] = match.group(1)
            break
    return guards


def _lock_findings(source: SourceFile) -> List[Finding]:
    """LR011 and LR012 for every class that declares a guard."""
    findings: List[Finding] = []
    for cls in ast.walk(source.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        guards = _declared_guards(source, cls)
        if not guards:
            continue
        locks = frozenset(guards.values())
        facts = {
            method.name: _method_facts(method)
            for method in cls.body
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        inherited = _inherited_holds(facts)
        for name, fact in facts.items():
            for attr, lineno, held in fact.writes:
                lock = guards.get(attr)
                if lock is None or name in _CONSTRUCTORS:
                    continue
                if lock not in held | inherited[name]:
                    findings.append(
                        (
                            source.path,
                            lineno,
                            "LR011",
                            f"{cls.name}.{attr} is guarded-by {lock} but "
                            f"{name}() writes it without holding it",
                        )
                    )
            for reason, lineno, held in fact.blocking:
                holding = sorted(locks & (held | inherited[name]))
                if holding:
                    findings.append(
                        (
                            source.path,
                            lineno,
                            "LR012",
                            f"{reason} while holding {cls.name}."
                            f"{', '.join(holding)}; move it out of the lock",
                        )
                    )
    return findings


def analyze_source(source: SourceFile) -> List[Finding]:
    """Run every LR rule over one parsed module (a single AST walk)."""
    findings: List[Finding] = []
    posix = source.posix

    for node in ast.walk(source.tree):
        _confined_import(
            source,
            node,
            "sqlite3",
            SQLITE_ALLOWED,
            "LR006",
            "sqlite3 imported outside repro/backends/; go through the "
            "Backend protocol instead",
            findings,
        )
        _confined_import(
            source,
            node,
            "mmap",
            STORAGE_IO_ALLOWED,
            "LR008",
            "mmap imported outside repro/storage/; byte-level file "
            "access belongs to the storage engine",
            findings,
        )
        _confined_import(
            source,
            node,
            "random",
            RANDOM_ALLOWED,
            "LR009",
            "random imported outside repro/planner/ and repro/datasets/; "
            "statistics sampling belongs to the planner",
            findings,
        )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and not any(part in posix for part in STORAGE_IO_ALLOWED)
        ):
            mode = _open_mode(node)
            if isinstance(mode, str) and "b" in mode:
                findings.append(
                    (
                        source.path,
                        node.lineno,
                        "LR008",
                        f"binary-mode open({mode!r}) outside "
                        f"repro/storage/; byte-level file access belongs "
                        f"to the storage engine",
                    )
                )
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _STORAGE_IO_OS_FUNCS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and not any(part in posix for part in STORAGE_IO_ALLOWED)
        ):
            findings.append(
                (
                    source.path,
                    node.lineno,
                    "LR008",
                    f"os.{node.attr} used outside repro/storage/; "
                    f"byte-level file access belongs to the storage "
                    f"engine",
                )
            )
        if isinstance(node, ast.Call) and any(part in posix for part in REQUEST_PATH):
            reason = _unbounded_wait(node)
            if reason is not None:
                findings.append(
                    (
                        source.path,
                        node.lineno,
                        "LR013",
                        f"{reason} on the request path; bound it with the "
                        f"request's deadline",
                    )
                )
        for lineno, member in _database_wide_versions(node):
            findings.append(
                (
                    source.path,
                    lineno,
                    "LR010",
                    f"database-wide {member}; key on the versions of the "
                    f"tables read (Table.version, Database.versions) instead",
                )
            )
        name = _named(node)
        if name in INDEX_INTERNALS and not any(
            part in posix for part in INDEX_INTERNALS_ALLOWED
        ):
            findings.append(
                (
                    source.path,
                    node.lineno,
                    "LR014",
                    f"{name} named outside repro/relational/; ask the "
                    f"database (hits, candidates, completions) instead",
                )
            )
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                (source.path, node.lineno, "LR001", "bare 'except:' clause")
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Tracer"
            and not any(part in posix for part in TRACER_ALLOWED)
        ):
            findings.append(
                (
                    source.path,
                    node.lineno,
                    "LR002",
                    "Tracer() constructed outside a pipeline entry point; "
                    "accept a tracer parameter instead",
                )
            )
        if (
            isinstance(node, ast.Call)
            and _is_thread_constructor(node.func)
            and not any(part in posix for part in THREAD_RULE_EXEMPT)
        ):
            kwargs = {kw.arg for kw in node.keywords if kw.arg}
            missing = sorted({"name", "daemon"} - kwargs)
            if missing:
                findings.append(
                    (
                        source.path,
                        node.lineno,
                        "LR005",
                        "threading.Thread(...) without explicit "
                        + " and ".join(f"{kw}=" for kw in missing)
                        + "; name threads and decide their daemon-ness",
                    )
                )
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ROW_NAMES
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and "repro/relational/" not in posix
        ):
            findings.append(
                (
                    source.path,
                    node.lineno,
                    "LR003",
                    f"string subscript on row variable "
                    f"{node.value.id}[{node.slice.value!r}] outside "
                    f"repro.relational",
                )
            )

    if "repro/planner/" not in posix:
        # LR009 (cost half): *_COST_PARAMS definitions outside the
        # planner fork the cost model — import params_for_backend instead
        for statement in source.tree.body:
            if isinstance(statement, ast.Assign):
                names = [t for t in statement.targets if isinstance(t, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                names = [statement.target]
            else:
                continue
            for name in names:
                if name.id.endswith(_COST_CONSTANT_SUFFIX):
                    findings.append(
                        (
                            source.path,
                            statement.lineno,
                            "LR009",
                            f"cost-model constant {name.id} defined outside "
                            f"repro/planner/; import "
                            f"repro.planner.params_for_backend instead",
                        )
                    )

    for package, forbidden in LAYERING:
        module = source.module
        if not (module == package or module.startswith(package + ".")):
            continue
        for lineno, imported in iter_module_level_imports(source.tree):
            for prefix in forbidden:
                if imported == prefix or imported.startswith(prefix + "."):
                    if any(
                        part in posix
                        and (
                            imported == exempt
                            or imported.startswith(exempt + ".")
                        )
                        for part, exempt in LAYERING_EXEMPT
                    ):
                        continue
                    findings.append(
                        (
                            source.path,
                            lineno,
                            "LR004",
                            f"{package} must not import {imported} at "
                            f"module level",
                        )
                    )
    findings.extend(_lock_findings(source))
    return findings


# ----------------------------------------------------------------------
# Public lint entry points
# ----------------------------------------------------------------------
def lint_file(root: Path, path: Path) -> List[Finding]:
    return analyze_source(load_source_file(root, path))


def lint_tree(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for source in load_tree(root):
        findings.extend(analyze_source(source))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Project-specific AST lint for the repro codebase"
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=default_root(),
        help="package directory to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    findings = lint_tree(args.root)
    for path, lineno, code, message in findings:
        print(f"{path}:{lineno}: {code} {message}")
    if not findings:
        print(f"lint_repro: clean ({args.root})")
    return min(len(findings), 1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
