"""Functional-dependency discovery from data.

The paper assumes the FDs of an unnormalized database are known ("This can
be done by examining the functional dependencies that hold on the
relations").  In practice they must come from somewhere, so we provide a
small profiler that discovers minimal FDs ``X -> A`` with |X| bounded, in
the spirit of TANE's lattice search but implemented with straightforward
partition refinement — plenty for schema-scale relations.

Discovered FDs are *data-supported hypotheses*: they hold on the instance,
not necessarily on the domain.  The engine therefore prefers declared FDs
and only falls back to discovery when none are given.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from repro.fd.closure import implies
from repro.fd.functional_dependency import FunctionalDependency
from repro.relational.table import Table


def holds(table: Table, fd: FunctionalDependency) -> bool:
    """Check whether *fd* holds on the table instance."""
    lhs = tuple(sorted(fd.lhs))
    rhs = tuple(sorted(fd.rhs))
    lhs_idx = [table.schema.column_index(col) for col in lhs]
    rhs_idx = [table.schema.column_index(col) for col in rhs]
    seen: Dict[Tuple, Tuple] = {}
    for row in table.rows:
        key = tuple(row[i] for i in lhs_idx)
        value = tuple(row[i] for i in rhs_idx)
        if key in seen:
            if seen[key] != value:
                return False
        else:
            seen[key] = value
    return True


def discover_fds(table: Table, max_lhs: int = 2) -> List[FunctionalDependency]:
    """Discover minimal FDs with determinant size up to *max_lhs*.

    Returns FDs ``X -> A`` (singleton dependents) such that no proper subset
    of X already determines A, pruning dependents already implied by
    smaller discoveries.
    """
    columns = table.schema.column_names
    discovered: List[FunctionalDependency] = []
    for size in range(1, max_lhs + 1):
        for lhs in combinations(columns, size):
            lhs_set = frozenset(lhs)
            for target in columns:
                if target in lhs_set:
                    continue
                candidate = FunctionalDependency(lhs_set, {target})
                if implies(discovered, candidate):
                    continue  # already follows from smaller FDs
                if holds(table, candidate):
                    discovered.append(candidate)
    return discovered


def discover_key_fds(table: Table) -> List[FunctionalDependency]:
    """The FDs implied by the declared primary key (key -> all attributes)."""
    key = frozenset(table.schema.primary_key)
    rest = frozenset(table.schema.column_names) - key
    if not rest:
        return []
    return [FunctionalDependency(key, rest)]
