"""The planner's cost model.

Costs are abstract *row-operation units*, not seconds: what matters is
the relative order of candidate plans, and every formula is linear in
the rows an operator touches — mirroring the actual executor, whose hash
joins build and probe in linear time and whose scans verify each
candidate row with a compiled closure.

Per-backend calibration lives in the two :class:`CostParams` presets:
the in-memory indexes answer a probe from a dict lookup, while the disk
backend's B+-tree/hash/SPIMI probes pay page reads through the buffer
pool and return candidate *supersets* that still need heap fetches —
hence a much higher probe setup cost and per-candidate cost.

Lint rule LR009 confines cost-model constants to ``repro/planner/``; the
rest of the codebase consumes plans, not coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CostParams",
    "MEMORY_COST_PARAMS",
    "DISK_COST_PARAMS",
    "params_for_backend",
    "seq_scan_cost",
    "index_scan_cost",
    "hash_join_cost",
    "cross_join_cost",
    "q_error",
]


@dataclass(frozen=True)
class CostParams:
    """Per-backend cost coefficients (abstract units per row)."""

    backend: str
    seq_row: float        # scan + closure-verify one resident row
    index_probe: float    # fixed cost of consulting an index once
    index_row: float      # fetch + verify one index candidate position
    build_row: float      # insert one row into a hash-join build table
    probe_row: float      # probe the build table with one row
    output_row: float     # materialize one joined output row


MEMORY_COST_PARAMS = CostParams(
    backend="memory",
    seq_row=1.0,
    index_probe=20.0,
    index_row=2.5,
    build_row=1.5,
    probe_row=1.0,
    output_row=0.6,
)

DISK_COST_PARAMS = CostParams(
    backend="disk",
    seq_row=1.3,
    index_probe=150.0,
    index_row=5.0,
    build_row=1.5,
    probe_row=1.0,
    output_row=0.6,
)


def params_for_backend(label: str) -> CostParams:
    """The calibration preset for an executor's ``backend_label``."""
    return DISK_COST_PARAMS if label == "disk" else MEMORY_COST_PARAMS


def seq_scan_cost(params: CostParams, rows: float) -> float:
    return params.seq_row * max(0.0, rows)


def index_scan_cost(
    params: CostParams, candidates: float, probes: float = 1.0
) -> float:
    """Probe an index (once per key looked up), then fetch + verify each
    candidate position."""
    return params.index_probe * max(0.0, probes) + params.index_row * max(
        0.0, candidates
    )


def hash_join_cost(
    params: CostParams, left_rows: float, right_rows: float, output_rows: float
) -> float:
    """Build on the smaller side, probe with the larger — like
    :func:`repro.relational.algebra.hash_join`."""
    build = min(left_rows, right_rows)
    probe = max(left_rows, right_rows)
    return (
        params.build_row * max(0.0, build)
        + params.probe_row * max(0.0, probe)
        + params.output_row * max(0.0, output_rows)
    )


def cross_join_cost(params: CostParams, left_rows: float, right_rows: float) -> float:
    return params.output_row * max(0.0, left_rows) * max(0.0, right_rows)


def q_error(estimated: float, actual: float) -> float:
    """The symmetric estimation-error ratio ``max(est/act, act/est)``.

    Both quantities are floored at one row so empty results do not
    divide by zero; a perfect estimate scores 1.0.
    """
    estimated = max(1.0, float(estimated))
    actual = max(1.0, float(actual))
    return max(estimated / actual, actual / estimated)
