"""Cost-based query planner: statistics, cardinality estimation, join
reordering and access-path selection.

The package sits above :mod:`repro.relational` and below the engine:

* :mod:`repro.planner.stats` — sampled table profiles (row count,
  reservoir sample, per-column NDV, null fraction, min/max) kept per
  table in a :class:`StatisticsCatalog` that follows each table's
  version (an append continues the table's pass);
* :mod:`repro.planner.cardinality` — selectivity and output-size
  estimates for predicates (run over the sample), equi-joins and
  GROUP BY (from NDV);
* :mod:`repro.planner.cost` — per-backend cost coefficients (memory vs
  paged disk) and the operator cost formulas;
* :mod:`repro.planner.optimizer` — :class:`Optimizer`, producing
  :class:`PlanDecisions` (join order via dynamic programming up to
  :data:`DP_RELATION_LIMIT` relations, per-predicate index-vs-seq-scan
  choices, per-operator row estimates).

The executor builds its :class:`Optimizer` lazily, on the first plan it
compiles; see ``docs/PLANNER.md`` for the full model.  Lint rule LR009 keeps
cost-model constants and statistics sampling confined here.
"""

from repro.planner.cardinality import group_output_estimate, join_selectivity
from repro.planner.cost import (
    DISK_COST_PARAMS,
    MEMORY_COST_PARAMS,
    CostParams,
    params_for_backend,
    q_error,
)
from repro.planner.optimizer import (
    DP_RELATION_LIMIT,
    JoinDecision,
    Optimizer,
    PlanDecisions,
    ScanDecision,
    recommend_indexes,
)
from repro.planner.stats import (
    ColumnProfile,
    StatisticsCatalog,
    StatsConfig,
    TableProfile,
    estimate_ndv,
    profile_table,
)

__all__ = [
    "ColumnProfile",
    "CostParams",
    "DISK_COST_PARAMS",
    "DP_RELATION_LIMIT",
    "JoinDecision",
    "MEMORY_COST_PARAMS",
    "Optimizer",
    "PlanDecisions",
    "ScanDecision",
    "StatisticsCatalog",
    "StatsConfig",
    "TableProfile",
    "estimate_ndv",
    "group_output_estimate",
    "join_selectivity",
    "params_for_backend",
    "profile_table",
    "q_error",
    "recommend_indexes",
]
