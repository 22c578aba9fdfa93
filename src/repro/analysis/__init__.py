"""Experiment drivers: the paper's results as runnable analyses.

* :mod:`repro.analysis.lemmas` — witness-producing lemma checks;
* :mod:`repro.analysis.impossibility` — Section 5 (Corollaries 5.2, 5.4,
  the permutation-layering FLP) with constructive adversaries;
* :mod:`repro.analysis.sync_lower_bound` — Section 6 (Lemmas 6.1–6.4,
  Corollary 6.3) with failure schedules and tightness verification;
* :mod:`repro.analysis.solvability_experiments` — Section 7 (the
  solvability matrix, Lemma 7.1, the diameter tables);
* :mod:`repro.analysis.statistics` / :mod:`repro.analysis.reports` —
  ablation measurements and table rendering.
"""

from repro.analysis.impossibility import (
    Refutation,
    corollary_5_2,
    corollary_5_4,
    forever_bivalent_run,
    permutation_impossibility,
    refute_candidate,
    standard_layerings,
)
from repro.analysis.lemmas import (
    LemmaReport,
    lemma_3_1,
    lemma_3_2,
    lemma_3_6_report,
    lemma_4_1,
    lemma_5_1,
    lemma_5_3,
)
from repro.analysis.reports import render_table, render_verdict_rows
from repro.analysis.solvability_experiments import (
    CANDIDATES,
    SOLVERS,
    MatrixEntry,
    diameter_table,
    lemma_7_1_run,
    solvability_matrix,
    theorem_7_7_table,
)
from repro.analysis.statistics import (
    FilteredLayering,
    LayerStats,
    layer_statistics,
)
from repro.analysis.sync_tasks import (
    check_solves_in_rounds,
    lemma_7_5_consistency,
)
from repro.analysis.sync_lower_bound import (
    LowerBoundRow,
    defeat_fast_candidates,
    lemma_6_1,
    lemma_6_2,
    lemma_6_4,
    make_st_system,
    synchronous_bivalent_start,
    verify_tight_protocols,
)

__all__ = [
    "CANDIDATES",
    "FilteredLayering",
    "LayerStats",
    "LemmaReport",
    "LowerBoundRow",
    "MatrixEntry",
    "Refutation",
    "SOLVERS",
    "check_solves_in_rounds",
    "corollary_5_2",
    "corollary_5_4",
    "defeat_fast_candidates",
    "diameter_table",
    "forever_bivalent_run",
    "layer_statistics",
    "lemma_3_1",
    "lemma_3_2",
    "lemma_3_6_report",
    "lemma_4_1",
    "lemma_5_1",
    "lemma_5_3",
    "lemma_6_1",
    "lemma_6_2",
    "lemma_6_4",
    "lemma_7_1_run",
    "lemma_7_5_consistency",
    "make_st_system",
    "permutation_impossibility",
    "refute_candidate",
    "render_table",
    "render_verdict_rows",
    "solvability_matrix",
    "standard_layerings",
    "synchronous_bivalent_start",
    "theorem_7_7_table",
    "verify_tight_protocols",
]
