"""Static analysis of CSP programs and parallelization plans.

The analyzer recovers per-segment *effect summaries* (who a segment
calls, sends to, emits to; which state keys it reads and writes) from
builder metadata when available and a conservative Python-AST walk
otherwise, assembles them into a static communication graph, and runs a
rule catalogue over the result:

* determinism-contract violations (SA1xx),
* statically-certain time faults — the paper's Figure 4 service-set
  reentry and Figure 7 mutual speculation cycle (SA2xx),
* output-commit hazards around ``Emit`` (SA3xx),
* plan/program consistency, including statically-certain value faults
  (SA4xx),
* effects-and-commutativity findings — uncertified same-state races,
  deferrable guesses, bump-certified exports (SA6xx).

The effects layer (:mod:`repro.analyze.effects`) lifts the summaries
onto the runtime's canonical access keys, classifies writes into
commutativity classes, and issues the certificates the optimistic
runtime consumes when ``OptimisticConfig(static_effects=True)``; the
soundness monitor (:mod:`repro.analyze.soundness`) cross-checks the
static sets against recorded access sets.

Entry points: ``python -m repro lint``, ``OptimisticSystem(...,
strict_plans=True)``, ``propose_plan(..., static=True)``, and
``make lint`` / ``make analyze-smoke``.  See ``docs/ANALYSIS.md``.
"""

from repro.analyze.astwalk import UNKNOWN, WalkResult, walk_function
from repro.analyze.effects import (
    ProgramEffects,
    SegmentEffects,
    StaticConflictReport,
    infer_program_effects,
    static_conflicts,
)
from repro.analyze.filescan import scan_file, scan_paths
from repro.analyze.graph import (
    Entry,
    ForkSite,
    SiteSafety,
    SystemModel,
    fork_site_safety,
    predicted_keys,
)
from repro.analyze.report import SCHEMA_VERSION, Finding, Report, Severity
from repro.analyze.rules import RULES, Rule, rule, run_rules
from repro.analyze.sarif import to_sarif, to_sarif_json
from repro.analyze.soundness import check_access, check_system
from repro.analyze.summary import (
    ProgramSummary,
    SegmentSummary,
    summarize_program,
    summarize_segment,
)
from repro.analyze.targets import (
    CLEAN_TARGETS,
    FAULTY_TARGETS,
    TARGETS,
    build_target,
)

__all__ = [
    "UNKNOWN",
    "WalkResult",
    "walk_function",
    "ProgramEffects",
    "SegmentEffects",
    "StaticConflictReport",
    "infer_program_effects",
    "static_conflicts",
    "check_access",
    "check_system",
    "to_sarif",
    "to_sarif_json",
    "SCHEMA_VERSION",
    "scan_file",
    "scan_paths",
    "Entry",
    "ForkSite",
    "SiteSafety",
    "SystemModel",
    "fork_site_safety",
    "predicted_keys",
    "Finding",
    "Report",
    "Severity",
    "RULES",
    "Rule",
    "rule",
    "run_rules",
    "ProgramSummary",
    "SegmentSummary",
    "summarize_program",
    "summarize_segment",
    "CLEAN_TARGETS",
    "FAULTY_TARGETS",
    "TARGETS",
    "build_target",
]
